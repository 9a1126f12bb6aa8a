"""Reverse-mode gradients against central finite differences and exact branches."""

from __future__ import annotations

import numpy as np
import pytest

import autodiff as ad
import helpers
import scalar_losses
import sha_oracle
from feddag import nets

TASK_ARCH = nets.TaskArch(5, (7,), 4, 3)
GEN_ARCH = nets.GenArch(5, (6,))


def clean_fixture(seed, margin=2e-3):
    """Random nets/batch resampled until every kink is at least margin away."""
    for attempt in range(60):
        rng = np.random.default_rng([1009, seed, attempt])
        stu = nets.init_params(TASK_ARCH, rng)
        tea = nets.init_params(TASK_ARCH, rng)
        gen = nets.init_params(GEN_ARCH, rng)
        n = int(rng.integers(1, 5))
        X = rng.uniform(0.1, 0.9, size=(n, TASK_ARCH.input_dim))
        y = rng.integers(0, TASK_ARCH.num_classes, size=n)
        t_feats, _ = nets.task_apply(tea, TASK_ARCH, X)
        mins = helpers.composition_margins(
            stu.values, TASK_ARCH, gen.values, GEN_ARCH, X, y, t_feats, alpha=0.3, m=0.5
        )
        if min(mins.values()) > margin:
            return stu, gen, X, y, t_feats
    raise AssertionError(f"no kink-clear fixture for seed {seed}")


def gen_objective_graph(gen, stu, X, y, t_feats, alpha, m):
    """The generator objective exactly as the training step composes it."""
    n = X.shape[0]
    gen_layers = ad.layer_tensors(gen, GEN_ARCH, trainable=True)
    stu_layers = ad.layer_tensors(stu, TASK_ARCH, trainable=False)
    x = ad.Tensor(X)
    x_hat = ad.clip(ad.add(x, ad.scale(ad.gen_graph(gen_layers, x), alpha)), 0.0, 1.0)
    feats, logits = ad.task_graph(stu_layers, x_hat)
    ce = ad.cross_entropy_mean(logits, y)
    dist, _ = ad.normalized_sq_dist_rows(ad.Tensor(t_feats), feats)
    dis = ad.weighted_sum(ad.minimum_const(dist, m), np.full(n, 1.0 / n))
    return ad.sub(ce, dis), gen_layers


def student_objective_graph(stu, x_hat, y, t_feats):
    n = x_hat.shape[0]
    stu_layers = ad.layer_tensors(stu, TASK_ARCH, trainable=True)
    feats, logits = ad.task_graph(stu_layers, ad.Tensor(x_hat))
    ce = ad.cross_entropy_mean(logits, y)
    dist, _ = ad.normalized_sq_dist_rows(ad.Tensor(t_feats), feats)
    sim = ad.weighted_sum(dist, np.full(n, 1.0 / n))
    return ad.add(ce, sim), stu_layers


class TestCompositionGradients:
    def test_generator_objective_matches_finite_differences(self):
        for seed in range(25):
            stu, gen, X, y, t_feats = clean_fixture(seed)
            objective, gen_layers = gen_objective_graph(gen, stu, X, y, t_feats, 0.3, 0.5)
            ad.backward(objective)
            analytic = ad.flat_grad(gen_layers).values

            def f(phi):
                return helpers.gen_objective_ref(
                    phi, stu.values, TASK_ARCH, GEN_ARCH, X, y, t_feats, 0.3, 0.5
                )

            err = helpers.max_rel_err(analytic, helpers.fd_grad(f, gen.values))
            assert err < 1e-4, f"seed {seed}: rel err {err}"

    def test_student_objective_matches_finite_differences(self):
        for seed in range(25):
            stu, gen, X, y, t_feats = clean_fixture(seed + 1000)
            x_hat = np.clip(X + 0.3 * nets.gen_apply(gen, GEN_ARCH, X), 0.0, 1.0)
            objective, stu_layers = student_objective_graph(stu, x_hat, y, t_feats)
            ad.backward(objective)
            analytic = ad.flat_grad(stu_layers).values

            def f(omega):
                return helpers.student_objective_ref(omega, TASK_ARCH, x_hat, y, t_feats)

            err = helpers.max_rel_err(analytic, helpers.fd_grad(f, stu.values))
            assert err < 1e-4, f"seed {seed}: rel err {err}"

    def test_plain_cross_entropy_matches_finite_differences(self):
        for seed in range(10):
            stu, _, X, y, _ = clean_fixture(seed + 2000)
            layers = ad.layer_tensors(stu, TASK_ARCH, trainable=True)
            _, logits = ad.task_graph(layers, ad.Tensor(X))
            ad.backward(ad.cross_entropy_mean(logits, y))
            analytic = ad.flat_grad(layers).values

            def f(omega):
                _, z = helpers.naive_task_forward(omega, TASK_ARCH, X)
                return helpers.ce_mean_ref(z, y)

            err = helpers.max_rel_err(analytic, helpers.fd_grad(f, stu.values))
            assert err < 1e-4, f"seed {seed}: rel err {err}"


class TestExactBranches:
    def test_capped_entries_get_exactly_zero_gradient(self):
        x = ad.Tensor(np.array([0.5, 2.0, 1.0]), requires_grad=True)
        out = ad.weighted_sum(ad.minimum_const(x, 1.0), np.array([1.0, 1.0, 1.0]))
        ad.backward(out)
        # 2.0 is above the cap, 1.0 sits exactly on it: both are flat branches
        assert x.grad.tolist() == [1.0, 0.0, 0.0]

    def test_clip_blocks_gradient_outside_range(self):
        x = ad.Tensor(np.array([-0.5, 0.3, 1.5, 0.0, 1.0]), requires_grad=True)
        out = ad.weighted_sum(ad.clip(x, 0.0, 1.0), np.ones(5))
        ad.backward(out)
        assert x.grad.tolist() == [0.0, 1.0, 0.0, 1.0, 1.0]

    def test_loss_constant_in_parameter_gives_zero_grad(self):
        layers = ad.layer_tensors(
            nets.init_params(GEN_ARCH, np.random.default_rng(3)), GEN_ARCH, trainable=True
        )
        zeros = np.zeros(helpers.param_count(GEN_ARCH))
        assert np.array_equal(ad.flat_grad(layers).values, zeros)

    def test_alpha_zero_gives_generator_exactly_zero_grad(self):
        stu, gen, X, y, t_feats = clean_fixture(7)
        objective, gen_layers = gen_objective_graph(gen, stu, X, y, t_feats, 0.0, 0.5)
        ad.backward(objective)
        assert np.array_equal(ad.flat_grad(gen_layers).values, np.zeros(len(gen)))


class TestGraphMechanics:
    def test_fanout_accumulates_gradients(self):
        x = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        total = ad.add(
            ad.weighted_sum(x, np.array([1.0, 0.0])),
            ad.weighted_sum(x, np.array([3.0, 4.0])),
        )
        ad.backward(total)
        assert x.grad.tolist() == [4.0, 4.0]

    def test_backward_requires_scalar_root(self):
        x = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with pytest.raises(ValueError):
            ad.backward(ad.relu(x))

    def test_backward_is_deterministic(self):
        grads = []
        for _ in range(2):
            stu, gen, X, y, t_feats = clean_fixture(11)
            objective, gen_layers = gen_objective_graph(gen, stu, X, y, t_feats, 0.3, 0.5)
            ad.backward(objective)
            grads.append(ad.flat_grad(gen_layers).values)
        assert np.array_equal(grads[0], grads[1])


class TestForwardAgreement:
    def test_cross_entropy_value_matches_scalar_reference(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(6, 4))
        y = rng.integers(0, 4, size=6)
        node = ad.cross_entropy_mean(ad.Tensor(z), y)
        assert abs(float(node.value) - sha_oracle.batch_loss_cls(z, y)) < 1e-12
        assert abs(float(node.value) - helpers.ce_mean_ref(z, y)) < 1e-12

    def test_nsd_rows_match_scalar_reference(self):
        rng = np.random.default_rng(6)
        F = rng.normal(size=(5, 4))
        H = rng.normal(size=(5, 4))
        node, valid = ad.normalized_sq_dist_rows(ad.Tensor(F), ad.Tensor(H))
        assert valid.all()
        for i in range(5):
            assert abs(node.value[i] - scalar_losses.normalized_sq_dist(F[i], H[i])) < 1e-12
        np.testing.assert_allclose(node.value, helpers.nsd_rows_ref(F, H), rtol=1e-12)

    def test_nsd_degenerate_rows_are_masked_without_gradient(self):
        F = np.array([[1.0, 0.0], [0.0, 0.0]])
        H = np.array([[0.0, 1.0], [1.0, 1.0]])
        f = ad.Tensor(F, requires_grad=True)
        node, valid = ad.normalized_sq_dist_rows(f, ad.Tensor(H))
        assert valid.tolist() == [True, False]
        assert node.value[1] == 0.0
        ad.backward(ad.weighted_sum(node, np.ones(2)))
        assert np.array_equal(f.grad[1], np.zeros(2))
        assert not np.array_equal(f.grad[0], np.zeros(2))
