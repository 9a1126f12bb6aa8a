"""Network forwards against a naive per-sample oracle, init, and packing."""

from __future__ import annotations

import numpy as np
import pytest

import autodiff as ad
import helpers
from feddag import nets
from feddag.params import DimensionMismatch, ParamVector


def task_forward(params, arch, x):
    """Single-sample forward through the batched one: (feature vector, logit vector)."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size != arch.input_dim:
        raise DimensionMismatch(f"input has dim {x.size}, arch wants {arch.input_dim}")
    feats, logits = nets.task_apply(params, arch, x[None, :])
    return feats[0], logits[0]


def gen_forward(params, arch, x):
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size != arch.input_dim:
        raise DimensionMismatch(f"input has dim {x.size}, arch wants {arch.input_dim}")
    return nets.gen_apply(params, arch, x[None, :])[0]


def assert_takes_exactly(count, arch):
    """init_params makes count entries, and split_layers accepts count and no other size."""
    assert len(nets.init_params(arch, np.random.default_rng(0))) == count
    nets.split_layers(np.zeros(count), arch.layer_dims())
    for wrong in (count - 1, count + 1):
        with pytest.raises(DimensionMismatch):
            nets.split_layers(np.zeros(wrong), arch.layer_dims())


class TestArchitectures:
    def test_task_param_count_closed_form(self):
        # (4+1)*8 + (8+1)*8 + (8+1)*16 + (16+1)*3
        assert_takes_exactly(40 + 72 + 144 + 51, nets.TaskArch(4, (8, 8), 16, 3))

    def test_gen_param_count_closed_form(self):
        assert_takes_exactly(40 + 36, nets.GenArch(4, (8,)))

    def test_layer_dims_end_with_classifier(self):
        arch = nets.TaskArch(6, (5,), 4, 2)
        assert arch.layer_dims() == [(6, 5), (5, 4), (4, 2)]

    def test_gen_output_width_equals_input(self):
        arch = nets.GenArch(7, (3, 3))
        assert arch.layer_dims()[-1][1] == 7

    @pytest.mark.parametrize(
        "field, ok, bad",
        [
            ("input_dim", 1, 0),
            ("hidden_dims", (1,), (0,)),
            ("hidden_dims", (4, 1), (4, 0)),
            ("feature_dim", 2, 1),
            ("num_classes", 1, 0),
        ],
    )
    def test_task_arch_each_bound(self, field, ok, bad):
        base = dict(input_dim=4, hidden_dims=(4,), feature_dim=4, num_classes=2)
        nets.TaskArch(**dict(base, **{field: ok}))
        with pytest.raises(ValueError, match=f"^{field} must"):
            nets.TaskArch(**dict(base, **{field: bad}))

    # The generator's hidden widths are the config key gen_hidden_dims.
    @pytest.mark.parametrize(
        "field, key, ok, bad",
        [("input_dim", "input_dim", 1, 0), ("hidden_dims", "gen_hidden_dims", (1,), (0,))],
    )
    def test_gen_arch_each_bound(self, field, key, ok, bad):
        base = dict(input_dim=4, hidden_dims=(4,))
        nets.GenArch(**dict(base, **{field: ok}))
        with pytest.raises(ValueError, match=f"^{key} must"):
            nets.GenArch(**dict(base, **{field: bad}))

    def test_arch_validation(self):
        with pytest.raises(ValueError):
            nets.TaskArch(0, (4,), 4, 2)
        with pytest.raises(ValueError):
            nets.TaskArch(4, (4,), 1, 2)
        with pytest.raises(ValueError):
            nets.GenArch(4, (0,))


class TestInit:
    def test_same_seed_is_bit_identical(self):
        arch = nets.TaskArch(5, (6,), 4, 3)
        a = nets.init_params(arch, np.random.default_rng(42))
        b = nets.init_params(arch, np.random.default_rng(42))
        assert np.array_equal(a.values, b.values)

    def test_distinct_seeds_differ(self):
        arch = nets.TaskArch(5, (6,), 4, 3)
        a = nets.init_params(arch, np.random.default_rng(1))
        b = nets.init_params(arch, np.random.default_rng(2))
        assert not np.array_equal(a.values, b.values)

    def test_glorot_bounds_and_zero_biases(self):
        arch = nets.TaskArch(5, (6,), 4, 3)
        params = nets.init_params(arch, np.random.default_rng(7))
        for (w, b), (din, dout) in zip(
            helpers.unpack(params.values, helpers.layer_shapes_task(arch)), arch.layer_dims()
        ):
            s = np.sqrt(6.0 / (din + dout))
            assert np.abs(w).max() <= s
            assert np.array_equal(b, np.zeros(dout))


class TestTaskForward:
    def test_matches_naive_oracle(self):
        arch = nets.TaskArch(6, (8, 5), 4, 3)
        for seed in range(10):
            rng = np.random.default_rng([2025, seed])
            params = nets.init_params(arch, rng)
            X = rng.normal(size=(4, 6))
            feats, logits = nets.task_apply(params, arch, X)
            ref_feats, ref_logits = helpers.naive_task_forward(params.values, arch, X)
            np.testing.assert_allclose(feats, ref_feats, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(logits, ref_logits, rtol=1e-12, atol=1e-14)

    def test_single_sample_equals_batch_row(self):
        arch = nets.TaskArch(5, (6,), 4, 3)
        rng = np.random.default_rng(9)
        params = nets.init_params(arch, rng)
        X = rng.normal(size=(3, 5))
        feats, logits = nets.task_apply(params, arch, X)
        f1, l1 = task_forward(params, arch, X[1])
        # single-row and batched matmuls may take different BLAS kernels
        np.testing.assert_allclose(f1, feats[1], rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(l1, logits[1], rtol=1e-15, atol=1e-15)

    def test_zero_params_give_uniform_logits(self):
        arch = nets.TaskArch(4, (3,), 2, 3)
        params = ParamVector(np.zeros(helpers.param_count(arch)))
        _, logits = nets.task_apply(params, arch, np.random.default_rng(0).normal(size=(2, 4)))
        assert np.array_equal(logits, np.zeros((2, 3)))

    def test_identity_single_layer_features(self):
        # one weight layer = identity, zero classifier: features = relu(x)
        arch = nets.TaskArch(2, (), 2, 2)
        values = np.concatenate([np.eye(2).reshape(-1), np.zeros(2), np.zeros(6)])
        feats, _ = nets.task_apply(ParamVector(values), arch, np.array([[1.0, -2.0]]))
        assert feats[0].tolist() == [1.0, 0.0]

    def test_forward_determinism(self):
        arch = nets.TaskArch(5, (6,), 4, 3)
        rng = np.random.default_rng(11)
        params = nets.init_params(arch, rng)
        X = rng.normal(size=(3, 5))
        a = nets.task_apply(params, arch, X)
        b = nets.task_apply(params, arch, X)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_nan_pre_activation_propagates(self):
        # The relu max(z, 0) keeps a NaN pre-activation, so a broken hidden
        # unit reaches the logits and the finiteness checks downstream.
        arch = nets.TaskArch(5, (6,), 4, 3)
        rng = np.random.default_rng(12)
        values = nets.init_params(arch, rng).values.copy()
        layers = nets.split_layers(values, arch.layer_dims())
        layers[0][1][..., 2] = np.nan
        acts, logits = nets.mlp_forward(layers, rng.normal(size=(3, 5)))
        assert np.isnan(acts[1][:, 2]).all()
        assert np.isfinite(np.delete(acts[1], 2, axis=1)).all()
        assert np.isnan(logits).all()
        _, task_logits = nets.task_apply(values, arch, rng.normal(size=(3, 5)))
        assert np.isnan(task_logits).all()

    def test_dimension_errors(self):
        arch = nets.TaskArch(5, (6,), 4, 3)
        params = nets.init_params(arch, np.random.default_rng(0))
        with pytest.raises(DimensionMismatch):
            nets.task_apply(params, arch, np.zeros((2, 4)))
        with pytest.raises(DimensionMismatch):
            nets.task_apply(ParamVector(np.zeros(10)), arch, np.zeros((2, 5)))


class TestGenForward:
    def test_matches_naive_oracle(self):
        arch = nets.GenArch(6, (5,))
        for seed in range(10):
            rng = np.random.default_rng([2026, seed])
            params = nets.init_params(arch, rng)
            X = rng.normal(size=(4, 6))
            np.testing.assert_allclose(
                nets.gen_apply(params, arch, X),
                helpers.naive_gen_forward(params.values, arch, X),
                rtol=1e-12,
                atol=1e-14,
            )

    def test_output_strictly_inside_unit_interval(self):
        arch = nets.GenArch(4, (8,))
        rng = np.random.default_rng(3)
        params = nets.init_params(arch, rng)
        delta = nets.gen_apply(params, arch, rng.normal(size=(20, 4)))
        assert np.abs(delta).max() < 1.0

    def test_zero_params_emit_zero_delta(self):
        arch = nets.GenArch(4, (3,))
        params = ParamVector(np.zeros(helpers.param_count(arch)))
        delta = nets.gen_apply(params, arch, np.random.default_rng(0).normal(size=(3, 4)))
        assert np.array_equal(delta, np.zeros((3, 4)))

    def test_single_sample_equals_batch_row(self):
        arch = nets.GenArch(5, (4,))
        rng = np.random.default_rng(13)
        params = nets.init_params(arch, rng)
        X = rng.normal(size=(3, 5))
        assert np.array_equal(gen_forward(params, arch, X[2]), nets.gen_apply(params, arch, X)[2])


class TestGraphConsistency:
    def test_graph_forward_equals_plain_forward(self):
        task_arch = nets.TaskArch(5, (6,), 4, 3)
        gen_arch = nets.GenArch(5, (4,))
        rng = np.random.default_rng(17)
        tp = nets.init_params(task_arch, rng)
        gp = nets.init_params(gen_arch, rng)
        X = rng.uniform(size=(4, 5))

        feats, logits = ad.task_graph(ad.layer_tensors(tp, task_arch, False), ad.Tensor(X))
        pf, pl = nets.task_apply(tp, task_arch, X)
        assert np.array_equal(feats.value, pf)
        assert np.array_equal(logits.value, pl)

        delta = ad.gen_graph(ad.layer_tensors(gp, gen_arch, False), ad.Tensor(X))
        assert np.array_equal(delta.value, nets.gen_apply(gp, gen_arch, X))
