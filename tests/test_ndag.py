"""Per-client adversarial loop: perturbation, two-step game, EMA teacher."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import autodiff as ad
import fixtures
import helpers
from feddag import ndag, nets
from feddag.params import DimensionMismatch, ParamVector

TASK_ARCH = nets.TaskArch(5, (7,), 4, 3)
GEN_ARCH = nets.GenArch(5, (6,))


def step_hyper(**overrides):
    base = dict(alpha=0.3, m=0.5, ema_decay=0.95, lr=0.001, momentum=0.9,
                weight_decay=0.0, batch_size=32)
    base.update(overrides)
    return ndag.NdagHyper(**base)


def clean_fixture(seed, n_lo=1, n_hi=2, margin=2e-3):
    """Random teacher/student/generator batch away from every gradient kink."""
    for attempt in range(60):
        rng = np.random.default_rng([1013, seed, attempt])
        stu = nets.init_params(TASK_ARCH, rng)
        tea = nets.init_params(TASK_ARCH, rng)
        gen = nets.init_params(GEN_ARCH, rng)
        n = int(rng.integers(n_lo, n_hi + 1))
        X = rng.uniform(0.1, 0.9, size=(n, TASK_ARCH.input_dim))
        y = rng.integers(0, TASK_ARCH.num_classes, size=n)
        t_feats, _ = nets.task_apply(tea, TASK_ARCH, X)
        mins = helpers.composition_margins(
            stu.values, TASK_ARCH, gen.values, GEN_ARCH, X, y, t_feats, alpha=0.3, m=0.5
        )
        if min(mins.values()) > margin:
            models = helpers.Models(student=stu, generator=gen, teacher=tea)
            return models, X, y, t_feats
    raise RuntimeError(f"no kink-free fixture for seed {seed}")


class TestNdagHyper:
    @pytest.mark.parametrize(
        "field, ok, bad",
        [
            ("alpha", 0.0, -1e-9),
            ("alpha", 1.0, 1.0 + 1e-9),
            ("m", 1e-9, 0.0),
            ("ema_decay", 0.0, -1e-9),
            ("ema_decay", 1.0, 1.0 + 1e-9),
            ("lr", 1e-9, 0.0),
            ("momentum", 0.0, -1e-9),
            ("momentum", 0.99, 1.0),
            ("weight_decay", 0.0, -1e-9),
            ("batch_size", 1, 0),
        ]
        + [
            (field, 0.5, float("nan"))
            for field in ("alpha", "m", "ema_decay", "lr", "momentum", "weight_decay")
        ],
    )
    def test_each_bound(self, field, ok, bad):
        ndag.NdagHyper(**{field: ok})
        with pytest.raises(ValueError, match=f"^{field} must"):
            ndag.NdagHyper(**{field: bad})


class TestGenerate:
    def test_alpha_zero_is_identity(self):
        rng = np.random.default_rng(3)
        gen = nets.init_params(GEN_ARCH, rng)
        X = rng.uniform(0.0, 1.0, size=(6, 5))
        assert np.array_equal(ndag.generate(gen, GEN_ARCH, X, 0.0), X)

    def test_zero_generator_is_identity(self):
        gen = ParamVector(np.zeros(GEN_ARCH.param_count()))
        X = np.random.default_rng(4).uniform(0.0, 1.0, size=(5, 5))
        assert np.array_equal(ndag.generate(gen, GEN_ARCH, X, 0.7), X)

    def test_upper_clamp_example(self):
        # W = 0 and b = atanh(0.5) emit delta = 0.5 for any input, so
        # x_hat = clamp(0.9 + 0.3 * 0.5) = clamp(1.05) hits the ceiling.
        arch = nets.GenArch(1, ())
        gen = ParamVector(np.array([0.0, np.arctanh(0.5)]))
        out = ndag.generate(gen, arch, np.array([[0.9]]), 0.3)
        assert out[0, 0] == 1.0

    def test_output_stays_inside_range(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            gen = nets.init_params(GEN_ARCH, rng)
            X = rng.uniform(0.0, 1.0, size=(8, 5))
            out = ndag.generate(gen, GEN_ARCH, X, 1.0)
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_input_width_mismatch_rejected(self):
        gen = nets.init_params(GEN_ARCH, np.random.default_rng(7))
        with pytest.raises(ValueError):
            ndag.generate(gen, GEN_ARCH, np.full((2, 4), 0.5), 0.3)


class TestGeneratorStep:
    def test_matches_finite_difference_oracle(self):
        hyper = step_hyper()
        for seed in range(12):
            models, X, y, t_feats = clean_fixture(seed)
            fn = lambda phi: helpers.gen_objective_ref(
                phi, models.student.values, TASK_ARCH, GEN_ARCH, X, y, t_feats,
                hyper.alpha, hyper.m,
            )
            expected = models.generator.values - hyper.lr * helpers.fd_grad(
                fn, models.generator.values
            )
            stack, X1, y1, t1 = helpers.one_client(models, X, y, t_feats)
            ndag.generator_step(stack, TASK_ARCH, GEN_ARCH, X1, y1, hyper, t1)
            assert np.abs(stack.generator.params[0] - expected).max() < 1e-6

    def test_touches_only_the_generator(self):
        models, X, y, t_feats = clean_fixture(20)
        stack, X1, y1, t1 = helpers.one_client(models, X, y, t_feats)
        ndag.generator_step(stack, TASK_ARCH, GEN_ARCH, X1, y1, step_hyper(), t1)
        assert np.array_equal(stack.student.params[0], models.student.values)
        assert np.array_equal(stack.teacher[0], models.teacher.values)
        assert not stack.student.buf.any() and stack.generator.buf.any()
        assert not np.array_equal(stack.generator.params[0], models.generator.values)

    def test_fully_capped_batch_is_a_pure_classification_step(self):
        # with every raw discrepancy above the cap the -L_dis branch carries
        # exactly zero gradient, so the update must equal a CE-only step
        hyper = step_hyper(m=1e-6, weight_decay=5e-4)
        for seed in range(40):
            rng = np.random.default_rng([877, seed])
            stu = nets.init_params(TASK_ARCH, rng)
            tea = nets.init_params(TASK_ARCH, rng)
            gen = nets.init_params(GEN_ARCH, rng)
            X = rng.uniform(0.1, 0.9, size=(3, 5))
            y = rng.integers(0, 3, size=3)
            t_feats, _ = nets.task_apply(tea, TASK_ARCH, X)
            x_hat = ndag.generate(gen, GEN_ARCH, X, hyper.alpha)
            s_feats, _ = nets.task_apply(stu, TASK_ARCH, x_hat)
            if min(np.linalg.norm(t_feats, axis=1).min(),
                   np.linalg.norm(s_feats, axis=1).min()) < 1e-3:
                continue
            raw = helpers.nsd_rows_ref(t_feats, s_feats)
            if raw.min() < 1e-4:
                continue
            models = helpers.Models(student=stu, generator=gen, teacher=tea)
            stack, X1, y1, t1 = helpers.one_client(models, X, y, t_feats)
            _, l_dis, _ = ndag.generator_step(stack, TASK_ARCH, GEN_ARCH, X1, y1, hyper, t1)
            gen_layers = ad.layer_tensors(gen, GEN_ARCH, trainable=True)
            stu_layers = ad.layer_tensors(stu, TASK_ARCH, trainable=False)
            x = ad.Tensor(X)
            xh = ad.clip(ad.add(x, ad.scale(ad.gen_graph(gen_layers, x), hyper.alpha)), 0.0, 1.0)
            _, logits = ad.task_graph(stu_layers, xh)
            ad.backward(ad.cross_entropy_mean(logits, y))
            ref, _ = helpers.mirror_sgd(gen.values, ad.flat_grad(gen_layers).values, None,
                                        hyper.lr, hyper.momentum, hyper.weight_decay)
            assert np.array_equal(stack.generator.params[0], ref)
            assert l_dis[0] == pytest.approx(hyper.m, rel=1e-12)
            return
        raise RuntimeError("no fully capped fixture found")

    def test_alpha_zero_leaves_generator_unchanged(self):
        hyper = step_hyper(alpha=0.0)
        models, X, y, t_feats = clean_fixture(21, n_lo=3, n_hi=3)
        stack, X1, y1, t1 = helpers.one_client(models, X, y, t_feats)
        ndag.generator_step(stack, TASK_ARCH, GEN_ARCH, X1, y1, hyper, t1)
        assert np.array_equal(stack.generator.params[0], models.generator.values)

    def test_majority_collapse_raises(self):
        models, X, y, _ = clean_fixture(22, n_lo=3, n_hi=3)
        models = replace(models, student=ParamVector(np.zeros(TASK_ARCH.param_count())))
        t_feats, _ = nets.task_apply(models.teacher, TASK_ARCH, X)
        stack, X1, y1, t1 = helpers.one_client(models, X, y, t_feats)
        ndag.generator_step(stack, TASK_ARCH, GEN_ARCH, X1, y1, step_hyper(), t1)
        with pytest.raises(ndag.FeatureCollapse):
            stack.raise_failure()

    def test_minority_degenerate_rows_counted_and_skipped(self):
        hyper = step_hyper()
        models, X, y, t_feats = clean_fixture(23, n_lo=3, n_hi=3)
        t_feats = t_feats.copy()
        t_feats[0] = 0.0
        stack, X1, y1, t1 = helpers.one_client(models, X, y, t_feats)
        _, l_dis, bad = ndag.generator_step(stack, TASK_ARCH, GEN_ARCH, X1, y1, hyper, t1)
        assert bad.tolist() == [1]
        assert stack.errors == {}
        x_hat = ndag.generate(models.generator, GEN_ARCH, X, hyper.alpha)
        s_feats, _ = nets.task_apply(models.student, TASK_ARCH, x_hat)
        live = helpers.nsd_rows_ref(t_feats[1:], s_feats[1:])
        expected = float(np.minimum(live, hyper.m).sum()) / 3.0
        assert l_dis[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_forward_raises_divergence(self):
        models, X, y, t_feats = clean_fixture(24, n_lo=2, n_hi=2)
        huge = ParamVector(np.full(TASK_ARCH.param_count(), 1e200))
        models = replace(models, student=huge)
        stack, X1, y1, t1 = helpers.one_client(models, X, y, t_feats)
        ndag.generator_step(stack, TASK_ARCH, GEN_ARCH, X1, y1, step_hyper(), t1)
        with pytest.raises(ndag.DivergenceError):
            stack.raise_failure()


class TestStudentStep:
    def test_matches_finite_difference_oracle(self):
        hyper = step_hyper()
        for seed in range(12):
            models, X, y, t_feats = clean_fixture(seed + 100)
            x_hat = ndag.generate(models.generator, GEN_ARCH, X, hyper.alpha)
            fn = lambda w: helpers.student_objective_ref(w, TASK_ARCH, x_hat, y, t_feats)
            expected = models.student.values - hyper.lr * helpers.fd_grad(
                fn, models.student.values
            )
            stack, X1, y1, t1 = helpers.one_client(models, X, y, t_feats)
            ndag.student_step(stack, TASK_ARCH, GEN_ARCH, X1, y1, hyper, t1)
            assert np.abs(stack.student.params[0] - expected).max() < 1e-6

    def test_touches_only_the_student(self):
        models, X, y, t_feats = clean_fixture(120)
        stack, X1, y1, t1 = helpers.one_client(models, X, y, t_feats)
        ndag.student_step(stack, TASK_ARCH, GEN_ARCH, X1, y1, step_hyper(), t1)
        assert np.array_equal(stack.generator.params[0], models.generator.values)
        assert np.array_equal(stack.teacher[0], models.teacher.values)
        assert not stack.generator.buf.any() and stack.student.buf.any()
        assert not np.array_equal(stack.student.params[0], models.student.values)

    def test_reduces_to_plain_classification_at_self_teacher(self):
        # teacher == student and alpha = 0 put L_sim exactly at its zero
        # minimum; the step must coincide with a classification-only step
        hyper = step_hyper(alpha=0.0, weight_decay=5e-4)
        rng = np.random.default_rng(121)
        stu = nets.init_params(TASK_ARCH, rng)
        gen = nets.init_params(GEN_ARCH, rng)
        X = rng.uniform(0.1, 0.9, size=(4, 5))
        y = rng.integers(0, 3, size=4)
        models = helpers.Models(student=stu, generator=gen, teacher=stu)
        t_feats, _ = nets.task_apply(stu, TASK_ARCH, X)
        stack, X1, y1, t1 = helpers.one_client(models, X, y, t_feats)
        _, _, l_sim, _ = ndag.student_step(stack, TASK_ARCH, GEN_ARCH, X1, y1, hyper, t1)
        plain = helpers.one_client(models, ndag_enabled=False)[0]
        ndag.plain_step(plain, TASK_ARCH, X1, y1, hyper)
        assert l_sim.tolist() == [0.0]
        np.testing.assert_allclose(
            stack.student.params, plain.student.params, rtol=0.0, atol=1e-14
        )

    def test_identical_samples_mean_invariance(self):
        hyper = step_hyper()
        models, X, y, t_feats = clean_fixture(122, n_lo=1, n_hi=1)
        Xk = np.tile(X, (4, 1))
        yk = np.tile(y, 4)
        tk = np.tile(t_feats, (4, 1))
        stack, X1, y1, t1 = helpers.one_client(models, X, y, t_feats)
        g1, _, _, _ = ndag.student_step(stack, TASK_ARCH, GEN_ARCH, X1, y1, hyper, t1)
        stack, Xk1, yk1, tk1 = helpers.one_client(models, Xk, yk, tk)
        gk, _, _, _ = ndag.student_step(stack, TASK_ARCH, GEN_ARCH, Xk1, yk1, hyper, tk1)
        # averaging k copies is the same objective; only BLAS kernel choice
        # for the wider batch can move the last ulp
        np.testing.assert_allclose(gk, g1, rtol=1e-15, atol=1e-15)


def ema(teacher, student, decay):
    """One EMA step on a one-client stack; returns the new teacher row."""
    stack = teacher.reshape(1, -1).copy()
    assert ndag.ema_update(stack, student.reshape(1, -1), decay).tolist() == [True]
    return stack[0]


class TestEmaUpdate:
    def test_decay_one_keeps_teacher(self):
        rng = np.random.default_rng(30)
        t = rng.normal(size=17)
        s = rng.normal(size=17)
        assert np.array_equal(ema(t, s, 1.0), t)

    def test_decay_zero_copies_student(self):
        rng = np.random.default_rng(31)
        t = rng.normal(size=17)
        s = rng.normal(size=17)
        assert np.array_equal(ema(t, s, 0.0), s)

    def test_worked_example_hundredth_step(self):
        out = ema(np.zeros(9), np.ones(9), 0.99)
        np.testing.assert_allclose(out, 0.01, rtol=0.0, atol=1e-15)

    def test_dyadic_contraction_is_exact(self):
        # dyadic decay on small-integer weights stays exactly representable,
        # so the gap must track decay^t with zero rounding for t <= 20
        rng = np.random.default_rng(32)
        for decay in (0.5, 0.75):
            theta = rng.integers(-8, 9, size=(1, 12)).astype(np.float64)
            omega = rng.integers(-8, 9, size=(1, 12)).astype(np.float64)
            gap0 = np.abs(theta - omega).max()
            assert gap0 > 0
            expected = gap0
            for t in range(1, 21):
                ndag.ema_update(theta, omega, decay)
                expected *= decay
                gap = np.abs(theta - omega).max()
                assert gap == expected
                assert gap == decay**t * gap0

    def test_general_decay_matches_scalar_mirror(self):
        rng = np.random.default_rng(33)
        t = rng.normal(size=25)
        s = rng.normal(size=25)
        assert np.array_equal(ema(t, s, 0.95), 0.95 * t + (1.0 - 0.95) * s)

    def test_contraction_never_expands(self):
        rng = np.random.default_rng(34)
        for decay in (0.3, 0.9, 0.999):
            theta = rng.normal(size=(1, 10))
            omega = rng.normal(size=(1, 10))
            gap0 = np.abs(theta - omega).max()
            for t in range(1, 13):
                ndag.ema_update(theta, omega, decay)
                gap = np.abs(theta - omega).max()
                bound = decay**t * gap0
                # each step rounds against the O(1) student weights, so the
                # drift is absolute (~t ulps), not relative to the shrinking gap
                assert gap <= bound + 1e-13 * t
                assert gap == pytest.approx(bound, abs=1e-13 * t)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            ndag.ema_update(np.ones((1, 3)), np.ones((1, 4)), 0.5)

    def test_rows_are_independent(self):
        rng = np.random.default_rng(35)
        t = rng.normal(size=(3, 8))
        s = rng.normal(size=(3, 8))
        rows = [ema(t[c], s[c], 0.9) for c in range(3)]
        ndag.ema_update(t, s, 0.9)
        assert all(np.array_equal(t[c], rows[c]) for c in range(3))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_row_flagged(self):
        t = np.array([[1.7e308], [1.0]])
        s = np.array([[1.7e308], [2.0]])
        assert ndag.ema_update(t, s, 0.5).tolist() == [True, True]
        t = np.array([[np.inf], [1.0]])
        assert ndag.ema_update(t, s, 0.5).tolist() == [False, True]


def round_fixture(seed, n=8):
    """Random models and data with comfortably non-degenerate features."""
    for attempt in range(40):
        rng = np.random.default_rng([1777, seed, attempt])
        stu = nets.init_params(TASK_ARCH, rng)
        tea = nets.init_params(TASK_ARCH, rng)
        gen = nets.init_params(GEN_ARCH, rng)
        X = rng.uniform(0.1, 0.9, size=(n, 5))
        y = rng.integers(0, 3, size=n)
        t_feats, _ = nets.task_apply(tea, TASK_ARCH, X)
        x_hat = ndag.generate(gen, GEN_ARCH, X, 0.3)
        s_feats, _ = nets.task_apply(stu, TASK_ARCH, x_hat)
        if min(np.linalg.norm(t_feats, axis=1).min(),
               np.linalg.norm(s_feats, axis=1).min()) > 1e-2:
            return helpers.Models(student=stu, generator=gen, teacher=tea), X, y
    raise RuntimeError(f"no round fixture for seed {seed}")


def one_round(models, hyper, seed, ndag_enabled, X, y, **kw):
    """ndag.client_round for the single client models."""
    return ndag.client_round(
        *helpers.round_rows([models], ndag_enabled), TASK_ARCH, GEN_ARCH, [X], [y], hyper,
        rngs=[np.random.default_rng(seed)], **kw,
    )


class TestClientRound:
    def test_plain_path_matches_standalone_sgd_reference(self):
        hyper = ndag.NdagHyper(batch_size=3)
        models, X, y = round_fixture(0)
        result = one_round(models, hyper, 11, False, X, y, local_epochs=2)
        ref = helpers.reference_local_round(
            models.student.values, TASK_ARCH, X, y, hyper.lr, hyper.momentum,
            hyper.weight_decay, hyper.batch_size, np.random.default_rng(11), epochs=2,
        )
        assert np.array_equal(result.student[0], ref)

    def test_plain_path_uploads_the_student(self):
        models, X, y = round_fixture(1)
        result = one_round(models, ndag.NdagHyper(), 1, False, X, y)
        assert result.generator is None and result.teacher is None
        assert result.uploads is result.student

    def test_ndag_path_uploads_the_teacher(self):
        models, X, y = round_fixture(2)
        result = one_round(models, step_hyper(), 2, True, X, y)
        assert result.uploads is result.teacher

    def test_single_batch_composition_matches_manual_steps(self):
        hyper = step_hyper(weight_decay=5e-4)
        models, X, y = round_fixture(3, n=6)
        result = one_round(models, hyper, 9, True, X, y)
        order = np.random.default_rng(9).permutation(6)
        xb, yb = X[order], y[order]
        t_feats, _ = nets.task_apply(models.teacher, TASK_ARCH, xb)
        stack, xb1, yb1, t1 = helpers.one_client(models, xb, yb, t_feats)
        l_cls_g, l_dis, _ = ndag.generator_step(stack, TASK_ARCH, GEN_ARCH, xb1, yb1, hyper, t1)
        grad, l_cls_s, l_sim, _ = ndag.student_step(
            stack, TASK_ARCH, GEN_ARCH, xb1, yb1, hyper, t1
        )
        ndag.ema_update(stack.teacher, stack.student.params, hyper.ema_decay)
        assert np.array_equal(result.student, stack.student.params)
        assert np.array_equal(result.generator, stack.generator.params)
        assert np.array_equal(result.teacher, stack.teacher)
        assert np.array_equal(result.last_grads, grad)
        losses = (l_cls_g[0], l_dis[0], l_cls_s[0], l_sim[0])
        assert result.traces == [[ndag.BatchTrace(0, *losses)]]

    def test_alpha_zero_decay_zero_degenerates_to_plain_sgd(self):
        hyper = step_hyper(alpha=0.0, ema_decay=0.0, weight_decay=5e-4)
        models, X, y = round_fixture(4, n=5)
        models = replace(models, teacher=models.student)
        result = one_round(models, hyper, 5, True, X, y)
        order = np.random.default_rng(5).permutation(5)
        plain, X1, y1 = helpers.one_client(models, X[order], y[order], ndag_enabled=False)
        ndag.plain_step(plain, TASK_ARCH, X1, y1, hyper)
        np.testing.assert_allclose(
            result.student, plain.student.params, rtol=0.0, atol=1e-14
        )
        assert np.array_equal(result.teacher, result.student)

    def test_round_trace_is_reproducible(self):
        hyper = step_hyper(batch_size=2, weight_decay=5e-4)
        models, X, y = round_fixture(6)
        runs = [one_round(models, hyper, 77, True, X, y, local_epochs=2) for _ in range(2)]
        assert np.array_equal(runs[0].teacher, runs[1].teacher)
        assert np.array_equal(runs[0].student, runs[1].student)
        assert np.array_equal(runs[0].uploads, runs[1].uploads)
        assert runs[0].traces == runs[1].traces
        assert runs[0].mean_train_losses == runs[1].mean_train_losses

    def test_trace_rows_cover_both_paths(self):
        models, X, y = round_fixture(7)
        plain = one_round(models, ndag.NdagHyper(batch_size=4), 3, False, X, y, local_epochs=2)
        assert [t.batch for t in plain.traces[0]] == [0, 1, 2, 3]
        assert all(
            t.l_cls_g is None and t.l_dis is None and t.l_sim is None
            for t in plain.traces[0]
        )
        full = one_round(models, step_hyper(batch_size=4), 3, True, X, y)
        for t in full.traces[0]:
            for value in (t.l_cls_g, t.l_dis, t.l_cls_s, t.l_sim):
                assert isinstance(value, float) and np.isfinite(value)

    def test_empty_dataset_rejected(self):
        models, X, y = round_fixture(8)
        with pytest.raises(ValueError):
            one_round(models, ndag.NdagHyper(), 0, False, X[:0], y[:0])

    def test_label_shape_mismatch_rejected(self):
        models, X, y = round_fixture(9)
        with pytest.raises(ValueError):
            one_round(models, ndag.NdagHyper(), 0, False, X, y[:-1])

    def test_ndag_without_teacher_rejected(self):
        models, X, y = round_fixture(11)
        student, generator, teacher = helpers.round_rows([models])
        for rows in ((student, generator, None), (student, None, teacher)):
            with pytest.raises(ValueError, match="both generator and teacher rows"):
                ndag.client_round(
                    *rows, TASK_ARCH, GEN_ARCH, [X], [y], step_hyper(),
                    rngs=[np.random.default_rng(0)],
                )

    @pytest.mark.parametrize("short", ["student", "xs", "ys", "rngs", "generator", "teacher"])
    def test_one_of_each_per_client_required(self, short):
        models, X, y = round_fixture(0)
        student, generator, teacher = helpers.round_rows([models, models])
        args = dict(student=student, generator=generator, teacher=teacher, xs=[X, X], ys=[y, y],
                    rngs=[np.random.default_rng(0), np.random.default_rng(1)])
        args[short] = args[short][:1]
        if short in ("generator", "teacher"):
            error, match = DimensionMismatch, "generator and teacher need one row per client"
        else:
            error, match = ValueError, "one student row, data set and rng per client"
        with pytest.raises(error, match=match):
            ndag.client_round(task_arch=TASK_ARCH, gen_arch=GEN_ARCH, hyper=step_hyper(), **args)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_lr_aborts_with_diagnostic(self):
        models, X, y = round_fixture(12)
        hyper = ndag.NdagHyper(lr=1e12, batch_size=2)
        with pytest.raises(ndag.DivergenceError):
            one_round(models, hyper, 0, False, X, y, local_epochs=4)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("step", ["generator", "student", "plain"])
    def test_step_divergence_names_the_step(self, step):
        # Overflowing weights make the step's gradient non-finite.  The
        # student's are in its classifier head only, so its features stay
        # finite and the step's own check is the first to fail.
        models, X, y = round_fixture(15)
        t_feats, _ = nets.task_apply(models.teacher, TASK_ARCH, X)
        stack, X1, y1, t1 = helpers.one_client(models, X, y, t_feats)
        if step == "generator":
            stack.generator.params[:] = np.inf
            ndag.generator_step(stack, TASK_ARCH, GEN_ARCH, X1, y1, step_hyper(), t1)
        elif step == "student":
            head, _ = nets.split_layers(stack.student.params, TASK_ARCH.layer_dims())[-1]
            head[...] = np.inf
            ndag.student_step(stack, TASK_ARCH, GEN_ARCH, X1, y1, step_hyper(), t1)
        else:
            stack.student.params[:] = 1e300
            ndag.plain_step(stack, TASK_ARCH, X1, y1, step_hyper())
        with pytest.raises(ndag.DivergenceError) as info:
            stack.raise_failure()
        assert str(info.value) == f"client 0: {step} step: non-finite parameters or gradient"
        assert info.value.client == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("step", ["generator", "student"])
    def test_overflowing_features_are_divergence_not_collapse(self, step):
        # Overflowing student weights overflow its features before any step
        # check; the rows are non-finite, not below the normalization floor.
        models, X, y = round_fixture(15)
        t_feats, _ = nets.task_apply(models.teacher, TASK_ARCH, X)
        stack, X1, y1, t1 = helpers.one_client(models, X, y, t_feats)
        stack.student.params[:] = 1e300
        step_fn = ndag.generator_step if step == "generator" else ndag.student_step
        *_, bad = step_fn(stack, TASK_ARCH, GEN_ARCH, X1, y1, step_hyper(), t1)
        assert bad.tolist() == [0]
        with pytest.raises(ndag.DivergenceError) as info:
            stack.raise_failure()
        assert type(info.value) is ndag.DivergenceError
        assert str(info.value) == "client 0: non-finite features"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("objective", [ndag.generator_grad, ndag.student_grad])
    def test_nan_teacher_features_are_divergence_not_collapse(self, objective):
        # Skipped as degenerate, a NaN teacher row would train on silently.
        # It fails its client instead, and collapse is not checked past it;
        # a finite row below the floor still counts as degenerate.
        models, X, y = round_fixture(15)
        t_feats, _ = nets.task_apply(models.teacher, TASK_ARCH, X)
        t_feats[:5] = np.nan
        t_feats[5] = 0.0
        stack, X1, y1, t1 = helpers.one_client(models, X, y, t_feats)
        bad = objective(stack, TASK_ARCH, GEN_ARCH, X1, y1, step_hyper(), t1)[2]
        assert bad.tolist() == [1]
        with pytest.raises(ndag.DivergenceError) as info:
            stack.raise_failure()
        assert not isinstance(info.value, ndag.FeatureCollapse)
        assert str(info.value) == "client 0: non-finite features"

    def test_last_grad_mirrors_final_batch(self):
        models, X, y = round_fixture(13, n=4)
        result = one_round(models, ndag.NdagHyper(batch_size=4), 21, False, X, y)
        order = np.random.default_rng(21).permutation(4)
        g, _ = helpers.mirror_plain_grad(models.student.values, TASK_ARCH, X[order], y[order])
        assert np.array_equal(result.last_grads[0], g)

    def test_rows_are_trained_in_place(self):
        # The round takes ownership of the rows it is given: the result
        # holds the same arrays, trained, and a copy sent instead gives the
        # same bits.
        models, X, y = round_fixture(14)
        rows = helpers.round_rows([models])
        before = [r.copy() for r in rows]
        result = ndag.client_round(*rows, TASK_ARCH, GEN_ARCH, [X], [y], step_hyper(),
                                   rngs=[np.random.default_rng(4)])
        for role, sent, old in zip(("student", "generator", "teacher"), rows, before):
            assert getattr(result, role) is sent, role
            assert not np.array_equal(sent, old), role
        again = ndag.client_round(*before, TASK_ARCH, GEN_ARCH, [X], [y], step_hyper(),
                                  rngs=[np.random.default_rng(4)])
        for role in ("student", "generator", "teacher", "last_grads"):
            assert np.array_equal(getattr(again, role), getattr(result, role)), role


class TestDirectionalSteps:
    """Single-step directions near a saturated classifier: the adversary's
    step cannot lower the raw discrepancy it maximizes, the student's step
    cannot raise the similarity loss it minimizes."""

    HYPER = ndag.NdagHyper(alpha=0.3, m=10.0, ema_decay=0.95, lr=1e-4,
                           momentum=0.9, weight_decay=0.0, batch_size=32)

    @staticmethod
    def raw_dis(student, generator, teacher, X):
        t_feats, _ = nets.task_apply(teacher, TASK_ARCH, X)
        x_hat = ndag.generate(generator, GEN_ARCH, X, 0.3)
        s_feats, _ = nets.task_apply(student, TASK_ARCH, x_hat)
        return float(helpers.nsd_rows_ref(t_feats, s_feats).mean())

    def test_generator_step_does_not_decrease_raw_discrepancy(self):
        for seed in range(30):
            models, X, y = fixtures.saturated_fixture(seed, TASK_ARCH, GEN_ARCH)
            t_feats, _ = nets.task_apply(models.teacher, TASK_ARCH, X)
            pre = self.raw_dis(models.student, models.generator, models.teacher, X)
            assert pre < self.HYPER.m
            stack, X1, y1, t1 = helpers.one_client(models, X, y, t_feats)
            ndag.generator_step(stack, TASK_ARCH, GEN_ARCH, X1, y1, self.HYPER, t1)
            post = self.raw_dis(models.student, stack.generator.params[0], models.teacher, X)
            assert post >= pre

    def test_student_step_does_not_increase_similarity(self):
        for seed in range(30):
            models, X, y = fixtures.saturated_fixture(seed, TASK_ARCH, GEN_ARCH)
            t_feats, _ = nets.task_apply(models.teacher, TASK_ARCH, X)
            stack, X1, y1, t1 = helpers.one_client(models, X, y, t_feats)
            ndag.generator_step(stack, TASK_ARCH, GEN_ARCH, X1, y1, self.HYPER, t1)
            x_hat = ndag.generate(stack.generator.params[0], GEN_ARCH, X, 0.3)

            def l_sim(params):
                f, _ = nets.task_apply(params, TASK_ARCH, x_hat)
                return float(helpers.nsd_rows_ref(t_feats, f).mean())

            pre = l_sim(stack.student.params[0])
            ndag.student_step(stack, TASK_ARCH, GEN_ARCH, X1, y1, self.HYPER, t1)
            assert l_sim(stack.student.params[0]) <= pre
