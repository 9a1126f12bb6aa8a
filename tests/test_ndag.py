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
            models = ndag.ClientModels(student=stu, generator=gen, teacher=tea)
            return models, X, y, t_feats
    raise RuntimeError(f"no kink-free fixture for seed {seed}")


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
            X = rng.uniform(-1.0, 2.0, size=(8, 5))
            out = ndag.generate(gen, GEN_ARCH, X, 1.0, lo=-1.0, hi=2.0)
            assert out.min() >= -1.0 and out.max() <= 2.0

    def test_alpha_out_of_range_rejected(self):
        gen = nets.init_params(GEN_ARCH, np.random.default_rng(6))
        X = np.full((2, 5), 0.5)
        with pytest.raises(ValueError):
            ndag.generate(gen, GEN_ARCH, X, -0.1)
        with pytest.raises(ValueError):
            ndag.generate(gen, GEN_ARCH, X, 1.5)

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
            out, _, _, _ = ndag.generator_step(
                models, TASK_ARCH, GEN_ARCH, X, y, hyper, t_feats
            )
            assert np.abs(out.generator.values - expected).max() < 1e-6

    def test_touches_only_the_generator(self):
        models, X, y, t_feats = clean_fixture(20)
        out, _, _, _ = ndag.generator_step(
            models, TASK_ARCH, GEN_ARCH, X, y, step_hyper(), t_feats
        )
        assert out.student is models.student
        assert out.teacher is models.teacher
        assert out.student_opt is models.student_opt
        assert not np.array_equal(out.generator.values, models.generator.values)

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
            models = ndag.ClientModels(student=stu, generator=gen, teacher=tea)
            out, _, l_dis, _ = ndag.generator_step(
                models, TASK_ARCH, GEN_ARCH, X, y, hyper, t_feats
            )
            gen_layers = ad.layer_tensors(gen, GEN_ARCH, trainable=True)
            stu_layers = ad.layer_tensors(stu, TASK_ARCH, trainable=False)
            x = ad.Tensor(X)
            xh = ad.clip(ad.add(x, ad.scale(ad.gen_graph(gen_layers, x), hyper.alpha)), 0.0, 1.0)
            _, logits = ad.task_graph(stu_layers, xh)
            ad.backward(ad.cross_entropy_mean(logits, y))
            from feddag.params import sgd_step
            ref, _ = sgd_step(gen, ad.flat_grad(gen_layers), hyper.lr,
                              hyper.momentum, hyper.weight_decay, models.gen_opt)
            assert np.array_equal(out.generator.values, ref.values)
            assert l_dis == pytest.approx(hyper.m, rel=1e-12)
            return
        raise RuntimeError("no fully capped fixture found")

    def test_alpha_zero_leaves_generator_unchanged(self):
        hyper = step_hyper(alpha=0.0)
        models, X, y, t_feats = clean_fixture(21, n_lo=3, n_hi=3)
        out, _, _, _ = ndag.generator_step(
            models, TASK_ARCH, GEN_ARCH, X, y, hyper, t_feats
        )
        assert np.array_equal(out.generator.values, models.generator.values)

    def test_majority_collapse_raises(self):
        models, X, y, _ = clean_fixture(22, n_lo=3, n_hi=3)
        models = replace(models, student=ParamVector(np.zeros(TASK_ARCH.param_count())))
        t_feats, _ = nets.task_apply(models.teacher, TASK_ARCH, X)
        with pytest.raises(ndag.FeatureCollapse):
            ndag.generator_step(models, TASK_ARCH, GEN_ARCH, X, y, step_hyper(), t_feats)

    def test_minority_degenerate_rows_counted_and_skipped(self):
        hyper = step_hyper()
        models, X, y, t_feats = clean_fixture(23, n_lo=3, n_hi=3)
        t_feats = t_feats.copy()
        t_feats[0] = 0.0
        out, _, l_dis, bad = ndag.generator_step(
            models, TASK_ARCH, GEN_ARCH, X, y, hyper, t_feats
        )
        assert bad == 1
        x_hat = ndag.generate(models.generator, GEN_ARCH, X, hyper.alpha)
        s_feats, _ = nets.task_apply(models.student, TASK_ARCH, x_hat)
        live = helpers.nsd_rows_ref(t_feats[1:], s_feats[1:])
        expected = float(np.minimum(live, hyper.m).sum()) / 3.0
        assert l_dis == pytest.approx(expected, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_forward_raises_divergence(self):
        models, X, y, t_feats = clean_fixture(24, n_lo=2, n_hi=2)
        huge = ParamVector(np.full(TASK_ARCH.param_count(), 1e200))
        models = replace(models, student=huge)
        with pytest.raises(ndag.DivergenceError):
            ndag.generator_step(models, TASK_ARCH, GEN_ARCH, X, y, step_hyper(), t_feats)


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
            out, _, _, _, _ = ndag.student_step(
                models, TASK_ARCH, GEN_ARCH, X, y, hyper, t_feats
            )
            assert np.abs(out.student.values - expected).max() < 1e-6

    def test_touches_only_the_student(self):
        models, X, y, t_feats = clean_fixture(120)
        out, _, _, _, _ = ndag.student_step(
            models, TASK_ARCH, GEN_ARCH, X, y, step_hyper(), t_feats
        )
        assert out.generator is models.generator
        assert out.teacher is models.teacher
        assert out.gen_opt is models.gen_opt
        assert not np.array_equal(out.student.values, models.student.values)

    def test_reduces_to_plain_classification_at_self_teacher(self):
        # teacher == student and alpha = 0 put L_sim exactly at its zero
        # minimum; the step must coincide with a classification-only step
        hyper = step_hyper(alpha=0.0, weight_decay=5e-4)
        rng = np.random.default_rng(121)
        stu = nets.init_params(TASK_ARCH, rng)
        gen = nets.init_params(GEN_ARCH, rng)
        X = rng.uniform(0.1, 0.9, size=(4, 5))
        y = rng.integers(0, 3, size=4)
        models = ndag.ClientModels(student=stu, generator=gen, teacher=stu)
        t_feats, _ = nets.task_apply(stu, TASK_ARCH, X)
        out, _, _, l_sim, _ = ndag.student_step(
            models, TASK_ARCH, GEN_ARCH, X, y, hyper, t_feats
        )
        plain, _, _ = ndag.plain_step(models, TASK_ARCH, X, y, hyper)
        assert l_sim == 0.0
        np.testing.assert_allclose(
            out.student.values, plain.student.values, rtol=0.0, atol=1e-14
        )

    def test_identical_samples_mean_invariance(self):
        hyper = step_hyper()
        models, X, y, t_feats = clean_fixture(122, n_lo=1, n_hi=1)
        Xk = np.tile(X, (4, 1))
        yk = np.tile(y, 4)
        tk = np.tile(t_feats, (4, 1))
        _, g1, _, _, _ = ndag.student_step(
            models, TASK_ARCH, GEN_ARCH, X, y, hyper, t_feats
        )
        _, gk, _, _, _ = ndag.student_step(
            models, TASK_ARCH, GEN_ARCH, Xk, yk, hyper, tk
        )
        # averaging k copies is the same objective; only BLAS kernel choice
        # for the wider batch can move the last ulp
        np.testing.assert_allclose(gk.values, g1.values, rtol=1e-15, atol=1e-15)


class TestEmaUpdate:
    def test_decay_one_keeps_teacher(self):
        rng = np.random.default_rng(30)
        t = ParamVector(rng.normal(size=17))
        s = ParamVector(rng.normal(size=17))
        assert np.array_equal(ndag.ema_update(t, s, 1.0).values, t.values)

    def test_decay_zero_copies_student(self):
        rng = np.random.default_rng(31)
        t = ParamVector(rng.normal(size=17))
        s = ParamVector(rng.normal(size=17))
        assert np.array_equal(ndag.ema_update(t, s, 0.0).values, s.values)

    def test_worked_example_hundredth_step(self):
        t = ParamVector(np.zeros(9))
        s = ParamVector(np.ones(9))
        out = ndag.ema_update(t, s, 0.99)
        np.testing.assert_allclose(out.values, 0.01, rtol=0.0, atol=1e-15)

    def test_dyadic_contraction_is_exact(self):
        # dyadic decay on small-integer weights stays exactly representable,
        # so the gap must track decay^t with zero rounding for t <= 20
        rng = np.random.default_rng(32)
        for decay in (0.5, 0.75):
            theta = ParamVector(rng.integers(-8, 9, size=12).astype(np.float64))
            omega = ParamVector(rng.integers(-8, 9, size=12).astype(np.float64))
            gap0 = np.abs(theta.values - omega.values).max()
            assert gap0 > 0
            expected = gap0
            for t in range(1, 21):
                theta = ndag.ema_update(theta, omega, decay)
                expected *= decay
                gap = np.abs(theta.values - omega.values).max()
                assert gap == expected
                assert gap == decay**t * gap0

    def test_general_decay_matches_scalar_mirror(self):
        rng = np.random.default_rng(33)
        t = rng.normal(size=25)
        s = rng.normal(size=25)
        out = ndag.ema_update(ParamVector(t), ParamVector(s), 0.95)
        assert np.array_equal(out.values, 0.95 * t + (1.0 - 0.95) * s)

    def test_contraction_never_expands(self):
        rng = np.random.default_rng(34)
        for decay in (0.3, 0.9, 0.999):
            theta = ParamVector(rng.normal(size=10))
            omega = ParamVector(rng.normal(size=10))
            gap0 = np.abs(theta.values - omega.values).max()
            for t in range(1, 13):
                theta = ndag.ema_update(theta, omega, decay)
                gap = np.abs(theta.values - omega.values).max()
                bound = decay**t * gap0
                # each step rounds against the O(1) student weights, so the
                # drift is absolute (~t ulps), not relative to the shrinking gap
                assert gap <= bound + 1e-13 * t
                assert gap == pytest.approx(bound, abs=1e-13 * t)

    def test_decay_out_of_range_rejected(self):
        t = ParamVector(np.ones(3))
        with pytest.raises(ValueError):
            ndag.ema_update(t, t, -0.1)
        with pytest.raises(ValueError):
            ndag.ema_update(t, t, 1.1)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            ndag.ema_update(ParamVector(np.ones(3)), ParamVector(np.ones(4)), 0.5)


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
            return ndag.ClientModels(student=stu, generator=gen, teacher=tea), X, y
    raise RuntimeError(f"no round fixture for seed {seed}")


class TestClientRound:
    def test_plain_path_matches_standalone_sgd_reference(self):
        hyper = ndag.NdagHyper(batch_size=3)
        models, X, y = round_fixture(0)
        result = ndag.client_round(
            models, TASK_ARCH, GEN_ARCH, X, y, hyper, ndag_enabled=False,
            rng=np.random.default_rng(11), local_epochs=2,
        )
        ref = helpers.reference_local_round(
            models.student.values, TASK_ARCH, X, y, hyper.lr, hyper.momentum,
            hyper.weight_decay, hyper.batch_size, np.random.default_rng(11), epochs=2,
        )
        assert np.array_equal(result.models.student.values, ref)

    def test_plain_path_uploads_the_student(self):
        models, X, y = round_fixture(1)
        result = ndag.client_round(
            models, TASK_ARCH, GEN_ARCH, X, y, ndag.NdagHyper(), ndag_enabled=False,
            rng=np.random.default_rng(1),
        )
        assert result.upload is result.models.student

    def test_ndag_path_uploads_the_teacher(self):
        models, X, y = round_fixture(2)
        result = ndag.client_round(
            models, TASK_ARCH, GEN_ARCH, X, y, step_hyper(), ndag_enabled=True,
            rng=np.random.default_rng(2),
        )
        assert result.upload is result.models.teacher

    def test_single_batch_composition_matches_manual_steps(self):
        hyper = step_hyper(weight_decay=5e-4)
        models, X, y = round_fixture(3, n=6)
        result = ndag.client_round(
            models, TASK_ARCH, GEN_ARCH, X, y, hyper, ndag_enabled=True,
            rng=np.random.default_rng(9),
        )
        order = np.random.default_rng(9).permutation(6)
        xb, yb = X[order], y[order]
        t_feats, _ = nets.task_apply(models.teacher, TASK_ARCH, xb)
        m1, l_cls_g, l_dis, _ = ndag.generator_step(
            models, TASK_ARCH, GEN_ARCH, xb, yb, hyper, t_feats
        )
        m2, grad, l_cls_s, l_sim, _ = ndag.student_step(
            m1, TASK_ARCH, GEN_ARCH, xb, yb, hyper, t_feats
        )
        teacher = ndag.ema_update(m2.teacher, m2.student, hyper.ema_decay)
        assert np.array_equal(result.models.student.values, m2.student.values)
        assert np.array_equal(result.models.generator.values, m2.generator.values)
        assert np.array_equal(result.models.teacher.values, teacher.values)
        assert np.array_equal(result.last_grad.values, grad.values)
        assert result.trace == [ndag.BatchTrace(0, l_cls_g, l_dis, l_cls_s, l_sim)]

    def test_alpha_zero_decay_zero_degenerates_to_plain_sgd(self):
        hyper = step_hyper(alpha=0.0, ema_decay=0.0, weight_decay=5e-4)
        models, X, y = round_fixture(4, n=5)
        models = replace(models, teacher=models.student)
        result = ndag.client_round(
            models, TASK_ARCH, GEN_ARCH, X, y, hyper, ndag_enabled=True,
            rng=np.random.default_rng(5),
        )
        order = np.random.default_rng(5).permutation(5)
        plain, _, _ = ndag.plain_step(models, TASK_ARCH, X[order], y[order], hyper)
        np.testing.assert_allclose(
            result.models.student.values, plain.student.values, rtol=0.0, atol=1e-14
        )
        assert np.array_equal(
            result.models.teacher.values, result.models.student.values
        )

    def test_round_trace_is_reproducible(self):
        hyper = step_hyper(batch_size=2, weight_decay=5e-4)
        models, X, y = round_fixture(6)
        runs = [
            ndag.client_round(
                models, TASK_ARCH, GEN_ARCH, X, y, hyper, ndag_enabled=True,
                rng=np.random.default_rng(77), local_epochs=2,
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].models.teacher.values, runs[1].models.teacher.values)
        assert np.array_equal(runs[0].models.student.values, runs[1].models.student.values)
        assert np.array_equal(runs[0].upload.values, runs[1].upload.values)
        assert runs[0].trace == runs[1].trace
        assert runs[0].mean_train_loss == runs[1].mean_train_loss

    def test_trace_rows_cover_both_paths(self):
        models, X, y = round_fixture(7)
        plain = ndag.client_round(
            models, TASK_ARCH, GEN_ARCH, X, y, ndag.NdagHyper(batch_size=4),
            ndag_enabled=False, rng=np.random.default_rng(3), local_epochs=2,
        )
        assert [t.batch for t in plain.trace] == [0, 1, 2, 3]
        assert all(
            t.l_cls_g is None and t.l_dis is None and t.l_sim is None
            for t in plain.trace
        )
        full = ndag.client_round(
            models, TASK_ARCH, GEN_ARCH, X, y, step_hyper(batch_size=4),
            ndag_enabled=True, rng=np.random.default_rng(3),
        )
        for t in full.trace:
            for value in (t.l_cls_g, t.l_dis, t.l_cls_s, t.l_sim):
                assert isinstance(value, float) and np.isfinite(value)

    def test_empty_dataset_rejected(self):
        models, X, y = round_fixture(8)
        with pytest.raises(ValueError):
            ndag.client_round(
                models, TASK_ARCH, GEN_ARCH, X[:0], y[:0], ndag.NdagHyper(),
                ndag_enabled=False, rng=np.random.default_rng(0),
            )

    def test_label_shape_mismatch_rejected(self):
        models, X, y = round_fixture(9)
        with pytest.raises(ValueError):
            ndag.client_round(
                models, TASK_ARCH, GEN_ARCH, X, y[:-1], ndag.NdagHyper(),
                ndag_enabled=False, rng=np.random.default_rng(0),
            )

    def test_zero_epochs_rejected(self):
        models, X, y = round_fixture(10)
        with pytest.raises(ValueError):
            ndag.client_round(
                models, TASK_ARCH, GEN_ARCH, X, y, ndag.NdagHyper(),
                ndag_enabled=False, rng=np.random.default_rng(0), local_epochs=0,
            )

    def test_ndag_without_teacher_rejected(self):
        models, X, y = round_fixture(11)
        models = replace(models, teacher=None)
        with pytest.raises(ValueError):
            ndag.client_round(
                models, TASK_ARCH, GEN_ARCH, X, y, step_hyper(), ndag_enabled=True,
                rng=np.random.default_rng(0),
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_lr_aborts_with_diagnostic(self):
        models, X, y = round_fixture(12)
        hyper = ndag.NdagHyper(lr=1e12, batch_size=2)
        with pytest.raises(ndag.DivergenceError):
            ndag.client_round(
                models, TASK_ARCH, GEN_ARCH, X, y, hyper, ndag_enabled=False,
                rng=np.random.default_rng(0), local_epochs=4,
            )

    def test_last_grad_mirrors_final_batch(self):
        models, X, y = round_fixture(13, n=4)
        result = ndag.client_round(
            models, TASK_ARCH, GEN_ARCH, X, y, ndag.NdagHyper(batch_size=4),
            ndag_enabled=False, rng=np.random.default_rng(21),
        )
        order = np.random.default_rng(21).permutation(4)
        g, _ = helpers.mirror_plain_grad(models.student.values, TASK_ARCH, X[order], y[order])
        assert np.array_equal(result.last_grad.values, g)


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
            out, _, _, _ = ndag.generator_step(
                models, TASK_ARCH, GEN_ARCH, X, y, self.HYPER, t_feats
            )
            post = self.raw_dis(models.student, out.generator, models.teacher, X)
            assert post >= pre

    def test_student_step_does_not_increase_similarity(self):
        for seed in range(30):
            models, X, y = fixtures.saturated_fixture(seed, TASK_ARCH, GEN_ARCH)
            t_feats, _ = nets.task_apply(models.teacher, TASK_ARCH, X)
            after_g, _, _, _ = ndag.generator_step(
                models, TASK_ARCH, GEN_ARCH, X, y, self.HYPER, t_feats
            )
            x_hat = ndag.generate(after_g.generator, GEN_ARCH, X, 0.3)

            def l_sim(params):
                f, _ = nets.task_apply(params, TASK_ARCH, x_hat)
                return float(helpers.nsd_rows_ref(t_feats, f).mean())

            pre = l_sim(after_g.student)
            out, _, _, _, _ = ndag.student_step(
                after_g, TASK_ARCH, GEN_ARCH, X, y, self.HYPER, t_feats
            )
            assert l_sim(out.student) <= pre
