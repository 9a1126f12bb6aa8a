"""Fused closed-form gradients against the reverse-mode tape, bit for bit.

The package computes its three training objectives with nets.mlp_forward /
nets.mlp_backward.  tests/autodiff.py builds the same objectives op by op on
a general tape.  Both routes must agree exactly, not just to a tolerance:
loss values, the flat parameter gradient and, for the generator objective,
the gradient w.r.t. the perturbed batch.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import autodiff as ad
import feddag
import helpers
from feddag import data, ndag, nets
from feddag.params import ParamVector
from test_autodiff import GEN_ARCH, TASK_ARCH, clean_fixture

WIDE_TASK = nets.TaskArch(16, (64, 64), 32, 3)
WIDE_GEN = nets.GenArch(16, (32, 32))
HYPER = ndag.NdagHyper(alpha=0.3, m=0.5)


def assert_bitwise(fused, tape):
    assert len(fused) == len(tape)
    for pos, (a, b) in enumerate(zip(fused, tape)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f"return value {pos} differs"


def negative_zero_hidden_biases(params, arch):
    """params with the bias of every hidden layer set to -0.0."""
    values = params.values.copy()
    for _, b in nets.split_layers(values, arch.layer_dims())[:-1]:
        b[...] = -0.0
    return ParamVector(values)


def check_generator(models, task_arch, gen_arch, X, y, t_feats, hyper=HYPER):
    """Both routes on a one-client stack; returns the fused values of that client."""
    stack, X1, y1, t1 = helpers.one_client(models, X, y, t_feats)
    args = (stack, task_arch, gen_arch, X1, y1, hyper, t1)
    fused = ndag.generator_grad(*args)
    assert_bitwise(fused, ad.generator_grad(*args))
    return [value[0] for value in fused]


def check_student(models, task_arch, gen_arch, X, y, t_feats, hyper=HYPER):
    stack, X1, y1, t1 = helpers.one_client(models, X, y, t_feats)
    args = (stack, task_arch, gen_arch, X1, y1, hyper, t1)
    fused = ndag.student_grad(*args)
    assert_bitwise(fused, ad.student_grad(*args))
    return [value[0] for value in fused]


def check_plain(models, task_arch, X, y):
    stack, X1, y1 = helpers.one_client(models, X, y, ndag_enabled=False)
    fused = ndag.plain_grad(stack, task_arch, X1, y1)
    assert_bitwise(fused, ad.plain_grad(stack, task_arch, X1, y1))
    return [value[0] for value in fused]


def check_all(models, task_arch, gen_arch, X, y, t_feats, hyper=HYPER):
    check_generator(models, task_arch, gen_arch, X, y, t_feats, hyper)
    check_student(models, task_arch, gen_arch, X, y, t_feats, hyper)
    check_plain(models, task_arch, X, y)


def random_case(task_arch, gen_arch, n, seed):
    rng = np.random.default_rng([4242, seed])
    models = helpers.Models(
        student=nets.init_params(task_arch, rng),
        generator=nets.init_params(gen_arch, rng),
        teacher=nets.init_params(task_arch, rng),
    )
    X = rng.uniform(0.0, 1.0, size=(n, task_arch.input_dim))
    y = rng.integers(0, task_arch.num_classes, size=n)
    t_feats, _ = nets.task_apply(models.teacher, task_arch, X)
    return models, X, y, t_feats


def tape_features(models, task_arch, gen_arch, X, alpha):
    """Student features of the perturbed batch, built on the tape."""
    x = ad.Tensor(X)
    gen_layers = ad.layer_tensors(models.generator, gen_arch, trainable=False)
    x_hat = ad.clip(ad.add(x, ad.scale(ad.gen_graph(gen_layers, x), alpha)), 0.0, 1.0)
    feats, _ = ad.task_graph(ad.layer_tensors(models.student, task_arch, False), x_hat)
    return feats


class TestCriterionOneFixtures:
    def test_generator_objective(self):
        for seed in range(100):
            stu, gen, X, y, t_feats = clean_fixture(seed)
            models = helpers.Models(student=stu, generator=gen)
            check_generator(models, TASK_ARCH, GEN_ARCH, X, y, t_feats)

    def test_student_objective(self):
        for seed in range(100):
            stu, gen, X, y, t_feats = clean_fixture(seed + 1000)
            models = helpers.Models(student=stu, generator=gen)
            check_student(models, TASK_ARCH, GEN_ARCH, X, y, t_feats)

    def test_plain_objective(self):
        for seed in range(100):
            stu, gen, X, y, _ = clean_fixture(seed + 2000)
            check_plain(helpers.Models(student=stu, generator=gen), TASK_ARCH, X, y)


class TestEdgeCases:
    def test_degenerate_feature_rows(self):
        models, X, y, t_feats = random_case(TASK_ARCH, GEN_ARCH, 4, 1)
        t_feats = t_feats.copy()
        t_feats[0] = 0.0
        t_feats[2] *= 1e-13 / np.linalg.norm(t_feats[2])
        assert 0.0 < np.linalg.norm(t_feats[2]) < ndag.DEGENERATE_NORM
        _, _, bad, _, _ = check_generator(models, TASK_ARCH, GEN_ARCH, X, y, t_feats)
        assert bad == 2
        _, _, bad, _ = check_student(models, TASK_ARCH, GEN_ARCH, X, y, t_feats)
        assert bad == 2

    def test_majority_collapse_raises_on_both_routes(self):
        models, X, y, t_feats = random_case(TASK_ARCH, GEN_ARCH, 3, 2)
        for fn in (ndag.generator_grad, ad.generator_grad, ndag.student_grad, ad.student_grad):
            stack, X1, y1, t1 = helpers.one_client(models, X, y, np.zeros_like(t_feats))
            fn(stack, TASK_ARCH, GEN_ARCH, X1, y1, HYPER, t1)
            with pytest.raises(ndag.FeatureCollapse, match="3/3 feature rows"):
                stack.raise_failure()

    def test_distance_exactly_at_cap(self):
        models, X, y, t_feats = random_case(TASK_ARCH, GEN_ARCH, 4, 3)
        feats = tape_features(models, TASK_ARCH, GEN_ARCH, X, HYPER.alpha)
        dist, valid = ad.normalized_sq_dist_rows(ad.Tensor(t_feats), feats)
        assert valid.all()
        order = np.argsort(dist.value)
        # One row sits on the cap, rows below it stay live, rows above are capped.
        m = float(dist.value[order[1]])
        hyper = ndag.NdagHyper(alpha=HYPER.alpha, m=m)
        _, l_dis, _, grad, _ = check_generator(models, TASK_ARCH, GEN_ARCH, X, y, t_feats, hyper)
        assert l_dis == pytest.approx((dist.value[order[0]] + 3 * m) / 4, rel=1e-12)
        assert np.any(grad != 0.0)

    def test_perturbed_batch_exactly_at_clip_bounds(self):
        lo, hi = 0.0, 1.0
        rng = np.random.default_rng(5)
        models, _, y, _ = random_case(TASK_ARCH, GEN_ARCH, 4, 4)
        # A zero generator leaves x_hat = x, so inputs on the bounds stay there.
        zero_gen = helpers.Models(
            student=models.student,
            generator=ParamVector(np.zeros(helpers.param_count(GEN_ARCH))),
            teacher=models.teacher,
        )
        X = rng.choice([lo, hi, 0.5], size=(4, TASK_ARCH.input_dim))
        t_feats, _ = nets.task_apply(models.teacher, TASK_ARCH, X)
        _, _, _, _, g_x_hat = check_generator(zero_gen, TASK_ARCH, GEN_ARCH, X, y, t_feats)
        assert np.all(g_x_hat[X == lo] != 0.0) and np.all(g_x_hat[X == hi] != 0.0)
        check_student(zero_gen, TASK_ARCH, GEN_ARCH, X, y, t_feats)

        # A generator with a zero output matrix emits the constant tanh(b);
        # pick inputs that land on the bounds after the perturbation.
        vals = models.generator.values.copy()
        d_in, d_out = GEN_ARCH.layer_dims()[-1]
        head = helpers.param_count(GEN_ARCH) - (d_in + 1) * d_out
        vals[head : head + d_in * d_out] = 0.0
        vals[-d_out:] = rng.uniform(-0.5, 0.5, size=d_out)
        const_gen = helpers.Models(
            student=models.student, generator=ParamVector(vals), teacher=models.teacher
        )
        delta = np.tanh(vals[-d_out:])
        target = np.where(np.arange(TASK_ARCH.input_dim) % 2 == 0, lo, hi)
        X = np.tile(target - delta * HYPER.alpha, (4, 1))
        X[1] = 0.5
        on_bound = (X + delta * HYPER.alpha == target) & (np.arange(4) != 1)[:, None]
        assert on_bound.sum() >= 4
        t_feats, _ = nets.task_apply(models.teacher, TASK_ARCH, X)
        check_generator(const_gen, TASK_ARCH, GEN_ARCH, X, y, t_feats)
        check_student(const_gen, TASK_ARCH, GEN_ARCH, X, y, t_feats)

    def test_alpha_zero(self):
        models, X, y, t_feats = random_case(TASK_ARCH, GEN_ARCH, 5, 6)
        hyper = ndag.NdagHyper(alpha=0.0, m=HYPER.m)
        _, _, _, grad, g_x_hat = check_generator(models, TASK_ARCH, GEN_ARCH, X, y, t_feats, hyper)
        assert np.array_equal(grad, np.zeros(helpers.param_count(GEN_ARCH)))
        assert np.any(g_x_hat != 0.0)
        check_student(models, TASK_ARCH, GEN_ARCH, X, y, t_feats, hyper)

    def test_batch_of_one(self):
        for seed in range(10):
            models, X, y, t_feats = random_case(TASK_ARCH, GEN_ARCH, 1, 10 + seed)
            check_all(models, TASK_ARCH, GEN_ARCH, X, y, t_feats)

    @pytest.mark.parametrize("n", [1, 5, 32])
    def test_wide_arch_and_two_hidden_layer_generator(self, n):
        for seed in range(5):
            models, X, y, t_feats = random_case(WIDE_TASK, WIDE_GEN, n, 100 + seed)
            check_all(models, WIDE_TASK, WIDE_GEN, X, y, t_feats)

    @pytest.mark.parametrize("task_arch, gen_arch", [(TASK_ARCH, GEN_ARCH), (WIDE_TASK, WIDE_GEN)])
    def test_negative_zero_hidden_biases(self, task_arch, gen_arch):
        # The package's relu is max(z, 0), the tape's a masked select
        # (z > 0 ? z : 0); with every hidden bias at -0.0 both give the same
        # bytes, sign bits of zeros included.
        models, X, y, _ = random_case(task_arch, gen_arch, 6, 7)
        models = helpers.Models(
            student=negative_zero_hidden_biases(models.student, task_arch),
            generator=negative_zero_hidden_biases(models.generator, gen_arch),
            teacher=negative_zero_hidden_biases(models.teacher, task_arch),
        )
        feats, logits = nets.task_apply(models.student, task_arch, X)
        tape = ad.task_graph(ad.layer_tensors(models.student, task_arch, False), ad.Tensor(X))
        assert feats.tobytes() == tape[0].value.tobytes()
        assert logits.tobytes() == tape[1].value.tobytes()
        t_feats, _ = nets.task_apply(models.teacher, task_arch, X)
        check_all(models, task_arch, gen_arch, X, y, t_feats)


@pytest.mark.parametrize("ndag_enabled", [True, False])
def test_client_round_with_ragged_last_batch(monkeypatch, ndag_enabled):
    """Whole local rounds (7 samples, batch 3) agree with the tape route."""
    models, X, y, _ = random_case(WIDE_TASK, WIDE_GEN, 7, 7)
    hyper = ndag.NdagHyper(batch_size=3, ema_decay=0.9, lr=0.05)

    def run():
        return ndag.client_round(
            *helpers.round_rows([models], ndag_enabled), WIDE_TASK, WIDE_GEN, [X], [y], hyper,
            [np.random.default_rng(0)], local_epochs=2,
        )

    fused = run()
    with monkeypatch.context() as patch:
        for name in ("generator_grad", "student_grad", "plain_grad"):
            patch.setattr(ndag, name, getattr(ad, name))
        tape = run()
    assert fused.trace.batches.tolist() == [6]
    helpers.assert_same_trace(fused.trace, tape.trace)
    assert fused.mean_train_losses == tape.mean_train_losses
    for role in ("student", "generator", "teacher", "last_grads"):
        a, b = getattr(fused, role), getattr(tape, role)
        if role in ("generator", "teacher") and not ndag_enabled:
            assert a is None and b is None, role
        else:
            assert np.array_equal(a, b), role


def test_cli_import_graph_leaves_out_the_tape():
    code = (
        "import importlib.util, sys\n"
        "import feddag, feddag.cli\n"
        "assert not any(m.split('.')[-1] == 'autodiff' for m in sys.modules), sorted(sys.modules)\n"
        "assert not hasattr(feddag, 'autodiff')\n"
        "assert importlib.util.find_spec('feddag.autodiff') is None\n"
        "assert 'concurrent.futures' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(feddag.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=src, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_run_imports_no_numpy_module_past_numpy_and_its_random(tmp_path):
    # Compared with what numpy itself loads, so numpy.ma, which numpy 1.x
    # imports with numpy and numpy 2.x only on first use, is caught on 2.x.
    small = {"n_domains": 3, "samples_per_domain": 60, "rounds": 1, "warmup_rounds": 0}
    data.export_csv(data.BenchSpec(n_domains=3, samples_per_domain=60), str(tmp_path / "bench.csv"))
    (tmp_path / "synthetic.json").write_text(json.dumps(small))
    (tmp_path / "csv.json").write_text(json.dumps(dict(small, data_csv="bench.csv")))
    code = (
        "import sys\n"
        "import numpy, numpy.random\n"
        "before = set(sys.modules)\n"
        "from feddag import cli\n"
        "for bench in ('synthetic', 'csv'):\n"
        "    assert cli.main(['run', '--config', f'{bench}.json', '--out', bench]) == 0\n"
        "added = sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'numpy')\n"
        "assert not added, added\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(feddag.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "csv" / "report.json").is_file()
