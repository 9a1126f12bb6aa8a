"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single PASS/FAIL line outside pytest's capture so a
plain run shows the per-criterion verdict inline.  The exact-oracle and
invariant criteria run in milliseconds; the two bench-level criteria (7,
8) train full leave-one-domain-out federations and dominate the runtime.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import autodiff as ad
import fixtures
import helpers
from feddag import cli, config, ndag, nets, protocol, sha
from feddag.metrics import rank_auc
from feddag.params import ParamVector
from scalar_losses import loss_cls, loss_dis, loss_sim, normalized_sq_dist
from test_autodiff import clean_fixture, gen_objective_graph, student_objective_graph

TASK_ARCH = nets.TaskArch(5, (7,), 4, 3)
GEN_ARCH = nets.GenArch(5, (6,))

MODES = ("feddag", "no_ndag", "no_sha", "fedavg")

# Ablation schedule for criterion 7: a long warmup carries every mode to the
# plain-FedAvg plateau before the adversarial phase starts, and the slow
# teacher then anchors the alignment target at that plateau.  The bench seed
# is pinned so all seeds train against the same domains and only the
# training randomness varies.
ABLATION_RECIPE = {
    "bench_seed": 0,
    "hidden_dims": [64, 64],
    "feature_dim": 32,
    "lr": 0.02,
    "rounds": 65,
    "warmup_rounds": 30,
    "ema_decay": 0.9999,
}


def _announce(capsys, num: int, label: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {label}", flush=True)


@contextmanager
def criterion(capsys, num: int, label: str):
    try:
        yield
    except BaseException:
        _announce(capsys, num, label, False)
        raise
    _announce(capsys, num, label, True)


def seed_accs(runs, seeds) -> list[list[float]]:
    """LODO mean accuracy at each seed, per (base config, mode) of runs.

    The bench and arches come from the base config, so its bench seed must be
    pinned.  Every (run, seed) is one job of a single run_lodo_jobs call.
    """
    jobs = []
    for base, mode in runs:
        cfg = config.resolve(base)
        bench = config.benchmark(cfg)
        task_arch, gen_arch = config.arches(cfg, cfg["input_dim"], cfg["n_classes"])
        for seed in seeds:
            seed_cfg = config.resolve(dict(base, mode=mode, seed=seed))
            fed = config.fed_config(seed_cfg, n_clients=len(bench) - 1)
            jobs.append(protocol.Job(bench, fed, task_arch, gen_arch))
    accs = iter(report.averages["acc"] for report in protocol.run_lodo_jobs(jobs))
    return [[next(accs) for _ in seeds] for _ in runs]


def test_criterion_01_gradient_check(capsys):
    with criterion(capsys, 1, "loss-composition gradients match central differences"):
        start = time.perf_counter()
        hyper = ndag.NdagHyper(alpha=0.3, m=0.5)
        for seed in range(100):
            stu, gen, X, y, t_feats = clean_fixture(seed)
            objective, gen_layers = gen_objective_graph(gen, stu, X, y, t_feats, 0.3, 0.5)
            ad.backward(objective)
            stack, X1, y1, t1 = helpers.one_client(
                helpers.Models(student=stu, generator=gen), X, y, t_feats
            )
            fused = ndag.generator_grad(stack, TASK_ARCH, GEN_ARCH, X1, y1, hyper, t1)[3][0]

            def f_gen(phi):
                return helpers.gen_objective_ref(
                    phi, stu.values, TASK_ARCH, GEN_ARCH, X, y, t_feats, 0.3, 0.5
                )

            numeric = helpers.fd_grad(f_gen, gen.values)
            for route, analytic in (("tape", ad.flat_grad(gen_layers).values), ("fused", fused)):
                err = helpers.max_rel_err(analytic, numeric)
                assert err < 1e-4, f"generator objective, {route}, seed {seed}: rel err {err}"
        for seed in range(100):
            stu, gen, X, y, t_feats = clean_fixture(seed + 1000)
            x_hat = np.clip(X + 0.3 * nets.gen_apply(gen, GEN_ARCH, X), 0.0, 1.0)
            objective, stu_layers = student_objective_graph(stu, x_hat, y, t_feats)
            ad.backward(objective)
            stack, X1, y1, t1 = helpers.one_client(
                helpers.Models(student=stu, generator=gen), X, y, t_feats
            )
            fused = ndag.student_grad(stack, TASK_ARCH, GEN_ARCH, X1, y1, hyper, t1)[3][0]

            def f_stu(omega):
                return helpers.student_objective_ref(omega, TASK_ARCH, x_hat, y, t_feats)

            numeric = helpers.fd_grad(f_stu, stu.values)
            for route, analytic in (("tape", ad.flat_grad(stu_layers).values), ("fused", fused)):
                err = helpers.max_rel_err(analytic, numeric)
                assert err < 1e-4, f"student objective, {route}, seed {seed}: rel err {err}"
        assert time.perf_counter() - start < 10.0


def test_criterion_02_analytic_oracles(capsys):
    with criterion(capsys, 2, "worked-example values match to 1e-6"):
        two_minus_sqrt2 = 2.0 - math.sqrt(2.0)
        assert abs(normalized_sq_dist([1.0, 0.0], [1.0, 1.0]) - two_minus_sqrt2) < 1e-6
        assert abs(loss_dis([1.0, 0.0], [1.0, 1.0], 4.0) - two_minus_sqrt2) < 1e-6
        assert abs(loss_sim([1.0, 0.0], [1.0, 1.0]) - two_minus_sqrt2) < 1e-6
        assert abs(loss_cls([0.7, 0.7, 0.7], 1) - math.log(3.0)) < 1e-6
        assert abs(loss_cls([10.0, 0.0], 0) - math.log1p(math.exp(-10.0))) < 1e-6
        auc = rank_auc(np.array([0.9, 0.4, 0.6, 0.1]), np.array([True, True, False, False]))
        assert abs(auc - 0.75) < 1e-6
        # 0.5^0.3 / (0.5^0.3 + 1) = 0.4482004813...; the companion weight is
        # its complement.
        w = sha.softmax_weights([0.5, 1.0], 0.3)
        w0 = 0.5**0.3 / (0.5**0.3 + 1.0)
        assert abs(w.values[0] - w0) < 1e-6
        assert abs(w.values[1] - (1.0 - w0)) < 1e-6


def test_criterion_03_cap_invariant(capsys):
    with criterion(capsys, 3, "loss_dis <= m with an exactly flat capped branch"):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            m = float(rng.uniform(0.01, 4.0))
            assert loss_dis(rng.normal(size=3), rng.normal(size=3), m) <= m
        # Entries at or above the cap carry exactly zero gradient.
        x = ad.Tensor(np.array([0.05, 2.0, 0.1]), requires_grad=True)
        ad.backward(ad.weighted_sum(ad.minimum_const(x, 0.1), np.ones(3)))
        assert x.grad.tolist() == [1.0, 0.0, 0.0]
        # Through the full generator objective: with every row capped, the
        # gradient of CE - min(dis, m) equals the CE-only gradient bit for
        # bit because the capped term contributes nothing.
        stu, gen, X, y, t_feats = clean_fixture(3)
        x_hat = ndag.generate(gen, GEN_ARCH, X, 0.3)
        s_feats, _ = nets.task_apply(stu, TASK_ARCH, x_hat)
        raw = helpers.nsd_rows_ref(t_feats, s_feats)
        m_tiny = float(raw.min()) / 2.0
        assert m_tiny > 0.0

        def gen_grad(m):
            gen_layers = ad.layer_tensors(gen, GEN_ARCH, trainable=True)
            stu_layers = ad.layer_tensors(stu, TASK_ARCH, trainable=False)
            xs = ad.Tensor(X)
            xh = ad.clip(ad.add(xs, ad.scale(ad.gen_graph(gen_layers, xs), 0.3)), 0.0, 1.0)
            feats, logits = ad.task_graph(stu_layers, xh)
            ce = ad.cross_entropy_mean(logits, y)
            if m is None:
                ad.backward(ce)
            else:
                dist, _ = ad.normalized_sq_dist_rows(ad.Tensor(t_feats), feats)
                n = X.shape[0]
                dis = ad.weighted_sum(ad.minimum_const(dist, m), np.full(n, 1.0 / n))
                ad.backward(ad.sub(ce, dis))
            return ad.flat_grad(gen_layers).values

        ce_only = gen_grad(None)
        assert np.array_equal(gen_grad(m_tiny), ce_only)
        # The fused route takes the same flat branch, and central differences
        # of the capped objective agree with it.
        stack, X1, y1, t1 = helpers.one_client(
            helpers.Models(student=stu, generator=gen), X, y, t_feats
        )
        hyper = ndag.NdagHyper(alpha=0.3, m=m_tiny)
        fused = ndag.generator_grad(stack, TASK_ARCH, GEN_ARCH, X1, y1, hyper, t1)[3][0]
        assert np.array_equal(fused, ce_only)

        def f_gen(phi):
            return helpers.gen_objective_ref(
                phi, stu.values, TASK_ARCH, GEN_ARCH, X, y, t_feats, 0.3, m_tiny
            )

        assert helpers.max_rel_err(fused, helpers.fd_grad(f_gen, gen.values)) < 1e-4


def test_criterion_04_fedavg_equivalence(capsys):
    with criterion(capsys, 4, "FedAvg reference reproduced within 1e-12 per parameter"):
        cfg = config.defaults()
        bench = config.benchmark(cfg)
        task_arch, gen_arch = config.arches(cfg, cfg["input_dim"], cfg["n_classes"])
        sources = bench[1:]
        train_sets = [(d.train_x, d.train_y) for d in sources]
        ref = helpers.reference_fedavg(train_sets, task_arch, seed=0, rounds=3)

        fedavg = protocol.FederationConfig(
            n_clients=4, rounds=3, warmup_rounds=0, mode="fedavg", seed=0
        )
        server, _, _ = helpers.run_federation(sources, fedavg, task_arch, gen_arch)
        assert np.max(np.abs(server.global_task.values - ref)) <= 1e-12

        # alpha 0 leaves batches untouched, ema_decay 0 pins the teacher to
        # the student (zero-gradient minimum of the alignment term), and
        # beta = k = rho = 0 collapses aggregation to the plain mean.
        degenerate = protocol.FederationConfig(
            n_clients=4,
            rounds=3,
            warmup_rounds=2,
            mode="feddag",
            seed=0,
            ndag=ndag.NdagHyper(alpha=0.0, ema_decay=0.0),
            sha=sha.ShaHyper(beta=0.0, k=0, rho=0.0),
        )
        server, _, _ = helpers.run_federation(sources, degenerate, task_arch, gen_arch)
        assert np.max(np.abs(server.global_task.values - ref)) <= 1e-12


def test_criterion_05_simplex_and_reductions(capsys):
    with criterion(capsys, 5, "weight simplex and degenerate aggregation reductions"):
        rng = np.random.default_rng(55)
        for _ in range(500):
            scores = rng.uniform(0.05, 5.0, size=int(rng.integers(1, 9))).tolist()
            w = sha.softmax_weights(scores, float(rng.uniform(0.0, 3.0)))
            assert abs(float(np.sum(w.values)) - 1.0) <= 1e-12
            assert np.all(w.values >= 0.0)
        assert np.array_equal(
            sha.softmax_weights([0.3, 0.7, 1.9], 0.0).values, np.full(3, 1.0 / 3.0)
        )
        theta = rng.normal(size=(1, 17))
        grad = rng.normal(size=(1, 17))
        out, moved = sha.probe_rows(theta, grad, 0.0)
        assert moved.all()
        assert np.array_equal(out, theta)
        current = sha.ScoredSnapshot(score=1.0, row=theta[0])
        history = [sha.ScoredSnapshot(score=2.0, row=grad[0]) for _ in range(3)]
        merged, _ = sha.within_client_aggregate(current, history, k=0, history_cap=8)
        assert np.array_equal(merged.row, theta[0])
        assert merged.score == 1.0


def test_criterion_06_ema_contraction(capsys):
    with criterion(capsys, 6, "EMA gap contracts exactly as decay^t for t <= 20"):
        rng = np.random.default_rng(6)
        # One-client stacks: the in-place update every NDAG round runs.
        omega = rng.integers(-3, 4, size=(1, 41)).astype(np.float64)
        theta0 = rng.integers(-8, 9, size=(1, 41)).astype(np.float64)
        base = float(np.max(np.abs(theta0 - omega)))
        assert base > 0.0
        # Integer starting points and dyadic decays keep every intermediate
        # exactly representable, so the identity holds bit for bit.
        for decay in (0.5, 0.25):
            theta = theta0.copy()
            for t in range(1, 21):
                ndag.ema_update(theta, omega, decay)
                gap = float(np.max(np.abs(theta - omega)))
                assert gap == decay**t * base, (decay, t)
        theta = theta0.copy()
        for t in range(1, 21):
            ndag.ema_update(theta, omega, 0.999)
            gap = float(np.max(np.abs(theta - omega)))
            assert abs(gap - 0.999**t * base) <= 1e-12 * base


@pytest.mark.slow
def test_criterion_07_ablation_ordering(capsys):
    with criterion(capsys, 7, "ablation ordering, >= 2 point gap, >= 4/5 seed wins, < 15 min"):
        start = time.perf_counter()
        accs = dict(zip(MODES, seed_accs([(ABLATION_RECIPE, mode) for mode in MODES], range(5))))
        elapsed = time.perf_counter() - start
        means = {mode: float(np.mean(vals)) for mode, vals in accs.items()}
        assert means["feddag"] >= means["no_ndag"], means
        assert means["feddag"] >= means["no_sha"], means
        assert means["no_ndag"] >= means["fedavg"], means
        assert means["no_sha"] >= means["fedavg"], means
        gap_points = 100.0 * (means["feddag"] - means["fedavg"])
        assert gap_points >= 2.0, means
        wins = sum(f > b for f, b in zip(accs["feddag"], accs["fedavg"]))
        assert wins >= 4, (wins, accs)
        assert elapsed < 900.0, elapsed


@pytest.mark.slow
def test_criterion_08_style_strength_monotonicity(capsys):
    with criterion(capsys, 8, "improvement over FedAvg non-decreasing in style strength"):
        bases = [{"style_strength": strength, "bench_seed": 0} for strength in (0.0, 0.5, 1.0)]
        runs = [(base, mode) for base in bases for mode in ("feddag", "fedavg")]
        accs = iter(seed_accs(runs, range(5)))
        improvements = [float(np.mean(next(accs)) - np.mean(next(accs))) for _ in bases]
        assert improvements[0] <= improvements[1] <= improvements[2], improvements


def test_criterion_09_byte_identical_reports(capsys, tmp_path):
    with criterion(capsys, 9, "identical config+seed give byte-identical report.json"):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{}")
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg_path), "--out", str(out)]
        assert cli.main(argv) == 0
        first = (out / "report.json").read_bytes()
        assert cli.main(argv) == 0
        assert (out / "report.json").read_bytes() == first


def test_criterion_10_single_step_directions(capsys, monkeypatch):
    with criterion(capsys, 10, "adversarial single-step directions on 100 fixtures"):
        hyper = ndag.NdagHyper(
            alpha=0.3, m=10.0, ema_decay=0.95, lr=1e-4, momentum=0.9,
            weight_decay=0.0, batch_size=32,
        )

        def raw_dis(student, generator, teacher, X):
            t_feats, _ = nets.task_apply(teacher, TASK_ARCH, X)
            x_hat = ndag.generate(generator, GEN_ARCH, X, hyper.alpha)
            s_feats, _ = nets.task_apply(student, TASK_ARCH, x_hat)
            return float(helpers.nsd_rows_ref(t_feats, s_feats).mean())

        fd_checked = {"generator": 0, "student": 0}
        for seed in range(100):
            models, X, y = fixtures.saturated_fixture(seed, TASK_ARCH, GEN_ARCH)
            t_feats, _ = nets.task_apply(models.teacher, TASK_ARCH, X)
            pre = raw_dis(models.student, models.generator, models.teacher, X)
            assert pre < hyper.m, f"seed {seed} starts above the cap"
            stack, X1, y1, t1 = helpers.one_client(models, X, y, t_feats)
            ndag.generator_step(stack, TASK_ARCH, GEN_ARCH, X1, y1, hyper, t1)
            after_g = replace(models, generator=ParamVector(stack.generator.params[0]))
            post = raw_dis(models.student, after_g.generator, models.teacher, X)
            assert post >= pre, f"seed {seed}: generator step lowered discrepancy"

            x_hat = ndag.generate(after_g.generator, GEN_ARCH, X, hyper.alpha)

            def l_sim(params):
                feats, _ = nets.task_apply(params, TASK_ARCH, x_hat)
                return float(helpers.nsd_rows_ref(t_feats, feats).mean())

            pre_sim = l_sim(after_g.student)
            ndag.student_step(stack, TASK_ARCH, GEN_ARCH, X1, y1, hyper, t1)
            assert l_sim(stack.student.params[0]) <= pre_sim, (
                f"seed {seed}: student step raised similarity loss"
            )

            # The tape route takes exactly the same two steps.
            with monkeypatch.context() as patch:
                patch.setattr(ndag, "generator_grad", ad.generator_grad)
                patch.setattr(ndag, "student_grad", ad.student_grad)
                tape = helpers.one_client(models)[0]
                ndag.generator_step(tape, TASK_ARCH, GEN_ARCH, X1, y1, hyper, t1)
                ndag.student_step(tape, TASK_ARCH, GEN_ARCH, X1, y1, hyper, t1)
            assert np.array_equal(tape.generator.params, stack.generator.params)
            assert np.array_equal(tape.student.params, stack.student.params)

            # The fused gradients behind both steps match central differences
            # wherever no kink lies within the probe radius.
            for phase, state in (("generator", models), ("student", after_g)):
                margins = helpers.composition_margins(
                    state.student.values, TASK_ARCH, state.generator.values, GEN_ARCH,
                    X, y, t_feats, hyper.alpha, hyper.m,
                )
                if min(margins.values()) <= 2e-3:
                    continue
                fd_checked[phase] += 1
                one, X1, y1, t1 = helpers.one_client(state, X, y, t_feats)
                if phase == "generator":
                    analytic = ndag.generator_grad(
                        one, TASK_ARCH, GEN_ARCH, X1, y1, hyper, t1
                    )[3][0]
                    at = state.generator.values

                    def f(phi):
                        return helpers.gen_objective_ref(
                            phi, state.student.values, TASK_ARCH, GEN_ARCH, X, y, t_feats,
                            hyper.alpha, hyper.m,
                        )
                else:
                    analytic = ndag.student_grad(
                        one, TASK_ARCH, GEN_ARCH, X1, y1, hyper, t1
                    )[3][0]
                    at = state.student.values

                    def f(omega):
                        return helpers.student_objective_ref(omega, TASK_ARCH, x_hat, y, t_feats)

                err = helpers.max_rel_err(analytic, helpers.fd_grad(f, at))
                assert err < 1e-4, f"seed {seed}: fused {phase} gradient rel err {err}"
        assert min(fd_checked.values()) >= 75, fd_checked
