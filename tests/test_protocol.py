"""Round orchestration, mode ablations, and the leave-one-domain-out loop."""

from __future__ import annotations

import ctypes
import os
import pickle
import resource
import select
import signal
import time
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

import helpers
from feddag import cli, config, data, metrics, ndag, nets, protocol, sha
from feddag.ndag import NdagHyper
from feddag.protocol import FederationConfig
from feddag.sha import ShaHyper
from test_acceptance import ABLATION_RECIPE

TASK_ARCH = nets.TaskArch(6, (8,), 4, 3)
GEN_ARCH = nets.GenArch(6, (5,))

BENCH = data.make_benchmark(
    data.BenchSpec(n_domains=3, n_classes=3, input_dim=6, samples_per_domain=60, seed=3)
)
BENCH4 = data.make_benchmark(
    data.BenchSpec(n_domains=4, n_classes=3, input_dim=6, samples_per_domain=60, seed=3)
)


def fed(mode="feddag", rounds=3, warmup=1, n_clients=2, seed=0, ndag_kw=None, sha_kw=None, **kw):
    return FederationConfig(
        n_clients=n_clients,
        rounds=rounds,
        warmup_rounds=warmup,
        ndag=NdagHyper(**(ndag_kw or {})),
        sha=ShaHyper(**(sha_kw or {})),
        mode=mode,
        seed=seed,
        **kw,
    )


def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


def _allocation_faults(*_) -> list[int]:
    """Minor page faults of four rounds that allocate, fill and free 8 x 1 MiB arrays."""
    faults = []
    for _ in range(4):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        arrays = [np.ones(1 << 17) for _ in range(8)]
        del arrays
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return faults


def assert_no_child_left():
    # Raises ChildProcessError only once every child has been reaped.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestFederationConfig:
    def test_mode_flags(self):
        flags = {m: (fed(mode=m).ndag_active, fed(mode=m).sha_active) for m in protocol.MODES}
        assert flags == {
            "feddag": (True, True),
            "no_ndag": (False, True),
            "no_sha": (True, False),
            "fedavg": (False, False),
        }

    @pytest.mark.parametrize(
        "kw",
        [
            dict(mode="both"),
            dict(n_clients=0),
            dict(rounds=0),
            dict(rounds=3, warmup=3),
            dict(warmup=-1),
            dict(eval_clients_per_round=5),
            dict(local_epochs=0),
            dict(n_clients=1, sha_kw=dict(include_self=False)),
            dict(sha_kw=dict(include_self=False), eval_clients_per_round=1),
        ],
    )
    def test_rejects_bad_config(self, kw):
        with pytest.raises(ValueError):
            fed(**kw)

    @pytest.mark.parametrize(
        "field, ok, bad",
        [
            ("mode", dict(mode="fedavg"), dict(mode="both")),
            ("n_clients", dict(n_clients=1), dict(n_clients=0)),
            ("rounds", dict(rounds=1, warmup_rounds=0), dict(rounds=0, warmup_rounds=0)),
            ("warmup_rounds", dict(warmup_rounds=0), dict(warmup_rounds=-1)),
            ("warmup_rounds", dict(warmup_rounds=2), dict(warmup_rounds=3)),
            ("eval_clients_per_round", dict(eval_clients_per_round=0),
             dict(eval_clients_per_round=-1)),
            ("eval_clients_per_round", dict(eval_clients_per_round=2),
             dict(eval_clients_per_round=3)),
            ("local_epochs", dict(local_epochs=1), dict(local_epochs=0)),
            ("seed", dict(seed=0), dict(seed=-1)),
        ],
    )
    def test_each_bound(self, field, ok, bad):
        base = dict(n_clients=2, rounds=3, warmup_rounds=1)
        FederationConfig(**dict(base, **ok))
        with pytest.raises(ValueError, match=f"^{field} must"):
            FederationConfig(**dict(base, **bad))


class TestFedavgEquivalence:
    def test_fedavg_mode_matches_reference_bitwise(self):
        sources = BENCH[:2]
        config = fed(mode="fedavg", rounds=3, warmup=1, seed=5)
        server, _, _ = helpers.run_federation(sources, config, TASK_ARCH, GEN_ARCH)
        ref = helpers.reference_fedavg(
            [(d.train_x, d.train_y) for d in sources], TASK_ARCH, seed=5, rounds=3
        )
        assert np.array_equal(server.global_task.values, ref)

    def test_degenerate_feddag_matches_fedavg(self):
        # alpha 0 keeps x_hat = x bitwise, ema_decay 0 makes the teacher track
        # the student exactly (so the alignment term sits at its zero-gradient
        # minimum), and beta = k = rho = 0 reduce the aggregation to a uniform
        # mean.  The only residual difference is mean-vs-weighted-sum rounding.
        sources = BENCH[:2]
        config = fed(
            mode="feddag",
            rounds=3,
            warmup=2,
            seed=5,
            ndag_kw=dict(alpha=0.0, ema_decay=0.0),
            sha_kw=dict(beta=0.0, k=0, rho=0.0),
        )
        server, _, _ = helpers.run_federation(sources, config, TASK_ARCH, GEN_ARCH)
        ref = helpers.reference_fedavg(
            [(d.train_x, d.train_y) for d in sources], TASK_ARCH, seed=5, rounds=3
        )
        assert np.max(np.abs(server.global_task.values - ref)) <= 1e-12

    def test_source_count_mismatch(self):
        with pytest.raises(ValueError, match="source domains for"):
            helpers.run_federation(BENCH, fed(n_clients=2), TASK_ARCH, GEN_ARCH)


class TestTeacherLifecycle:
    def test_teacher_frozen_at_warmup_snapshot_when_decay_one(self):
        # With decay 1.0 the EMA never moves, so the teacher must stay the
        # exact global model sent out at the first adversarial round, even
        # across later rounds and new global models.
        sources = BENCH[:2]
        config = fed(mode="no_sha", rounds=4, warmup=2, seed=9, ndag_kw=dict(ema_decay=1.0))
        server = protocol.init(config, TASK_ARCH, GEN_ARCH)
        snapshot = None
        for r in range(config.rounds):
            if r == config.warmup_rounds:
                snapshot = server.global_task.values.copy()
            helpers.run_round(server, sources, config, TASK_ARCH, GEN_ARCH)
        assert server.teachers.shape == (2, helpers.param_count(TASK_ARCH))
        for row in server.teachers:
            assert np.array_equal(row, snapshot)

    def test_teacher_rows_carry_over_between_adversarial_rounds(self, monkeypatch):
        # With decay 0.9 the teachers move every batch.  The rows entering
        # the second adversarial round must be the ones the first returned,
        # not a fresh copy of the new global model.
        sources = BENCH[:2]
        config = fed(mode="no_sha", rounds=3, warmup=1, seed=4, ndag_kw=dict(ema_decay=0.9))
        server = protocol.init(config, TASK_ARCH, GEN_ARCH)
        calls = []
        client_round = ndag.client_round

        def recording(student, generator, teacher, *args, **kwargs):
            # client_round trains the rows it is given in place, so record
            # copies of what was sent and of what came back.
            sent = student.copy(), None if teacher is None else teacher.copy()
            result = client_round(student, generator, teacher, *args, **kwargs)
            back = None if result.teacher is None else result.teacher.copy()
            calls.append((*sent, back))
            return result

        monkeypatch.setattr(ndag, "client_round", recording)
        for _ in range(config.rounds):
            helpers.run_round(server, sources, config, TASK_ARCH, GEN_ARCH)
        warmup, first, second = calls
        assert warmup[1] is None
        # The first adversarial round copies the global model into the teachers ...
        assert np.array_equal(first[1], first[0])
        assert not np.array_equal(first[2], first[1])
        # ... and the second gets back exactly what the first returned.
        assert np.array_equal(second[1], first[2])
        assert not np.array_equal(second[1], second[0])

    def test_history_rows_outlive_in_place_training(self):
        # client_round trains the teacher rows in place, so the snapshots SHA
        # keeps must be copies: a later round cannot change an earlier entry.
        sources = BENCH[:2]
        config = fed(mode="feddag", rounds=4, warmup=1, seed=8, ndag_kw=dict(ema_decay=0.9))
        server = protocol.init(config, TASK_ARCH, GEN_ARCH)
        kept = []
        for _ in range(config.rounds):
            helpers.run_round(server, sources, config, TASK_ARCH, GEN_ARCH)
            kept.append([[s.row.copy() for s in hist] for hist in server.histories])
        for hist, first in zip(server.histories, kept[1]):
            assert len(hist) == 3
            for snap, row in zip(hist, first):
                assert np.array_equal(snap.row, row)
            assert all(not np.shares_memory(snap.row, server.teachers) for snap in hist)

    def test_warmup_equals_fedavg_prefix(self):
        # Before the adversarial phase starts, every mode is plain FedAvg.
        sources = BENCH[:2]
        config_fd = fed(mode="feddag", rounds=3, warmup=2, seed=7)
        config_fa = fed(mode="fedavg", rounds=3, warmup=2, seed=7)
        server_fd = protocol.init(config_fd, TASK_ARCH, GEN_ARCH)
        server_fa = protocol.init(config_fa, TASK_ARCH, GEN_ARCH)
        for _ in range(2):
            helpers.run_round(server_fd, sources, config_fd, TASK_ARCH, GEN_ARCH)
            helpers.run_round(server_fa, sources, config_fa, TASK_ARCH, GEN_ARCH)
        assert np.array_equal(server_fd.global_task.values, server_fa.global_task.values)

    def test_generator_untouched_during_warmup(self):
        sources = BENCH[:2]
        config = fed(mode="no_sha", rounds=3, warmup=2, seed=11)
        server = protocol.init(config, TASK_ARCH, GEN_ARCH)
        gen0 = server.global_gen.values.copy()
        helpers.run_round(server, sources, config, TASK_ARCH, GEN_ARCH)
        helpers.run_round(server, sources, config, TASK_ARCH, GEN_ARCH)
        assert np.array_equal(server.global_gen.values, gen0)
        assert server.teachers is None
        helpers.run_round(server, sources, config, TASK_ARCH, GEN_ARCH)
        assert not np.array_equal(server.global_gen.values, gen0)

    def test_no_ndag_mode_never_builds_adversarial_state(self):
        sources = BENCH[:2]
        config = fed(mode="no_ndag", rounds=3, warmup=1, seed=2)
        server = protocol.init(config, TASK_ARCH, GEN_ARCH)
        gen0 = server.global_gen.values.copy()
        for _ in range(config.rounds):
            helpers.run_round(server, sources, config, TASK_ARCH, GEN_ARCH)
        assert np.array_equal(server.global_gen.values, gen0)
        assert server.teachers is None

    def test_warmup_zero_starts_adversarial_immediately(self):
        sources = BENCH[:2]
        config = fed(mode="feddag", rounds=2, warmup=0, seed=0)
        server = protocol.init(config, TASK_ARCH, GEN_ARCH)
        rm = helpers.run_round(server, sources, config, TASK_ARCH, GEN_ARCH)
        assert rm.warmup is False
        assert rm.raw_scores is not None
        assert server.teachers is not None and len(server.teachers) == 2


class TestRoundMetrics:
    def test_warmup_then_scored_rounds(self):
        sources = BENCH[:2]
        config = fed(mode="feddag", rounds=3, warmup=2, seed=1)
        server = protocol.init(config, TASK_ARCH, GEN_ARCH)
        log = [
            helpers.run_round(server, sources, config, TASK_ARCH, GEN_ARCH)
            for _ in range(config.rounds)
        ]
        assert [rm.round for rm in log] == [0, 1, 2]
        assert [rm.warmup for rm in log] == [True, True, False]
        for rm in log[:2]:
            assert rm.raw_scores is None and rm.scores is None
            assert rm.weights == (0.5, 0.5)
        last = log[2]
        assert len(last.raw_scores) == len(last.scores) == 2
        assert all(s > 0 for s in last.raw_scores)
        assert abs(sum(last.weights) - 1.0) <= 1e-12
        assert all(np.isfinite(rm.source_val_loss) for rm in log)
        assert all(len(rm.train_losses) == 2 for rm in log)

    def test_no_sha_rounds_stay_uniform(self):
        sources = BENCH[:2]
        config = fed(mode="no_sha", rounds=3, warmup=1, seed=1)
        server = protocol.init(config, TASK_ARCH, GEN_ARCH)
        log = [
            helpers.run_round(server, sources, config, TASK_ARCH, GEN_ARCH)
            for _ in range(config.rounds)
        ]
        assert all(rm.raw_scores is None for rm in log)
        assert all(rm.weights == (0.5, 0.5) for rm in log)

    def test_last_round_record_holds_its_target(self):
        config = fed(mode="feddag", rounds=2, warmup=1, seed=1)
        server = protocol.init(config, TASK_ARCH, GEN_ARCH)
        first = helpers.run_round(server, BENCH[:2], config, TASK_ARCH, GEN_ARCH, BENCH[2])
        last = helpers.run_round(server, BENCH[:2], config, TASK_ARCH, GEN_ARCH, BENCH[2])
        assert first.target is None and last.target is not None
        assert server.log == [first, last] and server.round == 2
        x = np.concatenate([BENCH[2].train_x, BENCH[2].val_x])
        y = np.concatenate([BENCH[2].train_y, BENCH[2].val_y])
        assert last.target == metrics.evaluate(server.global_task, TASK_ARCH, x, y)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_group_round_raises_for_a_diverged_final_model(self):
        # The one local step leaves huge but finite weights, whose forward
        # pass is non-finite; no later step checks it.
        config = fed(mode="fedavg", rounds=1, warmup=0, ndag_kw=dict(batch_size=1000, lr=1e300))
        leg = protocol._Leg(protocol.init(config, TASK_ARCH, GEN_ARCH), BENCH[:2], BENCH[2])
        with pytest.raises(ndag.DivergenceError, match="^final global model: non-finite"):
            protocol._group_round([leg], config, TASK_ARCH, GEN_ARCH)
        assert leg.server.log == []


def per_client_val_sets(clients, config, round_idx):
    """protocol._client_val_sets as each client's list of sets, in set order."""
    sets, scored_on = protocol._client_val_sets(clients, config, round_idx)
    return [[vs for vs, rows in zip(sets, scored_on) if i in rows] for i in range(len(clients))]


class TestValSetSelection:
    def _clients(self, n):
        rng = np.random.default_rng(0)
        return [
            data.DomainDataset(
                domain=i,
                train_x=rng.random((4, 2)),
                train_y=np.zeros(4, dtype=int),
                val_x=rng.random((3, 2)),
                val_y=np.zeros(3, dtype=int),
            )
            for i in range(n)
        ]

    def test_include_self_true_uses_everyone(self):
        clients = self._clients(3)
        config = fed(n_clients=3)
        sets = per_client_val_sets(clients, config, 0)
        assert [len(s) for s in sets] == [3, 3, 3]
        assert sets[1][1][0] is clients[1].val_x

    def test_include_self_false_drops_own_set(self):
        clients = self._clients(3)
        config = fed(n_clients=3, sha_kw=dict(include_self=False))
        sets = per_client_val_sets(clients, config, 0)
        assert [len(s) for s in sets] == [2, 2, 2]
        for i, per in enumerate(sets):
            assert all(xs is not clients[i].val_x for xs, _ in per)

    def test_eval_subset_is_deterministic_per_round(self):
        clients = self._clients(4)
        config = fed(n_clients=4, eval_clients_per_round=2, seed=13)
        a = per_client_val_sets(clients, config, 5)
        b = per_client_val_sets(clients, config, 5)
        assert [len(per) for per in a] == [2, 2, 2, 2]
        for per_a, per_b in zip(a, b):
            assert [id(xs) for xs, _ in per_a] == [id(xs) for xs, _ in per_b]
        # Across many rounds the sampled evaluator pair must actually vary.
        picks = {
            tuple(id(xs) for xs, _ in per_client_val_sets(clients, config, r)[0])
            for r in range(10)
        }
        assert len(picks) > 1

    def test_self_exclusion_falls_back_to_chosen(self):
        # With two sampled evaluators and its own set excluded, a client
        # still keeps at least one: FederationConfig rejects a single
        # evaluator and a single client, the settings that could leave none.
        clients = self._clients(3)
        config = fed(n_clients=3, eval_clients_per_round=2, sha_kw=dict(include_self=False))
        sets = per_client_val_sets(clients, config, 0)
        assert all(len(per) >= 1 for per in sets)
        for i, per in enumerate(sets):
            assert all(xs is not clients[i].val_x for xs, _ in per)


class TestRunFederation:
    def test_single_client_federation(self):
        config = fed(mode="feddag", rounds=3, warmup=1, n_clients=1, seed=6)
        server, log, _ = helpers.run_federation(BENCH[:1], config, TASK_ARCH, GEN_ARCH)
        assert server.round == 3
        assert log[-1].weights == (1.0,)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_wraps_client_index(self):
        config = fed(mode="fedavg", rounds=1, warmup=0, ndag_kw=dict(lr=1e200))
        with pytest.raises(ndag.DivergenceError, match="^client 0: ") as excinfo:
            helpers.run_federation(BENCH[:2], config, TASK_ARCH, GEN_ARCH)
        assert excinfo.value.client == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mode", ["fedavg", "feddag"])
    def test_divergence_names_the_failing_client(self, mode):
        # Only client 1's inputs break training, and client 0 trains in the
        # same lockstep stacks.  Huge inputs overflow the plain step; NDAG
        # clips finite perturbed inputs back into range, so it gets infinite ones.
        x = BENCH[1].train_x
        broken = replace(BENCH[1], train_x=x * 1e300 if mode == "fedavg" else x + np.inf)
        config = fed(mode=mode, rounds=1, warmup=0)
        with pytest.raises(ndag.DivergenceError, match="^client 1: ") as excinfo:
            helpers.run_federation([BENCH[0], broken], config, TASK_ARCH, GEN_ARCH)
        assert excinfo.value.client == 1

    def test_trace_collection_only_on_request(self):
        config = fed(mode="feddag", rounds=2, warmup=1, seed=3)
        _, _, quiet = helpers.run_federation(BENCH[:2], config, TASK_ARCH, GEN_ARCH)
        _, _, chatty = helpers.run_federation(
            BENCH[:2], config, TASK_ARCH, GEN_ARCH, collect_trace=True
        )
        assert quiet == []
        assert len(chatty) == 2
        adversarial = [round_idx for round_idx, t in enumerate(chatty) if t.l_dis is not None]
        assert adversarial == [1]

    def test_probe_cadence(self):
        config = fed(mode="fedavg", rounds=3, warmup=1, seed=3)
        _, log, _ = helpers.run_federation(
            BENCH[:2], config, TASK_ARCH, GEN_ARCH, target=BENCH[2]
        )
        assert [rm.target is None for rm in log] == [True, True, False]
        config = fed(mode="fedavg", rounds=3, warmup=1, seed=3, probe_every_round=True)
        _, log, _ = helpers.run_federation(
            BENCH[:2], config, TASK_ARCH, GEN_ARCH, target=BENCH[2]
        )
        assert all(rm.target is not None for rm in log)


class TestRunLodo:
    def test_structure_and_averages(self):
        config = fed(mode="fedavg", rounds=2, warmup=1, n_clients=2)
        report = protocol.run_lodo(BENCH, config, TASK_ARCH, GEN_ARCH)
        assert [run.target_domain for run in report.domains] == [0, 1, 2]
        for run in report.domains:
            assert len(run.rounds) == 2
            assert run.final is run.rounds[-1].target
            assert run.final.n == 60
        assert set(report.averages) == {"acc", "f1", "auc"}
        assert report.averages["acc"] == pytest.approx(
            np.mean([run.final.acc for run in report.domains]), abs=1e-15
        )

    def test_needs_two_domains(self):
        config = fed(rounds=2, warmup=1, n_clients=1)
        with pytest.raises(ValueError, match="at least 2 domains"):
            protocol.run_lodo(BENCH[:1], config, TASK_ARCH, GEN_ARCH)

    def test_deterministic(self):
        config = fed(mode="feddag", rounds=3, warmup=1, n_clients=2, seed=8)
        r1 = protocol.run_lodo(BENCH, config, TASK_ARCH, GEN_ARCH)
        r2 = protocol.run_lodo(BENCH, config, TASK_ARCH, GEN_ARCH)
        assert r1.averages == r2.averages
        for a, b in zip(r1.domains, r2.domains):
            assert np.array_equal(a.final_task.values, b.final_task.values)

    def test_legs_equal_in_process_federations(self):
        config = fed(mode="feddag", rounds=3, warmup=1, n_clients=2, seed=4)
        report = protocol.run_lodo(BENCH, config, TASK_ARCH, GEN_ARCH, collect_trace=True)
        assert_no_child_left()
        for idx, run in enumerate(report.domains):
            sources = [d for i, d in enumerate(BENCH) if i != idx]
            server, rounds, trace = helpers.run_federation(
                sources, config, TASK_ARCH, GEN_ARCH, BENCH[idx], collect_trace=True
            )
            assert run.target_domain == BENCH[idx].domain
            assert run.rounds == rounds
            assert run.final_task.values.tobytes() == server.global_task.values.tobytes()
            assert not run.final_task.values.flags.writeable
            assert run.clients == tuple(d.domain for d in sources)
            assert trace
            helpers.assert_same_traces(run.trace, trace)

    def test_leg_inputs_are_not_pickled(self):
        # Forked workers inherit the jobs; only (job, leg) indices, results
        # and handed-off legs' servers and records cross the pipes.
        class Unpicklable(data.DomainDataset):
            def __reduce__(self):
                raise TypeError("a leg input was pickled")

        def unpicklable(bench):
            return [Unpicklable(d.domain, d.train_x, d.train_y, d.val_x, d.val_y) for d in bench]

        config = fed(mode="fedavg", rounds=2, warmup=1, n_clients=2)
        with pytest.raises(TypeError, match="a leg input was pickled"):
            pickle.dumps(unpicklable(BENCH)[0])
        benches = (BENCH, BENCH4)
        reports = protocol.run_lodo_jobs(
            [protocol.Job(unpicklable(b), config, TASK_ARCH, GEN_ARCH) for b in benches]
        )
        for report, bench in zip(reports, benches):
            expected = protocol.run_lodo(bench, config, TASK_ARCH, GEN_ARCH)
            assert report.averages == expected.averages
            assert len(report.domains) == len(bench)
            for a, b in zip(report.domains, expected.domains):
                assert a.final_task.values.tobytes() == b.final_task.values.tobytes()

    def test_each_jobs_config_is_fitted_to_its_bench(self):
        # SHA keeps one history per client, and BENCH4's legs have 3 clients.
        jobs = [
            protocol.Job(BENCH4, fed(mode="no_ndag", n_clients=n, seed=5), TASK_ARCH, GEN_ARCH)
            for n in (2, 3)
        ]
        fitted, exact = protocol.run_lodo_jobs(jobs)
        assert len(fitted.domains) == len(BENCH4)
        for a, b in zip(fitted.domains, exact.domains):
            assert pickle.dumps(a) == pickle.dumps(b)

    def test_jobs_equal_one_job_calls(self):
        # The jobs differ in bench, task arch, mode and trace collection.
        wide = nets.TaskArch(6, (8, 8), 4, 3)
        jobs = [
            protocol.Job(BENCH, fed(mode="feddag", seed=2), TASK_ARCH, GEN_ARCH, True),
            protocol.Job(BENCH4, fed(mode="no_ndag", n_clients=3, seed=2), TASK_ARCH, GEN_ARCH),
            protocol.Job(BENCH, fed(mode="no_sha", seed=3), wide, GEN_ARCH),
            protocol.Job(BENCH4, fed(mode="feddag", n_clients=3, seed=3), wide, GEN_ARCH, True),
        ]
        reports = protocol.run_lodo_jobs(jobs)
        assert len(reports) == len(jobs)
        assert_no_child_left()
        for job, report in zip(jobs, reports):
            expected = protocol.run_lodo(*job)
            assert report.averages == expected.averages
            assert len(report.domains) == len(job.benchmark)
            for a, b in zip(report.domains, expected.domains):
                assert a.target_domain == b.target_domain
                assert a.final_task.values.tobytes() == b.final_task.values.tobytes()
                assert a.rounds == b.rounds
                assert a.clients == b.clients
                helpers.assert_same_traces(a.trace, b.trace)
                assert bool(a.trace) == job.collect_trace

    def test_leg_result_survives_pickling(self):
        # Warmup rounds leave the NDAG losses of every trace entry None.
        config = fed(mode="feddag", rounds=2, warmup=1, n_clients=2, seed=6)
        server, rounds, trace = helpers.run_federation(
            BENCH[:2], config, TASK_ARCH, GEN_ARCH, BENCH[2], collect_trace=True
        )
        run = protocol.DomainRun(2, rounds, server.global_task, (0, 1), trace)
        assert any(t.l_dis is None for t in trace)
        assert any(t.l_dis is not None for t in trace)
        back = pickle.loads(pickle.dumps(run))
        assert back.target_domain == 2
        assert back.rounds == run.rounds
        assert back.clients == (0, 1)
        helpers.assert_same_traces(back.trace, run.trace)
        assert [type(t) for t in back.trace] == [ndag.BatchTrace] * len(trace)
        assert back.final_task.values.tobytes() == run.final_task.values.tobytes()

    @pytest.mark.skipif(not _libc_has_mallopt(), reason="leg workers tune the heap with mallopt")
    def test_leg_worker_reuses_freed_arrays(self, monkeypatch):
        # 8 MiB is 2,048 pages: a heap that unmapped or trimmed the arrays
        # would fault in about that many in every round.
        monkeypatch.setattr(protocol, "_leg_outcomes", lambda job, legs, *_: [_allocation_faults()])
        pids, task_pipes = [], {}
        protocol._fork_leg_worker([None], pids, task_pipes)
        [pid], [(result_r, task_w)] = pids, task_pipes.items()
        try:
            send_task(task_w, 0, [0])
            assert protocol._receive(result_r) == pid
            faults = protocol._receive(result_r)
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(task_w)
            os.close(result_r)
        assert all(f < 256 for f in faults[1:]), faults

    def test_worker_killed_mid_leg_raises_at_once(self, monkeypatch):
        def killed_leg(job, legs, *_):
            if any(job.benchmark[idx].domain == 0 for idx in legs):
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(30.0)  # the other legs still train when leg 0's worker dies

        monkeypatch.setattr(protocol, "_leg_outcomes", killed_leg)
        config = fed(mode="fedavg", rounds=2, warmup=1, n_clients=2)
        start = time.monotonic()
        with pytest.raises(protocol.LegWorkerDied):
            protocol.run_lodo(BENCH, config, TASK_ARCH, GEN_ARCH)
        assert time.monotonic() - start < 10.0
        assert_no_child_left()

    def test_first_failing_leg_in_index_order_raises(self, monkeypatch):
        bench = data.make_benchmark(
            data.BenchSpec(n_domains=4, n_classes=3, input_dim=6, samples_per_domain=60, seed=3)
        )
        run_group = protocol._run_group

        def failing_group(legs, config, *rest):
            seed = config.seed
            if seed == 0 and any(leg.idx == 1 for leg in legs):
                time.sleep(0.2)  # with two or more workers, leg 3 and job 1 then fail first
            for leg in legs:
                if (seed, leg.target.domain) in ((0, 1), (0, 3), (1, 0)):
                    raise ndag.DivergenceError(f"job {seed} leg {leg.target.domain}", 0)
            return run_group(legs, config, *rest)

        # The workers are forked, so they call the patched function.
        monkeypatch.setattr(protocol, "_run_group", failing_group)
        jobs = [
            protocol.Job(bench, fed(mode="fedavg", rounds=2, warmup=1, n_clients=3, seed=s),
                         TASK_ARCH, GEN_ARCH)
            for s in (0, 1)
        ]
        with pytest.raises(ndag.DivergenceError, match="^client 0: job 0 leg 1$") as info:
            protocol.run_lodo_jobs(jobs)
        assert info.value.client == 0
        assert_no_child_left()

    @pytest.mark.parametrize("failing_seeds, raised", [((1,), 1), ((0, 1), 0)],
                             ids=["job-1", "both-jobs"])
    def test_a_leg_build_error_is_returned_and_raised_in_job_order(
        self, monkeypatch, failing_seeds, raised
    ):
        # A worker builds each leg's models with protocol.init; the workers
        # are forked, so they call the patched function.
        init = protocol.init

        def failing_init(config, *rest):
            if config.seed in failing_seeds:
                raise MemoryError(f"job {config.seed}: no memory for the models")
            return init(config, *rest)

        monkeypatch.setattr(protocol, "init", failing_init)
        jobs = [
            protocol.Job(BENCH4, fed(mode="fedavg", rounds=2, warmup=1, n_clients=3, seed=s),
                         TASK_ARCH, GEN_ARCH)
            for s in (0, 1)
        ]
        with pytest.raises(MemoryError, match=f"^job {raised}: no memory for the models$"):
            protocol.run_lodo_jobs(jobs)
        assert_no_child_left()

    def test_an_outcome_that_cannot_be_pickled_raises_its_pickling_error(self, monkeypatch):
        def unpicklable(self, protocol_version):
            raise TypeError("cannot pickle this DomainRun")

        monkeypatch.setattr(protocol.DomainRun, "__reduce_ex__", unpicklable)
        config = fed(mode="fedavg", rounds=2, warmup=1)
        with pytest.raises(TypeError, match="^cannot pickle this DomainRun$"):
            protocol.run_lodo(BENCH, config, TASK_ARCH, GEN_ARCH)
        assert_no_child_left()


def lodo_job(bench, mode="feddag", batch_size=32, **kw):
    """A job over bench with fast-moving models and every batch traced."""
    ndag_kw = dict(lr=0.05, ema_decay=0.9, batch_size=batch_size)
    fed_config = fed(mode=mode, rounds=4, warmup=1, n_clients=len(bench) - 1, seed=7,
                     ndag_kw=ndag_kw, **kw)
    return protocol.Job(bench, fed_config, TASK_ARCH, GEN_ARCH, True)


def leg_alone(job, idx):
    """Leg idx of job trained by helpers.run_federation in this process."""
    sources = [d for i, d in enumerate(job.benchmark) if i != idx]
    return helpers.run_federation(
        sources, job.config, job.task_arch, job.gen_arch, job.benchmark[idx], job.collect_trace
    )


def run_alone(job, idx):
    """Leg idx of job trained alone in this process, as the DomainRun a worker returns."""
    server, rounds, trace = leg_alone(job, idx)
    clients = tuple(d.domain for i, d in enumerate(job.benchmark) if i != idx)
    return protocol.DomainRun(job.benchmark[idx].domain, rounds, server.global_task, clients, trace)


class TestLegGroups:
    """leg_groups: which legs of a job a worker trains as one stack."""

    @staticmethod
    def rows(cfg):
        job = cli._lodo_inputs(config.resolve(cfg))
        return protocol._step_rows(job)

    def test_default_job_on_two_cpus(self):
        rows = self.rows({})
        assert rows == [128] * 5
        assert protocol.leg_groups(rows, 2) == [[0, 1, 2], [3, 4]]

    def test_one_cpu_stacks_every_leg(self):
        rows = self.rows({})
        assert protocol.leg_groups(rows, 1) == [[0, 1, 2, 3, 4]]
        assert sum(rows) == 640 <= protocol.MAX_GROUP_ROWS

    def test_eight_cpus_give_one_leg_each(self):
        assert protocol.leg_groups(self.rows({}), 8) == [[0], [1], [2], [3], [4]]

    def test_tall_legs_stay_alone(self, tmp_path):
        # The sha_many workload: 17 CSV domains of 179 training rows and batches of 256.
        spec = data.BenchSpec(n_domains=17, samples_per_domain=200, seed=0)
        data.export_csv(spec, str(tmp_path / "bench.csv"))
        rows = self.rows({"data_csv": str(tmp_path / "bench.csv"), "batch_size": 256,
                          "mode": "no_ndag"})
        assert rows == [16 * 179] * 17
        assert protocol.MAX_GROUP_ROWS < rows[0]
        for workers in (1, 2):
            assert protocol.leg_groups(rows, workers) == [[i] for i in range(17)]

    def test_ablation_jobs_give_two_groups_each(self):
        # The 20 jobs of acceptance criterion 7, on 2 CPUs.
        jobs = [
            cli._lodo_inputs(config.resolve(dict(ABLATION_RECIPE, mode=mode, seed=seed)))
            for mode in protocol.MODES for seed in range(5)
        ]
        assert len(jobs) == 20
        for job in jobs:
            assert protocol.leg_groups(protocol._step_rows(job), 2) == [[0, 1, 2], [3, 4]]

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_groups_are_even_and_within_the_row_limit(self, workers):
        # Unequal legs: the first of two groups would step 1,100 rows, over
        # the limit, so even one CPU gets three.
        rows = [300, 300, 500, 200, 100]
        groups = protocol.leg_groups(rows, workers)
        assert [i for g in groups for i in g] == list(range(5))
        assert len(groups) >= min(workers, 5)
        assert max(map(len, groups)) - min(map(len, groups)) <= 1
        assert all(len(g) == 1 or sum(rows[i] for i in g) <= protocol.MAX_GROUP_ROWS
                   for g in groups)
        if workers == 1:
            assert groups == [[0, 1], [2, 3], [4]]


class TestGroupedLegs:
    """A leg group trains its legs' clients as one stack and each leg as it trains alone."""

    @pytest.mark.parametrize(
        "mode, kw",
        [
            ("feddag", {}),
            ("no_ndag", {}),
            ("no_sha", {}),
            ("fedavg", {}),
            ("feddag", dict(local_epochs=2)),
            ("feddag", dict(eval_clients_per_round=2, sha_kw=dict(include_self=False))),
            ("no_ndag", dict(probe_every_round=True)),
        ],
    )
    def test_group_equals_legs_alone(self, monkeypatch, mode, kw):
        self.assert_group_equals_legs_alone(monkeypatch, lodo_job(BENCH4, mode, **kw))

    @pytest.mark.parametrize("mode", ["feddag", "no_ndag"])
    def test_unequal_csv_domains_mix_batch_sizes(self, monkeypatch, tmp_path, mode):
        # Batches of 48 over 36 to 135 training rows: at a step, clients of
        # different legs with equal batch sizes share a stack.
        bench = helpers.unequal_csv_bench(tmp_path / "bench.csv")
        assert len({len(d.train_y) for d in bench}) == 4
        self.assert_group_equals_legs_alone(monkeypatch, lodo_job(bench, mode, batch_size=48))

    def test_leg_traces_keep_their_own_batch_count(self, monkeypatch, tmp_path):
        # Batches of 40 over 36 to 135 rows: 1 to 4 batches a client, so the
        # leg without the 135-row domain has 3 trace columns in a group of 4.
        bench = helpers.unequal_csv_bench(tmp_path / "bench.csv")
        job = lodo_job(bench, "feddag", batch_size=40)
        self.assert_group_equals_legs_alone(monkeypatch, job)
        widths = [run.trace[0].l_cls_s.shape[1] for run in protocol._leg_outcomes(job, range(4))]
        assert widths == [4, 4, 4, 3]

    @staticmethod
    def assert_group_equals_legs_alone(monkeypatch, job):
        stacked = []
        client_round = ndag.client_round

        def recording(student, *args, **kwargs):
            stacked.append(len(student))
            return client_round(student, *args, **kwargs)

        monkeypatch.setattr(ndag, "client_round", recording)
        legs = range(len(job.benchmark))
        runs = protocol._leg_outcomes(job, legs)
        clients = len(job.benchmark) - 1
        assert stacked == [len(legs) * clients] * job.config.rounds
        for idx, run in zip(legs, runs):
            server, rounds, trace = leg_alone(job, idx)
            assert run.target_domain == job.benchmark[idx].domain
            assert run.final_task.values.tobytes() == server.global_task.values.tobytes()
            assert run.rounds == rounds
            assert trace
            helpers.assert_same_traces(run.trace, trace)

    def test_degenerate_rows_count_each_legs_own_clients(self):
        # An all-zero input of domain 0 meets the initial teachers' zero
        # biases (warmup 0, decay 1), so in every round legs 1 and 2 count a
        # degenerate feature row in one generator and one student step;
        # leg 0 trains without domain 0 and counts none.
        bench = [replace(BENCH[0], train_x=BENCH[0].train_x.copy()), *BENCH[1:]]
        bench[0].train_x[0] = 0.0
        config = fed(mode="feddag", rounds=2, warmup=0, n_clients=2, ndag_kw=dict(ema_decay=1.0))
        job = protocol.Job(bench, config, TASK_ARCH, GEN_ARCH)
        runs = protocol._leg_outcomes(job, range(3))
        counts = [[rm.degenerate_rows for rm in run.rounds] for run in runs]
        assert counts == [[0, 0], [2, 2], [2, 2]]
        for idx, run in enumerate(runs):
            assert run.rounds == leg_alone(job, idx)[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestGroupFailures:
    """A failing leg raises the error it raises alone, whatever shares its group."""

    # Domain 0's huge inputs overflow the first plain step of legs 1 and 2,
    # where it is client 0; in a group of all three legs, leg 1's client 0
    # sits at position 2.
    OVERFLOWING = replace(BENCH[0], train_x=BENCH[0].train_x * 1e300)

    @staticmethod
    def one_group(monkeypatch):
        monkeypatch.setattr(protocol, "leg_groups", lambda rows, workers: [list(range(len(rows)))])

    @staticmethod
    def error_alone(job, idx):
        with pytest.raises(ndag.DivergenceError) as info:
            leg_alone(job, idx)
        return info.value

    def assert_raises_as_alone(self, monkeypatch, job, idx):
        expected = self.error_alone(job, idx)
        outcomes = protocol._leg_outcomes(job, range(3))
        assert len(outcomes) == idx + 1
        for i, run in enumerate(outcomes[:idx]):
            assert run.rounds == leg_alone(job, i)[1]
        assert type(outcomes[idx]) is type(expected) and str(outcomes[idx]) == str(expected)
        self.one_group(monkeypatch)
        with pytest.raises(type(expected)) as info:
            protocol.run_lodo_jobs([job])
        assert str(info.value) == str(expected)
        assert info.value.client == expected.client
        assert_no_child_left()
        return expected

    def test_beside_a_leg_that_succeeds(self, monkeypatch):
        bench = [self.OVERFLOWING, *BENCH[1:]]
        job = protocol.Job(bench, fed(mode="fedavg", rounds=2, warmup=1), TASK_ARCH, GEN_ARCH)
        with pytest.raises(ndag.DivergenceError, match="^client 2: "):
            protocol._run_group(protocol._legs(job, range(3)), *job[1:4])
        expected = self.assert_raises_as_alone(monkeypatch, job, 1)
        assert str(expected).startswith("client 0: ")

    def test_beside_an_earlier_leg_that_fails_later(self, monkeypatch):
        # Domain 2's validation set is NaN, so leg 0 trains its first round
        # and fails when SHA first scores, in round 1; leg 1 fails in round 0.
        broken_val = replace(BENCH[2], val_x=np.full_like(BENCH[2].val_x, np.nan))
        bench = [self.OVERFLOWING, BENCH[1], broken_val]
        job = protocol.Job(bench, fed(mode="no_ndag", rounds=3, warmup=1), TASK_ARCH, GEN_ARCH)
        with pytest.raises(ndag.DivergenceError, match="^client 2: "):
            protocol._run_group(protocol._legs(job, range(3)), *job[1:4])
        expected = self.assert_raises_as_alone(monkeypatch, job, 0)
        assert isinstance(expected, sha.ScoringDivergence)


class Handoff(NamedTuple):
    legs: tuple[int, ...]
    state: bytes


def release_after(round_idx: int, handoffs: list):
    """A release check that takes the offered legs after round round_idx, as a worker would."""

    def release(back):
        if back[0].server.round != round_idx + 1:
            return False
        handoffs.append(Handoff(tuple(leg.idx for leg in back), protocol._leg_state(back)))
        return True

    return release


class TestHandoffs:
    """Legs released after a round train on elsewhere as they train alone."""

    @pytest.mark.parametrize("mode", ["feddag", "fedavg"])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_released_legs_train_on_as_alone(self, mode, r):
        # 4 legs release legs 2 and 3 after round r; those resume as a group
        # that releases leg 3 after round r + 1 unless that is the last.
        job = lodo_job(BENCH4, mode)
        assert job.config.rounds == 4 and job.config.warmup_rounds == 1
        first, second = [], []
        runs = protocol._leg_outcomes(job, range(4), None, release_after(r, first))
        [handoff] = first
        assert handoff.legs == (2, 3) and len(runs) == 2
        runs += protocol._leg_outcomes(job, handoff.legs, handoff.state, release_after(r + 1, second))
        assert len(second) == (r + 2 < job.config.rounds)
        for handoff in second:
            assert handoff.legs == (3,)
            runs += protocol._leg_outcomes(job, handoff.legs, handoff.state)
        assert len(runs) == 4
        for idx, run in enumerate(runs):
            alone = run_alone(job, idx)
            assert len(alone.trace) == job.config.rounds
            helpers.assert_same_traces(run.trace, alone.trace)
            # Arrays unpickled from a handoff pickle their dtype again, not as a memo reference.
            assert pickle.dumps(replace(run, trace=[])) == pickle.dumps(replace(alone, trace=[]))

    @pytest.mark.parametrize("r", [0, 1])
    def test_resumed_round_counts_the_records(self, r):
        job = lodo_job(BENCH4, "feddag")
        handoffs = []
        protocol._leg_outcomes(job, range(4), None, release_after(r, handoffs))
        [handoff] = handoffs
        legs = protocol._legs(job, handoff.legs, handoff.state)
        assert [leg.idx for leg in legs] == [2, 3]
        for leg in legs:
            assert leg.server.round == len(leg.server.log) == len(leg.server.trace) == r + 1
        protocol._run_group(legs, *job[1:4])
        for leg in legs:
            assert leg.server.round == len(leg.server.log) == job.config.rounds
            assert [rm.round for rm in leg.server.log] == list(range(job.config.rounds))

    def test_handoff_state_holds_no_dataset(self):
        class Unpicklable(data.DomainDataset):
            def __reduce__(self):
                raise TypeError("a leg input was pickled")

        bench = [Unpicklable(d.domain, d.train_x, d.train_y, d.val_x, d.val_y) for d in BENCH]
        job = protocol.Job(bench, fed(mode="feddag", rounds=3, warmup=1), TASK_ARCH, GEN_ARCH)
        handoffs = []
        protocol._leg_outcomes(job, range(3), None, release_after(1, handoffs))
        [(idx, server)] = pickle.loads(handoffs[0].state)
        assert idx == 2 and server.round == 2 and len(server.log) == 2 and server.trace is None
        assert server.histories and all(server.histories)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failing_resumed_legs_raise_as_alone(self):
        # Domain 0's validation set is NaN, so every leg that trains on it
        # fails when SHA first scores, in round 1; leg 0 does not.
        broken = replace(BENCH4[0], val_x=np.full_like(BENCH4[0].val_x, np.nan))
        bench = [broken, *BENCH4[1:]]
        job = protocol.Job(bench, fed(mode="no_ndag", rounds=3, warmup=1, n_clients=3),
                           TASK_ARCH, GEN_ARCH)
        handoffs = []
        kept = protocol._leg_outcomes(job, range(4), None, release_after(0, handoffs))
        [handoff] = handoffs
        resumed = protocol._leg_outcomes(job, handoff.legs, handoff.state)
        assert handoff.legs == (2, 3)
        assert len(kept) == 2 and len(resumed) == 1
        assert kept[0].rounds == leg_alone(job, 0)[1]
        for idx, outcome in ((1, kept[1]), (2, resumed[0])):
            expected = TestGroupFailures.error_alone(job, idx)
            assert type(outcome) is type(expected) is sha.ScoringDivergence
            assert str(outcome) == str(expected) and outcome.client == expected.client


def send_task(task_w: int, job: int, legs, state: bytes = b"") -> None:
    """Ask a leg worker to train legs of jobs[job], from scratch unless state holds them."""
    protocol._send(task_w, protocol._Handoff(job, tuple(legs)))
    protocol._send_frame(task_w, state)


def receive_within(fd: int, seconds: float = 20.0):
    """The next message on result pipe fd; fails the test if none comes within seconds."""
    assert select.select([fd], [], [], seconds)[0], "no message from the leg worker"
    return protocol._receive(fd)


@pytest.fixture
def worker():
    """Starts one leg worker on the jobs given; yields (task pipe, result pipe) past its pid."""
    pids, task_pipes = [], {}

    def start(jobs):
        protocol._fork_leg_worker(jobs, pids, task_pipes)
        [(result_r, task_w)] = task_pipes.items()
        assert receive_within(result_r) == pids[0]
        return task_w, result_r

    yield start
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    for result_r, task_w in task_pipes.items():
        os.close(result_r)
        os.close(task_w)


def test_a_task_with_an_empty_state_frame_trains_from_scratch(worker):
    job = lodo_job(BENCH)
    task_w, result_r = worker([job])
    send_task(task_w, 0, [1, 2])
    for idx in (1, 2):
        run = receive_within(result_r)
        assert pickle.dumps(run) == pickle.dumps(run_alone(job, idx))


class TestReleaseIgnored:
    """A worker that cannot act on a release request keeps its legs and serves on."""

    @staticmethod
    def outcomes(task_w, result_r, legs):
        send_task(task_w, 0, legs)
        return [receive_within(result_r) for _ in legs]

    def assert_runs_as_alone(self, job, runs, legs):
        assert [type(run) for run in runs] == [protocol.DomainRun] * len(legs)
        for idx, run in zip(legs, runs):
            assert run.rounds == leg_alone(job, idx)[1]

    def test_after_its_group_has_ended(self, worker):
        job = lodo_job(BENCH)
        task_w, result_r = worker([job])
        self.assert_runs_as_alone(job, self.outcomes(task_w, result_r, [0]), [0])
        protocol._send(task_w, protocol._RELEASE)
        # The next group polls after each round and finds no request.
        self.assert_runs_as_alone(job, self.outcomes(task_w, result_r, [1, 2]), [1, 2])

    def test_in_its_last_round(self, worker):
        job = protocol.Job(BENCH, fed(mode="feddag", rounds=1, warmup=0), TASK_ARCH, GEN_ARCH)
        task_w, result_r = worker([job])
        send_task(task_w, 0, range(3))
        protocol._send(task_w, protocol._RELEASE)
        self.assert_runs_as_alone(job, [receive_within(result_r) for _ in range(3)], [0, 1, 2])
        self.assert_runs_as_alone(job, self.outcomes(task_w, result_r, [0, 1]), [0, 1])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_while_it_retries_single_legs(self, worker):
        # The group fails in its first round, before any poll, so the request
        # waits while the worker trains leg 0 alone and then fails leg 1.
        bench = [TestGroupFailures.OVERFLOWING, *BENCH[1:]]
        job = protocol.Job(bench, fed(mode="fedavg", rounds=2, warmup=1), TASK_ARCH, GEN_ARCH)
        task_w, result_r = worker([job])
        send_task(task_w, 0, range(3))
        protocol._send(task_w, protocol._RELEASE)
        leg0, leg1 = receive_within(result_r), receive_within(result_r)
        self.assert_runs_as_alone(job, [leg0], [0])
        assert isinstance(leg1, ndag.DivergenceError)
        [leg2] = self.outcomes(task_w, result_r, [2])
        assert isinstance(leg2, ndag.DivergenceError)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two leg workers")
class TestStealing:
    """run_lodo_jobs with a leg handed off mid-run, on groups {0, 1} and {2}.

    Every round of the pair first sleeps 0.2 s, so leg 2's worker finishes
    long before it and takes over leg 1 after one of the pair's rounds.
    """

    @pytest.fixture(autouse=True)
    def slow_pair(self, monkeypatch):
        group_round = protocol._group_round

        def slow_pairs(legs, *args):
            if len(legs) > 1:
                time.sleep(0.2)
            return group_round(legs, *args)

        monkeypatch.setattr(protocol, "leg_groups", lambda rows, workers: [[0, 1], [2]])
        monkeypatch.setattr(protocol, "_group_round", slow_pairs)

    @pytest.mark.parametrize("killed", ["victim on the request", "victim before the legs' state",
                                        "victim after the legs' state", "thief on the handoff"])
    def test_a_worker_killed_mid_handoff_raises_at_once(self, monkeypatch, killed):
        caller, handed = os.getpid(), []
        receive, send, send_frame, leg_state, leg_outcomes = (
            protocol._receive, protocol._send, protocol._send_frame, protocol._leg_state,
            protocol._leg_outcomes,
        )

        def die_if(case):
            if killed == case and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)

        def receiving(fd):
            message = receive(fd)
            if message == protocol._RELEASE:
                die_if("victim on the request")
            return message

        def sending(fd, message):
            send(fd, message)
            if isinstance(message, protocol._Handoff):
                die_if("victim before the legs' state")

        def state_of(legs):
            handed.append(True)
            return leg_state(legs)

        def sending_frame(fd, body):
            send_frame(fd, body)
            if handed:
                die_if("victim after the legs' state")

        def resuming(job, legs, state=None, release=None):
            if state:
                die_if("thief on the handoff")
            return leg_outcomes(job, legs, state, release)

        monkeypatch.setattr(protocol, "_receive", receiving)
        monkeypatch.setattr(protocol, "_send", sending)
        monkeypatch.setattr(protocol, "_send_frame", sending_frame)
        monkeypatch.setattr(protocol, "_leg_state", state_of)
        monkeypatch.setattr(protocol, "_leg_outcomes", resuming)
        config = fed(mode="fedavg", rounds=100, warmup=1)
        start = time.monotonic()
        with pytest.raises(protocol.LegWorkerDied):
            protocol.run_lodo(BENCH, config, TASK_ARCH, GEN_ARCH)
        assert time.monotonic() - start < 10.0  # the pair alone would take 20 s
        assert_no_child_left()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_leg_diverging_after_its_handoff_raises_as_alone(self, monkeypatch):
        # Domain 0's validation set is NaN, so legs 1 and 2 fail when SHA
        # first scores, in round 5: leg 2 at once, and leg 1 on leg 2's
        # worker, which took it over after one of the pair's first rounds.
        caller, handoffs, receive = os.getpid(), [], protocol._receive

        def counting(fd):
            message = receive(fd)
            if os.getpid() == caller and isinstance(message, protocol._Handoff):
                handoffs.append(message.legs)
            return message

        monkeypatch.setattr(protocol, "_receive", counting)
        broken = replace(BENCH[0], val_x=np.full_like(BENCH[0].val_x, np.nan))
        job = protocol.Job([broken, *BENCH[1:]], fed(mode="no_ndag", rounds=10, warmup=5),
                           TASK_ARCH, GEN_ARCH)
        expected = TestGroupFailures.error_alone(job, 1)
        with pytest.raises(sha.ScoringDivergence) as info:
            protocol.run_lodo_jobs([job])
        assert str(info.value) == str(expected) and info.value.client == expected.client
        assert handoffs == [(1,)]
        assert_no_child_left()
