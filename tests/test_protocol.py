"""Round orchestration, mode ablations, and the leave-one-domain-out loop."""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import pickle
import resource
import time
from dataclasses import replace

import numpy as np
import pytest

import helpers
from feddag import data, ndag, nets, protocol
from feddag.ndag import NdagHyper
from feddag.protocol import FederationConfig
from feddag.sha import ShaHyper

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


def _allocation_faults(_) -> list[int]:
    """Minor page faults of four rounds that allocate, fill and free 8 x 1 MiB arrays."""
    faults = []
    for _ in range(4):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        arrays = [np.ones(1 << 17) for _ in range(8)]
        del arrays
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return faults


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
        server, _, _ = protocol.run_federation(sources, config, TASK_ARCH, GEN_ARCH)
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
        server, _, _ = protocol.run_federation(sources, config, TASK_ARCH, GEN_ARCH)
        ref = helpers.reference_fedavg(
            [(d.train_x, d.train_y) for d in sources], TASK_ARCH, seed=5, rounds=3
        )
        assert np.max(np.abs(server.global_task.values - ref)) <= 1e-12

    def test_source_count_mismatch(self):
        with pytest.raises(ValueError, match="source domains for"):
            protocol.run_federation(BENCH, fed(n_clients=2), TASK_ARCH, GEN_ARCH)


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
            protocol.run_round(server, sources, config, TASK_ARCH, GEN_ARCH)
        assert server.teachers.shape == (2, TASK_ARCH.param_count())
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
            protocol.run_round(server, sources, config, TASK_ARCH, GEN_ARCH)
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
            protocol.run_round(server, sources, config, TASK_ARCH, GEN_ARCH)
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
            protocol.run_round(server_fd, sources, config_fd, TASK_ARCH, GEN_ARCH)
            protocol.run_round(server_fa, sources, config_fa, TASK_ARCH, GEN_ARCH)
        assert np.array_equal(server_fd.global_task.values, server_fa.global_task.values)

    def test_generator_untouched_during_warmup(self):
        sources = BENCH[:2]
        config = fed(mode="no_sha", rounds=3, warmup=2, seed=11)
        server = protocol.init(config, TASK_ARCH, GEN_ARCH)
        gen0 = server.global_gen.values.copy()
        protocol.run_round(server, sources, config, TASK_ARCH, GEN_ARCH)
        protocol.run_round(server, sources, config, TASK_ARCH, GEN_ARCH)
        assert np.array_equal(server.global_gen.values, gen0)
        assert server.teachers is None
        protocol.run_round(server, sources, config, TASK_ARCH, GEN_ARCH)
        assert not np.array_equal(server.global_gen.values, gen0)

    def test_no_ndag_mode_never_builds_adversarial_state(self):
        sources = BENCH[:2]
        config = fed(mode="no_ndag", rounds=3, warmup=1, seed=2)
        server = protocol.init(config, TASK_ARCH, GEN_ARCH)
        gen0 = server.global_gen.values.copy()
        for _ in range(config.rounds):
            protocol.run_round(server, sources, config, TASK_ARCH, GEN_ARCH)
        assert np.array_equal(server.global_gen.values, gen0)
        assert server.teachers is None

    def test_warmup_zero_starts_adversarial_immediately(self):
        sources = BENCH[:2]
        config = fed(mode="feddag", rounds=2, warmup=0, seed=0)
        server = protocol.init(config, TASK_ARCH, GEN_ARCH)
        rm = protocol.run_round(server, sources, config, TASK_ARCH, GEN_ARCH)
        assert rm.warmup is False
        assert rm.raw_scores is not None
        assert server.teachers is not None and len(server.teachers) == 2


class TestRoundMetrics:
    def test_warmup_then_scored_rounds(self):
        sources = BENCH[:2]
        config = fed(mode="feddag", rounds=3, warmup=2, seed=1)
        server = protocol.init(config, TASK_ARCH, GEN_ARCH)
        log = [
            protocol.run_round(server, sources, config, TASK_ARCH, GEN_ARCH)
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
            protocol.run_round(server, sources, config, TASK_ARCH, GEN_ARCH)
            for _ in range(config.rounds)
        ]
        assert all(rm.raw_scores is None for rm in log)
        assert all(rm.weights == (0.5, 0.5) for rm in log)


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
        server, log, _ = protocol.run_federation(BENCH[:1], config, TASK_ARCH, GEN_ARCH)
        assert server.round == 3
        assert log[-1].weights == (1.0,)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_wraps_client_index(self):
        config = fed(mode="fedavg", rounds=1, warmup=0, ndag_kw=dict(lr=1e200))
        with pytest.raises(ndag.DivergenceError, match="^client 0: ") as excinfo:
            protocol.run_federation(BENCH[:2], config, TASK_ARCH, GEN_ARCH)
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
            protocol.run_federation([BENCH[0], broken], config, TASK_ARCH, GEN_ARCH)
        assert excinfo.value.client == 1

    def test_trace_collection_only_on_request(self):
        config = fed(mode="feddag", rounds=2, warmup=1, seed=3)
        _, _, quiet = protocol.run_federation(BENCH[:2], config, TASK_ARCH, GEN_ARCH)
        _, _, chatty = protocol.run_federation(
            BENCH[:2], config, TASK_ARCH, GEN_ARCH, collect_trace=True
        )
        assert quiet == []
        assert len(chatty) > 0
        adversarial = [round_idx for _, round_idx, t in chatty if t.l_dis is not None]
        assert adversarial and all(round_idx >= 1 for round_idx in adversarial)

    def test_probe_cadence(self):
        config = fed(mode="fedavg", rounds=3, warmup=1, seed=3)
        _, log, _ = protocol.run_federation(
            BENCH[:2], config, TASK_ARCH, GEN_ARCH, target=BENCH[2]
        )
        assert [rm.target is None for rm in log] == [True, True, False]
        config = fed(mode="fedavg", rounds=3, warmup=1, seed=3, probe_every_round=True)
        _, log, _ = protocol.run_federation(
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
        assert multiprocessing.active_children() == []
        for idx, run in enumerate(report.domains):
            sources = [d for i, d in enumerate(BENCH) if i != idx]
            server, rounds, trace = protocol.run_federation(
                sources, config, TASK_ARCH, GEN_ARCH, BENCH[idx], collect_trace=True
            )
            assert run.target_domain == BENCH[idx].domain
            assert run.rounds == rounds
            assert run.final_task.values.tobytes() == server.global_task.values.tobytes()
            assert not run.final_task.values.flags.writeable
            assert trace and run.trace == trace

    def test_leg_inputs_are_not_pickled(self):
        # Forked workers inherit the jobs; only (job, leg) indices and
        # results cross the pipes.
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
        assert multiprocessing.active_children() == []
        for job, report in zip(jobs, reports):
            expected = protocol.run_lodo(*job)
            assert report.averages == expected.averages
            assert len(report.domains) == len(job.benchmark)
            for a, b in zip(report.domains, expected.domains):
                assert a.target_domain == b.target_domain
                assert a.final_task.values.tobytes() == b.final_task.values.tobytes()
                assert a.rounds == b.rounds
                assert a.trace == b.trace
                assert bool(a.trace) == job.collect_trace

    def test_leg_result_survives_pickling(self):
        # Warmup rounds leave the NDAG losses of every trace entry None.
        config = fed(mode="feddag", rounds=2, warmup=1, n_clients=2, seed=6)
        server, rounds, trace = protocol.run_federation(
            BENCH[:2], config, TASK_ARCH, GEN_ARCH, BENCH[2], collect_trace=True
        )
        run = protocol.DomainRun(2, rounds, server.global_task, trace)
        assert any(entry[2].l_dis is None for entry in trace)
        assert any(entry[2].l_dis is not None for entry in trace)
        back = pickle.loads(pickle.dumps(run))
        assert back.target_domain == 2
        assert back.rounds == run.rounds
        assert back.trace == run.trace
        assert [type(entry[2]) for entry in back.trace] == [ndag.BatchTrace] * len(trace)
        assert back.final_task.values.tobytes() == run.final_task.values.tobytes()

    @pytest.mark.skipif(not _libc_has_mallopt(), reason="leg workers tune the heap with mallopt")
    def test_leg_worker_reuses_freed_arrays(self):
        # 8 MiB is 2,048 pages: a heap that unmapped or trimmed the arrays
        # would fault in about that many in every round.
        context = multiprocessing.get_context("fork")
        initargs = (os.getpid(), [], context.Value("i", 0))
        with context.Pool(1, protocol._start_leg_worker, initargs) as pool:
            faults = pool.map(_allocation_faults, [0])[0]
        assert all(f < 256 for f in faults[1:]), faults

    def test_every_started_worker_is_counted(self):
        # More workers than CPUs start at once; a lost increment would let a
        # replacement worker go unseen.
        context = multiprocessing.get_context("fork")
        started = context.Value("i", 0)
        with context.Pool(8, protocol._start_leg_worker, (os.getpid(), [], started)):
            deadline = time.monotonic() + 10.0
            while started.value < 8 and time.monotonic() < deadline:
                time.sleep(0.01)
        assert started.value == 8
        assert multiprocessing.active_children() == []

    def test_first_failing_leg_in_index_order_raises(self, monkeypatch):
        bench = data.make_benchmark(
            data.BenchSpec(n_domains=4, n_classes=3, input_dim=6, samples_per_domain=60, seed=3)
        )
        run_federation = protocol.run_federation

        def failing_legs(sources, config, task_arch, gen_arch, target, collect_trace):
            if config.seed == 0 and target.domain == 1:
                time.sleep(0.2)  # with two or more workers, leg 3 and job 1 then fail first
            if (config.seed, target.domain) in ((0, 1), (0, 3), (1, 0)):
                raise ndag.DivergenceError(f"job {config.seed} leg {target.domain}", 0)
            return run_federation(sources, config, task_arch, gen_arch, target, collect_trace)

        # The workers are forked, so they call the patched function.
        monkeypatch.setattr(protocol, "run_federation", failing_legs)
        jobs = [
            protocol.Job(bench, fed(mode="fedavg", rounds=2, warmup=1, n_clients=3, seed=s),
                         TASK_ARCH, GEN_ARCH)
            for s in (0, 1)
        ]
        with pytest.raises(ndag.DivergenceError, match="^client 0: job 0 leg 1$") as info:
            protocol.run_lodo_jobs(jobs)
        assert info.value.client == 0
        assert multiprocessing.active_children() == []
