"""Four-stage federation orchestration and the leave-one-domain-out harness.

Each round: send the global models out, run every client's local round,
score the uploads on peer validation sets, aggregate.  Warmup rounds train
plain classifiers and average them uniformly; the adversarial generator and
the sharpness-aware scoring only switch on afterwards, each independently
removable for ablations.

A client is its source domain's position in the federation.  Every local
round starts from the global models with fresh momentum, so the only
per-client state that persists across rounds is kept by the server: the
NDAG teacher rows and the SHA snapshot histories.

The leave-one-domain-out legs share no state, so run_lodo_jobs runs every
leg of every job it is given on forked worker processes, one per CPU this
process may use, with no setting to change that; run_lodo is its one-job
case.  The workers inherit the job list with their memory, are sent only
(job, leg) index pairs over a pipe of their own, and pickle each leg's
result back to the caller over another.  Warnings raised while training,
numpy's among them, therefore come from the workers.  A worker's allocator
keeps the memory its arrays free (see _start_leg_worker), so the arrays of
one step reuse the pages of the last one across steps, rounds, legs and
jobs.
"""

from __future__ import annotations

import gc
import os
import pickle
import select
import signal
import struct
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import metrics, ndag, nets, sha
from .data import DomainDataset
from .params import ParamVector, param_mean

MODES = ("feddag", "no_ndag", "no_sha", "fedavg")

# Stable rng stream tags: every stochastic choice hangs off (seed, tag, ...).
_INIT_TASK_TAG = 21
_INIT_GEN_TAG = 22
_BATCH_TAG = 23
_EVAL_PICK_TAG = 24

# prctl option: the signal the kernel sends a process when its parent ends.
_PR_SET_PDEATHSIG = 1
# glibc mallopt options and the values a leg worker sets.  By default glibc
# maps every block of 128 KiB or more on its own and unmaps it on free, and
# returns a free heap top over 128 KiB to the kernel, so each step would
# fault its (C, P) blocks and (C, B, width) activations in anew.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 64 << 20
# A leg worker's pipes: each task is a (job, leg) index pair, and each
# outcome a pickle behind its byte length.
_TASK = struct.Struct("<II")
_LENGTH = struct.Struct("<Q")


@dataclass(frozen=True)
class FederationConfig:
    n_clients: int
    rounds: int
    warmup_rounds: int
    ndag: ndag.NdagHyper = ndag.NdagHyper()
    sha: sha.ShaHyper = sha.ShaHyper()
    mode: str = "feddag"
    eval_clients_per_round: int = 0
    local_epochs: int = 1
    seed: int = 0
    probe_every_round: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {self.n_clients}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if not 0 <= self.warmup_rounds < self.rounds:
            raise ValueError(
                f"warmup_rounds must be in [0, rounds = {self.rounds}), got {self.warmup_rounds}"
            )
        if not 0 <= self.eval_clients_per_round <= self.n_clients:
            raise ValueError(
                f"eval_clients_per_round must be in [0, n_clients = {self.n_clients}], "
                f"got {self.eval_clients_per_round}"
            )
        if self.local_epochs < 1:
            raise ValueError(f"local_epochs must be >= 1, got {self.local_epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.sha.include_self and self.n_clients < 2:
            raise ValueError("include_self=false needs at least 2 clients")
        if not self.sha.include_self and self.eval_clients_per_round == 1:
            raise ValueError("include_self=false with a single evaluator can leave no val set")

    @property
    def ndag_active(self) -> bool:
        return self.mode in ("feddag", "no_sha")

    @property
    def sha_active(self) -> bool:
        return self.mode in ("feddag", "no_ndag")


@dataclass
class ServerState:
    """Global models plus the per-client state that outlives a round.

    teachers holds one NDAG teacher row per client (C, P).  It is None
    until the first adversarial round copies the global task model into it;
    after that only the clients' EMA updates change it.
    """

    global_task: ParamVector
    global_gen: ParamVector
    round: int
    histories: list[list[sha.ScoredSnapshot]]
    teachers: np.ndarray | None = None


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    warmup: bool
    train_losses: tuple[float, ...]
    source_val_loss: float
    raw_scores: tuple[float, ...] | None
    scores: tuple[float, ...] | None
    weights: tuple[float, ...]
    target: metrics.EvalResult | None
    degenerate_rows: int


# One per-batch trace entry: (the client's domain id, round, its batch's losses).
TraceEntry = tuple[int, int, ndag.BatchTrace]


def init(config: FederationConfig, task_arch: nets.TaskArch, gen_arch: nets.GenArch) -> ServerState:
    """Seeded global model initialization with empty per-client histories."""
    return ServerState(
        global_task=nets.init_params(
            task_arch, np.random.default_rng([config.seed, _INIT_TASK_TAG])
        ),
        global_gen=nets.init_params(gen_arch, np.random.default_rng([config.seed, _INIT_GEN_TAG])),
        round=0,
        histories=[[] for _ in range(config.n_clients)],
    )


def _client_val_sets(
    sources: list[DomainDataset], config: FederationConfig, round_idx: int
) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[list[int]]]:
    """This round's validation sets and, per set, the clients scored on it.

    FederationConfig rejects the settings that could leave a client none.
    """
    n = len(sources)
    chosen = list(range(n))
    if 0 < config.eval_clients_per_round < n:
        rng = np.random.default_rng([config.seed, _EVAL_PICK_TAG, round_idx])
        chosen = sorted(rng.choice(n, size=config.eval_clients_per_round, replace=False))
    sets = [(sources[j].val_x, sources[j].val_y) for j in chosen]
    scored_on = [[i for i in range(n) if config.sha.include_self or i != j] for j in chosen]
    return sets, scored_on


def run_round(
    server: ServerState,
    sources: list[DomainDataset],
    config: FederationConfig,
    task_arch: nets.TaskArch,
    gen_arch: nets.GenArch,
    trace: list[TraceEntry] | None = None,
) -> RoundMetrics:
    """One communication round over the clients' source domains; mutates server.

    Every client's student starts from the global task model and, in
    adversarial rounds, its generator from the global generator.  The
    clients' local rounds run in lockstep (ndag.client_round): every client
    finishes local step k before any client starts step k + 1.  If training
    diverges, the ndag.DivergenceError names the lowest-index client among
    those that fail at the earliest failing local step; if scoring does,
    sha.ScoringDivergence names the lowest-index client it failed on.
    """
    round_idx = server.round
    warmup = round_idx < config.warmup_rounds
    ndag_on = config.ndag_active and not warmup
    n = len(sources)

    generators = None
    if ndag_on:
        generators = np.tile(server.global_gen.values, (n, 1))
        if server.teachers is None:
            server.teachers = np.tile(server.global_task.values, (n, 1))
    rngs = [np.random.default_rng([config.seed, _BATCH_TAG, round_idx, c]) for c in range(n)]
    result = ndag.client_round(
        np.tile(server.global_task.values, (n, 1)),
        generators,
        server.teachers,
        task_arch,
        gen_arch,
        [d.train_x for d in sources],
        [d.train_y for d in sources],
        config.ndag,
        rngs,
        config.local_epochs,
    )
    if trace is not None:
        for domain, rows in zip(sources, result.traces):
            trace.extend((domain.domain, round_idx, row) for row in rows)

    raw_scores = scores = None
    if warmup or not config.sha_active:
        weights = sha.AggregationWeights(np.full(n, 1.0 / n))
        server.global_task = param_mean(result.uploads)
        if ndag_on:
            server.global_gen = param_mean(result.generator)
    else:
        val_sets, scored_on = _client_val_sets(sources, config, round_idx)
        theta_hat, _ = sha.probe_rows(result.uploads, result.last_grads, config.sha.rho)
        raw = sha.evaluate_score(theta_hat, task_arch, val_sets, scored_on)
        merged_rows, post_list = [], []
        for c, row in enumerate(result.uploads):
            current = sha.ScoredSnapshot(score=raw[c].score, round=round_idx, row=row.copy())
            merged, server.histories[c] = sha.within_client_aggregate(
                current, server.histories[c], config.sha.k, config.sha.history_cap
            )
            merged_rows.append(merged.row)
            post_list.append(merged.score)
        weights = sha.softmax_weights(post_list, config.sha.beta)
        server.global_task = sha.across_client_aggregate(np.array(merged_rows), weights)
        if ndag_on:
            server.global_gen = sha.across_client_aggregate(result.generator, weights)
        raw_scores = tuple(r.score for r in raw)
        scores = tuple(post_list)

    server.round = round_idx + 1

    val_x = np.concatenate([d.val_x for d in sources])
    val_y = np.concatenate([d.val_y for d in sources])
    _, logits = nets.task_apply(server.global_task, task_arch, val_x)
    source_val_loss, _ = ndag.cross_entropy(logits[None], val_y[None])
    return RoundMetrics(
        round=round_idx,
        warmup=warmup,
        train_losses=tuple(result.mean_train_losses),
        source_val_loss=float(source_val_loss[0]),
        raw_scores=raw_scores,
        scores=scores,
        weights=tuple(weights.values.tolist()),
        target=None,
        degenerate_rows=result.degenerate_rows,
    )


@dataclass
class DomainRun:
    """One LODO leg: federation over all domains except the target."""

    target_domain: int
    rounds: list[RoundMetrics]
    final_task: ParamVector
    trace: list[TraceEntry] = field(default_factory=list)

    @property
    def final(self) -> metrics.EvalResult:
        """The held-out evaluation after the last round."""
        return self.rounds[-1].target


@dataclass
class RunReport:
    domains: list[DomainRun]
    averages: dict[str, float]


def _domain_eval_arrays(domain: DomainDataset) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.concatenate([domain.train_x, domain.val_x]),
        np.concatenate([domain.train_y, domain.val_y]),
    )


def run_federation(
    sources: list[DomainDataset],
    config: FederationConfig,
    task_arch: nets.TaskArch,
    gen_arch: nets.GenArch,
    target: DomainDataset | None = None,
    collect_trace: bool = False,
) -> tuple[ServerState, list[RoundMetrics], list[TraceEntry]]:
    """Train a federation over the source domains for config.rounds."""
    if len(sources) != config.n_clients:
        raise ValueError(f"{len(sources)} source domains for {config.n_clients} clients")
    server = init(config, task_arch, gen_arch)
    trace: list[TraceEntry] = []
    round_log: list[RoundMetrics] = []
    target_xy = _domain_eval_arrays(target) if target is not None else None
    for r in range(config.rounds):
        rm = run_round(
            server, sources, config, task_arch, gen_arch, trace if collect_trace else None
        )
        probe = target_xy is not None and (config.probe_every_round or r == config.rounds - 1)
        if probe:
            rm = replace(rm, target=metrics.evaluate(server.global_task, task_arch, *target_xy))
        round_log.append(rm)
    return server, round_log, trace


class Job(NamedTuple):
    """One leave-one-domain-out run: the inputs of run_lodo."""

    benchmark: list[DomainDataset]
    config: FederationConfig
    task_arch: nets.TaskArch
    gen_arch: nets.GenArch
    collect_trace: bool = False


class LegWorkerDied(RuntimeError):
    """A leg worker process ended without returning its leg, e.g. killed by a signal."""


def _start_leg_worker(parent: int) -> None:
    """Set up a just-forked leg worker: keep freed arrays in its heap, die with the parent.

    It raises glibc's mmap threshold to 32 MiB and its trim threshold to
    64 MiB (mallopt), so the arrays a step frees stay in its heap and the
    next step's arrays reuse their pages instead of faulting in fresh ones;
    where libc has no mallopt it keeps the allocator's defaults.  The
    worker then asks the kernel to SIGKILL it when its parent ends (prctl
    PR_SET_PDEATHSIG), so a parent killed by a signal no handler can catch
    leaves no worker training on, and exits at once if the parent already
    ended before that request.  Where libc has no prctl (outside Linux) it
    does neither, and such workers run on until their current leg ends.
    """
    import ctypes

    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return
    if hasattr(libc, "mallopt"):
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
        libc.mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    if not hasattr(libc, "prctl"):
        return
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def _run_leg(jobs: list[Job], j: int, idx: int) -> DomainRun:
    """Leg idx of job j: benchmark[idx] is held out."""
    benchmark, config, task_arch, gen_arch, collect_trace = jobs[j]
    target = benchmark[idx]
    sources = [d for i, d in enumerate(benchmark) if i != idx]
    leg_config = replace(config, n_clients=len(sources))
    server, rounds, trace = run_federation(
        sources, leg_config, task_arch, gen_arch, target, collect_trace
    )
    return DomainRun(
        target_domain=target.domain, rounds=rounds, final_task=server.global_task, trace=trace
    )


def _read_exactly(fd: int, n: int) -> bytearray | None:
    """The next n bytes of pipe fd, or None if it ends before them."""
    buf = bytearray()
    while len(buf) < n:
        chunk = os.read(fd, n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _serve_legs(jobs: list[Job], tasks: int, results: int) -> None:
    """A leg worker's loop: run each (job, leg) read from pipe tasks, write its outcome to results.

    The outcome is the leg's DomainRun, or the exception the leg raised,
    pickled behind its length.  Returns when the task pipe ends.
    """
    while (task := _read_exactly(tasks, _TASK.size)) is not None:
        try:
            outcome = _run_leg(jobs, *_TASK.unpack(task))
        except Exception as exc:
            outcome = exc
        body = pickle.dumps(outcome)
        _write_all(results, _LENGTH.pack(len(body)))
        _write_all(results, body)


def _fork_leg_worker(jobs: list[Job], inherited: list[int]) -> tuple[int, int, int]:
    """Fork a leg worker that serves legs of jobs until its task pipe ends.

    Returns its pid, the write end of its task pipe and the read end of its
    result pipe.  inherited lists this process's ends of the earlier
    workers' pipes, which the new worker closes, so only this process holds
    them.
    """
    task_r, task_w = os.pipe()
    result_r, result_w = os.pipe()
    parent = os.getpid()
    try:
        pid = os.fork()
    except OSError:
        for fd in (task_r, task_w, result_r, result_w):
            os.close(fd)
        raise
    if pid == 0:
        code = 1
        try:
            for fd in (task_w, result_r, *inherited):
                os.close(fd)
            _start_leg_worker(parent)
            _serve_legs(jobs, task_r, result_w)
            code = 0
        finally:
            # Never return into the caller's stack, nor run its exit handlers.
            os._exit(code)
    os.close(task_r)
    os.close(result_w)
    return pid, task_w, result_r


def _receive(fd: int):
    """The next outcome on result pipe fd; LegWorkerDied if the pipe ends first."""
    length = _read_exactly(fd, _LENGTH.size)
    body = None if length is None else _read_exactly(fd, _LENGTH.unpack(length)[0])
    if body is None:
        raise LegWorkerDied("a leg worker process ended before returning its leg")
    return pickle.loads(body)


def run_lodo(
    benchmark: list[DomainDataset],
    config: FederationConfig,
    task_arch: nets.TaskArch,
    gen_arch: nets.GenArch,
    collect_trace: bool = False,
) -> RunReport:
    """Leave-one-domain-out on one benchmark: run_lodo_jobs with this one job."""
    return run_lodo_jobs([Job(benchmark, config, task_arch, gen_arch, collect_trace)])[0]


def run_lodo_jobs(jobs: list[Job]) -> list[RunReport]:
    """Leave-one-domain-out for each job: hold out each domain, train on the rest.

    The held-out domain never contributes training, validation or scoring
    data; its full sample set (train + val splits) is the test set.

    Every leg of every job runs in a forked worker process, one worker per
    CPU this process may use (at most one per leg), with no setting for it.
    Forked workers import nothing, call this process's functions as they
    are and read the jobs from their copy of this process's memory.  Each
    worker has a task pipe and a result pipe of its own, so no lock is
    shared between workers: this process writes a (job, leg) index pair to
    a worker whenever it is free and reads back the leg's DomainRun, or the
    exception it raised, pickled behind its length.  Just before the first
    fork the heap is collected and frozen (gc.freeze): the workers'
    collections then leave the objects they share with this process, and
    the pages those live on, untouched, and this process's collections, the
    last one at exit included, skip them.  A fork copies only the calling thread, so call this from a
    process with no other threads that hold locks.

    The legs are read back in (job, leg) order, so the first failing leg in
    that order raises its error as soon as every earlier leg has returned.
    A worker that dies before it is stopped, training or idle (killed from
    outside, say by the OOM killer), ends its result pipe, and
    LegWorkerDied is raised at once.  However this returns or raises,
    every worker is killed and reaped first; a worker also ends when this
    process does, even when it is killed (see _start_leg_worker).
    """
    if any(len(job.benchmark) < 2 for job in jobs):
        raise ValueError("leave-one-domain-out needs at least 2 domains")

    tasks = [(j, idx) for j, job in enumerate(jobs) for idx in range(len(job.benchmark))]
    outcomes: dict[int, DomainRun | Exception] = {}
    pids: list[int] = []
    task_pipes: dict[int, int] = {}  # a worker's result pipe -> its task pipe
    busy: dict[int, int] = {}  # a training worker's result pipe -> its task
    gc.collect()
    gc.freeze()
    try:
        for _ in range(min(len(os.sched_getaffinity(0)), len(tasks))):
            pid, task_w, result_r = _fork_leg_worker(jobs, [*task_pipes, *task_pipes.values()])
            pids.append(pid)
            task_pipes[result_r] = task_w
        poller = select.poll()
        for result_r in task_pipes:
            poller.register(result_r, select.POLLIN)
        sent = returned = 0
        while returned < len(tasks):
            for result_r, task_w in task_pipes.items():
                if result_r not in busy and sent < len(tasks):
                    try:
                        _write_all(task_w, _TASK.pack(*tasks[sent]))
                    except BrokenPipeError:
                        raise LegWorkerDied("a leg worker process ended before its leg") from None
                    busy[result_r] = sent
                    sent += 1
            for result_r, _ in poller.poll():
                outcome = _receive(result_r)
                outcomes[busy.pop(result_r)] = outcome
            while returned in outcomes:
                if isinstance(outcomes[returned], Exception):
                    raise outcomes[returned]
                returned += 1
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
        for result_r, task_w in task_pipes.items():
            os.close(result_r)
            os.close(task_w)

    legs = (outcomes[i] for i in range(len(tasks)))
    reports = []
    for job in jobs:
        runs = [next(legs) for _ in job.benchmark]
        avg = {
            "acc": float(np.mean([r.final.acc for r in runs])),
            "f1": float(np.mean([r.final.f1 for r in runs])),
        }
        aucs = [r.final.auc for r in runs if r.final.auc is not None]
        avg["auc"] = float(np.mean(aucs)) if aucs else None
        reports.append(RunReport(domains=runs, averages=avg))
    return reports
