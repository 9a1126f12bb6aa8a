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
process may use (at most one per leg group), with no setting to change
that; run_lodo is its one-job case.  A worker trains a leg group,
consecutive legs of one job chosen by leg_groups, as one federation of all
their clients: each round is one lockstep ndag.client_round over the
group's clients, after which each leg scores, aggregates and records its
own (_group_round).  A client's bits do not depend on what shares its
stack, so a leg computes the same bits in any group, a group of one leg
included, and it can move to another group between rounds with its
ServerState, which is all it needs to train on.  Forked workers import
nothing, call this process's functions as they are and read the jobs from
their copy of its memory.  A fork copies only the calling thread, so call
run_lodo_jobs from a process with no other threads that hold locks.  Just
before the first fork the heap is collected and frozen (gc.freeze): the
workers' collections then leave the objects they share with the caller,
and the pages those live on, untouched, and the caller's collections, the
last one at exit included, skip them.

Each worker has a task pipe and a result pipe of its own, so no lock is
shared between workers, and every message on either is a pickle behind its
byte length.  The caller sends on the task pipe:
- a _Handoff and then a frame of its legs' state (_leg_state): train those
  legs as a group from the round they reached, or from scratch if the frame
  is empty;
- _RELEASE: after this round, hand off the back half of the group.
The worker sends on the result pipe:
- its pid, once, first;
- each leg's DomainRun, or the exception it raised, in leg order;
- a _Handoff and then its legs' state: the legs it released.

Which worker owns a leg, by (job, leg): none, until the caller sends the
leg's group to a free worker, as a _Handoff with an empty state frame.
Once no group is left to send, a worker that owns no leg steals: the
caller sends _RELEASE to a worker that owns two or more legs, which hands
off the back half of its group after its current round.  The caller
forwards the _Handoff, and copies the legs' state after it a chunk at a
time without unpickling it, to the free worker, which owns those legs from
then on.  A worker that reads _RELEASE in its last round, while it trains
single legs after a failure, or after its group has ended keeps its legs.
A leg stays owned until its outcome returns.

Warnings raised while training, numpy's among them, come from the workers.
A worker's allocator keeps the memory its arrays free (see
_start_leg_worker), so the arrays of one step reuse the pages of the last
one across steps, rounds, legs and jobs.

A worker takes SIGTERM's default action.  A SIGTERM sent mid-fork, say to
the caller's process group, ends the new worker and reaches the caller's
handler only once the worker is recorded for run_lodo_jobs to kill
(_fork_leg_worker).
"""

from __future__ import annotations

import gc
import os
import pickle
import select
import signal
import struct
from collections.abc import Callable, Sequence
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
# The most rows a local step of a group of two or more legs may train.  A
# taller stack shares numpy's fixed cost per op among more rows: 128-row
# legs cost about 30% less each in groups of three to five, while legs of
# 2,864 rows gain nothing from stacking (2-vCPU VM, one BLAS thread).
MAX_GROUP_ROWS = 1024
# Every message on a leg worker's pipes is a pickle behind its byte length.
_LENGTH = struct.Struct("<Q")
# The message that asks a training worker to release the back half of its group.
_RELEASE = "release"


@dataclass(frozen=True)
class FederationConfig:
    n_clients: int
    rounds: int = 14
    warmup_rounds: int = 3
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
    """A federation's state between rounds: its models, the per-client state, its records.

    teachers holds one NDAG teacher row per client (C, P).  It is None
    until the first adversarial round copies the global task model into it;
    after that only the clients' EMA updates change it.  log holds one
    RoundMetrics per round trained, and trace one ndag.BatchTrace of the
    clients per round; trace is None unless batch traces are kept.
    """

    global_task: ParamVector
    global_gen: ParamVector
    histories: list[list[sha.ScoredSnapshot]]
    teachers: np.ndarray | None = None
    log: list[RoundMetrics] = field(default_factory=list)
    trace: list[ndag.BatchTrace] | None = None

    @property
    def round(self) -> int:
        """The next round to train: the number of rounds trained."""
        return len(self.log)


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


def init(
    config: FederationConfig,
    task_arch: nets.TaskArch,
    gen_arch: nets.GenArch,
    collect_trace: bool = False,
) -> ServerState:
    """Seeded global model initialization with empty per-client histories and records."""
    return ServerState(
        global_task=nets.init_params(
            task_arch, np.random.default_rng([config.seed, _INIT_TASK_TAG])
        ),
        global_gen=nets.init_params(gen_arch, np.random.default_rng([config.seed, _INIT_GEN_TAG])),
        histories=[[] for _ in range(config.n_clients)],
        trace=[] if collect_trace else None,
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


@dataclass
class _Leg:
    """A federation trained in a leg group: its server, clients and target.

    idx is the leg's index in its job, and target the domain it holds out,
    if any.  val_x and val_y join the clients' validation sets once, for
    every round's source_val_loss.
    """

    server: ServerState
    sources: list[DomainDataset]
    target: DomainDataset | None = None
    idx: int = 0
    val_x: np.ndarray = field(init=False)
    val_y: np.ndarray = field(init=False)

    def __post_init__(self):
        self.val_x = np.concatenate([d.val_x for d in self.sources])
        self.val_y = np.concatenate([d.val_y for d in self.sources])


def _group_round(
    legs: list[_Leg], config: FederationConfig, task_arch: nets.TaskArch, gen_arch: nets.GenArch
) -> None:
    """One communication round of each leg, all at the same round; mutates their servers.

    Every leg has the same number of clients.  One ndag.client_round trains
    all of them, each client on its leg's global models with its
    leg-local rng stream, so it computes the bits it computes alone; then
    each leg scores, aggregates and appends its RoundMetrics and trace rows
    to its server.  A leg with a target evaluates the new global model on
    it in the last round, or in every round with probe_every_round.  An
    error is raised with the client's position in the whole stack, and a
    last round that leaves a leg's source_val_loss non-finite raises
    DivergenceError (before it, the next local step catches a diverged
    model).
    """
    round_idx = legs[0].server.round
    last = round_idx == config.rounds - 1
    warmup = round_idx < config.warmup_rounds
    ndag_on = config.ndag_active and not warmup
    n = len(legs[0].sources)
    servers = [leg.server for leg in legs]

    generators = teachers = None
    if ndag_on:
        generators = np.repeat([s.global_gen.values for s in servers], n, axis=0)
        for s in servers:
            if s.teachers is None:
                s.teachers = np.tile(s.global_task.values, (n, 1))
        teachers = np.concatenate([s.teachers for s in servers])
    # Leg-local streams: client c of every leg shuffles as client c of a leg alone.
    rngs = [
        np.random.default_rng([config.seed, _BATCH_TAG, round_idx, c])
        for _ in legs
        for c in range(n)
    ]
    result = ndag.client_round(
        np.repeat([s.global_task.values for s in servers], n, axis=0),
        generators,
        teachers,
        task_arch,
        gen_arch,
        [d.train_x for leg in legs for d in leg.sources],
        [d.train_y for leg in legs for d in leg.sources],
        config.ndag,
        rngs,
        config.local_epochs,
    )

    for i, leg in enumerate(legs):
        server, sources, own = leg.server, leg.sources, slice(i * n, (i + 1) * n)
        uploads = result.uploads[own]
        if ndag_on:
            server.teachers = result.teacher[own]
        if server.trace is not None:
            server.trace.append(result.trace.rows(own))

        raw_scores = scores = None
        if warmup or not config.sha_active:
            weights = sha.AggregationWeights(np.full(n, 1.0 / n))
            server.global_task = param_mean(uploads)
            if ndag_on:
                server.global_gen = param_mean(result.generator[own])
        else:
            val_sets, scored_on = _client_val_sets(sources, config, round_idx)
            theta_hat, _ = sha.probe_rows(uploads, result.last_grads[own], config.sha.rho)
            raw = sha.evaluate_score(theta_hat, task_arch, val_sets, scored_on)
            merged_rows, post_list = [], []
            for c, row in enumerate(uploads):
                current = sha.ScoredSnapshot(score=raw[c].score, row=row.copy())
                merged, server.histories[c] = sha.within_client_aggregate(
                    current, server.histories[c], config.sha.k, config.sha.history_cap
                )
                merged_rows.append(merged.row)
                post_list.append(merged.score)
            weights = sha.softmax_weights(post_list, config.sha.beta)
            server.global_task = sha.across_client_aggregate(np.array(merged_rows), weights)
            if ndag_on:
                server.global_gen = sha.across_client_aggregate(result.generator[own], weights)
            raw_scores = tuple(r.score for r in raw)
            scores = tuple(post_list)

        _, logits = nets.task_apply(server.global_task, task_arch, leg.val_x)
        source_val_loss = float(ndag.cross_entropy_loss(logits[None], leg.val_y[None])[0])
        if last and not np.isfinite(source_val_loss):
            raise ndag.DivergenceError("final global model: non-finite source validation loss")
        target = None
        if (last or config.probe_every_round) and (t := leg.target) is not None:
            x, y = np.concatenate([t.train_x, t.val_x]), np.concatenate([t.train_y, t.val_y])
            target = metrics.evaluate(server.global_task, task_arch, x, y)
        server.log.append(
            RoundMetrics(
                round=round_idx,
                warmup=warmup,
                train_losses=tuple(result.mean_train_losses[own]),
                source_val_loss=source_val_loss,
                raw_scores=raw_scores,
                scores=scores,
                weights=tuple(weights.values.tolist()),
                target=target,
                degenerate_rows=sum(result.client_degenerate_rows[own]),
            )
        )


@dataclass
class DomainRun:
    """One LODO leg: federation over all domains except the target.

    clients are the domain ids of its clients, in client order.  trace
    holds one ndag.BatchTrace of them per round, from round 0, when batch
    traces are kept, and is empty otherwise.
    """

    target_domain: int
    rounds: list[RoundMetrics]
    final_task: ParamVector
    clients: tuple[int, ...]
    trace: list[ndag.BatchTrace] = field(default_factory=list)

    @property
    def final(self) -> metrics.EvalResult:
        """The held-out evaluation after the last round."""
        return self.rounds[-1].target


@dataclass
class RunReport:
    domains: list[DomainRun]
    averages: dict[str, float]


def _run_group(
    legs: list[_Leg],
    config: FederationConfig,
    task_arch: nets.TaskArch,
    gen_arch: nets.GenArch,
    release: Callable[[list[_Leg]], bool] | None = None,
) -> None:
    """Train legs as a leg group, round by round in lockstep, from their servers' round.

    Every leg starts at the same round, and each round is one _group_round.
    After each round but the last, a group of k >= 2 legs offers its back
    k // 2 legs to release, which returns True if it has taken them: they
    then leave legs, and the rest train on.
    """
    while (r := legs[0].server.round) < config.rounds:
        _group_round(legs, config, task_arch, gen_arch)
        keep = (len(legs) + 1) // 2
        last = r == config.rounds - 1
        if release is not None and keep < len(legs) and not last and release(legs[keep:]):
            del legs[keep:]


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


def leg_groups(step_rows: list[int], workers: int) -> list[list[int]]:
    """Split a job's legs into contiguous groups, each trained as one stack.

    step_rows[i] is the rows of one local step of leg i: the sum over its
    clients of min(batch_size, train size).  The groups are the fewest, and
    never fewer than min(workers, legs), that split the legs as evenly as
    possible and keep every group of more than one leg within
    MAX_GROUP_ROWS rows per step; a taller leg is a group of its own.
    """
    legs = len(step_rows)
    for count in range(min(workers, legs), legs):
        size, extra = divmod(legs, count)
        bounds = [g * size + min(g, extra) for g in range(count + 1)]
        groups = [list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        if all(len(g) == 1 or sum(step_rows[i] for i in g) <= MAX_GROUP_ROWS for g in groups):
            return groups
    return [[i] for i in range(legs)]


def _step_rows(job: Job) -> list[int]:
    """Rows of one local step of each leg of job (see leg_groups)."""
    batch = [min(job.config.ndag.batch_size, len(d.train_y)) for d in job.benchmark]
    return [sum(batch) - own for own in batch]


def _legs(job: Job, legs: Sequence[int], state: bytes | bytearray | None = None) -> list[_Leg]:
    """The given legs of job, to train as one leg group; leg idx holds out benchmark[idx].

    A leg resumes from the round it had reached if state (see _leg_state)
    holds it, and starts from scratch if state is empty or None.  job's
    config must already fit its bench, n_clients = len(benchmark) - 1, as
    run_lodo_jobs makes it.
    """
    benchmark, config, task_arch, gen_arch, collect_trace = job
    resumed = dict(pickle.loads(state)) if state else {}
    group = []
    for idx in legs:
        server = resumed.get(idx) or init(config, task_arch, gen_arch, collect_trace)
        sources = [d for i, d in enumerate(benchmark) if i != idx]
        group.append(_Leg(server, sources, benchmark[idx], idx))
    return group


def _leg_outcomes(
    job: Job,
    legs: Sequence[int],
    state: bytes | bytearray | None = None,
    release: Callable[[list[_Leg]], bool] | None = None,
) -> list[DomainRun | Exception]:
    """Each leg's DomainRun, or the exception it raised, in leg order, but for those release takes.

    The legs are built (_legs) and train as one group (_run_group), which
    drops the legs release takes from its list.  A group that raises,
    building or training, is run again one leg of that list at a time, from
    the same start, so a failing leg raises the error, with the client
    index, that it raises alone; the outcomes end at the first leg that
    raises, since no later one is read.
    """
    group: list[_Leg] = []
    try:
        group = _legs(job, legs, state)
        _run_group(group, job.config, job.task_arch, job.gen_arch, release)
    except Exception as exc:
        if len(group or legs) == 1:
            return [exc]
    else:
        return [
            DomainRun(leg.target.domain, leg.server.log, leg.server.global_task,
                      tuple(d.domain for d in leg.sources), leg.server.trace or [])
            for leg in group
        ]
    outcomes = []
    for idx in [leg.idx for leg in group] or legs:
        outcomes += _leg_outcomes(job, [idx], state)
        if isinstance(outcomes[-1], Exception):
            break
    return outcomes


class _Handoff(NamedTuple):
    """Legs of job for a worker to train as a group: a task, or legs a worker released.

    On a pipe it comes just before a frame of the legs' state (_leg_state),
    which the worker that trains the legs unpickles and the process that
    forwards it copies unopened.  The frame is empty for legs that start
    from scratch.
    """

    job: int
    legs: tuple[int, ...]


def _leg_state(legs: list[_Leg]) -> bytes:
    """Each leg's (idx, server), pickled: what a leg needs to train on."""
    return pickle.dumps([(leg.idx, leg.server) for leg in legs])


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


def _send_frame(fd: int, body: bytes) -> None:
    """Write body to pipe fd behind its byte length."""
    _write_all(fd, _LENGTH.pack(len(body)))
    _write_all(fd, body)


def _send(fd: int, message) -> None:
    _send_frame(fd, pickle.dumps(message))


def _read_frame(fd: int) -> bytearray | None:
    """The body of the next frame on pipe fd, or None if the pipe ends first."""
    length = _read_exactly(fd, _LENGTH.size)
    return None if length is None else _read_exactly(fd, _LENGTH.unpack(length)[0])


def _receive(fd: int):
    """The next message on pipe fd, or None if the pipe ends first."""
    body = _read_frame(fd)
    return None if body is None else pickle.loads(body)


def _forward_frame(src: int, dst: int) -> bool:
    """Copy the next frame of pipe src to pipe dst a chunk at a time; False if src ends first."""
    length = _read_exactly(src, _LENGTH.size)
    if length is None:
        return False
    _write_all(dst, length)
    left = _LENGTH.unpack(length)[0]
    while left:
        chunk = os.read(src, min(left, 1 << 16))
        if not chunk:
            return False
        _write_all(dst, chunk)
        left -= len(chunk)
    return True


def _serve_legs(jobs: list[Job], tasks: int, results: int) -> None:
    """A leg worker's loop: train each leg group read from pipe tasks, report on pipe results.

    Its first message is its pid.  A task is a _Handoff followed by its
    legs' state, empty for legs that start from scratch, and each leg's
    outcome, its DomainRun or the exception it raised (see _leg_outcomes),
    goes out in leg order; an outcome that cannot be pickled goes out as
    the exception pickling it raised.  After each round of a group, one
    non-blocking poll of the task pipe looks for _RELEASE; if it is there,
    the back legs go out as a _Handoff and their state before any outcome
    of the group, and the rest train on.  A _RELEASE read between groups
    came too late and is dropped.  Returns when the task pipe ends.
    """
    _send(results, os.getpid())
    poller = select.poll()
    poller.register(tasks, select.POLLIN)
    while (task := _receive(tasks)) is not None:
        if task == _RELEASE:
            continue
        if (state := _read_frame(tasks)) is None:
            return
        j, legs = task

        def release(back: list[_Leg]) -> bool:
            if not poller.poll(0) or _receive(tasks) != _RELEASE:
                return False
            _send(results, _Handoff(j, tuple(leg.idx for leg in back)))
            _send_frame(results, _leg_state(back))
            return True

        for outcome in _leg_outcomes(jobs[j], legs, state, release):
            try:
                body = pickle.dumps(outcome)
            except Exception as exc:
                body = pickle.dumps(exc)
            _send_frame(results, body)


def _fork_leg_worker(jobs: list[Job], pids: list[int], task_pipes: dict[int, int]) -> None:
    """Fork a leg worker that serves legs of jobs until its task pipe ends.

    Records this process's ends of its pipes in task_pipes (result read end
    -> task write end) before the fork, and its pid in pids after, so the
    caller's cleanup ends it even if something raises as the fork returns:
    the worker's first message is its pid (_serve_legs), which the cleanup
    then reads.  The worker closes the earlier workers' ends, so only this
    process holds them.  SIGTERM stays blocked in this thread until the pid
    is recorded, and in the worker until it takes SIGTERM's default action.
    """
    inherited = [*task_pipes, *task_pipes.values()]
    task_r, task_w = os.pipe()
    result_r, result_w = os.pipe()
    try:
        task_pipes[result_r] = task_w
        parent = os.getpid()
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        try:
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    signal.signal(signal.SIGTERM, signal.SIG_DFL)
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    for fd in (task_w, result_r, *inherited):
                        os.close(fd)
                    _start_leg_worker(parent)
                    _serve_legs(jobs, task_r, result_w)
                    code = 0
                finally:
                    # Never return into the caller's stack, nor run its exit handlers.
                    os._exit(code)
            pids.append(pid)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    finally:
        os.close(task_r)
        os.close(result_w)


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
    data; its full sample set (train + val splits) is the test set.  So a
    leg has one client fewer than its job has domains: each job's config is
    fitted to that, n_clients = len(benchmark) - 1, once, before the forks,
    and one config serves benches of any size.  The module docstring says
    how the legs train on worker processes.

    The legs are read back in (job, leg) order, so the first failing leg in
    that order raises its error, the one it raises when trained alone
    (see _leg_outcomes), as soon as every earlier leg has returned.
    A worker that dies before it is stopped, training or idle (killed from
    outside, say by the OOM killer), ends its result pipe, and
    LegWorkerDied is raised at once.  However this returns or raises,
    every worker is killed and reaped first, a worker whose pid only its
    first message told included; a worker also ends when this process
    does, even when it is killed (see _start_leg_worker).
    """
    if any(len(job.benchmark) < 2 for job in jobs):
        raise ValueError("leave-one-domain-out needs at least 2 domains")
    jobs = [
        job._replace(config=replace(job.config, n_clients=len(job.benchmark) - 1)) for job in jobs
    ]

    cpus = len(os.sched_getaffinity(0))
    tasks = [
        _Handoff(j, tuple(group))
        for j, job in enumerate(jobs)
        for group in leg_groups(_step_rows(job), cpus)
    ]
    outcomes: dict[tuple[int, int], DomainRun | Exception] = {}
    pids: list[int] = []
    task_pipes: dict[int, int] = {}  # a worker's result pipe -> its task pipe
    # A worker's result pipe -> the (job, leg)s it owns, in leg order.  A
    # worker whose group failed stops after the failing leg and stays here
    # until that leg raises.
    owned: dict[int, list[tuple[int, int]]] = {}
    # A worker asked to release legs -> the free worker they are for.
    thieves: dict[int, int] = {}

    gc.collect()
    gc.freeze()
    try:
        for _ in range(min(cpus, len(tasks))):
            _fork_leg_worker(jobs, pids, task_pipes)
        poller = select.poll()
        for result_r in task_pipes:
            poller.register(result_r, select.POLLIN)
        unread = [(j, idx) for j, job in enumerate(jobs) for idx in range(len(job.benchmark))]
        while unread:
            for worker in task_pipes:
                if worker in owned or worker in thieves.values():
                    continue
                if tasks:
                    task = tasks.pop(0)
                    _send(task_pipes[worker], task)
                    _send_frame(task_pipes[worker], b"")
                    owned[worker] = [(task.job, idx) for idx in task.legs]
                    continue
                victim = next((w for w, legs in owned.items() if len(legs) > 1 and w not in thieves), None)
                if victim is not None:
                    _send(task_pipes[victim], _RELEASE)
                    thieves[victim] = worker
            for worker, _ in poller.poll():
                message = _receive(worker)
                if message is None:
                    raise LegWorkerDied("a leg worker process ended before returning its leg")
                if isinstance(message, int):  # the worker's pid
                    continue
                if isinstance(message, _Handoff):
                    thief = thieves.pop(worker)
                    _send(task_pipes[thief], message)
                    if not _forward_frame(worker, task_pipes[thief]):
                        raise LegWorkerDied("a leg worker process ended before returning its leg")
                    owned[thief] = [(message.job, idx) for idx in message.legs]
                    owned[worker] = [leg for leg in owned[worker] if leg not in owned[thief]]
                    continue
                pending = owned[worker]
                outcomes[pending.pop(0)] = message
                if not pending:
                    del owned[worker]
                    thieves.pop(worker, None)  # it kept its legs
            while unread and unread[0] in outcomes:
                if isinstance(outcome := outcomes[unread.pop(0)], Exception):
                    raise outcome
    except BrokenPipeError:  # only a worker reads this process's writes
        raise LegWorkerDied("a leg worker process ended before its leg") from None
    finally:
        # A worker whose fork raised as it returned; only its first message tells its pid.
        for result_r in list(task_pipes)[len(pids) :]:
            if isinstance(pid := _receive(result_r), int):
                pids.append(pid)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
        for result_r, task_w in task_pipes.items():
            os.close(result_r)
            os.close(task_w)

    reports = []
    for j, job in enumerate(jobs):
        runs = [outcomes[j, idx] for idx in range(len(job.benchmark))]
        avg = {
            "acc": float(np.mean([r.final.acc for r in runs])),
            "f1": float(np.mean([r.final.f1 for r in runs])),
        }
        aucs = [r.final.auc for r in runs if r.final.auc is not None]
        avg["auc"] = float(np.mean(aucs)) if aucs else None
        reports.append(RunReport(domains=runs, averages=avg))
    return reports
