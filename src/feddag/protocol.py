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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
            raise ValueError("n_clients must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0 <= self.warmup_rounds < self.rounds:
            raise ValueError(
                f"need 0 <= warmup_rounds < rounds, got {self.warmup_rounds}/{self.rounds}"
            )
        if not 0 <= self.eval_clients_per_round <= self.n_clients:
            raise ValueError("eval_clients_per_round must be in [0, n_clients]")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
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


def run_lodo(
    benchmark: list[DomainDataset],
    config: FederationConfig,
    task_arch: nets.TaskArch,
    gen_arch: nets.GenArch,
    collect_trace: bool = False,
) -> RunReport:
    """Leave-one-domain-out: hold out each domain, train on the rest.

    The held-out domain never contributes training, validation or scoring
    data; its full sample set (train + val splits) is the test set.
    """
    if len(benchmark) < 2:
        raise ValueError("leave-one-domain-out needs at least 2 domains")

    runs = []
    for idx, target in enumerate(benchmark):
        sources = [d for i, d in enumerate(benchmark) if i != idx]
        leg_config = replace(config, n_clients=len(sources))
        server, rounds, trace = run_federation(
            sources, leg_config, task_arch, gen_arch, target, collect_trace
        )
        runs.append(
            DomainRun(
                target_domain=target.domain,
                rounds=rounds,
                final_task=server.global_task,
                trace=trace,
            )
        )
        del server  # its SHA histories would otherwise stay alive through the next leg
    avg = {
        "acc": float(np.mean([r.final.acc for r in runs])),
        "f1": float(np.mean([r.final.f1 for r in runs])),
    }
    aucs = [r.final.auc for r in runs if r.final.auc is not None]
    avg["auc"] = float(np.mean(aucs)) if aucs else None
    return RunReport(domains=runs, averages=avg)
