"""Four-stage federation orchestration and the leave-one-domain-out harness.

Each round: distribute the global models, run every client's local round,
score the uploads on peer validation sets, aggregate.  Warmup rounds train
plain classifiers and average them uniformly; the adversarial generator and
the sharpness-aware scoring only switch on afterwards, each independently
removable for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics, ndag, nets, sha
from .data import DomainDataset
from .losses import batch_loss_cls
from .params import ParamVector, SgdState, param_mean

MODES = ("feddag", "no_ndag", "no_sha", "fedavg")

# Stable rng stream tags: every stochastic choice hangs off (seed, tag, ...).
_INIT_TASK_TAG = 21
_INIT_GEN_TAG = 22
_BATCH_TAG = 23
_EVAL_PICK_TAG = 24


class ClientRoundError(RuntimeError):
    """A client's local round aborted; carries the client index."""

    def __init__(self, client: int, cause: Exception):
        super().__init__(f"client {client}: {cause}")
        self.client = client
        self.cause = cause


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
class ClientRuntime:
    """One simulated client: its domain data plus local model state."""

    index: int
    domain: int
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    models: ndag.ClientModels


@dataclass
class ServerState:
    global_task: ParamVector
    global_gen: ParamVector
    round: int
    histories: list[list[sha.ScoredSnapshot]]


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    warmup: bool
    train_losses: tuple[float, ...]
    source_val_loss: float
    raw_scores: tuple[float, ...] | None
    scores: tuple[float, ...] | None
    weights: tuple[float, ...]
    target_eval: metrics.EvalResult | None
    degenerate_rows: int


@dataclass
class TraceRow:
    client: int
    round: int
    batch: int
    l_cls_g: float | None
    l_dis: float | None
    l_cls_s: float
    l_sim: float | None


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


def make_clients(domains: list[DomainDataset], server: ServerState) -> list[ClientRuntime]:
    """One client per source domain, models seeded from the global state."""
    return [
        ClientRuntime(
            index=i,
            domain=d.domain,
            train_x=d.train_x,
            train_y=d.train_y,
            val_x=d.val_x,
            val_y=d.val_y,
            models=ndag.ClientModels(student=server.global_task, generator=server.global_gen),
        )
        for i, d in enumerate(domains)
    ]


def distribute(server: ServerState, clients: list[ClientRuntime], config: FederationConfig) -> None:
    """Stage 1: global task model to every student, generator to every client.

    Local optimizer state resets with the fresh weights.  The teacher is
    created (as a copy of the just-distributed student) the first time a
    client enters an adversarial round and is never overwritten afterwards.
    """
    main_round = server.round >= config.warmup_rounds
    for client in clients:
        models = replace(
            client.models, student=server.global_task, student_opt=SgdState()
        )
        if config.ndag_active and main_round:
            models = replace(models, generator=server.global_gen, gen_opt=SgdState())
            if models.teacher is None:
                models = replace(models, teacher=models.student)
        client.models = models


def _client_val_sets(
    clients: list[ClientRuntime], config: FederationConfig, round_idx: int
) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Validation sets each client's upload is scored on this round."""
    n = len(clients)
    chosen = list(range(n))
    if 0 < config.eval_clients_per_round < n:
        rng = np.random.default_rng([config.seed, _EVAL_PICK_TAG, round_idx])
        chosen = sorted(rng.choice(n, size=config.eval_clients_per_round, replace=False))
    per_client = []
    for i in range(n):
        sets = [
            (clients[j].val_x, clients[j].val_y)
            for j in chosen
            if config.sha.include_self or j != i
        ]
        if not sets:
            sets = [(clients[j].val_x, clients[j].val_y) for j in chosen]
        per_client.append(sets)
    return per_client


def run_round(
    server: ServerState,
    clients: list[ClientRuntime],
    config: FederationConfig,
    task_arch: nets.TaskArch,
    gen_arch: nets.GenArch,
    trace: list[TraceRow] | None = None,
) -> RoundMetrics:
    """One communication round; mutates server and clients in place.

    The clients' local rounds run in lockstep (ndag.client_round): every
    client finishes local step k before any client starts step k + 1.  If
    training diverges, the ClientRoundError names the lowest-index client
    among those that fail at the earliest failing local step.
    """
    round_idx = server.round
    warmup = round_idx < config.warmup_rounds
    ndag_on = config.ndag_active and not warmup

    distribute(server, clients, config)

    rngs = [np.random.default_rng([config.seed, _BATCH_TAG, round_idx, c.index]) for c in clients]
    try:
        uploads = ndag.client_round(
            [c.models for c in clients],
            task_arch,
            gen_arch,
            [c.train_x for c in clients],
            [c.train_y for c in clients],
            config.ndag,
            ndag_on,
            rngs,
            config.local_epochs,
        )
    except ndag.DivergenceError as exc:
        raise ClientRoundError(clients[exc.client].index, exc) from exc
    for client, result in zip(clients, uploads):
        client.models = result.models
        if trace is not None:
            for row in result.trace:
                trace.append(
                    TraceRow(
                        client=client.domain,
                        round=round_idx,
                        batch=row.batch,
                        l_cls_g=row.l_cls_g,
                        l_dis=row.l_dis,
                        l_cls_s=row.l_cls_s,
                        l_sim=row.l_sim,
                    )
                )

    raw_scores = scores = None
    if warmup or not config.sha_active:
        weights = sha.AggregationWeights(np.full(len(clients), 1.0 / len(clients)))
        server.global_task = param_mean([u.upload for u in uploads])
        if ndag_on:
            server.global_gen = param_mean([c.models.generator for c in clients])
    else:
        val_sets = _client_val_sets(clients, config, round_idx)
        merged_models = []
        raw_list, post_list = [], []
        for client, upload in zip(clients, uploads):
            theta_hat, _ = sha.perturb_model(upload.upload, upload.last_grad, config.sha.rho)
            raw = sha.evaluate_score(theta_hat, task_arch, val_sets[client.index])
            current = sha.ScoredSnapshot(params=upload.upload, score=raw.score, round=round_idx)
            merged, new_history = sha.within_client_aggregate(
                current, server.histories[client.index], config.sha.k, config.sha.history_cap
            )
            server.histories[client.index] = new_history
            merged_models.append(merged.params)
            raw_list.append(raw.score)
            post_list.append(merged.score)
        weights = sha.softmax_weights(post_list, config.sha.beta)
        generators = [c.models.generator for c in clients]
        new_task, new_gen = sha.across_client_aggregate(merged_models, generators, weights)
        server.global_task = new_task
        if ndag_on:
            server.global_gen = new_gen
        raw_scores = tuple(raw_list)
        scores = tuple(post_list)

    server.round = round_idx + 1

    val_x = np.concatenate([c.val_x for c in clients])
    val_y = np.concatenate([c.val_y for c in clients])
    _, logits = nets.task_apply(server.global_task, task_arch, val_x)
    return RoundMetrics(
        round=round_idx,
        warmup=warmup,
        train_losses=tuple(u.mean_train_loss for u in uploads),
        source_val_loss=batch_loss_cls(logits, val_y),
        raw_scores=raw_scores,
        scores=scores,
        weights=tuple(weights.values.tolist()),
        target_eval=None,
        degenerate_rows=sum(u.degenerate_rows for u in uploads),
    )


@dataclass
class DomainRun:
    """One LODO leg: federation over all domains except the target."""

    target_domain: int
    rounds: list[RoundMetrics]
    final: metrics.EvalResult
    final_task: ParamVector
    trace: list[TraceRow] = field(default_factory=list)


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
) -> tuple[ServerState, list[RoundMetrics], list[TraceRow]]:
    """Train a federation over the source domains for config.rounds."""
    if len(sources) != config.n_clients:
        raise ValueError(f"{len(sources)} source domains for {config.n_clients} clients")
    server = init(config, task_arch, gen_arch)
    clients = make_clients(sources, server)
    trace: list[TraceRow] = []
    round_log: list[RoundMetrics] = []
    target_xy = _domain_eval_arrays(target) if target is not None else None
    for r in range(config.rounds):
        rm = run_round(
            server, clients, config, task_arch, gen_arch, trace if collect_trace else None
        )
        probe = target_xy is not None and (config.probe_every_round or r == config.rounds - 1)
        if probe:
            rm = replace(
                rm,
                target_eval=metrics.evaluate(server.global_task, task_arch, *target_xy),
            )
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
                final=rounds[-1].target_eval,
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
