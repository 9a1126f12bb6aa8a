"""Sharpness-aware hierarchical aggregation.

Uploaded models are scored on peer validation sets after a sharpness probe:
the model is evaluated at theta + rho * g/||g|| (g = last local gradient),
so flat minima score well and sharp ones pay for it.  Scores drive two
aggregation tiers: within a client, the latest better-scoring snapshots are
densely averaged into the upload; across clients, scores are soft-balanced
into simplex weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import nets
from .losses import batch_loss_cls
from .params import ParamVector, check_dims, param_axpy, param_mean

GRAD_NORM_FLOOR = 1e-12
SCORE_CAP = 1e9


@dataclass(frozen=True)
class ShaHyper:
    rho: float = 1e-7
    beta: float = 0.3
    k: int = 4
    history_cap: int = 8
    include_self: bool = True

    def __post_init__(self):
        if self.rho < 0.0:
            raise ValueError(f"rho must be >= 0, got {self.rho}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.history_cap < 0:
            raise ValueError(f"history_cap must be >= 0, got {self.history_cap}")


@dataclass(frozen=True)
class ScoredSnapshot:
    params: ParamVector
    score: float
    round: int

    def __post_init__(self):
        if not (np.isfinite(self.score) and self.score > 0.0):
            raise ValueError(f"snapshot score must be finite and > 0, got {self.score}")


class AggregationWeights:
    """Simplex weights: nonnegative, summing to 1 within 1e-12."""

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64, copy=True).reshape(-1)
        if arr.size == 0:
            raise ValueError("weights cannot be empty")
        if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
            raise ValueError("weights must be finite and nonnegative")
        if abs(arr.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {arr.sum()!r}, not 1")
        arr.flags.writeable = False
        self.values = arr

    def __len__(self) -> int:
        return self.values.size


class ScoreResult(NamedTuple):
    score: float
    near_perfect: bool


def perturb_model(theta: ParamVector, grad: ParamVector, rho: float) -> tuple[ParamVector, bool]:
    """theta + rho * g/||g||; returns (theta, False) on a vanishing gradient."""
    if rho < 0.0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    norm = float(np.linalg.norm(grad.values))
    if norm < GRAD_NORM_FLOOR:
        return theta, False
    return param_axpy(rho / norm, grad, theta), True


def evaluate_score(
    theta_hat: ParamVector,
    arch: nets.TaskArch,
    val_sets: list[tuple[np.ndarray, np.ndarray]],
) -> ScoreResult:
    """Generalization score 1 / sum of per-set mean CE losses.

    The sum runs over the given validation sets; a near-zero total loss is
    capped at SCORE_CAP and flagged instead of dividing by ~0.
    """
    if not val_sets:
        raise ValueError("evaluate_score needs at least one validation set")
    total = 0.0
    for xs, ys in val_sets:
        if xs.shape[0] == 0:
            raise ValueError("empty validation set")
        _, logits = nets.task_apply(theta_hat, arch, xs)
        total += batch_loss_cls(logits, ys)
    if not np.isfinite(total):
        raise ValueError("non-finite validation loss")
    if total < 1e-9:
        return ScoreResult(SCORE_CAP, True)
    return ScoreResult(1.0 / total, False)


def within_client_aggregate(
    current: ScoredSnapshot,
    history: list[ScoredSnapshot],
    k: int,
    history_cap: int,
) -> tuple[ScoredSnapshot, list[ScoredSnapshot]]:
    """Densely aggregate the upload with its better-scoring recent history.

    Takes the latest (at most k) history snapshots whose score beats the
    current one, averages their parameters and scores together with the
    current snapshot, and appends the pre-aggregation snapshot to history
    (oldest entries dropped beyond history_cap).  k = 0 is the identity.
    """
    new_history = list(history) + [current]
    if len(new_history) > history_cap:
        new_history = new_history[len(new_history) - history_cap :]
    if k == 0:
        return current, new_history
    better = [snap for snap in history if snap.score > current.score]
    chosen = better[-k:]
    if not chosen:
        return current, new_history
    pool = chosen + [current]
    merged = ScoredSnapshot(
        params=param_mean([snap.params.values for snap in pool]),
        score=float(np.mean([snap.score for snap in pool])),
        round=current.round,
    )
    return merged, new_history


def softmax_weights(scores: list[float], beta: float) -> AggregationWeights:
    """Soft-balanced weights w_i = s_i^beta / sum_j s_j^beta.

    beta = 0 gives exactly uniform weights; beta = 1 is proportional.  The
    weights are invariant to scaling all scores by a common factor.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.size == 0:
        raise ValueError("softmax_weights needs at least one score")
    if np.any(s <= 0.0) or not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite and > 0")
    if beta < 0.0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    powered = s**beta
    return AggregationWeights(powered / powered.sum())


def across_client_aggregate(rows, weights: AggregationWeights) -> ParamVector:
    """Weighted sum of the clients' parameter rows, accumulated client by client.

    rows is a (C, P) array or a list of C same-length 1-D arrays.
    """
    if len(rows) != len(weights):
        raise ValueError("rows and weights must align")
    acc = np.zeros(check_dims(*rows))
    for wi, row in zip(weights.values, rows):
        acc += wi * row
    return ParamVector(acc)
