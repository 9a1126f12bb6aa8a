"""Sharpness-aware hierarchical aggregation.

Uploaded models are scored on peer validation sets after a sharpness probe:
the model is evaluated at theta + rho * g/||g|| (g = last local gradient),
so flat minima score well and sharp ones pay for it.  Scores drive two
aggregation tiers: within a client, the latest better-scoring snapshots are
densely averaged into the upload; across clients, scores are soft-balanced
into simplex weights.

A round's uploads are scored together as (C, P) rows.  The validation
sets of one height are stacked on a new leading axis, (S, 1, n, d) against
all C rows, and each chunk of at most MAX_SCORE_ROWS stacked rows runs one
forward pass and one loss-only cross-entropy.  Every (set, model) product
keeps the set's own height, so a model's loss has the bits of scoring it
alone.  Sets of different heights are never concatenated into one matrix:
on narrow output layers (16 -> 3) OpenBLAS rounds a row's logits
differently depending on the matrix height.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import nets
from .ndag import DivergenceError, cross_entropy_loss
from .params import DimensionMismatch, ParamVector, param_mean

GRAD_NORM_FLOOR = 1e-12
SCORE_CAP = 1e9
# The most (set, model, sample) rows one stacked scoring pass computes.  It
# is a memory bound, not a tuned speed setting: the activations are
# (sets, C, n, width) blocks (1 MiB per 64 columns at this cap).  A set whose
# C * n rows alone exceed it runs alone, as every set did before stacking.
MAX_SCORE_ROWS = 2048


@dataclass(frozen=True)
class ShaHyper:
    rho: float = 1e-7
    beta: float = 0.3
    k: int = 4
    history_cap: int = 8
    include_self: bool = True

    def __post_init__(self):
        # Written so that NaN fails every float bound.
        if not self.rho >= 0.0:
            raise ValueError(f"rho must be >= 0, got {self.rho}")
        if not self.beta >= 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.history_cap < 0:
            raise ValueError(f"history_cap must be >= 0, got {self.history_cap}")


@dataclass(frozen=True, eq=False)
class ScoredSnapshot:
    """A client's upload row with its score."""

    score: float
    row: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.score) and self.score > 0.0):
            raise ValueError(f"snapshot score must be finite and > 0, got {self.score}")


class ScoringDivergence(DivergenceError):
    """A probed upload's parameters or validation loss are non-finite."""

    def __init__(self, client: int, what: str):
        super().__init__(f"non-finite {what}", client)
        self.what = what

    def __reduce__(self):
        # The default rebuilds from self.args, the formatted message alone.
        return ScoringDivergence, (self.client, self.what)


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


def probe_rows(theta: np.ndarray, grads: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """(theta + rho * g/||g|| per row, probed flags); a row whose g vanishes stays at theta."""
    if theta.shape != grads.shape:
        raise DimensionMismatch(f"gradient shape {grads.shape} != params {theta.shape}")
    rows = theta.copy()
    # Each row's own dot with itself: np.linalg.norm's bits, in one stacked product.
    norms = np.sqrt((grads[:, None, :] @ grads[:, :, None])[:, 0, 0])
    probed = norms >= GRAD_NORM_FLOOR
    rows[probed] = (rho / norms[probed])[:, None] * grads[probed] + theta[probed]
    return rows, probed


def evaluate_score(
    theta_hat: np.ndarray,
    arch: nets.TaskArch,
    val_sets: list[tuple[np.ndarray, np.ndarray]],
    scored_on: list[list[int]],
) -> list[ScoreResult]:
    """Generalization score 1 / sum of per-set mean CE losses, one per row of theta_hat.

    scored_on[s] lists, ascending, the rows scored on val_sets[s]; each
    row's losses are summed in set order.  Every row is run on every set,
    in stacked passes over the sets of one height (see the module
    docstring), and only the scored losses are summed.  A near-zero total
    loss is capped at SCORE_CAP and flagged instead of dividing by ~0.
    Non-finite parameters or totals raise ScoringDivergence for the lowest
    such row.
    """
    c = len(theta_hat)
    if set(range(c)) - {row for rows in scored_on for row in rows}:
        raise ValueError("evaluate_score needs at least one validation set per row")
    if len(scored_on) != len(val_sets):
        raise ValueError("evaluate_score needs one list of scored rows per validation set")
    by_height: dict[int, list[int]] = {}
    for s, (xs, _) in enumerate(val_sets):
        if xs.shape[0] == 0:
            raise ValueError("empty validation set")
        by_height.setdefault(xs.shape[0], []).append(s)
    layers = nets.split_layers(theta_hat, arch.layer_dims())
    losses = np.empty((len(val_sets), c))
    for n, sets in by_height.items():
        step = max(1, MAX_SCORE_ROWS // (c * n))
        for i in range(0, len(sets), step):
            chunk = sets[i : i + step]
            xs = np.stack([val_sets[s][0] for s in chunk])[:, None]
            ys = np.repeat([val_sets[s][1] for s in chunk], c, axis=0)
            _, logits = nets.mlp_forward(layers, xs)
            flat = logits.reshape(-1, n, logits.shape[-1])
            losses[chunk] = cross_entropy_loss(flat, ys).reshape(-1, c)
    totals = [0.0] * c
    for rows, set_losses in zip(scored_on, losses.tolist()):
        for row in rows:
            totals[row] += set_losses[row]
    finite = np.isfinite(theta_hat).all(axis=1)
    for row, total in enumerate(totals):
        if not (finite[row] and np.isfinite(total)):
            raise ScoringDivergence(row, "validation loss" if finite[row] else "probed parameters")
    return [
        ScoreResult(SCORE_CAP, True) if total < 1e-9 else ScoreResult(1.0 / total, False)
        for total in totals
    ]


def within_client_aggregate(
    current: ScoredSnapshot,
    history: list[ScoredSnapshot],
    k: int,
    history_cap: int,
) -> tuple[ScoredSnapshot, list[ScoredSnapshot]]:
    """Densely aggregate the upload with its better-scoring recent history.

    Takes the latest (at most k) history snapshots whose score beats the
    current one, averages their rows and scores together with the current
    snapshot, and appends the pre-aggregation snapshot to history (oldest
    entries dropped beyond history_cap).  k = 0 is the identity.
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
        score=float(np.mean([snap.score for snap in pool])),
        row=param_mean(np.array([snap.row for snap in pool])).values,
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
    with np.errstate(over="ignore"):
        powered = s**beta
        total = powered.sum()
    if not 0.0 < total < np.inf:
        # Every power under- or overflowed; scores scaled to max 1 give the same weights.
        powered = (s / s.max()) ** beta
        total = powered.sum()
    return AggregationWeights(powered / total)


def across_client_aggregate(rows: np.ndarray, weights: AggregationWeights) -> ParamVector:
    """Weighted sum of the rows of a (C, P) array, accumulated client by client."""
    if len(rows) != len(weights):
        raise ValueError("rows and weights must align")
    acc = np.zeros(rows.shape[1])
    for wi, row in zip(weights.values, rows):
        acc += wi * row
    return ParamVector(acc)
