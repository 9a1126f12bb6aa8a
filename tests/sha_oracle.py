"""Per-pair SHA scoring: the oracle for the stacked scorer in feddag.sha.

sha.probe_rows and sha.evaluate_score probe and score a round's uploads
together, one stacked forward and one stacked cross-entropy per validation
set.  This module does it one (upload, set) pair at a time instead: each
upload probed as its own ParamVector (a*x + y), each set through a
single-model task_apply and a 2-D cross-entropy.  Tests demand that both
routes give the same bits.
"""

from __future__ import annotations

import numpy as np

from feddag import nets, sha
from feddag.params import DimensionMismatch, ParamVector


def batch_loss_cls(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy over a (B, C) logit matrix."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels)
    if z.ndim != 2 or y.shape != (z.shape[0],):
        raise ValueError(f"bad shapes: logits {z.shape}, labels {y.shape}")
    if y.min() < 0 or y.max() >= z.shape[1]:
        raise ValueError("labels out of range")
    zs = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(zs).sum(axis=1))
    return float((lse - zs[np.arange(len(y)), y]).mean())


def check_dims(*vectors) -> int:
    """The common length of ParamVectors or 1-D parameter rows."""
    dims = {len(v) for v in vectors}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed vector dims: {sorted(dims)}")
    return dims.pop()


def param_axpy(a: float, x: ParamVector, y: ParamVector) -> ParamVector:
    """Elementwise a*x + y."""
    check_dims(x, y)
    return ParamVector(a * x.values + y.values)


def perturb_model(theta: ParamVector, grad: ParamVector, rho: float) -> tuple[ParamVector, bool]:
    """theta + rho * g/||g||; returns (theta, False) on a vanishing gradient."""
    if rho < 0.0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    norm = float(np.linalg.norm(grad.values))
    if norm < sha.GRAD_NORM_FLOOR:
        return theta, False
    return param_axpy(rho / norm, grad, theta), True


def evaluate_score(
    theta_hat: ParamVector,
    arch: nets.TaskArch,
    val_sets: list[tuple[np.ndarray, np.ndarray]],
) -> sha.ScoreResult:
    """Score 1 / sum of per-set mean CE losses of one model, set by set."""
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
        return sha.ScoreResult(sha.SCORE_CAP, True)
    return sha.ScoreResult(1.0 / total, False)


def score_round(uploads, grads, rho, arch, val_sets, scored_on) -> list[sha.ScoreResult]:
    """Every upload row probed and scored on its own, in the stacked scorer's terms."""
    results = []
    for c, (row, grad) in enumerate(zip(uploads, grads)):
        theta_hat, _ = perturb_model(ParamVector(row), ParamVector(grad), rho)
        own = [vs for vs, rows in zip(val_sets, scored_on) if c in rows]
        results.append(evaluate_score(theta_hat, arch, own))
    return results
