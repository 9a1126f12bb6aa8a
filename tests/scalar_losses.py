"""Scalar reference implementations of the training losses, one sample at a time.

These are the plain-numpy contracts the batched training objectives must
agree with; tests cross-check both routes.
"""

from __future__ import annotations

import numpy as np

from feddag.ndag import DEGENERATE_NORM


class DegenerateFeatures(ValueError):
    """A feature vector with norm below DEGENERATE_NORM has no direction."""


def normalized_sq_dist(f: np.ndarray, f_hat: np.ndarray) -> float:
    """Squared euclidean distance between the two unit-normalized vectors.

    Lives in [0, 4]; 0 for parallel, 2 for orthogonal, 4 for antiparallel.
    """
    f = np.asarray(f, dtype=np.float64).reshape(-1)
    f_hat = np.asarray(f_hat, dtype=np.float64).reshape(-1)
    if f.size != f_hat.size:
        raise ValueError(f"feature dims differ: {f.size} vs {f_hat.size}")
    nf = np.linalg.norm(f)
    nh = np.linalg.norm(f_hat)
    if nf < DEGENERATE_NORM or nh < DEGENERATE_NORM:
        raise DegenerateFeatures("cannot normalize a (near-)zero feature vector")
    diff = f / nf - f_hat / nh
    return float(diff @ diff)


def loss_dis(f: np.ndarray, f_hat: np.ndarray, m: float) -> float:
    """Discrepancy capped at m; the cap keeps the adversary from running away."""
    if m <= 0.0:
        raise ValueError(f"cap m must be > 0, got {m}")
    return min(normalized_sq_dist(f, f_hat), m)


def loss_sim(f: np.ndarray, f_hat: np.ndarray) -> float:
    """Uncapped discrepancy; the student minimizes this for alignment."""
    return normalized_sq_dist(f, f_hat)


def loss_cls(logits: np.ndarray, label: int) -> float:
    """Softmax cross-entropy of one sample, max-shifted for stability."""
    z = np.asarray(logits, dtype=np.float64).reshape(-1)
    if not 0 <= label < z.size:
        raise ValueError(f"label {label} out of range for {z.size} classes")
    zs = z - z.max()
    return float(np.log(np.exp(zs).sum()) - zs[label])
