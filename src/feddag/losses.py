"""Mean cross-entropy of a batch of logits, the loss SHA scores and reports."""

from __future__ import annotations

import numpy as np


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
