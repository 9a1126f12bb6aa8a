"""Flat parameter vectors and the algebra the simulator runs on.

Every global model (task net, generator), every scored upload and every
perturbation is a ParamVector: an immutable 1-D float64 array.  Aggregation
and the sharpness probe are pure functions of vectors or of parameter rows.
Local training stacks the clients of a round as rows of (C, P) arrays
(SgdRows) and sgd_step updates those in place.  Momentum restarts at zero
in every local round, since each round starts from the freshly sent global
model; no optimizer state outlives a round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DimensionMismatch(ValueError):
    """Two vectors (or a vector and an architecture) disagree on size."""


class NonFiniteValues(ValueError):
    """A vector that must be finite contains NaN or +/-inf."""


class ParamVector:
    """Immutable flat float64 vector of model weights."""

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64, copy=True).reshape(-1)
        if arr.size == 0:
            raise ValueError("ParamVector cannot be empty")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValues("ParamVector entries must be finite")
        arr.flags.writeable = False
        self.values = arr

    @property
    def dim(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"ParamVector(dim={self.dim})"


def check_dims(*vectors) -> int:
    """The common length of ParamVectors or 1-D parameter rows."""
    dims = {len(v) for v in vectors}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed vector dims: {sorted(dims)}")
    return dims.pop()


def param_mean(rows) -> ParamVector:
    """Elementwise arithmetic mean of one or more same-length parameter rows.

    rows is a (C, P) array or a list of 1-D arrays; they are summed in order.
    """
    if len(rows) == 0:
        raise ValueError("param_mean of an empty list")
    acc = np.zeros(check_dims(*rows))
    for row in rows:
        acc += row
    return ParamVector(acc / len(rows))


@dataclass
class SgdRows:
    """Stacked parameter rows (C, P) and their momentum buffer, one client per row.

    The buffer starts at zero; sgd_step updates both in place.
    """

    params: np.ndarray
    buf: np.ndarray | None = None

    def __post_init__(self):
        if self.buf is None:
            self.buf = np.zeros_like(self.params)

    def take(self, rows) -> SgdRows:
        """The given rows: views for a slice, copies for an index array."""
        return SgdRows(self.params[rows], self.buf[rows])

    def put(self, rows, part: SgdRows) -> None:
        self.params[rows] = part.params
        self.buf[rows] = part.buf


def sgd_step(
    rows: SgdRows, grads: np.ndarray, lr: float, momentum: float, weight_decay: float
) -> np.ndarray:
    """One momentum-SGD step on every row, in place; returns the rows that stayed finite.

    grad <- grad + weight_decay * param
    buf  <- momentum * buf + grad
    p    <- p - lr * buf

    A new SgdRows buffer is zero, so a round's first step is plain SGD.

    A row whose gradient or new parameters hold NaN or +/-inf comes back
    False: training has diverged there, and continuing would silently
    corrupt the run.  grads itself is left untouched.
    """
    if lr <= 0.0:
        raise ValueError(f"lr must be > 0, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    if grads.shape != rows.params.shape:
        raise DimensionMismatch(f"gradient shape {grads.shape} != params {rows.params.shape}")
    finite = np.isfinite(grads).all(axis=1)
    g = weight_decay * rows.params
    g += grads
    rows.buf *= momentum
    rows.buf += g
    rows.params -= lr * rows.buf
    return finite & np.isfinite(rows.params).all(axis=1)
