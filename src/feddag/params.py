"""Flat parameter vectors and the algebra the simulator runs on.

Every model (task net, generator), every gradient and every perturbation is a
ParamVector: an immutable 1-D float64 array.  Aggregation and the sharpness
probe are pure functions from vectors to vectors.  Local training is the
exception: it stacks the clients of a round as rows of (C, P) arrays
(SgdRows) and sgd_step updates those in place.
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


def _check_dims(*vectors: ParamVector) -> int:
    dims = {v.dim for v in vectors}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed vector dims: {sorted(dims)}")
    return dims.pop()


def param_axpy(a: float, x: ParamVector, y: ParamVector) -> ParamVector:
    """Elementwise a*x + y."""
    _check_dims(x, y)
    return ParamVector(a * x.values + y.values)


def param_mean(vectors: list[ParamVector]) -> ParamVector:
    """Elementwise arithmetic mean of one or more same-dim vectors."""
    if not vectors:
        raise ValueError("param_mean of an empty list")
    _check_dims(*vectors)
    acc = np.zeros(vectors[0].dim)
    for v in vectors:
        acc += v.values
    return ParamVector(acc / len(vectors))


@dataclass(frozen=True)
class SgdState:
    """Momentum buffer; None before the first step."""

    momentum_buf: np.ndarray | None = None


@dataclass
class SgdRows:
    """Stacked parameter rows (C, P) and their momentum buffer, one client per row.

    sgd_step updates both in place.  fresh marks a buffer no step has
    written yet: the next step sets it to that step's gradient.
    """

    params: np.ndarray
    buf: np.ndarray
    fresh: bool

    @classmethod
    def stack(cls, vectors: list[ParamVector], states: list[SgdState]) -> SgdRows:
        """Rows copied from per-client vectors and their optimizer states."""
        _check_dims(*vectors)
        params = np.stack([v.values for v in vectors])
        bufs = [s.momentum_buf for s in states]
        if all(b is None for b in bufs):
            return cls(params, np.empty_like(params), True)
        if any(b is None for b in bufs):
            raise ValueError("stacked clients must all have momentum buffers or none")
        return cls(params, np.stack(bufs), False)

    def take(self, rows) -> SgdRows:
        """The given rows: views for a slice, copies for an index array."""
        return SgdRows(self.params[rows], self.buf[rows], self.fresh)

    def put(self, rows, part: SgdRows) -> None:
        self.params[rows] = part.params
        self.buf[rows] = part.buf

    def row(self, i: int) -> tuple[ParamVector, SgdState]:
        """Row i as a vector and a read-only optimizer state.

        The state is a view of this stack's buffer, not a copy, so the rows
        must no longer be updated once they are handed out.
        """
        buf = None
        if not self.fresh:
            buf = self.buf[i]
            buf.flags.writeable = False
        return ParamVector(self.params[i]), SgdState(momentum_buf=buf)


def sgd_step(
    rows: SgdRows, grads: np.ndarray, lr: float, momentum: float, weight_decay: float
) -> np.ndarray:
    """One momentum-SGD step on every row, in place; returns the rows that stayed finite.

    grad <- grad + weight_decay * param
    buf  <- momentum * buf + grad      (buf = grad on the first step)
    p    <- p - lr * buf

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
    if rows.fresh:
        rows.buf[...] = g
        rows.fresh = False
    else:
        rows.buf *= momentum
        rows.buf += g
    rows.params -= lr * rows.buf
    return finite & np.isfinite(rows.params).all(axis=1)
