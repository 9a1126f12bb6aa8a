"""Flat parameter vectors and the algebra the simulator runs on.

The server's global models (task net, generator) and loaded checkpoints are
ParamVectors: immutable, finite 1-D float64 arrays.  Everything a round
computes in between works on parameter rows: local training stacks the
clients of a round as rows of (C, P) arrays (SgdRows), sgd_step updates
those in place, and aggregation turns (C, P) rows back into one
ParamVector.  Momentum restarts at zero in every local round, since each
round starts from the freshly sent global model; no optimizer state
outlives a round.
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

    def __len__(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"ParamVector(dim={len(self)})"

    def __reduce__(self):
        # Through the constructor: a pickled array comes back writeable.
        return ParamVector, (self.values,)


def param_mean(rows: np.ndarray) -> ParamVector:
    """Elementwise arithmetic mean of the rows of a (C, P) array, summed in order."""
    if len(rows) == 0:
        raise ValueError("param_mean of no rows")
    acc = np.zeros(rows.shape[1])
    for row in rows:
        acc += row
    acc /= len(rows)
    return ParamVector(acc)


@dataclass
class SgdRows:
    """Stacked parameter rows (C, P) and their per-round blocks, one client per row.

    buf is the momentum buffer and starts at zero.  grad holds the gradient
    of the latest sgd_step; the gradient routines write into it directly.
    sgd_step updates params and buf in place.
    """

    params: np.ndarray
    buf: np.ndarray | None = None
    grad: np.ndarray | None = None

    def __post_init__(self):
        if self.buf is None:
            self.buf = np.zeros_like(self.params)
        if self.grad is None:
            self.grad = np.empty_like(self.params)

    def take(self, rows) -> SgdRows:
        """The given rows: views for a slice, copies for an index array.

        For an index array the gradient block is new and uninitialized, since
        a step writes it before reading it.
        """
        params = self.params[rows]
        grad = self.grad[rows] if isinstance(rows, slice) else np.empty_like(params)
        return SgdRows(params, self.buf[rows], grad)

    def put(self, rows, part: SgdRows, grad: bool = True) -> None:
        """Write a taken part back; grad=False leaves out a gradient nothing reads."""
        self.params[rows] = part.params
        self.buf[rows] = part.buf
        if grad:
            self.grad[rows] = part.grad


def sgd_step(
    rows: SgdRows, grads: np.ndarray, lr: float, momentum: float, weight_decay: float
) -> np.ndarray:
    """One momentum-SGD step on every row, in place; returns the rows that stayed finite.

    grad <- grad + weight_decay * param
    buf  <- momentum * buf + grad
    p    <- p - lr * buf

    A new SgdRows buffer is zero, so a round's first step is plain SGD.
    grads is kept in rows.grad, which costs no copy when grads is that
    block.

    A row whose gradient or new parameters hold NaN or +/-inf comes back
    False: training has diverged there, and continuing would silently
    corrupt the run.  grads itself is left untouched.  Checking the new
    parameters alone covers the gradient: a non-finite gradient entry makes
    its buffer entry non-finite, lr times that is non-finite for any lr
    (0 * inf is NaN), and so is the parameter it is subtracted from.
    """
    if grads.shape != rows.params.shape:
        raise DimensionMismatch(f"gradient shape {grads.shape} != params {rows.params.shape}")
    rows.grad[...] = grads
    g = weight_decay * rows.params
    g += grads
    rows.buf *= momentum
    rows.buf += g
    np.multiply(rows.buf, lr, out=g)
    rows.params -= g
    return np.isfinite(rows.params).all(axis=1)
