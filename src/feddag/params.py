"""Flat parameter vectors and the algebra the simulator runs on.

Every model (task net, generator), every gradient and every perturbation is a
ParamVector: an immutable 1-D float64 array.  Aggregation, EMA updates and
optimizer steps are pure functions from vectors to vectors.
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


def param_scale(a: float, x: ParamVector) -> ParamVector:
    return ParamVector(a * x.values)


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


def sgd_step(
    params: ParamVector,
    grads: ParamVector,
    lr: float,
    momentum: float,
    weight_decay: float,
    state: SgdState,
) -> tuple[ParamVector, SgdState]:
    """One momentum-SGD step with L2 weight decay folded into the gradient.

    grad <- grad + weight_decay * param
    buf  <- momentum * buf + grad      (buf = grad on the first step)
    p    <- p - lr * buf

    Non-finite gradient entries abort with NonFiniteValues: they signal that
    training has diverged and continuing would silently corrupt the run.
    """
    _check_dims(params, grads)
    if lr <= 0.0:
        raise ValueError(f"lr must be > 0, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    if not np.all(np.isfinite(grads.values)):
        raise NonFiniteValues("non-finite gradient entries (diverged training)")

    g = grads.values + weight_decay * params.values
    if state.momentum_buf is None:
        buf = g
    else:
        buf = momentum * state.momentum_buf + g
    new_params = ParamVector(params.values - lr * buf)
    buf = buf.copy()
    buf.flags.writeable = False
    return new_params, SgdState(momentum_buf=buf)
