"""Flat parameter vectors and the algebra the simulator runs on.

The server's global models (task net, generator) and loaded checkpoints are
ParamVectors: immutable, finite 1-D float64 arrays.  Everything a round
computes in between works on parameter rows: local training stacks the
clients of a round as rows of (C, P) arrays (SgdRows), sgd_step updates
those in place, and aggregation turns (C, P) rows back into one
ParamVector.  Momentum restarts at zero in every local round, since each
round starts from the freshly sent global model; no optimizer state
outlives a round.

The arrays a round trains in, its (C, P) row blocks and the activations
of its steps, come from a Workspace that the rounds of one federation
share, so after the first round no round allocates them again.
"""

from __future__ import annotations

import math
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
    return ParamVector(acc / len(rows))


class Workspace:
    """Arrays reused by every step and round of one federation, keyed by role.

    array(role, shape) returns the role's memory viewed in that shape, the
    same array object each time the same shape is asked for, so a step that
    asks for its arrays again allocates nothing.  A role keeps one buffer,
    grown to the largest shape asked of it, so a workspace holds about
    clients x batch x layer widths, plus the round's row blocks.  Roles never
    share memory, so arrays that are alive at the same time need roles of
    their own; part(name) is a workspace with roles of its own, which gives
    each pass (teacher, generator, student) its own.  Each role has one
    dtype, and an array holds whatever its role's last user left there.
    """

    __slots__ = ("_buffers", "_views", "_parts")

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}
        self._views: dict[tuple, np.ndarray] = {}
        self._parts: dict[str, Workspace] = {}

    def part(self, name: str) -> Workspace:
        """The sub-workspace name, the same one each time."""
        part = self._parts.get(name)
        if part is None:
            part = self._parts[name] = Workspace()
        return part

    def array(self, role: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        view = self._views.get((role, shape))
        if view is None:
            size = math.prod(shape)
            flat = self._buffers.get(role)
            if flat is None or flat.size < size or flat.dtype != dtype:
                flat = self._buffers[role] = np.empty(size, dtype)
                for key in [key for key in self._views if key[0] == role]:
                    del self._views[key]
            view = self._views[role, shape] = flat[:size].reshape(shape)
        return view


def out_array(ws: Workspace | None, role: str, shape: tuple[int, ...], dtype=np.float64):
    """ws's array for role, or None without a workspace: numpy's out=None allocates."""
    return None if ws is None else ws.array(role, shape, dtype)


@dataclass
class SgdRows:
    """Stacked parameter rows (C, P) and their per-round blocks, one client per row.

    buf is the momentum buffer and starts at zero.  grad holds the gradient
    of the latest sgd_step; the gradient routines write into it directly.
    scratch is sgd_step's workspace, so a step allocates no (C, P) array.
    sgd_step updates params and buf in place.  from_workspace() takes the
    three blocks from a Workspace, so the rounds of a federation reuse them.
    """

    params: np.ndarray
    buf: np.ndarray | None = None
    grad: np.ndarray | None = None
    scratch: np.ndarray | None = None

    def __post_init__(self):
        if self.buf is None:
            self.buf = np.zeros_like(self.params)
        if self.grad is None:
            self.grad = np.empty_like(self.params)
        if self.scratch is None:
            self.scratch = np.empty_like(self.params)

    @classmethod
    def from_workspace(cls, params: np.ndarray, ws: Workspace) -> SgdRows:
        """params with a zeroed momentum buffer, and gradient and scratch blocks, from ws."""
        buf = ws.array("buf", params.shape)
        buf.fill(0.0)
        return cls(params, buf, ws.array("grad", params.shape), ws.array("scratch", params.shape))

    def take(self, rows) -> SgdRows:
        """The given rows: views for a slice, copies for an index array.

        For an index array the gradient block is new and uninitialized, since
        a step writes it before reading it.  The scratch holds nothing
        between steps, so its first rows serve.
        """
        params = self.params[rows]
        grad = self.grad[rows] if isinstance(rows, slice) else np.empty_like(params)
        return SgdRows(params, self.buf[rows], grad, self.scratch[: len(params)])

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
    block, and the temporaries go to rows.scratch.

    A row whose gradient or new parameters hold NaN or +/-inf comes back
    False: training has diverged there, and continuing would silently
    corrupt the run.  grads itself is left untouched.
    """
    if grads.shape != rows.params.shape:
        raise DimensionMismatch(f"gradient shape {grads.shape} != params {rows.params.shape}")
    rows.grad[...] = grads
    finite = np.isfinite(grads).all(axis=1)
    g = np.multiply(weight_decay, rows.params, out=rows.scratch)
    g += grads
    rows.buf *= momentum
    rows.buf += g
    rows.params -= np.multiply(lr, rows.buf, out=rows.scratch)
    return finite & np.isfinite(rows.params).all(axis=1)
