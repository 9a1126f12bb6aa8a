"""Reverse-mode tape over float64 numpy arrays: the oracle for the fused passes.

The package backpropagates its three training objectives through the
closed-form nets.mlp_forward / nets.mlp_backward.  This general tape builds
the same objectives op by op instead, so tests can demand bitwise equality
between the two routes and check both against central differences.

Only the handful of operations the training objectives need: affine layers,
relu/tanh, interval clamping, a capped term, row-wise normalized squared
distance between feature matrices, and mean cross-entropy.  Graphs are built
fresh for every step and backward() walks them once in reverse topological
order, so there is no tape state to reset between steps.
"""

from __future__ import annotations

import numpy as np

from feddag import ndag, nets
from feddag.ndag import DEGENERATE_NORM
from feddag.params import ParamVector


class Tensor:
    """One node of a computation graph; value is a float64 ndarray."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backprop")

    def __init__(self, value, requires_grad: bool = False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backprop = None

    @property
    def shape(self):
        return self.value.shape


def _node(value, parents, backprop) -> Tensor:
    out = Tensor(value)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backprop = backprop
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def backward(root: Tensor) -> None:
    """Populate .grad for every node reachable from a scalar root."""
    if root.value.shape != ():
        raise ValueError("backward() expects a scalar root")
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    root.grad = np.asarray(1.0)
    for node in reversed(order):
        if node._backprop is not None and node.grad is not None:
            node._backprop(node.grad)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    def backprop(g):
        _accumulate(a, g @ b.value.T)
        _accumulate(b, a.value.T @ g)

    return _node(a.value @ b.value, (a, b), backprop)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Row-broadcast bias add: (B, n) + (n,)."""

    def backprop(g):
        _accumulate(x, g)
        _accumulate(b, g.sum(axis=0))

    return _node(x.value + b.value, (x, b), backprop)


def add(a: Tensor, b: Tensor) -> Tensor:
    def backprop(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _node(a.value + b.value, (a, b), backprop)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def backprop(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _node(a.value - b.value, (a, b), backprop)


def scale(x: Tensor, c: float) -> Tensor:
    def backprop(g):
        _accumulate(x, g * c)

    return _node(x.value * c, (x,), backprop)


def relu(x: Tensor) -> Tensor:
    mask = x.value > 0.0

    def backprop(g):
        _accumulate(x, g * mask)

    return _node(np.where(mask, x.value, 0.0), (x,), backprop)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.value)

    def backprop(g):
        _accumulate(x, g * (1.0 - t * t))

    return _node(t, (x,), backprop)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Interval clamp; gradient passes through on the inclusive interior."""
    mask = (x.value >= lo) & (x.value <= hi)

    def backprop(g):
        _accumulate(x, g * mask)

    return _node(np.clip(x.value, lo, hi), (x,), backprop)


def minimum_const(x: Tensor, cap: float) -> Tensor:
    """Elementwise min(x, cap); gradient is exactly zero where x >= cap."""
    mask = x.value < cap

    def backprop(g):
        _accumulate(x, g * mask)

    return _node(np.minimum(x.value, cap), (x,), backprop)


def weighted_sum(x: Tensor, weights: np.ndarray) -> Tensor:
    """Scalar dot(x, w) with constant weights."""
    w = np.asarray(weights, dtype=np.float64)

    def backprop(g):
        _accumulate(x, g * w)

    return _node(float(x.value @ w), (x,), backprop)


def cross_entropy_mean(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy over the batch (max-shifted for stability)."""
    y = np.asarray(labels)
    z = logits.value
    n = z.shape[0]
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=1, keepdims=True)
    logp = (z - zmax) - np.log(sez)
    loss = -logp[np.arange(n), y].mean()

    def backprop(g):
        dz = ez / sez
        dz[np.arange(n), y] -= 1.0
        _accumulate(logits, dz * (float(g) / n))

    return _node(loss, (logits,), backprop)


def normalized_sq_dist_rows(f: Tensor, h: Tensor) -> tuple[Tensor, np.ndarray]:
    """Row-wise || f/||f|| - h/||h|| ||^2 for (B, D) feature matrices.

    Rows where either side has norm < DEGENERATE_NORM are invalid: their
    distance is reported as 0 and no gradient flows through them.  Returns
    (distances, valid_mask) so the caller can count collapsed rows.
    """
    fv, hv = f.value, h.value
    nf = np.linalg.norm(fv, axis=1)
    nh = np.linalg.norm(hv, axis=1)
    valid = (nf >= DEGENERATE_NORM) & (nh >= DEGENERATE_NORM)
    safe_nf = np.where(valid, nf, 1.0)
    safe_nh = np.where(valid, nh, 1.0)
    u = fv / safe_nf[:, None]
    v = hv / safe_nh[:, None]
    diff = u - v
    d = np.where(valid, (diff * diff).sum(axis=1), 0.0)
    uv = (u * v).sum(axis=1)

    def backprop(g):
        gv = np.where(valid, g, 0.0)[:, None]
        # d = 2 - 2 u.v on unit vectors, so dd/df = -2 (v - (u.v) u) / ||f||
        _accumulate(f, gv * (-2.0) * (v - uv[:, None] * u) / safe_nf[:, None])
        _accumulate(h, gv * (-2.0) * (u - uv[:, None] * v) / safe_nh[:, None])

    return _node(d, (f, h), backprop), valid


# ------------------------------------------- graph versions of the nets


def layer_tensors(params: ParamVector, arch, trainable: bool) -> list[tuple[Tensor, Tensor]]:
    """Per-layer (W, b) autodiff leaves sliced out of a flat vector."""
    return [
        (Tensor(w, requires_grad=trainable), Tensor(b, requires_grad=trainable))
        for w, b in nets.split_layers(params.values, arch.layer_dims())
    ]


def task_graph(layers: list[tuple[Tensor, Tensor]], x: Tensor):
    """Graph version of nets.task_apply on prebuilt layer tensors."""
    a = x
    for w, b in layers[:-1]:
        a = relu(add_bias(matmul(a, w), b))
    wc, bc = layers[-1]
    return a, add_bias(matmul(a, wc), bc)


def gen_graph(layers: list[tuple[Tensor, Tensor]], x: Tensor) -> Tensor:
    a = x
    for w, b in layers[:-1]:
        a = relu(add_bias(matmul(a, w), b))
    wo, bo = layers[-1]
    return tanh(add_bias(matmul(a, wo), bo))


def flat_grad(layers: list[tuple[Tensor, Tensor]]) -> ParamVector:
    """Collect layer gradients back into pack order; missing grads are zero."""
    chunks = []
    for w, b in layers:
        gw = w.grad if w.grad is not None else np.zeros_like(w.value)
        gb = b.grad if b.grad is not None else np.zeros_like(b.value)
        chunks.append(np.asarray(gw).reshape(-1))
        chunks.append(np.asarray(gb).reshape(-1))
    return ParamVector(np.concatenate(chunks))


# ------------------------- tape routes of the ndag objective functions


def generator_grad(models, task_arch, gen_arch, x_batch, y_batch, hyper, teacher_feats, lo=0.0, hi=1.0):
    """Tape route of ndag.generator_grad: same arguments, same returns."""
    n = x_batch.shape[0]
    gen_layers = layer_tensors(models.generator, gen_arch, trainable=True)
    stu_layers = layer_tensors(models.student, task_arch, trainable=False)
    x = Tensor(x_batch)
    x_hat = clip(add(x, scale(gen_graph(gen_layers, x), hyper.alpha)), lo, hi)
    feats, logits = task_graph(stu_layers, x_hat)
    ce = cross_entropy_mean(logits, y_batch)
    dist, valid = normalized_sq_dist_rows(Tensor(teacher_feats), feats)
    bad = ndag._collapse_guard(valid)
    dis = weighted_sum(minimum_const(dist, hyper.m), np.full(n, 1.0 / n))
    backward(sub(ce, dis))
    return ce.value, dis.value, bad, flat_grad(gen_layers).values, x_hat.grad


def student_grad(models, task_arch, gen_arch, x_batch, y_batch, hyper, teacher_feats, lo=0.0, hi=1.0):
    """Tape route of ndag.student_grad: same arguments, same returns."""
    n = x_batch.shape[0]
    x_hat = ndag.generate(models.generator, gen_arch, x_batch, hyper.alpha, lo, hi)
    stu_layers = layer_tensors(models.student, task_arch, trainable=True)
    feats, logits = task_graph(stu_layers, Tensor(x_hat))
    ce = cross_entropy_mean(logits, y_batch)
    dist, valid = normalized_sq_dist_rows(Tensor(teacher_feats), feats)
    bad = ndag._collapse_guard(valid)
    sim = weighted_sum(dist, np.full(n, 1.0 / n))
    backward(add(ce, sim))
    return ce.value, sim.value, bad, flat_grad(stu_layers).values


def plain_grad(models, task_arch, x_batch, y_batch):
    """Tape route of ndag.plain_grad: same arguments, same returns."""
    stu_layers = layer_tensors(models.student, task_arch, trainable=True)
    _, logits = task_graph(stu_layers, Tensor(np.asarray(x_batch, dtype=np.float64)))
    ce = cross_entropy_mean(logits, y_batch)
    backward(ce)
    return ce.value, flat_grad(stu_layers).values
