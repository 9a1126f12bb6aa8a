"""Task and generator MLPs over flat parameter vectors.

The task net is feature extractor (relu stack, relu on the feature layer
too) plus a linear classifier head.  The generator is a relu stack with a
tanh output of the same width as its input, so its raw output lives in
(-1, 1) per coordinate.  Parameters are packed layer by layer as
(W row-major, b) into one flat vector; pack order is the contract every
gradient and aggregation routine relies on.  mlp_forward / mlp_backward are
the closed-form batched passes the training objectives backpropagate
through.  Every pass also takes a leading client axis: parameter rows
(C, P) with activations (C, B, d), each client's slice computed exactly as
it would be alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import DimensionMismatch, ParamVector


@dataclass(frozen=True)
class TaskArch:
    input_dim: int
    hidden_dims: tuple[int, ...]
    feature_dim: int
    num_classes: int

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden_dims, self.feature_dim, self.num_classes)
        if any(d <= 0 for d in dims):
            raise ValueError(f"all layer dims must be positive: {dims}")
        if self.feature_dim < 2:
            raise ValueError("feature_dim must be >= 2 for direction-based losses")

    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per layer, classifier head last."""
        widths = [self.input_dim, *self.hidden_dims, self.feature_dim]
        pairs = list(zip(widths[:-1], widths[1:]))
        pairs.append((self.feature_dim, self.num_classes))
        return pairs

    def param_count(self) -> int:
        return sum((din + 1) * dout for din, dout in self.layer_dims())


@dataclass(frozen=True)
class GenArch:
    input_dim: int
    hidden_dims: tuple[int, ...]

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden_dims)
        if any(d <= 0 for d in dims):
            raise ValueError(f"all layer dims must be positive: {dims}")

    def layer_dims(self) -> list[tuple[int, int]]:
        widths = [self.input_dim, *self.hidden_dims, self.input_dim]
        return list(zip(widths[:-1], widths[1:]))

    def param_count(self) -> int:
        return sum((din + 1) * dout for din, dout in self.layer_dims())


def split_layers(values: np.ndarray, layer_dims) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views per layer of a flat vector (P,) or of stacked rows (C, P).

    For stacked rows W is (C, din, dout) and b is (C, 1, dout), so both
    broadcast over (C, B, din) inputs, one client per row.
    """
    need = sum((din + 1) * dout for din, dout in layer_dims)
    if values.shape[-1] != need:
        raise DimensionMismatch(f"params have {values.shape[-1]} entries, arch needs {need}")
    stacked = values.ndim == 2
    layers = []
    pos = 0
    for din, dout in layer_dims:
        if stacked:
            w = values[:, pos : pos + din * dout].reshape(len(values), din, dout)
            b = values[:, None, pos + din * dout : pos + (din + 1) * dout]
        else:
            w = values[pos : pos + din * dout].reshape(din, dout)
            b = values[pos + din * dout : pos + (din + 1) * dout]
        pos += (din + 1) * dout
        layers.append((w, b))
    return layers


def init_params(arch, rng: np.random.Generator) -> ParamVector:
    """Glorot-uniform weights, zero biases, drawn in pack order."""
    chunks = []
    for din, dout in arch.layer_dims():
        s = np.sqrt(6.0 / (din + dout))
        chunks.append(rng.uniform(-s, s, size=din * dout))
        chunks.append(np.zeros(dout))
    return ParamVector(np.concatenate(chunks))


def _relu_forward(params, arch, x_batch):
    """Relu hidden layers and a linear last layer: (last hidden, output).

    params is a ParamVector with inputs (B, d), or stacked parameter rows
    (C, P) with inputs (C, B, d).
    """
    values = params.values if isinstance(params, ParamVector) else params
    x = np.asarray(x_batch, dtype=np.float64)
    if x.ndim != values.ndim + 1 or x.shape[-1] != arch.input_dim:
        lead = "C, " * (values.ndim - 1)
        raise DimensionMismatch(
            f"expected inputs of shape ({lead}B, {arch.input_dim}), got {x.shape}"
        )
    layers = split_layers(values, arch.layer_dims())
    a = x
    for w, b in layers[:-1]:
        a = np.maximum(a @ w + b, 0.0)
    wo, bo = layers[-1]
    return a, a @ wo + bo


def task_apply(params, arch: TaskArch, x_batch: np.ndarray):
    """Batched forward pass: returns (features (B, F), logits (B, K)).

    Stacked parameter rows (C, P) with inputs (C, B, d) give (C, B, F) and
    (C, B, K).
    """
    return _relu_forward(params, arch, x_batch)


def gen_apply(params, arch: GenArch, x_batch: np.ndarray) -> np.ndarray:
    """Batched generator output in (-1, 1)^input_dim, stacked like task_apply."""
    return np.tanh(_relu_forward(params, arch, x_batch)[1])


def mlp_forward(layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray):
    """Batched pass through relu hidden layers and a linear last layer.

    Takes split_layers output and inputs (B, d), or stacked (C, B, d).
    Returns (acts, masks, out) for mlp_backward: acts[i] is the input of
    layer i (so acts[-1] is the task net's feature matrix), masks[i] the
    relu mask of hidden layer i, and out the last layer's pre-activation.
    """
    acts, masks = [x], []
    for w, b in layers[:-1]:
        z = x @ w + b
        mask = z > 0.0
        x = np.where(mask, z, 0.0)
        acts.append(x)
        masks.append(mask)
    wo, bo = layers[-1]
    return acts, masks, x @ wo + bo


def mlp_backward(layers, acts, masks, g_out, g_hidden=None, frozen=False):
    """Backprop a scalar objective through an mlp_forward pass.

    g_out is the objective's gradient w.r.t. out; g_hidden, if given, is an
    extra gradient w.r.t. acts[-1] (a loss on the task net's features).
    Returns the flat parameter gradient in pack order, (P,) or stacked
    (C, P), or, for a frozen net, the gradient w.r.t. its input instead.
    """
    chunks = []
    g = g_out
    flat = g.shape[:-2] + (-1,)
    for i in range(len(layers) - 1, -1, -1):
        if not frozen:
            chunks.append(g.sum(axis=-2))
            chunks.append((acts[i].swapaxes(-1, -2) @ g).reshape(flat))
            if i == 0:
                break
        g = g @ layers[i][0].swapaxes(-1, -2)
        if g_hidden is not None and i == len(layers) - 1:
            g = g + g_hidden
        if i > 0:
            g = g * masks[i - 1]
    if frozen:
        return g
    chunks.reverse()
    return np.concatenate(chunks, axis=-1)
