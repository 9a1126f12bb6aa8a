"""Task and generator MLPs over flat parameter vectors.

The task net is feature extractor (relu stack, relu on the feature layer
too) plus a linear classifier head.  The generator is a relu stack with a
tanh output of the same width as its input, so its raw output lives in
(-1, 1) per coordinate.  Parameters are packed layer by layer as
(W row-major, b) into one flat vector; pack order is the contract every
gradient and aggregation routine relies on.  mlp_forward / mlp_backward are
the closed-form batched passes the training objectives backpropagate
through.
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
    need = sum((din + 1) * dout for din, dout in layer_dims)
    if values.size != need:
        raise DimensionMismatch(f"params have {values.size} entries, arch needs {need}")
    layers = []
    pos = 0
    for din, dout in layer_dims:
        w = values[pos : pos + din * dout].reshape(din, dout)
        pos += din * dout
        b = values[pos : pos + dout]
        pos += dout
        layers.append((w, b))
    if pos != values.size:
        raise DimensionMismatch(f"params have {values.size} entries, arch needs {pos}")
    return layers


def init_params(arch, rng: np.random.Generator) -> ParamVector:
    """Glorot-uniform weights, zero biases, drawn in pack order."""
    chunks = []
    for din, dout in arch.layer_dims():
        s = np.sqrt(6.0 / (din + dout))
        chunks.append(rng.uniform(-s, s, size=din * dout))
        chunks.append(np.zeros(dout))
    return ParamVector(np.concatenate(chunks))


def task_apply(params: ParamVector, arch: TaskArch, x_batch: np.ndarray):
    """Batched forward pass: returns (features (B, F), logits (B, C))."""
    x_batch = np.asarray(x_batch, dtype=np.float64)
    if x_batch.ndim != 2 or x_batch.shape[1] != arch.input_dim:
        raise DimensionMismatch(
            f"expected inputs of shape (B, {arch.input_dim}), got {x_batch.shape}"
        )
    layers = split_layers(params.values, arch.layer_dims())
    a = x_batch
    for w, b in layers[:-1]:
        a = np.maximum(a @ w + b, 0.0)
    wc, bc = layers[-1]
    return a, a @ wc + bc


def gen_apply(params: ParamVector, arch: GenArch, x_batch: np.ndarray) -> np.ndarray:
    """Batched generator output in (-1, 1)^input_dim."""
    x_batch = np.asarray(x_batch, dtype=np.float64)
    if x_batch.ndim != 2 or x_batch.shape[1] != arch.input_dim:
        raise DimensionMismatch(
            f"expected inputs of shape (B, {arch.input_dim}), got {x_batch.shape}"
        )
    layers = split_layers(params.values, arch.layer_dims())
    a = x_batch
    for w, b in layers[:-1]:
        a = np.maximum(a @ w + b, 0.0)
    wo, bo = layers[-1]
    return np.tanh(a @ wo + bo)


def mlp_forward(layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray):
    """Batched pass through relu hidden layers and a linear last layer.

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
    Returns the flat parameter gradient in pack order or, for a frozen net,
    the gradient w.r.t. its input instead.
    """
    chunks = []
    g = g_out
    for i in range(len(layers) - 1, -1, -1):
        if not frozen:
            chunks.append(g.sum(axis=0))
            chunks.append((acts[i].T @ g).reshape(-1))
            if i == 0:
                break
        g = g @ layers[i][0].T
        if g_hidden is not None and i == len(layers) - 1:
            g = g + g_hidden
        if i > 0:
            g = g * masks[i - 1]
    if frozen:
        return g
    chunks.reverse()
    return np.concatenate(chunks)
