"""Task and generator MLPs over flat parameter vectors.

The task net is feature extractor (relu stack, relu on the feature layer
too) plus a linear classifier head.  The generator is a relu stack with a
tanh output of the same width as its input, so its raw output lives in
(-1, 1) per coordinate.  Parameters are packed layer by layer as
(W row-major, b) into one flat vector; pack order is the contract every
gradient and aggregation routine relies on.

mlp_forward is the one forward pass: training, the teacher, the generator,
SHA scoring and evaluation all run it, with the relu max(z, 0).  It keeps
each layer's activations and nothing else; mlp_backward, the closed-form
batched backward pass of the training objectives, reads the relu masks off
those activations.  Every pass also takes a leading client axis: parameter
rows (C, P) with activations (C, B, d), each client's slice computed
exactly as it would be alone.
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
        for name in ("input_dim", "num_classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not all(d >= 1 for d in self.hidden_dims):
            raise ValueError(f"hidden_dims must be positive, got {list(self.hidden_dims)}")
        if self.feature_dim < 2:
            raise ValueError(
                f"feature_dim must be >= 2 for direction-based losses, got {self.feature_dim}"
            )

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
        # The config key of the generator's hidden widths is gen_hidden_dims.
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if not all(d >= 1 for d in self.hidden_dims):
            raise ValueError(f"gen_hidden_dims must be positive, got {list(self.hidden_dims)}")

    def layer_dims(self) -> list[tuple[int, int]]:
        widths = [self.input_dim, *self.hidden_dims, self.input_dim]
        return list(zip(widths[:-1], widths[1:]))

    def param_count(self) -> int:
        return sum((din + 1) * dout for din, dout in self.layer_dims())


def split_layers(values: np.ndarray, layer_dims) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views per layer of a flat vector (P,) or of stacked rows (C, P).

    For stacked rows W is (C, din, dout) and b is (C, 1, dout), so both
    broadcast over (C, B, din) inputs, one client per row; a flat vector
    gives W (din, dout) and b (1, dout).
    """
    need = sum((din + 1) * dout for din, dout in layer_dims)
    if values.shape[-1] != need:
        raise DimensionMismatch(f"params have {values.shape[-1]} entries, arch needs {need}")
    lead = values.shape[:-1]
    layers = []
    pos = 0
    for din, dout in layer_dims:
        mid = pos + din * dout
        w = values[..., pos:mid].reshape(*lead, din, dout)
        layers.append((w, values[..., None, mid : mid + dout]))
        pos = mid + dout
    return layers


def init_params(arch, rng: np.random.Generator) -> ParamVector:
    """Glorot-uniform weights, zero biases, drawn in pack order."""
    chunks = []
    for din, dout in arch.layer_dims():
        s = np.sqrt(6.0 / (din + dout))
        chunks.append(rng.uniform(-s, s, size=din * dout))
        chunks.append(np.zeros(dout))
    return ParamVector(np.concatenate(chunks))


def _checked_layers(params, arch, x_batch):
    """split_layers of a ParamVector with inputs (B, d), or of rows (C, P) with (C, B, d)."""
    values = params.values if isinstance(params, ParamVector) else params
    x = np.asarray(x_batch, dtype=np.float64)
    if x.ndim != values.ndim + 1 or x.shape[-1] != arch.input_dim:
        lead = "C, " * (values.ndim - 1)
        raise DimensionMismatch(
            f"expected inputs of shape ({lead}B, {arch.input_dim}), got {x.shape}"
        )
    return split_layers(values, arch.layer_dims()), x


def task_apply(params, arch: TaskArch, x_batch: np.ndarray):
    """Batched forward pass: returns (features (B, F), logits (B, K)).

    Stacked parameter rows (C, P) with inputs (C, B, d) give (C, B, F) and
    (C, B, K).
    """
    acts, logits = mlp_forward(*_checked_layers(params, arch, x_batch))
    return acts[-1], logits


def gen_apply(params, arch: GenArch, x_batch: np.ndarray) -> np.ndarray:
    """Batched generator output in (-1, 1)^input_dim, stacked like task_apply."""
    return np.tanh(mlp_forward(*_checked_layers(params, arch, x_batch))[1])


def mlp_forward(layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray):
    """Batched pass through relu hidden layers and a linear last layer.

    Takes split_layers output and inputs (B, d), or stacked (C, B, d).
    Returns (acts, out) for mlp_backward: acts[i] is the input of layer i
    (so acts[-1] is the task net's feature matrix) and out the last layer's
    pre-activation.
    """
    acts = [x]
    for w, b in layers[:-1]:
        x = x @ w
        x += b
        np.maximum(x, 0.0, out=x)
        acts.append(x)
    wo, bo = layers[-1]
    out = x @ wo
    out += bo
    return acts, out


def mlp_backward(layers, acts, g_out, g_hidden=None, out=None):
    """Backprop a scalar objective through an mlp_forward pass.

    g_out is the objective's gradient w.r.t. out; g_hidden, if given, is an
    extra gradient w.r.t. acts[-1] (a loss on the task net's features).
    out is a (P,) or stacked (C, P) block that receives the flat parameter
    gradient in pack order, each layer's part written through its
    split_layers views, and is returned; with out None the net is frozen
    and the gradient w.r.t. its input is returned instead.  A relu passes
    gradient where its output is > 0, the same test as its pre-activation
    > 0, so the relu masks are read off acts.
    """
    grads = None if out is None else split_layers(out, [w.shape[-2:] for w, _ in layers])
    g = g_out
    for i in range(len(layers) - 1, -1, -1):
        if grads is not None:
            gw, gb = grads[i]
            np.sum(g, axis=-2, keepdims=True, out=gb)
            np.matmul(acts[i].swapaxes(-1, -2), g, out=gw)
            if i == 0:
                return out
        g = g @ layers[i][0].swapaxes(-1, -2)
        if g_hidden is not None and i == len(layers) - 1:
            g += g_hidden
        if i > 0:
            g *= acts[i] > 0.0
    return g
