"""In-place lockstep passes: the same bits as their allocating forms.

nets.mlp_backward writes each layer's gradient into a (C, P) block through
split_layers views, mlp_forward and mlp_backward add biases and apply the
relu and its mask in place, and sgd_step and ema_update update their rows
in place.  The bits must equal the earlier forms, which built the gradient
with np.concatenate and allocated every intermediate.
"""

from __future__ import annotations

import numpy as np
import pytest

from feddag import ndag, nets
from feddag.params import SgdRows, sgd_step

DEFAULT = (nets.TaskArch(16, (32, 32), 16, 3), nets.GenArch(16, (32,)))
WIDE = (nets.TaskArch(16, (64, 64), 32, 3), nets.GenArch(16, (32,)))
HYPER = ndag.NdagHyper(lr=0.02)


def concat_forward(layers, x):
    """mlp_forward as it was: every layer a fresh array."""
    acts = [x]
    for w, b in layers[:-1]:
        x = np.maximum(x @ w + b, 0.0)
        acts.append(x)
    wo, bo = layers[-1]
    return acts, x @ wo + bo


def concat_backward(layers, acts, g_out, g_hidden=None, frozen=False):
    """mlp_backward as it was: gradient chunks joined by np.concatenate."""
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
            g = g * (acts[i] > 0.0)
    if frozen:
        return g
    chunks.reverse()
    return np.concatenate(chunks, axis=-1)


def stacked_params(arch, clients, rng):
    """(C, P) rows of distinct initial models, or one flat (P,) vector for clients None."""
    rows = np.stack([nets.init_params(arch, rng).values for _ in range(clients or 1)])
    # Nonzero biases, so the bias terms of the forward pass are exercised.
    rows += rng.normal(0.0, 0.05, size=rows.shape)
    return rows[0] if clients is None else rows


def batch(arch, clients, n, rng):
    lead = () if clients is None else (clients,)
    return rng.uniform(0.0, 1.0, size=(*lead, n, arch.input_dim))


@pytest.mark.parametrize("arches", [DEFAULT, WIDE], ids=["default", "wide"])
@pytest.mark.parametrize("clients", [None, 1, 4], ids=["flat", "C1", "C4"])
@pytest.mark.parametrize("net", ["task", "gen"])
@pytest.mark.parametrize("frozen", [False, True], ids=["trained", "frozen"])
def test_backward_into_block_equals_concatenating_form(arches, clients, net, frozen):
    arch = arches[0] if net == "task" else arches[1]
    for seed in range(5):
        rng = np.random.default_rng([77, seed])
        values = stacked_params(arch, clients, rng)
        layers = nets.split_layers(values, arch.layer_dims())
        x = batch(arch, clients, 1 + 15 * seed, rng)
        acts, out = nets.mlp_forward(layers, x)
        ref_acts, ref_out = concat_forward(layers, x)
        assert [a.tobytes() for a in acts] == [a.tobytes() for a in ref_acts]
        assert out.tobytes() == ref_out.tobytes()

        g_out = rng.normal(size=out.shape)
        # The task net's feature loss enters as g_hidden; the generator has none.
        g_hidden = rng.normal(size=acts[-1].shape) if net == "task" else None
        inputs = [g_out.copy(), None if g_hidden is None else g_hidden.copy()]
        expected = concat_backward(layers, acts, g_out, g_hidden, frozen)
        if frozen:
            got = nets.mlp_backward(layers, acts, g_out, g_hidden)
        else:
            block = np.full(values.shape, np.nan)
            got = nets.mlp_backward(layers, acts, g_out, g_hidden, out=block)
            assert got is block
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert g_out.tobytes() == inputs[0].tobytes()
        if g_hidden is not None:
            assert g_hidden.tobytes() == inputs[1].tobytes()


def test_sgd_and_ema_match_their_allocating_forms():
    rng = np.random.default_rng(5)
    params = rng.normal(size=(4, 50))
    rows = SgdRows(params.copy())
    ref_p, ref_buf = params.copy(), np.zeros_like(params)
    for _ in range(4):
        grads = rng.normal(size=params.shape)
        sgd_step(rows, grads, 0.05, 0.9, 5e-4)
        g = 5e-4 * ref_p
        g += grads
        ref_buf *= 0.9
        ref_buf += g
        ref_p -= 0.05 * ref_buf
        assert rows.params.tobytes() == ref_p.tobytes()
        assert rows.buf.tobytes() == ref_buf.tobytes()
        assert rows.grad.tobytes() == grads.tobytes()

    teacher = rng.normal(size=params.shape)
    expected = teacher * 0.999
    expected += (1.0 - 0.999) * rows.params
    ndag.ema_update(teacher, rows.params, 0.999)
    assert teacher.tobytes() == expected.tobytes()


def test_taken_rows_write_their_gradients_into_the_round_block():
    rng = np.random.default_rng(8)
    rows = SgdRows(rng.normal(size=(4, 3)))
    grads = rng.normal(size=(4, 3))
    sgd_step(rows.take(slice(1, 3)), grads[1:3], 0.1, 0.0, 0.0)
    assert rows.grad[1:3].tolist() == grads[1:3].tolist()
    part = rows.take(np.array([0, 3]))
    sgd_step(part, grads[[0, 3]], 0.1, 0.0, 0.0)
    rows.put(np.array([0, 3]), part)
    assert rows.grad.tolist() == grads.tolist()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_input_reaches_the_row_checks():
    task_arch = WIDE[0]
    rng = np.random.default_rng(3)
    stack = ndag.ClientStack(SgdRows(stacked_params(task_arch, 4, rng)))
    x = batch(task_arch, 4, 32, rng)
    x[2, 5, 3] = np.nan
    y = rng.integers(0, task_arch.num_classes, size=(4, 32))
    ndag.plain_step(stack, task_arch, x, y, HYPER)
    assert list(stack.errors) == [2]
    assert "plain step: non-finite parameters or gradient" in str(stack.errors[2])
    finite = np.isfinite(stack.student.grad).all(axis=1)
    assert finite.tolist() == [True, True, False, True]
