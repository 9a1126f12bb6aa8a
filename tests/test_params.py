"""Parameter-vector algebra and the momentum-SGD update rule."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from feddag.params import (
    DimensionMismatch,
    NonFiniteValues,
    ParamVector,
    SgdRows,
    param_mean,
    sgd_step,
)
from sha_oracle import param_axpy


def vec(*xs):
    return ParamVector(np.array(xs, dtype=np.float64))


def rows(*vectors):
    """One-per-row SGD stack of the given parameter vectors, momentum at zero."""
    return SgdRows(np.array(vectors, dtype=np.float64))


def grads(*vectors):
    return np.array(vectors, dtype=np.float64)


class TestParamVector:
    def test_values_are_immutable(self):
        v = vec(1.0, 2.0)
        with pytest.raises(ValueError):
            v.values[0] = 5.0

    def test_constructor_copies(self):
        src = np.array([1.0, 2.0])
        v = ParamVector(src)
        src[0] = 99.0
        assert v.values[0] == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ParamVector(np.array([]))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteValues):
            vec(1.0, np.nan)
        with pytest.raises(NonFiniteValues):
            vec(np.inf, 0.0)

    def test_pickle_round_trip_is_read_only_and_checked(self):
        back = pickle.loads(pickle.dumps(vec(1.0, 2.0)))
        assert isinstance(back, ParamVector)
        assert back.values.tolist() == [1.0, 2.0]
        assert not back.values.flags.writeable
        # Unpickling runs the constructor's checks: patch the stored 2.0 to NaN.
        blob = pickle.dumps(vec(1.0, 2.0))
        nan_blob = blob.replace(np.float64(2.0).tobytes(), np.float64(np.nan).tobytes())
        assert nan_blob != blob
        with pytest.raises(NonFiniteValues):
            pickle.loads(nan_blob)

    def test_dim_and_len(self):
        v = vec(1.0, 2.0, 3.0)
        assert len(v) == 3
        assert repr(v) == "ParamVector(dim=3)"


class TestAlgebra:
    def test_axpy_example(self):
        out = param_axpy(2.0, vec(1.0, 2.0), vec(3.0, 4.0))
        assert out.values.tolist() == [5.0, 8.0]

    def test_mean_single_is_identity(self):
        v = vec(1.5, -2.5)
        assert np.array_equal(param_mean(v.values[None]).values, v.values)

    def test_mean_example(self):
        out = param_mean(np.array([[0.0, 0.0], [2.0, 2.0]]))
        assert out.values.tolist() == [1.0, 1.0]

    def test_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            param_mean(np.empty((0, 2)))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            param_axpy(1.0, vec(1.0), vec(1.0, 2.0))


class TestSgdStep:
    def test_zero_grad_zero_wd_unchanged(self):
        p = rows((1.0, -2.0))
        ok = sgd_step(p, grads((0.0, 0.0)), 0.1, 0.9, 0.0)
        assert p.params.tolist() == [[1.0, -2.0]]
        assert ok.tolist() == [True]

    def test_plain_gradient_descent(self):
        p = rows((1.0, 1.0), (0.0, 2.0))
        sgd_step(p, grads((2.0, -4.0), (1.0, 0.0)), 0.1, 0.0, 0.0)
        np.testing.assert_allclose(p.params, [[0.8, 1.4], [-0.1, 2.0]], rtol=0, atol=1e-15)

    def test_two_momentum_steps_displacement(self):
        # constant grad g, momentum 0.9: buf goes g then 1.9 g, so the total
        # displacement after two steps is lr * g * 2.9
        p = rows((0.0, 0.0))
        g = grads((1.0, -2.0))
        lr = 0.01
        sgd_step(p, g, lr, 0.9, 0.0)
        sgd_step(p, g, lr, 0.9, 0.0)
        np.testing.assert_allclose(p.params, -lr * 2.9 * g, rtol=0, atol=1e-15)

    def test_weight_decay_folded_into_gradient(self):
        p = rows((10.0,))
        sgd_step(p, grads((1.0,)), 0.1, 0.0, 0.01)
        # g_eff = 1 + 0.01 * 10 = 1.1
        np.testing.assert_allclose(p.params, [[10.0 - 0.1 * 1.1]], rtol=0, atol=1e-15)

    def test_state_is_not_aliased(self):
        # The caller keeps the gradient (a client's last one is uploaded for
        # the sharpness probe), so the in-place buffer must not share it.
        p = rows((1.0, 1.0))
        g = grads((1.0, 1.0))
        sgd_step(p, g, 0.1, 0.9, 0.0)
        assert not np.shares_memory(p.buf, g)
        sgd_step(p, g, 0.1, 0.9, 0.0)
        assert g.tolist() == [[1.0, 1.0]]

    def test_non_finite_grads_rejected(self):
        p = rows((1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
        ok = sgd_step(p, grads((1.0, np.nan), (0.0, 0.0), (np.inf, 0.0)), 0.1, 0.0, 0.0)
        assert ok.tolist() == [False, True, False]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("lr", [0.0, 1e-320, 10.0])
    def test_finite_mask_matches_checking_gradient_and_parameters(self, lr, momentum, weight_decay):
        # The step checks only the new parameters; the mask must equal the
        # one that also checks the gradient.  One row per (gradient entry,
        # buffer entry) pair, plus a finite row whose update overflows.
        entries = (0.0, 5e-324, np.inf, -np.inf, np.nan)
        pairs = [(g, b) for g in entries for b in entries if not (b and np.isfinite(b))]
        grad_rows = [[1.0, g] for g, _ in pairs] + [[1.0, -1e308]]
        buf_rows = [[0.5, b] for _, b in pairs] + [[0.0, 0.0]]
        params = np.array([[1.0, -2.0]] * len(pairs) + [[1.0, 1e308]])
        gr = np.array(grad_rows)
        p = SgdRows(params.copy(), np.array(buf_rows))
        p.grad[...] = gr
        ok = sgd_step(p, p.grad, lr, momentum, weight_decay)

        ref_p, ref_buf = params.copy(), np.array(buf_rows)
        g = weight_decay * ref_p
        g += gr
        ref_buf *= momentum
        ref_buf += g
        ref_p -= lr * ref_buf
        want = np.isfinite(gr).all(axis=1) & np.isfinite(ref_p).all(axis=1)
        assert ok.tolist() == want.tolist()
        assert not ok[~np.isfinite(gr).all(axis=1)].any()
        assert np.array_equal(p.params, ref_p, equal_nan=True)
        assert np.array_equal(p.buf, ref_buf, equal_nan=True)

    def test_hyper_validation(self):
        with pytest.raises(DimensionMismatch):
            sgd_step(rows((1.0,)), grads((1.0, 2.0)), 0.1, 0.0, 0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_update_flagged(self):
        p = rows((1e308,), (1.0,))
        ok = sgd_step(p, grads((-1e308,), (1.0,)), 10.0, 0.0, 0.0)
        assert ok.tolist() == [False, True]


class TestSgdRows:
    def test_buffer_starts_at_zero(self):
        p = rows((1.0, 2.0), (3.0, 4.0))
        assert p.buf.tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert not np.shares_memory(p.buf, p.params)

    def test_take_slice_is_a_view_and_index_a_copy(self):
        p = rows((1.0,), (2.0,), (3.0,))
        sgd_step(p.take(slice(0, 2)), grads((1.0,), (1.0,)), 1.0, 0.0, 0.0)
        assert p.params.tolist() == [[0.0], [1.0], [3.0]]
        part = p.take(np.array([0, 2]))
        sgd_step(part, grads((1.0,), (1.0,)), 1.0, 0.0, 0.0)
        assert p.params.tolist() == [[0.0], [1.0], [3.0]]
        p.put(np.array([0, 2]), part)
        assert p.params.tolist() == [[-1.0], [1.0], [2.0]]
