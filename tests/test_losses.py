"""Loss values against frozen analytic constants and structural properties."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from feddag import ndag
from scalar_losses import DegenerateFeatures, loss_cls, loss_dis, loss_sim, normalized_sq_dist
from sha_oracle import batch_loss_cls

# Frozen oracles, each computed independently at high precision:
#   dist((1,0),(1,1)) = 2 - sqrt(2); uniform 3-class CE = ln 3;
#   CE of logits (10,0) at label 0 = ln(1 + e^-10).
TWO_MINUS_SQRT2 = 0.5857864376269049
LN3 = 1.0986122886681098
LN2 = 0.6931471805599453
LN_1P_EXP_NEG10 = 4.5398899216864646e-05


class TestNormalizedSqDist:
    def test_identical_vectors_are_zero(self):
        assert normalized_sq_dist([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_antipodal_unit_vectors(self):
        assert normalized_sq_dist([1.0, 0.0], [-1.0, 0.0]) == 4.0

    def test_frozen_oracle_value(self):
        assert abs(normalized_sq_dist([1.0, 0.0], [1.0, 1.0]) - TWO_MINUS_SQRT2) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            f, h = rng.normal(size=4), rng.normal(size=4)
            assert normalized_sq_dist(f, h) == normalized_sq_dist(h, f)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        for c in (1e-6, 0.5, 3.0, 1e6):
            for _ in range(20):
                f, h = rng.normal(size=5), rng.normal(size=5)
                assert abs(normalized_sq_dist(c * f, h) - normalized_sq_dist(f, h)) <= 1e-12

    def test_range_is_zero_to_four(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            d = normalized_sq_dist(rng.normal(size=3), rng.normal(size=3))
            assert 0.0 <= d <= 4.0

    def test_degenerate_vectors_rejected(self):
        with pytest.raises(DegenerateFeatures):
            normalized_sq_dist([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(DegenerateFeatures):
            normalized_sq_dist([1.0, 0.0], [1e-13, 0.0])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            normalized_sq_dist([1.0, 0.0], [1.0, 0.0, 0.0])


class TestLossDis:
    def test_identical_is_zero(self):
        assert loss_dis([2.0, 1.0], [2.0, 1.0], 0.1) == 0.0

    def test_cap_branch_orthogonal_unit_vectors(self):
        # raw distance 2 capped at m
        assert loss_dis([1.0, 0.0], [0.0, 1.0], 0.1) == 0.1

    def test_uncapped_branch(self):
        assert abs(loss_dis([1.0, 0.0], [1.0, 1.0], 4.0) - TWO_MINUS_SQRT2) < 1e-12

    def test_never_exceeds_cap(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            m = float(rng.uniform(0.01, 4.0))
            assert loss_dis(rng.normal(size=3), rng.normal(size=3), m) <= m

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            loss_dis([1.0, 0.0], [0.0, 1.0], 0.0)


class TestLossSim:
    def test_equals_uncapped_distance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            f, h = rng.normal(size=4), rng.normal(size=4)
            assert loss_sim(f, h) == normalized_sq_dist(f, h)

    def test_frozen_oracle_value(self):
        assert abs(loss_sim([1.0, 0.0], [1.0, 1.0]) - TWO_MINUS_SQRT2) < 1e-12

    def test_antipodal(self):
        assert loss_sim([1.0, 0.0], [-1.0, 0.0]) == 4.0


class TestLossCls:
    def test_uniform_three_class(self):
        assert abs(loss_cls([0.7, 0.7, 0.7], 1) - LN3) < 1e-12

    def test_large_margin_oracle(self):
        assert abs(loss_cls([10.0, 0.0], 0) - LN_1P_EXP_NEG10) < 1e-12

    def test_two_class_tie(self):
        assert abs(loss_cls([0.0, 0.0], 1) - LN2) < 1e-12

    def test_nonnegative_and_vanishing_margin_limit(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            z = rng.normal(size=4)
            assert loss_cls(z, int(rng.integers(0, 4))) >= 0.0
        assert loss_cls([40.0, 0.0, 0.0], 0) < 1e-12

    def test_max_shift_stability(self):
        val = loss_cls([1000.0, 999.0], 0)
        assert math.isfinite(val)
        assert abs(val - math.log(1.0 + math.exp(-1.0))) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            loss_cls([0.0, 1.0], 2)
        with pytest.raises(ValueError):
            loss_cls([0.0, 1.0], -1)


class TestBatchLossCls:
    def test_mean_of_per_sample_losses(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(7, 3))
        y = rng.integers(0, 3, size=7)
        per_sample = [loss_cls(z[i], int(y[i])) for i in range(7)]
        assert abs(batch_loss_cls(z, y) - float(np.mean(per_sample))) < 1e-12

    def test_shape_and_label_guards(self):
        with pytest.raises(ValueError):
            batch_loss_cls(np.zeros((3, 2)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            batch_loss_cls(np.zeros((3, 2)), np.array([0, 1, 2]))

    def test_stacked_cross_entropy_is_bitwise_equal(self):
        # ndag.cross_entropy is the one cross-entropy the package has: each
        # client's slice of a stack, and a single matrix given a leading axis
        # of 1, must give the old 2-D loss's bits, for shared labels too.
        rng = np.random.default_rng(7)
        for n in (1, 2, 7, 40, 179, 700):
            for k in (2, 3, 5):
                for scale in (1e-3, 1.0, 30.0):
                    z = rng.normal(size=(4, n, k)) * scale
                    y = rng.integers(0, k, size=(4, n))
                    stacked, _ = ndag.cross_entropy(z, y)
                    shared, _ = ndag.cross_entropy(z, y[:1])
                    for c in range(4):
                        alone, _ = ndag.cross_entropy(z[c][None], y[c][None])
                        assert float(alone[0]) == batch_loss_cls(z[c], y[c])
                        assert float(stacked[c]) == batch_loss_cls(z[c], y[c])
                        assert float(shared[c]) == batch_loss_cls(z[c], y[0])

    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    def test_loss_only_cross_entropy_is_bitwise_equal(self, k):
        rng = np.random.default_rng(8)
        for n in (1, 2, 21, 179):
            for scale in (1e-3, 1.0, 30.0, 800.0):
                z = rng.normal(size=(4, n, k)) * scale
                y = rng.integers(0, k, size=(4, n))
                for labels in (y, y[:1]):
                    loss, _ = ndag.cross_entropy(z, labels)
                    assert ndag.cross_entropy_loss(z, labels).tobytes() == loss.tobytes()


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 1e308]


def special_rows(k, rng):
    """Logit rows of k classes drawn from SPECIAL, every combination where few enough."""
    if len(SPECIAL) ** k <= 4096:
        rows = np.array(list(itertools.product(SPECIAL, repeat=k)))
    else:
        rows = rng.choice(SPECIAL, size=(4096, k))
    return rows.reshape(4, -1, k)


class TestClassMax:
    """ndag._class_max, the running class-axis max that both cross-entropies shift by."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equals_the_reduction_bit_for_bit(self, k):
        # Ties, +-0.0, +-inf and NaN rows.  With more classes numpy's SIMD
        # reduction can return the other zero of a +-0.0 tie (from 9 classes
        # on an AVX-512 host); the next test covers those.
        z = special_rows(k, np.random.default_rng(k))
        assert ndag._class_max(z).tobytes() == z.max(axis=2).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("k", [2, 3, 5, 10, 16])
    def test_cross_entropy_bits_equal_the_reduction_form(self, k):
        rng = np.random.default_rng(k)
        z = special_rows(k, rng)
        y = rng.integers(0, k, size=z.shape[:2])
        assert np.array_equal(ndag._class_max(z), z.max(axis=2), equal_nan=True)
        loss, grad = ndag.cross_entropy(z, y)
        ref_loss, ref_grad = reduction_cross_entropy(z, y)
        assert loss.tobytes() == ref_loss.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()


class TestClassSum:
    """ndag._class_sum, the class-axis sum of the shifted exps in both cross-entropies."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("k", range(2, 13))
    def test_equals_the_reduction_bit_for_bit(self, k):
        # Normal logits at scales that underflow some exps, with tied rows and
        # -inf entries (exp 0, or NaN where a whole row is -inf).
        rng = np.random.default_rng(k)
        for scale in (1e-3, 1.0, 30.0, 800.0):
            z = rng.normal(size=(4, 179, k)) * scale
            z[:, :20] = z[:, :20, :1]
            z[rng.random(z.shape) < 0.2] = -np.inf
            z[:, -1] = -np.inf
            ez = np.exp(z - ndag._class_max(z)[:, :, None])
            assert ndag._class_sum(ez).tobytes() == ez.sum(axis=2, keepdims=True).tobytes()


def reduction_cross_entropy(logits, labels):
    """ndag.cross_entropy as it was, shifting by logits.max(axis=2)."""
    c, n, _ = logits.shape
    logp = logits - logits.max(axis=2, keepdims=True)
    dz = np.exp(logp)
    sez = dz.sum(axis=2, keepdims=True)
    logp -= np.log(sez)
    picked = (np.arange(c)[:, None], np.arange(n), labels)
    loss = -logp[picked].mean(axis=1)
    dz /= sez
    dz[picked] -= 1.0
    dz *= 1.0 / n
    return loss, dz
