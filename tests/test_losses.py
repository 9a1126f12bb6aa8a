"""Loss values against frozen analytic constants and structural properties."""

from __future__ import annotations

import math

import numpy as np
import pytest

from feddag.losses import batch_loss_cls
from scalar_losses import DegenerateFeatures, loss_cls, loss_dis, loss_sim, normalized_sq_dist

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
