"""Sharpness probe, peer scoring, and the two aggregation tiers."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import helpers
from feddag import nets, sha
from feddag.params import DimensionMismatch, NonFiniteValues, ParamVector, param_mean

ARCH = nets.TaskArch(3, (5,), 4, 3)

# analytic mean CE of a uniform-logit two-class predictor, summed over two sets
INV_TWO_LN2 = 0.7213475204444817
# 0.5^0.3 / (0.5^0.3 + 1) evaluated in extended precision
SOFT_W0 = 0.4482004813398909


def snapshot(values, score, rnd):
    return sha.ScoredSnapshot(params=ParamVector(values), score=score, round=rnd)


class TestPerturbModel:
    def test_rho_zero_is_identity(self):
        rng = np.random.default_rng(0)
        theta = ParamVector(rng.normal(size=9))
        grad = ParamVector(rng.normal(size=9))
        out, perturbed = sha.perturb_model(theta, grad, 0.0)
        assert perturbed
        assert np.array_equal(out.values, theta.values)

    def test_unit_direction_example(self):
        theta = ParamVector(np.zeros(2))
        grad = ParamVector(np.array([3.0, 4.0]))
        out, perturbed = sha.perturb_model(theta, grad, 0.1)
        assert perturbed
        np.testing.assert_allclose(out.values, [0.06, 0.08], rtol=1e-14)

    def test_direction_only_dependence(self):
        rng = np.random.default_rng(1)
        theta = ParamVector(rng.normal(size=11))
        grad = rng.normal(size=11)
        a, _ = sha.perturb_model(theta, ParamVector(grad), 0.05)
        b, _ = sha.perturb_model(theta, ParamVector(2.0 * grad), 0.05)
        assert np.array_equal(a.values, b.values)

    def test_vanishing_gradient_skips_probe(self):
        theta = ParamVector(np.ones(4))
        grad = ParamVector(np.full(4, 1e-13))
        out, perturbed = sha.perturb_model(theta, grad, 0.1)
        assert not perturbed
        assert out is theta

    def test_negative_rho_rejected(self):
        theta = ParamVector(np.ones(2))
        with pytest.raises(ValueError):
            sha.perturb_model(theta, theta, -0.01)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            sha.perturb_model(ParamVector(np.ones(3)), ParamVector(np.ones(5)), 0.1)


def uniform_logit_params(arch):
    """All-zero weights emit identical logits for every class."""
    return ParamVector(np.zeros(arch.param_count()))


class TestEvaluateScore:
    def test_uniform_logit_analytic_example(self):
        arch = nets.TaskArch(3, (5,), 4, 2)
        rng = np.random.default_rng(2)
        val_sets = [
            (rng.uniform(size=(6, 3)), rng.integers(0, 2, size=6)),
            (rng.uniform(size=(4, 3)), rng.integers(0, 2, size=4)),
        ]
        result = sha.evaluate_score(uniform_logit_params(arch), arch, val_sets)
        assert not result.near_perfect
        assert result.score == pytest.approx(INV_TWO_LN2, abs=1e-15)

    def test_single_set_mean_loss_two(self):
        # zero feature path plus a classifier bias of ln(e^2 - 1) on the
        # wrong class makes every sample's loss exactly 2 nats
        arch = nets.TaskArch(2, (), 2, 2)
        values = np.zeros(arch.param_count())
        values[-1] = np.log(np.expm1(2.0))
        X = np.random.default_rng(3).uniform(size=(5, 2))
        y = np.zeros(5, dtype=np.int64)
        result = sha.evaluate_score(ParamVector(values), arch, [(X, y)])
        assert result.score == pytest.approx(0.5, rel=1e-12)

    def test_matches_reference_loss_sum(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            theta = nets.init_params(ARCH, rng)
            val_sets = [
                (rng.uniform(size=(n, 3)), rng.integers(0, 3, size=n))
                for n in rng.integers(2, 7, size=3)
            ]
            total = 0.0
            for xs, ys in val_sets:
                _, logits = nets.task_apply(theta, ARCH, xs)
                total += helpers.ce_mean_ref(logits, ys)
            result = sha.evaluate_score(theta, ARCH, val_sets)
            assert result.score == pytest.approx(1.0 / total, rel=1e-12)

    def test_near_perfect_total_is_capped_and_flagged(self):
        # saturated correct-class bias drives the total loss below 1e-9
        arch = nets.TaskArch(2, (), 2, 2)
        values = np.zeros(arch.param_count())
        values[-2] = 100.0
        X = np.random.default_rng(5).uniform(size=(4, 2))
        y = np.zeros(4, dtype=np.int64)
        result = sha.evaluate_score(ParamVector(values), arch, [(X, y)])
        assert result == sha.ScoreResult(sha.SCORE_CAP, True)

    def test_perturbation_identity_composes(self):
        rng = np.random.default_rng(6)
        theta = nets.init_params(ARCH, rng)
        grad = ParamVector(rng.normal(size=theta.dim))
        val_sets = [(rng.uniform(size=(5, 3)), rng.integers(0, 3, size=5))]
        probed, _ = sha.perturb_model(theta, grad, 0.0)
        assert sha.evaluate_score(probed, ARCH, val_sets) == sha.evaluate_score(
            theta, ARCH, val_sets
        )

    def test_empty_inputs_rejected(self):
        theta = uniform_logit_params(ARCH)
        with pytest.raises(ValueError):
            sha.evaluate_score(theta, ARCH, [])
        X = np.zeros((0, 3))
        with pytest.raises(ValueError):
            sha.evaluate_score(theta, ARCH, [(X, np.zeros(0, dtype=np.int64))])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_rejected(self):
        theta = ParamVector(np.full(ARCH.param_count(), 1e300))
        X = np.random.default_rng(7).uniform(size=(3, 3))
        with pytest.raises(ValueError):
            sha.evaluate_score(theta, ARCH, [(X, np.zeros(3, dtype=np.int64))])


def latest_k_oracle(current, history, k):
    """Brute-force the densest qualifying subset: among all same-size subsets
    of better-scoring entries, the latest-rounds one is the unique choice."""
    qualifying = [s for s in history if s.score > current.score]
    take = min(k, len(qualifying))
    if take == 0:
        return current.params.values.copy(), current.score
    best = max(
        itertools.combinations(qualifying, take),
        key=lambda combo: sum(s.round for s in combo),
    )
    pool = list(best) + [current]
    params = np.mean([s.params.values for s in pool], axis=0)
    return params, float(np.mean([s.score for s in pool]))


class TestWithinClientAggregate:
    def test_single_qualifying_merge_example(self):
        current = snapshot(np.full(2, 2.0), 0.5, rnd=2)
        history = [snapshot(np.zeros(2), 0.7, rnd=1)]
        merged, new_history = sha.within_client_aggregate(current, history, k=4, history_cap=8)
        assert np.array_equal(merged.params.values, np.ones(2))
        assert merged.score == pytest.approx(0.6, abs=1e-15)
        assert new_history == history + [current]

    def test_latest_entry_wins_at_k_one(self):
        history = [
            snapshot(np.array([1.0, 1.0]), 0.2, rnd=1),
            snapshot(np.array([3.0, 5.0]), 0.6, rnd=2),
            snapshot(np.array([4.0, 8.0]), 0.8, rnd=3),
        ]
        current = snapshot(np.array([0.0, 2.0]), 0.5, rnd=4)
        merged, _ = sha.within_client_aggregate(current, history, k=1, history_cap=8)
        assert np.array_equal(merged.params.values, np.array([2.0, 5.0]))
        assert merged.score == pytest.approx(0.65, abs=1e-15)

    def test_no_qualifying_entries_is_identity(self):
        current = snapshot(np.ones(3), 0.9, rnd=5)
        history = [snapshot(np.zeros(3), 0.4, rnd=1), snapshot(np.full(3, 2.0), 0.8, rnd=2)]
        merged, new_history = sha.within_client_aggregate(current, history, k=4, history_cap=8)
        assert merged is current
        assert new_history == history + [current]

    def test_k_zero_is_identity(self):
        current = snapshot(np.ones(3), 0.1, rnd=3)
        history = [snapshot(np.zeros(3), 0.9, rnd=1)]
        merged, new_history = sha.within_client_aggregate(current, history, k=0, history_cap=8)
        assert merged is current
        assert new_history == history + [current]

    def test_history_cap_evicts_oldest_first(self):
        history = [snapshot(np.full(2, float(r)), 0.1 * r, rnd=r) for r in range(1, 4)]
        current = snapshot(np.zeros(2), 0.05, rnd=4)
        _, new_history = sha.within_client_aggregate(current, history, k=0, history_cap=3)
        assert [s.round for s in new_history] == [2, 3, 4]

    def test_matches_brute_force_selection(self):
        rng = np.random.default_rng(8)
        for trial in range(60):
            n_hist = int(rng.integers(0, 6))
            history = [
                snapshot(rng.normal(size=4), float(rng.uniform(0.05, 1.0)), rnd=r)
                for r in range(1, n_hist + 1)
            ]
            current = snapshot(rng.normal(size=4), float(rng.uniform(0.05, 1.0)), rnd=n_hist + 1)
            k = int(rng.integers(0, 5))
            cap = int(rng.integers(1, 7))
            merged, new_history = sha.within_client_aggregate(current, history, k, cap)
            params_ref, score_ref = latest_k_oracle(current, history, k)
            np.testing.assert_allclose(merged.params.values, params_ref, rtol=1e-14, atol=1e-15)
            assert merged.score == pytest.approx(score_ref, rel=1e-14)
            assert new_history == (history + [current])[-cap:]


class TestSoftmaxWeights:
    def test_beta_zero_is_exactly_uniform(self):
        for n in (1, 2, 3, 5):
            w = sha.softmax_weights(list(np.random.default_rng(n).uniform(0.1, 9.0, n)), 0.0)
            assert np.array_equal(w.values, np.full(n, 1.0 / n))

    def test_equal_scores_are_uniform_for_any_beta(self):
        for beta in (0.0, 0.3, 1.0, 4.0):
            w = sha.softmax_weights([0.37] * 4, beta)
            np.testing.assert_allclose(w.values, 0.25, rtol=1e-15)

    def test_proportional_example(self):
        w = sha.softmax_weights([1.0, 2.0], 1.0)
        assert np.array_equal(w.values, np.array([1.0 / 3.0, 2.0 / 3.0]))

    def test_soft_balance_example(self):
        w = sha.softmax_weights([0.5, 1.0], 0.3)
        np.testing.assert_allclose(w.values, [SOFT_W0, 1.0 - SOFT_W0], atol=1e-12)

    def test_simplex_property(self):
        rng = np.random.default_rng(9)
        for trial in range(200):
            n = int(rng.integers(1, 9))
            scores = rng.uniform(1e-3, 1e3, size=n)
            beta = float(rng.uniform(0.0, 10.0))
            w = sha.softmax_weights(list(scores), beta)
            assert np.all(w.values >= 0.0)
            assert abs(w.values.sum() - 1.0) <= 1e-12

    def test_monotone_in_scores(self):
        rng = np.random.default_rng(10)
        for trial in range(40):
            scores = rng.uniform(0.1, 5.0, size=5)
            w = sha.softmax_weights(list(scores), float(rng.uniform(0.1, 6.0))).values
            for i in range(5):
                for j in range(5):
                    if scores[i] > scores[j]:
                        assert w[i] > w[j]

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        for scale in (1e-3, 7.0, 1e4):
            scores = rng.uniform(0.2, 3.0, size=6)
            a = sha.softmax_weights(list(scores), 0.7).values
            b = sha.softmax_weights(list(scores * scale), 0.7).values
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            sha.softmax_weights([], 1.0)
        with pytest.raises(ValueError):
            sha.softmax_weights([1.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            sha.softmax_weights([1.0, -2.0], 1.0)
        with pytest.raises(ValueError):
            sha.softmax_weights([1.0, float("nan")], 1.0)
        with pytest.raises(ValueError):
            sha.softmax_weights([1.0, 2.0], -0.5)


class TestAggregationWeights:
    def test_rejects_non_simplex(self):
        with pytest.raises(ValueError):
            sha.AggregationWeights([0.5, 0.6])
        with pytest.raises(ValueError):
            sha.AggregationWeights([-0.1, 1.1])
        with pytest.raises(ValueError):
            sha.AggregationWeights([])

    def test_values_read_only(self):
        w = sha.AggregationWeights([0.25, 0.75])
        with pytest.raises(ValueError):
            w.values[0] = 0.5


class TestAcrossClientAggregate:
    def test_single_client_is_exact(self):
        rng = np.random.default_rng(12)
        task = rng.normal(size=(1, 7))
        out = sha.across_client_aggregate(task, sha.AggregationWeights([1.0]))
        assert isinstance(out, ParamVector)
        assert np.array_equal(out.values, task[0])

    def test_identical_clients_any_weights(self):
        rng = np.random.default_rng(13)
        task = rng.normal(size=7)
        raw = rng.uniform(0.1, 1.0, size=4)
        weights = sha.AggregationWeights(raw / raw.sum())
        out = sha.across_client_aggregate(np.tile(task, (4, 1)), weights)
        np.testing.assert_allclose(out.values, task, rtol=1e-14, atol=1e-15)

    def test_weighted_pair_example(self):
        rows = [np.zeros(2), np.array([2.0, 4.0])]
        out = sha.across_client_aggregate(rows, sha.AggregationWeights([0.25, 0.75]))
        assert np.array_equal(out.values, np.array([1.5, 3.0]))

    def test_beta_zero_weights_match_plain_mean(self):
        rng = np.random.default_rng(14)
        rows = rng.normal(size=(5, 9))
        weights = sha.softmax_weights(list(rng.uniform(0.1, 3.0, size=5)), 0.0)
        out = sha.across_client_aggregate(rows, weights)
        assert np.abs(out.values - param_mean(rows).values).max() <= 1e-15

    def test_accumulates_client_by_client(self):
        # The sum runs in client order, one row at a time, so a list of rows
        # and the stacked array give the same bits as the plain loop.
        rng = np.random.default_rng(15)
        rows = rng.normal(size=(6, 11))
        weights = sha.softmax_weights(list(rng.uniform(0.1, 3.0, size=6)), 0.7)
        acc = np.zeros(11)
        for wi, row in zip(weights.values, rows):
            acc += wi * row
        assert np.array_equal(sha.across_client_aggregate(rows, weights).values, acc)
        assert np.array_equal(sha.across_client_aggregate(list(rows), weights).values, acc)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sha.across_client_aggregate(np.ones((1, 3)), sha.AggregationWeights([0.5, 0.5]))

    def test_dim_mismatch_rejected(self):
        weights = sha.AggregationWeights([0.5, 0.5])
        with pytest.raises(DimensionMismatch):
            sha.across_client_aggregate([np.ones(3), np.ones(4)], weights)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_sum_rejected(self):
        weights = sha.AggregationWeights([0.5, 0.5])
        with pytest.raises(NonFiniteValues):
            sha.across_client_aggregate(np.array([[1.0], [np.inf]]), weights)


class TestShaHyper:
    def test_defaults_are_valid(self):
        hyper = sha.ShaHyper()
        assert hyper.k == 4 and hyper.beta == 0.3

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            sha.ShaHyper(rho=-1e-9)
        with pytest.raises(ValueError):
            sha.ShaHyper(beta=-0.1)
        with pytest.raises(ValueError):
            sha.ShaHyper(k=-1)
        with pytest.raises(ValueError):
            sha.ShaHyper(history_cap=-2)

    def test_snapshot_score_must_be_positive(self):
        with pytest.raises(ValueError):
            snapshot(np.ones(2), 0.0, rnd=1)
        with pytest.raises(ValueError):
            snapshot(np.ones(2), float("inf"), rnd=1)
