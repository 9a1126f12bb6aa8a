"""Accuracy, weighted F1, rank AUC, and the paired sign test."""

from __future__ import annotations

import numpy as np
import pytest

from feddag import metrics, nets
from feddag.metrics import paired_compare, rank_auc, sign_test_p
from feddag.params import ParamVector

# Identity-ish net: no hidden layer, feature W = I on [0, 1] inputs (relu is
# a no-op there), classifier W = I.  Logits equal the input row, so tests
# control predictions and probabilities directly through xs.
ARCH_2 = nets.TaskArch(2, (), 2, 2)


def identity_params(arch: nets.TaskArch) -> ParamVector:
    eye = np.eye(arch.input_dim).reshape(-1)
    zeros = np.zeros(arch.input_dim)
    return ParamVector(np.concatenate([eye, zeros, eye, zeros]))


def pairwise_auc(scores, positives):
    """Brute-force P(score+ > score-) with ties counting one half."""
    pos = [s for s, p in zip(scores, positives) if p]
    neg = [s for s, p in zip(scores, positives) if not p]
    total = 0.0
    for sp in pos:
        for sn in neg:
            total += 1.0 if sp > sn else (0.5 if sp == sn else 0.0)
    return total / (len(pos) * len(neg))


class TestRankAuc:
    def test_worked_three_quarters_case(self):
        scores = np.array([0.9, 0.4, 0.6, 0.1])
        labels = np.array([True, True, False, False])
        assert rank_auc(scores, labels) == 0.75

    def test_perfect_and_inverted(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([False, False, True, True])
        assert rank_auc(scores, labels) == 1.0
        assert rank_auc(scores, ~labels) == 0.0

    def test_all_tied_is_half(self):
        scores = np.full(6, 0.5)
        labels = np.array([True, False, True, False, False, True])
        assert rank_auc(scores, labels) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(2024)
        grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        for _ in range(200):
            n = int(rng.integers(2, 9))
            scores = rng.choice(grid, size=n)
            labels = np.zeros(n, dtype=bool)
            labels[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = True
            want = pairwise_auc(scores, labels)
            assert rank_auc(scores, labels) == pytest.approx(want, abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(7)
        scores = rng.normal(size=40)
        labels = rng.random(40) < 0.4
        assert rank_auc(scores, labels) == rank_auc(np.exp(scores), labels)

    def test_needs_both_classes(self):
        with pytest.raises(ValueError, match="positive and negative"):
            rank_auc(np.array([0.1, 0.9]), np.array([True, True]))


class TestEvaluate:
    def test_perfect_predictions(self):
        xs = np.array([[0.9, 0.1], [0.1, 0.9], [0.8, 0.2], [0.3, 0.7]])
        ys = np.array([0, 1, 0, 1])
        res = metrics.evaluate(identity_params(ARCH_2), ARCH_2, xs, ys)
        assert res.acc == 1.0
        assert res.f1 == 1.0
        assert res.auc == 1.0
        assert res.n == 4
        assert res.support == (2, 2)
        assert res.warnings == ()

    def test_weighted_f1_hand_case(self):
        # preds = [0, 1, 0] against ys = [0, 1, 1]: both classes get
        # F1 = 2/3, so the support-weighted mean is 2/3 as well.
        xs = np.array([[0.9, 0.1], [0.1, 0.9], [0.8, 0.2]])
        ys = np.array([0, 1, 1])
        res = metrics.evaluate(identity_params(ARCH_2), ARCH_2, xs, ys)
        assert res.acc == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert res.f1 == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_f1_zero_when_class_never_predicted_right(self):
        xs = np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.3]])
        ys = np.array([1, 1, 1])
        res = metrics.evaluate(identity_params(ARCH_2), ARCH_2, xs, ys)
        assert res.acc == 0.0
        assert res.f1 == 0.0

    def test_two_class_auc_equals_rank_auc(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(0.05, 0.95, size=(30, 2))
        ys = rng.integers(0, 2, size=30)
        if len(np.unique(ys)) < 2:  # pragma: no cover - seed gives both
            ys[0] = 1 - ys[0]
        res = metrics.evaluate(identity_params(ARCH_2), ARCH_2, xs, ys)
        # For two classes both one-vs-rest terms equal the plain AUC of the
        # positive-class probability, so the weighted mean collapses to it.
        z = xs - xs.max(axis=1, keepdims=True)
        p1 = np.exp(z[:, 1]) / np.exp(z).sum(axis=1)
        assert res.auc == pytest.approx(rank_auc(p1, ys == 1), abs=1e-15)

    def test_absent_class_warns_and_is_excluded(self):
        arch = nets.TaskArch(3, (), 3, 3)
        xs = np.array([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0], [0.8, 0.15, 0.05]])
        ys = np.array([0, 1, 0])
        res = metrics.evaluate(identity_params(arch), arch, xs, ys)
        assert res.support == (2, 1, 0)
        assert any("excluded" in w and "[2]" in w for w in res.warnings)
        assert res.acc == 1.0
        assert res.f1 == 1.0

    def test_single_class_auc_is_none(self):
        xs = np.array([[0.9, 0.1], [0.8, 0.2]])
        ys = np.array([0, 0])
        res = metrics.evaluate(identity_params(ARCH_2), ARCH_2, xs, ys)
        assert res.auc is None
        assert any("AUC undefined" in w for w in res.warnings)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            metrics.evaluate(identity_params(ARCH_2), ARCH_2,
                             np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_out_of_range_labels_rejected(self):
        xs = np.array([[0.5, 0.5]])
        with pytest.raises(ValueError, match="out of range"):
            metrics.evaluate(identity_params(ARCH_2), ARCH_2, xs, np.array([2]))


class TestSignTest:
    def test_five_zero(self):
        assert sign_test_p(5, 0) == 0.0625

    def test_four_one(self):
        assert sign_test_p(4, 1) == 0.375

    def test_balanced_is_one(self):
        assert sign_test_p(3, 3) == 1.0

    def test_no_informative_pairs(self):
        assert sign_test_p(0, 0) == 1.0

    def test_symmetric(self):
        for w, l in [(7, 2), (1, 9), (4, 4)]:
            assert sign_test_p(w, l) == sign_test_p(l, w)

    def test_binomial_tail_oracle(self):
        from math import comb
        rng = np.random.default_rng(5)
        for _ in range(50):
            w = int(rng.integers(0, 12))
            l = int(rng.integers(0, 12))
            n, k = w + l, min(w, l)
            want = 1.0 if n == 0 else min(1.0, 2.0 * sum(comb(n, i) for i in range(k + 1)) / 2.0**n)
            assert sign_test_p(w, l) == want


class TestPairedCompare:
    def test_counts_and_p_value(self):
        cmp = paired_compare([1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 3.0, 3.0, 3.0, 4.0])
        assert cmp.wins == 3
        assert cmp.losses == 1
        assert cmp.ties == 1
        assert cmp.mean_diff == pytest.approx(0.4, rel=1e-15)
        assert cmp.p_value == sign_test_p(3, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="differ in length"):
            paired_compare([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_needs_three_runs(self):
        with pytest.raises(ValueError, match="at least 3"):
            paired_compare([1.0, 2.0], [0.0, 0.0])
