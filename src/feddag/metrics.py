"""Evaluation metrics and the across-seed paired comparison.

Accuracy, support-weighted F1 and support-weighted one-vs-rest AUC; classes
absent from the dataset are excluded from the weighted means (with a
warning) rather than polluting them with zeros.  AUC uses average ranks, so
ties count one half.  paired_compare reports the mean metric difference, a
win count and an exact two-sided sign test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import nets
from .params import ParamVector


@dataclass(frozen=True)
class EvalResult:
    acc: float
    f1: float
    auc: float | None
    n: int
    support: tuple[int, ...]
    warnings: tuple[str, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class PairedComparison:
    mean_diff: float
    wins: int
    losses: int
    ties: int
    p_value: float


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their group's average rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def rank_auc(scores: np.ndarray, positives: np.ndarray) -> float:
    """One-vs-rest AUC from average ranks; equals P(score+ > score-) + ties/2."""
    pos = np.asarray(positives, dtype=bool)
    n_pos = int(pos.sum())
    n_neg = int(pos.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both positive and negative examples")
    ranks = _average_ranks(np.asarray(scores, dtype=np.float64))
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def evaluate(
    params: ParamVector, arch: nets.TaskArch, xs: np.ndarray, ys: np.ndarray
) -> EvalResult:
    """Weighted ACC/F1/AUC of a task model on a labeled set."""
    ys = np.asarray(ys)
    if xs.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if ys.min() < 0 or ys.max() >= arch.num_classes:
        raise ValueError("labels out of range for the architecture")
    _, logits = nets.task_apply(params, arch, xs)
    probs = _softmax_rows(logits)
    preds = logits.argmax(axis=1)
    n = len(ys)
    support = tuple(int((ys == c).sum()) for c in range(arch.num_classes))
    warnings = []
    absent = [c for c, s in enumerate(support) if s == 0]
    if absent:
        warnings.append(f"classes absent from dataset, excluded from means: {absent}")

    acc = float((preds == ys).mean())

    f1_sum = 0.0
    for c, sup in enumerate(support):
        if sup == 0:
            continue
        tp = int(((preds == c) & (ys == c)).sum())
        fp = int(((preds == c) & (ys != c)).sum())
        fn = sup - tp
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn)
        f1_c = 2.0 * prec * rec / (prec + rec) if prec + rec else 0.0
        f1_sum += sup * f1_c
    f1 = f1_sum / n

    present = [c for c, s in enumerate(support) if s > 0]
    if len(present) < 2:
        warnings.append("single-class dataset: AUC undefined")
        auc = None
    else:
        auc = sum(support[c] * rank_auc(probs[:, c], ys == c) for c in present) / n

    return EvalResult(
        acc=acc, f1=float(f1), auc=auc, n=n, support=support, warnings=tuple(warnings)
    )


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign test p-value, ties already removed."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(comb(n, i) for i in range(k + 1)) / 2.0**n
    return min(1.0, 2.0 * tail)


def paired_compare(runs_a: list[float], runs_b: list[float]) -> PairedComparison:
    """Per-seed paired comparison of a metric (a vs b, positive favors a)."""
    if len(runs_a) != len(runs_b):
        raise ValueError(f"paired runs differ in length: {len(runs_a)} vs {len(runs_b)}")
    if len(runs_a) < 3:
        raise ValueError("paired_compare needs at least 3 paired runs")
    diffs = np.asarray(runs_a, dtype=np.float64) - np.asarray(runs_b, dtype=np.float64)
    wins = int((diffs > 0).sum())
    losses = int((diffs < 0).sum())
    ties = int((diffs == 0).sum())
    return PairedComparison(
        mean_diff=float(diffs.mean()),
        wins=wins,
        losses=losses,
        ties=ties,
        p_value=sign_test_p(wins, losses),
    )
