"""Sharpness probe, peer scoring, and the two aggregation tiers."""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest

import helpers
import sha_oracle
from feddag import config, data, ndag, nets, protocol, sha
from feddag.params import DimensionMismatch, NonFiniteValues, ParamVector, param_mean

ARCH = nets.TaskArch(3, (5,), 4, 3)

# analytic mean CE of a uniform-logit two-class predictor, summed over two sets
INV_TWO_LN2 = 0.7213475204444817
# 0.5^0.3 / (0.5^0.3 + 1) evaluated in extended precision
SOFT_W0 = 0.4482004813398909


def snapshot(values, score):
    return sha.ScoredSnapshot(score=score, row=np.asarray(values, dtype=np.float64))


def probe_one(theta, grad, rho):
    """sha.probe_rows on a single row: (probed row, probed flag)."""
    rows, probed = sha.probe_rows(np.asarray(theta)[None], np.asarray(grad)[None], rho)
    return rows[0], bool(probed[0])


def score_one(values, arch, val_sets):
    """sha.evaluate_score of a single model scored on every given set."""
    [result] = sha.evaluate_score(np.asarray(values)[None], arch, val_sets, [[0]] * len(val_sets))
    return result


class TestPerturbModel:
    """sha.probe_rows, the sharpness probe that perturbs each model."""

    def test_rho_zero_is_identity(self):
        rng = np.random.default_rng(0)
        theta = rng.normal(size=9)
        grad = rng.normal(size=9)
        out, perturbed = probe_one(theta, grad, 0.0)
        assert perturbed
        assert np.array_equal(out, theta)

    def test_unit_direction_example(self):
        out, perturbed = probe_one(np.zeros(2), np.array([3.0, 4.0]), 0.1)
        assert perturbed
        np.testing.assert_allclose(out, [0.06, 0.08], rtol=1e-14)

    def test_direction_only_dependence(self):
        rng = np.random.default_rng(1)
        theta = rng.normal(size=11)
        grad = rng.normal(size=11)
        a, _ = probe_one(theta, grad, 0.05)
        b, _ = probe_one(theta, 2.0 * grad, 0.05)
        assert np.array_equal(a, b)

    def test_vanishing_gradient_skips_probe(self):
        theta = np.ones((2, 4))
        grads = np.array([np.full(4, 1e-13), np.ones(4)])
        rows, probed = sha.probe_rows(theta, grads, 0.1)
        assert probed.tolist() == [False, True]
        assert np.array_equal(rows[0], theta[0])
        assert np.array_equal(theta, np.ones((2, 4)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            sha.probe_rows(np.ones((1, 3)), np.ones((1, 5)), 0.1)

    def test_rows_match_per_vector_probe(self):
        rng = np.random.default_rng(16)
        theta = rng.normal(size=(5, 13))
        grads = rng.normal(size=(5, 13)) * 10.0 ** rng.uniform(-6, 2, size=(5, 1))
        grads[2] = 0.0
        for rho in (0.0, 1e-7, 0.05):
            rows, probed = sha.probe_rows(theta, grads, rho)
            for c in range(5):
                ref, flag = sha_oracle.perturb_model(
                    ParamVector(theta[c]), ParamVector(grads[c]), rho
                )
                assert np.array_equal(rows[c], ref.values)
                assert probed[c] == flag

    def test_norms_match_linalg_norm_bit_for_bit(self):
        # rho / ||g|| reaches every probed value, so the norm's bits matter.
        rng = np.random.default_rng(29)
        for trial in range(100):
            grads = rng.normal(size=(16, 2179)) * 10.0 ** rng.uniform(-8, 8, size=(16, 1))
            theta = np.zeros_like(grads)
            rows, probed = sha.probe_rows(theta, grads, 1.0)
            norms = np.array([np.linalg.norm(g) for g in grads])
            assert probed.all()
            assert np.array_equal(rows, (1.0 / norms)[:, None] * grads)


def uniform_logit_params(arch):
    """All-zero weights emit identical logits for every class."""
    return np.zeros(helpers.param_count(arch))


class TestEvaluateScore:
    def test_uniform_logit_analytic_example(self):
        arch = nets.TaskArch(3, (5,), 4, 2)
        rng = np.random.default_rng(2)
        val_sets = [
            (rng.uniform(size=(6, 3)), rng.integers(0, 2, size=6)),
            (rng.uniform(size=(4, 3)), rng.integers(0, 2, size=4)),
        ]
        result = score_one(uniform_logit_params(arch), arch, val_sets)
        assert not result.near_perfect
        assert result.score == pytest.approx(INV_TWO_LN2, abs=1e-15)

    def test_single_set_mean_loss_two(self):
        # zero feature path plus a classifier bias of ln(e^2 - 1) on the
        # wrong class makes every sample's loss exactly 2 nats
        arch = nets.TaskArch(2, (), 2, 2)
        values = np.zeros(helpers.param_count(arch))
        values[-1] = np.log(np.expm1(2.0))
        X = np.random.default_rng(3).uniform(size=(5, 2))
        y = np.zeros(5, dtype=np.int64)
        result = score_one(values, arch, [(X, y)])
        assert result.score == pytest.approx(0.5, rel=1e-12)

    def test_matches_reference_loss_sum(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            thetas = np.stack([nets.init_params(ARCH, rng).values for _ in range(3)])
            val_sets = [
                (rng.uniform(size=(n, 3)), rng.integers(0, 3, size=n))
                for n in rng.integers(2, 7, size=3)
            ]
            # row 0 on every set, row 1 on the first two, row 2 on the last
            scored_on = [[0, 1], [0, 1], [0, 2]]
            results = sha.evaluate_score(thetas, ARCH, val_sets, scored_on)
            for c, theta in enumerate(thetas):
                total = 0.0
                for (xs, ys), rows in zip(val_sets, scored_on):
                    if c in rows:
                        _, logits = nets.task_apply(theta, ARCH, xs)
                        total += helpers.ce_mean_ref(logits, ys)
                assert results[c].score == pytest.approx(1.0 / total, rel=1e-12)

    def test_near_perfect_total_is_capped_and_flagged(self):
        # saturated correct-class bias drives the total loss below 1e-9
        arch = nets.TaskArch(2, (), 2, 2)
        values = np.zeros(helpers.param_count(arch))
        values[-2] = 100.0
        X = np.random.default_rng(5).uniform(size=(4, 2))
        y = np.zeros(4, dtype=np.int64)
        result = score_one(values, arch, [(X, y)])
        assert result == sha.ScoreResult(sha.SCORE_CAP, True)

    def test_perturbation_identity_composes(self):
        rng = np.random.default_rng(6)
        theta = nets.init_params(ARCH, rng).values
        grad = rng.normal(size=theta.size)
        val_sets = [(rng.uniform(size=(5, 3)), rng.integers(0, 3, size=5))]
        probed, _ = probe_one(theta, grad, 0.0)
        assert score_one(probed, ARCH, val_sets) == score_one(theta, ARCH, val_sets)

    def test_empty_inputs_rejected(self):
        theta = uniform_logit_params(ARCH)[None]
        X = np.random.default_rng(7).uniform(size=(3, 3))
        y = np.zeros(3, dtype=np.int64)
        with pytest.raises(ValueError):
            sha.evaluate_score(theta, ARCH, [], [])
        with pytest.raises(ValueError):
            sha.evaluate_score(theta, ARCH, [(X, y)], [[]])
        with pytest.raises(ValueError):
            sha.evaluate_score(theta, ARCH, [(X[:0], y[:0])], [[0]])
        with pytest.raises(ValueError, match="one list of scored rows per validation set"):
            sha.evaluate_score(theta, ARCH, [(X, y)], [[0], [0]])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_rejected(self):
        # Rows 1 and 2 overflow; the error names the lowest of them.
        rng = np.random.default_rng(7)
        thetas = np.stack([nets.init_params(ARCH, rng).values] * 3)
        thetas[1:] = 1e300
        X = rng.uniform(size=(3, 3))
        val_sets = [(X, np.zeros(3, dtype=np.int64))]
        with pytest.raises(sha.ScoringDivergence, match="client 1: non-finite validation") as info:
            sha.evaluate_score(thetas, ARCH, val_sets, [[0, 1, 2]])
        assert info.value.client == 1
        assert isinstance(info.value, ndag.DivergenceError)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_probe_rejected(self):
        rng = np.random.default_rng(8)
        thetas = np.stack([nets.init_params(ARCH, rng).values for _ in range(2)])
        grads = rng.normal(size=thetas.shape) * 1e-3
        rows, probed = sha.probe_rows(thetas, grads, 1e308)
        assert probed.all() and not np.isfinite(rows).all(axis=1).any()
        X = rng.uniform(size=(3, 3))
        val_sets = [(X, np.zeros(3, dtype=np.int64))]
        with pytest.raises(sha.ScoringDivergence, match="client 0: non-finite probed") as info:
            sha.evaluate_score(rows, ARCH, val_sets, [[0, 1]])
        assert info.value.client == 0


@pytest.fixture(scope="module")
def sha_many_sources(tmp_path_factory):
    """The 16 source domains of a leg of the 17-domain CSV bench (200 samples each)."""
    cfg = config.resolve({"n_domains": 17, "samples_per_domain": 200})
    path = str(tmp_path_factory.mktemp("bench") / "bench.csv")
    data.export_csv(config.bench_spec(cfg), path)
    bench = data.load_csv(path, cfg["seed"])
    task_arch, _ = config.arches(cfg, bench[0].train_x.shape[1], 3)
    return bench[1:], task_arch


def scoring_case(sources, task_arch, rho, include_self, eval_clients, seed):
    """One round's uploads, last gradients and val-set choice for the oracle tests.

    Row 3 has a zero gradient, so its probe is skipped.
    """
    rng = np.random.default_rng([17, seed])
    n = len(sources)
    uploads = np.stack([nets.init_params(task_arch, rng).values for _ in range(n)])
    uploads += rng.normal(size=uploads.shape) * 0.05
    grads = rng.normal(size=uploads.shape) * 10.0 ** rng.uniform(-4, 0, size=(n, 1))
    grads[3] = 0.0
    fed = protocol.FederationConfig(
        n_clients=n, rounds=2, warmup_rounds=0, seed=seed,
        sha=sha.ShaHyper(rho=rho, include_self=include_self),
        eval_clients_per_round=eval_clients,
    )
    val_sets, scored_on = protocol._client_val_sets(sources, fed, 1)
    return uploads, grads, val_sets, scored_on


def relabel_near_perfect(uploads, grads, task_arch, val_sets, row):
    """Make uploads[row] near perfect: labels become its predictions, at a margin >= 60 nats.

    Its gradient is cut to the classifier head, so that a probe of radius
    rho cannot move a hidden layer and flip a prediction.
    """
    head = (task_arch.feature_dim + 1) * task_arch.num_classes
    grads[row, :-head] = 0.0
    labelled, margin = [], np.inf
    for xs, _ in val_sets:
        _, logits = nets.task_apply(uploads[row], task_arch, xs)
        top = np.sort(logits, axis=1)
        margin = min(margin, float((top[:, -1] - top[:, -2]).min()))
        labelled.append((xs, logits.argmax(axis=1)))
    uploads[row, -head:] *= 60.0 / margin
    return labelled


class TestStackedScoringOracle:
    """The stacked scorer against per-pair scoring on the 17-domain CSV bench."""

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("eval_clients", [0, 3])
    @pytest.mark.parametrize("include_self", [True, False])
    @pytest.mark.parametrize("rho", [0.0, 1e-7, 0.05])
    def test_scores_and_flags_are_bitwise_equal(
        self, sha_many_sources, rho, include_self, eval_clients, wide
    ):
        sources, task_arch = sha_many_sources
        if wide:
            task_arch = replace(task_arch, hidden_dims=(64, 64), feature_dim=32)
        for seed in range(3):
            uploads, grads, val_sets, scored_on = scoring_case(
                sources, task_arch, rho, include_self, eval_clients, seed
            )
            theta_hat, probed = sha.probe_rows(uploads, grads, rho)
            assert not probed[3] and probed.sum() == len(uploads) - 1
            stacked = sha.evaluate_score(theta_hat, task_arch, val_sets, scored_on)
            pairs = sha_oracle.score_round(uploads, grads, rho, task_arch, val_sets, scored_on)
            assert stacked == pairs

    @pytest.mark.parametrize("eval_clients", [0, 3])
    @pytest.mark.parametrize("include_self", [True, False])
    @pytest.mark.parametrize("rho", [0.0, 1e-7, 0.05])
    def test_near_perfect_row_is_capped_in_both(
        self, sha_many_sources, rho, include_self, eval_clients
    ):
        sources, task_arch = sha_many_sources
        uploads, grads, val_sets, scored_on = scoring_case(
            sources, task_arch, rho, include_self, eval_clients, seed=5
        )
        val_sets = relabel_near_perfect(uploads, grads, task_arch, val_sets, row=5)
        theta_hat, _ = sha.probe_rows(uploads, grads, rho)
        stacked = sha.evaluate_score(theta_hat, task_arch, val_sets, scored_on)
        pairs = sha_oracle.score_round(uploads, grads, rho, task_arch, val_sets, scored_on)
        assert stacked == pairs
        assert stacked[5] == sha.ScoreResult(sha.SCORE_CAP, True)
        assert sum(r.near_perfect for r in stacked) == 1


@pytest.fixture(scope="module")
def unequal_sources(tmp_path_factory):
    """The 8 source domains of a leg of a CSV bench of 40 to 150 samples per domain.

    Their validation sets have 15, 7, 3, 12, 8, 15, 6 and 7 rows.
    """
    sizes = (40, 150, 75, 40, 110, 75, 150, 60, 75)
    bench = helpers.unequal_csv_bench(tmp_path_factory.mktemp("bench") / "bench.csv", sizes)
    task_arch, _ = config.arches(config.resolve({}), bench[0].train_x.shape[1], 3)
    return bench[1:], task_arch


def counting_forwards(monkeypatch):
    """Count the nets.mlp_forward calls that follow."""
    calls = []
    forward = nets.mlp_forward

    def counted(*args):
        calls.append(args[1].shape)
        return forward(*args)

    monkeypatch.setattr(nets, "mlp_forward", counted)
    return calls


class TestChunkedScoring:
    """Stacked scoring in chunks and over mixed set heights, against per-pair scoring."""

    @pytest.mark.parametrize("sets_per_chunk", [1, 2, 5, 16])
    def test_chunks_that_split_a_height_group(self, monkeypatch, sha_many_sources, sets_per_chunk):
        sources, task_arch = sha_many_sources
        uploads, grads, val_sets, scored_on = scoring_case(sources, task_arch, 1e-7, True, 0, 0)
        [height] = {len(ys) for _, ys in val_sets}
        monkeypatch.setattr(sha, "MAX_SCORE_ROWS", sets_per_chunk * len(uploads) * height)
        theta_hat, _ = sha.probe_rows(uploads, grads, 1e-7)
        calls = counting_forwards(monkeypatch)
        stacked = sha.evaluate_score(theta_hat, task_arch, val_sets, scored_on)
        assert len(calls) == -(-len(val_sets) // sets_per_chunk)
        pairs = sha_oracle.score_round(uploads, grads, 1e-7, task_arch, val_sets, scored_on)
        assert stacked == pairs

    @pytest.mark.parametrize("max_rows", [1, 400, sha.MAX_SCORE_ROWS])
    @pytest.mark.parametrize("eval_clients", [0, 3])
    @pytest.mark.parametrize("include_self", [True, False])
    @pytest.mark.parametrize("rho", [0.0, 0.05])
    def test_mixed_heights_are_bitwise_equal(
        self, monkeypatch, unequal_sources, rho, include_self, eval_clients, max_rows
    ):
        sources, task_arch = unequal_sources
        monkeypatch.setattr(sha, "MAX_SCORE_ROWS", max_rows)
        for seed in range(3):
            uploads, grads, val_sets, scored_on = scoring_case(
                sources, task_arch, rho, include_self, eval_clients, seed
            )
            theta_hat, _ = sha.probe_rows(uploads, grads, rho)
            stacked = sha.evaluate_score(theta_hat, task_arch, val_sets, scored_on)
            pairs = sha_oracle.score_round(uploads, grads, rho, task_arch, val_sets, scored_on)
            assert stacked == pairs

    def test_one_forward_per_height_at_the_default_chunk(self, monkeypatch, unequal_sources):
        sources, task_arch = unequal_sources
        uploads, grads, val_sets, scored_on = scoring_case(sources, task_arch, 1e-7, True, 0, 0)
        calls = counting_forwards(monkeypatch)
        sha.evaluate_score(uploads, task_arch, val_sets, scored_on)
        heights = [len(ys) for _, ys in val_sets]
        assert sorted(calls) == sorted(
            (heights.count(n), 1, n, task_arch.input_dim) for n in set(heights)
        )


def latest_k_oracle(current, history, k):
    """Brute-force the densest qualifying subset: among all same-size subsets
    of better-scoring entries, the one latest in history is the unique choice."""
    qualifying = [s for s in history if s.score > current.score]
    take = min(k, len(qualifying))
    if take == 0:
        return current.row.copy(), current.score
    best = max(itertools.combinations(range(len(qualifying)), take), key=sum)
    pool = [qualifying[i] for i in best] + [current]
    params = np.mean([s.row for s in pool], axis=0)
    return params, float(np.mean([s.score for s in pool]))


class TestWithinClientAggregate:
    def test_single_qualifying_merge_example(self):
        current = snapshot(np.full(2, 2.0), 0.5)
        history = [snapshot(np.zeros(2), 0.7)]
        merged, new_history = sha.within_client_aggregate(current, history, k=4, history_cap=8)
        assert np.array_equal(merged.row, np.ones(2))
        assert merged.score == pytest.approx(0.6, abs=1e-15)
        assert new_history == history + [current]

    def test_latest_entry_wins_at_k_one(self):
        history = [
            snapshot(np.array([1.0, 1.0]), 0.2),
            snapshot(np.array([3.0, 5.0]), 0.6),
            snapshot(np.array([4.0, 8.0]), 0.8),
        ]
        current = snapshot(np.array([0.0, 2.0]), 0.5)
        merged, _ = sha.within_client_aggregate(current, history, k=1, history_cap=8)
        assert np.array_equal(merged.row, np.array([2.0, 5.0]))
        assert merged.score == pytest.approx(0.65, abs=1e-15)

    def test_no_qualifying_entries_is_identity(self):
        current = snapshot(np.ones(3), 0.9)
        history = [snapshot(np.zeros(3), 0.4), snapshot(np.full(3, 2.0), 0.8)]
        merged, new_history = sha.within_client_aggregate(current, history, k=4, history_cap=8)
        assert merged is current
        assert new_history == history + [current]

    def test_k_zero_is_identity(self):
        current = snapshot(np.ones(3), 0.1)
        history = [snapshot(np.zeros(3), 0.9)]
        merged, new_history = sha.within_client_aggregate(current, history, k=0, history_cap=8)
        assert merged is current
        assert new_history == history + [current]

    def test_history_cap_evicts_oldest_first(self):
        history = [snapshot(np.full(2, float(r)), 0.1 * r) for r in range(1, 4)]
        current = snapshot(np.zeros(2), 0.05)
        _, new_history = sha.within_client_aggregate(current, history, k=0, history_cap=3)
        assert new_history == [*history[1:], current]

    def test_matches_brute_force_selection(self):
        rng = np.random.default_rng(8)
        for trial in range(60):
            n_hist = int(rng.integers(0, 6))
            history = [
                snapshot(rng.normal(size=4), float(rng.uniform(0.05, 1.0)))
                for _ in range(n_hist)
            ]
            current = snapshot(rng.normal(size=4), float(rng.uniform(0.05, 1.0)))
            k = int(rng.integers(0, 5))
            cap = int(rng.integers(1, 7))
            merged, new_history = sha.within_client_aggregate(current, history, k, cap)
            params_ref, score_ref = latest_k_oracle(current, history, k)
            np.testing.assert_allclose(merged.row, params_ref, rtol=1e-14, atol=1e-15)
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

    @pytest.mark.parametrize(
        "scores, beta, expected",
        [
            ([0.25, 0.5], 2000.0, [0.0, 1.0]),  # every power underflows to 0
            ([4.0, 2.0], 2000.0, [1.0, 0.0]),  # every power overflows to inf
            ([3.0, 3.0], float("inf"), [0.5, 0.5]),
            ([0.5, 0.5], float("inf"), [0.5, 0.5]),
        ],
    )
    def test_powers_out_of_range_still_weigh(self, scores, beta, expected):
        assert sha.softmax_weights(scores, beta).values.tolist() == expected

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            sha.softmax_weights([], 1.0)
        with pytest.raises(ValueError):
            sha.softmax_weights([1.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            sha.softmax_weights([1.0, -2.0], 1.0)
        with pytest.raises(ValueError):
            sha.softmax_weights([1.0, float("nan")], 1.0)


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
        rows = np.array([[0.0, 0.0], [2.0, 4.0]])
        out = sha.across_client_aggregate(rows, sha.AggregationWeights([0.25, 0.75]))
        assert np.array_equal(out.values, np.array([1.5, 3.0]))

    def test_beta_zero_weights_match_plain_mean(self):
        rng = np.random.default_rng(14)
        rows = rng.normal(size=(5, 9))
        weights = sha.softmax_weights(list(rng.uniform(0.1, 3.0, size=5)), 0.0)
        out = sha.across_client_aggregate(rows, weights)
        assert np.abs(out.values - param_mean(rows).values).max() <= 1e-15

    def test_accumulates_client_by_client(self):
        # The sum runs in client order, one row at a time, so it gives the
        # same bits as the plain loop.
        rng = np.random.default_rng(15)
        rows = rng.normal(size=(6, 11))
        weights = sha.softmax_weights(list(rng.uniform(0.1, 3.0, size=6)), 0.7)
        acc = np.zeros(11)
        for wi, row in zip(weights.values, rows):
            acc += wi * row
        assert np.array_equal(sha.across_client_aggregate(rows, weights).values, acc)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sha.across_client_aggregate(np.ones((1, 3)), sha.AggregationWeights([0.5, 0.5]))

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

    @pytest.mark.parametrize(
        "field, ok, bad",
        [
            ("rho", 0.0, -1e-9),
            ("rho", 0.1, float("nan")),
            ("beta", 0.0, -1e-9),
            ("beta", 0.3, float("nan")),
            ("k", 0, -1),
            ("history_cap", 0, -1),
        ],
    )
    def test_each_bound(self, field, ok, bad):
        sha.ShaHyper(**{field: ok})
        with pytest.raises(ValueError, match=f"^{field} must"):
            sha.ShaHyper(**{field: bad})

    def test_snapshot_score_must_be_positive(self):
        with pytest.raises(ValueError):
            snapshot(np.ones(2), 0.0)
        with pytest.raises(ValueError):
            snapshot(np.ones(2), float("inf"))
