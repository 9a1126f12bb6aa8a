"""Synthetic benchmark generator, splits, and the CSV import/export path."""

from __future__ import annotations

import numpy as np
import pytest

import helpers
from feddag import data, metrics, nets
from feddag.data import BenchSpec
from feddag.params import ParamVector

SPEC = BenchSpec(n_domains=3, n_classes=3, input_dim=5, samples_per_domain=90, seed=7)


class TestBenchSpec:
    def test_defaults_valid(self):
        spec = BenchSpec()
        assert spec.n_domains == 5
        assert spec.n_classes == 3
        assert spec.input_dim == 16
        assert spec.samples_per_domain == 600
        assert spec.style_strength == 1.0
        assert spec.label_noise == 0.0

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n_domains=1),
            dict(n_classes=1),
            dict(input_dim=1),
            dict(samples_per_domain=29),
            dict(style_strength=-0.1),
            dict(label_noise=0.5),
            dict(label_noise=-0.01),
        ],
    )
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValueError):
            BenchSpec(**kw)

    @pytest.mark.parametrize(
        "field, ok, bad",
        [
            ("n_domains", 2, 1),
            ("n_classes", 2, 1),
            ("input_dim", 2, 1),
            ("samples_per_domain", 30, 29),
            ("style_strength", 0.0, -1e-9),
            ("style_strength", 1.0, float("nan")),
            ("label_noise", 0.0, -1e-9),
            ("label_noise", 0.49, 0.5),
            ("label_noise", 0.0, float("nan")),
            ("seed", 0, -1),
        ],
    )
    def test_each_bound(self, field, ok, bad):
        BenchSpec(**{field: ok})
        with pytest.raises(ValueError, match=f"^{field} must"):
            BenchSpec(**{field: bad})


class TestStyleMap:
    def test_strength_zero_is_bitwise_identity(self):
        # Angles, scales and biases are all multiplied by strength, so
        # strength 0 must collapse to y = 1.0 * (I @ x) + 0.0 exactly.
        style = data._style_map(np.random.default_rng(3), 6, 0.0)
        x = np.random.default_rng(4).normal(size=6)
        assert np.array_equal(style(x), x)

    def test_positive_strength_moves_points(self):
        style = data._style_map(np.random.default_rng(3), 6, 1.0)
        x = np.random.default_rng(4).normal(size=6)
        assert not np.array_equal(style(x), x)

    def test_same_rng_stream_regardless_of_strength(self):
        # The map draws the same variates at every strength; two maps built
        # from identically seeded rngs must leave the rngs in the same state.
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        data._style_map(rng_a, 6, 0.0)
        data._style_map(rng_b, 6, 2.5)
        assert rng_a.integers(0, 1 << 30) == rng_b.integers(0, 1 << 30)


def generate_domain_per_row(spec, domain, anchors):
    """Reference for data._generate_domain: one noise draw and label draw per row."""
    style = data._style_map(
        np.random.default_rng([spec.seed, data._STYLE_TAG, domain]),
        spec.input_dim,
        spec.style_strength,
    )
    noise_rng = np.random.default_rng([spec.seed, data._NOISE_TAG, domain])
    label_rng = np.random.default_rng([spec.seed, data._LABEL_TAG, domain])
    xs = np.empty((spec.samples_per_domain, spec.input_dim))
    ys = np.empty(spec.samples_per_domain, dtype=np.int64)
    row = 0
    for c, count in enumerate(data._class_counts(spec.samples_per_domain, spec.n_classes)):
        base = style(anchors[c])
        for _ in range(count):
            xs[row] = base + noise_rng.normal(0.0, data.NOISE_SD, size=spec.input_dim)
            y = c
            if spec.label_noise > 0.0 and label_rng.random() < spec.label_noise:
                y = int((c + label_rng.integers(1, spec.n_classes)) % spec.n_classes)
            ys[row] = y
            row += 1
    lo = xs.min(axis=0)
    hi = xs.max(axis=0)
    span = np.where(hi - lo < 1e-12, 1.0, hi - lo)
    return (xs - lo) / span, ys


class TestGenerateTable:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "kw",
        [
            {},
            dict(n_domains=17, samples_per_domain=200),
            dict(label_noise=0.2, input_dim=7, n_classes=4, style_strength=0.0),
        ],
    )
    def test_bitwise_equal_to_per_row_draws(self, seed, kw):
        spec = BenchSpec(seed=seed, **kw)
        anchors = np.random.default_rng([spec.seed, data._ANCHOR_TAG]).normal(
            0.0, data.ANCHOR_SD, size=(spec.n_classes, spec.input_dim)
        )
        for domain in range(spec.n_domains):
            xs, ys = data._generate_domain(spec, domain, anchors)
            ref_xs, ref_ys = generate_domain_per_row(spec, domain, anchors)
            assert xs.tobytes() == ref_xs.tobytes()
            assert ys.dtype == ref_ys.dtype and ys.tobytes() == ref_ys.tobytes()

    def test_deterministic(self):
        d1, y1, x1 = data.generate_table(SPEC)
        d2, y2, x2 = data.generate_table(SPEC)
        assert np.array_equal(d1, d2)
        assert np.array_equal(y1, y2)
        assert np.array_equal(x1, x2)

    def test_shapes_and_label_counts(self):
        spec = BenchSpec(n_domains=3, n_classes=3, input_dim=4, samples_per_domain=91)
        domains, labels, feats = data.generate_table(spec)
        assert feats.shape == (3 * 91, 4)
        assert domains.shape == labels.shape == (3 * 91,)
        # 91 = 31 + 30 + 30: the remainder goes to the lowest class ids.
        for d in range(3):
            counts = np.bincount(labels[domains == d], minlength=3)
            assert counts.tolist() == [31, 30, 30]

    def test_normalized_per_domain(self):
        domains, _, feats = data.generate_table(SPEC)
        for d in range(SPEC.n_domains):
            block = feats[domains == d]
            assert np.array_equal(block.min(axis=0), np.zeros(SPEC.input_dim))
            assert np.array_equal(block.max(axis=0), np.ones(SPEC.input_dim))

    def test_labels_invariant_to_strength(self):
        _, y0, x0 = data.generate_table(BenchSpec(style_strength=0.0, samples_per_domain=60))
        _, y1, x1 = data.generate_table(BenchSpec(style_strength=1.0, samples_per_domain=60))
        assert np.array_equal(y0, y1)
        assert not np.array_equal(x0, x1)

    def test_seed_changes_data(self):
        _, _, x1 = data.generate_table(SPEC)
        _, _, x2 = data.generate_table(BenchSpec(
            n_domains=3, n_classes=3, input_dim=5, samples_per_domain=90, seed=8))
        assert not np.array_equal(x1, x2)

    def test_label_noise_isolated_from_features(self):
        clean = BenchSpec(n_domains=3, n_classes=3, input_dim=5,
                          samples_per_domain=600, seed=7)
        noisy = BenchSpec(n_domains=3, n_classes=3, input_dim=5,
                          samples_per_domain=600, label_noise=0.3, seed=7)
        _, y_clean, x_clean = data.generate_table(clean)
        _, y_noisy, x_noisy = data.generate_table(noisy)
        assert np.array_equal(x_clean, x_noisy)
        flipped = y_clean != y_noisy
        # Flips replace the label with a different class, never the same one,
        # at the requested rate (binomial sd over 1800 draws is about 0.011).
        assert 0.25 < flipped.mean() < 0.35
        assert np.all(y_noisy[flipped] != y_clean[flipped])


class TestSplitDomain:
    def _tagged(self, ys):
        # Column 0 carries the row id so splits can be checked as sets.
        ys = np.asarray(ys)
        xs = np.zeros((len(ys), 2))
        xs[:, 0] = np.arange(len(ys))
        return xs, ys

    def test_stratified_ten_percent(self):
        xs, ys = self._tagged([0] * 200 + [1] * 200 + [2] * 200)
        ds = data.split_domain(0, xs, ys, split_seed=0)
        assert ds.val_y.shape == (60,)
        assert ds.train_y.shape == (540,)
        assert np.bincount(ds.val_y).tolist() == [20, 20, 20]
        assert np.bincount(ds.train_y).tolist() == [180, 180, 180]

    def test_small_classes_round_to_one(self):
        # 15 members round to 2 validation rows, 5 members round down to 0
        # and are pulled back up to the 1-per-class floor.
        xs, ys = self._tagged([0] * 15 + [1] * 5)
        ds = data.split_domain(0, xs, ys, split_seed=0)
        assert np.bincount(ds.val_y).tolist() == [2, 1]

    def test_partition_is_exact(self):
        xs, ys = self._tagged([0] * 30 + [1] * 30 + [2] * 30)
        ds = data.split_domain(2, xs, ys, split_seed=5)
        train_ids = set(ds.train_x[:, 0].astype(int))
        val_ids = set(ds.val_x[:, 0].astype(int))
        assert train_ids & val_ids == set()
        assert train_ids | val_ids == set(range(90))

    def test_deterministic_and_domain_dependent(self):
        xs, ys = self._tagged([0] * 300 + [1] * 300)
        a = data.split_domain(0, xs, ys, split_seed=9)
        b = data.split_domain(0, xs, ys, split_seed=9)
        c = data.split_domain(1, xs, ys, split_seed=9)
        assert np.array_equal(a.val_x, b.val_x)
        assert not np.array_equal(a.val_x, c.val_x)

    def test_class_too_small(self):
        xs, ys = self._tagged([0] * 20 + [1])
        with pytest.raises(ValueError, match="too small to split"):
            data.split_domain(0, xs, ys, split_seed=0)

    @pytest.mark.parametrize(
        "split",
        [
            dict(train_x=np.zeros(4)),
            dict(train_y=np.zeros(3, dtype=int)),
            dict(val_y=np.zeros((2, 1), dtype=int)),
            dict(train_x=np.zeros((0, 2)), train_y=np.zeros(0, dtype=int)),
            dict(val_x=np.zeros((0, 2)), val_y=np.zeros(0, dtype=int)),
        ],
    )
    def test_malformed_or_empty_split_rejected(self, split):
        xs, ys = self._tagged([0, 1, 0, 1])
        fields = {**dict(train_x=xs, train_y=ys, val_x=xs[:2], val_y=ys[:2]), **split}
        with pytest.raises(ValueError, match="^malformed or empty split$"):
            data.DomainDataset(domain=0, **fields)


class TestMakeBenchmark:
    def test_structure(self):
        bench = data.make_benchmark(SPEC)
        assert [ds.domain for ds in bench] == [0, 1, 2]
        for ds in bench:
            assert len(ds.train_y) + len(ds.val_y) == SPEC.samples_per_domain
            assert ds.train_x.shape[1] == SPEC.input_dim

    def test_deterministic(self):
        b1 = data.make_benchmark(SPEC)
        b2 = data.make_benchmark(SPEC)
        for d1, d2 in zip(b1, b2):
            assert np.array_equal(d1.train_x, d2.train_x)
            assert np.array_equal(d1.val_x, d2.val_x)
            assert np.array_equal(d1.train_y, d2.train_y)
            assert np.array_equal(d1.val_y, d2.val_y)


class TestCsv:
    NOISY = BenchSpec(n_domains=3, n_classes=3, input_dim=5,
                      samples_per_domain=90, label_noise=0.2, seed=7)

    def test_export_is_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        data.export_csv(SPEC, str(p1))
        data.export_csv(SPEC, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_and_row_count(self, tmp_path):
        path = tmp_path / "bench.csv"
        data.export_csv(SPEC, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "domain,label," + ",".join(f"f{i}" for i in range(5))
        assert len(lines) == 1 + 3 * 90

    def test_round_trip_matches_make_benchmark(self, tmp_path):
        # Exported features already span [0, 1] per domain, so the loader's
        # whole-file min-max is the identity and the round trip is bitwise.
        path = tmp_path / "bench.csv"
        data.export_csv(self.NOISY, str(path))
        loaded = data.load_csv(str(path), split_seed=self.NOISY.seed)
        direct = data.make_benchmark(self.NOISY)
        assert len(loaded) == len(direct)
        for a, b in zip(loaded, direct):
            assert a.domain == b.domain
            assert np.array_equal(a.train_x, b.train_x)
            assert np.array_equal(a.train_y, b.train_y)
            assert np.array_equal(a.val_x, b.val_x)
            assert np.array_equal(a.val_y, b.val_y)


class TestLoadCsvGuards:
    HEADER = "domain,label,f0,f1\n"

    def _write(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        return str(path)

    def _rows(self, n_per_domain=12, n_domains=2):
        rows = []
        for d in range(n_domains):
            for i in range(n_per_domain):
                rows.append(f"{d},{i % 2},0.{i + 1},0.{2 * i + 1}{d}")
        return "\n".join(rows) + "\n"

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="empty file"):
            data.load_csv(self._write(tmp_path, ""), 0)

    def test_bad_header(self, tmp_path):
        with pytest.raises(ValueError, match="header must start with domain,label"):
            data.load_csv(self._write(tmp_path, "a,b,c\n1,0,0.5\n"), 0)

    def test_bad_feature_names(self, tmp_path):
        with pytest.raises(ValueError, match="feature columns must be f0..f1"):
            data.load_csv(self._write(tmp_path, "domain,label,f0,g1\n" + self._rows()), 0)

    def test_no_data_rows(self, tmp_path):
        with pytest.raises(ValueError, match="no data rows"):
            data.load_csv(self._write(tmp_path, self.HEADER), 0)

    def test_field_count_with_line_number(self, tmp_path):
        text = self.HEADER + "0,0,0.1,0.2\n0,1,0.3\n"
        with pytest.raises(ValueError, match=r"bad\.csv:3: expected 4 fields"):
            data.load_csv(self._write(tmp_path, text), 0)

    def test_non_numeric_with_line_number(self, tmp_path):
        text = self.HEADER + "0,0,0.1,0.2\n0,1,oops,0.4\n"
        with pytest.raises(ValueError, match=r"bad\.csv:3: could not convert"):
            data.load_csv(self._write(tmp_path, text), 0)

    def test_non_integer_label(self, tmp_path):
        text = self.HEADER + "0,1.5,0.1,0.2\n"
        with pytest.raises(ValueError, match=r"bad\.csv:2: invalid literal"):
            data.load_csv(self._write(tmp_path, text), 0)

    def test_non_finite_value(self, tmp_path):
        text = self.HEADER + self._rows() + "1,0,inf,0.4\n"
        with pytest.raises(ValueError, match="non-finite feature values"):
            data.load_csv(self._write(tmp_path, text), 0)

    def test_gapped_labels(self, tmp_path):
        rows = [f"{d},{2 * (i % 2)},0.{i + 1},0.{i + 2}" for d in range(2) for i in range(12)]
        text = self.HEADER + "\n".join(rows) + "\n"
        with pytest.raises(ValueError, match="labels must be contiguous"):
            data.load_csv(self._write(tmp_path, text), 0)

    def test_single_domain(self, tmp_path):
        rows = [f"0,{i % 2},0.{i + 1},0.{i + 2}" for i in range(12)]
        text = self.HEADER + "\n".join(rows) + "\n"
        with pytest.raises(ValueError, match="need at least 2 domains"):
            data.load_csv(self._write(tmp_path, text), 0)

    def test_constant_column(self, tmp_path):
        rows = [f"{d},{i % 2},0.5,0.{i + 1}{d}" for d in range(2) for i in range(12)]
        text = self.HEADER + "\n".join(rows) + "\n"
        with pytest.raises(ValueError, match="constant feature column"):
            data.load_csv(self._write(tmp_path, text), 0)

    def test_tiny_domain(self, tmp_path):
        text = self.HEADER + self._rows() + "2,0,0.05,0.9\n2,1,0.95,0.1\n"
        with pytest.raises(ValueError, match="domain 2 has fewer than 10 samples"):
            data.load_csv(self._write(tmp_path, text), 0)


class TestDomainGap:
    def _gap(self, strength, seed):
        """Held-in minus held-out accuracy of a single-domain model."""
        spec = BenchSpec(n_domains=4, samples_per_domain=300,
                         style_strength=strength, seed=seed)
        bench = data.make_benchmark(spec)
        arch = nets.TaskArch(16, (24,), 12, 3)
        flat = helpers.reference_fedavg(
            [(bench[0].train_x, bench[0].train_y)], arch, seed=seed,
            rounds=25, lr=0.05, batch_size=32)
        params = ParamVector(flat)
        home = metrics.evaluate(params, arch, bench[0].val_x, bench[0].val_y).acc
        away = np.mean([
            metrics.evaluate(params, arch, ds.val_x, ds.val_y).acc for ds in bench[1:]
        ])
        return home - away

    def test_gap_grows_with_strength(self):
        gaps = [np.mean([self._gap(s, seed) for seed in range(3)]) for s in (0.0, 0.5, 1.0)]
        assert gaps[0] < gaps[1] < gaps[2]
        assert gaps[0] < 0.12
        assert gaps[2] > 0.3
