"""Artifact writers: report JSON, fixed-schema CSVs, and polyline SVG plots."""

from __future__ import annotations

import csv
import json
from dataclasses import fields

import pytest

from feddag import reporting
from feddag.atomic import atomic_open, write_csv
from feddag.metrics import EvalResult
from feddag.ndag import BatchTrace
from feddag.protocol import RoundMetrics
from feddag.data import BenchSpec, make_benchmark
from feddag.nets import GenArch, TaskArch
from feddag.protocol import FederationConfig, run_lodo

TASK_ARCH = TaskArch(input_dim=6, hidden_dims=(8,), feature_dim=4, num_classes=3)
GEN_ARCH = GenArch(input_dim=6, hidden_dims=(5,))
BENCH = make_benchmark(
    BenchSpec(n_domains=3, n_classes=3, input_dim=6, samples_per_domain=60, seed=3)
)
CFG = {"mode": "feddag", "rounds": 4, "zeta": 1.0, "alpha": 0.3}


def lodo(mode="feddag", probe_every_round=False, collect_trace=True):
    fed = FederationConfig(
        n_clients=2,
        rounds=4,
        warmup_rounds=2,
        mode=mode,
        seed=0,
        probe_every_round=probe_every_round,
    )
    return run_lodo(BENCH, fed, TASK_ARCH, GEN_ARCH, collect_trace=collect_trace)


@pytest.fixture(scope="module")
def report():
    return lodo()


@pytest.fixture(scope="module")
def every_round_report():
    return lodo(probe_every_round=True, collect_trace=False)


@pytest.fixture(scope="module")
def fedavg_report():
    return lodo(mode="fedavg", collect_trace=False)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestFmt:
    def test_none_is_empty(self):
        assert reporting.fmt(None) == ""

    def test_bools_are_ints(self):
        assert reporting.fmt(True) == "1"
        assert reporting.fmt(False) == "0"

    def test_float_uses_repr(self):
        assert reporting.fmt(0.1) == "0.1"
        assert reporting.fmt(1 / 3) == repr(1 / 3)

    def test_int_passthrough(self):
        assert reporting.fmt(7) == "7"


class TestReportDict:
    def test_top_level_shape(self, report):
        doc = reporting.report_dict(CFG, report)
        assert set(doc) == {"config", "domains", "averages"}
        assert [d["target_domain"] for d in doc["domains"]] == [0, 1, 2]
        assert set(doc["averages"]) == {"acc", "f1", "auc"}

    def test_config_echo_is_sorted(self, report):
        doc = reporting.report_dict(CFG, report)
        assert list(doc["config"]) == sorted(CFG)
        assert doc["config"]["zeta"] == 1.0

    def test_round_entries(self, report):
        doc = reporting.report_dict(CFG, report)
        rounds = doc["domains"][0]["rounds"]
        assert [r["round"] for r in rounds] == [0, 1, 2, 3]
        assert [r["warmup"] for r in rounds] == [True, True, False, False]
        assert rounds[0]["raw_scores"] is None
        assert rounds[3]["raw_scores"] is not None
        # Probing defaults to the final round only.
        assert [r["target"] is None for r in rounds] == [True, True, True, False]
        final = doc["domains"][0]["final"]
        assert set(final) == {"acc", "f1", "auc", "n", "support", "warnings"}

    def test_keys_are_the_record_fields(self, report, tmp_path):
        path = tmp_path / "report.json"
        reporting.write_report_json(str(path), CFG, report)
        doc = json.loads(path.read_text())
        round_keys = {f.name for f in fields(RoundMetrics)}
        eval_keys = {f.name for f in fields(EvalResult)}
        for leg in doc["domains"]:
            assert set(leg["final"]) == eval_keys
            assert all(set(r) == round_keys for r in leg["rounds"])
            assert set(leg["rounds"][-1]["target"]) == eval_keys


class TestReportJson:
    def test_parses_and_ends_with_newline(self, report, tmp_path):
        path = tmp_path / "report.json"
        reporting.write_report_json(str(path), CFG, report)
        text = path.read_text()
        assert text.endswith("\n")
        doc = json.loads(text)
        assert doc["averages"]["acc"] == report.averages["acc"]

    def test_identical_runs_are_byte_identical(self, report, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        reporting.write_report_json(str(a), CFG, report)
        reporting.write_report_json(str(b), CFG, lodo())
        assert a.read_bytes() == b.read_bytes()


class TestAtomicWrites:
    def test_failed_write_keeps_the_earlier_file(self, report, tmp_path):
        path = tmp_path / "report.json"
        reporting.write_report_json(str(path), CFG, report)
        before = path.read_bytes()
        # json.dump streams the sorted keys and fails on the unserializable
        # value after the earlier ones are written.
        with pytest.raises(TypeError):
            reporting.write_report_json(str(path), dict(CFG, zzz=object()), report)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    def test_interrupted_block_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(KeyboardInterrupt):
            with atomic_open(str(path), newline="") as fh:
                fh.write("partial")
                raise KeyboardInterrupt
        assert list(tmp_path.iterdir()) == []

    def test_csv_rows_failing_midway_keep_the_earlier_file(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(str(path), ["a", "b"], [[1, 2]])
        before = path.read_bytes()

        def rows():
            yield [3, 4]
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError, match="row source failed"):
            write_csv(str(path), ["a", "b"], rows())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_file_appears_complete(self, tmp_path):
        path = tmp_path / "out.txt"
        with atomic_open(str(path)) as fh:
            fh.write("a\n")
            assert not path.exists()
        assert path.read_text() == "a\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestMetricsCsv:
    def test_header_and_row_count(self, report, tmp_path):
        path = tmp_path / "metrics.csv"
        reporting.write_metrics_csv(str(path), report)
        rows = read_rows(path)
        assert rows[0] == reporting.METRICS_HEADER
        assert len(rows) == 1 + 3 * 4

    def test_warmup_and_probe_columns(self, report, tmp_path):
        path = tmp_path / "metrics.csv"
        reporting.write_metrics_csv(str(path), report)
        with open(path, newline="") as fh:
            recs = [r for r in csv.DictReader(fh) if r["target_domain"] == "0"]
        assert [r["warmup"] for r in recs] == ["1", "1", "0", "0"]
        assert [r["target_acc"] == "" for r in recs] == [True, True, True, False]
        assert float(recs[-1]["target_acc"]) == report.domains[0].final.acc
        for r in recs:
            float(r["mean_train_loss"])
            float(r["source_val_loss"])


class TestShaLogCsv:
    def test_scored_rounds_only(self, report, tmp_path):
        path = tmp_path / "sha_log.csv"
        reporting.write_sha_log_csv(str(path), report)
        rows = read_rows(path)
        assert rows[0] == reporting.SHA_LOG_HEADER
        # 3 targets x 2 scored rounds x 2 clients.
        assert len(rows) == 1 + 3 * 2 * 2
        assert {r[1] for r in rows[1:]} == {"2", "3"}

    def test_weights_form_a_distribution(self, report, tmp_path):
        path = tmp_path / "sha_log.csv"
        reporting.write_sha_log_csv(str(path), report)
        with open(path, newline="") as fh:
            recs = list(csv.DictReader(fh))
        by_round = {}
        for r in recs:
            by_round.setdefault((r["target_domain"], r["round"]), []).append(float(r["weight"]))
        for ws in by_round.values():
            assert sum(ws) == pytest.approx(1.0, abs=1e-12)

    def test_fedavg_never_scores(self, fedavg_report, tmp_path):
        path = tmp_path / "sha_log.csv"
        reporting.write_sha_log_csv(str(path), fedavg_report)
        assert read_rows(path) == [reporting.SHA_LOG_HEADER]


class TestTraceCsv:
    def test_columns_are_batch_trace_fields(self):
        assert reporting.TRACE_HEADER[:3] == ["target_domain", "client", "round"]
        assert reporting.TRACE_HEADER[3:] == [f.name for f in fields(BatchTrace)]

    def test_rows_match_report(self, report, tmp_path):
        path = tmp_path / "trace.csv"
        reporting.write_trace_csv(str(path), report)
        rows = read_rows(path)
        assert rows[0] == reporting.TRACE_HEADER
        assert len(rows) == 1 + sum(len(run.trace) for run in report.domains)

    def test_warmup_rows_blank_adversarial_columns(self, report, tmp_path):
        path = tmp_path / "trace.csv"
        reporting.write_trace_csv(str(path), report)
        with open(path, newline="") as fh:
            recs = list(csv.DictReader(fh))
        warm = [r for r in recs if int(r["round"]) < 2]
        adv = [r for r in recs if int(r["round"]) >= 2]
        assert warm and adv
        assert all(r["l_dis"] == "" and r["l_cls_g"] == "" and r["l_sim"] == "" for r in warm)
        assert all(r["l_cls_s"] != "" for r in recs)
        assert all(r["l_dis"] != "" for r in adv)

    def test_untraced_report_is_header_only(self, fedavg_report, tmp_path):
        path = tmp_path / "trace.csv"
        reporting.write_trace_csv(str(path), fedavg_report)
        assert read_rows(path) == [reporting.TRACE_HEADER]


class TestPlotLines:
    def test_basic_svg(self, tmp_path):
        path = tmp_path / "plot.svg"
        series = [("a", [0.0, 1.0, 2.0], [0.1, 0.4, 0.2]), ("b", [0.0, 1.0], [0.5, 0.3])]
        reporting.plot_lines(str(path), "Title", "x", "y", series)
        text = path.read_text()
        assert text.startswith("<svg ")
        assert text.endswith("</svg>\n")
        assert text.count("<polyline") == 2
        assert ">a</text>" in text and ">b</text>" in text
        assert ">Title</text>" in text

    def test_single_point_series_has_no_polyline(self, tmp_path):
        path = tmp_path / "plot.svg"
        reporting.plot_lines(str(path), "t", "x", "y", [("only", [1.0], [2.0])])
        text = path.read_text()
        assert "<polyline" not in text
        assert "<circle" in text

    def test_empty_series_still_valid(self, tmp_path):
        path = tmp_path / "plot.svg"
        reporting.plot_lines(str(path), "t", "x", "y", [])
        text = path.read_text()
        assert text.startswith("<svg ") and text.endswith("</svg>\n")

    @pytest.mark.parametrize("v", [1e308, -1e308, 2.0**53])
    def test_huge_single_point_is_finite(self, tmp_path, v):
        """Adding 1 cannot widen a zero-width range this large."""
        path = tmp_path / "plot.svg"
        reporting.plot_lines(str(path), "t", "x", "y", [("only", [v], [v])])
        text = path.read_text()
        assert "nan" not in text and "inf" not in text
        assert "<circle" in text

    def test_deterministic_bytes(self, tmp_path):
        series = [("s", [0.0, 1.0], [0.25, 0.75])]
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        reporting.plot_lines(str(a), "t", "x", "y", series)
        reporting.plot_lines(str(b), "t", "x", "y", series)
        assert a.read_bytes() == b.read_bytes()


def plot_from_metrics_csv(metrics_path, loss_svg, acc_svg):
    """Oracle: the run plots drawn from metrics.csv read back and parsed."""
    with open(metrics_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    domains = sorted({row["target_domain"] for row in rows}, key=int)
    loss_series, acc_series = [], []
    for d in domains:
        mine = [row for row in rows if row["target_domain"] == d]
        rounds = [float(r["round"]) for r in mine]
        loss_series.append((f"target {d}", rounds, [float(r["source_val_loss"]) for r in mine]))
        probed = [r for r in mine if r["target_acc"] != ""]
        if probed:
            acc_series.append(
                (
                    f"target {d}",
                    [float(r["round"]) for r in probed],
                    [float(r["target_acc"]) for r in probed],
                )
            )
    reporting.plot_lines(loss_svg, "Source validation loss", "round", "loss", loss_series)
    reporting.plot_lines(acc_svg, "Held-out domain accuracy", "round", "accuracy", acc_series)


class TestPlotRounds:
    @pytest.mark.parametrize("probe_every_round", [False, True], ids=["final_probe", "every_round"])
    def test_same_bytes_as_plots_from_metrics_csv(
        self, report, every_round_report, tmp_path, probe_every_round
    ):
        rep = every_round_report if probe_every_round else report
        metrics = tmp_path / "metrics.csv"
        reporting.write_metrics_csv(str(metrics), rep)
        oracle = (tmp_path / "loss0.svg", tmp_path / "acc0.svg")
        plot_from_metrics_csv(str(metrics), str(oracle[0]), str(oracle[1]))
        for i in (1, 2):
            drawn = (tmp_path / f"loss{i}.svg", tmp_path / f"acc{i}.svg")
            reporting.plot_rounds(rep, str(drawn[0]), str(drawn[1]))
            assert drawn[0].read_bytes() == oracle[0].read_bytes()
            assert drawn[1].read_bytes() == oracle[1].read_bytes()

    def test_one_series_per_target_domain(self, report, tmp_path):
        loss = tmp_path / "loss.svg"
        acc = tmp_path / "acc.svg"
        reporting.plot_rounds(report, str(loss), str(acc))
        loss_text = loss.read_text()
        for d in (0, 1, 2):
            assert f">target {d}</text>" in loss_text
        # Four loss points per domain make lines; a single final-round
        # accuracy probe per domain leaves markers only.
        assert loss_text.count("<polyline") == 3
        assert "<polyline" not in acc.read_text()

    def test_per_round_probing_draws_accuracy_lines(self, every_round_report, tmp_path):
        acc = tmp_path / "acc.svg"
        reporting.plot_rounds(every_round_report, str(tmp_path / "loss.svg"), str(acc))
        assert acc.read_text().count("<polyline") == 3
