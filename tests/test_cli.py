"""Command-line entry point: subcommands, artifacts, exit codes, checkpoints."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import feddag
import helpers
from feddag import cli, metrics, ndag, reporting, sha
from feddag.metrics import PairedComparison
from feddag.nets import TaskArch
from feddag.params import ParamVector

# Small bench and short schedule so each invocation stays fast.
SMALL = {
    "n_domains": 3,
    "n_classes": 3,
    "input_dim": 6,
    "samples_per_domain": 60,
    "rounds": 3,
    "warmup_rounds": 1,
    "hidden_dims": [8],
    "feature_dim": 4,
    "gen_hidden_dims": [5],
    "seed": 0,
    "seeds": [0, 1],
}


def write_cfg(tmp_path, name="cfg.json", **extra):
    doc = dict(SMALL, **extra)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestCheckpoint:
    TASK = TaskArch(input_dim=4, hidden_dims=(5,), feature_dim=3, num_classes=2)

    def test_task_round_trip(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        params = ParamVector(np.linspace(-1.0, 1.0, helpers.param_count(self.TASK)))
        cli.save_checkpoint(path, params, self.TASK, round_index=7)
        loaded, arch, role, rnd = helpers.load_checkpoint(path)
        assert np.array_equal(loaded.values, params.values)
        assert arch == self.TASK
        assert role == "global_task"
        assert rnd == 7

    def test_bytes_match_the_streaming_encoder(self, tmp_path):
        # json.dumps (C encoder) must write what json.dump (pure Python) wrote.
        arch = TaskArch(input_dim=16, hidden_dims=(32, 32), feature_dim=16, num_classes=3)
        values = np.random.default_rng(4).normal(size=helpers.param_count(arch))
        values[:3] = [0.1, -0.0, 1e-300]
        path = tmp_path / "ckpt.json"
        cli.save_checkpoint(str(path), ParamVector(values), arch, round_index=14)
        doc = {
            "arch": {"kind": "task", **dataclasses.asdict(arch)},
            "values": values.tolist(),
            "role": "global_task",
            "round": 14,
        }
        expected = io.StringIO()
        json.dump(doc, expected, sort_keys=True)
        assert path.read_text(encoding="utf-8") == expected.getvalue() + "\n"

    EXTREMES = (5e-324, -0.0, 1.0, 1e308)

    def assert_bytes_match_json_dumps(self, tmp_path, values):
        arch = TaskArch(input_dim=16, hidden_dims=(32, 32), feature_dim=16, num_classes=3)
        path = tmp_path / "ckpt.json"
        cli.save_checkpoint(str(path), ParamVector(values), arch, round_index=3)
        doc = {
            "arch": {"kind": "task", **dataclasses.asdict(arch)},
            "values": values.tolist(),
            "role": "global_task",
            "round": 3,
        }
        assert path.read_text(encoding="utf-8") == json.dumps(doc, sort_keys=True) + "\n"

    @pytest.mark.parametrize("count", [1, 1023, 1024, 1025])
    def test_bytes_match_json_dumps(self, tmp_path, count):
        # Values are written cli.CHECKPOINT_CHUNK at a time; the counts straddle one chunk.
        assert cli.CHECKPOINT_CHUNK == 1024
        values = np.random.default_rng(count).normal(size=count) * 1e3
        values[-min(count, 4) :] = self.EXTREMES[-min(count, 4) :]
        self.assert_bytes_match_json_dumps(tmp_path, values)

    @pytest.mark.parametrize("value", EXTREMES)
    def test_extreme_value_bytes_match_json_dumps(self, tmp_path, value):
        self.assert_bytes_match_json_dumps(tmp_path, np.array([value]))

    def test_missing_field(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"arch": {}, "values": []}))
        with pytest.raises(ValueError, match="missing fields.*role"):
            helpers.load_checkpoint(str(path))

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(
            json.dumps({"arch": {"kind": "rnn"}, "values": [], "role": "x", "round": 0})
        )
        with pytest.raises(ValueError, match="unknown arch kind"):
            helpers.load_checkpoint(str(path))

    def test_value_count_mismatch(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        params = ParamVector(np.zeros(helpers.param_count(self.TASK)))
        cli.save_checkpoint(path, params, self.TASK, round_index=0)
        with open(path) as fh:
            doc = json.load(fh)
        doc["values"] = doc["values"][:-1]
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ValueError, match="values for"):
            helpers.load_checkpoint(path)


RUN_ARTIFACTS = (
    "report.json",
    "metrics.csv",
    "sha_log.csv",
    "train_trace.csv",
    "loss_vs_round.svg",
    "accuracy_vs_round.svg",
)


# One value out of its range per key that a typed config owns, NaN for each
# float key, and two values of the wrong JSON type.
OUT_OF_RANGE = [
    {"rounds": 0},
    {"rounds": 3, "warmup_rounds": 3},
    {"mode": "magic"},
    {"alpha": 1.5},
    {"m": 0},
    {"ema_decay": -0.1},
    {"momentum": 1},
    {"seed": -1},
    {"label_noise": 0.5},
    {"hidden_dims": [0]},
    {"samples_per_domain": 25},
    {"local_epochs": 0},
    {"eval_clients_per_round": 9},
    {"k": -1},
    {"lr": "0.1"},
    {"batch_size": True},
    {"style_strength": float("inf")},
] + [{key: float("nan")} for key in ("lr", "m", "weight_decay", "rho", "beta", "style_strength")]


class TestRun:
    def test_smoke_all_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        for name in RUN_ARTIFACTS:
            assert (out / name).is_file(), name
        for d in (0, 1, 2):
            assert (out / "checkpoints" / f"final_task_d{d}.json").is_file()
        stdout = capsys.readouterr().out
        assert "lodo avg: acc" in stdout
        assert str(out) in stdout

    def test_report_json_reruns_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        first = (out / "report.json").read_bytes()
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "report.json").read_bytes() == first

    def test_overrides_recorded_in_report(self, tmp_path):
        cfg = write_cfg(tmp_path)
        reports = []
        for out in (tmp_path / "out", tmp_path / "elsewhere" / "out2"):
            rc = cli.main(
                ["run", "--config", cfg, "--out", str(out), "--mode", "fedavg", "--seed", "5"]
            )
            assert rc == 0
            reports.append((out / "report.json").read_bytes())
        doc = json.loads(reports[0])
        assert doc["config"]["mode"] == "fedavg"
        assert doc["config"]["seed"] == 5
        # The output directory is not echoed, so the bytes do not depend on it.
        assert reports[1] == reports[0]

    def test_checkpoints_load_back(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        params, arch, role, rnd = helpers.load_checkpoint(
            str(out / "checkpoints" / "final_task_d1.json")
        )
        assert arch == TaskArch(input_dim=6, hidden_dims=(8,), feature_dim=4, num_classes=3)
        assert len(params) == helpers.param_count(arch)
        assert role == "global_task"
        assert rnd == 3

    def test_beta_zero_gives_uniform_weights(self, tmp_path):
        cfg = write_cfg(tmp_path, beta=0.0)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "sha_log.csv", newline="") as fh:
            recs = list(csv.DictReader(fh))
        assert recs
        assert {r["weight"] for r in recs} == {"0.5"}

    def test_default_config_smoke(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for name in RUN_ARTIFACTS:
            assert (out / name).is_file(), name


class TestExitCodes:
    def test_missing_config_names_path(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert cli.main(["run", "--config", missing]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "absent.json" in err

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"leerning_rate": 0.1}))
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, argv, key",
        [
            ({"seed": -1}, [], "seed"),
            ({}, ["--seed", "-3"], "seed"),
            ({"bench_seed": -5}, [], "bench_seed"),
        ],
    )
    def test_negative_seed_is_config_error(self, tmp_path, capsys, doc, argv, key):
        # The typed configs own seed's range; the schema owns bench_seed's.
        message = {
            "seed": "seed must be >= 0, got -",
            "bench_seed": "config key 'bench_seed': expected integer >= -1",
        }[key]
        cfg = write_cfg(tmp_path, **doc)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"), *argv]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b'{"mode": "fed\xe9"}', id="not_utf8"),
            pytest.param(b'{"rounds": ' + b"9" * 4301 + b"}", id="int_past_digit_limit"),
            pytest.param(b"[" * 100_000, id="nesting_too_deep"),
        ],
    )
    def test_unparseable_config_is_config_error(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "cfg.json cannot be parsed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "export-bench"])
    def test_nul_in_out_is_config_error(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, out="a\x00b")
        assert cli.main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "config key 'out': expected nonempty path string without NUL" in err

    def test_negative_ablation_seed_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, seeds=[0, -2])
        assert cli.main(["ablate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config key 'seeds': expected nonempty list of distinct integers >= 0" in err

    def test_repeated_ablation_seed_is_config_error(self, tmp_path, capsys):
        # A repeated seed would count one run as several independent pairs.
        cfg = write_cfg(tmp_path, seeds=[0, 0, 0])
        assert cli.main(["ablate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config key 'seeds': expected nonempty list of distinct" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, doc, key",
        [
            ("run", {"lr": 10**400}, "lr"),
            ("sweep", {"sweep_param": "beta", "sweep_values": [0, 10**400]}, "sweep_values"),
        ],
    )
    def test_int_past_float_range_is_config_error(self, tmp_path, capsys, command, doc, key):
        cfg = write_cfg(tmp_path, **doc)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"config key '{key}': expected " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, doc",
        [
            (command, doc)
            for command in ("run", "ablate", "sweep")
            for doc in OUT_OF_RANGE
            # ablate runs every mode over the seeds list, not the config's mode and seed.
            if not (command == "ablate" and ("mode" in doc or "seed" in doc))
        ],
        ids=str,
    )
    def test_out_of_range_fails_before_any_training(self, tmp_path, monkeypatch, command, doc):
        """Each command builds every typed config it reads before the first run trains."""
        calls = []
        monkeypatch.setattr(cli.protocol, "run_lodo_jobs", lambda jobs: calls.append(jobs))
        # The swept key takes the sweep's values, so sweep a key the case leaves alone.
        sweep = dict(sweep_param="beta" if "k" in doc else "k", sweep_values=[1])
        cfg = write_cfg(tmp_path, **sweep, **doc)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert calls == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("beta", [1000, float("inf")])
    def test_huge_beta_runs(self, tmp_path, beta):
        """Every score**beta under- or overflows, and the weights still form a simplex."""
        cfg = write_cfg(tmp_path, rounds=4, warmup_rounds=1, beta=beta)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "sha_log.csv", newline="") as fh:
            recs = list(csv.DictReader(fh))
        by_round = {}
        for r in recs:
            by_round.setdefault((r["target_domain"], r["round"]), []).append(float(r["weight"]))
        assert by_round
        for ws in by_round.values():
            assert sum(ws) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, lr=1e200, rounds=2)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
        assert "training diverged" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_final_model_exits_3(self, tmp_path, capsys):
        # The one local step leaves huge but finite weights, whose forward
        # pass is non-finite; no later step checks it.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "fedavg", "batch_size": 1000, "lr": 1e300, "rounds": 1,
                                   "warmup_rounds": 0, "n_domains": 6, "samples_per_domain": 60}))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("training diverged")
        assert not (out / "report.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mode", ["feddag", "no_sha"])
    def test_overflowing_features_are_divergence_not_collapse(self, tmp_path, capsys, mode):
        # At this rate the forward pass overflows in the first adversarial
        # round; the features are non-finite, not collapsed below the floor.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lr": 1e200, "rounds": 1, "warmup_rounds": 0}))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--mode", mode, "--out", str(out)]) == 3
        assert "training diverged: client 0: non-finite features\n" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "rho, cause",
        [(1e200, "non-finite validation loss"), (1e308, "non-finite probed parameters")],
    )
    def test_scoring_divergence_exits_3(self, tmp_path, capsys, rho, cause):
        # A probe radius this large overflows the probed weights (1e308) or
        # their validation loss (1e200) in the first scored round.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho": rho, "rounds": 3, "warmup_rounds": 1}))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert f"training diverged: client 0: {cause}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "exc",
        [
            ndag.DivergenceError("plain step: non-finite parameters or gradient"),
            ndag.DivergenceError("non-finite features", 2),
            ndag.FeatureCollapse("17/32 feature rows below the normalization floor", 1),
            sha.ScoringDivergence(3, "validation loss"),
        ],
        ids=["divergence", "divergence-client", "feature-collapse", "scoring-divergence"],
    )
    def test_exit_3_errors_pickle_round_trip(self, exc):
        # A LODO leg's error reaches the CLI pickled from its worker process.
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert back.client == exc.client

    def test_unwritable_out_exits_4(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert cli.main(["run", "--config", cfg, "--out", str(blocker)]) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_malformed_data_csv_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("domain,label,f0\n0,0,not_a_number\n")
        cfg = write_cfg(tmp_path, data_csv=str(bad))
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "bad.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("column, value", [(1, "9223372036854775808"), (0, "9" * 20)])
    def test_id_past_int64_is_config_error(self, tmp_path, capsys, column, value):
        bench_path = tmp_path / "bench.csv"
        assert cli.main(["export-bench", "--config", write_cfg(tmp_path), "--out", str(bench_path)]) == 0
        rows = read_rows(bench_path)
        rows[5][column] = value
        with open(bench_path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        cfg = write_cfg(tmp_path, name="cfg2.json", data_csv=str(bench_path))
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "bench.csv:6: domain or label outside int64" in capsys.readouterr().err

    def test_missing_data_csv_is_io_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, data_csv=str(tmp_path / "nowhere.csv"))
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
        assert "i/o error" in capsys.readouterr().err

    # A raise site of run, the exception it raises, the exit code and stderr
    # line it ends with, and an artifact it leaves unwritten.  The bench is
    # built and the artifacts written in this process; the models, local
    # steps, SHA scoring and the final evaluation run in the forked leg
    # workers, which inherit the patch.
    OOM = "Unable to allocate 38.8 TiB for an array with shape (333333333334, 16)"
    FAULTS = {
        "bench-build": (cli.cfgmod, "make_benchmark", MemoryError(OOM), 6,
                        f"out of memory: {OOM}", "report.json"),
        "leg-build": (cli.protocol, "init", MemoryError(OOM), 6,
                      f"out of memory: {OOM}", "report.json"),
        "local-step": (ndag, "client_round", ndag.DivergenceError("l_cls is non-finite", 1), 3,
                       "training diverged: client 1: l_cls is non-finite", "report.json"),
        "sha-scoring": (sha, "evaluate_score", sha.ScoringDivergence(0, "validation loss"), 3,
                        "training diverged: client 0: non-finite validation loss", "report.json"),
        "final-eval": (metrics, "evaluate", MemoryError(OOM), 6,
                       f"out of memory: {OOM}", "report.json"),
        "trace-write": (reporting, "_trace_rows", OSError(28, "No space left on device"), 4,
                        "i/o error: [Errno 28] No space left on device", "train_trace.csv"),
    }

    @pytest.mark.parametrize("site", FAULTS)
    def test_fault_exits_with_its_code(self, tmp_path, monkeypatch, capsys, site):
        module, name, exc, code, line, unwritten = self.FAULTS[site]

        def fault(*args, **kwargs):
            raise exc.with_traceback(None)

        monkeypatch.setattr(module, name, fault)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", write_cfg(tmp_path), "--out", str(out)]) == code
        assert capsys.readouterr().err == f"{line}\n"
        assert not (out / unwritten).exists()
        assert not list(tmp_path.rglob("*.tmp"))


def load_corrupted_checkpoint(tmp_path, corrupt):
    path = str(tmp_path / "ckpt.json")
    arch = TestCheckpoint.TASK
    cli.save_checkpoint(path, ParamVector(np.zeros(helpers.param_count(arch))), arch, 0)
    with open(path) as fh:
        doc = json.load(fh)
    corrupt(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return helpers.load_checkpoint(path)


MALFORMED_INPUTS = [
    pytest.param(
        lambda tmp: load_corrupted_checkpoint(tmp, lambda d: d["arch"].pop("feature_dim")),
        ValueError,
        r"arch missing keys: \['feature_dim'\]",
        id="missing_arch_key",
    ),
    pytest.param(
        lambda tmp: load_corrupted_checkpoint(tmp, lambda d: d["arch"].update(kind="rnn")),
        ValueError,
        "unknown arch kind 'rnn'",
        id="unknown_kind",
    ),
    pytest.param(
        lambda tmp: load_corrupted_checkpoint(tmp, lambda d: d["values"].pop()),
        ValueError,
        "50 values for 51 params",
        id="value_count_mismatch",
    ),
]


@pytest.mark.parametrize("attempt, expected, message", MALFORMED_INPUTS)
def test_malformed_input(attempt, expected, message, tmp_path):
    """Each malformed input raises its documented exception."""
    with pytest.raises(expected, match=message) as info:
        attempt(tmp_path)
    assert type(info.value) is expected


def counting_run_lodo_jobs(monkeypatch) -> list[list]:
    """Records the job list of every protocol.run_lodo_jobs call, which still runs."""
    calls = []
    run_lodo_jobs = cli.protocol.run_lodo_jobs

    def counting(jobs):
        calls.append(jobs)
        return run_lodo_jobs(jobs)

    monkeypatch.setattr(cli.protocol, "run_lodo_jobs", counting)
    return calls


@pytest.mark.parametrize(
    "command, doc, n_jobs",
    [
        ("ablate", {}, 4 * len(SMALL["seeds"])),
        ("sweep", {"sweep_param": "n_clients", "sweep_values": [2, 3]}, 2),
    ],
)
def test_command_trains_every_job_in_one_call(tmp_path, monkeypatch, command, doc, n_jobs):
    calls = counting_run_lodo_jobs(monkeypatch)
    cfg = write_cfg(tmp_path, **doc)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert [len(jobs) for jobs in calls] == [n_jobs]


class TestAblate:
    def test_table_shape_and_labels(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["ablate", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "ablation.csv")
        # mode column + (3 domains + avg) per metric, 3 metrics.
        assert len(rows[0]) == 1 + 3 * 4
        assert [r[0] for r in rows[1:]] == ["full", "w/o NDAG", "w/o SHA", "w/o Both"]
        for row in rows[1:]:
            for cell in row[1:]:
                float(cell)
        stdout = capsys.readouterr().out
        assert "w/o Both:" in stdout

    def test_stats_pairings(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["ablate", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "ablation_stats.csv")
        assert rows[0] == [
            "comparison", "metric", "pairing", "mean_diff", "wins", "losses", "ties", "p_value",
        ]
        assert rows[0][3:] == [f.name for f in dataclasses.fields(PairedComparison)]
        # Two seeds cannot feed paired stats; the three-domain pairing can.
        assert "seeds pairing has 2 < 3 points" in capsys.readouterr().err
        body = rows[1:]
        assert len(body) == 3 * 3
        assert {r[2] for r in body} == {"domains"}
        assert {r[0] for r in body} == {"full vs w/o NDAG", "full vs w/o SHA", "full vs w/o Both"}

    def test_wo_both_matches_fedavg_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, seeds=[0])
        abl_out = tmp_path / "abl"
        run_out = tmp_path / "run"
        assert cli.main(["ablate", "--config", cfg, "--out", str(abl_out)]) == 0
        assert (
            cli.main(
                ["run", "--config", cfg, "--out", str(run_out), "--mode", "fedavg", "--seed", "0"]
            )
            == 0
        )
        with open(abl_out / "ablation.csv", newline="") as fh:
            table = {r["mode"]: r for r in csv.DictReader(fh)}
        doc = json.loads((run_out / "report.json").read_text())
        assert float(table["w/o Both"]["acc_avg"]) == doc["averages"]["acc"]
        assert float(table["w/o Both"]["f1_avg"]) == doc["averages"]["f1"]

    def test_single_class_target_domain(self, tmp_path):
        """AUC is undefined on a one-class target: its cells stay empty, its stats are skipped."""
        bench_path = tmp_path / "bench.csv"
        export = ["export-bench", "--config", write_cfg(tmp_path), "--out", str(bench_path)]
        assert cli.main(export) == 0
        rows = read_rows(bench_path)
        for row in rows[1:]:
            if row[0] == "2":
                row[1] = "0"
        with open(bench_path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        cfg = write_cfg(tmp_path, name="cfg2.json", data_csv=str(bench_path))
        out = tmp_path / "out"
        assert cli.main(["ablate", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "ablation.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
        assert {r["auc_d2"] for r in table} == {""}
        assert all(float(r["auc_d1"]) > 0.0 for r in table)
        stats = read_rows(out / "ablation_stats.csv")[1:]
        assert {r[1] for r in stats} == {"acc", "f1"}


class TestSweep:
    def test_k_sweep_rows(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, sweep_param="k", sweep_values=[0, 2])
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "sweep.csv")
        assert rows[0] == ["param", "value", "acc_avg", "f1_avg", "auc_avg"]
        assert [(r[0], r[1]) for r in rows[1:]] == [("k", "0"), ("k", "2")]
        for r in rows[1:]:
            float(r[2])
        assert (out / "sweep.svg").is_file()
        assert "k=0: acc" in capsys.readouterr().out

    def test_alpha_sweep_accepts_floats(self, tmp_path):
        cfg = write_cfg(tmp_path, sweep_param="alpha", sweep_values=[0.0, 0.3])
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert len(read_rows(out / "sweep.csv")) == 3

    def test_integer_param_rejects_fractions(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, sweep_param="k", sweep_values=[0.5])
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "must be integers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "param, values",
        [("alpha", [0.0, 0.3, 2.0]), ("eval_clients_per_round", [0, 2, 9])],
    )
    def test_bad_point_fails_before_any_training(self, tmp_path, monkeypatch, param, values):
        calls = counting_run_lodo_jobs(monkeypatch)
        cfg = write_cfg(tmp_path, sweep_param=param, sweep_values=values)
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert calls == []

    def test_huge_beta_point_plots(self, tmp_path):
        # A single x value of 1e308 is a zero-width axis that adding 1 cannot widen.
        cfg = write_cfg(tmp_path, sweep_param="beta", sweep_values=[1e308])
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "sweep.svg").read_text()
        assert "<circle" in text
        assert "nan" not in text and "inf" not in text

    def test_n_clients_sweep_resizes_bench(self, tmp_path):
        cfg = write_cfg(tmp_path, sweep_param="n_clients", sweep_values=[2, 3])
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "sweep.csv")
        assert [(r[0], r[1]) for r in rows[1:]] == [("n_clients", "2"), ("n_clients", "3")]

    def test_n_clients_sweep_rejects_a_csv_bench(self, tmp_path, capsys):
        bench_path = tmp_path / "bench.csv"
        assert cli.main(["export-bench", "--config", write_cfg(tmp_path), "--out", str(bench_path)]) == 0
        cfg = write_cfg(
            tmp_path, name="cfg2.json", data_csv=str(bench_path),
            sweep_param="n_clients", sweep_values=[1, 2],
        )
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "needs the synthetic bench" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()


class TestExportBench:
    def test_default_location(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, out=str(tmp_path / "out"))
        assert cli.main(["export-bench", "--config", cfg]) == 0
        path = tmp_path / "out" / "bench.csv"
        assert path.is_file()
        assert path.read_text().startswith("domain,label,f0")
        assert "wrote" in capsys.readouterr().out

    def test_explicit_out_file(self, tmp_path):
        cfg = write_cfg(tmp_path)
        target = tmp_path / "my_bench.csv"
        assert cli.main(["export-bench", "--config", cfg, "--out", str(target)]) == 0
        assert target.is_file()

    def test_exported_bench_feeds_a_run(self, tmp_path):
        cfg = write_cfg(tmp_path)
        bench_path = tmp_path / "bench.csv"
        assert cli.main(["export-bench", "--config", cfg, "--out", str(bench_path)]) == 0
        run_cfg = write_cfg(tmp_path, name="cfg2.json", data_csv=str(bench_path))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", run_cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["domains"]) == 3


def test_file_io_names_its_encoding(tmp_path):
    """No open() falls back to the locale's encoding, so no run depends on the locale."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(feddag.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    bench = tmp_path / "bench.csv"
    bench_cfg = write_cfg(tmp_path, name="bench.json")
    cfg = write_cfg(tmp_path, data_csv=str(bench), seeds=[0])
    for argv in (
        ["export-bench", "--config", bench_cfg, "--out", str(bench)],
        ["run", "--config", cfg, "--out", str(tmp_path / "run")],
        ["ablate", "--config", cfg, "--out", str(tmp_path / "ablate")],
    ):
        result = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "feddag.cli", *argv],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr


def session_stats(sid: int) -> dict[int, tuple[str, int]]:
    """State and CPU time in clock ticks of each live process of session sid, read from /proc."""
    stats = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, pgrp, session, ...,
        # utime and stime at positions 11 and 12.
        fields = stat[stat.rindex(")") + 2 :].split()
        if int(fields[3]) == sid and fields[0] != "Z":
            stats[int(name)] = (fields[0], int(fields[11]) + int(fields[12]))
    return stats


def session_pids(sid: int) -> list[int]:
    """Live processes of session sid."""
    return list(session_stats(sid))


def start_run(tmp_path, config: dict, preexec_fn=None):
    """`feddag run` on config in a session of its own; returns (proc, stderr path)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(feddag.__file__)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    err_path = tmp_path / "stderr.txt"
    with open(err_path, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "feddag.cli", "run", "--config", str(cfg), "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src), start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=err, preexec_fn=preexec_fn,
        )
    return proc, err_path


def start_run_with_leg_workers(tmp_path):
    """A long `feddag run` in a session of its own, once all its leg workers run.

    Returns (proc, stderr path); the caller kills what is left of the session.
    """
    proc, err_path = start_run(tmp_path, {"rounds": 200})
    workers = min(len(os.sched_getaffinity(0)), 5)  # one per usable CPU, at most one per leg
    deadline = time.monotonic() + 60.0
    while len(session_pids(proc.pid)) < 1 + workers:
        assert proc.poll() is None and time.monotonic() < deadline, "workers never started"
        time.sleep(0.02)
    return proc, err_path


def processes_left_after(sid: int, seconds: float) -> list[int]:
    """The live processes of session sid once it is empty or seconds have passed."""
    deadline = time.monotonic() + seconds
    while session_pids(sid) and time.monotonic() < deadline:
        time.sleep(0.02)
    return session_pids(sid)


def kill_session(proc) -> None:
    for pid in session_pids(proc.pid):
        os.kill(pid, signal.SIGKILL)
    proc.wait()


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads sessions from /proc")
def test_sigterm_stops_the_run_and_its_leg_workers(tmp_path):
    proc, err_path = start_run_with_leg_workers(tmp_path)
    try:
        os.kill(proc.pid, signal.SIGTERM)
        left = processes_left_after(proc.pid, 2.0)
        assert proc.wait(timeout=5) == 143
        assert not left
    finally:
        kill_session(proc)
    stderr = err_path.read_text(encoding="utf-8")
    assert "Traceback" not in stderr and "terminated" in stderr
    assert not list((tmp_path / "out").rglob("*.tmp"))


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads sessions from /proc")
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers die with their parent through prctl")
def test_sigkill_of_the_run_ends_its_leg_workers(tmp_path):
    # No handler sees SIGKILL; the kernel ends each worker with its parent.
    proc, _ = start_run_with_leg_workers(tmp_path)
    try:
        os.kill(proc.pid, signal.SIGKILL)
        assert proc.wait(timeout=5) == -signal.SIGKILL
        assert not processes_left_after(proc.pid, 2.0)
    finally:
        kill_session(proc)


def assert_killing_a_worker_exits_5(tmp_path, proc, err_path, find_worker) -> None:
    """SIGKILLs the leg worker find_worker() returns; the run must exit 5 within 1 s, cleanly."""
    try:
        os.kill(find_worker(), signal.SIGKILL)
        assert proc.wait(timeout=1.0) == 5
        assert not processes_left_after(proc.pid, 2.0)
    finally:
        kill_session(proc)
    stderr = err_path.read_text(encoding="utf-8")
    assert "Traceback" not in stderr and "worker died" in stderr
    assert not list((tmp_path / "out").rglob("*.tmp"))


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads sessions from /proc")
def test_sigkill_of_a_leg_worker_exits_5(tmp_path):
    proc, err_path = start_run_with_leg_workers(tmp_path)

    def training_worker():
        return next(pid for pid in session_pids(proc.pid) if pid != proc.pid)

    assert_killing_a_worker_exits_5(tmp_path, proc, err_path, training_worker)


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads sessions from /proc")
def test_sigkill_of_a_just_forked_leg_worker_exits_5(tmp_path):
    proc, err_path = start_run(tmp_path, {"rounds": 200})

    def first_worker():
        deadline = time.monotonic() + 60.0
        while True:
            workers = [pid for pid in session_pids(proc.pid) if pid != proc.pid]
            if workers:
                return workers[0]
            assert proc.poll() is None and time.monotonic() < deadline, "no worker started"

    assert_killing_a_worker_exits_5(tmp_path, proc, err_path, first_worker)


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads sessions from /proc")
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two workers")
def test_sigkill_of_an_idle_leg_worker_exits_5(tmp_path):
    # 2 legs of very unequal size on 2 CPUs train as one-leg groups, so no
    # leg can be handed off: leg 1 trains on 27 rows and ends in well under
    # a second, and its worker then idles while leg 0 trains on 2,700 rows
    # for several seconds.
    csv_path = tmp_path / "bench.csv"
    helpers.unequal_csv_bench(csv_path, sizes=(30, 3000))
    cpus = sorted(os.sched_getaffinity(0))[:2]
    proc, err_path = start_run(
        tmp_path, {"data_csv": str(csv_path), "rounds": 150},
        preexec_fn=lambda: os.sched_setaffinity(0, cpus),
    )

    def idle_worker():
        # A worker that has trained and then used no CPU time for 5 polls, 20 ms apart.
        deadline = time.monotonic() + 60.0
        seen = {}  # pid -> (CPU ticks, polls since they last changed)
        while True:
            assert proc.poll() is None and time.monotonic() < deadline, "no worker went idle"
            for pid, (state, ticks) in session_stats(proc.pid).items():
                last, still = seen.get(pid, (None, 0))
                still = still + 1 if state == "S" and ticks == last else 0
                if pid != proc.pid and ticks > 0 and still >= 5:
                    return pid
                seen[pid] = (ticks, still)
            time.sleep(0.02)

    assert_killing_a_worker_exits_5(tmp_path, proc, err_path, idle_worker)


def test_run_forks_workers_without_multiprocessing_from_a_frozen_heap(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(feddag.__file__)))
    cfg = write_cfg(tmp_path)
    script = (
        "import gc, json, sys\n"
        "from feddag import cli\n"
        f"code = cli.main(['run', '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "print(json.dumps([code, 'multiprocessing' in sys.modules, gc.get_freeze_count()]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    code, imported, frozen = json.loads(result.stdout.splitlines()[-1])
    assert code == 0 and not imported and frozen > 0, result.stderr


@pytest.mark.skipif(not hasattr(os, "fork"), reason="leg workers are forked")
def test_sigterm_reaching_a_just_forked_worker_ends_it(tmp_path):
    # A SIGTERM sent to the process group can reach a worker before the
    # worker resets the handler; an at-fork hook in the worker sends it here.
    # Closing the task pipe ends a worker that outlives it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(feddag.__file__)))
    script = tmp_path / "fork.py"
    script.write_text(
        "import os, signal\n"
        "os.register_at_fork(after_in_child=lambda: os.kill(os.getpid(), signal.SIGTERM))\n"
        "from feddag import cli, protocol\n"
        "signal.signal(signal.SIGTERM, cli._raise_terminated)\n"
        "pids, task_pipes = [], {}\n"
        "protocol._fork_leg_worker([], pids, task_pipes)\n"
        "for task_w in task_pipes.values():\n"
        "    os.close(task_w)\n"
        "print(os.waitpid(pids[0], 0)[1])\n"
    )
    result = subprocess.run(
        [sys.executable, str(script)], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=30,
    )
    status = int(result.stdout)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGTERM, result.stderr


def run_in_script(tmp_path, prelude: str, epilogue: str = ""):
    """`cli.main(["run", ...])` on the SMALL config, from a script in a session of its own.

    prelude runs before feddag.cli is imported, and epilogue after main
    returns its exit code, which the script then exits with.  Returns the
    finished process, its stdout and its stderr; the caller kills what is
    left of the session.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(feddag.__file__)))
    cfg, out = write_cfg(tmp_path), str(tmp_path / "out")
    script = tmp_path / "script.py"
    script.write_text(
        "import json, os, signal, sys, threading, time\n"
        + prelude
        + "from feddag import cli\n"
        + f"code = cli.main(['run', '--config', {cfg!r}, '--out', {out!r}])\n"
        + epilogue
        + "sys.exit(code)\n"
    )
    out_path, err_path = tmp_path / "stdout.txt", tmp_path / "stderr.txt"
    with open(out_path, "w", encoding="utf-8") as fout, open(err_path, "w", encoding="utf-8") as ferr:
        proc = subprocess.Popen(
            [sys.executable, str(script)], start_new_session=True, stdout=fout, stderr=ferr,
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
        )
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        kill_session(proc)
        raise
    return proc, out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8")


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads sessions from /proc")
def test_sigterm_during_the_first_fork_stops_the_run(tmp_path):
    # A before-fork hook sends it while the run forks its first leg worker.
    prelude = (
        "sent = []\n"
        "def term_once():\n"
        "    if not sent:\n"
        "        sent.append(True)\n"
        "        os.kill(os.getpid(), signal.SIGTERM)\n"
        "os.register_at_fork(before=term_once)\n"
    )
    proc, _, stderr = run_in_script(tmp_path, prelude)
    try:
        assert proc.returncode == 143, stderr
        assert not processes_left_after(proc.pid, 2.0)
    finally:
        kill_session(proc)
    assert "terminated" in stderr
    assert "Exception ignored" not in stderr and "Traceback" not in stderr
    assert not list((tmp_path / "out").rglob("*.tmp"))


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads sessions from /proc")
def test_sigterm_as_a_fork_returns_ends_the_new_worker(tmp_path):
    # A thread that leaves SIGTERM unblocked, as BLAS threads do, runs the
    # handler as soon as os.fork returns, before the worker's pid is recorded.
    prelude = (
        "threading.Thread(target=time.sleep, args=(60,), daemon=True).start()\n"
        "fork, workers = os.fork, []\n"
        "def fork_then_term():\n"
        "    pid = fork()\n"
        "    if pid and not workers:\n"
        "        workers.append(pid)\n"
        "        os.kill(os.getpid(), signal.SIGTERM)\n"
        "    return pid\n"
        "os.fork = fork_then_term\n"
    )
    # The worker's first message tells the cleanup its pid, so main has
    # reaped it by the time it returns.
    epilogue = (
        "try:\n"
        "    os.waitpid(workers[0], os.WNOHANG)\n"
        "    reaped = False\n"
        "except ChildProcessError:\n"
        "    reaped = True\n"
        "print(json.dumps(reaped))\n"
    )
    proc, stdout, stderr = run_in_script(tmp_path, prelude, epilogue)
    try:
        assert proc.returncode == 143, stderr
        assert json.loads(stdout) is True
        assert not processes_left_after(proc.pid, 2.0)
    finally:
        kill_session(proc)


def test_importing_the_cli_leaves_other_forks_alone(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(feddag.__file__)))
    script = (
        "import json, os, signal\n"
        "blocked = []\n"
        "os.register_at_fork(before=lambda: blocked.append(\n"
        "    signal.SIGTERM in signal.pthread_sigmask(signal.SIG_BLOCK, [])))\n"
        "import feddag.cli\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    os._exit(0)\n"
        "os.waitpid(pid, 0)\n"
        "print(json.dumps(blocked))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=30,
    )
    assert json.loads(result.stdout) == [False], result.stderr


# `feddag run` that prints [exit code, legs of each handoff this process
# received from a worker].  Every round of a group of two or more legs first
# sleeps, which changes no bits, so a one-leg group's worker is done long
# before a pair's.
COUNTING_RUN = """\
import json, os, sys, time
from feddag import cli, protocol
caller, handoffs = os.getpid(), []
group_round, receive = protocol._group_round, protocol._receive

def slow_groups(legs, *args):
    if len(legs) > 1:
        time.sleep(0.05)
    return group_round(legs, *args)

def counting(fd):
    message = receive(fd)
    if os.getpid() == caller and isinstance(message, protocol._Handoff):
        handoffs.append(message.legs)
    return message

protocol._group_round, protocol._receive = slow_groups, counting
code = cli.main(sys.argv[1:])
print(json.dumps([code, handoffs]))
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_run_writes_the_same_bytes_on_one_and_two_cpus(tmp_path):
    # Leg groups follow the usable CPUs: the 3 legs train as {0, 1, 2} on
    # one CPU, and as {0, 1} and {2} on two, where leg 2's worker then takes
    # over leg 1 after one of the pair's 8 rounds.
    src = os.path.dirname(os.path.dirname(os.path.abspath(feddag.__file__)))
    cfg = write_cfg(tmp_path, rounds=8)
    cpus = sorted(os.sched_getaffinity(0))
    artifacts, handoffs = [], []
    for n in (1, 2):
        out = tmp_path / f"out{n}"
        result = subprocess.run(
            [sys.executable, "-c", COUNTING_RUN, "run", "--config", cfg, "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
            preexec_fn=lambda n=n: os.sched_setaffinity(0, cpus[:n]),
        )
        code, legs = json.loads(result.stdout.splitlines()[-1])
        assert code == 0, result.stderr
        handoffs.append(legs)
        artifacts.append({
            str(path.relative_to(out)): path.read_bytes()
            for path in out.rglob("*") if path.is_file()
        })
    assert handoffs == [[], [[1]]]
    one, two = artifacts
    assert sorted(one) == sorted(two)
    assert any(name.startswith("checkpoints") for name in one)
    assert [name for name in one if one[name] != two[name]] == []


class TestParser:
    def test_command_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_config_flag_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run"])
        assert exc.value.code == 2

    def test_mode_choices_enforced(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", "x.json", "--mode", "bogus"])
        assert exc.value.code == 2
