"""Experiment entry point: run, ablate, sweep, export-bench.

Exit codes: 0 success, 2 configuration error, 3 training divergence,
4 I/O error, 5 a leg worker died, 6 out of memory, 143 stopped by SIGTERM.

A command that trains builds every job it runs before any trains, which
range-checks every key they read, and then runs them all in one
protocol.run_lodo_jobs call (run through run_lodo, its one-job form), so
one set of leg workers serves the whole command.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import sys

import numpy as np

from . import config as cfgmod
from . import metrics, protocol, reporting
from .atomic import atomic_open, write_csv
from .data import export_csv
from .ndag import DivergenceError
from .nets import TaskArch
from .params import ParamVector

MODE_LABELS = {
    "feddag": "full",
    "no_ndag": "w/o NDAG",
    "no_sha": "w/o SHA",
    "fedavg": "w/o Both",
}

# ablation_stats.csv: what is compared, then the fields of its PairedComparison.
STATS_HEADER = ["comparison", "metric", "pairing"] + [
    f.name for f in dataclasses.fields(metrics.PairedComparison)
]


# Checkpoint values are written this many at a time.
CHECKPOINT_CHUNK = 1024


def save_checkpoint(path: str, params: ParamVector, arch: TaskArch, round_index: int) -> None:
    """Global task model snapshot as JSON: {arch: {kind, *fields}, values, role, round}.

    The file is json.dumps(doc, sort_keys=True) and a newline, written in
    pieces: the document without values, whose keys sort before "values",
    then the values CHECKPOINT_CHUNK at a time, each as the float repr that
    json writes for it, so no list or string of them all is built.  The
    values are finite: a run whose final model is not exits 3 first.
    """
    doc = {
        "arch": {"kind": "task", **dataclasses.asdict(arch)},
        "role": "global_task",
        "round": round_index,
    }
    values = params.values
    with atomic_open(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True)[:-1])
        fh.write(', "values": [')
        for start in range(0, len(values), CHECKPOINT_CHUNK):
            chunk = values[start : start + CHECKPOINT_CHUNK].tolist()
            fh.write((", " if start else "") + ", ".join(map(float.__repr__, chunk)))
        fh.write("]}\n")


def _bench_dims(bench) -> tuple[int, int]:
    input_dim = bench[0].train_x.shape[1]
    n_classes = 1 + max(int(max(d.train_y.max(), d.val_y.max())) for d in bench)
    return input_dim, max(n_classes, 2)


def _lodo_inputs(cfg: dict, collect_trace: bool = False) -> protocol.Job:
    """The job of cfg's bench, federation and arches; building it range-checks every key read."""
    bench = cfgmod.benchmark(cfg)
    input_dim, n_classes = _bench_dims(bench)
    task_arch, gen_arch = cfgmod.arches(cfg, input_dim, n_classes)
    fed = cfgmod.fed_config(cfg, n_clients=len(bench) - 1)
    return protocol.Job(bench, fed, task_arch, gen_arch, collect_trace)


def cmd_run(cfg: dict) -> int:
    out = cfg["out"]
    job = _lodo_inputs(cfg, collect_trace=True)
    os.makedirs(out, exist_ok=True)
    # run_lodo is the one-job call, under the name and arguments perfbench/child.py times.
    report = protocol.run_lodo(*job)
    reporting.write_report_json(os.path.join(out, "report.json"), cfg, report)
    reporting.write_metrics_csv(os.path.join(out, "metrics.csv"), report)
    reporting.write_sha_log_csv(os.path.join(out, "sha_log.csv"), report)
    reporting.write_trace_csv(os.path.join(out, "train_trace.csv"), report)
    reporting.plot_rounds(
        report,
        os.path.join(out, "loss_vs_round.svg"),
        os.path.join(out, "accuracy_vs_round.svg"),
    )
    ckpt_dir = os.path.join(out, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)
    for run in report.domains:
        save_checkpoint(
            os.path.join(ckpt_dir, f"final_task_d{run.target_domain}.json"),
            run.final_task,
            job.task_arch,
            round_index=cfg["rounds"],
        )
    avg = report.averages
    auc = "n/a" if avg["auc"] is None else f"{avg['auc']:.4f}"
    print(f"lodo avg: acc {avg['acc']:.4f}  f1 {avg['f1']:.4f}  auc {auc}")
    print(f"artifacts in {out}")
    return 0


def cmd_ablate(cfg: dict) -> int:
    out = cfg["out"]
    seeds = cfg["seeds"]
    keys = [(mode, seed) for mode in protocol.MODES for seed in seeds]
    jobs = [_lodo_inputs(dict(cfg, mode=mode, seed=seed)) for mode, seed in keys]
    os.makedirs(out, exist_ok=True)
    results = dict(zip(keys, protocol.run_lodo_jobs(jobs)))

    domain_ids = [run.target_domain for run in results[(protocol.MODES[0], seeds[0])].domains]
    metric_names = ("acc", "f1", "auc")

    def domain_mean(mode: str, name: str, pos: int) -> float | None:
        """Seed mean of one leg's final metric; None if a seed has none (single-class AUC)."""
        vals = [getattr(results[(mode, s)].domains[pos].final, name) for s in seeds]
        return None if any(v is None for v in vals) else float(np.mean(vals))

    # Seed-averaged per-domain and overall-average table, one row per mode.
    header = ["mode"]
    for name in metric_names:
        header += [f"{name}_d{d}" for d in domain_ids] + [f"{name}_avg"]
    rows = []
    for mode in protocol.MODES:
        row = [MODE_LABELS[mode]]
        for name in metric_names:
            per_domain = [domain_mean(mode, name, pos) for pos in range(len(domain_ids))]
            avg = [results[(mode, s)].averages[name] for s in seeds]
            avg = None if any(v is None for v in avg) else float(np.mean(avg))
            row += [reporting.fmt(v) for v in per_domain] + [reporting.fmt(avg)]
        rows.append(row)
    write_csv(os.path.join(out, "ablation.csv"), header, rows)

    # Paired comparisons against full FedDAG, over seeds and over domains.
    stats_rows = []
    for mode in protocol.MODES[1:]:
        for name in metric_names:
            full_by_seed = [results[("feddag", s)].averages[name] for s in seeds]
            mode_by_seed = [results[(mode, s)].averages[name] for s in seeds]
            pairings = [("seeds", full_by_seed, mode_by_seed)]
            full_by_dom = [domain_mean("feddag", name, pos) for pos in range(len(domain_ids))]
            mode_by_dom = [domain_mean(mode, name, pos) for pos in range(len(domain_ids))]
            pairings.append(("domains", full_by_dom, mode_by_dom))
            for pairing, a, b in pairings:
                if any(v is None for v in a + b):
                    continue
                if len(a) < 3:
                    print(
                        f"warning: {pairing} pairing has {len(a)} < 3 points, "
                        "paired stats omitted",
                        file=sys.stderr,
                    )
                    continue
                cmp = metrics.paired_compare(a, b)
                stats_rows.append(
                    [f"full vs {MODE_LABELS[mode]}", name, pairing]
                    + [reporting.fmt(v) for v in dataclasses.astuple(cmp)]
                )
    write_csv(os.path.join(out, "ablation_stats.csv"), STATS_HEADER, stats_rows)

    for mode, row in zip(protocol.MODES, rows):
        print(f"{MODE_LABELS[mode]:>9}: " + " ".join(row[1:]))
    print(f"artifacts in {out}")
    return 0


def cmd_sweep(cfg: dict) -> int:
    out = cfg["out"]
    param = cfg["sweep_param"]
    values = cfg["sweep_values"]
    int_params = {"k", "eval_clients_per_round", "n_clients"}
    if param in int_params and not all(float(v).is_integer() for v in values):
        raise cfgmod.ConfigError(f"sweep_values for {param!r} must be integers, got {values}")
    if param == "n_clients" and cfg["data_csv"]:
        # A CSV bench fixes its domains, so every point would train the same federation.
        raise cfgmod.ConfigError("sweep over 'n_clients' needs the synthetic bench, not data_csv")

    def cfg_for(value):
        if param in int_params:
            value = int(value)
        if param == "n_clients":
            # One client per source domain: n domains = clients + held-out target.
            return cfgmod.resolve(dict(cfg, n_domains=value + 1))
        return cfgmod.resolve(dict(cfg, **{param: value}))

    jobs = [_lodo_inputs(cfg_for(v)) for v in values]
    os.makedirs(out, exist_ok=True)
    reports = protocol.run_lodo_jobs(jobs)

    write_csv(
        os.path.join(out, "sweep.csv"),
        ["param", "value", "acc_avg", "f1_avg", "auc_avg"],
        (
            [param, value] + [reporting.fmt(r.averages[name]) for name in ("acc", "f1", "auc")]
            for value, r in zip(values, reports)
        ),
    )

    xs = [float(v) for v in values]
    series = []
    for name in ("acc", "f1", "auc"):
        ys = [r.averages[name] for r in reports]
        if all(y is not None for y in ys):
            series.append((f"avg {name}", xs, [float(y) for y in ys]))
    reporting.plot_lines(
        os.path.join(out, "sweep.svg"), f"Sweep over {param}", param, "metric", series
    )
    for value, report in zip(values, reports):
        print(f"{param}={value}: acc {report.averages['acc']:.4f}")
    print(f"artifacts in {out}")
    return 0


def cmd_export_bench(cfg: dict, out_path: str | None) -> int:
    spec = cfgmod.bench_spec(cfg)
    if out_path is None:
        os.makedirs(cfg["out"], exist_ok=True)
        out_path = os.path.join(cfg["out"], "bench.csv")
    export_csv(spec, out_path)
    print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feddag",
        description="Federated domain-generalization simulator "
        "(adversarial novel-domain generation + sharpness-aware aggregation)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("run", "leave-one-domain-out run with full artifacts"),
        ("ablate", "four-mode ablation over the seed list"),
        ("sweep", "hyperparameter sweep (sweep_param/sweep_values from config)"),
        ("export-bench", "write the synthetic benchmark as CSV"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="path to flat JSON config")
        p.add_argument("--out", help="output directory (export-bench: output file)")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--mode", choices=protocol.MODES, help="override config mode")
    return parser


class Terminated(Exception):
    """SIGTERM reached the process running a command."""


def _raise_terminated(signum, frame):
    # Unwinds run_lodo_jobs, which kills its leg workers, and atomic_open,
    # which removes its temporary file.
    raise Terminated


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.mode is not None:
        overrides["mode"] = args.mode
    if args.out is not None and args.command != "export-bench":
        overrides["out"] = args.out
    previous = signal.getsignal(signal.SIGTERM)
    try:
        signal.signal(signal.SIGTERM, _raise_terminated)
        cfg = cfgmod.load(args.config, overrides)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "ablate":
            return cmd_ablate(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        return cmd_export_bench(cfg, args.out)
    except cfgmod.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except protocol.LegWorkerDied as exc:
        print(f"worker died: {exc}", file=sys.stderr)
        return 5
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 6
    except Terminated:
        print("terminated", file=sys.stderr)
        return 128 + signal.SIGTERM
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
