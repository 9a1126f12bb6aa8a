"""Benchmark of the feddag CLI: end-to-end metrics, or per-module metrics when traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Each repetition is a fresh single-threaded Python process (BLAS pinned to one
thread, FEDDAG_THREADS unset) that calls ``feddag.cli.main(["run", ...])`` on
the workload's config with ``seed`` = N.  Repetitions run back to back until S
seconds have passed; the end-to-end metrics are medians over them.  With
``--trace 1`` one more repetition runs with every traced function wrapped
(see tracer.py) and the per-module metrics come from it.

Every repetition reuses one emptied output directory, and its outputs are
checked: exit code 0, the expected shape of report.json and the CSVs, SHA
weights on the simplex, a finite accuracy in [0, 1], and one digest of
report.json, metrics.csv and sha_log.csv across all repetitions of a run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Working files go to
``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_out"

# Every run ends within this many seconds of its start.
RUN_LIMIT_S = 170.0
DIGESTED = ("report.json", "metrics.csv", "sha_log.csv")
REPORTING_FILES = (
    "report.json",
    "metrics.csv",
    "sha_log.csv",
    "train_trace.csv",
    "loss_vs_round.svg",
    "accuracy_vs_round.svg",
)
# Set-up-only processes after each full repetition, so setup_s has more samples.
SETUP_PROBES = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "FEDDAG_THREADS")


@dataclass(frozen=True)
class Workload:
    """A run config and the output shape it must produce.

    The shape is written out here rather than read from feddag's defaults, so
    the output checks do not take the program's word for it.
    """

    config: dict
    domains: int  # LODO legs; each leg has domains - 1 clients
    rounds: int
    warmup: int
    sha: bool  # whether post-warmup rounds are SHA-scored
    export: dict | None = None  # export-bench config; the run then reads the CSV


# Why each workload exists, and which metrics it should move: BENCHMARK.json and
# perfbench/README.md.
WORKLOADS = {
    "lodo_default": Workload(
        config={},
        domains=5,
        rounds=14,
        warmup=3,
        sha=True,
    ),
    "fedavg_wide": Workload(
        config={
            "mode": "fedavg",
            "hidden_dims": [64, 64],
            "feature_dim": 32,
            "lr": 0.02,
            "bench_seed": 0,
            "rounds": 20,
        },
        domains=5,
        rounds=20,
        warmup=3,
        sha=False,
    ),
    "sha_many": Workload(
        config={
            "mode": "no_ndag",
            "batch_size": 256,
            "warmup_rounds": 1,
            "rounds": 10,
        },
        domains=17,
        rounds=10,
        warmup=1,
        sha=True,
        export={"n_domains": 17, "samples_per_domain": 200},
    ),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "train_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


class OutputError(Exception):
    """A repetition's outputs fail a check."""


@dataclass
class Repetition:
    wall_s: float
    setup_s: float
    run_lodo_s: float
    train_samples: int
    peak_rss_mb: float
    acc_avg: float
    digest: str
    trace: dict | None
    reporting_bytes: int


@dataclass
class Paths:
    work: Path
    out: Path = field(init=False)
    config: Path = field(init=False)
    result: Path = field(init=False)
    log: Path = field(init=False)

    def __post_init__(self):
        self.out = self.work / "run"
        self.config = self.work / "config.json"
        self.result = self.work / "result.json"
        self.log = self.work / "child.log"

    def rel(self, path: Path) -> str:
        return str(path.relative_to(ROOT))


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FEDDAG_THREADS", None)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(SRC),
    )
    return env


def check_call(argv: list[str], env: dict) -> None:
    subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=120, stdout=subprocess.DEVNULL)


def set_up(name: str, workload: Workload, seed: int, env: dict) -> Paths:
    """Untimed: byte-compile the sources, warm the imports, write the inputs."""
    paths = Paths(WORK / name)
    shutil.rmtree(paths.work, ignore_errors=True)
    paths.work.mkdir(parents=True)
    check_call([sys.executable, "-m", "compileall", "-q", str(SRC)], env)
    check_call([sys.executable, "-c", "import feddag.cli"], env)
    config = dict(workload.config, seed=seed)
    if workload.export is not None:
        export_cfg = paths.work / "export.json"
        export_cfg.write_text(json.dumps(workload.export))
        csv_path = paths.work / "bench.csv"
        check_call(
            [sys.executable, "-m", "feddag.cli", "export-bench", "--config",
             paths.rel(export_cfg), "--out", paths.rel(csv_path), "--seed", str(seed)],
            env,
        )
        config["data_csv"] = paths.rel(csv_path)
    paths.config.write_text(json.dumps(config, sort_keys=True))
    return paths


def spawn(paths: Paths, env: dict, deadline: float, trace: bool = False, setup_only: bool = False):
    """One child process; returns (wall_s, peak RSS in MB, start, result)."""
    shutil.rmtree(paths.out, ignore_errors=True)
    paths.result.unlink(missing_ok=True)
    spec = paths.work / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "config": paths.rel(paths.config),
                "out": paths.rel(paths.out),
                "trace": trace,
                "setup_only": setup_only,
                "result": str(paths.result),
            }
        )
    )
    argv = [sys.executable, str(BENCH_DIR / "child.py"), str(spec)]
    with open(paths.log, "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise OutputError(f"exit code {proc.returncode}; see {paths.log}")
    result = json.loads(paths.result.read_text())
    if not Path(result["feddag_file"]).resolve().is_relative_to(SRC):
        raise OutputError(f"feddag imported from {result['feddag_file']}, not from {SRC}")
    if "run_lodo_enter" not in result["marks"]:
        raise OutputError("protocol.run_lodo was never entered")
    return end - start, usage.ru_maxrss / 1024.0, start, result


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(out: Path, workload: Workload) -> float:
    """Checks the artifacts of one run; returns the LODO mean accuracy."""
    report = json.loads((out / "report.json").read_text())
    acc = report["averages"]["acc"]
    if not (isinstance(acc, float) and math.isfinite(acc) and 0.0 <= acc <= 1.0):
        raise OutputError(f"acc_avg {acc!r} is not a finite number in [0, 1]")
    domains = report["domains"]
    if len(domains) != workload.domains:
        raise OutputError(f"{len(domains)} LODO legs, expected {workload.domains}")
    finals = [d["final"]["acc"] for d in domains]
    if abs(statistics.fmean(finals) - acc) > 1e-12:
        raise OutputError("acc_avg is not the mean of the per-leg final accuracies")
    if any(len(d["rounds"]) != workload.rounds for d in domains):
        raise OutputError(f"a leg does not have {workload.rounds} rounds")

    metric_rows = read_csv(out / "metrics.csv")
    if len(metric_rows) != workload.domains * workload.rounds:
        raise OutputError(f"metrics.csv has {len(metric_rows)} rows")

    clients = workload.domains - 1
    scored = workload.rounds - workload.warmup if workload.sha else 0
    sha_rows = read_csv(out / "sha_log.csv")
    if len(sha_rows) != workload.domains * scored * clients:
        raise OutputError(f"sha_log.csv has {len(sha_rows)} rows, expected "
                          f"{workload.domains * scored * clients}")
    weight_sums: dict[tuple[str, str], float] = {}
    for row in sha_rows:
        key = (row["target_domain"], row["round"])
        weight_sums[key] = weight_sums.get(key, 0.0) + float(row["weight"])
    if any(abs(total - 1.0) > 1e-9 for total in weight_sums.values()):
        raise OutputError("SHA weights of a round do not sum to 1")
    return acc


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for name in DIGESTED:
        h.update(name.encode() + b"\0" + (out / name).read_bytes() + b"\0")
    return h.hexdigest()


def setup_probe(paths: Paths, env: dict, deadline: float) -> float:
    """Set-up time of a process that stops on entering run_lodo."""
    _, _, start, result = spawn(paths, env, deadline, setup_only=True)
    return result["marks"]["run_lodo_enter"] - start


def repetition(paths: Paths, workload: Workload, trace: bool, env: dict, deadline: float):
    wall, rss_mb, start, result = spawn(paths, env, deadline, trace=trace)
    marks = result["marks"]
    acc = check_outputs(paths.out, workload)
    return Repetition(
        wall_s=wall,
        setup_s=marks["run_lodo_enter"] - start,
        run_lodo_s=marks["run_lodo_exit"] - marks["run_lodo_enter"],
        train_samples=marks["train_samples"],
        peak_rss_mb=rss_mb,
        acc_avg=acc,
        digest=digest(paths.out),
        trace=result["trace"],
        reporting_bytes=sum((paths.out / f).stat().st_size for f in REPORTING_FILES),
    )


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(
    reps: list[Repetition], setups: list[float], attempted: int, failed: int
) -> dict[str, float]:
    return {
        "wall_s": statistics.median(r.wall_s for r in reps),
        "setup_s": statistics.median(setups),
        "train_samples_per_s": statistics.median(r.train_samples / r.run_lodo_s for r in reps),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps),
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(traced: Repetition, untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-module metrics of the traced repetition, as name -> (value, unit)."""
    snap = traced.trace
    stats, counts = snap["stats"], snap["counts"]

    def stat(name):
        calls, total, callee = stats.get(name, (0, 0.0, 0.0))
        return calls, total - callee, total

    out: dict[str, tuple[float, str]] = {}
    for name in tracer.TRACED:
        calls, self_s, total_s = stat(name)
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
        out[f"{name}.total_s"] = (total_s, "s")
    out["params.ParamVector.inits"] = (counts.get("params.ParamVector.inits", 0), "count")
    out["reporting.write_s"] = (sum(stat(n)[1] for n in tracer.REPORTING), "s")
    out["reporting.bytes"] = (traced.reporting_bytes, "B")

    def frac(count_name, calls_of):
        calls = stat(calls_of)[0]
        return counts.get(count_name, 0) / calls if calls else 0.0

    out["sha.probe_applied_frac"] = (frac("sha.probe_applied", "sha.perturb_model"), "frac")
    out["sha.merge_frac"] = (frac("sha.merges", "sha.within_client_aggregate"), "frac")
    out["sha.near_perfect"] = (counts.get("sha.near_perfect", 0), "count")
    out["ndag.degenerate_rows"] = (counts.get("ndag.degenerate_rows", 0), "count")

    rounds = snap["samples"].get("protocol.run_round", [])
    # The highest whole percentile with at least 10 samples beyond it.
    tail_pct = max(50, math.floor(100.0 * (1.0 - 10.0 / len(rounds)))) if rounds else 0
    out["protocol.run_round.p50_ms"] = (percentile(rounds, 50) * 1e3 if rounds else 0.0, "ms")
    out["protocol.run_round.tail_ms"] = (
        percentile(rounds, tail_pct) * 1e3 if rounds else 0.0, "ms")
    out["protocol.run_round.tail_pct"] = (tail_pct, "%")

    lodo_total = stat("protocol.run_lodo")[2]
    core = sum(stat(n)[1] for n in ("ndag.generator_step", "ndag.student_step",
                                    "autodiff.backward"))
    out["bench.ndag_core_self_share"] = (core / lodo_total if lodo_total else 0.0, "frac")
    out["bench.sha_score_share"] = (
        stat("sha.evaluate_score")[2] / lodo_total if lodo_total else 0.0, "frac")
    out["bench.tracing_overhead"] = (traced.wall_s / untraced_wall - 1.0, "frac")
    out["bench.span_coverage"] = (span_coverage(traced), "frac")
    out["bench.absent_functions"] = (len(snap["absent"]), "count")
    out["output.acc_avg"] = (traced.acc_avg, "frac")
    return out


def span_coverage(traced: Repetition) -> float:
    """Top-level spans (setup, run_lodo, artifact writes) over the wall time."""
    stats = traced.trace["stats"]
    writes = sum(stats.get(n, (0, 0.0))[1] for n in tracer.REPORTING + ("cli.save_checkpoint",))
    return (traced.setup_s + traced.run_lodo_s + writes) / traced.wall_s


def environment(env: dict) -> dict:
    probe = (
        "import json, platform, numpy\n"
        "try:\n"
        "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "except Exception as exc:\n"
        "    blas = {'error': repr(exc)}\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'blas': blas}))\n"
    )
    info = json.loads(
        subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                       check=True, timeout=60).stdout
    )
    info["nproc"] = len(os.sched_getaffinity(0))
    info["cpu_count"] = os.cpu_count()
    info["thread_env"] = {var: env.get(var) for var in THREAD_VARS}
    info["git_commit"] = git_commit()
    return info


def git_commit() -> str:
    """HEAD of the repository root, if it is a git checkout."""
    # The ceiling keeps git from looking for a repository above the root.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], env=env, capture_output=True,
                              text=True, timeout=30).stdout.strip()

    try:
        if not git("rev-parse", "--show-toplevel"):
            return "unknown (not a git checkout)"
        return git("rev-parse", "HEAD") + ("-dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """One workload: returns the result object for the last output line."""
    workload = WORKLOADS[name]
    env = child_env()
    paths = set_up(name, workload, seed, env)
    print("# environment " + json.dumps(environment(env), sort_keys=True), flush=True)

    reps: list[Repetition] = []
    setups: list[float] = []
    digests: set[str] = set()
    attempted = failed = 0
    measure_start = time.monotonic()
    while True:
        attempted += 1
        try:
            rep = repetition(paths, workload, False, env, deadline)
            reps.append(rep)
            setups.append(rep.setup_s)
            digests.add(rep.digest)
        except (OutputError, OSError, KeyError, ValueError) as exc:
            failed += 1
            print(f"# repetition {attempted} failed: {exc}", file=sys.stderr, flush=True)
        for _ in range(SETUP_PROBES):
            attempted += 1
            try:
                setups.append(setup_probe(paths, env, deadline))
            except (OutputError, OSError, KeyError, ValueError) as exc:
                failed += 1
                print(f"# set-up probe failed: {exc}", file=sys.stderr, flush=True)
        now = time.monotonic()
        last = reps[-1].wall_s if reps else now - measure_start
        reserve = 2.0 * last if trace else 0.0
        if now - measure_start >= seconds or now + last + reserve > deadline:
            break

    layer = None
    if trace and reps:
        attempted += 1
        try:
            traced = repetition(paths, workload, True, env, deadline)
            digests.add(traced.digest)
            layer = per_layer(traced, statistics.median(r.wall_s for r in reps))
            coverage = layer["bench.span_coverage"][0]
            if abs(coverage - 1.0) > 0.05:
                raise OutputError(f"top-level spans cover {coverage:.3f} of the traced wall time")
            absent = traced.trace["absent"]
            if absent:
                print("# absent functions: " + ", ".join(absent), flush=True)
        except (OutputError, OSError, KeyError, ValueError) as exc:
            failed += 1
            print(f"# traced repetition failed: {exc}", file=sys.stderr, flush=True)

    if len(digests) > 1:
        print(f"# outputs differ between repetitions: {len(digests)} digests",
              file=sys.stderr, flush=True)
        failed = attempted
    correct = failed == 0 and bool(reps) and (layer is not None or not trace)

    if trace:
        metrics = layer or {}
    else:
        values = end_to_end(reps, setups, attempted, failed) if reps else {}
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    print(f"# {name}: {len(reps)} timed repetitions, digest "
          f"{next(iter(digests))[:16] if digests else '-'}", flush=True)
    print("# wall_s per repetition: " + " ".join(f"{r.wall_s:.3f}" for r in reps), flush=True)
    print("# setup_s per process: " + " ".join(f"{t:.3f}" for t in setups), flush=True)
    for key, (value, unit) in metrics.items():
        print(f"# {name} {key} = {value:.6g} {unit}", flush=True)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "feddag" / "cli.py").is_file():
        print(f"feddag sources not found under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
