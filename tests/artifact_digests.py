"""The sha256 of every artifact of a fixed set of feddag commands, for byte-identity checks.

Usage, from the repository root:

    python3 tests/artifact_digests.py SRC OUT.json

SRC is the src/ directory of the tree to run.  Run the script once for each
of two trees, say a parent commit and a change, and compare the two JSON
files (``cmp``): equal files mean every report.json, CSV, SVG and
checkpoint is byte-identical.  The commands are:

- ``feddag run`` on each workload config of perfbench/run.py's WORKLOADS,
  at seeds 0 and 3 (sha_many reads the CSV bench its export config makes);
- ``feddag ablate``, 4 rounds over seeds 0-2;
- ``feddag sweep`` over ``k`` in [0, 2, 4], at seeds 0 and 1.

Each command is a fresh process with one BLAS thread, run in one temporary
directory with every path relative to it: report.json echoes the config,
sha_many's data_csv path included.  OUT.json maps "<command label>/<path
of the file in its output directory>" to the file's sha256.  Not a test
module; pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS  # noqa: E402

RUN_SEEDS = (0, 3)
ABLATE = {"rounds": 4, "seeds": [0, 1, 2]}
SWEEP = {"sweep_param": "k", "sweep_values": [0, 2, 4]}
SWEEP_SEEDS = (0, 1)


def feddag(src: Path, work: Path, *args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, "-m", "feddag.cli", *args], cwd=work, env=env, check=True,
                   stdout=subprocess.DEVNULL)


def commands(work: Path, src: Path) -> list[tuple[str, str, dict]]:
    """(label, command, config) of every command; writes the CSV benches they read."""
    todo = []
    for name, workload in WORKLOADS.items():
        for seed in RUN_SEEDS:
            config = dict(workload.config, seed=seed)
            if workload.export is not None:
                (work / "export.json").write_text(json.dumps(workload.export))
                config["data_csv"] = f"{name}-seed{seed}.csv"
                feddag(src, work, "export-bench", "--config", "export.json",
                       "--out", config["data_csv"], "--seed", str(seed))
            todo.append((f"run-{name}-seed{seed}", "run", config))
    todo.append(("ablate", "ablate", ABLATE))
    todo += [(f"sweep-k-seed{seed}", "sweep", dict(SWEEP, seed=seed)) for seed in SWEEP_SEEDS]
    return todo


def digests(src: Path) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        out = {}
        for label, command, config in commands(work, src):
            (work / f"{label}.json").write_text(json.dumps(config))
            feddag(src, work, command, "--config", f"{label}.json", "--out", label)
            for path in sorted((work / label).rglob("*")):
                if path.is_file():
                    key = f"{label}/{path.relative_to(work / label)}"
                    out[key] = hashlib.sha256(path.read_bytes()).hexdigest()
        return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tests/artifact_digests.py SRC OUT.json", file=sys.stderr)
        return 2
    src, out_json = Path(argv[0]).resolve(), Path(argv[1])
    found = digests(src)
    out_json.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")
    print(f"{len(found)} artifacts -> {out_json}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
