"""The sha256 of every artifact of a fixed set of feddag commands, for byte-identity checks.

Usage, from the repository root:

    python3 tests/artifact_digests.py SRC OUT.json

SRC is the src/ directory of the tree to run.  Run the script once for each
of two trees, say a parent commit and a change, and compare the two JSON
files (``cmp``): equal files mean every report.json, CSV, SVG and
checkpoint is byte-identical.  The commands are:

- ``feddag run`` on each workload config of perfbench/run.py's WORKLOADS,
  at seeds 0 and 3 (sha_many reads the CSV bench its export config makes);
- ``feddag run`` on a CSV bench of unequal domains with non-contiguous ids,
  out of order: an export with rows dropped and its ids remapped (REMAP);
- ``feddag run`` with two local epochs, 4 rounds (EPOCHS): each client's
  batch index runs on across the epochs of its round;
- ``feddag ablate``, 4 rounds over seeds 0-2;
- ``feddag sweep`` over ``k`` in [0, 2, 4], at seeds 0 and 1.

Each command is a fresh process with one BLAS thread, run in one temporary
directory with every path relative to it: report.json echoes the config,
sha_many's data_csv path included.  OUT.json maps "<command label>/<path
of the file in its output directory>" to the file's sha256.  Not a test
module; pytest does not collect it.
"""

from __future__ import annotations

import csv
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
# The remapped CSV bench: exported domain -> (new id, keep all but every nth of its rows).
REMAP_EXPORT = {"n_domains": 3, "samples_per_domain": 200}
REMAP = {0: (7, 0), 1: (2**40, 3), 2: (3, 5)}
EPOCHS = {"local_epochs": 2, "rounds": 4}


def feddag(src: Path, work: Path, *args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, "-m", "feddag.cli", *args], cwd=work, env=env, check=True,
                   stdout=subprocess.DEVNULL)


def write_remapped(exported: Path, out: Path) -> None:
    """exported with each domain's id and rows changed as REMAP says."""
    with open(exported, newline="") as fh:
        header, *rows = csv.reader(fh)
    kept, seen = [header], {}
    for domain, *rest in rows:
        new_id, nth = REMAP[int(domain)]
        seen[domain] = seen.get(domain, 0) + 1
        if not nth or seen[domain] % nth:
            kept.append([str(new_id), *rest])
    with open(out, "w", newline="") as fh:
        csv.writer(fh).writerows(kept)


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
    (work / "export.json").write_text(json.dumps(REMAP_EXPORT))
    feddag(src, work, "export-bench", "--config", "export.json", "--out", "exported.csv")
    write_remapped(work / "exported.csv", work / "remapped.csv")
    todo.append(("run-csv-remapped", "run", {"data_csv": "remapped.csv"}))
    todo.append(("run-epochs2", "run", EPOCHS))
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
