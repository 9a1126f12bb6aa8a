"""One benchmark repetition: ``feddag run`` in this process, with timing marks.

Usage: python3 child.py SPEC_JSON

SPEC_JSON names the run config, the output directory, whether to trace,
whether to stop on entering ``run_lodo`` (a set-up probe), and the file this
process writes its result to.  The result holds monotonic clock marks of
``run_lodo`` entry and exit, the number of training examples the run pushes
through local steps, the path feddag was imported from, and with tracing on
the per-function statistics.
"""

from __future__ import annotations

import json
import sys
import time


class SetupDone(BaseException):
    """Ends a set-up probe on entry to run_lodo; the CLI does not catch it."""


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)

    import feddag
    from feddag import cli, protocol

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    marks: dict = {}
    run_lodo = protocol.run_lodo

    def timed_run_lodo(benchmark, config, *args, **kwargs):
        # Every leg trains on all source domains except its target, for
        # rounds x local_epochs passes; an NDAG batch counts once.
        total = sum(len(d.train_y) for d in benchmark)
        passes = config.rounds * config.local_epochs
        marks["train_samples"] = sum(total - len(d.train_y) for d in benchmark) * passes
        marks["run_lodo_enter"] = time.monotonic()
        if spec["setup_only"]:
            raise SetupDone
        try:
            return run_lodo(benchmark, config, *args, **kwargs)
        finally:
            marks["run_lodo_exit"] = time.monotonic()

    protocol.run_lodo = timed_run_lodo
    try:
        code = cli.main(["run", "--config", spec["config"], "--out", spec["out"]])
    except SetupDone:
        code = 0

    result = {
        "marks": marks,
        "feddag_file": feddag.__file__,
        "trace": tracer.snapshot() if tracer is not None else None,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
