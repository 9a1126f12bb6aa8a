"""Per-function call tracing for the feddag package, installed from outside it.

Each traced function is replaced by a timing wrapper in every feddag module
namespace that holds it, so a function imported by value (``sgd_step`` in
``ndag``, ``batch_loss_cls`` in ``protocol`` and ``sha``) is timed where its
caller looks it up.  A wrapper records calls, total time and self time, which
is its total minus the time spent in traced callees.  A function the package
no longer has is recorded as absent.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# Functions that report their calls, self_s and total_s as per-layer metrics.
TRACED = (
    "config.load",
    "config.benchmark",
    "data.make_benchmark",
    "data.load_csv",
    "protocol.run_lodo",
    "protocol.run_round",
    "protocol.distribute",
    "ndag.client_round",
    "ndag.generator_step",
    "ndag.student_step",
    "ndag.plain_step",
    "ndag.ema_update",
    "ndag.generate",
    "autodiff.backward",
    "nets.layer_tensors",
    "nets.task_graph",
    "nets.gen_graph",
    "nets.flat_grad",
    "nets.task_apply",
    "params.sgd_step",
    "params.param_mean",
    "losses.batch_loss_cls",
    "sha.perturb_model",
    "sha.evaluate_score",
    "sha.within_client_aggregate",
    "sha.softmax_weights",
    "sha.across_client_aggregate",
    "metrics.evaluate",
    "cli.save_checkpoint",
)

# Artifact writers; their self time is summed into reporting.write_s.
REPORTING = (
    "reporting.write_report_json",
    "reporting.write_metrics_csv",
    "reporting.write_sha_log_csv",
    "reporting.write_trace_csv",
    "reporting.plot_from_metrics_csv",
)

# Useful-work counts read from return values: name -> (args, result) -> int.
OUTCOMES = {
    "sha.perturb_model": lambda args, res: {"sha.probe_applied": int(bool(res[1]))},
    "sha.evaluate_score": lambda args, res: {
        "sha.near_perfect": int(bool(getattr(res, "near_perfect", False)))
    },
    "sha.within_client_aggregate": lambda args, res: {
        "sha.merges": int(bool(args) and res[0] is not args[0])
    },
    "ndag.client_round": lambda args, res: {
        "ndag.degenerate_rows": int(getattr(res, "degenerate_rows", 0))
    },
}

# Functions whose per-call durations are kept for latency percentiles.
SAMPLED = ("protocol.run_round",)


class Tracer:
    """Call statistics for the wrapped functions of one process."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, callee_s]
        self.samples: dict[str, list[float]] = {name: [] for name in SAMPLED}
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack = [0.0]  # callee time accumulated by each open call

    def wrap(self, name: str, fn):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        samples = self.samples.get(name)
        outcome = OUTCOMES.get(name)
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                callee = stack.pop()
                stack[-1] += elapsed
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += callee
                if samples is not None:
                    samples.append(elapsed)
            if outcome is not None:
                counts.update(outcome(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function in each loaded feddag module."""
        for name in TRACED + REPORTING:
            module_name, attr = name.rsplit(".", 1)
            try:
                fn = getattr(importlib.import_module(f"feddag.{module_name}"), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            _replace_everywhere(fn, self.wrap(name, fn))
        self._count_param_vectors()

    def _count_param_vectors(self) -> None:
        try:
            cls = importlib.import_module("feddag.params").ParamVector
        except (ImportError, AttributeError):
            self.absent.append("params.ParamVector")
            return
        init = cls.__init__
        counts = self.counts

        def counted_init(obj, *args, **kwargs):
            counts["params.ParamVector.inits"] += 1
            init(obj, *args, **kwargs)

        cls.__init__ = counted_init

    def snapshot(self) -> dict:
        return {
            "stats": self.stats,
            "samples": self.samples,
            "counts": dict(self.counts),
            "absent": self.absent,
        }


def _replace_everywhere(original, replacement) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "feddag" or module_name.startswith("feddag.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
