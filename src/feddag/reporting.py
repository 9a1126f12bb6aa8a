"""Run artifacts: report JSON, fixed-schema CSVs, and polyline SVG plots.

Everything here is deterministic in its inputs (no timestamps, sorted JSON
keys), so identical runs produce byte-identical files.  Plots are built
from the emitted CSVs alone; re-plotting from CSVs is lossless.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, fields
from operator import attrgetter
from typing import Any

from .atomic import atomic_open, write_csv
from .ndag import BatchTrace
from .protocol import RunReport

METRICS_HEADER = [
    "target_domain",
    "round",
    "warmup",
    "mean_train_loss",
    "source_val_loss",
    "target_acc",
    "target_f1",
    "target_auc",
]
SHA_LOG_HEADER = ["target_domain", "round", "client", "raw_score", "post_dense_score", "weight"]
TRACE_FIELDS = [f.name for f in fields(BatchTrace)]
TRACE_HEADER = ["target_domain", "client", "round", *TRACE_FIELDS]
_trace_values = attrgetter(*TRACE_FIELDS)


def fmt(value) -> str:
    """One CSV cell: empty for None, 0/1 for bools, repr for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_dict(cfg: dict[str, Any], report: RunReport) -> dict[str, Any]:
    """JSON-ready report: config echo (less `out`), per-domain rounds, final averages.

    Each round is the fields of its RoundMetrics and each final the fields
    of its EvalResult.
    """
    domains = [
        {
            "target_domain": run.target_domain,
            "final": asdict(run.final),
            "rounds": [asdict(rm) for rm in run.rounds],
        }
        for run in report.domains
    ]
    # The output directory is not an experiment parameter: leaving it out keeps
    # the same config and seed byte-identical whatever --out is.
    config = {k: v for k, v in sorted(cfg.items()) if k != "out"}
    return {"config": config, "domains": domains, "averages": report.averages}


def write_report_json(path: str, cfg: dict[str, Any], report: RunReport) -> None:
    with atomic_open(path) as fh:
        json.dump(report_dict(cfg, report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_metrics_csv(path: str, report: RunReport) -> None:
    def rows():
        for run in report.domains:
            for rm in run.rounds:
                ev = rm.target
                probe = (ev.acc, ev.f1, ev.auc) if ev else (None, None, None)
                loss = float(sum(rm.train_losses) / len(rm.train_losses))
                cells = (rm.warmup, loss, rm.source_val_loss, *probe)
                yield [run.target_domain, rm.round, *map(fmt, cells)]

    write_csv(path, METRICS_HEADER, rows())


def write_sha_log_csv(path: str, report: RunReport) -> None:
    """Scored rounds only: one row per (target, round, client)."""
    rows = (
        [run.target_domain, rm.round, client, fmt(raw), fmt(post), fmt(w)]
        for run in report.domains
        for rm in run.rounds
        if rm.raw_scores is not None
        for client, (raw, post, w) in enumerate(zip(rm.raw_scores, rm.scores, rm.weights))
    )
    write_csv(path, SHA_LOG_HEADER, rows)


def write_trace_csv(path: str, report: RunReport) -> None:
    """One row per (target, client, round, batch); the rest are BatchTrace's fields."""
    rows = (
        [run.target_domain, client, round_idx, *map(fmt, _trace_values(t))]
        for run in report.domains
        for client, round_idx, t in run.trace
    )
    write_csv(path, TRACE_HEADER, rows)


PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
]


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _tick_label(v: float) -> str:
    return f"{v:.4g}"


def plot_lines(
    path: str,
    title: str,
    xlabel: str,
    ylabel: str,
    series: list[tuple[str, list[float], list[float]]],
) -> None:
    """Minimal polyline SVG: axes, ticks, one colored line+markers per series."""
    width, height = 760, 420
    left, right, top, bottom = 70, width - 170, 46, height - 56
    points = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys)]
    if points:
        xs_all = [p[0] for p in points]
        ys_all = [p[1] for p in points]
        xmin, xmax = min(xs_all), max(xs_all)
        ymin, ymax = min(ys_all), max(ys_all)
    else:
        xmin = ymin = 0.0
        xmax = ymax = 1.0
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0
    pad = 0.05 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad

    def sx(x: float) -> float:
        return left + (x - xmin) / (xmax - xmin) * (right - left)

    def sy(y: float) -> float:
        return bottom - (y - ymin) / (ymax - ymin) * (bottom - top)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{(left + right) / 2:.1f}" y="24" text-anchor="middle" '
        f'font-size="15">{title}</text>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>',
        f'<text x="{(left + right) / 2:.1f}" y="{height - 14}" '
        f'text-anchor="middle">{xlabel}</text>',
        f'<text x="20" y="{(top + bottom) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {(top + bottom) / 2:.1f})">{ylabel}</text>',
    ]
    for tx in _ticks(xmin, xmax):
        out.append(
            f'<line x1="{sx(tx):.1f}" y1="{bottom}" x2="{sx(tx):.1f}" y2="{bottom + 5}" '
            'stroke="black"/>'
        )
        out.append(
            f'<text x="{sx(tx):.1f}" y="{bottom + 18}" text-anchor="middle">'
            f"{_tick_label(tx)}</text>"
        )
    for ty in _ticks(ymin, ymax):
        out.append(
            f'<line x1="{left - 5}" y1="{sy(ty):.1f}" x2="{left}" y2="{sy(ty):.1f}" '
            'stroke="black"/>'
        )
        out.append(
            f'<text x="{left - 8}" y="{sy(ty) + 4:.1f}" text-anchor="end">{_tick_label(ty)}</text>'
        )
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
        if len(xs) > 1:
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            out.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="2.5" fill="{color}"/>')
        ly = top + 16 * i
        out.append(
            f'<line x1="{right + 10}" y1="{ly}" x2="{right + 30}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(f'<text x="{right + 35}" y="{ly + 4}">{label}</text>')
    out.append("</svg>")
    with atomic_open(path) as fh:
        fh.write("\n".join(out) + "\n")


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def plot_from_metrics_csv(metrics_path: str, loss_svg: str, acc_svg: str) -> None:
    """Loss-vs-round and accuracy-vs-round plots, one line per target domain."""
    rows = _read_csv(metrics_path)
    domains = sorted({row["target_domain"] for row in rows}, key=int)
    loss_series, acc_series = [], []
    for d in domains:
        mine = [row for row in rows if row["target_domain"] == d]
        loss_series.append(
            (
                f"target {d}",
                [float(r["round"]) for r in mine],
                [float(r["source_val_loss"]) for r in mine],
            )
        )
        probed = [r for r in mine if r["target_acc"] != ""]
        if probed:
            acc_series.append(
                (
                    f"target {d}",
                    [float(r["round"]) for r in probed],
                    [float(r["target_acc"]) for r in probed],
                )
            )
    plot_lines(loss_svg, "Source validation loss", "round", "loss", loss_series)
    plot_lines(acc_svg, "Held-out domain accuracy", "round", "accuracy", acc_series)
