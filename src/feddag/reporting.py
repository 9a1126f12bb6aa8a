"""Run artifacts: report JSON, fixed-schema CSVs, and polyline SVG plots.

Everything here is deterministic in its inputs (no timestamps, sorted JSON
keys), so identical runs produce byte-identical files.  Plots are drawn from
the run's records, and plot the same values that metrics.csv holds (each
float is written as its repr, which reads back exactly).
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
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
# A BatchTrace's loss blocks, one column each; its batch counts give the batch column.
TRACE_FIELDS = [f.name for f in fields(BatchTrace) if f.name != "batches"]
TRACE_HEADER = ["target_domain", "client", "round", "batch", *TRACE_FIELDS]


def fmt(value) -> str:
    """One CSV cell: empty for None, 0/1 for bools, repr for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _field_dict(record) -> dict[str, Any]:
    """A dataclass's fields by name, a dataclass among them as its own fields.

    dataclasses.asdict gives the same dict but deep-copies every value.
    """
    return {
        f.name: _field_dict(value) if is_dataclass(value := getattr(record, f.name)) else value
        for f in fields(record)
    }


def report_dict(cfg: dict[str, Any], report: RunReport) -> dict[str, Any]:
    """JSON-ready report: config echo (less `out`), per-domain rounds, final averages.

    Each round is the fields of its RoundMetrics and each final the fields
    of its EvalResult.
    """
    domains = [
        {
            "target_domain": run.target_domain,
            "final": _field_dict(run.final),
            "rounds": [_field_dict(rm) for rm in run.rounds],
        }
        for run in report.domains
    ]
    # The output directory is not an experiment parameter: leaving it out keeps
    # the same config and seed byte-identical whatever --out is.
    config = {k: v for k, v in sorted(cfg.items()) if k != "out"}
    return {"config": config, "domains": domains, "averages": report.averages}


def write_report_json(path: str, cfg: dict[str, Any], report: RunReport) -> None:
    with atomic_open(path) as fh:
        # json.dump streams its pieces: one json.dumps string, and the list of pieces
        # joined into it, raised sha_many's peak_rss_mb by 1.2 MB.
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


def _trace_rows(run):
    """The trace rows of one leg, by round, then client, then batch."""
    for round_idx, trace in enumerate(run.trace):
        blocks = [getattr(trace, name) for name in TRACE_FIELDS]
        for c, (client, n) in enumerate(zip(run.clients, trace.batches.tolist())):
            cells = [[""] * n if b is None else map(repr, b[c, :n].tolist()) for b in blocks]
            for batch, losses in enumerate(zip(*cells)):
                yield [run.target_domain, client, round_idx, batch, *losses]


def write_trace_csv(path: str, report: RunReport) -> None:
    """One row per (target, client, round, batch), ordered by target, round, client, batch.

    The rest of a row is the batch's cell of each BatchTrace loss, empty
    where the round has no such loss.
    """
    write_csv(path, TRACE_HEADER, (row for run in report.domains for row in _trace_rows(run)))


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


def _axis(values: list[float], lo_px: float, hi_px: float, pad: float):
    """Five ticks over the values' range and the map from a value to pixels.

    The range is [0, 1] with no values.  A zero-width range is widened by 1;
    where adding 1 would leave it zero (|lo| >= 2**53) it is widened by half
    its magnitude towards 0 instead, which cannot overflow.  The range is then
    padded by `pad` of its width on each side.
    """
    lo, hi = (min(values), max(values)) if values else (0.0, 1.0)
    if hi == lo:
        lo, hi = (lo, lo + 1.0) if lo + 1.0 != lo else sorted((lo, lo / 2))
    margin = pad * (hi - lo)
    lo, hi = lo - margin, hi + margin
    span = hi - lo
    ticks = [lo + span * (i / 4) for i in range(5)]

    def scale(v: float) -> float:
        return lo_px + (v - lo) / span * (hi_px - lo_px)

    return ticks, scale


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
    xticks, sx = _axis([x for _, xs, _ in series for x in xs], left, right, 0.0)
    yticks, sy = _axis([y for _, _, ys in series for y in ys], bottom, top, 0.05)

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
    for tx in xticks:
        out.append(
            f'<line x1="{sx(tx):.1f}" y1="{bottom}" x2="{sx(tx):.1f}" y2="{bottom + 5}" '
            'stroke="black"/>'
        )
        out.append(
            f'<text x="{sx(tx):.1f}" y="{bottom + 18}" text-anchor="middle">'
            f"{_tick_label(tx)}</text>"
        )
    for ty in yticks:
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


def plot_rounds(report: RunReport, loss_svg: str, acc_svg: str) -> None:
    """Loss-vs-round and accuracy-vs-round plots, one line per target domain."""
    loss_series, acc_series = [], []
    for run in sorted(report.domains, key=attrgetter("target_domain")):
        label = f"target {run.target_domain}"
        rounds = [float(rm.round) for rm in run.rounds]
        loss_series.append((label, rounds, [rm.source_val_loss for rm in run.rounds]))
        probed = [rm for rm in run.rounds if rm.target is not None]
        if probed:
            acc_series.append(
                (label, [float(rm.round) for rm in probed], [rm.target.acc for rm in probed])
            )
    plot_lines(loss_svg, "Source validation loss", "round", "loss", loss_series)
    plot_lines(acc_svg, "Held-out domain accuracy", "round", "accuracy", acc_series)
