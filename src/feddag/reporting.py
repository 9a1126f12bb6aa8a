"""Run artifacts: report JSON, fixed-schema CSVs, and polyline SVG plots.

Everything here is deterministic in its inputs (no timestamps, sorted JSON
keys), so identical runs produce byte-identical files.  Plots are built
from the emitted CSVs alone; re-plotting from CSVs is lossless.
"""

from __future__ import annotations

import csv
import json
from typing import Any

from .atomic import atomic_open
from .metrics import EvalResult
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
TRACE_HEADER = ["target_domain", "client", "round", "batch", "l_cls_g", "l_dis", "l_cls_s", "l_sim"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _eval_dict(ev: EvalResult | None) -> dict[str, Any] | None:
    if ev is None:
        return None
    return {
        "acc": ev.acc,
        "f1": ev.f1,
        "auc": ev.auc,
        "n": ev.n,
        "support": list(ev.support),
        "warnings": list(ev.warnings),
    }


def report_dict(cfg: dict[str, Any], report: RunReport) -> dict[str, Any]:
    """JSON-ready report: config echo (less `out`), per-domain rounds, final averages."""
    domains = []
    for run in report.domains:
        rounds = []
        for rm in run.rounds:
            rounds.append(
                {
                    "round": rm.round,
                    "warmup": rm.warmup,
                    "train_losses": list(rm.train_losses),
                    "source_val_loss": rm.source_val_loss,
                    "raw_scores": list(rm.raw_scores) if rm.raw_scores is not None else None,
                    "scores": list(rm.scores) if rm.scores is not None else None,
                    "weights": list(rm.weights),
                    "target": _eval_dict(rm.target_eval),
                    "degenerate_rows": rm.degenerate_rows,
                }
            )
        domains.append(
            {
                "target_domain": run.target_domain,
                "final": _eval_dict(run.final),
                "rounds": rounds,
            }
        )
    # The output directory is not an experiment parameter: leaving it out keeps
    # the same config and seed byte-identical whatever --out is.
    config = {k: v for k, v in sorted(cfg.items()) if k != "out"}
    return {"config": config, "domains": domains, "averages": report.averages}


def write_report_json(path: str, cfg: dict[str, Any], report: RunReport) -> None:
    with atomic_open(path) as fh:
        json.dump(report_dict(cfg, report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_metrics_csv(path: str, report: RunReport) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for run in report.domains:
            for rm in run.rounds:
                ev = rm.target_eval
                writer.writerow(
                    [
                        run.target_domain,
                        rm.round,
                        _fmt(rm.warmup),
                        _fmt(float(sum(rm.train_losses) / len(rm.train_losses))),
                        _fmt(rm.source_val_loss),
                        _fmt(ev.acc if ev else None),
                        _fmt(ev.f1 if ev else None),
                        _fmt(ev.auc if ev else None),
                    ]
                )


def write_sha_log_csv(path: str, report: RunReport) -> None:
    """Scored rounds only: one row per (target, round, client)."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SHA_LOG_HEADER)
        for run in report.domains:
            for rm in run.rounds:
                if rm.raw_scores is None:
                    continue
                for client, (raw, post, w) in enumerate(
                    zip(rm.raw_scores, rm.scores, rm.weights)
                ):
                    writer.writerow(
                        [run.target_domain, rm.round, client, _fmt(raw), _fmt(post), _fmt(w)]
                    )


def write_trace_csv(path: str, report: RunReport) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for run in report.domains:
            for client, round_idx, t in run.trace:
                losses = (t.l_cls_g, t.l_dis, t.l_cls_s, t.l_sim)
                writer.writerow([run.target_domain, client, round_idx, t.batch, *map(_fmt, losses)])


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
