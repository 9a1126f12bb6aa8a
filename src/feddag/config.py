"""Flat JSON run configuration: defaults, validation, and builders.

One document carries the federation, adversarial, aggregation, benchmark
and architecture knobs.  Unknown keys are rejected and every value is
range-checked, so a typo fails fast instead of silently running the wrong
experiment.  The fully-resolved dict, less the output directory, is echoed
into every report for exact replay.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import MISSING, fields
from typing import Any

from .data import BenchSpec, load_csv, make_benchmark
from .ndag import NdagHyper
from .nets import GenArch, TaskArch
from .protocol import MODES, FederationConfig
from .sha import ShaHyper


class ConfigError(ValueError):
    """Invalid, unknown or out-of-range configuration input."""


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    """A float, or an int inside the float range the math downstream runs in."""
    return isinstance(v, float) or (_is_int(v) and abs(v) <= sys.float_info.max)


def _int_list(v) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(_is_int(x) for x in v)


SWEEP_PARAMS = ("alpha", "beta", "k", "rho", "m", "eval_clients_per_round", "n_clients")

# The typed configs own the defaults of their fields.  A _FIELD default in the
# schema is the default of the field of the same name; FederationConfig comes
# last, so it owns seed (bench_spec sets BenchSpec.seed from seed/bench_seed).
_FIELD = object()
_FIELD_DEFAULTS = {
    f.name: f.default
    for owner in (BenchSpec, NdagHyper, ShaHyper, FederationConfig)
    for f in fields(owner)
    if f.default is not MISSING
}

# key: (default, checker, description of the accepted values)
SCHEMA: dict[str, tuple[Any, Any, str]] = {
    "mode": (_FIELD, lambda v: v in MODES, f"one of {MODES}"),
    "seed": (_FIELD, lambda v: _is_int(v) and v >= 0, "integer >= 0"),
    "seeds": (
        [0, 1, 2, 3, 4],
        # A repeated seed repeats a run, which paired stats would count twice.
        lambda v: _int_list(v) and min(v) >= 0 and len(set(v)) == len(v),
        "nonempty list of distinct integers >= 0",
    ),
    "rounds": (14, lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    "warmup_rounds": (3, lambda v: _is_int(v) and v >= 0, "integer >= 0"),
    "local_epochs": (_FIELD, lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    "alpha": (_FIELD, lambda v: _is_num(v) and 0.0 <= v <= 1.0, "number in [0, 1]"),
    "m": (_FIELD, lambda v: _is_num(v) and v > 0.0, "number > 0"),
    "ema_decay": (_FIELD, lambda v: _is_num(v) and 0.0 <= v <= 1.0, "number in [0, 1]"),
    "lr": (_FIELD, lambda v: _is_num(v) and v > 0.0, "number > 0"),
    "momentum": (_FIELD, lambda v: _is_num(v) and 0.0 <= v < 1.0, "number in [0, 1)"),
    "weight_decay": (_FIELD, lambda v: _is_num(v) and v >= 0.0, "number >= 0"),
    "batch_size": (_FIELD, lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    "beta": (_FIELD, lambda v: _is_num(v) and v >= 0.0, "number >= 0"),
    "k": (_FIELD, lambda v: _is_int(v) and v >= 0, "integer >= 0"),
    "rho": (_FIELD, lambda v: _is_num(v) and v >= 0.0, "number >= 0"),
    "history_cap": (_FIELD, lambda v: _is_int(v) and v >= 0, "integer >= 0"),
    "include_self": (_FIELD, lambda v: isinstance(v, bool), "boolean"),
    "eval_clients_per_round": (_FIELD, lambda v: _is_int(v) and v >= 0, "integer >= 0"),
    "probe_every_round": (_FIELD, lambda v: isinstance(v, bool), "boolean"),
    "hidden_dims": ([32, 32], _int_list, "nonempty list of integers"),
    "feature_dim": (16, lambda v: _is_int(v) and v >= 2, "integer >= 2"),
    "gen_hidden_dims": ([32], _int_list, "nonempty list of integers"),
    "n_domains": (_FIELD, lambda v: _is_int(v) and v >= 2, "integer >= 2"),
    "n_classes": (_FIELD, lambda v: _is_int(v) and v >= 2, "integer >= 2"),
    "input_dim": (_FIELD, lambda v: _is_int(v) and v >= 2, "integer >= 2"),
    "samples_per_domain": (_FIELD, lambda v: _is_int(v) and v >= 20, "integer >= 20"),
    "style_strength": (_FIELD, lambda v: _is_num(v) and v >= 0.0, "number >= 0"),
    "label_noise": (_FIELD, lambda v: _is_num(v) and 0.0 <= v < 0.5, "number in [0, 0.5)"),
    "bench_seed": (-1, lambda v: _is_int(v) and v >= -1, "integer >= -1 (-1 follows seed)"),
    "data_csv": ("", lambda v: isinstance(v, str), "path string, empty for synthetic"),
    "out": ("feddag_out", lambda v: isinstance(v, str) and v != "", "nonempty path string"),
    "sweep_param": ("alpha", lambda v: v in SWEEP_PARAMS, f"one of {sorted(SWEEP_PARAMS)}"),
    "sweep_values": (
        [0.0, 0.3, 1.0],
        lambda v: isinstance(v, list) and len(v) > 0 and all(_is_num(x) for x in v),
        "nonempty list of numbers",
    ),
}
SCHEMA = {
    key: (_FIELD_DEFAULTS[key] if default is _FIELD else default, check, want)
    for key, (default, check, want) in SCHEMA.items()
}


def defaults() -> dict[str, Any]:
    """A fresh copy of every default, so a caller can change its lists freely."""
    return {key: copy.deepcopy(spec[0]) for key, spec in SCHEMA.items()}


def resolve(document: dict[str, Any], overrides: dict[str, Any] | None = None) -> dict[str, Any]:
    """Defaults, then file values, then CLI overrides; reject anything odd."""
    if not isinstance(document, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(document).__name__}")
    cfg = defaults()
    for source in (document, overrides or {}):
        for key, value in source.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            _, check, want = SCHEMA[key]
            if not check(value):
                raise ConfigError(f"config key {key!r}: expected {want}, got {value!r}")
            cfg[key] = value
    if cfg["warmup_rounds"] >= cfg["rounds"]:
        raise ConfigError(
            f"warmup_rounds ({cfg['warmup_rounds']}) must be < rounds ({cfg['rounds']})"
        )
    return cfg


def load(path: str, overrides: dict[str, Any] | None = None) -> dict[str, Any]:
    try:
        with open(path) as fh:
            document = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    return resolve(document, overrides)


def _build(cls, cfg: dict[str, Any], **explicit):
    """cls with every field not given explicitly read from the key of its name."""
    values = {f.name: cfg[f.name] for f in fields(cls) if f.name not in explicit}
    try:
        return cls(**values, **explicit)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _bench_seed(cfg: dict[str, Any]) -> int:
    return cfg["seed"] if cfg["bench_seed"] == -1 else cfg["bench_seed"]


def bench_spec(cfg: dict[str, Any]) -> BenchSpec:
    return _build(BenchSpec, cfg, seed=_bench_seed(cfg))


def benchmark(cfg: dict[str, Any]):
    """The configured dataset: a CSV if given, else the synthetic bench."""
    if cfg["data_csv"]:
        try:
            return load_csv(cfg["data_csv"], _bench_seed(cfg))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return make_benchmark(bench_spec(cfg))


def arches(cfg: dict[str, Any], input_dim: int, n_classes: int) -> tuple[TaskArch, GenArch]:
    hidden, gen_hidden = tuple(cfg["hidden_dims"]), tuple(cfg["gen_hidden_dims"])
    task = _build(TaskArch, cfg, input_dim=input_dim, hidden_dims=hidden, num_classes=n_classes)
    return task, _build(GenArch, cfg, input_dim=input_dim, hidden_dims=gen_hidden)


def fed_config(cfg: dict[str, Any], n_clients: int) -> FederationConfig:
    ndag, sha = _build(NdagHyper, cfg), _build(ShaHyper, cfg)
    return _build(FederationConfig, cfg, n_clients=n_clients, ndag=ndag, sha=sha)
