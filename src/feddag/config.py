"""Flat JSON run configuration: defaults, validation, and builders.

One document carries the federation, adversarial, aggregation, benchmark
and architecture knobs.  The typed configs (BenchSpec, NdagHyper, ShaHyper,
FederationConfig, TaskArch, GenArch) are the one definition of their keys:
a field with a default gives its key's default and JSON type, and each
config's own check gives the accepted range.  resolve rejects unknown keys
and values of the wrong type and range-checks the keys no typed config
has; a command range-checks the other keys it reads by building their
typed configs before it trains or writes.  So a typo fails fast instead of
silently running the wrong experiment.  The fully-resolved dict, less the
output directory, is echoed into every report for exact replay.
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
from .protocol import FederationConfig
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

# A field's annotation (a string: every module postpones annotations) gives
# the JSON type of its key.
_TYPES = {
    "int": (_is_int, "integer"),
    "float": (_is_num, "number"),
    "bool": (lambda v: isinstance(v, bool), "boolean"),
    "str": (lambda v: isinstance(v, str), "string"),
}

# key: (default, checker, description of the accepted values).  Every field
# with a default and a JSON type is the key of its name; FederationConfig
# comes last, so it owns seed (bench_spec sets BenchSpec.seed from
# seed/bench_seed).
SCHEMA: dict[str, tuple[Any, Any, str]] = {
    f.name: (f.default, *_TYPES[f.type])
    for owner in (BenchSpec, NdagHyper, ShaHyper, FederationConfig)
    for f in fields(owner)
    if f.default is not MISSING and f.type in _TYPES
}
SCHEMA.update({
    # Builder arguments: TaskArch and GenArch check their ranges.
    "hidden_dims": ([32, 32], _int_list, "nonempty list of integers"),
    "feature_dim": (16, _is_int, "integer"),
    "gen_hidden_dims": ([32], _int_list, "nonempty list of integers"),
    # No typed config has these keys, so their checks here are the only ones.
    "seeds": (
        [0, 1, 2, 3, 4],
        # A repeated seed repeats a run, which paired stats would count twice.
        lambda v: _int_list(v) and min(v) >= 0 and len(set(v)) == len(v),
        "nonempty list of distinct integers >= 0",
    ),
    "bench_seed": (-1, lambda v: _is_int(v) and v >= -1, "integer >= -1 (-1 follows seed)"),
    "data_csv": ("", lambda v: isinstance(v, str), "path string, empty for synthetic"),
    "out": (
        "feddag_out",
        lambda v: isinstance(v, str) and v != "" and "\x00" not in v,
        "nonempty path string without NUL",
    ),
    "sweep_param": ("alpha", lambda v: v in SWEEP_PARAMS, f"one of {sorted(SWEEP_PARAMS)}"),
    "sweep_values": (
        [0.0, 0.3, 1.0],
        lambda v: isinstance(v, list) and len(v) > 0 and all(_is_num(x) for x in v),
        "nonempty list of numbers",
    ),
})


def defaults() -> dict[str, Any]:
    """A fresh copy of every default, so a caller can change its lists freely."""
    return {key: copy.deepcopy(spec[0]) for key, spec in SCHEMA.items()}


def resolve(document: dict[str, Any], overrides: dict[str, Any] | None = None) -> dict[str, Any]:
    """Defaults, then file values, then CLI overrides; checks types and the schema's own ranges."""
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
    return cfg


def load(path: str, overrides: dict[str, Any] | None = None) -> dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # Bytes that are not UTF-8, an int literal past the digit limit, or nesting too deep.
        raise ConfigError(f"config {path} cannot be parsed: {exc}") from exc
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
