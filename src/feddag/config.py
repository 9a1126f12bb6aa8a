"""Flat JSON run configuration: defaults, validation, and builders.

One document carries the federation, adversarial, aggregation, benchmark
and architecture knobs.  Unknown keys are rejected and every value is
range-checked, so a typo fails fast instead of silently running the wrong
experiment.  The fully-resolved dict, less the output directory, is echoed
into every report for exact replay.
"""

from __future__ import annotations

import json
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
    return _is_int(v) or isinstance(v, float)


def _int_list(v) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(_is_int(x) for x in v)


SWEEP_PARAMS = ("alpha", "beta", "k", "rho", "m", "eval_clients_per_round", "n_clients")

# key: (default, checker, description of the accepted values)
SCHEMA: dict[str, tuple[Any, Any, str]] = {
    "mode": ("feddag", lambda v: v in MODES, f"one of {MODES}"),
    "seed": (0, _is_int, "integer"),
    "seeds": ([0, 1, 2, 3, 4], _int_list, "nonempty list of integers"),
    "rounds": (14, lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    "warmup_rounds": (3, lambda v: _is_int(v) and v >= 0, "integer >= 0"),
    "local_epochs": (1, lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    "alpha": (0.3, lambda v: _is_num(v) and 0.0 <= v <= 1.0, "number in [0, 1]"),
    "m": (0.1, lambda v: _is_num(v) and v > 0.0, "number > 0"),
    "ema_decay": (0.999, lambda v: _is_num(v) and 0.0 <= v <= 1.0, "number in [0, 1]"),
    "lr": (0.001, lambda v: _is_num(v) and v > 0.0, "number > 0"),
    "momentum": (0.9, lambda v: _is_num(v) and 0.0 <= v < 1.0, "number in [0, 1)"),
    "weight_decay": (5e-4, lambda v: _is_num(v) and v >= 0.0, "number >= 0"),
    "batch_size": (32, lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    "beta": (0.3, lambda v: _is_num(v) and v >= 0.0, "number >= 0"),
    "k": (4, lambda v: _is_int(v) and v >= 0, "integer >= 0"),
    "rho": (1e-7, lambda v: _is_num(v) and v >= 0.0, "number >= 0"),
    "history_cap": (8, lambda v: _is_int(v) and v >= 0, "integer >= 0"),
    "include_self": (True, lambda v: isinstance(v, bool), "boolean"),
    "eval_clients_per_round": (0, lambda v: _is_int(v) and v >= 0, "integer >= 0"),
    "probe_every_round": (False, lambda v: isinstance(v, bool), "boolean"),
    "hidden_dims": ([32, 32], _int_list, "nonempty list of integers"),
    "feature_dim": (16, lambda v: _is_int(v) and v >= 2, "integer >= 2"),
    "gen_hidden_dims": ([32], _int_list, "nonempty list of integers"),
    "n_domains": (5, lambda v: _is_int(v) and v >= 2, "integer >= 2"),
    "n_classes": (3, lambda v: _is_int(v) and v >= 2, "integer >= 2"),
    "input_dim": (16, lambda v: _is_int(v) and v >= 2, "integer >= 2"),
    "samples_per_domain": (600, lambda v: _is_int(v) and v >= 20, "integer >= 20"),
    "style_strength": (1.0, lambda v: _is_num(v) and v >= 0.0, "number >= 0"),
    "label_noise": (0.0, lambda v: _is_num(v) and 0.0 <= v < 0.5, "number in [0, 0.5)"),
    "bench_seed": (-1, _is_int, "integer (-1 follows seed)"),
    "data_csv": ("", lambda v: isinstance(v, str), "path string, empty for synthetic"),
    "out": ("feddag_out", lambda v: isinstance(v, str) and v != "", "nonempty path string"),
    "sweep_param": ("alpha", lambda v: v in SWEEP_PARAMS, f"one of {sorted(SWEEP_PARAMS)}"),
    "sweep_values": (
        [0.0, 0.3, 1.0],
        lambda v: isinstance(v, list) and len(v) > 0 and all(_is_num(x) for x in v),
        "nonempty list of numbers",
    ),
}


def defaults() -> dict[str, Any]:
    return {key: spec[0] for key, spec in SCHEMA.items()}


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


def bench_spec(cfg: dict[str, Any]) -> BenchSpec:
    seed = cfg["seed"] if cfg["bench_seed"] == -1 else cfg["bench_seed"]
    try:
        return BenchSpec(
            n_domains=cfg["n_domains"],
            n_classes=cfg["n_classes"],
            input_dim=cfg["input_dim"],
            samples_per_domain=cfg["samples_per_domain"],
            style_strength=cfg["style_strength"],
            label_noise=cfg["label_noise"],
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def benchmark(cfg: dict[str, Any]):
    """The configured dataset: a CSV if given, else the synthetic bench."""
    if cfg["data_csv"]:
        split_seed = cfg["seed"] if cfg["bench_seed"] == -1 else cfg["bench_seed"]
        try:
            return load_csv(cfg["data_csv"], split_seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return make_benchmark(bench_spec(cfg))


def arches(cfg: dict[str, Any], input_dim: int, n_classes: int) -> tuple[TaskArch, GenArch]:
    try:
        task = TaskArch(
            input_dim=input_dim,
            hidden_dims=tuple(cfg["hidden_dims"]),
            feature_dim=cfg["feature_dim"],
            num_classes=n_classes,
        )
        gen = GenArch(input_dim=input_dim, hidden_dims=tuple(cfg["gen_hidden_dims"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return task, gen


def fed_config(cfg: dict[str, Any], n_clients: int) -> FederationConfig:
    try:
        return FederationConfig(
            n_clients=n_clients,
            rounds=cfg["rounds"],
            warmup_rounds=cfg["warmup_rounds"],
            ndag=NdagHyper(
                alpha=cfg["alpha"],
                m=cfg["m"],
                ema_decay=cfg["ema_decay"],
                lr=cfg["lr"],
                momentum=cfg["momentum"],
                weight_decay=cfg["weight_decay"],
                batch_size=cfg["batch_size"],
            ),
            sha=ShaHyper(
                rho=cfg["rho"],
                beta=cfg["beta"],
                k=cfg["k"],
                history_cap=cfg["history_cap"],
                include_self=cfg["include_self"],
            ),
            mode=cfg["mode"],
            eval_clients_per_round=cfg["eval_clients_per_round"],
            local_epochs=cfg["local_epochs"],
            seed=cfg["seed"],
            probe_every_round=cfg["probe_every_round"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
