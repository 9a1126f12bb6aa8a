"""Config schema: defaults, validation, file loading, and builders."""

from __future__ import annotations

import json
import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from feddag import config
from feddag.config import ConfigError
from feddag.data import BenchSpec
from feddag.ndag import NdagHyper
from feddag.protocol import FederationConfig
from feddag.sha import ShaHyper


class TestDefaults:
    def test_core_hyperparameters(self):
        cfg = config.defaults()
        assert cfg["alpha"] == 0.3
        assert cfg["beta"] == 0.3
        assert cfg["k"] == 4
        assert cfg["rho"] == 1e-7
        assert cfg["m"] == 0.1
        assert cfg["lr"] == 0.001
        assert cfg["momentum"] == 0.9
        assert cfg["weight_decay"] == 5e-4
        assert cfg["mode"] == "feddag"
        assert cfg["include_self"] is True

    def test_bench_defaults(self):
        cfg = config.defaults()
        assert cfg["n_domains"] == 5
        assert cfg["n_classes"] == 3
        assert cfg["input_dim"] == 16
        assert cfg["samples_per_domain"] == 600
        assert cfg["style_strength"] == 1.0
        assert cfg["label_noise"] == 0.0

    def test_defaults_resolve_cleanly(self):
        assert config.resolve({}) == config.defaults()

    def test_defaults_are_a_copy(self):
        a = config.defaults()
        a["rounds"] = 99
        assert config.defaults()["rounds"] != 99

    def test_default_lists_are_copies(self):
        cfg = config.resolve({})
        cfg["seeds"].append(9)
        cfg["hidden_dims"].append(9)
        assert config.defaults()["seeds"] == [0, 1, 2, 3, 4]
        assert config.defaults()["hidden_dims"] == [32, 32]
        assert config.resolve({})["seeds"] == [0, 1, 2, 3, 4]


class TestReadme:
    """The README's Config section lists every key, with the defaults the schema has."""

    # The keys listed without a default: the output directory and the sweep.
    NO_DEFAULT = {"out", "sweep_param", "sweep_values"}

    @staticmethod
    def listed():
        text = (Path(__file__).parent.parent / "README.md").read_text()
        section = text.split("\n## Config\n", 1)[1].split("\n## ", 1)[0]
        # One line, so a pair wrapped over a line break still reads as one.
        bullets = " ".join(section[section.index("\n- ") :].split("\n\n", 1)[0].split())
        # `key` then an optional default: a bracketed list or one token.  The
        # first mention of a key is its entry; later ones are cross-references.
        listed = {}
        for key, value in re.findall(r"`(\w+)`(?: (\[[^\]]*\]|[^\s,(`]+))?", bullets):
            listed.setdefault(key, value)
        return listed

    def test_every_key_is_listed(self):
        assert set(self.listed()) == set(config.SCHEMA)

    def test_listed_defaults_match(self):
        defaults = config.defaults()
        listed = self.listed()
        assert {key for key, value in listed.items() if not value} == self.NO_DEFAULT
        for key, value in listed.items():
            if key in self.NO_DEFAULT:
                continue
            try:
                value = json.loads(value)
            except json.JSONDecodeError:
                pass
            # Typed, so 1 does not stand for 1.0 or true.
            assert (type(value), value) == (type(defaults[key]), defaults[key]), key


class TestOneDefinitionPerValue:
    # Set by the builders from their arguments or from other keys.
    EXPLICIT = {
        (FederationConfig, "n_clients"),
        (FederationConfig, "ndag"),
        (FederationConfig, "sha"),
        (BenchSpec, "seed"),
    }

    @pytest.mark.parametrize("owner", [NdagHyper, ShaHyper, FederationConfig, BenchSpec])
    def test_every_field_is_a_key_with_the_field_default(self, owner):
        for f in fields(owner):
            if (owner, f.name) in self.EXPLICIT:
                continue
            assert f.name in config.SCHEMA, f.name
            if f.default is not MISSING:
                default = config.SCHEMA[f.name][0]
                assert type(default) is type(f.default) and default == f.default, f.name


class TestResolve:
    def test_overrides_win_over_document(self):
        cfg = config.resolve({"rounds": 5, "lr": 0.01}, {"rounds": 7})
        assert cfg["rounds"] == 7
        assert cfg["lr"] == 0.01

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key 'lrr'"):
            config.resolve({"lrr": 0.1})

    # Types of every key, and ranges of the keys no typed config owns; the
    # owned ranges are checked by the builders (TestBuilders.test_range_checks).
    @pytest.mark.parametrize(
        "doc",
        [
            {"rounds": 2.5},
            {"lr": "0.1"},
            {"batch_size": True},
            {"mode": 1},
            {"include_self": 1},
            {"probe_every_round": "yes"},
            {"warmup_rounds": 1.5},
            {"seeds": []},
            {"seeds": [0, -1]},
            {"feature_dim": 16.0},
            {"bench_seed": -2},
            {"hidden_dims": [32, "x"]},
            {"out": "a\x00b"},
            {"sweep_param": "lr"},
            {"sweep_values": []},
            {"sweep_values": [10**400]},
            {"lr": 10**400},
            {"beta": 10**400},
            {"rho": 10**400},
            {"m": 10**400},
            {"weight_decay": 10**400},
            {"style_strength": 10**400},
            {"seeds": [1, 0, 1]},
            {"out": ""},
            {"rounds": True},
        ],
    )
    def test_range_checks(self, doc):
        with pytest.raises(ConfigError):
            config.resolve(doc)

    def test_warmup_must_leave_rounds(self):
        # resolve checks the types; FederationConfig checks the range when it is built.
        cfg = config.resolve({"rounds": 3, "warmup_rounds": 3})
        with pytest.raises(ConfigError, match="^warmup_rounds must be in"):
            config.fed_config(cfg, n_clients=4)

    def test_root_must_be_object(self):
        with pytest.raises(ConfigError, match="root must be a JSON object"):
            config.resolve([1, 2])


def build_all(cfg):
    """Every typed config a run builds from cfg, as cli._lodo_inputs builds them."""
    config.bench_spec(cfg)
    config.arches(cfg, input_dim=cfg["input_dim"], n_classes=cfg["n_classes"])
    config.fed_config(cfg, n_clients=cfg["n_domains"] - 1)


class TestLoad:
    def test_round_trips_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"rounds": 9, "mode": "no_sha"}))
        cfg = config.load(str(path))
        assert cfg["rounds"] == 9
        assert cfg["mode"] == "no_sha"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            config.load(str(tmp_path / "absent.json"))

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"rounds": 3,\n "mode" feddag}')
        with pytest.raises(ConfigError, match="not valid JSON: line 2"):
            config.load(str(path))

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b'{"mode": "fed\xe9"}', id="not_utf8"),
            pytest.param(b'{"rounds": ' + b"9" * 4301 + b"}", id="int_past_digit_limit"),
            pytest.param(b"[" * 100_000, id="nesting_too_deep"),
        ],
    )
    def test_unparseable_file_names_it(self, tmp_path, content):
        path = tmp_path / "odd.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="odd.json cannot be parsed"):
            config.load(str(path))


class TestBuilders:
    def test_bench_spec_follows_seed(self):
        cfg = config.resolve({"seed": 412})
        assert config.bench_spec(cfg) == BenchSpec(seed=412)

    def test_bench_seed_pins_the_bench(self):
        cfg = config.resolve({"seed": 412, "bench_seed": 7})
        assert config.bench_spec(cfg).seed == 7

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"rounds": 0}, "rounds"),
            ({"mode": "magic"}, "mode"),
            ({"alpha": 1.5}, "alpha"),
            ({"m": 0.0}, "m"),
            ({"ema_decay": -0.1}, "ema_decay"),
            ({"momentum": 1.0}, "momentum"),
            ({"seed": -1}, "seed"),
            ({"label_noise": 0.5}, "label_noise"),
            ({"samples_per_domain": 25}, "samples_per_domain"),
            ({"local_epochs": 0}, "local_epochs"),
            ({"eval_clients_per_round": 5}, "eval_clients_per_round"),
            ({"k": -1}, "k"),
            ({"hidden_dims": [32, 0]}, "hidden_dims"),
            ({"feature_dim": 1}, "feature_dim"),
            ({"gen_hidden_dims": [0]}, "gen_hidden_dims"),
        ]
        + [
            ({key: float("nan")}, key)
            for key in ("lr", "m", "weight_decay", "rho", "beta", "style_strength")
        ],
    )
    def test_range_checks(self, doc, key):
        # resolve takes any value of the right type; building the owner rejects it.
        cfg = config.resolve(doc)
        with pytest.raises(ConfigError, match=f"^{key} must"):
            build_all(cfg)

    def test_bench_spec_validation_becomes_config_error(self):
        with pytest.raises(ConfigError, match="samples_per_domain"):
            config.bench_spec(config.resolve({"samples_per_domain": 25}))

    def test_benchmark_synthetic_and_csv(self, tmp_path):
        from feddag import data

        spec = BenchSpec(n_domains=3, n_classes=3, input_dim=4, samples_per_domain=60, seed=2)
        path = tmp_path / "bench.csv"
        data.export_csv(spec, str(path))
        cfg = config.resolve({
            "data_csv": str(path), "seed": 2, "n_domains": 3,
            "input_dim": 4, "samples_per_domain": 60,
        })
        loaded = config.benchmark(cfg)
        direct = data.make_benchmark(spec)
        assert len(loaded) == 3
        import numpy as np
        for a, b in zip(loaded, direct):
            assert np.array_equal(a.train_x, b.train_x)

    def test_arches_respect_dims(self):
        cfg = config.resolve({"hidden_dims": [10, 9], "feature_dim": 8, "gen_hidden_dims": [7]})
        task, gen = config.arches(cfg, input_dim=12, n_classes=4)
        assert task.hidden_dims == (10, 9)
        assert task.feature_dim == 8
        assert task.num_classes == 4
        assert gen.input_dim == 12
        assert gen.hidden_dims == (7,)

    def test_arches_validation_becomes_config_error(self):
        # Zero widths pass the schema's int-list check but fail arch construction.
        cfg = config.resolve({"hidden_dims": [0]})
        with pytest.raises(ConfigError, match="positive"):
            config.arches(cfg, input_dim=12, n_classes=4)

    def test_fed_config_carries_everything(self):
        cfg = config.resolve({
            "mode": "no_ndag", "rounds": 6, "warmup_rounds": 2, "local_epochs": 2, "seed": 3,
            "alpha": 0.4, "m": 0.2, "ema_decay": 0.5, "lr": 0.03, "momentum": 0.5,
            "weight_decay": 1e-3, "batch_size": 8, "beta": 0.7, "k": 3, "rho": 0.0,
            "history_cap": 5, "include_self": False, "eval_clients_per_round": 3,
            "probe_every_round": True,
        })
        fc = config.fed_config(cfg, n_clients=4)
        assert fc == FederationConfig(
            n_clients=4,
            rounds=6,
            warmup_rounds=2,
            ndag=NdagHyper(alpha=0.4, m=0.2, ema_decay=0.5, lr=0.03, momentum=0.5,
                           weight_decay=1e-3, batch_size=8),
            sha=ShaHyper(rho=0.0, beta=0.7, k=3, history_cap=5, include_self=False),
            mode="no_ndag",
            eval_clients_per_round=3,
            local_epochs=2,
            seed=3,
            probe_every_round=True,
        )
        # Every value differs from its default, so a field left unread would show.
        default = config.fed_config(config.defaults(), n_clients=4)
        for built, base in ((fc, default), (fc.ndag, default.ndag), (fc.sha, default.sha)):
            for f in fields(built):
                if f.name not in ("n_clients", "ndag", "sha"):
                    assert getattr(built, f.name) != getattr(base, f.name), f.name

    def test_bench_spec_carries_everything(self):
        cfg = config.resolve({
            "n_domains": 4, "n_classes": 2, "input_dim": 6, "samples_per_domain": 80,
            "style_strength": 0.5, "label_noise": 0.1, "seed": 9,
        })
        spec = config.bench_spec(cfg)
        assert spec == BenchSpec(n_domains=4, n_classes=2, input_dim=6, samples_per_domain=80,
                                 style_strength=0.5, label_noise=0.1, seed=9)
        for f in fields(spec):
            assert getattr(spec, f.name) != getattr(BenchSpec(), f.name), f.name

    def test_fed_config_validation_becomes_config_error(self):
        cfg = config.resolve({"include_self": False})
        with pytest.raises(ConfigError, match="include_self"):
            config.fed_config(cfg, n_clients=1)
