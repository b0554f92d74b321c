from dataclasses import asdict

import pytest

from wifi_inout.config import (
    PipelineConfig,
    config_from_file,
    config_with_overrides,
    parse_fields,
)
from wifi_inout.errors import ConfigError
from wifi_inout.synth import WorldSpec, worldspec_from_file


def _write(tmp_path, text):
    path = tmp_path / "x.cfg"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("cls, from_file", [
    (PipelineConfig, config_from_file),
    (WorldSpec, worldspec_from_file),
])
def test_every_default_written_out_loads_back(tmp_path, cls, from_file):
    text = "".join(
        f"{k} = {'none' if v is None else v}\n" for k, v in asdict(cls()).items()
    )
    assert from_file(_write(tmp_path, text)) == cls()


@pytest.mark.parametrize("raw", ["none", "null", "None", ""])
def test_optional_keys_accept_none(raw):
    base = PipelineConfig(rf_max_features=3, rf_max_depth=4, max_gap_ms=5)
    cfg = config_with_overrides(
        base, {"rf_max_features": raw, "rf_max_depth": raw, "max_gap_ms": raw}
    )
    assert cfg.rf_max_features is None
    assert cfg.rf_max_depth is None
    assert cfg.max_gap_ms is None


@pytest.mark.parametrize("key", ["eps", "seed", "n_trees", "learning_rate"])
@pytest.mark.parametrize("raw", ["none", "null", ""])
def test_required_keys_reject_none(key, raw):
    with pytest.raises(ConfigError):
        config_with_overrides(PipelineConfig(), {key: raw})


def test_worldspec_keys_reject_none(tmp_path):
    with pytest.raises(ConfigError):
        worldspec_from_file(_write(tmp_path, "duration_s = none\n"))


@pytest.mark.parametrize("key", ["n_trees", "seed", "rf_max_depth", "buildings"])
def test_int_key_rejects_fraction(key):
    cls = WorldSpec if key == "buildings" else PipelineConfig
    with pytest.raises(ConfigError):
        parse_fields(cls, {key: "3.5"})


def test_values_take_declared_types():
    raw = {"eps": "0.3", "min_pts": "2", "variant": "clusters", "rf_max_features": "4"}
    out = parse_fields(PipelineConfig, raw)
    assert out == {"eps": 0.3, "min_pts": 2, "variant": "clusters", "rf_max_features": 4}
    assert type(out["eps"]) is float and type(out["min_pts"]) is int


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_fields(PipelineConfig, {"volume": "11"})


@pytest.mark.parametrize("key, bad, ok", [
    ("seed", "-1", "0"),
    ("min_pts", "0", "1"),
    ("n_trees", "0", "1"),
    ("gbm_rounds", "0", "1"),
    ("gbm_depth", "0", "1"),
    ("min_leaf", "0", "1"),
    ("learning_rate", "0", "0.001"),
    ("learning_rate", "-0.1", "2.0"),
    ("learning_rate", "nan", "0.5"),
    ("learning_rate", "inf", "0.5"),
    ("rf_max_features", "0", "1"),
    ("rf_max_depth", "0", "1"),
    ("max_gap_ms", "-1", "0"),
])
def test_validate_range_checks(key, bad, ok):
    with pytest.raises(ConfigError, match=key):
        config_with_overrides(PipelineConfig(), {key: bad})
    config_with_overrides(PipelineConfig(), {key: ok})
