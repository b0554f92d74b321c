from dataclasses import asdict, fields

import pytest

from wifi_inout.config import (
    PipelineConfig,
    config_from_file,
    config_with_overrides,
    parse_fields,
)
from wifi_inout.errors import ConfigError
from wifi_inout.features import BASELINE_RANGES, DEFAULT_RANGES
from wifi_inout.learner import GBM_DEFAULTS, RF_DEFAULTS
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
    cfg = config_with_overrides(PipelineConfig(max_gap_ms=5), {"max_gap_ms": raw})
    assert cfg.max_gap_ms is None


@pytest.mark.parametrize("key", ["eps", "seed", "n_trees", "threshold"])
@pytest.mark.parametrize("raw", ["none", "null", ""])
def test_required_keys_reject_none(key, raw):
    with pytest.raises(ConfigError):
        config_with_overrides(PipelineConfig(), {key: raw})


def test_worldspec_keys_reject_none(tmp_path):
    with pytest.raises(ConfigError):
        worldspec_from_file(_write(tmp_path, "duration_s = none\n"))


@pytest.mark.parametrize("key", ["n_trees", "seed", "max_gap_ms", "buildings"])
def test_int_key_rejects_fraction(key):
    cls = WorldSpec if key == "buildings" else PipelineConfig
    with pytest.raises(ConfigError):
        parse_fields(cls, {key: "3.5"})


def test_values_take_declared_types():
    raw = {"eps": "0.3", "min_pts": "2", "variant": "clusters", "gbm_rounds": "4"}
    out = parse_fields(PipelineConfig, raw)
    assert out == {"eps": 0.3, "min_pts": 2, "variant": "clusters", "gbm_rounds": 4}
    assert type(out["eps"]) is float and type(out["min_pts"]) is int


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_fields(PipelineConfig, {"volume": "11"})


@pytest.mark.parametrize("key, bad, ok", [
    ("seed", "-1", "0"),
    ("seed", str(2**63), str(2**63 - 1)),
    ("min_pts", "0", "1"),
    ("n_trees", "0", "1"),
    ("gbm_rounds", "0", "1"),
    # one tree per unit of ensemble size: 10**12 of them would never finish
    ("n_trees", "4097", "4096"),
    ("n_trees", str(2**63), "4096"),
    ("gbm_rounds", "4097", "4096"),
    ("gbm_rounds", str(2**63), "4096"),
    ("max_gap_ms", "-1", "0"),
])
def test_validate_range_checks(key, bad, ok):
    with pytest.raises(ConfigError, match=key):
        config_with_overrides(PipelineConfig(), {key: bad})
    config_with_overrides(PipelineConfig(), {key: ok})


def test_learner_defaults_come_from_the_learner_tables():
    assert PipelineConfig().hyperparameters() == RF_DEFAULTS
    assert PipelineConfig(learner="gbm").hyperparameters() == GBM_DEFAULTS


def test_hop_ranges_are_fixed_per_variant():
    assert len(fields(PipelineConfig)) == 9
    assert PipelineConfig().feature_ranges() == DEFAULT_RANGES
    for variant in ("clusters", "fingerprints"):
        assert PipelineConfig(variant=variant).feature_ranges() == BASELINE_RANGES
