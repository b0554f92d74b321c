import math

import pytest

from wifi_inout.errors import ConfigError
from wifi_inout.model import INDOOR, OUTDOOR, ingest, record_to_json
from wifi_inout.synth import (
    PROFILE_PARKING,
    WorldSpec,
    generate,
    worldspec_from_file,
)


def test_deterministic_byte_identical():
    spec = WorldSpec(seed=33, duration_s=1800.0)
    a = generate(spec)
    b = generate(spec)
    assert a == b
    assert [record_to_json(r) for r in a] == [record_to_json(r) for r in b]


def test_seed_changes_stream():
    a = generate(WorldSpec(seed=1, duration_s=600.0))
    b = generate(WorldSpec(seed=2, duration_s=600.0))
    assert a != b


def test_single_building_no_outdoor_all_indoor():
    spec = WorldSpec(seed=4, duration_s=900.0, buildings=1,
                     outdoor_dwell_min_s=0.0, outdoor_dwell_max_s=0.0)
    records = generate(spec)
    assert records
    assert all(r.label == INDOOR for r in records)
    assert all(r.location == "building_0" for r in records)


def test_outdoor_only_world():
    spec = WorldSpec(seed=4, duration_s=900.0,
                     indoor_dwell_min_s=0.0, indoor_dwell_max_s=0.0)
    records = generate(spec)
    assert all(r.label == OUTDOOR for r in records)


def test_indoor_fraction_tracks_dwell_ratio():
    spec = WorldSpec(seed=0)  # defaults: 4 h
    records = generate(spec)
    indoor = sum(1 for r in records if r.label == INDOOR)
    frac = indoor / len(records)
    mean_in = (spec.indoor_dwell_min_s + spec.indoor_dwell_max_s) / 2
    mean_out = (spec.outdoor_dwell_min_s + spec.outdoor_dwell_max_s) / 2
    expected = mean_in / (mean_in + mean_out)
    assert abs(frac - expected) <= 0.05


def test_indoor_outdoor_ap_count_separation():
    records = generate(WorldSpec(seed=0))
    indoor_counts = [len(r.readings) for r in records if r.label == INDOOR]
    outdoor_counts = [len(r.readings) for r in records if r.label == OUTDOOR]
    mean_in = sum(indoor_counts) / len(indoor_counts)
    mean_out = sum(outdoor_counts) / len(outdoor_counts)
    assert mean_in >= 3.0 * mean_out


def test_outdoor_has_empty_scans():
    records = generate(WorldSpec(seed=0))
    empties = [r for r in records if not r.readings]
    assert empties
    assert all(r.label == OUTDOOR for r in empties)


def test_parking_profile():
    spec = WorldSpec(seed=6, profile=PROFILE_PARKING, duration_s=600.0)
    records = generate(spec)
    assert all(r.label == INDOOR for r in records)
    assert all(len(r.readings) <= 2 for r in records)
    assert all(rssi <= -85 for r in records for _, rssi in r.readings)
    assert all(r.location == "underground_parking" for r in records)


def test_stream_is_ingestible():
    m = ingest(generate(WorldSpec(seed=7, duration_s=1200.0)))
    assert m.T == 400
    assert m.device_id == "synth0"


def test_validation_errors():
    with pytest.raises(ConfigError):
        WorldSpec(duration_s=0).validate()
    with pytest.raises(ConfigError):
        WorldSpec(indoor_rssi_sigma=0.0).validate()
    with pytest.raises(ConfigError):
        WorldSpec(building_ap_min=10, building_ap_max=5).validate()
    with pytest.raises(ConfigError):
        WorldSpec(ap_dropout=1.5).validate()
    with pytest.raises(ConfigError):
        WorldSpec(profile="rooftop").validate()
    with pytest.raises(ConfigError):
        WorldSpec(indoor_dwell_max_s=0.0, outdoor_dwell_max_s=0.0).validate()
    with pytest.raises(ConfigError, match="seed"):
        WorldSpec(seed=-1).validate()
    for name, value in (
        ("scan_period_s", math.nan), ("indoor_rssi_mean", math.nan),
        ("outdoor_rssi_sigma", math.nan), ("duration_s", math.inf),
        ("scan_noise_sigma", math.inf), ("indoor_dwell_min_s", math.nan),
    ):
        with pytest.raises(ConfigError, match=name):
            WorldSpec(**{name: value}).validate()


def test_worldspec_from_file(tmp_path):
    path = tmp_path / "world.cfg"
    path.write_text(
        "# a hard world\n"
        "seed = 17\n"
        "buildings = 3\n"
        "duration_s = 600\n"
        "indoor_rssi_mean = -63.5\n"
        "device_id = phone1\n",
        encoding="utf-8",
    )
    spec = worldspec_from_file(path)
    assert spec.seed == 17
    assert spec.buildings == 3
    assert spec.duration_s == 600.0
    assert spec.indoor_rssi_mean == -63.5
    assert spec.device_id == "phone1"

    bad = tmp_path / "bad.cfg"
    bad.write_text("volume = 11\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        worldspec_from_file(bad)
