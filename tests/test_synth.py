import math
import time

import pytest

from wifi_inout.cli import main
from wifi_inout.errors import ConfigError
from wifi_inout.model import INDOOR, OUTDOOR, ingest, record_to_json
from wifi_inout.synth import (
    MAX_BUILDING_APS,
    MAX_SCANS,
    MAX_WALK_SCANS,
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


@pytest.mark.parametrize("spec", [
    "start_timestamp_ms = 9223372036854775000\nduration_s = 60\n",
    "scan_period_s = 1e9\n",
    "duration_s = 2.5\n",
    "start_timestamp_ms = -9223372036854775809\nduration_s = 60\n",
    "duration_s = 1e300\n",
    "duration_s = 1e300\nscan_period_s = 1e-300\n",
], ids=["last-stamp-past-int64", "no-scan", "shorter-than-a-period", "start-below-int64",
        "span-past-int64", "scan-count-overflows"])
def test_synth_refuses_a_world_its_ingest_would_reject(tmp_path, capsys, spec):
    # synth used to write the first four logs, which `ingest` rejects (a
    # timestamp beyond int64, or an empty stream); it began a world of
    # 3e299 scans for the fifth and raised OverflowError on the sixth
    path = tmp_path / "world.cfg"
    path.write_text(spec, encoding="utf-8")
    assert main(["synth", "--spec", str(path), "--out", str(tmp_path / "s.scans")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "s.scans").exists()


@pytest.mark.parametrize("key", ["buildings", "building_ap_max", "outdoor_visible_max"])
def test_counts_beyond_int64_are_refused(key):
    # `rng.integers` draws from these counts in int64: 2**63 made it raise
    # ValueError, after a loop over that many buildings for `buildings`
    with pytest.raises(ConfigError, match="below 2\\*\\*63"):
        WorldSpec(duration_s=60.0, **{key: 2**63}).validate()


def test_world_stamps_may_reach_the_int64_edge(tmp_path):
    # 20 scans of 3 s: the last is stamped start + 57,000 ms = 2**63 - 1
    spec = WorldSpec(seed=3, duration_s=60.0, start_timestamp_ms=2**63 - 1 - 57_000)
    m = ingest(generate(spec))
    assert m.T == 20 and m.timestamps_ms[-1] == 2**63 - 1
    with pytest.raises(ConfigError, match="int64"):
        WorldSpec(duration_s=60.0, start_timestamp_ms=2**63 - 57_000).validate()
    one = WorldSpec(duration_s=3.0, start_timestamp_ms=-2**63)
    assert len(generate(one)) == 1


@pytest.mark.parametrize("spec", [
    "duration_s = 60\nbuilding_ap_min = 1\nbuilding_ap_max = 9223372036854775807\n",
    "duration_s = 60\nindoor_dwell_min_s = 0\nindoor_dwell_max_s = 0\n"
    "outdoor_dwell_min_s = 1e300\noutdoor_dwell_max_s = 1e300\n",
], ids=["building-ap-max-2**63-1", "outdoor-dwell-1e300"])
def test_synth_refuses_a_world_too_large_to_generate(tmp_path, capsys, spec):
    # synth used to build one building's 2**63 - 1 APs, or the first
    # walk's ~1.7e299 street APs, until it was stopped
    path = tmp_path / "world.cfg"
    path.write_text(spec, encoding="utf-8")
    with pytest.raises(ConfigError, match="at most"):
        worldspec_from_file(path)
    start = time.perf_counter()
    assert main(["synth", "--spec", str(path), "--out", str(tmp_path / "s.scans")]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "error:" in err and "at most" in err and "Traceback" not in err
    assert not (tmp_path / "s.scans").exists()


def test_largest_allowed_world_sizes_are_accepted():
    WorldSpec(duration_s=3.0 * MAX_SCANS).validate()
    WorldSpec(duration_s=60.0, buildings=1, building_ap_max=MAX_BUILDING_APS).validate()
    WorldSpec(duration_s=60.0, outdoor_dwell_max_s=3.0 * MAX_WALK_SCANS).validate()
    for over in (dict(duration_s=3.0 * MAX_SCANS + 3.0),
                 dict(buildings=2, building_ap_max=MAX_BUILDING_APS // 2 + 1),
                 dict(outdoor_dwell_max_s=3.0 * MAX_WALK_SCANS + 0.5)):
        with pytest.raises(ConfigError, match="at most"):
            WorldSpec(**{"duration_s": 60.0, **over}).validate()
