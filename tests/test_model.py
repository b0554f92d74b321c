import json
import math

import pytest

from wifi_inout.errors import (
    DuplicateApError,
    FormatError,
    MixedDeviceError,
    OrderError,
)
from wifi_inout.model import (
    Fingerprint,
    ScanRecord,
    canonical_bssid,
    ingest,
    read_scan_log,
    rssi_to_power,
    write_scan_log,
)

from conftest import make_matrix, make_records, random_scan_matrix


def test_rssi_to_power_examples():
    assert rssi_to_power(-40) == 1.0e-4
    assert rssi_to_power(0) == 1.0
    assert rssi_to_power(-100) == 1.0e-10


def test_rssi_to_power_monotone():
    values = [rssi_to_power(r) for r in range(-120, 21)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(v > 0 for v in values)


def test_canonical_bssid_forms():
    target = "aa:bb:cc:00:11:22"
    assert canonical_bssid("AA:BB:CC:00:11:22") == target
    assert canonical_bssid("aa-bb-cc-00-11-22") == target
    assert canonical_bssid("aabbcc001122") == target
    assert canonical_bssid(" aa:bb:cc:00:11:22 ") == target


@pytest.mark.parametrize("bad", ["", "aa:bb:cc", "gg:bb:cc:00:11:22",
                                 "aa:bb:cc:00:11:22:33", "hello", "aabbcc00112"])
def test_canonical_bssid_rejects(bad):
    with pytest.raises(FormatError):
        canonical_bssid(bad)


_BSSID_FORMS = [str.upper, lambda a: a.replace(":", "-"), lambda a: a.replace(":", ""),
                lambda a: f" {a.upper().replace(':', '-')} ", lambda a: a]


def test_ingest_normalizes_mixed_bssid_forms_like_canonical_bssid(rng):
    base = random_scan_matrix(rng, 80, ap_pool=12)
    scans = [
        {_BSSID_FORMS[int(rng.integers(len(_BSSID_FORMS)))](ap): r
         for ap, r in fp.rssi_dbm.items()}
        for fp in base.fingerprints
    ]
    assert len({raw for scan in scans for raw in scan}) > 3 * base.N  # forms do mix
    reference = make_matrix([{canonical_bssid(raw): r for raw, r in scan.items()}
                             for scan in scans])
    assert make_matrix(scans) == reference == base


@pytest.mark.parametrize("bad", ["AA:BB:CC:00:11", "aabbcc00112g", 7, ["aa:bb:cc:00:11:22"]])
def test_ingest_rejects_a_malformed_bssid_after_good_ones(bad):
    good = {"AA-BB-CC-00-11-22": -40, "aabbcc001133": -50}
    records = make_records([good, good])
    records[1].readings.append((bad, -60))
    with pytest.raises(FormatError) as got:
        ingest(records)
    with pytest.raises(FormatError) as expected:
        canonical_bssid(bad)
    assert str(got.value) == str(expected.value)


def test_is_empty():
    assert Fingerprint(seq=0, powers={}).is_empty()
    f = Fingerprint(seq=1, powers={"aa:bb:cc:00:11:22": rssi_to_power(-90)})
    assert not f.is_empty()


def test_ingest_counts():
    m = make_matrix([
        {"0a:00:00:00:00:01": -40, "0b:00:00:00:00:02": -60},
        {"0a:00:00:00:00:01": -45},
        {"0b:00:00:00:00:02": -70},
    ])
    assert m.T == 3
    assert m.N == 2


def test_ingest_duplicate_ap():
    recs = make_records([{"0a:00:00:00:00:01": -40}])
    recs[0].readings.append(("0a:00:00:00:00:01", -50))
    with pytest.raises(DuplicateApError):
        ingest(recs)


def test_ingest_seq_gap():
    recs = make_records([{}, {}])
    recs[1].seq = 2
    with pytest.raises(OrderError):
        ingest(recs)


def test_ingest_timestamp_regression():
    recs = make_records([{}, {}])
    recs[1].timestamp_ms = recs[0].timestamp_ms - 1
    with pytest.raises(OrderError):
        ingest(recs)


def test_ingest_mixed_device():
    recs = make_records([{}, {}])
    recs[1].device_id = "other"
    with pytest.raises(MixedDeviceError):
        ingest(recs)


def test_ingest_bad_label_and_rssi():
    recs = make_records([{}])
    recs[0].label = "basement"
    with pytest.raises(FormatError):
        ingest(recs)
    recs2 = make_records([{}])
    recs2[0].readings = [("0a:00:00:00:00:01", -40.5)]
    with pytest.raises(FormatError):
        ingest(recs2)


@pytest.mark.parametrize("rssi", [4000, -4000])
def test_ingest_rejects_rssi_without_finite_positive_power(rssi):
    recs = make_records([{"0a:00:00:00:00:01": rssi}])
    with pytest.raises(FormatError):
        ingest(recs)


def test_ingest_carries_labels_and_locations():
    m = make_matrix(
        [{"0a:00:00:00:00:01": -40}, {}],
        labels=["indoor", "outdoor"],
        locations=["home", None],
    )
    assert m.labels == ["indoor", "outdoor"]
    assert m.locations == ["home", None]


def test_powers_come_from_integer_dbm(rng):
    m = random_scan_matrix(rng, 50)
    for fp in m.fingerprints:
        for ap, p in fp.powers.items():
            r = fp.rssi_dbm[ap]
            assert p == rssi_to_power(r)
            assert isinstance(r, int)


def test_matrix_counts_match_stream(rng):
    m = random_scan_matrix(rng, 80)
    assert m.T == 80
    assert m.ap_universe == {a for fp in m.fingerprints for a in fp.powers}
    assert all(fp.seq == i for i, fp in enumerate(m.fingerprints))


def test_round_trip_through_scan_log(tmp_path, rng):
    m = random_scan_matrix(rng, 60)
    path = tmp_path / "roundtrip.scans"
    write_scan_log(m.to_records(), path)
    m2 = ingest(read_scan_log(path))
    assert m2 == m


def test_scan_log_rejects_garbage(tmp_path):
    path = tmp_path / "bad.scans"
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_scan_log(path)
    path.write_text('{"device_id": "d", "seq": 0}\n', encoding="utf-8")
    with pytest.raises(FormatError):
        read_scan_log(path)
    good = {"device_id": "d", "seq": 0, "timestamp_ms": 1000, "label": None,
            "location": "hall", "scan": [{"bssid": "0a:00:00:00:00:01", "rssi_dbm": -50}]}
    path.write_text(json.dumps(good) + "\n", encoding="utf-8")
    assert read_scan_log(path)[0].location == "hall"
    # JSON integers only (no float, no bool); strings for device_id and location
    for field, value in [("device_id", 7), ("location", 5), ("location", [1]),
                         ("seq", "0"), ("seq", True), ("timestamp_ms", 1000.5),
                         ("timestamp_ms", 1000.0), ("rssi_dbm", -50.7), ("rssi_dbm", True)]:
        bad = json.loads(json.dumps(good))
        (bad["scan"][0] if field == "rssi_dbm" else bad)[field] = value
        path.write_text(json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_scan_log(path)


def test_fingerprint_ranks_ties_and_order():
    f = Fingerprint(seq=0, powers={
        "0a:00:00:00:00:01": 1e-4,
        "0b:00:00:00:00:02": 1e-5,
        "0c:00:00:00:00:03": 1e-5,
        "0d:00:00:00:00:04": 1e-7,
    })
    ranks = f.ranks()
    assert ranks["0a:00:00:00:00:01"] == 1.0
    assert ranks["0b:00:00:00:00:02"] == 2.5
    assert ranks["0c:00:00:00:00:03"] == 2.5
    assert ranks["0d:00:00:00:00:04"] == 4.0
    assert sum(ranks.values()) == 4 * 5 / 2


def test_dbm_values_derived_when_missing():
    f = Fingerprint(seq=0, powers={"0a:00:00:00:00:01": rssi_to_power(-73)})
    assert f.dbm_values() == pytest.approx([-73.0])
