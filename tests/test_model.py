import json
import math
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wifi_inout.errors import (
    DuplicateApError,
    FormatError,
    MixedDeviceError,
    OrderError,
    WifiInoutError,
)
from wifi_inout.model import (
    INDOOR,
    OUTDOOR,
    Fingerprint,
    FingerprintMatrix,
    ScanRecord,
    _fractional_ranks,
    canonical_bssid,
    ingest,
    read_scan_log,
    rssi_to_power,
    write_scan_log,
)

from conftest import mac, make_matrix, make_records, random_scan_matrix


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
    assert ingest(read_scan_log(path)).locations == ["hall"]
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


def test_ingest_rejects_seq_and_timestamps_outside_int64():
    for field, value in [("seq", 2**63), ("timestamp_ms", 2**63), ("timestamp_ms", -2**63 - 1),
                         ("seq", 1.0), ("timestamp_ms", True)]:
        recs = make_records([{}, {}])
        setattr(recs[1], field, value)
        with pytest.raises(FormatError, match=f"record 1: {field} .* within int64"):
            ingest(recs)


# --- the columnar ingest against the per-record one it replaced ---------------

def reference_ingest(records) -> FingerprintMatrix:
    """The per-record ingest loop the columnar `ingest` replaced, kept as
    its reference: the same checks, record by record, reading by reading,
    plus the int64 check on seq and timestamp_ms that came with it."""
    records = list(records)
    if not records:
        raise FormatError("empty scan stream")
    device_id = records[0].device_id
    fingerprints: List[Fingerprint] = []
    labels: List[Optional[str]] = []
    locations: List[Optional[str]] = []
    timestamps: List[int] = []

    canonical: Dict[str, str] = {}
    prev_ts = None
    for i, rec in enumerate(records):
        for what, v in (("seq", rec.seq), ("timestamp_ms", rec.timestamp_ms)):
            if type(v) is not int or not -2**63 <= v < 2**63:
                raise FormatError(f"record {i}: {what} {v!r} is not an integer within int64")
        if rec.device_id != device_id:
            raise MixedDeviceError(
                f"record {i}: device {rec.device_id!r} != {device_id!r}"
            )
        if rec.seq != i:
            raise OrderError(f"record {i}: seq {rec.seq}, expected {i}")
        if prev_ts is not None and rec.timestamp_ms < prev_ts:
            raise OrderError(
                f"record {i}: timestamp {rec.timestamp_ms} < {prev_ts}"
            )
        prev_ts = rec.timestamp_ms
        if rec.label not in (None, INDOOR, OUTDOOR):
            raise FormatError(f"record {i}: bad label {rec.label!r}")

        powers: Dict[str, float] = {}
        dbm: Dict[str, int] = {}
        for raw_bssid, rssi in rec.readings:
            ap = canonical.get(raw_bssid) if isinstance(raw_bssid, str) else None
            if ap is None:
                ap = canonical[raw_bssid] = canonical_bssid(raw_bssid)
            if not isinstance(rssi, int) or isinstance(rssi, bool):
                raise FormatError(f"record {i}: RSSI must be an integer, got {rssi!r}")
            if ap in powers:
                raise DuplicateApError(f"record {i}: duplicate AP {ap}")
            try:
                powers[ap] = rssi_to_power(rssi)
            except OverflowError as e:
                raise FormatError(f"record {i}: RSSI {rssi} dBm overflows linear power") from e
            if powers[ap] == 0.0:
                raise FormatError(f"record {i}: RSSI {rssi} dBm underflows to power 0")
            dbm[ap] = rssi
        fingerprints.append(Fingerprint(seq=i, powers=powers, rssi_dbm=dbm))
        labels.append(rec.label)
        locations.append(rec.location)
        timestamps.append(rec.timestamp_ms)
    return FingerprintMatrix.from_fingerprints(device_id, fingerprints, labels, locations,
                                               timestamps)


_MACS = [mac(i) for i in range(6)]
_RSSI = [-50, True, 4000]  # a good RSSI, or one more fault in the same reading
_FAULTS = {
    "malformed BSSID": lambda rec, k: rec.readings.insert(k, ("02:00:00:00:zz:01", _RSSI[k % 3])),
    "short BSSID": lambda rec, k: rec.readings.insert(k, ("02-00-00-00-01", _RSSI[k % 3])),
    "duplicate BSSID": lambda rec, k: rec.readings.insert(
        k, (rec.readings[0][0].upper() if rec.readings else _MACS[0], _RSSI[k % 3])),
    "non-string BSSID": lambda rec, k: rec.readings.insert(k, ([7], _RSSI[k % 3])),
    "None BSSID": lambda rec, k: rec.readings.insert(k, (None, _RSSI[k % 3])),
    "bool RSSI": lambda rec, k: rec.readings.insert(k, (_MACS[5], True)),
    "float RSSI": lambda rec, k: rec.readings.insert(k, (_MACS[5], -50.5)),
    "huge RSSI": lambda rec, k: rec.readings.insert(k, (_MACS[5], 4000)),
    "tiny RSSI": lambda rec, k: rec.readings.insert(k, (_MACS[5], -4000)),
    "RSSI beyond int64": lambda rec, k: rec.readings.insert(k, (_MACS[5], -2**70)),
    "seq gap": lambda rec, k: setattr(rec, "seq", rec.seq + 1 + k),
    "float seq": lambda rec, k: setattr(rec, "seq", float(rec.seq)),
    "huge timestamp": lambda rec, k: setattr(rec, "timestamp_ms", 2**63 + k),
    "timestamp regression": lambda rec, k: setattr(rec, "timestamp_ms", rec.timestamp_ms - 4000),
    "mixed device": lambda rec, k: setattr(rec, "device_id", "other"),
    "bad label": lambda rec, k: setattr(rec, "label", ["basement", None, 1][k % 3]),
}
_FORMS = [str, str.upper, lambda a: a.replace(":", "-"), lambda a: a.replace(":", "")]


@st.composite
def _faulty_records(draw):
    scans = draw(st.lists(st.dictionaries(st.sampled_from(_MACS[:5]), st.integers(-95, -30),
                                          max_size=4), min_size=1, max_size=8))
    labels = draw(st.lists(st.sampled_from([None, INDOOR, OUTDOOR]),
                           min_size=len(scans), max_size=len(scans)))
    records = make_records(scans, labels)
    for rec in records:
        rec.readings = [(draw(st.sampled_from(_FORMS))(ap), r) for ap, r in rec.readings]
    for fault in draw(st.lists(st.sampled_from(sorted(_FAULTS)), max_size=3)):
        rec = records[draw(st.integers(0, len(records) - 1))]
        _FAULTS[fault](rec, draw(st.integers(0, len(rec.readings))))
    return records


def _outcome(ingest_fn, records):
    try:
        return ingest_fn(records)
    except WifiInoutError as e:
        return type(e), str(e)


@settings(derandomize=True, max_examples=400)
@given(_faulty_records())
def test_columnar_ingest_equals_per_record_reference(records):
    """The same matrix (fingerprints, labels, locations, timestamps), or
    the same error type and message, on streams with injected faults."""
    got, want = _outcome(ingest, records), _outcome(reference_ingest, records)
    assert got == want
    if isinstance(got, FingerprintMatrix):
        assert got.fingerprints == want.fingerprints
        assert [fp.ranks() for fp in got.fingerprints] == [
            _fractional_ranks(fp.powers) for fp in want.fingerprints]


_POWERS = st.dictionaries(
    st.sampled_from(_MACS),
    st.sampled_from([1e-9, 2.5e-7, 1e-5, 0.3, 1.0]) | st.floats(1e-300, 1e300),
    max_size=6)


@settings(derandomize=True, max_examples=300)
@given(st.lists(_POWERS, max_size=10))
def test_csr_ranks_equal_fractional_ranks_row_by_row(scans):
    """Every row's ranks, from the one sort over all readings, equal the
    per-scan ranking of its powers, ties included; readings keep their order."""
    fps = [Fingerprint(seq=t, powers=powers) for t, powers in enumerate(scans)]
    m = FingerprintMatrix.from_fingerprints("d", fps, [None] * len(fps), [None] * len(fps),
                                            range(len(fps)))
    for t, powers in enumerate(scans):
        lo, hi = m.indptr[t], m.indptr[t + 1]
        names = [m.aps[a] for a in m.ap_ids[lo:hi]]
        assert names == list(powers)
        assert m.power[lo:hi].tolist() == list(powers.values())
        assert dict(zip(names, m.ranks[lo:hi].tolist())) == _fractional_ranks(powers)
