"""Scan records, fingerprints, and the per-device fingerprint matrix.

A fingerprint is the sparse result of one Wi-Fi scan: a mapping from AP
(BSSID) to received power. RSSI arrives in dBm and is converted to linear
power at ingest; the original dBm is kept because downstream features
average signal strength in dBm.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (
    DuplicateApError,
    FormatError,
    MixedDeviceError,
    OrderError,
)

INDOOR = "indoor"
OUTDOOR = "outdoor"
LABELS = (INDOOR, OUTDOOR)

_BSSID_RE = re.compile(r"^([0-9a-f]{2}:){5}[0-9a-f]{2}$")


def canonical_bssid(raw: str) -> str:
    """Normalize a BSSID to six lowercase colon-separated hex octets.

    Accepts colon/dash separators or a bare 12-digit hex string; anything
    else raises FormatError.
    """
    if not isinstance(raw, str):
        raise FormatError(f"BSSID must be a string, got {type(raw).__name__}")
    s = raw.strip().lower().replace("-", ":")
    if ":" not in s and len(s) == 12:
        s = ":".join(s[i : i + 2] for i in range(0, 12, 2))
    if not _BSSID_RE.match(s):
        raise FormatError(f"malformed BSSID: {raw!r}")
    return s


def rssi_to_power(rssi_dbm: int) -> float:
    """Convert an RSSI in dBm to linear power: 10^(rssi/10)."""
    return 10.0 ** (rssi_dbm / 10.0)


@dataclass
class ScanRecord:
    """One Wi-Fi scan as reported by a device."""

    device_id: str
    seq: int
    timestamp_ms: int
    readings: List[Tuple[str, int]]  # (bssid, rssi_dbm)
    label: Optional[str] = None      # "indoor" | "outdoor" | None
    location: Optional[str] = None


@dataclass
class Fingerprint:
    """Sparse per-AP power vector for one scan.

    Absent APs encode power 0; stored powers are strictly positive.
    rssi_dbm mirrors `powers` with the original integer dBm when the
    fingerprint came through ingest.
    """

    seq: int
    powers: Dict[str, float]
    rssi_dbm: Optional[Dict[str, int]] = None
    _ranks: Optional[Dict[str, float]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def is_empty(self) -> bool:
        """True iff the scan behind this fingerprint detected zero APs."""
        return not self.powers

    def ranks(self) -> Dict[str, float]:
        """AP -> fractional rank within this fingerprint (1 = strongest).

        Equal powers receive the average of the ranks they span. Cached;
        fingerprints are treated as immutable after construction.
        """
        if self._ranks is None:
            self._ranks = _fractional_ranks(self.powers)
        return self._ranks

    def dbm_values(self) -> List[float]:
        """Per-reading signal strengths in dBm (derived if dBm not stored)."""
        if self.rssi_dbm is not None:
            return [float(v) for v in self.rssi_dbm.values()]
        return [10.0 * math.log10(p) for p in self.powers.values()]


def _fractional_ranks(powers: Dict[str, float]) -> Dict[str, float]:
    items = sorted(powers.items(), key=lambda kv: (-kv[1], kv[0]))
    ranks: Dict[str, float] = {}
    i = 0
    while i < len(items):
        j = i
        while j + 1 < len(items) and items[j + 1][1] == items[i][1]:
            j += 1
        avg = (i + 1 + j + 1) / 2.0  # ranks are 1-based
        for k in range(i, j + 1):
            ranks[items[k][0]] = avg
        i = j + 1
    return ranks


@dataclass
class FingerprintMatrix:
    """All fingerprints of one device, in collection order."""

    device_id: str
    fingerprints: List[Fingerprint]
    ap_universe: set
    labels: List[Optional[str]]
    locations: List[Optional[str]]
    timestamps_ms: List[int]

    @property
    def T(self) -> int:
        return len(self.fingerprints)

    @property
    def N(self) -> int:
        return len(self.ap_universe)

    def prefix(self, n: int) -> "FingerprintMatrix":
        """Matrix restricted to the first n fingerprints."""
        fps = self.fingerprints[:n]
        universe = set()
        for fp in fps:
            universe.update(fp.powers)
        return FingerprintMatrix(
            device_id=self.device_id,
            fingerprints=fps,
            ap_universe=universe,
            labels=self.labels[:n],
            locations=self.locations[:n],
            timestamps_ms=self.timestamps_ms[:n],
        )

    def to_records(self) -> List[ScanRecord]:
        """Export back to scan records (inverse of ingest)."""
        records = []
        for i, fp in enumerate(self.fingerprints):
            if fp.rssi_dbm is not None:
                readings = list(fp.rssi_dbm.items())
            else:
                readings = [
                    (a, int(round(10.0 * math.log10(p))))
                    for a, p in fp.powers.items()
                ]
            records.append(
                ScanRecord(
                    device_id=self.device_id,
                    seq=i,
                    timestamp_ms=self.timestamps_ms[i],
                    readings=readings,
                    label=self.labels[i],
                    location=self.locations[i],
                )
            )
        return records


def ingest(stream: Iterable[ScanRecord]) -> FingerprintMatrix:
    """Build the fingerprint matrix from one device's scan stream.

    Enforces: a single device id, consecutive seq from 0, non-decreasing
    timestamps, and no duplicate AP within a record.
    """
    records = list(stream)
    if not records:
        raise FormatError("empty scan stream")
    device_id = records[0].device_id
    fingerprints: List[Fingerprint] = []
    labels: List[Optional[str]] = []
    locations: List[Optional[str]] = []
    timestamps: List[int] = []
    universe: set = set()

    prev_ts = None
    for i, rec in enumerate(records):
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
            ap = canonical_bssid(raw_bssid)
            if not isinstance(rssi, int) or isinstance(rssi, bool):
                raise FormatError(f"record {i}: RSSI must be an integer, got {rssi!r}")
            if ap in powers:
                raise DuplicateApError(f"record {i}: duplicate AP {ap}")
            powers[ap] = rssi_to_power(rssi)
            dbm[ap] = rssi
        universe.update(powers)
        fingerprints.append(Fingerprint(seq=i, powers=powers, rssi_dbm=dbm))
        labels.append(rec.label)
        locations.append(rec.location)
        timestamps.append(rec.timestamp_ms)

    return FingerprintMatrix(
        device_id=device_id,
        fingerprints=fingerprints,
        ap_universe=universe,
        labels=labels,
        locations=locations,
        timestamps_ms=timestamps,
    )


# --- scan log file format ---------------------------------------------------
# One JSON object per line:
#   {"device_id": str, "seq": int, "timestamp_ms": int,
#    "label": "indoor"|"outdoor"|null, "location": str|null,
#    "scan": [{"bssid": str, "rssi_dbm": int}, ...]}


def record_to_json(rec: ScanRecord) -> str:
    return json.dumps(
        {
            "device_id": rec.device_id,
            "seq": rec.seq,
            "timestamp_ms": rec.timestamp_ms,
            "label": rec.label,
            "location": rec.location,
            "scan": [{"bssid": b, "rssi_dbm": r} for b, r in rec.readings],
        }
    )


def record_from_json(line: str) -> ScanRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise FormatError(f"bad scan record line: {e}") from e
    try:
        return ScanRecord(
            device_id=obj["device_id"],
            seq=int(obj["seq"]),
            timestamp_ms=int(obj["timestamp_ms"]),
            readings=[(r["bssid"], int(r["rssi_dbm"])) for r in obj["scan"]],
            label=obj.get("label"),
            location=obj.get("location"),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad scan record fields: {e}") from e


def write_scan_log(records: Sequence[ScanRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(record_to_json(rec))
            f.write("\n")


def read_scan_log(path) -> List[ScanRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                records.append(record_from_json(line))
    return records
