"""Scan records and the per-device fingerprint matrix.

A fingerprint is the sparse result of one Wi-Fi scan: a mapping from AP
(BSSID) to received power. RSSI arrives in dBm and is converted to linear
power at ingest; the integer dBm is kept because downstream features
average signal strength in dBm.

A device's scans are stored once, as one CSR matrix (`FingerprintMatrix`):
row t holds scan t's readings in the order the scan listed them, each an
AP id into a sorted name table with its integer dBm, its linear power and
its fractional rank within the scan. `read_scan_log` parses a log
straight into flat lists (`ScanLog`), and `ingest` checks and converts
them with array operations; scan records (from `synth.generate` or a
test) are flattened the same way first, so every input check lives in
`ingest`. `Fingerprint` objects are a per-scan view of the matrix for the
scalar distance and the tests; no pipeline stage builds them.
Per-scan statistics (`k`, `rank_sumsq`, `rank_keys`) are cached views
of the matrix and are stored nowhere else.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .errors import (
    DuplicateApError,
    FormatError,
    MixedDeviceError,
    OrderError,
    first_non_int64,
)

INDOOR = "indoor"
OUTDOOR = "outdoor"

_BSSID_RE = re.compile(r"^([0-9a-f]{2}:){5}[0-9a-f]{2}$")


def label_codes(labels: Sequence[Optional[str]]) -> np.ndarray:
    """The labels as int8 codes: 1 for indoor, 0 for outdoor, -1 for none.
    Every layer past the file formats reads labels in this form."""
    labels = np.asarray(labels, dtype=object)
    return np.select([labels == INDOOR, labels == OUTDOOR], [1, 0], -1).astype(np.int8)


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

    Absent APs encode power 0; stored powers are strictly positive. A row
    of a FingerprintMatrix (`FingerprintMatrix.fingerprints`) carries the
    row's integer dBm and ranks too; a fingerprint built on its own ranks
    its powers when asked.
    """

    seq: int
    powers: Dict[str, float]
    rssi_dbm: Optional[Dict[str, int]] = None
    rank_map: Optional[Dict[str, float]] = field(default=None, repr=False, compare=False)

    def is_empty(self) -> bool:
        """True iff the scan behind this fingerprint detected zero APs."""
        return not self.powers

    def ranks(self) -> Dict[str, float]:
        """AP -> fractional rank within this fingerprint (1 = strongest).

        Equal powers receive the average of the ranks they span.
        """
        return _fractional_ranks(self.powers) if self.rank_map is None else self.rank_map

    def dbm_values(self) -> List[float]:
        """Per-reading signal strengths in dBm (derived if dBm not stored)."""
        if self.rssi_dbm is not None:
            return [float(v) for v in self.rssi_dbm.values()]
        return [10.0 * math.log10(p) for p in self.powers.values()]


def _fractional_ranks(powers: Dict[str, float]) -> Dict[str, float]:
    """One scan's ranks, scan by scan; `_csr_ranks` ranks every row at once."""
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


def _csr_ranks(indptr: np.ndarray, power: np.ndarray) -> np.ndarray:
    """Fractional rank of every reading within its row (1 = strongest),
    equal powers sharing the average of the ranks they span: one sort of
    all readings by (row, -power), then each run of equal keys takes the
    mean of its places in the row."""
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    code = np.unique(-power, return_inverse=True)[1].reshape(-1)  # equal powers, equal codes
    key = rows * (len(power) + 1) + code
    order = np.argsort(key, kind="stable")
    key = key[order]
    start = np.ones(len(order), dtype=bool)  # first reading of a run of equal keys
    start[1:] = key[1:] != key[:-1]
    first = np.flatnonzero(start)
    length = np.diff(np.append(first, len(order)))
    # a run over the 0-based places i..i+length-1 of its row has mean rank i + (length+1)/2
    mean = first - indptr[rows[order[first]]] + (length + 1) / 2.0
    ranks = np.empty(len(order))
    ranks[order] = np.repeat(mean, length)
    return ranks


@dataclass(eq=False)
class FingerprintMatrix:
    """All scans of one device as one CSR matrix, in collection order.

    Row t is the slice indptr[t]:indptr[t + 1] of the reading columns, in
    the order scan t listed its APs; an empty scan is an empty row. Two
    matrices are equal when they hold the same scans.
    """

    device_id: str
    aps: List[str]          # sorted AP names; ap_ids index them
    indptr: np.ndarray      # (T + 1,) row offsets into the reading columns
    ap_ids: np.ndarray      # per reading: AP id
    dbm: np.ndarray         # per reading: integer RSSI in dBm
    power: np.ndarray       # per reading: linear power, > 0
    ranks: np.ndarray       # per reading: fractional rank in its row, 1 = strongest
    labels: List[Optional[str]]
    locations: List[Optional[str]]
    timestamps_ms: List[int]

    @classmethod
    def from_fingerprints(cls, device_id: str, fingerprints: Sequence[Fingerprint],
                          labels, locations, timestamps_ms) -> "FingerprintMatrix":
        """Matrix of the given fingerprints, unchecked. A fingerprint
        without dBm takes its powers' dBm rounded, as `to_records` writes
        them."""
        aps = sorted({a for fp in fingerprints for a in fp.powers})
        id_of = {a: k for k, a in enumerate(aps)}
        readings = [(id_of[a], p, round(10.0 * math.log10(p)) if fp.rssi_dbm is None
                     else fp.rssi_dbm[a])
                    for fp in fingerprints for a, p in fp.powers.items()]
        ids, power, dbm = (np.array(c) for c in zip(*readings)) if readings else (
            np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64))
        indptr = np.r_[0, np.cumsum([len(fp.powers) for fp in fingerprints], dtype=np.int64)]
        return cls(device_id, aps, indptr, ids, dbm, power, _csr_ranks(indptr, power),
                   list(labels), list(locations), list(timestamps_ms))

    @property
    def T(self) -> int:
        return len(self.indptr) - 1

    @property
    def rows(self) -> np.ndarray:
        """Row of every reading."""
        return np.repeat(np.arange(self.T), self.k)

    @cached_property
    def k(self) -> np.ndarray:
        """Per scan, its AP count; 0 marks an empty scan."""
        return np.diff(self.indptr)

    @cached_property
    def rank_sumsq(self) -> np.ndarray:
        """Per scan, the sum of its squared ranks."""
        return np.bincount(self.rows, self.ranks * self.ranks, minlength=self.T)

    @property
    def ap_universe(self) -> Set[str]:
        return {self.aps[a] for a in np.unique(self.ap_ids).tolist()}

    @property
    def N(self) -> int:
        return len(np.unique(self.ap_ids))

    def prefix(self, n: int) -> "FingerprintMatrix":
        """Matrix restricted to the first n fingerprints (views of this
        one's arrays, with the same name table)."""
        n = min(n, self.T)
        end = self.indptr[n]
        return replace(self, indptr=self.indptr[:n + 1], ap_ids=self.ap_ids[:end],
                       dbm=self.dbm[:end], power=self.power[:end], ranks=self.ranks[:end],
                       labels=self.labels[:n], locations=self.locations[:n],
                       timestamps_ms=self.timestamps_ms[:n])

    def _row_slices(self):
        return zip(self.indptr[:-1].tolist(), self.indptr[1:].tolist())

    def _names(self) -> List[str]:
        return [self.aps[a] for a in self.ap_ids.tolist()]

    def __eq__(self, other) -> bool:
        return (isinstance(other, FingerprintMatrix) and self.to_records() == other.to_records()
                and np.array_equal(self.power, other.power))

    @cached_property
    def fingerprints(self) -> List[Fingerprint]:
        """Per-scan view for the scalar distance, the oracles and the
        tests; no pipeline stage reads it."""
        names = self._names()
        dbm, power, ranks = self.dbm.tolist(), self.power.tolist(), self.ranks.tolist()
        return [Fingerprint(seq=t, powers=dict(zip(names[lo:hi], power[lo:hi])),
                            rssi_dbm=dict(zip(names[lo:hi], dbm[lo:hi])),
                            rank_map=dict(zip(names[lo:hi], ranks[lo:hi])))
                for t, (lo, hi) in enumerate(self._row_slices())]

    @cached_property
    def rank_keys(self) -> List[bytes]:
        """Per scan, its (AP id, rank) pairs in AP id order as bytes: two
        scans have equal keys iff they have equal rank maps."""
        order = np.lexsort((self.ap_ids, self.rows))
        pairs = np.empty(len(order), dtype=[("ap", "<i8"), ("rank", "<f8")])
        pairs["ap"], pairs["rank"] = self.ap_ids[order], self.ranks[order]
        blob, size = pairs.tobytes(), pairs.dtype.itemsize
        return [blob[lo * size:hi * size] for lo, hi in self._row_slices()]

    def to_records(self) -> List[ScanRecord]:
        """Export back to scan records (inverse of ingest)."""
        names, dbm = self._names(), self.dbm.tolist()
        return [ScanRecord(device_id=self.device_id, seq=t, timestamp_ms=self.timestamps_ms[t],
                           readings=list(zip(names[lo:hi], dbm[lo:hi])),
                           label=self.labels[t], location=self.locations[t])
                for t, (lo, hi) in enumerate(self._row_slices())]


@dataclass
class ScanLog:
    """One device's scan stream before any check, flattened: per scan a
    (device_id, seq, timestamp_ms, label, location, reading count) tuple,
    and every scan's (BSSID, RSSI) readings in one list, scan after scan."""

    scans: List[tuple] = field(default_factory=list)
    readings: List[tuple] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.scans)

    @classmethod
    def from_records(cls, records: Iterable[ScanRecord]) -> "ScanLog":
        log = cls()
        for rec in records:
            log.scans.append((rec.device_id, rec.seq, rec.timestamp_ms, rec.label,
                              rec.location, len(rec.readings)))
            log.readings += rec.readings
        return log


def ingest(stream: Union[ScanLog, Iterable[ScanRecord]]) -> FingerprintMatrix:
    """Build the fingerprint matrix from one device's scan stream: a
    ScanLog, or scan records.

    Scan by scan: seq and timestamp_ms integers within int64, a single
    device id, seq consecutive from 0, non-decreasing timestamps, a label
    of indoor, outdoor or None; and reading by reading: a well-formed
    BSSID, an integer RSSI, no AP twice in a scan, and a finite positive
    linear power. The error raised is that of the first failing check in
    that order.

    Each check runs once over the whole stream with list, set and array
    operations. The scan checks keep the earliest failing scan; each
    reading check then looks only at the readings before it and before
    any failing reading found so far, so the error is the one a scan-by-
    scan, reading-by-reading pass meets first. Powers come from a table
    over the distinct dBm values.
    """
    log = stream if isinstance(stream, ScanLog) else ScanLog.from_records(stream)
    if not log.scans:
        raise FormatError("empty scan stream")
    devices, seqs, stamps, labels, locations, counts = (
        list(map(itemgetter(k), log.scans)) for k in range(6))
    T = len(seqs)
    failures = [(T, 0, None)]  # (scan, check, error) of each check's first failing scan
    for check, what, values in ((-2, "seq", seqs), (-1, "timestamp_ms", stamps)):
        i = first_non_int64(values)
        if i is not None:
            failures.append((i, check, FormatError(
                f"record {i}: {what} {values[i]!r} is not an integer within int64")))
    n = min(map(itemgetter(0), failures))  # the scans before n have int64 seq and timestamp_ms
    seq, ts = np.array(seqs[:n], np.int64), np.array(stamps[:n], np.int64)
    if devices.count(devices[0]) != T:
        i = next(i for i, d in enumerate(devices) if d != devices[0])
        failures.append((i, 0, MixedDeviceError(
            f"record {i}: device {devices[i]!r} != {devices[0]!r}")))
    for i in np.flatnonzero(seq != np.arange(n))[:1].tolist():
        failures.append((i, 1, OrderError(f"record {i}: seq {seqs[i]}, expected {i}")))
    for i in (np.flatnonzero(ts[1:] < ts[:-1])[:1] + 1).tolist():
        failures.append((i, 2, OrderError(
            f"record {i}: timestamp {stamps[i]} < {stamps[i - 1]}")))
    if labels.count(None) + labels.count(INDOOR) + labels.count(OUTDOOR) != T:
        i = next(i for i, lab in enumerate(labels) if lab not in (None, INDOOR, OUTDOOR))
        failures.append((i, 3, FormatError(f"record {i}: bad label {labels[i]!r}")))
    bad, _, error = min(failures, key=itemgetter(0, 1))

    # the reading checks look at the readings before `stop`, which each failure lowers
    indptr = np.r_[0, np.cumsum(counts, dtype=np.int64)]
    stop = int(indptr[bad])
    bssids, rssi = (list(map(itemgetter(k), log.readings)) for k in (0, 1))
    rows = np.repeat(np.arange(T), counts)

    all_str = set(map(type, bssids)) <= {str}
    raws = set(bssids) if all_str else {b for b in bssids if isinstance(b, str)}
    canonical = {}
    for raw in raws:
        try:
            canonical[raw] = canonical_bssid(raw)
        except FormatError:
            pass
    aps = sorted(set(canonical.values()))
    id_of = {a: k for k, a in enumerate(aps)}
    raw_id = {raw: id_of[a] for raw, a in canonical.items()}
    if not (all_str and len(canonical) == len(raws)):
        for j, b in enumerate(bssids[:stop]):
            if not (isinstance(b, str) and b in raw_id):
                try:
                    canonical_bssid(b)
                except FormatError as e:
                    stop, error = j, e
                break
    ap_ids = np.fromiter(map(raw_id.__getitem__, bssids[:stop]), np.int64, stop)

    if not set(map(type, rssi)) <= {int}:
        for j, r in enumerate(rssi[:stop]):
            if not isinstance(r, int) or isinstance(r, bool):
                stop, error = j, FormatError(
                    f"record {rows[j]}: RSSI must be an integer, got {r!r}")
                break

    key = rows[:stop] * len(aps) + ap_ids[:stop]
    order = np.argsort(key, kind="stable")  # an AP's repeats follow its first reading
    again = order[1:][key[order[1:]] == key[order[:-1]]]
    if len(again):
        stop = int(again.min())
        error = DuplicateApError(f"record {rows[stop]}: duplicate AP {aps[ap_ids[stop]]}")

    power_of = {}
    for v in set(rssi[:stop]):
        try:
            power_of[v] = rssi_to_power(v)
        except OverflowError:
            power_of[v] = math.inf
    failing = {v for v, p in power_of.items() if p == 0.0 or p == math.inf}
    if failing:
        j = next(j for j, v in enumerate(rssi[:stop]) if v in failing)
        what = "underflows to power 0" if power_of[rssi[j]] == 0.0 else "overflows linear power"
        error = FormatError(f"record {rows[j]}: RSSI {rssi[j]} dBm {what}")

    if error is not None:
        raise error
    dbm = np.array(rssi, dtype=np.int64)  # every value is small now: its power is finite
    lo, hi = min(power_of, default=0), max(power_of, default=-1)
    table = np.zeros(hi - lo + 1)
    table[np.array(list(power_of), dtype=np.int64) - lo] = list(power_of.values())
    power = table[dbm - lo]
    return FingerprintMatrix(devices[0], aps, indptr, ap_ids, dbm, power,
                             _csr_ranks(indptr, power), labels, locations, stamps)


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


_READING = itemgetter("bssid", "rssi_dbm")
_TYPES = ("bad scan record field types: want a string device_id, a string "
          "or null location, and integer seq, timestamp_ms and rssi_dbm")


def _check_rssi_types(readings: List[tuple]) -> None:
    # JSON integers only, not floats (never truncated) and not bool (an int subclass)
    if not set(map(type, map(itemgetter(1), readings))) <= {int}:
        raise FormatError(_TYPES)


def write_scan_log(records: Sequence[ScanRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(record_to_json(rec))
            f.write("\n")


def read_scan_log(path) -> ScanLog:
    """Parse a scan log line by line into a ScanLog, checking its JSON
    structure and field types; `ingest` checks the rest. The error raised
    is that of the first bad line."""
    log = ScanLog()
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                _check_rssi_types(log.readings)  # an earlier line's type error comes first
                raise FormatError(f"bad scan record line: {e}") from e
            try:
                device_id, seq, timestamp_ms = obj["device_id"], obj["seq"], obj["timestamp_ms"]
                readings = list(map(_READING, obj["scan"]))
                label, location = obj.get("label"), obj.get("location")
            except (KeyError, TypeError) as e:
                _check_rssi_types(log.readings)
                raise FormatError(f"bad scan record fields: {e}") from e
            if not (type(device_id) is str and type(seq) is int and type(timestamp_ms) is int
                    and (location is None or type(location) is str)):
                raise FormatError(_TYPES)
            log.scans.append((device_id, seq, timestamp_ms, label, location, len(readings)))
            log.readings += readings
    _check_rssi_types(log.readings)
    return log
