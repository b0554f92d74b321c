"""Deterministic synthetic scan-stream generator with ground truth.

Worlds alternate building dwells with outdoor walks between buildings.
Indoor scans draw from the building's AP set (per-AP base level plus
per-scan jitter, random dropout); outdoor scans see few, weak APs from a
window sliding along the path, so consecutive scans overlap but the set
turns over quickly. The underground-parking profile reproduces the
documented hard case: at most two APs, all at -85 dBm or below, labeled
indoor throughout.

All distributional parameters are invented and documented here; none
reproduce a real field study. Identical spec + seed gives byte-identical
output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import parse_fields, parse_kv_file
from .errors import ConfigError
from .model import INDOOR, OUTDOOR, ScanRecord

PROFILE_NORMAL = "normal"
PROFILE_PARKING = "underground_parking"

# the largest world a spec may ask for: its scans, its building APs (all
# drawn up front) and the scans of one outdoor walk (whose street APs,
# about one per two scans, are drawn when the walk starts)
MAX_SCANS = 2**22
MAX_BUILDING_APS = 2**20
MAX_WALK_SCANS = 2**20


@dataclass(frozen=True)
class WorldSpec:
    seed: int = 0
    device_id: str = "synth0"
    profile: str = PROFILE_NORMAL
    duration_s: float = 4 * 3600.0
    scan_period_s: float = 3.0
    buildings: int = 6
    building_ap_min: int = 8
    building_ap_max: int = 25
    indoor_rssi_mean: float = -55.0
    indoor_rssi_sigma: float = 12.0
    outdoor_visible_min: int = 0
    outdoor_visible_max: int = 4
    outdoor_rssi_mean: float = -82.0
    outdoor_rssi_sigma: float = 8.0
    scan_noise_sigma: float = 3.0
    ap_dropout: float = 0.25
    outdoor_empty_prob: float = 0.3
    indoor_dwell_min_s: float = 240.0
    indoor_dwell_max_s: float = 600.0
    outdoor_dwell_min_s: float = 60.0
    outdoor_dwell_max_s: float = 180.0
    start_timestamp_ms: int = 1_600_000_000_000

    def validate(self) -> "WorldSpec":
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.profile not in (PROFILE_NORMAL, PROFILE_PARKING):
            raise ConfigError(f"unknown profile {self.profile!r}")
        if self.duration_s <= 0 or self.scan_period_s <= 0:
            raise ConfigError("durations must be positive")
        if self.buildings < 1 or self.building_ap_min < 1:
            raise ConfigError("need >= 1 building with >= 1 AP")
        if self.building_ap_max < self.building_ap_min:
            raise ConfigError("building AP range inverted")
        if self.outdoor_visible_min < 0 or self.outdoor_visible_max < self.outdoor_visible_min:
            raise ConfigError("outdoor visibility range inverted")
        if max(self.buildings, self.building_ap_max, self.outdoor_visible_max) >= 2**63:
            raise ConfigError("building, AP and visibility counts must be below 2**63")
        for sigma in (self.indoor_rssi_sigma, self.outdoor_rssi_sigma, self.scan_noise_sigma):
            if sigma <= 0:
                raise ConfigError("sigma values must be > 0")
        # readings are clamped to [-99, -20] dBm; a level or spread far past
        # that only risks a draw that overflows to inf
        for name in ("indoor_rssi_mean", "indoor_rssi_sigma", "outdoor_rssi_mean",
                     "outdoor_rssi_sigma", "scan_noise_sigma"):
            if abs(getattr(self, name)) > 1000:
                raise ConfigError(f"{name} must lie within 1000 dB of 0")
        for p in (self.ap_dropout, self.outdoor_empty_prob):
            if not 0.0 <= p <= 1.0:
                raise ConfigError("probabilities must be in [0, 1]")
        for lo, hi in (
            (self.indoor_dwell_min_s, self.indoor_dwell_max_s),
            (self.outdoor_dwell_min_s, self.outdoor_dwell_max_s),
        ):
            if lo < 0 or hi < lo:
                raise ConfigError("dwell ranges must satisfy 0 <= min <= max")
        if self.indoor_dwell_max_s == 0 and self.outdoor_dwell_max_s == 0:
            raise ConfigError("at least one phase needs a positive dwell time")
        # `generate`'s arithmetic: int(duration / period) scans, scan i
        # stamped start + int(i * period * 1000), so the last one bounds them
        n_scans = self.duration_s / self.scan_period_s
        if not n_scans >= 1:
            raise ConfigError(f"duration_s {self.duration_s} holds no scan of period "
                              f"{self.scan_period_s} s")
        for size, cap, what in (
            (n_scans, MAX_SCANS, "scans (duration_s / scan_period_s)"),
            (self.buildings * self.building_ap_max, MAX_BUILDING_APS,
             "building APs (buildings * building_ap_max)"),
            (self.outdoor_dwell_max_s / self.scan_period_s, MAX_WALK_SCANS,
             "scans per outdoor walk (outdoor_dwell_max_s / scan_period_s)"),
        ):
            if size > cap:
                raise ConfigError(f"a world holds at most {cap} {what}, got {size:g}")
        last_ms = (int(n_scans) - 1) * self.scan_period_s * 1000
        if not (-2**63 <= self.start_timestamp_ms and last_ms < 2**64
                and self.start_timestamp_ms + int(last_ms) < 2**63):
            raise ConfigError("every scan's seq and timestamp_ms (start_timestamp_ms plus "
                              "its offset) must lie within int64")
        return self


def worldspec_from_file(path) -> WorldSpec:
    return replace(WorldSpec(), **parse_fields(WorldSpec, parse_kv_file(path))).validate()


class _MacPool:
    """Unique locally-administered MAC addresses, sequentially assigned."""

    def __init__(self):
        self.counter = 0

    def next(self) -> str:
        b = self.counter
        self.counter += 1
        return "02:%02x:%02x:%02x:%02x:%02x" % (
            (b >> 32) & 0xFF, (b >> 24) & 0xFF, (b >> 16) & 0xFF,
            (b >> 8) & 0xFF, b & 0xFF,
        )


def _clamp_rssi(value: float, lo: int = -99, hi: int = -20) -> int:
    return int(min(hi, max(lo, round(value))))


def generate(spec: WorldSpec) -> List[ScanRecord]:
    """Produce the fully labeled, fully located scan stream for a world."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    macs = _MacPool()

    if spec.profile == PROFILE_PARKING:
        return _generate_parking(spec, rng, macs)

    # buildings: AP set with a stable per-AP base level
    building_aps: List[Dict[str, float]] = []
    for _ in range(spec.buildings):
        count = int(rng.integers(spec.building_ap_min, spec.building_ap_max + 1))
        building_aps.append({
            macs.next(): float(rng.normal(spec.indoor_rssi_mean, spec.indoor_rssi_sigma))
            for _ in range(count)
        })
    # street APs materialize lazily per path and persist across revisits
    paths: Dict[Tuple[int, int], List[Tuple[str, float]]] = {}

    def path_aps(key: Tuple[int, int], length: int) -> List[Tuple[str, float]]:
        aps = paths.setdefault(key, [])
        while len(aps) < length:
            aps.append((
                macs.next(),
                float(rng.normal(spec.outdoor_rssi_mean, spec.outdoor_rssi_sigma)),
            ))
        return aps

    records: List[ScanRecord] = []
    n_scans = int(spec.duration_s / spec.scan_period_s)
    indoors_enabled = spec.indoor_dwell_max_s > 0
    outdoors_enabled = spec.outdoor_dwell_max_s > 0

    building = int(rng.integers(spec.buildings))
    phase_indoor: Optional[bool] = None  # no phase started yet
    phase_scans_left = 0
    path_key: Tuple[int, int] = (0, 0)
    path_pos = 0.0
    path_step = 0.0

    def dwell_scans(indoor: bool) -> int:
        lo = spec.indoor_dwell_min_s if indoor else spec.outdoor_dwell_min_s
        hi = spec.indoor_dwell_max_s if indoor else spec.outdoor_dwell_max_s
        return max(1, int(float(rng.uniform(lo, hi)) / spec.scan_period_s))

    for i in range(n_scans):
        if phase_scans_left <= 0:
            if phase_indoor is None:
                next_indoor = indoors_enabled
            elif phase_indoor:
                next_indoor = not outdoors_enabled
            else:
                next_indoor = indoors_enabled
            phase_indoor = next_indoor
            phase_scans_left = dwell_scans(next_indoor)
            if next_indoor:
                if not outdoors_enabled and spec.buildings > 1:
                    building = int(rng.integers(spec.buildings))
            else:
                # walk toward a (possibly new) building
                dest = building
                if spec.buildings > 1:
                    while dest == building:
                        dest = int(rng.integers(spec.buildings))
                path_key = (min(building, dest), max(building, dest))
                # one street AP per ~2 scans of walking, 3 visible at a time
                path_len = max(3, phase_scans_left // 2 + 3)
                path_aps(path_key, path_len)
                path_pos = 0.0
                path_step = max(0.0, (path_len - 3) / max(1, phase_scans_left - 1))
                building = dest

        readings: List[Tuple[str, int]] = []
        if phase_indoor:
            label = INDOOR
            location = f"building_{building}"
            for ap, base in building_aps[building].items():
                if rng.random() >= spec.ap_dropout:
                    readings.append(
                        (ap, _clamp_rssi(base + rng.normal(0.0, spec.scan_noise_sigma)))
                    )
        else:
            label = OUTDOOR
            location = f"path_{path_key[0]}_{path_key[1]}"
            if rng.random() >= spec.outdoor_empty_prob:
                window = paths[path_key][int(path_pos): int(path_pos) + 3]
                count = int(rng.integers(spec.outdoor_visible_min,
                                         spec.outdoor_visible_max + 1))
                count = min(count, len(window))
                if count > 0:
                    chosen = rng.choice(len(window), size=count, replace=False)
                    for ci in sorted(int(c) for c in chosen):
                        ap, base = window[ci]
                        readings.append(
                            (ap, _clamp_rssi(base + rng.normal(0.0, spec.scan_noise_sigma)))
                        )
            path_pos += path_step

        records.append(ScanRecord(
            device_id=spec.device_id,
            seq=i,
            timestamp_ms=spec.start_timestamp_ms + int(i * spec.scan_period_s * 1000),
            readings=readings,
            label=label,
            location=location,
        ))
        phase_scans_left -= 1
    return records


def _generate_parking(spec: WorldSpec, rng, macs: _MacPool) -> List[ScanRecord]:
    # a handful of weak APs; every scan sees at most two of them
    pool = [(macs.next(), float(rng.normal(-92.0, 3.0))) for _ in range(3)]
    n_scans = int(spec.duration_s / spec.scan_period_s)
    records: List[ScanRecord] = []
    for i in range(n_scans):
        readings: List[Tuple[str, int]] = []
        count = int(rng.integers(0, 3))
        if count > 0:
            chosen = rng.choice(len(pool), size=count, replace=False)
            for ci in sorted(int(c) for c in chosen):
                ap, base = pool[ci]
                rssi = _clamp_rssi(base + rng.normal(0.0, spec.scan_noise_sigma), hi=-85)
                readings.append((ap, rssi))
        records.append(ScanRecord(
            device_id=spec.device_id,
            seq=i,
            timestamp_ms=spec.start_timestamp_ms + int(i * spec.scan_period_s * 1000),
            readings=readings,
            label=INDOOR,
            location="underground_parking",
        ))
    return records
