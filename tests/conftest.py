import os

import numpy as np
import pytest
from hypothesis import settings

from wifi_inout.model import Fingerprint, ScanRecord, ingest, rssi_to_power

# CI draws the same examples on every run and prints a failing example's
# blob, so a failure there can be replayed with @reproduce_failure
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


def fp(seq, dbm_readings):
    """Fingerprint from {ap: rssi_dbm}; powers derived like ingest does."""
    return Fingerprint(
        seq=seq,
        powers={a: rssi_to_power(r) for a, r in dbm_readings.items()},
        rssi_dbm=dict(dbm_readings),
    )


def raw_fp(seq, powers):
    """Fingerprint from raw linear powers (for scale-invariance tests)."""
    return Fingerprint(seq=seq, powers=dict(powers))


def make_records(readings_per_scan, labels=None, locations=None,
                 device_id="dev0", period_ms=3000):
    labels = labels or [None] * len(readings_per_scan)
    locations = locations or [None] * len(readings_per_scan)
    return [
        ScanRecord(
            device_id=device_id,
            seq=i,
            timestamp_ms=1_600_000_000_000 + i * period_ms,
            readings=list(r.items()),
            label=labels[i],
            location=locations[i],
        )
        for i, r in enumerate(readings_per_scan)
    ]


def make_matrix(readings_per_scan, labels=None, locations=None, **kw):
    return ingest(make_records(readings_per_scan, labels, locations, **kw))


def mac(n):
    return "02:00:00:00:%02x:%02x" % ((n >> 8) & 0xFF, n & 0xFF)


def random_scan_matrix(rng, T, ap_pool=40, max_aps=8, empty_prob=0.08,
                       rssi_lo=-95, rssi_hi=-30):
    """Random sparse stream with occasional empty scans, built via ingest."""
    scans = []
    for _ in range(T):
        if rng.random() < empty_prob:
            scans.append({})
            continue
        k = int(rng.integers(1, max_aps + 1))
        aps = rng.choice(ap_pool, size=min(k, ap_pool), replace=False)
        scans.append({
            mac(int(a)): int(rng.integers(rssi_lo, rssi_hi + 1)) for a in aps
        })
    return make_matrix(scans)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
