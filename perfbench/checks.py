"""Output checks that do not trust the library.

Ground truth comes from the generator's scan logs, parsed here with the
json module. AUC is recomputed with scipy's Mann-Whitney U, and the rank
distance with scipy's ``rankdata`` over the AP union, not with
``wifi_inout.distance``. Every check returns a list of failure messages;
an empty list means it passed.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy.stats import mannwhitneyu, rankdata

INDOOR, OUTDOOR = "indoor", "outdoor"
GRAPH_AUC_FLOOR = 0.85  # the c07 acceptance criterion


@dataclass
class Truth:
    labels: List[Optional[str]]
    timestamps_ms: List[int]
    readings: List[Dict[str, int]]  # per scan: BSSID -> RSSI dBm

    @property
    def T(self) -> int:
        return len(self.labels)


def read_truth(path) -> Truth:
    labels, timestamps, readings = [], [], []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            obj = json.loads(line)
            labels.append(obj["label"])
            timestamps.append(obj["timestamp_ms"])
            readings.append({r["bssid"].lower(): r["rssi_dbm"] for r in obj["scan"]})
    return Truth(labels, timestamps, readings)


def _labeled(labels: Sequence[Optional[str]]) -> np.ndarray:
    return np.array([i for i, lab in enumerate(labels) if lab in (INDOOR, OUTDOOR)],
                    dtype=np.int64)


def check_scores(fp_scores, node_scores, cluster_of, T: int) -> List[str]:
    """Scores are finite probabilities, one per fingerprint, and every
    fingerprint of a cluster carries its node's score."""
    errors = []
    fp_scores, node_scores = np.asarray(fp_scores), np.asarray(node_scores)
    if len(fp_scores) != T or len(cluster_of) != T:
        return [f"{len(fp_scores)} scores / {len(cluster_of)} assignments for {T} fingerprints"]
    for what, s in (("fingerprint", fp_scores), ("node", node_scores)):
        bad = ~(np.isfinite(s) & (s >= 0.0) & (s <= 1.0))
        if bad.any():
            errors.append(f"{int(bad.sum())} {what} scores outside [0, 1] or not finite")
    cluster_of = np.asarray(cluster_of)
    if cluster_of.min() < 0 or cluster_of.max() >= len(node_scores):
        return errors + ["cluster id out of range of the node scores"]
    off = fp_scores != node_scores[cluster_of]
    if off.any():
        errors.append(f"{int(off.sum())} fingerprints do not carry their node's score")
    return errors


def recomputed_auc(fp_scores, labels) -> float:
    idx = _labeled(labels)
    s = np.asarray(fp_scores)[idx]
    pos = np.array([labels[i] == INDOOR for i in idx])
    u = mannwhitneyu(s[pos], s[~pos], alternative="two-sided", method="asymptotic").statistic
    return float(u) / (int(pos.sum()) * int((~pos).sum()))


def check_auc(fp_scores, labels, reported: Optional[float]) -> List[str]:
    if reported is None:
        return ["the library reported no AUC"]
    mine = recomputed_auc(fp_scores, labels)
    if not abs(mine - reported) <= 1e-12:
        return [f"AUC {reported!r} != Mann-Whitney {mine!r}"]
    return []


def recomputed_accuracy(fp_scores, labels, threshold: float):
    """(correct, evaluated) with indoor predicted at score >= threshold."""
    idx = _labeled(labels)
    pred_in = np.asarray(fp_scores)[idx] >= threshold
    truth_in = np.array([labels[i] == INDOOR for i in idx])
    return int((pred_in == truth_in).sum()), len(idx)


def check_accuracy(fp_scores, labels, threshold: float, reported: float,
                   reported_n: int) -> List[str]:
    correct, n = recomputed_accuracy(fp_scores, labels, threshold)
    errors = []
    if reported_n != n:
        errors.append(f"{reported_n} fingerprints evaluated, {n} are labeled")
    if reported != correct / n:
        errors.append(f"accuracy {reported!r} != recomputed {correct / n!r}")
    return errors


def check_graph_auc(reported: Optional[float]) -> List[str]:
    if reported is None or not reported >= GRAPH_AUC_FLOOR:
        return [f"graph-variant AUC {reported} below {GRAPH_AUC_FLOOR}"]
    return []


def rank_distance(a: Dict[str, int], b: Dict[str, int], i: int, j: int) -> float:
    """Sparse Spearman distance of scans i and j: 1 - rho over the AP
    union, where an AP a scan lacks ranks below all it has."""
    if not a and not b:
        return 0.0 if abs(i - j) <= 1 else 2.0
    union = sorted(a.keys() | b.keys())
    n = len(union)
    if n == len(a) + len(b):
        return 2.0  # disjoint, which includes one empty scan
    if n == 1:
        return 0.0
    # rank 1 = strongest; an absent AP is weaker than any reading
    ra = rankdata([-a.get(ap, -np.inf) for ap in union])
    rb = rankdata([-b.get(ap, -np.inf) for ap in union])
    s = float(((ra - rb) ** 2).sum())
    return 6.0 * s / (n * (n * n - 1))


def check_closure(cluster_of, truth: Truth, queries: Sequence[int], eps: float) -> List[str]:
    """Every fingerprint within eps of a query sits in the query's
    cluster. Scans that share no AP are at distance 2 (or, both empty,
    at 0 only when adjacent), so only AP-sharing scans and adjacent
    empty ones are compared."""
    by_ap: Dict[str, List[int]] = {}
    for i, r in enumerate(truth.readings):
        for ap in r:
            by_ap.setdefault(ap, []).append(i)
    errors = []
    for q in queries:
        rq = truth.readings[q]
        if rq:
            cand = set()
            for ap in rq:
                cand.update(by_ap[ap])
        else:
            cand = {j for j in (q - 1, q + 1) if 0 <= j < truth.T}
        for j in sorted(cand):
            if (cluster_of[j] != cluster_of[q]
                    and rank_distance(rq, truth.readings[j], q, j) <= eps):
                errors.append(f"fingerprints {q} and {j} are within eps "
                              f"but in clusters {cluster_of[q]} and {cluster_of[j]}")
    return errors


def check_singletons(cluster_of) -> List[str]:
    """The raw-fingerprint variant gives every scan its own node."""
    if not np.array_equal(np.asarray(cluster_of), np.arange(len(cluster_of))):
        return ["fingerprints variant did not keep one node per fingerprint"]
    return []


def check_warmup(entries, truth: Truth, minutes: int) -> List[str]:
    """One entry per minute, each over exactly the labeled fingerprints
    of its minute prefix."""
    errors = []
    if [e.minute for e in entries] != list(range(1, minutes + 1)):
        errors.append(f"warm-up minutes {[e.minute for e in entries]}, want 1..{minutes}")
    t0 = truth.timestamps_ms[0]
    labeled_before = np.concatenate(
        [[0], np.cumsum([lab in (INDOOR, OUTDOOR) for lab in truth.labels])])
    for e in entries:
        n = bisect_left(truth.timestamps_ms, t0 + e.minute * 60000)
        if e.n_evaluated != labeled_before[n]:
            errors.append(f"minute {e.minute}: {e.n_evaluated} evaluated, "
                          f"{labeled_before[n]} labeled in the prefix")
        if not 0.0 <= e.accuracy <= 1.0:
            errors.append(f"minute {e.minute}: accuracy {e.accuracy} outside [0, 1]")
    return errors


def check_last_minute(entries, fp_scores, labels, threshold: float) -> List[str]:
    """A stream that ends within the last warm-up minute is scored whole
    at that minute, so its accuracy is that of the whole stream's scores."""
    correct, n = recomputed_accuracy(fp_scores, labels, threshold)
    if not entries or entries[-1].accuracy != correct / n:
        last = entries[-1].accuracy if entries else None
        return [f"last warm-up minute accuracy {last!r} != whole-stream {correct / n!r}"]
    return []
