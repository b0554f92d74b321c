"""Evaluation: AUC, accuracy/confusion, switch latency, location-based
cross-validation, and per-minute warm-up reports.

Indoor is the positive class throughout. Metrics are computed per
fingerprint (node scores are broadcast first), and only fingerprints
carrying a ground-truth label count; `evaluate` and the warm-up count
them with one helper, `_confusion`. Fingerprints between a ground-truth
switch and its detection still count as errors.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConfigError,
    DegenerateLabelsError,
    EmptyPrefixError,
    NoLabelsError,
    NoTransitionsError,
    SingleLocationError,
)
from .learner import Model, Prediction, label_nodes, predict
from .model import INDOOR, OUTDOOR, FingerprintMatrix

MISSED_LATENCY_S = 500.0  # a switch detected later than this counts as missed


def _is_positive(label) -> bool:
    return label == INDOOR or label is True or label == 1


def auc(pairs: Sequence[Tuple[float, object]]) -> float:
    """Probability a random indoor instance outscores a random outdoor
    one, ties counted 1/2 (Mann-Whitney on average ranks)."""
    scores = np.array([float(s) for s, _ in pairs])
    y = np.array([_is_positive(lab) for _, lab in pairs], dtype=bool)
    return _auc(scores, y)


def _auc(scores: np.ndarray, y: np.ndarray) -> float:
    n1 = int(y.sum())
    n0 = len(y) - n1
    if n1 == 0 or n0 == 0:
        raise DegenerateLabelsError("AUC needs both classes present")
    order = np.argsort(scores, kind="mergesort")
    _, inv, counts = np.unique(scores[order], return_inverse=True, return_counts=True)
    cum = np.cumsum(counts)
    avg = (cum - counts + 1 + cum) / 2.0
    ranks = np.empty(len(scores))
    ranks[order] = avg[inv]
    return float((ranks[y].sum() - n1 * (n1 + 1) / 2.0) / (n1 * n0))


@dataclass
class EvalReport:
    accuracy: float
    auc: Optional[float]
    indoor_prior: float
    tp: int
    fp: int
    tn: int
    fn: int
    n_evaluated: int


def _truth_codes(labels: Sequence[Optional[str]]) -> np.ndarray:
    """Per fingerprint, 1 if labelled indoor, 0 if outdoor, -1 if unlabelled."""
    labels = np.asarray(labels, dtype=object)
    return np.where(labels == INDOOR, 1, np.where(labels == OUTDOOR, 0, -1))


def _confusion(
    truth: np.ndarray, pred_in: np.ndarray, group: np.ndarray, n_groups: int
) -> List[Tuple[int, int, int, int]]:
    """Per group, (tp, fn, fp, tn) over the labelled fingerprints, from
    `_truth_codes`, the predicted-indoor mask and each fingerprint's group."""
    labelled = truth >= 0
    code = 4 * group[labelled] + 2 * (truth[labelled] == 0) + ~pred_in[labelled]
    counts = np.bincount(code, minlength=4 * n_groups).reshape(n_groups, 4)
    return [tuple(c) for c in counts.tolist()]


def evaluate(pred: Prediction, labels: Sequence[Optional[str]]) -> EvalReport:
    """Metrics over labeled fingerprints; AUC omitted when only one class
    is present."""
    truth = _truth_codes(labels)
    pred_in = np.asarray(pred.fp_labels, dtype=object) == INDOOR
    ((tp, fn, fp, tn),) = _confusion(truth, pred_in, np.zeros(len(truth), np.int64), 1)
    n = tp + fn + fp + tn
    if not n:
        raise NoLabelsError("no labeled fingerprints to evaluate")
    labelled = truth >= 0
    try:
        auc_value: Optional[float] = _auc(
            np.asarray(pred.fp_scores, dtype=np.float64)[labelled],
            truth[labelled] == 1)
    except DegenerateLabelsError:
        auc_value = None
    return EvalReport(
        accuracy=(tp + tn) / n,
        auc=auc_value,
        indoor_prior=(tp + fn) / n,
        tp=tp, fp=fp, tn=tn, fn=fn,
        n_evaluated=n,
    )


TO_INDOOR = "to-indoor"
TO_OUTDOOR = "to-outdoor"


@dataclass
class SwitchRecord:
    index: int            # fingerprint index where the ground truth changed
    direction: str        # "to-indoor" | "to-outdoor"
    latency_s: Optional[float]
    missed: bool


@dataclass
class SwitchLatencyReport:
    switches: List[SwitchRecord]
    mean_latency_s: Dict[str, Optional[float]] = field(default_factory=dict)
    missed_fraction: float = 0.0


def switch_latency(
    pred: Prediction,
    labels: Sequence[Optional[str]],
    timestamps_ms: Sequence[int],
) -> SwitchLatencyReport:
    """Latency of each ground-truth indoor/outdoor switch.

    A switch happens at the first labeled fingerprint carrying the new
    label; its latency is the time until the first fingerprint (that one
    included) whose hard prediction matches. Beyond 500 s, or if the
    stream ends first, the switch counts as missed.
    """
    labeled = [i for i, lab in enumerate(labels) if lab in (INDOOR, OUTDOOR)]
    switches: List[SwitchRecord] = []
    for a, b in zip(labeled, labeled[1:]):
        if labels[a] == labels[b]:
            continue
        new = labels[b]
        t0 = timestamps_ms[b]
        latency = None
        for i in range(b, len(labels)):
            if pred.fp_labels[i] == new:
                latency = (timestamps_ms[i] - t0) / 1000.0
                break
        missed = latency is None or latency > MISSED_LATENCY_S
        switches.append(
            SwitchRecord(
                index=b,
                direction=TO_INDOOR if new == INDOOR else TO_OUTDOOR,
                latency_s=latency,
                missed=missed,
            )
        )
    if not switches:
        raise NoTransitionsError("label stream contains no transitions")

    means: Dict[str, Optional[float]] = {}
    for direction in (TO_INDOOR, TO_OUTDOOR):
        vals = [s.latency_s for s in switches
                if s.direction == direction and not s.missed]
        means[direction] = sum(vals) / len(vals) if vals else None
    missed_fraction = sum(1 for s in switches if s.missed) / len(switches)
    return SwitchLatencyReport(switches, means, missed_fraction)


@dataclass
class XvalReport:
    per_location: Dict[str, EvalReport]
    mean_auc: Optional[float]
    # all held-out predictions pooled into one report; single-class
    # locations leave per-fold AUC undefined, the pooled one is not
    pooled: Optional[EvalReport] = None
    # folds whose removal left a single training class, with the reason
    skipped: Dict[str, str] = field(default_factory=dict)


def location_cross_validation(m: FingerprintMatrix, config) -> XvalReport:
    """Leave-one-location-out validation on a single device's stream.

    The clustering, graph, and features span the full stream; the
    held-out location only withholds its labels from node voting and
    model training, then gets scored and evaluated.
    """
    from .pipeline import build_stages, train_model  # imported here to avoid a cycle

    locations = sorted({loc for loc in m.locations if loc})
    if len(locations) < 2:
        raise SingleLocationError(
            f"cross-validation needs >= 2 locations, found {len(locations)}"
        )
    stages = build_stages(m, config)
    per_location: Dict[str, EvalReport] = {}
    aucs = []
    pooled_scores: List[float] = []
    pooled_hard: List[str] = []
    pooled_truth: List[Optional[str]] = []
    skipped: Dict[str, str] = {}
    for loc in locations:
        train_labels = [
            lab if m.locations[i] != loc else None
            for i, lab in enumerate(m.labels)
        ]
        labeled, _ = label_nodes(stages.assignment, train_labels, config.tie_rule)
        try:
            model = train_model(stages.features, labeled, config)
        except DegenerateLabelsError as e:
            skipped[loc] = str(e)  # this fold held the only examples of a class
            continue
        pred = predict(model, stages.features, stages.assignment, config.threshold)
        held_labels = [
            lab if m.locations[i] == loc else None
            for i, lab in enumerate(m.labels)
        ]
        report = evaluate(pred, held_labels)
        per_location[loc] = report
        if report.auc is not None:
            aucs.append(report.auc)
        for i, lab in enumerate(held_labels):
            if lab in (INDOOR, OUTDOOR):
                pooled_scores.append(float(pred.fp_scores[i]))
                pooled_hard.append(pred.fp_labels[i])
                pooled_truth.append(lab)
    if not per_location:
        raise DegenerateLabelsError(
            "every fold left a single class in training; streams too short"
        )
    mean_auc = sum(aucs) / len(aucs) if aucs else None
    pooled_pred = Prediction(
        node_scores=np.asarray(pooled_scores),
        node_labels=pooled_hard,
        fp_scores=np.asarray(pooled_scores),
        fp_labels=pooled_hard,
    )
    pooled = evaluate(pooled_pred, pooled_truth) if pooled_truth else None
    return XvalReport(per_location, mean_auc, pooled, skipped)


@dataclass
class WarmupEntry:
    minute: int
    accuracy: float
    n_evaluated: int


@dataclass
class WarmupReport:
    entries: List[WarmupEntry]


def warmup_eval(
    model: Model,
    m: FingerprintMatrix,
    minutes: int,
    config,
) -> WarmupReport:
    """Accuracy per elapsed minute on a fresh scenario: a fixed pre-trained
    model scores the clusters, graph and features of each minute prefix,
    as `pipeline.score` would on that prefix alone. At min_pts = 1 every
    prefix's clusters come from one clustering pass over the scenario.
    The prefixes come in stacked chunks (`pipeline.prefix_stages`): one
    `predict` scores a chunk, and one `bincount` (`_confusion`) over
    each stacked scan's prefix counts every minute's labelled and
    correct fingerprints.

    Minute boundaries start at the first fingerprint's timestamp; the
    report truncates at the last minute that actually contains data.
    """
    from .pipeline import prefix_stages  # imported here to avoid a cycle

    if minutes < 1:
        raise ConfigError(f"minutes must be >= 1, got {minutes}")
    if m.T == 0:
        raise EmptyPrefixError("scenario contains no fingerprints")
    t0 = m.timestamps_ms[0]
    last_minute = (m.timestamps_ms[-1] - t0) // 60000 + 1
    # each prefix holds at least the first fingerprint, at t0
    ends = [bisect_left(m.timestamps_ms, t0 + minute * 60000)
            for minute in range(1, min(minutes, last_minute) + 1)]
    entries: List[WarmupEntry] = []
    for chunk in prefix_stages(m, config, ends):
        stages = chunk.stages
        pred = predict(model, stages.features, stages.assignment, config.threshold)
        truth = _truth_codes(m.labels[:chunk.ends[-1]])[chunk.scan]
        group = np.repeat(np.arange(len(chunk.ends)), chunk.ends)
        counts = _confusion(truth, pred.fp_scores >= config.threshold, group, len(chunk.ends))
        for tp, fn, fp, tn in counts:
            n = tp + fn + fp + tn
            if not n:
                raise NoLabelsError("no labeled fingerprints to evaluate")
            entries.append(WarmupEntry(len(entries) + 1, (tp + tn) / n, n))
    return WarmupReport(entries)
