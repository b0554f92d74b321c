"""Evaluation: AUC, accuracy/confusion, switch latency, location-based
cross-validation, and per-minute warm-up reports.

Indoor is the positive class throughout. Metrics are computed per
fingerprint (node scores are broadcast first), and only fingerprints
carrying a ground-truth label count. Labels, true and predicted, are
read as `label_codes` codes (1 indoor, 0 outdoor, -1 none); `evaluate`,
the pooled cross-validation report and the warm-up count them with one
helper, `_confusion`. Fingerprints between a ground-truth switch and its
detection still count as errors.
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
from .model import INDOOR, FingerprintMatrix, label_codes

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


def _confusion(
    truth: np.ndarray, pred_in: np.ndarray, group: np.ndarray, n_groups: int
) -> List[Tuple[int, int, int, int]]:
    """Per group, (tp, fn, fp, tn) over the labelled fingerprints, from
    their label codes, the predicted-indoor mask and each fingerprint's
    group."""
    labelled = truth >= 0
    code = 4 * group[labelled] + 2 * (truth[labelled] == 0) + ~pred_in[labelled]
    counts = np.bincount(code, minlength=4 * n_groups).reshape(n_groups, 4)
    return [tuple(c) for c in counts.tolist()]


def evaluate(pred: Prediction, labels: Sequence[Optional[str]]) -> EvalReport:
    """Metrics over labeled fingerprints; AUC omitted when only one class
    is present."""
    return _report(label_codes(labels), pred.fp_scores, label_codes(pred.fp_labels) == 1)


def _report(truth: np.ndarray, scores: np.ndarray, pred_in: np.ndarray) -> EvalReport:
    """`evaluate`'s metrics from per-fingerprint label codes, scores and
    predicted-indoor mask."""
    ((tp, fn, fp, tn),) = _confusion(truth, pred_in, np.zeros(len(truth), np.int64), 1)
    n = tp + fn + fp + tn
    if not n:
        raise NoLabelsError("no labeled fingerprints to evaluate")
    labelled = truth >= 0
    try:
        auc_value: Optional[float] = _auc(
            np.asarray(scores, dtype=np.float64)[labelled], truth[labelled] == 1)
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
    stream ends first, the switch counts as missed. Latencies subtract
    the given stamps themselves, so Python ints never overflow.
    """
    truth = label_codes(labels)
    labeled = np.flatnonzero(truth >= 0)
    switch_at = labeled[1:][truth[labeled[1:]] != truth[labeled[:-1]]]
    if not len(switch_at):
        raise NoTransitionsError("label stream contains no transitions")
    # per class, the first fingerprint at or after each one predicted in it
    # (T if none is)
    T = len(truth)
    hard = label_codes(pred.fp_labels)
    first = [np.minimum.accumulate(np.where(hard == c, np.arange(T), T)[::-1])[::-1]
             for c in (0, 1)]
    switches: List[SwitchRecord] = []
    for b in switch_at.tolist():
        new = int(truth[b])
        i = int(first[new][b])
        latency = (timestamps_ms[i] - timestamps_ms[b]) / 1000.0 if i < T else None
        switches.append(
            SwitchRecord(
                index=b,
                direction=TO_INDOOR if new == 1 else TO_OUTDOOR,
                latency_s=latency,
                missed=latency is None or latency > MISSED_LATENCY_S,
            )
        )

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
    pooled: EvalReport
    # folds whose removal left a single training class, with the reason
    skipped: Dict[str, str] = field(default_factory=dict)


def location_cross_validation(m: FingerprintMatrix, config) -> XvalReport:
    """Leave-one-location-out validation on a single device's stream.

    The clustering, graph, and features span the full stream; the
    held-out location only withholds its labels from node voting and
    model training, then gets scored and evaluated. The pooled report
    scores each held-out fingerprint with its own fold's model.
    """
    from .pipeline import build_stages, train_model  # imported here to avoid a cycle

    locations = sorted({loc for loc in m.locations if loc})
    if len(locations) < 2:
        raise SingleLocationError(
            f"cross-validation needs >= 2 locations, found {len(locations)}"
        )
    stages = build_stages(m, config)
    sizes = stages.assignment.sizes()
    labels = np.asarray(m.labels, dtype=object)
    codes = label_codes(labels)
    at = np.asarray(m.locations, dtype=object)
    per_location: Dict[str, EvalReport] = {}
    aucs = []
    skipped: Dict[str, str] = {}
    pooled_truth = np.full(m.T, -1, np.int8)  # held-out labels of the folds run
    pooled_scores = np.zeros(m.T)
    for loc in locations:
        held = at == loc
        node_labels = label_nodes(stages.assignment, np.where(held, None, labels))
        try:
            model = train_model(stages.features, node_labels, sizes, config)
        except DegenerateLabelsError as e:
            skipped[loc] = str(e)  # this fold held the only examples of a class
            continue
        pred = predict(model, stages.features, stages.assignment, config.threshold)
        report = evaluate(pred, np.where(held, labels, None))
        per_location[loc] = report
        if report.auc is not None:
            aucs.append(report.auc)
        pooled_truth[held] = codes[held]
        pooled_scores[held] = pred.fp_scores[held]
    if not per_location:
        raise DegenerateLabelsError(
            "every fold left a single class in training; streams too short"
        )
    mean_auc = sum(aucs) / len(aucs) if aucs else None
    pooled = _report(pooled_truth, pooled_scores, pooled_scores >= config.threshold)
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
    truth = label_codes(m.labels)
    for chunk in prefix_stages(m, config, ends):
        stages = chunk.stages
        pred = predict(model, stages.features, stages.assignment, config.threshold)
        group = np.repeat(np.arange(len(chunk.ends)), chunk.ends)
        counts = _confusion(truth[chunk.scan], pred.fp_scores >= config.threshold, group,
                            len(chunk.ends))
        for tp, fn, fp, tn in counts:
            n = tp + fn + fp + tn
            if not n:
                raise NoLabelsError("no labeled fingerprints to evaluate")
            entries.append(WarmupEntry(len(entries) + 1, (tp + tn) / n, n))
    return WarmupReport(entries)
