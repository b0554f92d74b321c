"""End-to-end composition: ingest -> cluster -> graph -> features ->
train/predict -> evaluate.

Three variants mirror the reference comparison: "graph" uses the full
neighborhood feature set, "clusters" restricts to hop-0 features on the
real clustering, and "fingerprints" treats every scan as its own
cluster (the raw-fingerprint baseline).

The stagewise CLI, cross-validation and warm-up evaluation call
`partition`, `graph`, `stages` and `train_model` too, so every path maps
a config onto the same stage calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from .clustering import (
    ClusterAssignment,
    ClusterParams,
    cluster,
    prefix_partitions,
    singleton_assignment,
)
from .config import PipelineConfig
from .evaluation import EvalReport, evaluate
from .features import FeatureTable, extract_features
from .fpindex import build_index
from .graph import TransitionGraph, build_graph
from .learner import LabeledNode, Model, Prediction, label_nodes, predict, train
from .model import FingerprintMatrix


@dataclass
class Stages:
    assignment: ClusterAssignment
    graph: TransitionGraph
    features: FeatureTable


def partition(m: FingerprintMatrix, config: PipelineConfig) -> ClusterAssignment:
    """The variant's clusters: one per fingerprint for "fingerprints",
    otherwise DBSCAN at the configured eps and min_pts."""
    if config.variant == "fingerprints":
        return singleton_assignment(m)
    return cluster(m, ClusterParams(config.eps, config.min_pts), build_index(m))


def train_model(
    features: FeatureTable, labeled: List[LabeledNode], config: PipelineConfig
) -> Model:
    """Train the configured learner with its hyperparameters and seed."""
    return train(features, labeled, kind=config.learner_kind(), seed=config.seed,
                 hyperparameters=config.hyperparameters())


def graph(
    assignment: ClusterAssignment, m: FingerprintMatrix, config: PipelineConfig
) -> TransitionGraph:
    return build_graph(assignment, m, config.max_gap_ms)


def stages(
    assignment: ClusterAssignment, m: FingerprintMatrix, config: PipelineConfig
) -> Stages:
    """The graph and feature table of a partition of m."""
    g = graph(assignment, m, config)
    feats = extract_features(g, m, config.feature_ranges())
    return Stages(assignment=assignment, graph=g, features=feats)


def build_stages(m: FingerprintMatrix, config: PipelineConfig) -> Stages:
    return stages(partition(m, config), m, config)


def prefix_stages(
    m: FingerprintMatrix, config: PipelineConfig, ends: Sequence[int]
) -> Iterator[Tuple[int, Stages]]:
    """Yield (n, stages of m.prefix(n)) for each n in the non-decreasing
    `ends`, equal to `build_stages(m.prefix(n), config)`.

    Clustered variants at min_pts = 1 take every prefix's partition from
    one pass over m; singletons, and min_pts > 1, whose border points
    depend on the expansion order, partition each prefix afresh.
    """
    if config.variant != "fingerprints" and config.min_pts == 1:
        params = ClusterParams(config.eps, config.min_pts)
        parts = prefix_partitions(m, params, build_index(m), ends)
    else:
        parts = ((n, partition(m.prefix(n), config)) for n in ends)
    for n, assignment in parts:
        yield n, stages(assignment, m.prefix(n), config)


def fit(m: FingerprintMatrix, config: PipelineConfig) -> Tuple[Model, Stages]:
    """Cluster, label nodes by majority vote, and train the ensemble."""
    stages = build_stages(m, config)
    labeled, _ = label_nodes(stages.assignment, m.labels, config.tie_rule)
    return train_model(stages.features, labeled, config), stages


def score(
    m: FingerprintMatrix, model: Model, config: PipelineConfig
) -> Tuple[Prediction, Stages]:
    """Build this stream's own graph and score it with a fixed model."""
    stages = build_stages(m, config)
    pred = predict(model, stages.features, stages.assignment, config.threshold)
    return pred, stages


def run_pipeline(
    train_m: FingerprintMatrix,
    test_m: FingerprintMatrix,
    config: PipelineConfig,
) -> Tuple[EvalReport, Prediction, Model]:
    model, _ = fit(train_m, config)
    pred, _ = score(test_m, model, config)
    report = evaluate(pred, test_m.labels)
    return report, pred, model
