"""End-to-end composition: ingest -> cluster -> graph -> features ->
train/predict -> evaluate.

Three variants mirror the reference comparison: "graph" uses the full
neighborhood feature set, "clusters" restricts to hop-0 features on the
real clustering, and "fingerprints" treats every scan as its own
cluster (the raw-fingerprint baseline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .clustering import ClusterAssignment, ClusterParams, cluster, singleton_assignment
from .config import PipelineConfig
from .evaluation import EvalReport, evaluate
from .features import FeatureTable, extract_features
from .fpindex import build_index
from .graph import TransitionGraph, build_graph
from .learner import Model, Prediction, label_nodes, predict, train
from .model import FingerprintMatrix


@dataclass
class Stages:
    assignment: ClusterAssignment
    graph: TransitionGraph
    features: FeatureTable


def build_stages(m: FingerprintMatrix, config: PipelineConfig) -> Stages:
    if config.variant == "fingerprints":
        assignment = singleton_assignment(m)
    else:
        index = build_index(m)
        assignment = cluster(m, ClusterParams(config.eps, config.min_pts), index)
    g = build_graph(assignment, m, config.max_gap_ms)
    feats = extract_features(g, m, config.feature_ranges())
    return Stages(assignment=assignment, graph=g, features=feats)


def fit(m: FingerprintMatrix, config: PipelineConfig) -> Tuple[Model, Stages]:
    """Cluster, label nodes by majority vote, and train the ensemble."""
    stages = build_stages(m, config)
    labeled, _ = label_nodes(stages.assignment, m.labels, config.tie_rule)
    model = train(
        stages.features,
        labeled,
        kind=config.learner_kind(),
        seed=config.seed,
        hyperparameters=config.hyperparameters(),
    )
    return model, stages


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
