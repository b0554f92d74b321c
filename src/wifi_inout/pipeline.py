"""End-to-end composition: ingest -> cluster -> graph -> features ->
train/predict -> evaluate.

Three variants mirror the reference comparison: "graph" uses the full
neighborhood feature set, "clusters" restricts to hop-0 features on the
real clustering, and "fingerprints" treats every scan as its own
cluster (the raw-fingerprint baseline).

The stagewise CLI, cross-validation and warm-up evaluation call
`partition`, `stages` and `train_model` too, so every path maps a config
onto the same stage calls. The warm-up's minute prefixes go through
`prefix_stages`, which stacks them block-diagonally in chunks and builds
each chunk with one `stages` call, its row map `scan` sending each
stacked row to its scan, so that one graph, one BFS and one prediction
serve every prefix of a chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

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
from .learner import Model, Prediction, label_nodes, predict, train
from .model import FingerprintMatrix

# stacked scans per chunk in prefix_stages; bounds a chunk's graph, BFS
# and feature rows
_CHUNK_SCANS = 2**14


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
    features: FeatureTable, labels: np.ndarray, weights: Sequence[int], config: PipelineConfig
) -> Model:
    """Train the configured learner, with its hyperparameters and seed, on
    the nodes' label codes and weights (`learner.train`)."""
    return train(features, labels, weights, kind=config.learner_kind(), seed=config.seed,
                 hyperparameters=config.hyperparameters())


def stages(
    assignment: ClusterAssignment,
    m: FingerprintMatrix,
    config: PipelineConfig,
    scan: Optional[np.ndarray] = None,
) -> Stages:
    """The graph and feature table of a partition of m, whose row i
    stands for scan scan[i] of m (by default, scan i)."""
    g = build_graph(assignment, m, config.max_gap_ms, scan)
    feats = extract_features(g, m, config.feature_ranges(), scan)
    return Stages(assignment=assignment, graph=g, features=feats)


def build_stages(m: FingerprintMatrix, config: PipelineConfig) -> Stages:
    return stages(partition(m, config), m, config)


@dataclass
class PrefixChunk:
    """The stages of consecutive prefixes of one stream, stacked: prefix
    p's ends[p] scans are the rows of `stages.assignment` that follow the
    previous prefixes' rows, and its node x is node node_starts[p] + x of
    `stages.graph` and `stages.features`."""

    ends: List[int]
    stages: Stages
    node_starts: np.ndarray  # per prefix, its first stacked node
    scan: np.ndarray         # per stacked row, its scan index in the stream


def prefix_stages(
    m: FingerprintMatrix, config: PipelineConfig, ends: Sequence[int]
) -> Iterator[PrefixChunk]:
    """The stages of m.prefix(n) for each n in the non-decreasing `ends`,
    each prefix's equal to `build_stages(m.prefix(n), config)`, stacked
    in chunks of consecutive prefixes that hold at most _CHUNK_SCANS rows
    between them (a larger prefix is a chunk of its own).

    Clustered variants at min_pts = 1 take every prefix's partition from
    one self-join over m, with no index; singletons, and min_pts > 1,
    whose border points depend on the expansion order, partition each
    prefix afresh. Either way, a chunk builds one block-diagonal graph
    and walks one BFS over it: no row, node or edge crosses prefixes, so
    every prefix's numbers are its own.
    """
    if config.variant != "fingerprints" and config.min_pts == 1:
        params = ClusterParams(config.eps, config.min_pts)
        parts = prefix_partitions(m, params, ends)
    else:
        parts = ((n, partition(m.prefix(n), config)) for n in ends)
    chunk: List[Tuple[int, ClusterAssignment]] = []
    rows = 0
    for n, assignment in parts:
        if chunk and rows + n > _CHUNK_SCANS:
            yield _stack(chunk, m, config)
            chunk, rows = [], 0
        chunk.append((n, assignment))
        rows += n
    if chunk:
        yield _stack(chunk, m, config)


def _stack(
    chunk: List[Tuple[int, ClusterAssignment]], m: FingerprintMatrix, config: PipelineConfig
) -> PrefixChunk:
    """One chunk's stages, from its (n, partition of m.prefix(n)) pairs."""
    ends = [n for n, _ in chunk]
    node_starts = np.cumsum([0] + [a.n_clusters for _, a in chunk])
    cluster_of = np.concatenate(
        [a.cluster_of + o for (_, a), o in zip(chunk, node_starts.tolist())])
    scan = np.concatenate([np.arange(n) for n in ends])
    return PrefixChunk(ends, stages(ClusterAssignment(cluster_of), m, config, scan),
                       node_starts[:-1], scan)


def fit(m: FingerprintMatrix, config: PipelineConfig) -> Tuple[Model, Stages]:
    """Cluster, label nodes by majority vote, and train the ensemble."""
    stages = build_stages(m, config)
    labels = label_nodes(stages.assignment, m.labels)
    return train_model(stages.features, labels, stages.assignment.sizes(), config), stages


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
