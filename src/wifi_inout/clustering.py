"""Density clustering of fingerprints (eps = 0.22, min_pts = 1 defaults).

One DBSCAN loop serves every min_pts (Ester et al., KDD 1996): a
fingerprint with at least min_pts fingerprints within eps (itself
included) is a core point, and a cluster is everything density-reachable
from a core point. With the default min_pts = 1 every fingerprint is
core, so the clusters are the connected components of the eps-distance
graph. Each fingerprint is region-queried at most once, and exactly once
at min_pts = 1. Noise points become singleton clusters so the partition
stays total and the transition graph covers every scan.

At min_pts = 1 appending a fingerprint only adds eps-edges, so one pass
over a stream gives the partition of every prefix (`prefix_partitions`;
Ester et al., VLDB 1998).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ConfigError, CoverageError, FormatError, IndexRangeError
from .fpindex import FingerprintIndex, region_query_arr
from .model import FingerprintMatrix


@dataclass(frozen=True)
class ClusterParams:
    eps: float = 0.22
    min_pts: int = 1

    def validate(self) -> None:
        if not 0.0 <= self.eps < 2.0:
            raise ConfigError(f"eps must be in [0, 2), got {self.eps}")
        if self.min_pts < 1:
            raise ConfigError(f"min_pts must be >= 1, got {self.min_pts}")


@dataclass
class ClusterAssignment:
    """A total partition of fingerprints into dense cluster ids 0..C-1."""

    cluster_of: np.ndarray            # fingerprint index -> cluster id
    clusters: List[List[int]] = field(default_factory=list)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def sizes(self) -> List[int]:
        return [len(c) for c in self.clusters]


def _canonical(labels: np.ndarray) -> ClusterAssignment:
    """Relabel so cluster ids ascend with their first member's scan index."""
    order = {}
    for i, lab in enumerate(labels):
        if lab not in order:
            order[lab] = len(order)
    cluster_of = np.array([order[lab] for lab in labels], dtype=np.int64)
    clusters: List[List[int]] = [[] for _ in range(len(order))]
    for i, c in enumerate(cluster_of):
        clusters[c].append(int(i))
    return ClusterAssignment(cluster_of=cluster_of, clusters=clusters)


def _claim(
    labels: np.ndarray, live: Optional[np.ndarray], neigh: np.ndarray, label: int
) -> np.ndarray:
    """Give `label` to the unvisited and noise points of a core point's
    neighbourhood (noise becomes a border point); return the unvisited ones.
    Claimed points leave `live`, when there is one."""
    neigh = neigh[labels[neigh] < 0]
    fresh = neigh[labels[neigh] == -1]
    labels[neigh] = label
    if live is not None:
        live[neigh] = False
    return fresh


def cluster(
    m: FingerprintMatrix,
    params: ClusterParams,
    index: FingerprintIndex,
    order: Optional[Sequence[int]] = None,
) -> ClusterAssignment:
    """Partition all T fingerprints; no point is left as noise.

    Every fingerprint is region-queried at most once. An unvisited start
    with fewer than min_pts neighbours is marked noise; otherwise it seeds
    a cluster, which claims every unvisited or noise point in its core
    points' neighbourhoods. Claimed noise is a border point; noise left at
    the end becomes a singleton cluster.

    `order` permutes the expansion order (testing hook); it may change
    intermediate labels but never the resulting partition for min_pts=1.

    At min_pts = 1 a labelled point can never change its label, so the
    queries skip labelled points (`live` is the unlabelled ones) and drop
    them from the postings they read. They do so on a private copy of
    `index`; the caller's index is left unchanged. At min_pts > 1 every
    neighbour counts towards the core test, so nothing is skipped.
    """
    params.validate()
    labels = np.full(m.T, -1, dtype=np.int64)  # -1 unvisited, -2 noise
    live = None
    if params.min_pts == 1:
        live = np.ones(m.T, dtype=bool)
        index = replace(
            index, postings=dict(index.postings), posting_ranks=dict(index.posting_ranks)
        )
    next_label = 0
    for start in range(m.T) if order is None else order:
        if labels[start] != -1:
            continue
        neigh = region_query_arr(start, params.eps, index, m, live)
        if len(neigh) < params.min_pts:
            labels[start] = -2
            continue
        labels[start] = next_label  # before its own array, so it is not re-queried
        if live is not None:
            live[start] = False
        # claimed points still to query; claiming a core point's array when it
        # is queried, not when it is dequeued, keeps the queue within T entries
        frontier = deque([_claim(labels, live, neigh, next_label)])
        while frontier:
            for p in frontier.popleft():
                p_neigh = region_query_arr(int(p), params.eps, index, m, live)
                if len(p_neigh) >= params.min_pts:
                    frontier.append(_claim(labels, live, p_neigh, next_label))
        next_label += 1
    noise = labels == -2
    labels[noise] = next_label + np.arange(np.count_nonzero(noise))
    return _canonical(labels)


def prefix_partitions(
    m: FingerprintMatrix,
    params: ClusterParams,
    index: FingerprintIndex,
    ends: Sequence[int],
) -> Iterator[Tuple[int, ClusterAssignment]]:
    """Yield (n, partition of m's first n fingerprints) for each n in the
    non-decreasing `ends`, equal to `cluster` on each prefix (min_pts = 1).

    Each fingerprint t < ends[-1] is region-queried once on `index`, an
    index of the whole of m, and keeps its neighbours j < t: the distance
    is symmetric, so a prefix's eps-edges are the ones found by its own
    fingerprints. The partition of a prefix is the connected components
    of its edges.
    """
    params.validate()
    if params.min_pts != 1:
        raise ConfigError(f"prefix partitions need min_pts = 1, got {params.min_pts}")
    heads = [np.empty(0, dtype=np.int64)]  # edge t -> j for every j < t within eps
    tails = [np.empty(0, dtype=np.int64)]
    done = 0
    for n in ends:
        if not done <= n <= m.T:
            raise IndexRangeError(f"prefix end {n} not in [{done}, {m.T}]")
        for t in range(done, n):
            neigh = region_query_arr(t, params.eps, index, m)
            earlier = neigh[neigh < t]
            heads.append(np.full(len(earlier), t, dtype=np.int64))
            tails.append(earlier)
        done = n
        head, tail = np.concatenate(heads), np.concatenate(tails)
        heads, tails = [head], [tail]
        edges = csr_matrix((np.ones(len(head), dtype=bool), (head, tail)), shape=(n, n))
        _, labels = connected_components(edges, directed=False)
        yield n, _canonical(labels)


def singleton_assignment(m: FingerprintMatrix) -> ClusterAssignment:
    """Every fingerprint its own cluster (raw-fingerprint baseline)."""
    T = m.T
    return ClusterAssignment(
        cluster_of=np.arange(T, dtype=np.int64),
        clusters=[[i] for i in range(T)],
    )


def check_coverage(assignment: ClusterAssignment, m: FingerprintMatrix) -> None:
    if len(assignment.cluster_of) != m.T or np.any(assignment.cluster_of < 0):
        raise CoverageError("assignment does not cover every fingerprint")


# --- assignment file format: one {"seq": i, "cluster": c} object per line ---

def write_assignment(assignment: ClusterAssignment, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for i, c in enumerate(assignment.cluster_of):
            f.write(json.dumps({"seq": int(i), "cluster": int(c)}))
            f.write("\n")


def read_assignment(path) -> ClusterAssignment:
    pairs = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                pairs.append((int(obj["seq"]), int(obj["cluster"])))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
                raise FormatError(f"bad assignment line: {e}") from e
    pairs.sort()
    if [p[0] for p in pairs] != list(range(len(pairs))):
        raise FormatError("assignment file must cover seq 0..T-1 exactly once")
    labels = np.array([c for _, c in pairs], dtype=np.int64)
    if np.any(labels < 0):
        raise FormatError("negative cluster id in assignment file")
    return _canonical(labels)
