"""Density clustering of fingerprints (eps = 0.22, min_pts = 1 defaults).

One DBSCAN loop serves every min_pts (Ester et al., KDD 1996): a
fingerprint with at least min_pts fingerprints within eps (itself
included) is a core point, and a cluster is everything density-reachable
from a core point. With the default min_pts = 1 every fingerprint is
core, so the clusters are the connected components of the eps-distance
graph. Each fingerprint is region-queried at most once, and exactly once
at min_pts = 1. Noise points become singleton clusters so the partition
stays total and the transition graph covers every scan.

The loop's neighbourhoods are computed in one batch before it starts:
a repeated rank map has the same eps-neighbourhood as its first
occurrence, so one blocked sparse self-join over the first scan of each
distinct non-empty rank map (`fpindex.neighbourhoods`) gives every
non-empty query's answer (`region_query_arr`'s `memo`), whole, at every
min_pts. Its memory grows with the sum, over distinct maps, of their
neighbourhood sizes. An empty scan's neighbourhood is its adjacent empty
scans, since an empty pair's distance depends on stream position.

At min_pts = 1 appending a fingerprint only adds eps-edges, so the
eps-edges of a whole stream, found once, give the partition of every
prefix (`prefix_partitions`; Ester et al., VLDB 1998), and a minimum
spanning forest of them, weighted by the later scan, spans the same
components at every prefix with far fewer edges. The eps-edges come
from the same self-join over the stream's scans (`fpindex.eps_edges`),
which builds its own operand. Only `cluster` reads an index, whose one
array, the transposed rank matrix, is its join's operand.

A partition is stored once, as its label vector `cluster_of`; cluster
sizes and member lists are derived from it.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

from .errors import ConfigError, CoverageError, FormatError, IndexRangeError, require_int64
from .fpindex import FingerprintIndex, eps_edges, neighbourhoods, region_query_arr
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

    @property
    def n_clusters(self) -> int:
        return int(self.cluster_of.max(initial=-1)) + 1

    def sizes(self) -> np.ndarray:
        return np.bincount(self.cluster_of, minlength=self.n_clusters)

    @cached_property
    def clusters(self) -> List[List[int]]:
        """cluster -> ascending member indices; a view no pipeline stage reads"""
        members = np.argsort(self.cluster_of, kind="stable")
        return [c.tolist() for c in np.split(members, np.cumsum(self.sizes()))[:-1]]


def _canonical(labels: np.ndarray) -> ClusterAssignment:
    """Relabel so cluster ids ascend with their first member's scan index."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return ClusterAssignment(cluster_of=np.argsort(np.argsort(first))[inverse])


def _claim(labels: np.ndarray, neigh: np.ndarray, label: int) -> np.ndarray:
    """Give `label` to the unvisited and noise points of a core point's
    neighbourhood (noise becomes a border point); return the unvisited ones."""
    neigh = neigh[labels[neigh] < 0]
    fresh = neigh[labels[neigh] == -1]
    labels[neigh] = label
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

    Before the loop, one self-join over `index` gives every distinct
    non-empty rank map's whole eps-neighbourhood (`neighbourhoods`), and
    each non-empty query takes its answer from that memo, at every
    min_pts; an empty query takes its adjacent empty scans.
    """
    params.validate()
    memo = neighbourhoods(m, params.eps, index)
    labels = np.full(m.T, -1, dtype=np.int64)  # -1 unvisited, -2 noise
    next_label = 0
    for start in range(m.T) if order is None else order:
        if labels[start] != -1:
            continue
        neigh = region_query_arr(start, params.eps, index, m, memo)
        if len(neigh) < params.min_pts:
            labels[start] = -2
            continue
        labels[start] = next_label  # before its own array, so it is not re-queried
        # claimed points still to query; claiming a core point's array when it
        # is queried, not when it is dequeued, keeps the queue within T entries
        frontier = deque([_claim(labels, neigh, next_label)])
        while frontier:
            for p in frontier.popleft():
                p_neigh = region_query_arr(int(p), params.eps, index, m, memo)
                if len(p_neigh) >= params.min_pts:
                    frontier.append(_claim(labels, p_neigh, next_label))
        next_label += 1
    noise = labels == -2
    labels[noise] = next_label + np.arange(np.count_nonzero(noise))
    return _canonical(labels)


def prefix_partitions(
    m: FingerprintMatrix,
    params: ClusterParams,
    ends: Sequence[int],
) -> Iterator[Tuple[int, ClusterAssignment]]:
    """Yield (n, partition of m's first n fingerprints) for each n in the
    non-decreasing `ends`, equal to `cluster` on each prefix (min_pts = 1).

    One self-join over the first ends[-1] fingerprints of m, with no
    index, finds every eps-edge (t, j < t) once (`eps_edges`). Weighted
    t + 1, the edges give one minimum spanning forest, and a prefix of n
    fingerprints joins only the forest edges headed below n: by the
    cycle property, the forest edges lighter than a weight span the same
    components as all the edges lighter than it (Kruskal, Proc. AMS
    1956). So each prefix's components cost at most n - 1 edges.
    """
    params.validate()
    if params.min_pts != 1:
        raise ConfigError(f"prefix partitions need min_pts = 1, got {params.min_pts}")
    done = 0
    for n in ends:
        if not done <= n <= m.T:
            raise IndexRangeError(f"prefix end {n} not in [{done}, {m.T}]")
        done = n
    head, tail = eps_edges(m, done, params.eps)
    forest = minimum_spanning_tree(
        csr_matrix((head + 1.0, (head, tail)), shape=(done, done))).tocoo()
    order = np.argsort(forest.data, kind="stable")
    head = forest.data[order].astype(np.int64) - 1  # an edge's weight is its head + 1
    tail = (forest.row + forest.col)[order] - head
    for n in ends:
        indptr = np.searchsorted(head, np.arange(n + 1))  # row t: the forest edges headed t
        edges = csr_matrix((np.ones(indptr[-1], dtype=bool), tail[:indptr[-1]], indptr),
                           shape=(n, n))
        _, labels = connected_components(edges, directed=False)
        yield n, _canonical(labels)


def singleton_assignment(m: FingerprintMatrix) -> ClusterAssignment:
    """Every fingerprint its own cluster (raw-fingerprint baseline)."""
    return ClusterAssignment(cluster_of=np.arange(m.T, dtype=np.int64))


def check_coverage(
    assignment: ClusterAssignment, m: FingerprintMatrix, scan: Optional[np.ndarray] = None
) -> None:
    """Every row has a cluster and stands for a scan of m: row i for scan
    scan[i], by default scan i."""
    rows = m.T if scan is None else len(scan)
    if len(assignment.cluster_of) != rows or np.any(assignment.cluster_of < 0):
        raise CoverageError("assignment does not cover every fingerprint")
    if scan is not None and np.any((scan < 0) | (scan >= m.T)):
        raise CoverageError(f"scan maps a row outside the scans [0, {m.T})")


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
                pair = (obj["seq"], obj["cluster"])
            except (json.JSONDecodeError, KeyError, TypeError) as e:
                raise FormatError(f"bad assignment line: {e}") from e
            require_int64(pair, "assignment seq and cluster")
            pairs.append(pair)
    pairs.sort()
    if [p[0] for p in pairs] != list(range(len(pairs))):
        raise FormatError("assignment file must cover seq 0..T-1 exactly once")
    labels = np.array([c for _, c in pairs], dtype=np.int64)
    if np.any(labels < 0):
        raise FormatError("negative cluster id in assignment file")
    return _canonical(labels)
