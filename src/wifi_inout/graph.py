"""Cluster transition graph and bounded-hop neighborhood queries.

Nodes are clusters; an undirected edge joins two distinct clusters
whenever they contain fingerprints collected back to back. The graph is
simple and unweighted; a node's weight is its fingerprint count. Indoor
dwells condense into heavy, densely connected nodes while outdoor walks
string out into chains, which is what the node features pick up.

A graph is stored once, as the partition's labels and a symmetric boolean
CSR adjacency. `build_graph` takes an optional row map `scan`: row i of
the assignment stands for scan `scan[i]`, and a row of scan 0 joins no
row before it, so the partitions of several prefixes stacked one after
another give one block-diagonal graph. `bfs_layers`, the one BFS, walks
it in sparse algebra for a block of sources at once (Kepner & Gilbert,
SIAM 2011); the features and `neighborhood` both call it."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Set

import numpy as np
from scipy.sparse import csr_array, eye_array, triu

from .clustering import ClusterAssignment, check_coverage
from .errors import NodeRangeError
from .model import FingerprintMatrix


@dataclass
class TransitionGraph:
    A: csr_array                # symmetric boolean adjacency, no loops
    cluster_of: np.ndarray      # fingerprint index -> node (the partition's labels)

    @property
    def node_weight(self) -> List[int]:
        """node -> member fingerprint count"""
        return np.bincount(self.cluster_of, minlength=self.n_nodes).tolist()

    @property
    def n_nodes(self) -> int:
        return self.A.shape[0]

    @property
    def n_edges(self) -> int:
        return self.A.nnz // 2

    def degree(self, x: int) -> int:
        return int(self.A.indptr[x + 1] - self.A.indptr[x])

    # views for readers outside the pipeline; no stage reads them
    @cached_property
    def adjacency(self) -> List[Set[int]]:
        """node -> neighbor set"""
        return [set(row.tolist()) for row in np.split(self.A.indices, self.A.indptr[1:-1])]

    @cached_property
    def node_members(self) -> List[List[int]]:
        """node -> ascending member fingerprint indices"""
        return ClusterAssignment(self.cluster_of).clusters


@dataclass(frozen=True)
class Neighborhood:
    center: int
    d: int
    members: Set[int]


def build_graph(
    assignment: ClusterAssignment,
    m: FingerprintMatrix,
    max_gap_ms: Optional[int] = None,
    scan: Optional[np.ndarray] = None,
) -> TransitionGraph:
    """Edges come exactly from consecutive rows that sit in distinct
    clusters. Row i of the assignment stands for scan scan[i] of m (by
    default, scan i) and joins row i - 1 unless its scan is scan 0 or,
    with max_gap_ms set, follows the scan before it by a longer
    timestamp gap (guards multi-hour collection holes; off by default).
    Stacked prefixes, each a run of scans 0..n-1, so share no edge."""
    check_coverage(assignment, m, scan)
    joins = np.ones(m.T, dtype=bool)
    joins[:1] = False
    if max_gap_ms is not None:
        # Python-int gaps: an int64 difference wraps once stamps are 2**63 ms apart
        joins[1:] = np.diff(np.array(m.timestamps_ms, dtype=object)) <= max_gap_ms
    if scan is not None:
        joins = joins[scan]
    cluster_of, n = assignment.cluster_of, assignment.n_clusters
    u, v = cluster_of[:-1], cluster_of[1:]
    keep = joins[1:] & (u != v)
    u, v = u[keep], v[keep]  # repeated pairs merge as CSR sums its COO input
    A = csr_array((np.ones(2 * len(u), bool), (np.r_[u, v], np.r_[v, u])), shape=(n, n))
    return TransitionGraph(A=A, cluster_of=cluster_of)


def bfs_layers(g: TransitionGraph, sources: Sequence[int], max_d: int) -> List[csr_array]:
    """Frontier matrices F_0..F_D of a BFS from every source at once: row
    i of F_d marks the nodes exactly d hops from sources[i]. The walk
    stops at max_d or when every frontier is empty, so D <= max_d and
    every F_d past F_D is empty.

    F_0 = I[sources] and F_d = (F_{d-1} A) > F_{d-1} + F_{d-2}: on an
    undirected graph the neighbours of layer d-1 lie in layers d-2, d-1
    and d, so no reached set is needed."""
    layers = [eye_array(g.n_nodes, format="csr", dtype=bool)[np.asarray(sources)]]
    before = csr_array(layers[0].shape, dtype=bool)  # F_{-1}
    for _ in range(max_d):
        frontier = layers[-1]
        reached = (frontier @ g.A) > frontier + before
        if not reached.nnz:
            break
        layers.append(reached)
        before = frontier
    return layers


def neighborhood(g: TransitionGraph, x: int, d: int) -> Neighborhood:
    """Nodes reachable from x within d hops (breadth-first, includes x)."""
    if d < 0:
        raise NodeRangeError(f"hop bound must be >= 0, got {d}")
    if not 0 <= x < g.n_nodes:
        raise NodeRangeError(f"node {x} out of range [0, {g.n_nodes})")
    members = {int(y) for F in bfs_layers(g, [x], d) for y in F.nonzero()[1]}
    return Neighborhood(center=x, d=d, members=members)


# --- graph export: one "u v" edge per line + a node table -------------------

def write_graph(g: TransitionGraph, edges_path, nodes_path) -> None:
    with open(edges_path, "w", encoding="utf-8") as f:
        for u, v in zip(*triu(g.A, k=1, format="csr").nonzero()):
            f.write(f"{u} {v}\n")
    with open(nodes_path, "w", encoding="utf-8") as f:
        f.write("id weight size\n")
        for u, weight in enumerate(g.node_weight):
            f.write(f"{u} {weight} {weight}\n")
