"""Cluster transition graph and bounded-hop neighborhood queries.

Nodes are clusters; an undirected edge joins two distinct clusters
whenever they contain fingerprints collected back to back. The graph is
simple and unweighted; a node's weight is its fingerprint count. Indoor
dwells condense into heavy, densely connected nodes while outdoor walks
string out into chains, which is what the node features pick up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from .clustering import ClusterAssignment, check_coverage
from .errors import NodeRangeError
from .model import FingerprintMatrix


@dataclass
class TransitionGraph:
    adjacency: List[Set[int]]       # node -> neighbor set (symmetric, no loops)
    node_members: List[List[int]]   # node -> fingerprint indices (the partition's lists)

    @property
    def node_weight(self) -> List[int]:
        """node -> member fingerprint count"""
        return [len(c) for c in self.node_members]

    @property
    def n_nodes(self) -> int:
        return len(self.adjacency)

    @property
    def n_edges(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def degree(self, x: int) -> int:
        return len(self.adjacency[x])


@dataclass(frozen=True)
class Neighborhood:
    center: int
    d: int
    members: Set[int]


def build_graph(
    assignment: ClusterAssignment,
    m: FingerprintMatrix,
    max_gap_ms: Optional[int] = None,
) -> TransitionGraph:
    """Edges come exactly from consecutive-index fingerprint pairs that sit
    in distinct clusters. With max_gap_ms set, pairs separated by a longer
    timestamp gap contribute nothing (guards multi-hour collection holes;
    off by default)."""
    check_coverage(assignment, m)
    n = assignment.n_clusters
    adjacency: List[Set[int]] = [set() for _ in range(n)]
    cluster_of = assignment.cluster_of
    ts = m.timestamps_ms
    for i in range(m.T - 1):
        u = int(cluster_of[i])
        v = int(cluster_of[i + 1])
        if u == v:
            continue
        if max_gap_ms is not None and ts[i + 1] - ts[i] > max_gap_ms:
            continue
        adjacency[u].add(v)
        adjacency[v].add(u)
    return TransitionGraph(adjacency=adjacency, node_members=assignment.clusters)


def neighborhood(g: TransitionGraph, x: int, d: int) -> Neighborhood:
    """Nodes reachable from x within d hops (breadth-first, includes x)."""
    if d < 0:
        raise NodeRangeError(f"hop bound must be >= 0, got {d}")
    members = set().union(*bfs_layers(g, x, d))
    return Neighborhood(center=x, d=d, members=members)


def bfs_layers(g: TransitionGraph, x: int, max_d: int) -> List[Set[int]]:
    """Layer l holds the nodes first reached at exactly l hops; used to
    accumulate features for several hop bounds in one traversal."""
    if not 0 <= x < g.n_nodes:
        raise NodeRangeError(f"node {x} out of range [0, {g.n_nodes})")
    seen = {x}
    layers = [{x}]
    current = {x}
    for _ in range(max_d):
        nxt: Set[int] = set()
        for node in current:
            for nb in g.adjacency[node]:
                if nb not in seen:
                    seen.add(nb)
                    nxt.add(nb)
        layers.append(nxt)
        if not nxt:
            break
        current = nxt
    return layers


# --- graph export: one "u v" edge per line + a node table -------------------

def write_graph(g: TransitionGraph, edges_path, nodes_path) -> None:
    with open(edges_path, "w", encoding="utf-8") as f:
        for u in range(g.n_nodes):
            for v in sorted(g.adjacency[u]):
                if u < v:
                    f.write(f"{u} {v}\n")
    with open(nodes_path, "w", encoding="utf-8") as f:
        f.write("id weight size\n")
        for u, members in enumerate(g.node_members):
            f.write(f"{u} {len(members)} {len(members)}\n")
