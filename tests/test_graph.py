from dataclasses import dataclass
from typing import List, Set

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wifi_inout.clustering import (
    ClusterAssignment, ClusterParams, check_coverage, cluster, singleton_assignment,
)
from wifi_inout.errors import CoverageError, NodeRangeError
from wifi_inout.fpindex import build_index
from wifi_inout.graph import build_graph, neighborhood, write_graph
from wifi_inout.model import ingest

from conftest import make_matrix, make_records, random_scan_matrix
from oracles import consecutive_pair_edges


def _assignment(cluster_of):
    return ClusterAssignment(cluster_of=np.asarray(cluster_of, dtype=np.int64))


def _trivial_matrix(T, period_ms=3000):
    return make_matrix([{"0a:00:00:00:00:01": -40} for _ in range(T)],
                       period_ms=period_ms)


def test_example_sequence():
    # cluster sequence A,A,B,A -> one edge, weights 3 and 1
    m = _trivial_matrix(4)
    g = build_graph(_assignment([0, 0, 1, 0]), m)
    assert g.adjacency == [{1}, {0}]
    assert g.node_weight == [3, 1]


def test_single_cluster_no_self_loop():
    m = _trivial_matrix(5)
    g = build_graph(_assignment([0] * 5), m)
    assert g.n_nodes == 1
    assert g.adjacency == [set()]


def test_edges_match_consecutive_pair_oracle(rng):
    T = 500
    m = _trivial_matrix(T)
    cluster_of = rng.integers(0, 40, size=T)
    cluster_of[0] = 0  # keep ids dense enough for the helper
    g = build_graph(_assignment(cluster_of), m)
    got = {(u, v) for u in range(g.n_nodes) for v in g.adjacency[u] if u < v}
    assert got == consecutive_pair_edges(cluster_of)


def test_max_gap_suppresses_edges():
    m = make_matrix([{"0a:00:00:00:00:01": -40}] * 4, period_ms=1)
    m.timestamps_ms[2] = m.timestamps_ms[1] + 3_600_000  # one-hour hole
    m.timestamps_ms[3] = m.timestamps_ms[2] + 1
    assignment = _assignment([0, 0, 1, 2])

    plain = build_graph(assignment, m)
    edges = {(u, v) for u in range(3) for v in plain.adjacency[u] if u < v}
    assert edges == {(0, 1), (1, 2)}

    gapped = build_graph(assignment, m, max_gap_ms=10_000)
    edges = {(u, v) for u in range(3) for v in gapped.adjacency[u] if u < v}
    assert edges == {(1, 2)}  # the pair across the hole contributes nothing


def test_max_gap_is_exact_for_stamps_2_63_ms_apart():
    # 9e18 - (-9e18) wraps in int64 to a negative gap, which passed the bound
    records = make_records([{}] * 3)
    for rec, ts in zip(records, (-9 * 10**18, 9 * 10**18, 9 * 10**18 + 1000)):
        rec.timestamp_ms = ts
    m = ingest(records)
    g = build_graph(singleton_assignment(m), m, 60000)
    assert g.n_edges == 1
    assert g.adjacency == [set(), {2}, {1}]


def test_coverage_error():
    m = _trivial_matrix(3)
    bad = ClusterAssignment(cluster_of=np.array([0, 0]))
    with pytest.raises(CoverageError):
        build_graph(bad, m)


def test_row_of_scan_zero_starts_a_block():
    """Rows mapped to scans 0..2 then 0..1: the second run joins nothing
    before it, as two prefixes stacked in a warm-up chunk."""
    m = _trivial_matrix(3)
    g = build_graph(_assignment([0, 1, 2, 3, 4]), m, scan=np.array([0, 1, 2, 0, 1]))
    assert g.adjacency == [{1}, {0, 2}, {1}, {4}, {3}]


@pytest.mark.parametrize("scan", [[0, 1], [0, 1, -1], [0, 1, 3]])
def test_scan_of_another_length_or_outside_the_scans_is_a_coverage_error(scan):
    m = _trivial_matrix(3)
    with pytest.raises(CoverageError):
        build_graph(_assignment([0, 1, 2]), m, scan=np.array(scan))


def test_neighborhood_d0_and_paths():
    m = _trivial_matrix(6)
    g = build_graph(_assignment([0, 1, 2, 1, 0, 1]), m)  # path 0-1-2
    assert neighborhood(g, 0, 0).members == {0}
    assert neighborhood(g, 0, 1).members == {0, 1}
    assert neighborhood(g, 0, 2).members == {0, 1, 2}
    assert neighborhood(g, 2, 2).members == {0, 1, 2}


def test_neighborhood_star():
    # star: center 0, leaves 1..5 (sequence visits center between leaves)
    seq = [0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0]
    m = _trivial_matrix(len(seq))
    g = build_graph(_assignment(seq), m)
    assert neighborhood(g, 1, 1).members == {0, 1}
    assert neighborhood(g, 1, 2).members == {0, 1, 2, 3, 4, 5}


def test_neighborhood_errors():
    m = _trivial_matrix(2)
    g = build_graph(_assignment([0, 1]), m)
    with pytest.raises(NodeRangeError):
        neighborhood(g, 2, 1)
    with pytest.raises(NodeRangeError):
        neighborhood(g, 0, -1)


def test_neighborhood_properties(rng):
    m = random_scan_matrix(rng, 300, ap_pool=20, empty_prob=0.1)
    index = build_index(m)
    assignment = cluster(m, ClusterParams(), index)
    g = build_graph(assignment, m)
    assert sum(g.node_weight) == m.T
    for u in range(g.n_nodes):
        assert u not in g.adjacency[u]
        for v in g.adjacency[u]:
            assert u in g.adjacency[v]
    nodes = list(range(g.n_nodes))
    for x in nodes[:: max(1, g.n_nodes // 20)]:
        assert len(neighborhood(g, x, 1).members) == g.degree(x) + 1
        prev = None
        for d in range(0, 6):
            members = neighborhood(g, x, d).members
            if prev is not None:
                assert prev <= members
            prev = members
    for x in nodes[::7]:
        for y in nodes[::5]:
            for d in (1, 3):
                assert (y in neighborhood(g, x, d).members) == (
                    x in neighborhood(g, y, d).members
                )


def test_graph_export(tmp_path):
    m = _trivial_matrix(4)
    g = build_graph(_assignment([0, 1, 0, 2]), m)
    write_graph(g, tmp_path / "g.edges", tmp_path / "g.nodes")
    edges = (tmp_path / "g.edges").read_text().splitlines()
    assert edges == ["0 1", "0 2"]
    nodes = (tmp_path / "g.nodes").read_text().splitlines()
    assert nodes[0] == "id weight size"
    assert nodes[1:] == ["0 2 2", "1 1 1", "2 1 1"]


@dataclass
class _ReferenceGraph:
    adjacency: List[Set[int]]
    node_members: List[List[int]]

    @property
    def n_nodes(self) -> int:
        return len(self.adjacency)


def reference_build_graph(assignment, m, max_gap_ms=None):
    """The per-scan loop that build_graph replaced, kept as its reference."""
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
    return _ReferenceGraph(adjacency=adjacency, node_members=assignment.clusters)


def reference_write_graph(g, edges_path, nodes_path):
    """The writer that read neighbour sets, kept as write_graph's reference."""
    with open(edges_path, "w", encoding="utf-8") as f:
        for u in range(g.n_nodes):
            for v in sorted(g.adjacency[u]):
                if u < v:
                    f.write(f"{u} {v}\n")
    with open(nodes_path, "w", encoding="utf-8") as f:
        f.write("id weight size\n")
        for u, members in enumerate(g.node_members):
            f.write(f"{u} {len(members)} {len(members)}\n")


# stamps near each other, far apart or at the int64 ends, in any order
# (an unchecked matrix's stamps may decrease)
_stamps = st.one_of(st.integers(0, 40), st.sampled_from([-2**63, 2**63 - 1]),
                    st.integers(-2**63, 2**63 - 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 15), min_size=1, max_size=80), st.data())
def test_build_and_write_graph_equal_per_scan_loop(tmp_path_factory, cluster_of, data):
    m = _trivial_matrix(len(cluster_of))
    m.timestamps_ms[:] = data.draw(st.lists(_stamps, min_size=len(cluster_of),
                                            max_size=len(cluster_of)))
    assignment = _assignment(cluster_of)
    out = tmp_path_factory.mktemp("graphs")
    max_gap = st.one_of(st.integers(0, 20), st.integers(0, 2**63 - 1))
    for max_gap_ms in (None, data.draw(max_gap)):
        g = build_graph(assignment, m, max_gap_ms)
        want = reference_build_graph(assignment, m, max_gap_ms)
        assert g.A.has_canonical_format
        assert g.n_nodes == want.n_nodes
        assert g.adjacency == want.adjacency
        assert g.node_members == want.node_members
        assert g.n_edges == sum(map(len, want.adjacency)) // 2
        assert [g.degree(x) for x in range(g.n_nodes)] == list(map(len, want.adjacency))
        write_graph(g, out / "got.edges", out / "got.nodes")
        reference_write_graph(want, out / "want.edges", out / "want.nodes")
        for suffix in ("edges", "nodes"):
            assert (out / f"got.{suffix}").read_bytes() == (out / f"want.{suffix}").read_bytes()
