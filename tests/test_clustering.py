from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wifi_inout import clustering
from wifi_inout.clustering import (
    ClusterParams,
    _canonical,
    cluster,
    read_assignment,
    singleton_assignment,
    write_assignment,
)
from wifi_inout.errors import ConfigError, FormatError
from wifi_inout.fpindex import build_index, region_query_arr
from wifi_inout.distance import distance

from conftest import mac, make_matrix, random_scan_matrix
from oracles import canonical_partition, connected_components_partition

A = "0a:00:00:00:00:01"
B = "0b:00:00:00:00:02"
C = "0c:00:00:00:00:03"
D = "0d:00:00:00:00:04"


def _chain_matrix():
    # d(a,b) = d(b,c) = 0.2 <= eps, d(a,c) = 0.4 > eps
    a = {A: -40, B: -50, C: -60, D: -70}
    b = {A: -50, B: -40, C: -60, D: -70}
    c = {A: -50, B: -40, C: -70, D: -60}
    return make_matrix([a, b, c])


def test_chain_density_connectivity():
    m = _chain_matrix()
    assert distance(m.fingerprints[0], m.fingerprints[1], 0, 1).value <= 0.22
    assert distance(m.fingerprints[1], m.fingerprints[2], 1, 2).value <= 0.22
    assert distance(m.fingerprints[0], m.fingerprints[2], 0, 2).value > 0.22
    index = build_index(m)
    assignment = cluster(m, ClusterParams(), index)
    assert assignment.n_clusters == 1
    assert assignment.clusters[0] == [0, 1, 2]


def test_empty_run_clusters_together():
    scans = [{A: -40}] + [{}] * 4 + [{A: -40}]
    m = make_matrix(scans)
    index = build_index(m)
    assignment = cluster(m, ClusterParams(), index)
    sizes = {len(c) for c in assignment.clusters}
    assert sorted(assignment.clusters, key=len)[-1] == [1, 2, 3, 4]
    assert sizes == {2, 4}  # the two single-AP scans merge (distance 0)


def test_matches_connected_components_oracle(rng):
    m = random_scan_matrix(rng, 300, ap_pool=25, empty_prob=0.12)
    index = build_index(m)
    for eps in (0.15, 0.22, 0.5):
        assignment = cluster(m, ClusterParams(eps=eps), index)
        assert canonical_partition(assignment) == connected_components_partition(m, eps)


def test_partition_properties(rng):
    m = random_scan_matrix(rng, 250, ap_pool=30)
    index = build_index(m)
    assignment = cluster(m, ClusterParams(), index)
    seen = set()
    for members in assignment.clusters:
        assert not (seen & set(members))
        seen.update(members)
    assert seen == set(range(m.T))
    assert sum(assignment.sizes()) == m.T
    firsts = [c[0] for c in assignment.clusters]
    assert firsts == sorted(firsts)  # ids ascend with first member


def test_order_insensitivity(rng):
    m = random_scan_matrix(rng, 200, ap_pool=20, empty_prob=0.1)
    index = build_index(m)
    base = cluster(m, ClusterParams(), index)
    for _ in range(3):
        order = rng.permutation(m.T)
        permuted = cluster(m, ClusterParams(), index, order=[int(i) for i in order])
        assert canonical_partition(permuted) == canonical_partition(base)
        assert np.array_equal(permuted.cluster_of, base.cluster_of)


def test_min_pts_two_blobs_and_noise():
    blob1 = [{A: -40, B: -50, C: -60}] * 3
    blob2 = [{D: -40, A: -90, B: -80}] * 3
    lone = [{C: -30}]
    m = make_matrix(blob1 + lone + blob2)
    index = build_index(m)
    assignment = cluster(m, ClusterParams(eps=0.22, min_pts=2), index)
    groups = sorted((sorted(c) for c in assignment.clusters), key=len)
    assert groups[0] == [3]            # noise point becomes a singleton
    assert sorted(groups[1:]) == [[0, 1, 2], [4, 5, 6]]


def test_min_pts_larger_than_any_neighborhood(rng):
    m = random_scan_matrix(rng, 40, ap_pool=40, empty_prob=0.0)
    index = build_index(m)
    assignment = cluster(m, ClusterParams(eps=0.0, min_pts=50), index)
    assert assignment.n_clusters == m.T  # everything is noise -> singletons


def reference_dbscan(m, params, index, order=None):
    """Textbook DBSCAN, point by point (-2 marks tentative noise); residual
    noise becomes singleton clusters."""
    T = m.T
    labels = np.full(T, -1, dtype=np.int64)
    scan_order = range(T) if order is None else order
    next_label = 0
    for start in scan_order:
        if labels[start] != -1:
            continue
        neigh = region_query_arr(start, params.eps, index, m)
        if len(neigh) < params.min_pts:
            labels[start] = -2
            continue
        labels[start] = next_label
        frontier = deque(int(i) for i in neigh)
        while frontier:
            p = frontier.popleft()
            if labels[p] == -2:
                labels[p] = next_label  # border point claimed by this cluster
            if labels[p] != -1:
                continue
            labels[p] = next_label
            p_neigh = region_query_arr(p, params.eps, index, m)
            if len(p_neigh) >= params.min_pts:
                frontier.extend(int(i) for i in p_neigh)
        next_label += 1
    for i in range(T):
        if labels[i] == -2:
            labels[i] = next_label
            next_label += 1
    return _canonical(labels)


_scans = st.lists(
    st.dictionaries(st.integers(0, 5).map(mac), st.integers(-70, -40), max_size=4),
    min_size=1, max_size=25,
)


@settings(max_examples=300, deadline=None)
@given(_scans, st.floats(0.0, 1.5), st.integers(1, 6), st.booleans(), st.randoms())
def test_cluster_matches_reference_dbscan(scans, eps, min_pts, permute, rnd):
    m = make_matrix(scans)
    index = build_index(m)
    order = rnd.sample(range(m.T), m.T) if permute else None
    params = ClusterParams(eps=eps, min_pts=min_pts)
    expected = reference_dbscan(m, params, index, order)
    assert np.array_equal(cluster(m, params, index, order).cluster_of, expected.cluster_of)


def test_each_fingerprint_is_queried_at_most_once(rng, monkeypatch):
    m = random_scan_matrix(rng, 200, ap_pool=20, empty_prob=0.1)
    index = build_index(m)
    queried = []

    def counting(q, *args):
        queried.append(int(q))
        return region_query_arr(q, *args)

    monkeypatch.setattr(clustering, "region_query_arr", counting)
    for eps in (0.0, 0.22, 0.5):
        queried.clear()
        cluster(m, ClusterParams(eps=eps), index)
        assert sorted(queried) == list(range(m.T))  # exactly once at min_pts = 1
        for min_pts in (2, 3, 6):
            queried.clear()
            cluster(m, ClusterParams(eps=eps, min_pts=min_pts), index)
            assert len(queried) == len(set(queried))


def test_config_validation():
    with pytest.raises(ConfigError):
        ClusterParams(eps=2.0).validate()
    with pytest.raises(ConfigError):
        ClusterParams(eps=-0.1).validate()
    with pytest.raises(ConfigError):
        ClusterParams(min_pts=0).validate()
    ClusterParams().validate()  # defaults are valid


def test_singleton_assignment(rng):
    m = random_scan_matrix(rng, 30)
    s = singleton_assignment(m)
    assert s.n_clusters == m.T
    assert all(s.clusters[i] == [i] for i in range(m.T))


def test_assignment_file_round_trip(tmp_path, rng):
    m = random_scan_matrix(rng, 120)
    index = build_index(m)
    assignment = cluster(m, ClusterParams(), index)
    path = tmp_path / "clusters.jsonl"
    write_assignment(assignment, path)
    loaded = read_assignment(path)
    assert np.array_equal(loaded.cluster_of, assignment.cluster_of)
    assert loaded.clusters == assignment.clusters


def test_assignment_file_rejects_gaps(tmp_path):
    path = tmp_path / "clusters.jsonl"
    path.write_text('{"seq": 0, "cluster": 0}\n{"seq": 2, "cluster": 0}\n',
                    encoding="utf-8")
    with pytest.raises(FormatError):
        read_assignment(path)
