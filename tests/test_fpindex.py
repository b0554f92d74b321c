from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wifi_inout.errors import ConfigError, IndexRangeError
from wifi_inout.fpindex import build_index, region_query, region_query_arr
from wifi_inout.distance import distance

from conftest import mac, make_matrix, random_scan_matrix
from oracles import region_scan

A = "0a:00:00:00:00:01"
B = "0b:00:00:00:00:02"
C = "0c:00:00:00:00:03"


def test_postings_cover_shared_ap():
    m = make_matrix([{A: -40}, {A: -50, B: -60}, {A: -45}])
    index = build_index(m)
    assert list(index.postings[A]) == [0, 1, 2]
    assert list(index.postings[B]) == [1]


def test_posting_ranks_entry():
    m = make_matrix([{A: -40, B: -60}])
    index = build_index(m)
    assert m.fingerprints[0].ranks() == {A: 1.0, B: 2.0}
    assert list(index.posting_ranks[A]) == [1.0]
    assert list(index.posting_ranks[B]) == [2.0]
    assert index.k[0] == 2


def test_all_empty_matrix():
    m = make_matrix([{}, {}, {}, {}])
    index = build_index(m)
    assert index.postings == {}
    assert list(np.flatnonzero(index.empty_mask)) == [0, 1, 2, 3]


def test_query_isolated_fingerprint():
    m = make_matrix([{A: -40}, {B: -50}, {C: -60}])
    index = build_index(m)
    assert region_query(1, 0.22, index, m) == {1}


def test_query_empty_run():
    scans = [{A: -40}] * 4 + [{}] * 3 + [{A: -40}] * 3
    m = make_matrix(scans)
    index = build_index(m)
    assert region_query(5, 0.22, index, m) == {4, 5, 6}
    # run edges only reach their empty neighbor
    assert region_query(4, 0.22, index, m) == {4, 5}


def test_query_validation():
    m = make_matrix([{A: -40}])
    index = build_index(m)
    with pytest.raises(IndexRangeError):
        region_query(1, 0.22, index, m)
    with pytest.raises(IndexRangeError):
        region_query(-1, 0.22, index, m)
    with pytest.raises(ConfigError):
        region_query(0, 2.0, index, m)
    with pytest.raises(ConfigError):
        region_query(0, -0.1, index, m)


def test_self_membership(rng):
    m = random_scan_matrix(rng, 60, empty_prob=0.2)
    index = build_index(m)
    for q in range(m.T):
        for eps in (0.0, 0.22, 1.5):
            assert q in region_query(q, eps, index, m)


def test_index_invariants(rng):
    m = random_scan_matrix(rng, 120, empty_prob=0.15)
    index = build_index(m)
    for ap, lst in index.postings.items():
        assert all(a < b for a, b in zip(lst, lst[1:]))  # strictly ascending
        for i, r in zip(lst, index.posting_ranks[ap]):
            assert m.fingerprints[i].ranks()[ap] == r
    for i, fp in enumerate(m.fingerprints):
        ranks = fp.ranks()
        assert set(ranks) == set(fp.powers)
        k = len(ranks)
        assert sum(ranks.values()) == k * (k + 1) / 2
        assert index.k[i] == k
        assert index.empty_mask[i] == fp.is_empty()


def test_matches_linear_scan(rng):
    m = random_scan_matrix(rng, 400, ap_pool=30, empty_prob=0.1)
    index = build_index(m)
    for eps in (0.1, 0.22, 0.9):
        for q in range(m.T):
            assert region_query(q, eps, index, m) == region_scan(m, q, eps)


def test_pruning_soundness(rng):
    m = random_scan_matrix(rng, 150, ap_pool=25, empty_prob=0.1)
    index = build_index(m)
    for q in range(0, m.T, 7):
        fq = m.fingerprints[q]
        if fq.is_empty():
            window = {q - 1, q, q + 1}
            candidates = {i for i in window if 0 <= i < m.T and index.empty_mask[i]}
        else:
            candidates = set()
            for ap in fq.powers:
                candidates.update(int(i) for i in index.postings[ap])
        for i in range(m.T):
            if i not in candidates:
                assert distance(fq, m.fingerprints[i], q, i).value == 2.0


_scans = st.lists(
    st.dictionaries(st.integers(0, 5).map(mac), st.integers(-70, -40), max_size=4),
    min_size=1, max_size=25,
)


@settings(max_examples=300, deadline=None)
@given(
    _scans,
    st.floats(0.0, 1.5),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 3)), max_size=40),
    st.randoms(),
)
def test_live_query_equals_filtered_query(scans, eps, steps, rnd):
    """Queries with a shrinking `live` mask on one private copy return the
    unmasked result filtered by `live`; the shared index is left alone."""
    m = make_matrix(scans)
    index = build_index(m)
    before = {ap: a.copy() for ap, a in index.postings.items()}
    private = replace(index, postings=dict(index.postings),
                      posting_ranks=dict(index.posting_ranks))
    live = np.ones(m.T, dtype=bool)
    settle = rnd.sample(range(m.T), m.T)  # the order fingerprints leave `live`
    for raw_q, n_settled in steps:
        live[settle[:n_settled]] = False
        del settle[:n_settled]
        q = raw_q % m.T
        full = region_query_arr(q, eps, index, m)
        assert np.array_equal(region_query_arr(q, eps, private, m, live), full[live[full]])
    for ap, a in private.postings.items():
        assert np.array_equal(private.posting_ranks[ap],
                              index.posting_ranks[ap][np.isin(index.postings[ap], a)])
    assert index.postings.keys() == before.keys()
    assert all(np.array_equal(index.postings[ap], a) for ap, a in before.items())
