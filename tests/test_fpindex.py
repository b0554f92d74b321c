import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wifi_inout import fpindex
from wifi_inout.errors import ConfigError, IndexRangeError
from wifi_inout.fpindex import (
    build_index, eps_edges, neighbourhoods, region_query, region_query_arr,
)
from wifi_inout.distance import distance

from conftest import mac, make_matrix, random_scan_matrix
from oracles import region_scan

A = "0a:00:00:00:00:01"
B = "0b:00:00:00:00:02"
C = "0c:00:00:00:00:03"


def test_postings_cover_shared_ap():
    m = make_matrix([{A: -40}, {A: -50, B: -60}, {A: -45}])
    index = build_index(m)
    assert list(index.postings[m.aps.index(A)]) == [0, 1, 2]
    assert list(index.postings[m.aps.index(B)]) == [1]


def test_index_entry_is_one_plus_i_rank():
    m = make_matrix([{A: -40, B: -60}])
    index = build_index(m)
    assert m.fingerprints[0].ranks() == {A: 1.0, B: 2.0}
    assert index.zt.shape == (2, 1)
    assert index.zt[m.aps.index(A)].toarray().tolist() == [[1.0 + 1.0j]]
    assert index.zt[m.aps.index(B)].toarray().tolist() == [[1.0 + 2.0j]]
    assert m.k[0] == 2


def test_all_empty_matrix():
    m = make_matrix([{}, {}, {}, {}])
    index = build_index(m)
    assert index.postings == {}
    assert list(np.flatnonzero(m.k == 0)) == [0, 1, 2, 3]


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
    zt = index.zt
    assert zt.shape == (len(m.aps), m.T) and zt.nnz == int(m.k.sum())
    for ap in range(len(m.aps)):
        lo, hi = zt.indptr[ap], zt.indptr[ap + 1]
        rows = zt.indices[lo:hi]
        assert all(a < b for a, b in zip(rows, rows[1:]))  # strictly ascending
        for i, z in zip(rows, zt.data[lo:hi]):
            assert z == 1.0 + 1j * m.fingerprints[i].ranks()[m.aps[ap]]
    for i, fp in enumerate(m.fingerprints):
        ranks = fp.ranks()
        assert set(ranks) == set(fp.powers)
        k = len(ranks)
        assert sum(ranks.values()) == k * (k + 1) / 2
        assert m.k[i] == k
        assert (m.k[i] == 0) == fp.is_empty()


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
            candidates = {i for i in window if 0 <= i < m.T and m.k[i] == 0}
        else:
            candidates = set()
            for ap in fq.powers:
                candidates.update(int(i) for i in index.postings[m.aps.index(ap)])
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
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(-5, 5)), min_size=1, max_size=40),
    st.floats(0.0, 1.5),
    st.lists(st.integers(0, 10**6), max_size=40),
)
def test_memo_query_equals_filtered_query(pool, draws, eps, queries):
    """On scans that repeat rank maps (a pool scan shifted by a constant
    dBm), a query answered from the `neighbourhoods` memo returns the
    memo-less result."""
    scans = [{ap: r + shift for ap, r in pool[i % len(pool)].items()} for i, shift in draws]
    m = make_matrix(scans)
    index = build_index(m)
    memo = neighbourhoods(m, eps, index)
    for raw_q in queries:
        q = raw_q % m.T
        assert np.array_equal(region_query_arr(q, eps, index, m, memo),
                              region_query_arr(q, eps, index, m))


def reference_distances(q, m):
    """Every fingerprint sharing an AP with non-empty q, and its distance,
    in the six-bincount form kept as the reference for the index's one-row
    join: ranks come from `m.fingerprints`, and the squared ranks of shared
    APs are summed per candidate and enter both the shared and the
    one-sided terms."""
    ranks = [fp.ranks() for fp in m.fingerprints]
    ranks_q = ranks[q]
    cand, rq, rc = [], [], []
    for c, ranks_c in enumerate(ranks):
        for ap in ranks_q.keys() & ranks_c.keys():
            cand.append(c)
            rq.append(ranks_q[ap])
            rc.append(ranks_c[ap])
    rq, rc = np.array(rq), np.array(rc)

    uniq, inv = np.unique(cand, return_inverse=True)
    nb = len(uniq)
    o = np.bincount(inv, minlength=nb).astype(np.float64)
    s_rq = np.bincount(inv, weights=rq, minlength=nb)
    s_rc = np.bincount(inv, weights=rc, minlength=nb)
    s_rq2 = np.bincount(inv, weights=rq * rq, minlength=nb)
    s_rc2 = np.bincount(inv, weights=rc * rc, minlength=nb)
    s_cross = np.bincount(inv, weights=rq * rc, minlength=nb)

    kq = float(len(ranks_q))
    kc = np.array([len(ranks[c]) for c in uniq], dtype=np.float64)
    sumsq = np.array([sum(r * r for r in ranks[c].values()) for c in uniq])
    n = kq + kc - o
    mq = kq - o
    mc = kc - o
    a_c = kc + (mq + 1.0) / 2.0
    a_q = kq + (mc + 1.0) / 2.0
    sq_sum = kq * (kq + 1.0) / 2.0
    sc_sum = kc * (kc + 1.0) / 2.0

    shared = s_rq2 + s_rc2 - 2.0 * s_cross
    q_only = (sum(r * r for r in ranks_q.values()) - s_rq2) - 2.0 * a_c * (sq_sum - s_rq) \
        + mq * a_c * a_c
    c_only = (sumsq - s_rc2) - 2.0 * a_q * (sc_sum - s_rc) + mc * a_q * a_q
    ssd = shared + q_only + c_only

    dist = np.zeros(nb)
    nontrivial = n > 1.0
    denom = n * (n * n - 1.0)
    dist[nontrivial] = 6.0 * ssd[nontrivial] / denom[nontrivial]
    return uniq, dist


_wide_scans = st.lists(
    st.dictionaries(st.integers(0, 11).map(mac), st.integers(-60, -40), max_size=9),
    min_size=1, max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(_wide_scans, st.lists(st.integers(0, 10**6), max_size=40))
def test_region_query_equals_six_bincount_reference_at_each_distance(scans, queries):
    """With eps at each distance below 2 the reference finds, and just
    below it, a query returns exactly the reference's candidates within
    eps: a distance off by one bit either way crosses one of them."""
    m = make_matrix(scans)
    index = build_index(m)
    nonempty = np.flatnonzero(m.k)
    for raw_q in queries if len(nonempty) else []:
        q = int(nonempty[raw_q % len(nonempty)])
        uniq, dist = reference_distances(q, m)
        for d in np.unique(dist[dist < 2.0]):
            for eps in {float(d), float(np.nextafter(d, 0.0))}:
                assert np.array_equal(region_query_arr(q, eps, index, m), uniq[dist <= eps])


_tied_scans = st.lists(
    st.dictionaries(st.integers(0, 6).map(mac), st.integers(-60, -57), max_size=5),
    min_size=1, max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(_tied_scans, st.one_of(st.just(0.0), st.floats(0.0, 1.5)), st.integers(1, 40),
       st.data())
def test_eps_edges_equal_brute_force_pairs(scans, eps, block, data):
    """The self-join finds exactly the pairs j < t < n within eps, in
    ascending t, at any block size (one head per block at the smallest);
    few RSSI levels make ties common."""
    m = make_matrix(scans)
    n = data.draw(st.integers(0, m.T))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fpindex, "_JOIN_ENTRIES", block)
        head, tail = eps_edges(m, n, eps)
    assert np.all(np.diff(head) >= 0)
    expected = {(t, j) for t in range(n) for j in region_scan(m, t, eps) if j < t}
    assert len(head) == len(expected)
    assert set(zip(head.tolist(), tail.tolist())) == expected
