"""Inverted AP->fingerprint index for eps-radius region queries.

Only fingerprints sharing at least one AP with the query can be closer
than the maximal distance 2, so the index keeps a postings list per AP
(keyed by its id in the matrix's name table), each entry paired with the
AP's rank in that fingerprint: the CSC transpose of the matrix's rank
CSR. A region query unions the postings of the APs in the query's row,
then computes the exact rank distance for every candidate in one
vectorized pass.

The index holds only the postings; per-scan AP counts `k` and sums of
squared ranks are views of the matrix. Empty fingerprints never share
an AP, yet an empty pair at adjacent stream positions has distance 0;
the region query finds those pairs from `k == 0`.

`eps_edges` finds every eps-pair of a stream's leading fingerprints at
once, from sparse products of the matrix's rank CSR, with no index; it
and the region query compute distances with one formula
(`_rank_distances`).

A query given a `live` mask skips every fingerprint the mask clears and
drops those entries from the postings it reads, so later queries on the
same index never read them again. Only a private copy of an index that
one caller owns may be queried that way (see `region_query_arr`); every
other index is left as `build_index` made it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from .errors import ConfigError, IndexRangeError
from .model import FingerprintMatrix

# query rows per sparse product in `eps_edges`; bounds the product's size
_JOIN_BLOCK = 128


@dataclass
class FingerprintIndex:
    """The postings of one fingerprint matrix; only a query with a `live`
    mask rewrites them."""

    postings: Dict[int, np.ndarray]       # AP id -> ascending fingerprint indices
    posting_ranks: Dict[int, np.ndarray]  # parallel: rank of the AP in that fingerprint


def build_index(m: FingerprintMatrix) -> FingerprintIndex:
    """The CSC transpose of m's rank CSR: each AP's readings, in row order."""
    by_ap = np.argsort(m.ap_ids, kind="stable")  # stable: each AP's rows stay ascending
    bounds = np.searchsorted(m.ap_ids[by_ap], np.arange(len(m.aps) + 1)).tolist()
    rows, ranks = m.rows[by_ap], m.ranks[by_ap]
    postings: Dict[int, np.ndarray] = {}
    posting_ranks: Dict[int, np.ndarray] = {}
    for ap, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if hi > lo:  # a prefix's name table may hold APs it never read
            postings[ap], posting_ranks[ap] = rows[lo:hi], ranks[lo:hi]
    return FingerprintIndex(postings=postings, posting_ranks=posting_ranks)


def _candidate_distances(
    q: int, index: FingerprintIndex, m: FingerprintMatrix, live: Optional[np.ndarray] = None
):
    """All (live) fingerprints sharing an AP with non-empty query q, with
    exact distances. Returns (candidate indices, distances) as arrays.
    With `live`, a posting list holding non-live entries is replaced in
    `index` by its live part."""
    lo, hi = m.indptr[q], m.indptr[q + 1]
    chunks_idx = []
    chunks_rc = []
    for ap in m.ap_ids[lo:hi].tolist():
        arr = index.postings[ap]
        rc = index.posting_ranks[ap]
        if live is not None:
            keep = live[arr]
            if not keep.all():
                arr = index.postings[ap] = arr[keep]
                rc = index.posting_ranks[ap] = rc[keep]
        chunks_idx.append(arr)
        chunks_rc.append(rc)
    cand = np.concatenate(chunks_idx)
    rq = np.repeat(m.ranks[lo:hi], [len(a) for a in chunks_idx])
    rc = np.concatenate(chunks_rc)

    uniq, inv = np.unique(cand, return_inverse=True)
    nb = len(uniq)
    o = np.bincount(inv, minlength=nb).astype(np.float64)
    s_rq = np.bincount(inv, weights=rq, minlength=nb)
    s_rc = np.bincount(inv, weights=rc, minlength=nb)
    s_cross = np.bincount(inv, weights=rq * rc, minlength=nb)
    dist = _rank_distances(float(m.k[q]), m.k[uniq].astype(np.float64), o,
                           s_rq, s_rc, s_cross, m.rank_sumsq[q], m.rank_sumsq[uniq])
    return uniq, dist


def _rank_distances(kq, kc, o, s_rq, s_rc, s_cross, sumsq_q, sumsq_c):
    """Exact rank distances of query/candidate pairs sharing o >= 1 APs,
    from the AP counts kq and kc, the sums over the shared APs of the
    query's ranks s_rq, the candidate's ranks s_rc and their products
    s_cross, and each side's sum of squared ranks. Scalars broadcast."""
    n = kq + kc - o
    mq = kq - o                     # union APs missing from the candidate
    mc = kc - o                     # union APs missing from the query
    a_c = kc + (mq + 1.0) / 2.0     # tied rank a query-only AP takes in c
    a_q = kq + (mc + 1.0) / 2.0     # tied rank a candidate-only AP takes in q
    # rank sums are k(k+1)/2 even with ties; (rq - rc)^2 over shared APs
    # plus each side's missing APs at their tied rank, where the shared rq^2
    # and rc^2 are inside the sums of squared ranks. Every term is an exact
    # quarter-integer, so no order of summation changes a bit.
    q_only = sumsq_q - 2.0 * a_c * (kq * (kq + 1.0) / 2.0 - s_rq) + mq * a_c * a_c
    c_only = sumsq_c - 2.0 * a_q * (kc * (kc + 1.0) / 2.0 - s_rc) + mc * a_q * a_q
    ssd = q_only + c_only - 2.0 * s_cross
    # n == 1 is an identical single-AP pair: ssd is 0, and so the distance
    return 6.0 * ssd / np.where(n > 1.0, n * (n * n - 1.0), 1.0)


def eps_edges(m: FingerprintMatrix, n: int, eps: float) -> Tuple[np.ndarray, np.ndarray]:
    """Every pair j < t < n of m's fingerprints within eps, as arrays
    (head t, tail j) in ascending head order.

    One blocked sparse self-join over the first n fingerprints (an
    all-pairs similarity search; Bayardo, Ma & Srikant, WWW 2007). With R
    their n x N rank matrix (m's rank CSR), B its 0/1 pattern and Z = B +
    iR, a block of heads [lo, hi) gets B[lo:hi] @ Z[:hi].T = o + i s_rc
    and R[lo:hi] @ Z[:hi].T = s_rq + i s_cross for every pair sharing an
    AP. No entry is 0, so the two products hold the same pairs in the
    same order. The pairs t > j go through `_rank_distances`, once each.
    Adjacent empty fingerprints are at distance 0 and share no AP, so
    they are added apart.
    """
    ranks = csr_matrix((m.ranks, m.ap_ids, m.indptr), shape=(m.T, len(m.aps)))[:n]
    pattern = csr_matrix((np.ones_like(ranks.data), ranks.indices, ranks.indptr), ranks.shape)
    z = csr_matrix((1.0 + 1j * ranks.data, ranks.indices, ranks.indptr), ranks.shape)
    k = m.k.astype(np.float64)
    empty = m.k[:n] == 0
    empty_heads = np.flatnonzero(empty[1:] & empty[:-1]).astype(np.int32) + 1
    heads, tails = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
    for lo in range(0, n, _JOIN_BLOCK):
        hi = min(n, lo + _JOIN_BLOCK)
        zt = z[:hi].T.tocsr()
        shared = pattern[lo:hi] @ zt   # o + i s_rc
        query = ranks[lo:hi] @ zt      # s_rq + i s_cross
        t = np.repeat(np.arange(lo, hi, dtype=np.int32), np.diff(shared.indptr))
        pair = shared.indices < t
        t, j = t[pair], shared.indices[pair]
        shared, query = shared.data[pair], query.data[pair]
        dist = _rank_distances(k[t], k[j], shared.real, query.real, shared.imag, query.imag,
                               m.rank_sumsq[t], m.rank_sumsq[j])
        close = dist <= eps
        t, j = t[close], j[close]
        e = empty_heads[np.searchsorted(empty_heads, lo):np.searchsorted(empty_heads, hi)]
        at = np.searchsorted(t, e)  # an empty head has no shared-AP pair
        heads.append(np.insert(t, at, e))
        tails.append(np.insert(j, at, e - 1))
    return np.concatenate(heads), np.concatenate(tails)


def region_query_arr(
    q: int,
    eps: float,
    index: FingerprintIndex,
    m: FingerprintMatrix,
    live: Optional[np.ndarray] = None,
    memo: Optional[Dict[bytes, np.ndarray]] = None,
) -> np.ndarray:
    """Indices of all fingerprints within eps of fingerprint q (array form).

    With a bool mask `live` over the T fingerprints, only live ones are
    returned, and the non-live entries of the postings this query reads
    are removed from `index` for good. That is sound only while `live`
    only ever shrinks across queries on `index` (a fingerprint once
    cleared is never set again), and only on an index no other caller
    reads: pass a copy whose `postings` and `posting_ranks` dicts are
    the caller's own.

    With a dict `memo`, a non-empty query whose rank map an earlier query
    already had (an equal `m.rank_keys` entry) takes that answer, filtered
    by the current `live`, and computes no distances. Equal rank maps are
    at distance 0 from each other and at the same distance from every
    other fingerprint, so they have the same eps-neighbourhood; and since
    `live` only shrinks, the earlier answer's live part is the live part
    of that neighbourhood.
    One memo serves queries with one eps on one index and one `live`.
    """
    T = m.T
    if not 0 <= q < T:
        raise IndexRangeError(f"query index {q} out of range [0, {T})")
    if not 0.0 <= eps < 2.0:
        raise ConfigError(f"eps must be in [0, 2), got {eps}")
    if m.k[q] == 0:
        lo, hi = max(0, q - 1), min(T, q + 2)
        keep = m.k[lo:hi] == 0
        if live is not None:
            keep = keep & live[lo:hi]
        return np.arange(lo, hi)[keep]
    if memo is not None:
        key = m.rank_keys[q]
        hit = memo.get(key)
        if hit is not None:
            return hit if live is None else hit[live[hit]]
    uniq, dist = _candidate_distances(q, index, m, live)
    neigh = uniq[dist <= eps]
    if memo is not None:
        memo[key] = neigh
    return neigh


def region_query(
    q: int, eps: float, index: FingerprintIndex, m: FingerprintMatrix
) -> Set[int]:
    """Exactly { i : distance(f_q, f_i, q, i) <= eps }, including q itself."""
    return set(int(i) for i in region_query_arr(q, eps, index, m))
