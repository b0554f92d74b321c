"""Eps-neighbourhoods of fingerprints, from one transposed rank matrix.

Only fingerprints sharing at least one AP with the query can be closer
than the maximal distance 2. The index holds one thing: `zt`, the N x T
transpose of Z = B + iR, where R is the matrix's rank CSR and B its 0/1
pattern. Row a of `zt` holds AP a's readings in scan order, each stored
as 1 + i*rank. For rank rows Q, the sparse products B_Q @ zt = o + i s_rc
and R_Q @ zt = s_rq + i s_cross hold, for every fingerprint sharing an
AP with a row of Q, the shared-AP count and the shared-AP rank sums
from which one formula (`_rank_distances`) gives the exact distance.

A region query is that product for one row. Many neighbourhoods at once
come from one blocked sparse self-join (`_join`), which computes each
pair of rows sharing an AP once: `eps_edges` joins a stream's leading
fingerprints, building its operand with no index, and `neighbourhoods`
joins the first fingerprint of each distinct non-empty rank map against
those fingerprints' columns of `zt`.

Per-scan AP counts `k` and sums of squared ranks are views of the
matrix. Empty fingerprints never share an AP, yet an empty pair at
adjacent stream positions has distance 0; the region query finds those
pairs from `k == 0`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Set, Tuple

import numpy as np
from scipy.sparse import csr_matrix, identity

from .errors import ConfigError, IndexRangeError
from .model import FingerprintMatrix

# `zt` entries per block of `_join`'s sparse products; bounds their size
_JOIN_ENTRIES = 2**17


@dataclass
class FingerprintIndex:
    """Z.T of one fingerprint matrix, the operand its joins multiply by;
    nothing rewrites it."""

    zt: csr_matrix  # N x T: row a is AP a's readings in ascending scan order, each 1 + i*rank

    @cached_property
    def postings(self) -> Dict[int, np.ndarray]:
        """AP id -> ascending fingerprint indices, for each AP read at least
        once; a view no pipeline stage reads"""
        rows = np.split(self.zt.indices, self.zt.indptr[1:-1])
        return {ap: r for ap, r in enumerate(rows) if len(r)}


def _transpose(ranks: csr_matrix) -> csr_matrix:
    """Z.T for the rank rows `ranks`, with Z = B + iR and B their 0/1 pattern."""
    return csr_matrix((1.0 + 1j * ranks.data, ranks.indices, ranks.indptr),
                      ranks.shape).T.tocsr()


def build_index(m: FingerprintMatrix) -> FingerprintIndex:
    """Z.T of m's rank CSR: each AP's readings, in scan order."""
    return FingerprintIndex(zt=_transpose(_rank_csr(m)))


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


def _join(ranks: csr_matrix, zt: csr_matrix, sumsq: np.ndarray,
          eps: float) -> Tuple[np.ndarray, np.ndarray]:
    """Every pair j < t of the n rows of `ranks` within eps, as an int32
    CSR (indptr, tails): row t's tails are indptr[t]:indptr[t + 1].

    One blocked sparse self-join (an all-pairs similarity search;
    Bayardo, Ma & Srikant, WWW 2007). `ranks` is the n x N rank matrix R
    of the rows, `zt` the transpose of Z = B + iR (`_transpose(ranks)`),
    and `sumsq` each row's sum of squared ranks. A block of heads [lo, hi)
    gets B[lo:hi] @ Z[:hi].T = o + i s_rc and R[lo:hi] @ Z[:hi].T = s_rq +
    i s_cross for every pair sharing an AP. No entry is 0, so the two
    products hold the same pairs in the same order. The pairs t > j go
    through `_rank_distances`, once each.
    """
    n = ranks.shape[0]
    pattern = csr_matrix((np.ones_like(ranks.data), ranks.indices, ranks.indptr), ranks.shape)
    k = np.diff(ranks.indptr).astype(np.float64)
    # per head, its `zt` entries up to itself; a block's products hold
    # about their sum before duplicates merge, so blocks take at most
    # _JOIN_ENTRIES of them (one head at least)
    upto = np.arange(1, zt.nnz + 1) - np.repeat(zt.indptr[:-1], np.diff(zt.indptr))
    ends = np.concatenate([[0.0], np.cumsum(np.bincount(zt.indices, upto, minlength=n))])
    counts, tails = [np.zeros(1, np.int64)], [np.empty(0, np.int32)]
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] + _JOIN_ENTRIES, "right")) - 1)
        zt_hi = zt[:, :hi]
        shared = pattern[lo:hi] @ zt_hi  # o + i s_rc
        query = ranks[lo:hi] @ zt_hi     # s_rq + i s_cross
        t = np.repeat(np.arange(lo, hi, dtype=np.int32), np.diff(shared.indptr))
        pair = shared.indices < t
        t, j = t[pair], shared.indices[pair]
        shared, query = shared.data[pair], query.data[pair]
        dist = _rank_distances(k[t], k[j], shared.real, query.real, shared.imag, query.imag,
                               sumsq[t], sumsq[j])
        close = dist <= eps
        counts.append(np.bincount(t[close] - lo, minlength=hi - lo))
        tails.append(j[close].astype(np.int32, copy=False))
        lo = hi
    return np.cumsum(np.concatenate(counts)), np.concatenate(tails)


def _rank_csr(m: FingerprintMatrix) -> csr_matrix:
    return csr_matrix((m.ranks, m.ap_ids, m.indptr), shape=(m.T, len(m.aps)))


def eps_edges(m: FingerprintMatrix, n: int, eps: float) -> Tuple[np.ndarray, np.ndarray]:
    """Every pair j < t < n of m's fingerprints within eps, as int32 arrays
    (head t, tail j) in ascending head order.

    One `_join` over the first n fingerprints. Adjacent empty
    fingerprints are at distance 0 and share no AP, so they are added
    apart.
    """
    ranks = _rank_csr(m)[:n]
    indptr, tail = _join(ranks, _transpose(ranks), m.rank_sumsq[:n], eps)
    head = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
    empty = m.k[:n] == 0
    empty_heads = np.flatnonzero(empty[1:] & empty[:-1]).astype(np.int32) + 1
    at = np.searchsorted(head, empty_heads)  # an empty head has no shared-AP pair
    return np.insert(head, at, empty_heads), np.insert(tail, at, empty_heads - 1)


def neighbourhoods(
    m: FingerprintMatrix, eps: float, index: FingerprintIndex
) -> Dict[bytes, np.ndarray]:
    """Each distinct non-empty rank map's eps-neighbourhood in m, keyed by
    its `m.rank_keys` entry: the ascending int32 indices of every
    fingerprint within eps of a fingerprint with that map, itself and its
    repeats included (`region_query_arr`'s `memo`).

    Equal rank maps are at distance 0 from each other and at the same
    distance from every other fingerprint, so they share one
    neighbourhood. One `_join` over the first fingerprint of each of the
    U distinct maps, whose transposed operand is those fingerprints'
    columns of `index.zt`, finds the map pairs within eps; each map's
    neighbourhood is the members of the maps paired with it, and of
    itself. The neighbourhoods are views of one int32 array, so memory
    grows with the sum, over distinct maps, of their neighbourhood sizes.
    """
    # map ids in order of first occurrence; an empty scan's key is b""
    ids = {key: u for u, key in enumerate(dict.fromkeys(filter(None, m.rank_keys)))}
    U = len(ids)
    if not U:
        return {}
    of_scan = np.array([ids.get(key, -1) for key in m.rank_keys], dtype=np.int32)
    values, firsts = np.unique(of_scan, return_index=True)
    firsts = firsts[values >= 0]
    indptr, tails = _join(_rank_csr(m)[firsts], index.zt[:, firsts], m.rank_sumsq[firsts], eps)
    lower = csr_matrix((np.ones(len(tails), dtype=bool), tails, indptr), shape=(U, U))
    maps = lower + lower.T + identity(U, dtype=bool, format="csr")
    nonempty = np.flatnonzero(of_scan >= 0)  # ascending, so each map's members ascend
    members = csr_matrix((np.ones(len(nonempty), dtype=bool), (of_scan[nonempty], nonempty)),
                         shape=(U, m.T))
    neigh = maps @ members
    neigh.sort_indices()
    cuts = neigh.indptr.tolist()
    return {key: neigh.indices[cuts[u]:cuts[u + 1]] for key, u in ids.items()}


def region_query_arr(
    q: int,
    eps: float,
    index: FingerprintIndex,
    m: FingerprintMatrix,
    memo: Optional[Dict[bytes, np.ndarray]] = None,
) -> np.ndarray:
    """Indices of all fingerprints within eps of fingerprint q (array form),
    ascending.

    A non-empty query is a one-row join: its pattern row B_q and rank row
    R_q, stacked, times `index.zt` give every fingerprint sharing an AP
    with it, with the sums `_rank_distances` takes. No entry of either
    product row is 0, so both list the same fingerprints in the same
    order, as in `_join`. With a `memo` from `neighbourhoods`
    (same eps, same matrix), a non-empty query returns its rank map's
    entry and computes no distances.
    """
    T = m.T
    if not 0 <= q < T:
        raise IndexRangeError(f"query index {q} out of range [0, {T})")
    if not 0.0 <= eps < 2.0:
        raise ConfigError(f"eps must be in [0, 2), got {eps}")
    if m.k[q] == 0:
        lo, hi = max(0, q - 1), min(T, q + 2)
        return np.arange(lo, hi)[m.k[lo:hi] == 0]
    if memo is not None:
        return memo[m.rank_keys[q]]
    lo, hi = m.indptr[q], m.indptr[q + 1]
    rows = csr_matrix((np.concatenate([np.ones(hi - lo), m.ranks[lo:hi]]),
                       np.tile(m.ap_ids[lo:hi], 2), [0, hi - lo, 2 * (hi - lo)]),
                      shape=(2, len(m.aps)))
    both = rows @ index.zt  # row 0: o + i s_rc, row 1: s_rq + i s_cross
    cut = both.indptr[1]
    c, shared, query = both.indices[:cut], both.data[:cut], both.data[cut:]
    dist = _rank_distances(float(m.k[q]), m.k[c].astype(np.float64), shared.real,
                           query.real, shared.imag, query.imag,
                           m.rank_sumsq[q], m.rank_sumsq[c])
    return np.sort(c[dist <= eps])


def region_query(
    q: int, eps: float, index: FingerprintIndex, m: FingerprintMatrix
) -> Set[int]:
    """Exactly { i : distance(f_q, f_i, q, i) <= eps }, including q itself."""
    return set(int(i) for i in region_query_arr(q, eps, index, m))
