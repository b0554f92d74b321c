"""Inverted AP->fingerprint index for eps-radius region queries.

Only fingerprints sharing at least one AP with the query can be closer
than the maximal distance 2, so the index keeps a postings list per AP,
each entry paired with the AP's rank in that fingerprint. A region query
unions the postings of the query's APs (whose ranks come from
`Fingerprint.ranks()`), then computes the exact rank distance for every
candidate in one vectorized pass.

Empty fingerprints never share an AP, yet an empty pair at adjacent
stream positions has distance 0; `empty_mask` marks the empty positions
and makes those pairs reachable, since AP postings alone can never
surface them.

A query given a `live` mask skips every fingerprint the mask clears and
drops those entries from the postings it reads, so later queries on the
same index never read them again. Only a private copy of an index that
one caller owns may be queried that way (see `region_query_arr`); every
other index is left as `build_index` made it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from .errors import ConfigError, IndexRangeError
from .model import FingerprintMatrix


@dataclass
class FingerprintIndex:
    """Index artifacts over one fingerprint matrix; only a query with a
    `live` mask rewrites `postings` and `posting_ranks`."""

    postings: Dict[str, np.ndarray]       # AP -> ascending fingerprint indices
    posting_ranks: Dict[str, np.ndarray]  # parallel: rank of the AP in that fingerprint
    k: np.ndarray                         # per fingerprint: AP count
    rank_sumsq: np.ndarray                # per fingerprint: sum of squared ranks
    empty_mask: np.ndarray                # bool per fingerprint

    @property
    def T(self) -> int:
        return len(self.k)


def build_index(m: FingerprintMatrix) -> FingerprintIndex:
    T = m.T
    post_idx: Dict[str, List[int]] = {}
    post_rank: Dict[str, List[float]] = {}
    k = np.zeros(T, dtype=np.int64)
    rank_sumsq = np.zeros(T, dtype=np.float64)
    empty_mask = np.zeros(T, dtype=bool)

    for i, fp in enumerate(m.fingerprints):
        ranks = fp.ranks()
        k[i] = len(ranks)
        if not ranks:
            empty_mask[i] = True
            continue
        rank_sumsq[i] = sum(r * r for r in ranks.values())
        for ap, r in ranks.items():
            post_idx.setdefault(ap, []).append(i)
            post_rank.setdefault(ap, []).append(r)

    postings = {a: np.asarray(v, dtype=np.int64) for a, v in post_idx.items()}
    posting_ranks = {a: np.asarray(v, dtype=np.float64) for a, v in post_rank.items()}
    return FingerprintIndex(
        postings=postings,
        posting_ranks=posting_ranks,
        k=k,
        rank_sumsq=rank_sumsq,
        empty_mask=empty_mask,
    )


def _candidate_distances(
    q: int, index: FingerprintIndex, m: FingerprintMatrix, live: Optional[np.ndarray] = None
):
    """All (live) fingerprints sharing an AP with non-empty query q, with
    exact distances. Returns (candidate indices, distances) as arrays.
    With `live`, a posting list holding non-live entries is replaced in
    `index` by its live part."""
    ranks_q = m.fingerprints[q].ranks()
    chunks_idx = []
    chunks_rc = []
    for ap in ranks_q:
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
    rq = np.repeat(
        np.fromiter(ranks_q.values(), float, len(ranks_q)), [len(a) for a in chunks_idx]
    )
    rc = np.concatenate(chunks_rc)

    uniq, inv = np.unique(cand, return_inverse=True)
    nb = len(uniq)
    o = np.bincount(inv, minlength=nb).astype(np.float64)
    s_rq = np.bincount(inv, weights=rq, minlength=nb)
    s_rc = np.bincount(inv, weights=rc, minlength=nb)
    s_cross = np.bincount(inv, weights=rq * rc, minlength=nb)

    kq = float(index.k[q])
    kc = index.k[uniq].astype(np.float64)
    n = kq + kc - o
    mq = kq - o                     # union APs missing from the candidate
    mc = kc - o                     # union APs missing from the query
    a_c = kc + (mq + 1.0) / 2.0     # tied rank a query-only AP takes in c
    a_q = kq + (mc + 1.0) / 2.0     # tied rank a candidate-only AP takes in q
    sq_sum = kq * (kq + 1.0) / 2.0  # rank sums are k(k+1)/2 even with ties
    sc_sum = kc * (kc + 1.0) / 2.0

    # (rq - rc)^2 over shared APs plus each side's missing APs at their tied
    # rank; the shared rq^2 and rc^2 are inside rank_sumsq. Every term is an
    # exact quarter-integer, so no order of summation changes a bit.
    q_only = index.rank_sumsq[q] - 2.0 * a_c * (sq_sum - s_rq) + mq * a_c * a_c
    c_only = index.rank_sumsq[uniq] - 2.0 * a_q * (sc_sum - s_rc) + mc * a_q * a_q
    ssd = q_only + c_only - 2.0 * s_cross

    dist = np.zeros(nb)
    nontrivial = n > 1.0  # n == 1 means identical single-AP pair: distance 0
    denom = n * (n * n - 1.0)
    dist[nontrivial] = 6.0 * ssd[nontrivial] / denom[nontrivial]
    return uniq, dist


def region_query_arr(
    q: int,
    eps: float,
    index: FingerprintIndex,
    m: FingerprintMatrix,
    live: Optional[np.ndarray] = None,
    memo: Optional[Dict[frozenset, np.ndarray]] = None,
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
    already had takes that answer, filtered by the current `live`, and
    computes no distances. Equal rank maps are at distance 0 from each
    other and at the same distance from every other fingerprint, so they
    have the same eps-neighbourhood; and since `live` only shrinks, the
    earlier answer's live part is the live part of that neighbourhood.
    One memo serves queries with one eps on one index and one `live`.
    """
    T = index.T
    if not 0 <= q < T:
        raise IndexRangeError(f"query index {q} out of range [0, {T})")
    if not 0.0 <= eps < 2.0:
        raise ConfigError(f"eps must be in [0, 2), got {eps}")
    if index.empty_mask[q]:
        lo, hi = max(0, q - 1), min(T, q + 2)
        keep = index.empty_mask[lo:hi]
        if live is not None:
            keep = keep & live[lo:hi]
        return np.arange(lo, hi)[keep]
    if memo is not None:
        key = frozenset(m.fingerprints[q].ranks().items())
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
