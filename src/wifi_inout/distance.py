"""Sparse-adapted Spearman rank distance between fingerprints.

The distance ranks the APs of each fingerprint by descending power
(rank 1 = strongest, equal powers share the average rank). APs present in
only one fingerprint of the pair rank below every present AP, tied among
themselves; the tied rank has the closed form k + (m + 1) / 2 where k is
the fingerprint's own AP count and m the number of union APs it lacks.
This avoids materializing an explicit epsilon smaller than every power.

The value is 6 * sum(d_i^2) / (n * (n^2 - 1)) = 1 - rho on the union of
the two AP sets, with a five-way case table covering empty, disjoint, and
single-AP pairs. Values lie in [0, 2]. The triangle inequality does NOT
hold for this measure; nothing downstream may assume it.

This scalar `distance` is the reference that the oracle tests check; no
pipeline stage calls it. Clustering and the self-join compute the same
values for many pairs at once with `fpindex._rank_distances`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import Fingerprint


class DistanceCase(str, Enum):
    EMPTY_ADJACENT = "empty-adjacent"
    EMPTY_NONADJACENT = "empty-nonadjacent"
    DISJOINT = "disjoint"
    SINGLE_IDENTICAL = "single-identical"
    SPEARMAN = "spearman"


@dataclass(frozen=True)
class DistanceValue:
    value: float
    case: DistanceCase


def distance(x: Fingerprint, y: Fingerprint, i: int, j: int) -> DistanceValue:
    """Distance between fingerprints at stream positions i and j.

    Case table:
      both empty, |i-j| <= 1        -> 0   (adjacent empties chain; the
                                            <= also makes d(f,f) = 0)
      both empty, |i-j| >  1        -> 2
      AP sets disjoint              -> 2   (covers one-empty pairs)
      AP sets equal with one AP     -> 0   (n = 1 leaves rho undefined)
      otherwise                     -> 1 - rho over the union ranking
    """
    ex, ey = x.is_empty(), y.is_empty()
    if ex and ey:
        if abs(i - j) <= 1:
            return DistanceValue(0.0, DistanceCase.EMPTY_ADJACENT)
        return DistanceValue(2.0, DistanceCase.EMPTY_NONADJACENT)

    rx = x.ranks()
    ry = y.ranks()
    kx, ky = len(rx), len(ry)
    overlap = 0
    s = 0.0
    # union pass via the two key sets; absent-AP ranks in closed form
    n = 0  # filled after overlap is known
    for a in rx:
        if a in ry:
            overlap += 1
    if overlap == 0:
        return DistanceValue(2.0, DistanceCase.DISJOINT)
    if kx == 1 and ky == 1:
        # overlap == 1 here, so the single AP is shared
        return DistanceValue(0.0, DistanceCase.SINGLE_IDENTICAL)

    n = kx + ky - overlap
    miss_x = kx + (n - kx + 1) / 2.0
    miss_y = ky + (n - ky + 1) / 2.0
    for a, r in rx.items():
        o = ry.get(a)
        d = r - (o if o is not None else miss_y)
        s += d * d
    for a, r in ry.items():
        if a not in rx:
            d = miss_x - r
            s += d * d
    # 1 - rho computed directly (Spearman's formula); s is an exact sum of
    # quarter-integers so this matches the vectorized index path bit for bit
    value = 6.0 * s / (n * (n * n - 1))
    return DistanceValue(value, DistanceCase.SPEARMAN)
