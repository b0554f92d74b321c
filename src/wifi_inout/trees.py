"""Weighted binary decision trees (CART-style) used by both ensembles.

Splits maximize the weighted impurity-mass decrease: Gini for
classification, squared error for the boosting stage's gradient fits.
Integer instance weights enter every statistic as multiplicities, so a
point of weight k and k unit-weight copies produce bit-identical split
gains (weighted sums of integers are exact in float64). Each internal
node stores its split's gain in `Tree.gain` (0 at a leaf): the one
record of how much a split decreased impurity, from which impurity
importance per feature can be summed (Breiman, Random Forests, 2001).

Split search scans each column in sorted order, and a column is sorted at
most once per path: a node's rows sorted by feature f are its parent's
sorted rows for f filtered by the split's side, as in SLIQ's presorted
attribute lists (Mehta, Agrawal & Rissanen, EDBT 1996). The filter keeps
the stable order of the root, whose ties fall by row index, and a node's
own rows stay ascending, so the order is the stable argsort of the
node's column that a fresh sort would give, and trees are bit-identical
to sorting at every node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import FormatError, require_int64, require_number

_MIN_GAIN = 1e-12


@dataclass
class Tree:
    """Flattened tree arrays; feature[i] == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    gain: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id per row (x <= threshold routes left): the walk of
        an ensemble of this one tree (`Ensemble.apply`)."""
        return Ensemble.pack([self]).apply(X)[0]

    def check(self, n_features: int) -> None:
        """Raise FormatError unless every walk in `apply` ends at a leaf:
        children of an internal node lie after it and inside the tree."""
        n = self.feature.size
        arrays = (self.feature, self.threshold, self.left, self.right, self.value, self.gain)
        if n < 1 or any(a.shape != (n,) for a in arrays):
            raise FormatError("tree arrays must be non-empty and of equal length")
        if (self.feature < -1).any() or (self.feature >= n_features).any():
            raise FormatError(f"split feature out of range [0, {n_features})")
        leaf = self.feature == -1
        if (self.left[leaf] != -1).any() or (self.right[leaf] != -1).any():
            raise FormatError("a leaf (feature -1) has children")
        parent = np.flatnonzero(~leaf)
        for child in (self.left[parent], self.right[parent]):
            if ((child <= parent) | (child >= n)).any():
                raise FormatError("a child node must come after its parent, inside the tree")
        for name in ("threshold", "value", "gain"):
            if not np.isfinite(getattr(self, name)).all():
                raise FormatError(f"tree {name} array holds a non-finite value")

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
            "gain": self.gain.tolist(),
        }

    @staticmethod
    def from_dict(obj: dict) -> "Tree":
        for key in ("feature", "left", "right"):
            require_int64(obj[key], f"tree {key} entries")
        for key in ("threshold", "value", "gain"):
            require_number(obj[key], f"tree {key} entries")
        return Tree(
            feature=np.asarray(obj["feature"], dtype=np.int64),
            threshold=np.asarray(obj["threshold"], dtype=np.float64),
            left=np.asarray(obj["left"], dtype=np.int64),
            right=np.asarray(obj["right"], dtype=np.int64),
            value=np.asarray(obj["value"], dtype=np.float64),
            gain=np.asarray(obj["gain"], dtype=np.float64),
        )


@dataclass(frozen=True)
class Ensemble:
    """Several trees' arrays concatenated, child ids shifted by each
    tree's node offset, so one walk descends every (tree, row) pair (a
    vectorised ensemble traversal; Asadi, Lin & de Vries, IEEE TKDE 2014).

    A leaf loops to itself (both children are the leaf, split on column
    0), so pairs that reach a leaf early stay there while deeper trees
    go on. Trees are kept deepest first: pass d steps only the trees
    deeper than d, a leading block of rows of the walk's state.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray    # root id of each tree, deepest tree first
    order: np.ndarray    # order[i]: the given position of the i-th deepest tree
    deeper: np.ndarray   # deeper[d]: how many trees are deeper than d

    @staticmethod
    def pack(trees: List[Tree]) -> "Ensemble":
        sizes = [t.n_nodes for t in trees]
        offsets = np.concatenate([[0], np.cumsum(sizes[:-1], dtype=np.int64)])
        feature = np.concatenate([t.feature for t in trees])
        leaf = feature < 0
        ids = np.arange(len(feature))
        shift = np.repeat(offsets, sizes)
        left = np.concatenate([t.left for t in trees]) + shift
        right = np.concatenate([t.right for t in trees]) + shift
        # every tree's depth, one level of all trees at a time; children
        # come after their parent (`Tree.check`), so the levels end
        tree_of = np.repeat(np.arange(len(trees)), sizes)
        depth = np.zeros(len(trees), dtype=np.int64)
        inner, d = offsets[~leaf[offsets]], 0  # the internal nodes at depth d
        while inner.size:
            d += 1
            depth[tree_of[inner]] = d
            below = np.concatenate([left[inner], right[inner]])
            inner = below[~leaf[below]]
        order = np.argsort(-depth, kind="stable")
        return Ensemble(
            feature=np.where(leaf, 0, feature),
            threshold=np.concatenate([t.threshold for t in trees]),
            left=np.where(leaf, ids, left),
            right=np.where(leaf, ids, right),
            value=np.concatenate([t.value for t in trees]),
            roots=offsets[order],
            order=order,
            deeper=np.count_nonzero(depth > np.arange(depth.max(initial=0))[:, None], axis=1),
        )

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Packed leaf id of every (tree, row) pair, trees in their given
        order: all pairs descend together, one level per pass."""
        n, p = X.shape
        cells = np.arange(n) * p  # where each row starts in X.ravel()
        flat = X.ravel()
        node = np.repeat(self.roots[:, None], n, axis=1)
        for k in self.deeper:
            at = node[:k]
            go_left = flat[cells + self.feature[at]] <= self.threshold[at]
            node[:k] = np.where(go_left, self.left[at], self.right[at])
        leaves = np.empty_like(node)
        leaves[self.order] = node
        return leaves


def _impurity_mass(w_total, wy_total, wy2_total, criterion):
    """Weighted impurity times weight: W*gini or weighted SSE about the mean."""
    if criterion == "gini":
        w0 = w_total - wy_total
        return w_total - (wy_total * wy_total + w0 * w0) / w_total
    return wy2_total - (wy_total * wy_total) / w_total


def _best_split(xs, ys, ws, min_leaf, criterion):
    """(row, position, gain) of the best split over the rows of `xs`, each
    one column's values in ascending order beside their `ys` and `ws`, or
    None. The split is between positions i and i + 1 of its row; the first
    max wins ties: the earliest row, then the lowest threshold."""
    m = xs.shape[1]
    valid = np.zeros(xs.shape, dtype=bool)  # at the split after each position
    np.not_equal(xs[:, :-1], xs[:, 1:], out=valid[:, :-1])
    if min_leaf > 1:
        left_size = np.arange(1, m + 1)
        valid &= (left_size >= min_leaf) & (m - left_size >= min_leaf)
    at = np.flatnonzero(valid)  # row-major, so argmax below takes the first max
    if len(at) == 0:
        return None
    k = at // m
    cw = np.cumsum(ws, axis=1)
    cwy = np.cumsum(ws * ys, axis=1)
    cwy2 = np.cumsum(ws * ys * ys, axis=1)
    W, WY, WY2 = cw[:, -1], cwy[:, -1], cwy2[:, -1]
    parent = _impurity_mass(W, WY, WY2, criterion)
    wl, wyl, wy2l = cw.ravel()[at], cwy.ravel()[at], cwy2.ravel()[at]
    W, WY, WY2 = W[k], WY[k], WY2[k]
    lmass = _impurity_mass(wl, wyl, wy2l, criterion)
    rmass = _impurity_mass(W - wl, WY - wyl, WY2 - wy2l, criterion)
    gains = parent[k] - lmass - rmass
    best = int(np.argmax(gains))
    if gains[best] <= _MIN_GAIN:
        return None
    return int(k[best]), int(at[best] % m), float(gains[best])


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    *,
    criterion: str = "gini",
    max_depth: Optional[int] = None,
    min_leaf: int = 1,
    max_features: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    order: Optional[np.ndarray] = None,
) -> Tree:
    """Grow an unpruned tree; node values are weighted means of y.

    max_features draws a fresh random feature subset at every split
    (random-forest style); None considers every feature. `order`, the
    (p, n) stable per-column row order of X
    (`np.argsort(X, axis=0, kind="stable").T`), gives the root its rows
    sorted by every feature; without it a node sorts a feature the first
    time it is drawn on its path. A caller that grows many trees on one
    X sorts it once.
    """
    n, p = X.shape
    feature: List[int] = []
    threshold: List[float] = []
    left: List[int] = []
    right: List[int] = []
    value: List[float] = []
    gain: List[float] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        gain.append(0.0)
        return len(feature) - 1

    flat = X.ravel()  # X[r, f] is flat[r * p + f]
    goes_left = np.zeros(n, dtype=bool)  # of the rows of the node being split
    if order is None:
        order, slot = np.empty((0, n), dtype=np.int64), np.full(p, -1)
    else:
        slot = np.arange(p)
    root = new_node()
    # each node holds its rows ascending, and a block whose row slot[f] is
    # its rows sorted by feature f, for each f sorted on its path (slot -1:
    # none); a child's block is its parent's, to be filtered by its `side`
    stack = [(root, np.arange(n), order, None, slot, 0)]
    while stack:
        node, rows, block, side, slot, depth = stack.pop()
        yn, wn = y[rows], w[rows]
        W = wn.sum()
        value[node] = float((wn * yn).sum() / W)
        if (
            len(rows) < 2 * min_leaf
            or np.ptp(yn) == 0
            or (max_depth is not None and depth >= max_depth)
        ):
            continue
        if side is not None:
            block = block[side].reshape(len(block), len(rows))
        if max_features is not None and max_features < p:
            feats = np.sort(rng.choice(p, size=max_features, replace=False))
        else:
            feats = np.arange(p)
        new = feats[slot[feats] < 0]
        if new.size:
            fresh = np.argsort(X[rows[:, None], new], axis=0, kind="stable")
            block = np.concatenate([block, rows[fresh.T]])
            slot = slot.copy()
            slot[new] = np.arange(len(block) - new.size, len(block))
        srt = block[slot[feats]]
        xs = flat.take(srt * p + feats[:, None])
        varies = xs[:, 0] != xs[:, -1]  # a constant column has no split
        if not varies.all():
            feats, srt, xs = feats[varies], srt[varies], xs[varies]
        best = _best_split(xs, y.take(srt), w.take(srt), min_leaf, criterion)
        if best is None:
            continue
        k, i, g = best
        f = int(feats[k])
        lo, hi = xs[k, i], xs[k, i + 1]
        thr = (lo + hi) / 2.0
        if not lo <= thr < hi:  # adjacent floats round up to hi; huge ones overflow
            thr = lo
        go_left = X[rows, f] <= thr
        feature[node] = f
        threshold[node] = thr
        gain[node] = g
        lid, rid = new_node(), new_node()
        left[node], right[node] = lid, rid
        goes_left[rows] = go_left
        side = goes_left[block]  # every row of the block holds the node's rows
        stack.append((lid, rows[go_left], block, side, slot, depth + 1))
        stack.append((rid, rows[~go_left], block, ~side, slot, depth + 1))

    return Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
        gain=np.asarray(gain, dtype=np.float64),
    )
