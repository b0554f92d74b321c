"""Weighted binary decision trees (CART-style) used by both ensembles.

Splits maximize the weighted impurity-mass decrease: Gini for
classification, squared error for the boosting stage's gradient fits.
Integer instance weights enter every statistic as multiplicities, so a
point of weight k and k unit-weight copies produce bit-identical split
gains (weighted sums of integers are exact in float64).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import FormatError

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
        """Leaf node id per row (x <= threshold routes left).

        All rows descend together, one tree level per pass: rows that
        reached a leaf drop out, the rest take one step in one vectorized
        comparison. Children come after their parent (`check`, `grow_tree`),
        so every row reaches a leaf within n_nodes passes.
        """
        node = np.zeros(len(X), dtype=np.int64)
        rows = np.arange(len(X))
        while rows.size:
            at = node[rows]
            inner = self.feature[at] >= 0
            rows, at = rows[inner], at[inner]
            left = X[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = np.where(left, self.left[at], self.right[at])
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.value[self.apply(X)]

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
        return Tree(
            feature=np.asarray(obj["feature"], dtype=np.int64),
            threshold=np.asarray(obj["threshold"], dtype=np.float64),
            left=np.asarray(obj["left"], dtype=np.int64),
            right=np.asarray(obj["right"], dtype=np.int64),
            value=np.asarray(obj["value"], dtype=np.float64),
            gain=np.asarray(obj["gain"], dtype=np.float64),
        )


def _impurity_mass(w_total, wy_total, wy2_total, criterion):
    """Weighted impurity times weight: W*gini or weighted SSE about the mean."""
    if criterion == "gini":
        w0 = w_total - wy_total
        return w_total - (wy_total * wy_total + w0 * w0) / w_total
    return wy2_total - (wy_total * wy_total) / w_total


def split_gain(
    x: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    threshold: float,
    criterion: str = "gini",
) -> float:
    """Impurity-mass decrease of splitting one column at `threshold`
    (x <= threshold left). Exposed for weight-influence analysis."""
    left = x <= threshold
    if not left.any() or left.all():
        return 0.0
    wl, wr = w[left], w[~left]
    yl, yr = y[left], y[~left]
    parent = _impurity_mass(w.sum(), (w * y).sum(), (w * y * y).sum(), criterion)
    lmass = _impurity_mass(wl.sum(), (wl * yl).sum(), (wl * yl * yl).sum(), criterion)
    rmass = _impurity_mass(wr.sum(), (wr * yr).sum(), (wr * yr * yr).sum(), criterion)
    return float(parent - lmass - rmass)


def _best_split_on_feature(xf, y, w, min_leaf, criterion):
    """(gain, threshold) of the best split on one column, or None."""
    order = np.argsort(xf, kind="stable")
    xs = xf[order]
    if xs[0] == xs[-1]:
        return None
    ys = y[order]
    ws = w[order]
    cw = np.cumsum(ws)
    cwy = np.cumsum(ws * ys)
    cwy2 = np.cumsum(ws * ys * ys)
    W, WY, WY2 = cw[-1], cwy[-1], cwy2[-1]
    parent = _impurity_mass(W, WY, WY2, criterion)

    n = len(xs)
    pos = np.arange(n - 1)
    valid = xs[:-1] != xs[1:]
    if min_leaf > 1:
        valid &= (pos + 1 >= min_leaf) & (n - pos - 1 >= min_leaf)
    pos = pos[valid]
    if len(pos) == 0:
        return None
    wl, wyl, wy2l = cw[pos], cwy[pos], cwy2[pos]
    lmass = _impurity_mass(wl, wyl, wy2l, criterion)
    rmass = _impurity_mass(W - wl, WY - wyl, WY2 - wy2l, criterion)
    gains = parent - lmass - rmass
    best = int(np.argmax(gains))  # first max: lowest threshold wins ties
    if gains[best] <= _MIN_GAIN:
        return None
    i = pos[best]
    return float(gains[best]), (xs[i] + xs[i + 1]) / 2.0


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
) -> Tree:
    """Grow an unpruned tree; node values are weighted means of y.

    max_features draws a fresh random feature subset at every split
    (random-forest style); None considers every feature.
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

    root = new_node()
    stack = [(root, np.arange(n), 0)]
    while stack:
        node, rows, depth = stack.pop()
        yn, wn = y[rows], w[rows]
        W = wn.sum()
        value[node] = float((wn * yn).sum() / W)
        if (
            len(rows) < 2 * min_leaf
            or np.ptp(yn) == 0
            or (max_depth is not None and depth >= max_depth)
        ):
            continue
        if max_features is not None and max_features < p:
            feats = np.sort(rng.choice(p, size=max_features, replace=False))
        else:
            feats = np.arange(p)
        best = None
        for f in feats:
            cand = _best_split_on_feature(X[rows, f], yn, wn, min_leaf, criterion)
            if cand is not None and (best is None or cand[0] > best[0]):
                best = (cand[0], int(f), cand[1])
        if best is None:
            continue
        g, f, thr = best
        go_left = X[rows, f] <= thr
        feature[node] = f
        threshold[node] = thr
        gain[node] = g
        lid, rid = new_node(), new_node()
        left[node], right[node] = lid, rid
        stack.append((lid, rows[go_left], depth + 1))
        stack.append((rid, rows[~go_left], depth + 1))

    return Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
        gain=np.asarray(gain, dtype=np.float64),
    )
