import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wifi_inout.errors import FormatError
from wifi_inout.trees import _MIN_GAIN, Tree, _impurity_mass, grow_tree


def reference_apply(tree, X):
    """Row-by-row walk from the root (x <= threshold routes left)."""
    out = np.zeros(len(X), dtype=np.int64)
    for i, row in enumerate(X):
        node = 0
        while tree.feature[node] >= 0:
            if row[tree.feature[node]] <= tree.threshold[node]:
                node = tree.left[node]
            else:
                node = tree.right[node]
        out[i] = node
    return out


def _reference_best_split_on_feature(xf, y, w, min_leaf, criterion):
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


def reference_grow_tree(
    X,
    y,
    w,
    *,
    criterion="gini",
    max_depth=None,
    min_leaf=1,
    max_features=None,
    rng=None,
):
    """`grow_tree` sorting every (node, feature) column afresh."""
    n, p = X.shape
    feature = []
    threshold = []
    left = []
    right = []
    value = []
    gain = []

    def new_node():
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
            cand = _reference_best_split_on_feature(X[rows, f], yn, wn, min_leaf, criterion)
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


TREE_ARRAYS = ("feature", "threshold", "left", "right", "value", "gain")


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 60),
    st.integers(1, 4),
    st.sampled_from(["gini", "sse"]),
    st.one_of(st.none(), st.integers(1, 6)),
    st.integers(1, 4),
    st.one_of(st.none(), st.integers(1, 4)),
)
def test_presorted_growth_equals_per_node_sort(seed, n, p, criterion, max_depth, min_leaf,
                                               max_features):
    # the sorted rows a node inherits, or sorts on a feature's first draw,
    # or takes from `order` at the root, are the stable per-node sort's
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(n, p)) / 2.0  # a coarse grid, so columns tie
    X[:, 0] += rng.normal(size=n) * rng.integers(0, 2)  # and sometimes not
    if criterion == "gini":
        y = rng.integers(0, 2, size=n).astype(float)
    else:
        y = rng.normal(size=n)
    w = rng.integers(1, 4, size=n).astype(float)
    kw = dict(criterion=criterion, max_depth=max_depth, min_leaf=min_leaf,
              max_features=max_features)
    want = reference_grow_tree(X, y, w, rng=np.random.default_rng(seed), **kw)
    order = np.argsort(X, axis=0, kind="stable").T
    for got in (grow_tree(X, y, w, rng=np.random.default_rng(seed), **kw),
                grow_tree(X, y, w, rng=np.random.default_rng(seed), order=order, **kw)):
        for name in TREE_ARRAYS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _threshold_rows(tree, X):
    """Copies of X with one split column set exactly to its node's threshold,
    for every internal node."""
    rows = []
    for node in np.flatnonzero(tree.feature >= 0):
        Q = X.copy()
        Q[:, tree.feature[node]] = tree.threshold[node]
        rows.append(Q)
    return np.concatenate(rows) if rows else X[:0]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 40),
    st.integers(1, 4),
    st.sampled_from(["gini", "sse"]),
    st.one_of(st.none(), st.integers(1, 6)),
    st.integers(1, 4),
)
def test_apply_matches_reference_apply(seed, n, p, criterion, max_depth, min_leaf):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 6, size=(n, p)) / 2.0  # a coarse grid, so columns tie
    y = rng.integers(0, 2, size=n).astype(float) if criterion == "gini" else rng.normal(size=n)
    w = rng.integers(1, 4, size=n).astype(float)
    tree = grow_tree(X, y, w, criterion=criterion, max_depth=max_depth, min_leaf=min_leaf)
    Q = np.concatenate([X, _threshold_rows(tree, X), rng.uniform(-1.0, 4.0, size=(n, p))])
    assert np.array_equal(tree.apply(Q), reference_apply(tree, Q))
    empty = tree.apply(np.empty((0, p)))
    assert empty.dtype == np.int64 and empty.shape == (0,)


def _stump():
    return Tree(
        feature=np.array([0, -1, -1]),
        threshold=np.array([0.5, 0.0, 0.0]),
        left=np.array([1, -1, -1]),
        right=np.array([2, -1, -1]),
        value=np.array([0.5, 0.0, 1.0]),
        gain=np.array([0.25, 0.0, 0.0]),
    )


def test_stump_routes_ties_left():
    tree = _stump()
    tree.check(1)
    X = np.array([[0.0], [0.5], [0.6], [np.nan]])
    assert list(tree.apply(X)) == [1, 1, 2, 2]  # NaN fails <=, so it goes right


_A = np.nextafter(1.0, 2.0)


@pytest.mark.parametrize("lo, hi", [(_A, np.nextafter(_A, 2.0)),  # midpoint rounds up to hi
                                    (1.6e308, 1.7e308), (-1.7e308, -1.6e308)])  # sum overflows
def test_split_between_close_or_huge_values_leaves_both_children_nonempty(lo, hi):
    X = np.array([[lo], [hi]])
    with np.errstate(over="ignore"):
        tree = grow_tree(X, np.array([0.0, 1.0]), np.ones(2))
    assert tree.n_nodes == 3 and list(tree.apply(X)) == [1, 2]
    assert lo <= tree.threshold[0] < hi


@pytest.mark.parametrize("name", ["threshold", "value", "gain"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_rejects_non_finite_values(name, bad):
    tree = _stump()
    getattr(tree, name)[0] = bad
    with pytest.raises(FormatError):
        tree.check(1)
