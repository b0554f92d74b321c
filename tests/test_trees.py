import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wifi_inout.errors import FormatError
from wifi_inout.trees import Tree, grow_tree


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


@pytest.mark.parametrize("name", ["threshold", "value", "gain"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_rejects_non_finite_values(name, bad):
    tree = _stump()
    getattr(tree, name)[0] = bad
    with pytest.raises(FormatError):
        tree.check(1)
