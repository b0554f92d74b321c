import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wifi_inout.clustering import ClusterAssignment
from wifi_inout.errors import (
    DegenerateLabelsError,
    FeatureMismatchError,
    FormatError,
    InsufficientDataError,
)
from wifi_inout.features import FeatureTable
from wifi_inout.learner import (
    GBM,
    RANDOM_FOREST,
    Model,
    label_nodes,
    predict,
    train,
    train_arrays,
)
from wifi_inout.model import INDOOR, OUTDOOR, label_codes
from wifi_inout.trees import Tree, grow_tree
from wifi_inout import learner
from wifi_inout.evaluation import auc

from test_trees import reference_apply, reference_grow_tree


def _assignment(members_per_cluster):
    clusters = [list(c) for c in members_per_cluster]
    T = sum(len(c) for c in clusters)
    cluster_of = np.zeros(T, dtype=np.int64)
    for cid, c in enumerate(clusters):
        for i in c:
            cluster_of[i] = cid
    return ClusterAssignment(cluster_of=cluster_of)


def test_label_nodes_majority_vote():
    assignment = _assignment([[0, 1, 2, 3]])
    got = label_nodes(assignment, [INDOOR, INDOOR, OUTDOOR, None])
    assert got.dtype == np.int8
    assert got.tolist() == [1]


def test_label_nodes_tie_breaks_indoor():
    assignment = _assignment([[0, 1]])
    assert label_nodes(assignment, [INDOOR, OUTDOOR]).tolist() == [1]
    # exhaustive two-member vote check
    for labs, want in [
        ([INDOOR, INDOOR], 1),
        ([OUTDOOR, OUTDOOR], 0),
        ([INDOOR, OUTDOOR], 1),
        ([OUTDOOR, INDOOR], 1),
        ([INDOOR, None], 1),
        ([None, OUTDOOR], 0),
        ([None, None], -1),
    ]:
        assert label_nodes(assignment, labs).tolist() == [want]


def test_label_codes():
    got = label_codes([INDOOR, OUTDOOR, None, INDOOR])
    assert got.dtype == np.int8
    assert got.tolist() == [1, 0, -1, 1]
    assert label_codes([]).tolist() == []


def reference_label_nodes(assignment, labels):
    """The per-member loop that label_nodes replaced, kept as its
    reference: each node's majority code, -1 for a node left unlabeled."""
    codes = []
    for members in assignment.clusters:
        n_in = sum(1 for i in members if labels[i] == INDOOR)
        n_out = sum(1 for i in members if labels[i] == OUTDOOR)
        if n_in == 0 and n_out == 0:
            codes.append(-1)
            continue
        codes.append(1 if n_in >= n_out else 0)
    return codes


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.sampled_from([INDOOR, OUTDOOR, None])),
                min_size=1, max_size=60))
def test_label_nodes_equals_per_member_loop(scans):
    cluster_of, labels = zip(*scans)
    assignment = ClusterAssignment(cluster_of=np.array(cluster_of, dtype=np.int64))
    got = label_nodes(assignment, list(labels))
    assert got.dtype == np.int8
    assert got.tolist() == reference_label_nodes(assignment, labels)


def _separable(rng, n=200, p=2):
    y = (rng.random(n) > 0.5).astype(float)
    X = rng.normal(size=(n, p))
    X[:, 0] = y * 4.0 + rng.normal(0, 0.4, size=n)
    w = rng.integers(1, 10, size=n).astype(float)
    return X, y, w


@pytest.mark.parametrize("kind", [RANDOM_FOREST, GBM])
def test_separable_training_auc_is_one(rng, kind):
    X, y, w = _separable(rng)
    model = train_arrays(X, y, w, ["f0", "f1"], kind=kind, seed=3)
    scores = model.score(X)
    assert auc(list(zip(scores, y))) == 1.0


@pytest.mark.parametrize("kind", [RANDOM_FOREST, GBM])
def test_determinism_and_seed_sensitivity(rng, kind):
    X, y, w = _separable(rng, n=80)
    m1 = train_arrays(X, y, w, ["f0", "f1"], kind=kind, seed=11)
    m2 = train_arrays(X, y, w, ["f0", "f1"], kind=kind, seed=11)
    assert m1.to_json() == m2.to_json()
    assert np.array_equal(m1.score(X), m2.score(X))


@pytest.mark.parametrize("kind", [RANDOM_FOREST, GBM])
@pytest.mark.parametrize("seed", [0, 1])
def test_models_equal_per_node_sort_reference(monkeypatch, kind, seed):
    # GBM hands every round the presorted order of its fixed X; the forest
    # sorts within each tree; both must give the per-node-sort models
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 6, size=(150, 4)) / 2.0  # a coarse grid, so columns tie
    X[:, 1] += rng.normal(size=150)
    X[:, 3] = 1.0  # and one has no split at all
    y = (X[:, 0] + rng.normal(size=150) > 1.2).astype(float)
    w = rng.integers(1, 5, size=150).astype(float)
    names = ["a", "b", "c", "d"]
    got = train_arrays(X, y, w, names, kind=kind, seed=seed)
    monkeypatch.setattr(learner, "grow_tree",
                        lambda *a, order=None, **kw: reference_grow_tree(*a, **kw))
    assert got.to_json() == train_arrays(X, y, w, names, kind=kind, seed=seed).to_json()


def test_rf_seed_changes_model(rng):
    X, y, w = _separable(rng, n=80)
    m1 = train_arrays(X, y, w, ["f0", "f1"], kind=RANDOM_FOREST, seed=1)
    m2 = train_arrays(X, y, w, ["f0", "f1"], kind=RANDOM_FOREST, seed=2)
    assert m1.to_json() != m2.to_json()


@pytest.mark.parametrize("kind", [RANDOM_FOREST, GBM])
def test_score_range(rng, kind):
    X, y, w = _separable(rng, n=100, p=3)
    model = train_arrays(X, y, w, ["a", "b", "c"], kind=kind, seed=5)
    Z = rng.normal(size=(300, 3)) * 10
    s = model.score(Z)
    assert np.all(s >= 0.0) and np.all(s <= 1.0)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 30),
    st.integers(1, 3),
    st.sampled_from(["gini", "sse"]),
)
def test_weight_k_equals_k_duplicates(seed, n, p, criterion):
    # a point of weight k grows the same tree as k unit-weight copies of it
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 5, size=(n, p)) / 2.0  # a coarse grid, so columns tie
    X[:, 0] += rng.normal(size=n) * rng.integers(0, 2)  # and sometimes not
    if criterion == "gini":
        y = rng.integers(0, 2, size=n).astype(float)
    else:
        y = rng.integers(-20, 21, size=n).astype(float)
    k = rng.integers(1, 9, size=n)
    t_weighted = grow_tree(X, y, k.astype(float), criterion=criterion)

    rows = rng.permutation(np.repeat(np.arange(n), k))
    t_dup = grow_tree(X[rows], y[rows], np.ones(len(rows)), criterion=criterion)

    for name in ("feature", "threshold", "left", "right", "value", "gain"):
        assert np.array_equal(getattr(t_weighted, name), getattr(t_dup, name)), name


def test_misfit_weight_raises_the_stump_gain():
    # 1-D: lone positive at x=0 among negatives; the root splits it off
    # with gain 6k/(k + 3) (up to the rounding of the impurity masses),
    # which rises with its weight k
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([1.0, 0.0, 0.0, 0.0])
    gains = []
    for k in range(1, 12):
        tree = grow_tree(x, y, np.array([float(k), 1.0, 1.0, 1.0]))
        assert tree.feature[0] == 0 and tree.threshold[0] == 0.5
        assert tree.gain[0] == pytest.approx(6 * k / (k + 3), rel=1e-15, abs=0)
        gains.append(tree.gain[0])
    assert all(b > a for a, b in zip(gains, gains[1:]))


def test_constant_column_grows_a_single_leaf():
    tree = grow_tree(np.array([[1.0], [1.0]]), np.array([0.0, 1.0]), np.ones(2))
    assert tree.n_nodes == 1 and tree.feature[0] == -1 and tree.gain[0] == 0.0


def test_train_errors():
    X = np.zeros((3, 2))
    with pytest.raises(DegenerateLabelsError):
        train_arrays(X, np.ones(3), np.ones(3), ["a", "b"])
    with pytest.raises(InsufficientDataError):
        train_arrays(X[:1], np.array([1.0]), np.ones(1), ["a", "b"])
    with pytest.raises(FormatError):
        train_arrays(X, np.array([0.0, 1.0, 0.0]), np.ones(3), ["a", "b"],
                     kind="svm")


def test_train_from_labeled_nodes(rng):
    table = FeatureTable(names=["a", "b"], rows=rng.normal(size=(7, 2)))
    table.rows[:, 0] = [0, 0, 0, 5, 5, 5, 9]
    labels = np.array([0, 0, 0, 1, 1, 1, -1], dtype=np.int8)
    weights = [2, 3, 1, 10, 4, 1, 7]
    model = train(table, labels, weights, kind=RANDOM_FOREST, seed=0)
    scores = model.score(table.rows)
    assert all(s < 0.5 for s in scores[:3])
    assert all(s >= 0.5 for s in scores[3:6])
    # an unlabeled node (-1) is left out of training: the same fit as on
    # the labeled rows alone
    alone = train_arrays(table.rows[:6], labels[:6], weights[:6], table.names,
                         kind=RANDOM_FOREST, seed=0)
    assert model.to_json() == alone.to_json()


def _leaf_tree(value):
    return Tree(
        feature=np.array([-1]), threshold=np.array([0.0]),
        left=np.array([-1]), right=np.array([-1]),
        value=np.array([float(value)]), gain=np.array([0.0]),
    )


def reference_score(model, X):
    """The per-tree loop `Model.score` replaced, kept as its reference:
    forest votes add up one tree at a time, boosting adds each tree's
    scaled leaf values in tree order."""
    if model.kind == RANDOM_FOREST:
        votes = np.zeros(len(X))
        for tree in model.trees:
            votes += tree.value[reference_apply(tree, X)] >= 0.5
        return votes / len(model.trees)
    F = np.full(len(X), model.f0)
    lr = model.hyperparameters["learning_rate"]
    for tree in model.trees:
        F += lr * tree.value[reference_apply(tree, X)]
    return 1.0 / (1.0 + np.exp(-np.clip(F, -60.0, 60.0)))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([RANDOM_FOREST, GBM]),
    st.integers(1, 3),
    st.one_of(st.none(), st.integers(0, 4)),
    st.integers(0, 12),
    st.integers(0, 3),
    st.booleans(),
    st.data(),
)
def test_packed_score_equals_per_tree_reference(seed, kind, p, depth, n_rows, n_leaves,
                                                reload, data):
    """Every tree walked at once, in row blocks of 1-3, scores exactly as
    the per-tree loop: rows with NaN or a value at a split threshold, no
    rows, root-only trees, and a model reloaded from its JSON."""
    rng = np.random.default_rng(seed)
    X, y, w = _separable(rng, n=30, p=p)
    depth_key = "max_depth" if kind == RANDOM_FOREST else "depth"
    hp = {"n_trees" if kind == RANDOM_FOREST else "n_rounds": 5, depth_key: depth}
    if kind == GBM and depth is None:
        hp[depth_key] = 3
    model = train_arrays(X, y, w, [f"f{j}" for j in range(p)], kind=kind, seed=seed,
                         hyperparameters=hp)
    for v in rng.normal(0.5, 1.0, size=n_leaves):
        model.trees.insert(int(rng.integers(0, len(model.trees) + 1)), _leaf_tree(v))
    if reload:
        model = Model.from_json(model.to_json())
    Q = rng.normal(0.0, 3.0, size=(n_rows, p))
    thresholds = np.concatenate([t.threshold[t.feature >= 0] for t in model.trees])
    if n_rows and thresholds.size:
        Q.flat[rng.integers(0, Q.size, size=Q.size // 2)] = rng.choice(thresholds, Q.size // 2)
    if n_rows:
        Q.flat[rng.integers(0, Q.size, size=Q.size // 4)] = np.nan
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learner, "_ROW_BLOCK", data.draw(st.integers(1, 3)))
        got = model.score(Q)
    assert np.array_equal(got, reference_score(model, Q))


def test_prediction_inheritance_and_threshold():
    # hand-built forest scoring exactly 0.5 (one indoor vote out of two)
    model = Model(
        kind=RANDOM_FOREST, seed=0, feature_names=["a"],
        hyperparameters={}, trees=[_leaf_tree(1.0), _leaf_tree(0.0)],
    )
    table = FeatureTable(names=["a"], rows=np.zeros((2, 1)))
    assignment = _assignment([[0, 1, 2], [3]])
    pred = predict(model, table, assignment)
    assert list(pred.node_scores) == [0.5, 0.5]
    assert pred.node_labels == [INDOOR, INDOOR]  # 0.5 is indoor
    assert list(pred.fp_scores) == [0.5] * 4
    for i in range(4):
        assert pred.fp_scores[i] == pred.node_scores[assignment.cluster_of[i]]


def test_prediction_inheritance_exact(rng):
    X, y, w = _separable(rng, n=30)
    model = train_arrays(X, y, w, ["f0", "f1"], seed=2)
    table = FeatureTable(names=["f0", "f1"], rows=X[:4])
    assignment = _assignment([[0, 1], [2], [3, 4, 5], [6]])
    pred = predict(model, table, assignment)
    for i, c in enumerate(assignment.cluster_of):
        assert pred.fp_scores[i] == pred.node_scores[c]
        assert pred.fp_labels[i] == pred.node_labels[c]


def test_feature_mismatch():
    model = Model(kind=RANDOM_FOREST, seed=0, feature_names=["a", "b"],
                  hyperparameters={}, trees=[_leaf_tree(1.0)])
    table = FeatureTable(names=["a", "c"], rows=np.zeros((1, 2)))
    with pytest.raises(FeatureMismatchError):
        predict(model, table, _assignment([[0]]))
    with pytest.raises(FeatureMismatchError):
        model.score(np.zeros((2, 3)))


@pytest.mark.parametrize("kind", [RANDOM_FOREST, GBM])
def test_persistence_round_trip(tmp_path, rng, kind):
    X, y, w = _separable(rng, n=60, p=3)
    model = train_arrays(X, y, w, ["a", "b", "c"], kind=kind, seed=9)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = Model.load(path)
    assert loaded.to_json() == model.to_json()
    assert np.array_equal(loaded.score(X), model.score(X))


def test_model_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(FormatError):
        Model.load(path)
    path.write_text("not json at all", encoding="utf-8")
    with pytest.raises(FormatError):
        Model.load(path)


def _saved_model_dict(rng):
    X, y, w = _separable(rng, n=40, p=3)
    model = train_arrays(X, y, w, ["a", "b", "c"], kind=RANDOM_FOREST, seed=1,
                         hyperparameters={"n_trees": 2})
    return json.loads(model.to_json())


def _self_loop(obj):
    obj["trees"][0]["left"][0] = obj["trees"][0]["right"][0] = 0


def _no_trees(obj):
    obj["trees"] = []


def _short_array(obj):
    obj["trees"][0]["gain"].pop()


def _no_nodes(obj):
    obj["trees"][0] = {k: [] for k in obj["trees"][0]}


def _leaf_with_child(obj):
    t = obj["trees"][0]
    leaf = t["feature"].index(-1)
    t["left"][leaf] = len(t["feature"]) - 1


def _internal_without_children(obj):
    obj["trees"][0]["left"][0] = -1


def _child_out_of_range(obj):
    obj["trees"][0]["right"][0] = len(obj["trees"][0]["feature"])


def _feature_out_of_range(obj):
    obj["trees"][0]["feature"][0] = 3


@pytest.mark.parametrize("mutate", [
    _self_loop, _no_trees, _short_array, _no_nodes, _leaf_with_child,
    _internal_without_children, _child_out_of_range, _feature_out_of_range,
])
def test_model_from_json_rejects_bad_structure(rng, mutate):
    obj = _saved_model_dict(rng)
    assert obj["trees"][0]["feature"][0] >= 0  # the root splits
    Model.from_json(json.dumps(obj))
    mutate(obj)
    with pytest.raises(FormatError):
        Model.from_json(json.dumps(obj))


_node_ids = st.integers(min_value=-2, max_value=6)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=-2, max_value=3), _node_ids, _node_ids),
                min_size=0, max_size=6))
def test_loaded_trees_always_end(nodes):
    """Any feature/left/right arrays either fail to load or form a tree
    whose walks strictly descend, so Tree.apply ends."""
    n = len(nodes)
    tree = {
        "feature": [f for f, _, _ in nodes],
        "left": [l for _, l, _ in nodes],
        "right": [r for _, _, r in nodes],
        "threshold": [0.5] * n, "value": [0.0] * n, "gain": [0.0] * n,
    }
    text = json.dumps({"kind": RANDOM_FOREST, "seed": 0, "feature_names": ["a", "b", "c"],
                       "hyperparameters": {}, "f0": 0.0, "trees": [tree]})
    try:
        model = Model.from_json(text)
    except FormatError:
        return
    t = model.trees[0]
    for i in range(t.n_nodes):
        if t.feature[i] >= 0:
            assert i < t.left[i] < t.n_nodes and i < t.right[i] < t.n_nodes
    X = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]])
    assert model.score(X).shape == (3,)
