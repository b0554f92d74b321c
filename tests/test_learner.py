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
    LabeledNode,
    Model,
    label_nodes,
    predict,
    train,
    train_arrays,
)
from wifi_inout.model import INDOOR, OUTDOOR
from wifi_inout.trees import Tree, grow_tree, split_gain
from wifi_inout.evaluation import auc


def _assignment(members_per_cluster):
    clusters = [list(c) for c in members_per_cluster]
    T = sum(len(c) for c in clusters)
    cluster_of = np.zeros(T, dtype=np.int64)
    for cid, c in enumerate(clusters):
        for i in c:
            cluster_of[i] = cid
    return ClusterAssignment(cluster_of=cluster_of, clusters=clusters)


def test_label_nodes_majority_and_weight():
    assignment = _assignment([[0, 1, 2, 3]])
    labeled, unlabeled = label_nodes(assignment, [INDOOR, INDOOR, OUTDOOR, None])
    assert unlabeled == []
    assert labeled[0].label == INDOOR
    assert labeled[0].weight == 4
    assert (labeled[0].votes_indoor, labeled[0].votes_outdoor) == (2, 1)


def test_label_nodes_tie_breaks_indoor():
    assignment = _assignment([[0, 1]])
    labeled, _ = label_nodes(assignment, [INDOOR, OUTDOOR])
    assert labeled[0].label == INDOOR
    # exhaustive two-member vote check
    for labs, want in [
        ([INDOOR, INDOOR], INDOOR),
        ([OUTDOOR, OUTDOOR], OUTDOOR),
        ([INDOOR, OUTDOOR], INDOOR),
        ([OUTDOOR, INDOOR], INDOOR),
        ([INDOOR, None], INDOOR),
        ([None, OUTDOOR], OUTDOOR),
    ]:
        got, _ = label_nodes(assignment, labs)
        assert got[0].label == want


def test_label_nodes_drop_rule_and_unlabeled():
    assignment = _assignment([[0, 1], [2]])
    labeled, unlabeled = label_nodes(
        assignment, [INDOOR, OUTDOOR, None], tie_rule="drop")
    assert labeled == []
    assert unlabeled == [0, 1]
    with pytest.raises(FormatError):
        label_nodes(assignment, [INDOOR, OUTDOOR, None], tie_rule="coin")


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


def test_misfit_weight_monotonically_raises_split_gain():
    # 1-D: lone positive at x=0 among negatives; the split isolating it
    # gains more as its weight grows
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([1.0, 0.0, 0.0, 0.0])
    gains = []
    for k in range(1, 12):
        w = np.array([float(k), 1.0, 1.0, 1.0])
        gains.append(split_gain(x, y, w, threshold=0.5))
    assert all(b >= a for a, b in zip(gains, gains[1:]))
    assert gains[-1] > gains[0]


def test_split_gain_degenerate_split_is_zero():
    x = np.array([1.0, 1.0])
    y = np.array([0.0, 1.0])
    w = np.ones(2)
    assert split_gain(x, y, w, threshold=5.0) == 0.0


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
    table = FeatureTable(names=["a", "b"], rows=rng.normal(size=(6, 2)))
    table.rows[:, 0] = [0, 0, 0, 5, 5, 5]
    nodes = [
        LabeledNode(0, OUTDOOR, 2), LabeledNode(1, OUTDOOR, 3),
        LabeledNode(2, OUTDOOR, 1), LabeledNode(3, INDOOR, 10),
        LabeledNode(4, INDOOR, 4), LabeledNode(5, INDOOR, 1),
    ]
    model = train(table, nodes, kind=RANDOM_FOREST, seed=0)
    scores = model.score(table.rows)
    assert all(s < 0.5 for s in scores[:3])
    assert all(s >= 0.5 for s in scores[3:])


def _leaf_tree(value):
    return Tree(
        feature=np.array([-1]), threshold=np.array([0.0]),
        left=np.array([-1]), right=np.array([-1]),
        value=np.array([float(value)]), gain=np.array([0.0]),
    )


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
