"""Weighted tree-ensemble classifiers over node feature vectors.

Nodes are training instances; a node's weight is its fingerprint count.
Random forest draws bootstrap samples proportional to weight and votes
across 100 unpruned trees; the gradient boosting machine runs 100 rounds
of depth-3 logistic-loss fits with weighted statistics. Scores are
probabilities of "indoor"; every fingerprint inherits its cluster's node
score.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .clustering import ClusterAssignment
from .errors import (
    DegenerateLabelsError,
    FeatureMismatchError,
    FormatError,
    InsufficientDataError,
)
from .features import FeatureTable
from .model import INDOOR, OUTDOOR
from .trees import Tree, grow_tree

RANDOM_FOREST = "random_forest"
GBM = "gbm"

RF_DEFAULTS = {"n_trees": 100, "max_features": None, "min_leaf": 1, "max_depth": None}
GBM_DEFAULTS = {"n_rounds": 100, "depth": 3, "learning_rate": 0.1, "min_leaf": 1}


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


@dataclass(frozen=True)
class LabeledNode:
    node_id: int
    label: str                # "indoor" | "outdoor"
    weight: int               # cluster fingerprint count
    votes_indoor: int = 0
    votes_outdoor: int = 0


def label_nodes(
    assignment: ClusterAssignment,
    labels: Sequence[Optional[str]],
    tie_rule: str = "indoor",
) -> Tuple[List[LabeledNode], List[int]]:
    """Majority vote among each node's labeled member fingerprints.

    Ties go to indoor (the dominant class in the wild) unless
    tie_rule="drop" excludes the node. Nodes with no labeled member are
    returned in the second list; they still get scored at prediction
    time.
    """
    if tie_rule not in ("indoor", "drop"):
        raise FormatError(f"tie_rule must be 'indoor' or 'drop', got {tie_rule!r}")
    labeled: List[LabeledNode] = []
    unlabeled: List[int] = []
    for node_id, members in enumerate(assignment.clusters):
        n_in = sum(1 for i in members if labels[i] == INDOOR)
        n_out = sum(1 for i in members if labels[i] == OUTDOOR)
        if n_in == 0 and n_out == 0:
            unlabeled.append(node_id)
            continue
        if n_in == n_out and tie_rule == "drop":
            unlabeled.append(node_id)
            continue
        lab = INDOOR if n_in >= n_out else OUTDOOR
        labeled.append(
            LabeledNode(node_id, lab, weight=len(members),
                        votes_indoor=n_in, votes_outdoor=n_out)
        )
    return labeled, unlabeled


@dataclass
class Model:
    kind: str
    seed: int
    feature_names: List[str]
    hyperparameters: Dict
    trees: List[Tree] = field(default_factory=list)
    f0: float = 0.0  # gbm intercept (weighted log-odds)

    def score(self, X: np.ndarray) -> np.ndarray:
        """Probability of indoor per row, in [0, 1]."""
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise FeatureMismatchError(
                f"expected {len(self.feature_names)} feature columns, got {X.shape}"
            )
        if self.kind == RANDOM_FOREST:
            votes = np.zeros(len(X))
            for tree in self.trees:
                votes += tree.predict(X) >= 0.5
            return votes / len(self.trees)
        F = np.full(len(X), self.f0)
        lr = self.hyperparameters["learning_rate"]
        for tree in self.trees:
            F += lr * tree.predict(X)
        return _sigmoid(F)

    # --- persistence: self-describing JSON text, exact round-trip ---

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "seed": self.seed,
                "feature_names": self.feature_names,
                "hyperparameters": self.hyperparameters,
                "f0": self.f0,
                "trees": [t.to_dict() for t in self.trees],
            }
        )

    @staticmethod
    def from_json(text: str) -> "Model":
        try:
            obj = json.loads(text)
            model = Model(
                kind=obj["kind"],
                seed=int(obj["seed"]),
                feature_names=list(obj["feature_names"]),
                hyperparameters=dict(obj["hyperparameters"]),
                trees=[Tree.from_dict(t) for t in obj["trees"]],
                f0=float(obj["f0"]),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
            raise FormatError(f"bad model file: {e}") from e
        if model.kind not in (RANDOM_FOREST, GBM):
            raise FormatError(f"unknown model kind {model.kind!r}")
        if not model.trees:
            raise FormatError("model has no trees")
        if not math.isfinite(model.f0):
            raise FormatError(f"model f0 must be finite, got {model.f0!r}")
        if model.kind == GBM:
            lr = model.hyperparameters.get("learning_rate")
            if isinstance(lr, bool) or not isinstance(lr, (int, float)) or not 0 < lr < math.inf:
                raise FormatError(f"gbm model needs a finite learning_rate > 0, got {lr!r}")
        for tree in model.trees:
            tree.check(len(model.feature_names))
        return model

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json())
            f.write("\n")

    @staticmethod
    def load(path) -> "Model":
        with open(path, "r", encoding="utf-8") as f:
            return Model.from_json(f.read())


def _check_training_set(y: np.ndarray) -> None:
    if len(y) < 2:
        raise InsufficientDataError(f"need >= 2 training instances, got {len(y)}")
    if y.min() == y.max():
        raise DegenerateLabelsError("training set contains a single class")


def train_arrays(
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    feature_names: Sequence[str],
    kind: str = RANDOM_FOREST,
    seed: int = 0,
    hyperparameters: Optional[Dict] = None,
) -> Model:
    """Fit an ensemble on explicit arrays (y in {0,1}, w > 0)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    _check_training_set(y)
    rng = np.random.default_rng(seed)
    n, p = X.shape

    if kind == RANDOM_FOREST:
        hp = {**RF_DEFAULTS, **(hyperparameters or {})}
        if hp["max_features"] is None:
            hp["max_features"] = math.ceil(math.sqrt(p))
        model = Model(kind, seed, list(feature_names), hp)
        prob = w / w.sum()
        for _ in range(hp["n_trees"]):
            rows = rng.choice(n, size=n, replace=True, p=prob)
            tree = grow_tree(
                X[rows], y[rows], np.ones(n),
                criterion="gini",
                max_depth=hp["max_depth"],
                min_leaf=hp["min_leaf"],
                max_features=hp["max_features"],
                rng=rng,
            )
            model.trees.append(tree)
        return model

    if kind == GBM:
        hp = {**GBM_DEFAULTS, **(hyperparameters or {})}
        w1 = float((w * y).sum())
        w0 = float(w.sum() - w1)
        model = Model(kind, seed, list(feature_names), hp, f0=math.log(w1 / w0))
        F = np.full(n, model.f0)
        lr = hp["learning_rate"]
        for _ in range(hp["n_rounds"]):
            prob = _sigmoid(F)
            grad = y - prob
            tree = grow_tree(
                X, grad, w,
                criterion="sse",
                max_depth=hp["depth"],
                min_leaf=hp["min_leaf"],
            )
            # Newton leaf values for logistic loss
            leaves = tree.apply(X)
            num = np.bincount(leaves, weights=w * grad, minlength=tree.n_nodes)
            den = np.bincount(leaves, weights=w * prob * (1 - prob), minlength=tree.n_nodes)
            gamma = num / np.maximum(den, 1e-12)
            tree.value = gamma
            F += lr * gamma[leaves]
            model.trees.append(tree)
        return model

    raise FormatError(f"unknown learner kind {kind!r}")


def train(
    features: FeatureTable,
    nodes: Sequence[LabeledNode],
    kind: str = RANDOM_FOREST,
    seed: int = 0,
    hyperparameters: Optional[Dict] = None,
) -> Model:
    """Fit on labeled nodes; weights are the nodes' fingerprint counts."""
    ids = [n.node_id for n in nodes]
    X = features.rows[ids]
    y = np.array([1.0 if n.label == INDOOR else 0.0 for n in nodes])
    w = np.array([float(n.weight) for n in nodes])
    return train_arrays(X, y, w, features.names, kind, seed, hyperparameters)


@dataclass
class Prediction:
    """Node scores plus the fingerprint scores they broadcast to."""

    node_scores: np.ndarray
    node_labels: List[str]
    fp_scores: np.ndarray
    fp_labels: List[str]
    threshold: float = 0.5


def predict(
    model: Model,
    features: FeatureTable,
    assignment: ClusterAssignment,
    threshold: float = 0.5,
) -> Prediction:
    """Score every node and broadcast to member fingerprints; hard labels
    are indoor at score >= threshold."""
    if list(features.names) != list(model.feature_names):
        raise FeatureMismatchError(
            f"feature names {features.names} != model's {model.feature_names}"
        )
    node_scores = model.score(features.rows)
    node_labels = [INDOOR if s >= threshold else OUTDOOR for s in node_scores]
    fp_scores = node_scores[assignment.cluster_of]
    fp_labels = [INDOOR if s >= threshold else OUTDOOR for s in fp_scores]
    return Prediction(node_scores, node_labels, fp_scores, fp_labels, threshold)
