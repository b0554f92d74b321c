"""Weighted tree-ensemble classifiers over node feature vectors.

Nodes are training instances; a node's label is the `label_codes` code
of its members' majority vote (`label_nodes`), -1 leaving it out of
training, and its weight is its fingerprint count.
Random forest draws bootstrap samples proportional to weight and votes
across 100 unpruned trees; the gradient boosting machine runs 100 rounds
of depth-3 logistic-loss fits with weighted statistics. Scores are
probabilities of "indoor"; every fingerprint inherits its cluster's node
score.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence

import numpy as np

from .clustering import ClusterAssignment
from .errors import (
    DegenerateLabelsError,
    FeatureMismatchError,
    FormatError,
    InsufficientDataError,
    require_int64,
    require_number,
)
from .features import FeatureTable
from .model import INDOOR, OUTDOOR, label_codes
from .trees import Ensemble, Tree, grow_tree

RANDOM_FOREST = "random_forest"
GBM = "gbm"

RF_DEFAULTS = {"n_trees": 100, "max_features": None, "min_leaf": 1, "max_depth": None}
GBM_DEFAULTS = {"n_rounds": 100, "depth": 3, "learning_rate": 0.1, "min_leaf": 1}

# rows per walk in Model.score; bounds the (trees x rows) walk state
_ROW_BLOCK = 256


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


def label_nodes(
    assignment: ClusterAssignment,
    labels: Sequence[Optional[str]],
) -> np.ndarray:
    """Per node, the majority label of its labelled member fingerprints,
    as a `label_codes` code: -1 for a node with no labelled member.

    Ties go to indoor (the dominant class in the wild). Unlabelled nodes
    are still scored at prediction time.
    """
    codes = label_codes(labels)
    n_in, n_out = (np.bincount(assignment.cluster_of, codes == c, assignment.n_clusters)
                   for c in (1, 0))
    nodes = (n_in >= n_out).astype(np.int8)
    nodes[n_in + n_out == 0] = -1
    return nodes


@dataclass
class Model:
    kind: str
    seed: int
    feature_names: List[str]
    hyperparameters: Dict
    trees: List[Tree] = field(default_factory=list)
    f0: float = 0.0  # gbm intercept (weighted log-odds)

    @cached_property
    def ensemble(self) -> Ensemble:
        """The trees packed for one walk; packed at the first score, so
        the trees must not change after it."""
        return Ensemble.pack(self.trees)

    def score(self, X: np.ndarray) -> np.ndarray:
        """Probability of indoor per row, in [0, 1].

        Rows go in blocks of _ROW_BLOCK through one walk of every tree
        (`Ensemble.apply`). Forest votes are integer counts; boosting adds
        each tree's learning-rate-scaled leaf value in tree order, as one
        tree at a time would.
        """
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise FeatureMismatchError(
                f"expected {len(self.feature_names)} feature columns, got {X.shape}"
            )
        ensemble = self.ensemble
        out = np.empty(len(X))
        for lo in range(0, len(X), _ROW_BLOCK):
            values = ensemble.value[ensemble.apply(X[lo:lo + _ROW_BLOCK])]
            if self.kind == RANDOM_FOREST:
                out[lo:lo + _ROW_BLOCK] = np.count_nonzero(values >= 0.5, axis=0) / len(self.trees)
            else:
                F = np.full(values.shape[1], self.f0)
                for v in self.hyperparameters["learning_rate"] * values:
                    F += v
                out[lo:lo + _ROW_BLOCK] = _sigmoid(F)
        return out

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
            require_int64([obj["seed"]], "model seed")
            require_number([obj["f0"]], "model f0")
            names = obj["feature_names"]
            if type(names) is not list or not all(type(n) is str for n in names):
                raise FormatError("model feature_names must be a list of strings")
            model = Model(
                kind=obj["kind"],
                seed=obj["seed"],
                feature_names=names,
                hyperparameters=dict(obj["hyperparameters"]),
                trees=[Tree.from_dict(t) for t in obj["trees"]],
                f0=float(obj["f0"]),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as e:
            raise FormatError(f"bad model file: {e}") from e
        if model.kind not in (RANDOM_FOREST, GBM):
            raise FormatError(f"unknown model kind {model.kind!r}")
        if not model.trees:
            raise FormatError("model has no trees")
        if not math.isfinite(model.f0):
            raise FormatError(f"model f0 must be finite, got {model.f0!r}")
        for tree in model.trees:
            tree.check(len(model.feature_names))
        if model.kind == GBM:
            lr = model.hyperparameters.get("learning_rate")
            if type(lr) not in (int, float) or not 0 < lr <= sys.float_info.max:
                raise FormatError(f"gbm model needs a finite learning_rate > 0, got {lr!r}")
            # |F| <= |f0| + sum over trees of lr * max |leaf value| for every
            # partial sum F in `score`, summed here in the same order and
            # rounding, so a finite bound leaves no score NaN
            bound = abs(model.f0)
            for tree in model.trees:
                bound += lr * float(np.abs(tree.value).max())
            if not math.isfinite(bound):
                raise FormatError("gbm model scores overflow: |f0| + learning_rate * "
                                  "sum of max |leaf value| is not finite")
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
        order = np.argsort(X.T, axis=1, kind="stable")  # X is fixed across rounds
        for _ in range(hp["n_rounds"]):
            prob = _sigmoid(F)
            grad = y - prob
            tree = grow_tree(
                X, grad, w,
                criterion="sse",
                max_depth=hp["depth"],
                min_leaf=hp["min_leaf"],
                order=order,
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
    labels: np.ndarray,
    weights: Sequence[int],
    kind: str = RANDOM_FOREST,
    seed: int = 0,
    hyperparameters: Optional[Dict] = None,
) -> Model:
    """Fit on the nodes whose label code (`label_nodes`) is >= 0, each
    weighted by its weight, the node's fingerprint count."""
    labels = np.asarray(labels)
    keep = labels >= 0
    return train_arrays(features.rows[keep], labels[keep], np.asarray(weights)[keep],
                        features.names, kind, seed, hyperparameters)


@dataclass
class Prediction:
    """Node scores plus the fingerprint scores they broadcast to."""

    node_scores: np.ndarray
    node_labels: List[str]
    fp_scores: np.ndarray
    fp_labels: List[str]


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
    return Prediction(node_scores, node_labels, fp_scores, fp_labels)
