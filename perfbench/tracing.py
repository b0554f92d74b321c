"""Per-layer spans and counters, recorded from the benchmark's own files.

The library modules import each other's functions by name (``from
.fpindex import region_query_arr``), so a wrapper sees a call only when
it replaces the name in the module that makes the call.
``Tracer.recording`` does that for every layer boundary below and puts
each original back when its block ends. A span's self time is its
duration minus the time of the spans opened inside it.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List

from wifi_inout import clustering, evaluation, features, learner, pipeline, trees

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("model.read_s", "s", "lower"),
    ("model.ingest_s", "s", "lower"),
    ("model.fingerprints", "count", "lower"),
    ("fpindex.build_s", "s", "lower"),
    ("fpindex.postings", "count", "lower"),
    ("fpindex.region_query.calls", "count", "lower"),
    ("fpindex.region_query_s", "s", "lower"),
    ("fpindex.eps_pairs", "count", "lower"),
    ("clustering.self_s", "s", "lower"),
    ("clustering.clusters", "count", "lower"),
    ("clustering.new_label_ratio", "ratio", "higher"),
    ("graph.build_s", "s", "lower"),
    ("graph.edges", "count", "lower"),
    ("graph.bfs.calls", "count", "lower"),
    ("graph.bfs_s", "s", "lower"),
    ("features.self_s", "s", "lower"),
    ("features.rows", "count", "lower"),
    ("learner.label_s", "s", "lower"),
    ("learner.train_self_s", "s", "lower"),
    ("learner.predict_self_s", "s", "lower"),
    ("trees.grow.calls", "count", "lower"),
    ("trees.grow_s", "s", "lower"),
    ("trees.nodes", "count", "lower"),
    ("trees.apply.calls", "count", "lower"),
    ("trees.apply_s", "s", "lower"),
    ("trees.apply_rows", "count", "lower"),
    ("evaluation.evaluate_s", "s", "lower"),
    ("evaluation.warmup_self_s", "s", "lower"),
    ("pipeline.build_stages.calls", "count", "lower"),
    ("pipeline.build_stages_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def untraced(name: str, fn: Callable, *args, **kwargs):
    """Stand-in for ``Tracer.span`` when a round runs without tracing."""
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []  # [start, time of child spans]

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn as one span named `name`."""
        self._stack.append([time.perf_counter(), 0.0])
        try:
            return fn(*args, **kwargs)
        finally:
            start, child = self._stack.pop()
            dur = time.perf_counter() - start
            if self._stack:
                self._stack[-1][1] += dur
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - child

    def _wrap(self, name: str, fn: Callable, count) -> Callable:
        span = self.span

        def traced(*args, **kwargs):
            result = span(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    @contextmanager
    def recording(self):
        """Start afresh and trace every layer boundary until the block ends."""
        self.reset()
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in _BOUNDARIES]
        for (owner, attr, original), (_, _, name, count) in zip(originals, _BOUNDARIES):
            setattr(owner, attr, self._wrap(name, original, count))
        try:
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset
        (all but trace.overhead_s, which compares two rounds)."""
        c, t, s, n = self.calls, self.total, self.self_time, self.counts
        eps_pairs = n["eps_pairs"]
        return {
            "model.read_s": t["read_scan_log"],
            "model.ingest_s": t["ingest"],
            "model.fingerprints": n["fingerprints"],
            "fpindex.build_s": t["build_index"],
            "fpindex.postings": n["postings"],
            "fpindex.region_query.calls": c["region_query"],
            "fpindex.region_query_s": t["region_query"],
            "fpindex.eps_pairs": eps_pairs,
            "clustering.self_s": s["cluster"],
            "clustering.clusters": n["clusters"],
            # share of returned neighbours that labelled a new fingerprint
            "clustering.new_label_ratio": (
                (n["clustered"] - n["clusters"]) / eps_pairs if eps_pairs else 0.0
            ),
            "graph.build_s": t["build_graph"],
            "graph.edges": n["edges"],
            "graph.bfs.calls": c["bfs_layers"],
            "graph.bfs_s": t["bfs_layers"],
            "features.self_s": s["extract_features"],
            "features.rows": n["feature_rows"],
            "learner.label_s": t["label_nodes"],
            "learner.train_self_s": s["train"],
            "learner.predict_self_s": s["predict"],
            "trees.grow.calls": c["grow_tree"],
            "trees.grow_s": t["grow_tree"],
            "trees.nodes": n["tree_nodes"],
            "trees.apply.calls": c["tree_apply"],
            "trees.apply_s": t["tree_apply"],
            "trees.apply_rows": n["apply_rows"],
            "evaluation.evaluate_s": t["evaluate"],
            "evaluation.warmup_self_s": s["warmup_eval"],
            "pipeline.build_stages.calls": c["build_stages"],
            "pipeline.build_stages_s": t["build_stages"],
        }


def _count_postings(counts, index):
    counts["postings"] += sum(len(p) for p in index.postings.values())


def _count_clusters(counts, assignment):
    counts["clusters"] += assignment.n_clusters
    counts["clustered"] += len(assignment.cluster_of)


def _count_eps_pairs(counts, neighbours):
    counts["eps_pairs"] += len(neighbours)


def _count_edges(counts, g):
    counts["edges"] += sum(len(a) for a in g.adjacency) // 2


def _count_rows(counts, table):
    counts["feature_rows"] += table.n_nodes


def _count_tree_nodes(counts, tree):
    counts["tree_nodes"] += tree.n_nodes


def _count_apply_rows(counts, leaves):
    counts["apply_rows"] += len(leaves)


# (module or class, attribute its callers look up, span name, counter)
_BOUNDARIES = [
    (pipeline, "build_stages", "build_stages", None),
    (pipeline, "build_index", "build_index", _count_postings),
    (pipeline, "cluster", "cluster", _count_clusters),
    (pipeline, "build_graph", "build_graph", _count_edges),
    (pipeline, "extract_features", "extract_features", _count_rows),
    (pipeline, "label_nodes", "label_nodes", None),
    (pipeline, "train", "train", None),
    (pipeline, "predict", "predict", None),
    (evaluation, "predict", "predict", None),
    (clustering, "region_query_arr", "region_query", _count_eps_pairs),
    (features, "bfs_layers", "bfs_layers", None),
    (learner, "grow_tree", "grow_tree", _count_tree_nodes),
    (trees.Tree, "apply", "tree_apply", _count_apply_rows),
]
