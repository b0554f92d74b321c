"""Self-tests of the benchmark: every workload runs clean on a tiny
world, tracing reports every per-layer metric, and each output check
fails when a score is flipped or a cluster is split.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from wifi_inout.model import ingest, read_scan_log  # noqa: E402
from wifi_inout.pipeline import score  # noqa: E402

import checks  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER  # noqa: E402


def _inputs(tmp_path_factory, name, seed=3):
    wl = workloads.make(name, seed, tiny=True)
    workdir = tmp_path_factory.mktemp(name)
    workloads.write_inputs(wl, workdir)
    return wl, workdir


@pytest.fixture(scope="module")
def graph_round(tmp_path_factory):
    wl, workdir = _inputs(tmp_path_factory, "batch_graph_rf")
    out = measure.run_round(wl, workdir)["outputs"][0]
    truth = checks.read_truth(wl.test_paths(workdir)[0])
    return wl, out, truth


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_runs_clean_on_a_tiny_world(tmp_path_factory, name):
    wl, workdir = _inputs(tmp_path_factory, name)
    result = measure.measure(wl, workdir, seconds=0.0, trace=False)
    assert result["errors"] == []
    assert result["attempted"] == 1 + len(wl.tests)
    assert result["failed"] == 0
    assert result["fit_s"] > 0 and result["score_s"] > 0
    assert 0.5 < result["accuracy"] <= 1.0


@pytest.mark.parametrize("name", ["batch_graph_rf", "batch_fingerprints_gbm"])
def test_trace_reports_every_layer_metric(tmp_path_factory, name):
    wl, workdir = _inputs(tmp_path_factory, name)
    result = measure.measure(wl, workdir, seconds=0.0, trace=True)
    assert result["errors"] == []
    layers = result["layers"]
    assert sorted(layers) == sorted(m for m, _, _ in PER_LAYER)
    assert layers["model.fingerprints"] == sum(
        int(w.duration_s / w.scan_period_s) for w in (wl.train, *wl.tests))
    assert layers["trees.grow.calls"] == 100
    if wl.config.variant == "fingerprints":
        assert layers["fpindex.region_query.calls"] == 0
        assert layers["features.rows"] == layers["model.fingerprints"]
    else:
        # one region query per fingerprint, for the fit and the score
        assert layers["fpindex.region_query.calls"] == layers["model.fingerprints"]
        assert 0 < layers["clustering.new_label_ratio"] <= 1


def test_peak_rss_leaves_out_the_memory_of_the_starting_process():
    # the worker starts after run.py's set-up; a large parent must not
    # raise the worker's figure (getrusage's ru_maxrss would: Linux
    # carries the pre-exec peak over)
    code = (f"import sys; sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / 'src')!r}]; "
            "import measure; print(measure.peak_rss_mb())")

    def child_peak_mb():
        return float(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                    text=True, check=True, timeout=60).stdout)

    alone = child_peak_mb()
    ballast = b"\x01" * (256 << 20)
    beside_ballast = child_peak_mb()
    del ballast
    assert beside_ballast < alone + 64


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER


def test_checks_pass_on_the_library_output(graph_round):
    wl, out, truth = graph_round
    assert measure.verify_batch(out, truth, wl.config, list(range(0, truth.T, 50))) == []


def _flip_one(out, truth, how):
    """Copy of `out` with the score of one labeled indoor fingerprint
    that shares its cluster flipped."""
    cluster_of = out["cluster_of"]
    sizes = np.bincount(cluster_of)
    i = next(i for i in range(truth.T)
             if truth.labels[i] == "indoor" and out["fp_scores"][i] >= 0.5
             and sizes[cluster_of[i]] > 1)
    scores = out["fp_scores"].copy()
    scores[i] = -scores[i] if how == "negate" else 1.0 - scores[i]
    return {**out, "fp_scores": scores}


@pytest.mark.parametrize("how", ["negate", "complement"])
def test_flipped_score_fails_the_score_checks(graph_round, how):
    wl, out, truth = graph_round
    bad = _flip_one(out, truth, how)
    report = out["report"]
    assert checks.check_scores(bad["fp_scores"], bad["node_scores"], bad["cluster_of"], truth.T)
    assert checks.check_auc(bad["fp_scores"], truth.labels, report.auc)
    assert checks.check_accuracy(bad["fp_scores"], truth.labels, wl.config.threshold,
                                 report.accuracy, report.n_evaluated)


def test_negated_score_is_out_of_range(graph_round):
    wl, out, truth = graph_round
    bad = _flip_one(out, truth, "negate")
    errors = checks.check_scores(bad["fp_scores"], bad["node_scores"], bad["cluster_of"], truth.T)
    assert any("outside [0, 1]" in e for e in errors)


def test_flipped_scores_fail_the_graph_auc_floor(graph_round):
    wl, out, truth = graph_round
    flipped = 1.0 - out["fp_scores"]
    assert checks.check_graph_auc(out["report"].auc) == []
    assert checks.check_graph_auc(checks.recomputed_auc(flipped, truth.labels))


def test_split_cluster_fails_the_closure_check(graph_round):
    wl, out, truth = graph_round
    cluster_of = out["cluster_of"]
    eps = wl.config.eps
    # a fingerprint with a neighbour within eps, moved to a cluster of its own
    q, j = next((q, j) for q in range(truth.T) for j in range(q + 1, min(q + 5, truth.T))
                if truth.readings[q]
                and checks.rank_distance(truth.readings[q], truth.readings[j], q, j) <= eps)
    split = cluster_of.copy()
    split[j] = cluster_of.max() + 1
    node_scores = np.append(out["node_scores"], out["node_scores"][cluster_of[j]])
    assert checks.check_closure(cluster_of, truth, [q], eps) == []
    assert checks.check_closure(split, truth, [q], eps)
    # the split alone leaves every score check satisfied
    assert checks.check_scores(out["fp_scores"], node_scores, split, truth.T) == []


def test_merged_singletons_fail_the_singleton_check():
    cluster_of = np.arange(10)
    assert checks.check_singletons(cluster_of) == []
    cluster_of[4] = 3
    assert checks.check_singletons(cluster_of)


def test_rank_distance_cases():
    a = {"x": -50, "y": -60, "z": -70}
    assert checks.rank_distance(a, a, 0, 9) == 0.0
    assert checks.rank_distance(a, {"w": -40}, 0, 1) == 2.0
    assert checks.rank_distance({}, {}, 4, 5) == 0.0
    assert checks.rank_distance({}, {}, 4, 6) == 2.0
    assert checks.rank_distance({"x": -50}, {"x": -80}, 0, 1) == 0.0
    # reversed order over three shared APs: rho = -1
    assert checks.rank_distance(a, {"x": -70, "y": -60, "z": -50}, 0, 1) == 2.0


def test_warmup_checks_catch_a_missing_minute_a_wrong_count_and_flipped_scores(
        tmp_path_factory):
    wl, workdir = _inputs(tmp_path_factory, "warmup_stream")
    r = measure.run_round(wl, workdir)
    entries = r["outputs"][0]["entries"]
    path = wl.test_paths(workdir)[0]
    truth = checks.read_truth(path)
    assert checks.check_warmup(entries, truth, wl.warmup_minutes) == []
    assert checks.check_warmup(entries[:-1], truth, wl.warmup_minutes)
    miscounted = [dataclasses.replace(e, n_evaluated=e.n_evaluated + 1) if e.minute == 3 else e
                  for e in entries]
    assert checks.check_warmup(miscounted, truth, wl.warmup_minutes)

    pred, _ = score(ingest(read_scan_log(path)), r["model"], wl.config)
    threshold = wl.config.threshold
    assert checks.check_last_minute(entries, pred.fp_scores, truth.labels, threshold) == []
    assert checks.check_last_minute(entries, 1.0 - pred.fp_scores, truth.labels, threshold)


def test_run_stops_without_the_library_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch_graph_rf",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
