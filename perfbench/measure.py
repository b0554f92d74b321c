"""Timed rounds of one workload and the checks of their outputs.

A round fits a model on the training scan log and scores every test scan
log, each step from the file on disk through the library's public API:

  fit   = read_scan_log + ingest + pipeline.fit
  score = read_scan_log + ingest + pipeline.score (batch workloads)
          or evaluation.warmup_eval (warm-up workload), summed over logs

``evaluate`` runs after each batch score, outside the timed step. With
tracing on, rounds alternate between untraced and traced, so one run
gives both the per-layer figures and the tracing overhead.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Dict, List, Optional

import numpy as np

from wifi_inout import pipeline
from wifi_inout.evaluation import evaluate, warmup_eval
from wifi_inout.model import ingest, read_scan_log

import checks
from tracing import Tracer, untraced
from workloads import Workload

# eps-closure query fingerprints per run, spread over the test logs
CLOSURE_QUERIES = 24


def _batch_outputs(pred, stages, report) -> Dict:
    return {
        "fp_scores": pred.fp_scores,
        "node_scores": pred.node_scores,
        "cluster_of": stages.assignment.cluster_of,
        "report": report,
        "correct": report.tp + report.tn,
        "n": report.n_evaluated,
    }


def run_round(wl: Workload, workdir, tracer: Optional[Tracer] = None) -> Dict:
    """One fit and one score of every test log, traced by `tracer` if given."""
    call = tracer.span if tracer else untraced
    cfg = wl.config

    def read(path):
        m = call("ingest", ingest, call("read_scan_log", read_scan_log, path))
        if tracer:
            tracer.counts["fingerprints"] += m.T
        return m

    gc.collect()
    t0 = time.perf_counter()
    model, _ = pipeline.fit(read(wl.train_path(workdir)), cfg)
    fit_s = time.perf_counter() - t0

    score_s = 0.0
    outputs = []
    for path in wl.test_paths(workdir):
        gc.collect()
        t0 = time.perf_counter()
        m = read(path)
        if wl.warmup_minutes is not None:
            rep = call("warmup_eval", warmup_eval, model, m, wl.warmup_minutes, cfg)
            score_s += time.perf_counter() - t0
            outputs.append({
                "entries": rep.entries,
                "correct": sum(round(e.accuracy * e.n_evaluated) for e in rep.entries),
                "n": sum(e.n_evaluated for e in rep.entries),
            })
        else:
            pred, stages = pipeline.score(m, model, cfg)
            score_s += time.perf_counter() - t0
            outputs.append(_batch_outputs(pred, stages, call("evaluate", evaluate, pred, m.labels)))
    return {"fit_s": fit_s, "score_s": score_s, "model": model, "outputs": outputs}


def _same_outputs(a: Dict, b: Dict) -> bool:
    if "entries" in a:
        return a["entries"] == b["entries"]
    return np.array_equal(a["fp_scores"], b["fp_scores"])


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it was exec'd.

    VmHWM belongs to the address space, which exec replaces; getrusage's
    ru_maxrss does not, as Linux carries the peak of the memory before
    exec over, so it would count the set-up memory of run.py."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def measure(wl: Workload, workdir, seconds: float, trace: bool) -> Dict:
    """Run whole rounds until `seconds` have passed (at least one round;
    with tracing, at least one untraced and one traced), then check the
    first round's outputs and that every later round repeated them."""
    tracer = Tracer()
    untraced_rounds: List[Dict] = []
    traced_rounds: List[Dict] = []
    first = None
    errors: List[str] = []
    start = time.perf_counter()
    while True:
        if trace and len(untraced_rounds) > len(traced_rounds):
            with tracer.recording():
                r = run_round(wl, workdir, tracer)
            r["layers"] = tracer.layer_metrics()
            traced_rounds.append(r)
        else:
            r = run_round(wl, workdir)
            untraced_rounds.append(r)
        if first is None:
            first = r
        else:
            if not all(map(_same_outputs, first["outputs"], r["outputs"])):
                errors.append("a later round gave other outputs than the first")
            del r["model"], r["outputs"]
        if time.perf_counter() - start >= seconds and (traced_rounds or not trace):
            break
    peak_mb = peak_rss_mb()

    errors += verify(wl, workdir, first)
    result = {
        "attempted": (len(untraced_rounds) + len(traced_rounds)) * (1 + len(wl.tests)),
        "failed": 0,  # an operation that raises stops the run
        "rounds": [{"fit_s": r["fit_s"], "score_s": r["score_s"]} for r in untraced_rounds],
        "fit_s": statistics.median(r["fit_s"] for r in untraced_rounds),
        "score_s": statistics.median(r["score_s"] for r in untraced_rounds),
        "peak_rss_mb": peak_mb,
        "accuracy": (sum(o["correct"] for o in first["outputs"])
                     / sum(o["n"] for o in first["outputs"])),
        "errors": errors,
    }
    if trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced_rounds)
                  for name in traced_rounds[0]["layers"]}
        layers["trace.overhead_s"] = (
            statistics.median(r["fit_s"] + r["score_s"] for r in traced_rounds)
            - statistics.median(r["fit_s"] + r["score_s"] for r in untraced_rounds))
        result["layers"] = layers
        result["traced_rounds"] = [{"fit_s": r["fit_s"], "score_s": r["score_s"]}
                                   for r in traced_rounds]
    return result


def verify(wl: Workload, workdir, first: Dict) -> List[str]:
    """Check one round's outputs against the generator's ground truth.
    The closure check samples CLOSURE_QUERIES fingerprints spread over
    the test logs."""
    cfg = wl.config
    errors: List[str] = []
    for k, (path, out) in enumerate(zip(wl.test_paths(workdir), first["outputs"])):
        truth = checks.read_truth(path)
        found: List[str] = []
        if wl.warmup_minutes is not None:
            found += checks.check_warmup(out["entries"], truth, wl.warmup_minutes)
            # the last minute spans the whole stream: it must agree with a
            # batch score of the stream, which the checks below then cover
            m = ingest(read_scan_log(path))
            pred, stages = pipeline.score(m, first["model"], cfg)
            found += checks.check_last_minute(out["entries"], pred.fp_scores, truth.labels,
                                              cfg.threshold)
            out = _batch_outputs(pred, stages, evaluate(pred, m.labels))
        rng = np.random.default_rng(wl.seed + k)
        n_q = min(truth.T, max(1, CLOSURE_QUERIES // len(wl.tests)))
        queries = sorted(int(q) for q in rng.choice(truth.T, size=n_q, replace=False))
        found += verify_batch(out, truth, cfg, queries)
        errors += [f"test log {k}: {e}" for e in found]
    return errors


def verify_batch(out: Dict, truth: checks.Truth, cfg, queries: List[int]) -> List[str]:
    report = out["report"]
    errors = checks.check_scores(out["fp_scores"], out["node_scores"], out["cluster_of"], truth.T)
    errors += checks.check_auc(out["fp_scores"], truth.labels, report.auc)
    errors += checks.check_accuracy(out["fp_scores"], truth.labels, cfg.threshold,
                                    report.accuracy, report.n_evaluated)
    if cfg.variant == "fingerprints":
        errors += checks.check_singletons(out["cluster_of"])
    else:
        errors += checks.check_closure(out["cluster_of"], truth, queries, cfg.eps)
    if cfg.variant == "graph":
        errors += checks.check_graph_auc(report.auc)
    return errors
