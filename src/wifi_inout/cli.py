"""Command-line entry points for the indoor-outdoor detection pipeline.

Every stage reads and writes plain files (scan logs, cluster
assignments, feature CSVs, model JSON, prediction JSONL), so a chained
run of individual stages reproduces `pipeline` bit for bit. Stage
counters (T, N, C, nodes, edges) go to stderr; data and tables go to
stdout or --out files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional

import numpy as np

from . import evaluation, pipeline
from .clustering import ClusterAssignment, read_assignment, write_assignment
from .config import (
    LEARNERS, VARIANTS, PipelineConfig, config_from_file, config_with_overrides,
)
from .errors import FormatError, WifiInoutError, first_non_int64
from .features import (
    neighborhood_feature_grid,
    read_features_csv,
    select_neighborhood_sizes,
    write_features_csv,
)
from .graph import build_graph, write_graph
from .learner import Model, Prediction, label_nodes
from .model import INDOOR, OUTDOOR, ingest, label_codes, read_scan_log, write_scan_log
from .synth import WorldSpec, generate, worldspec_from_file


def log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_config(args) -> PipelineConfig:
    cfg = config_from_file(args.config) if args.config else PipelineConfig()
    overrides = {}
    for key in ("seed", "eps", "min_pts", "learner", "threshold", "variant"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = str(value)
    return config_with_overrides(cfg, overrides)


def _load_matrix(path):
    m = ingest(read_scan_log(path))
    log(f"ingested {path}: device={m.device_id} T={m.T} N={m.N}")
    return m


def _print_eval(report: evaluation.EvalReport) -> None:
    auc_text = f"{report.auc:.4f}" if report.auc is not None else "n/a"
    print(f"n_evaluated   {report.n_evaluated}")
    print(f"accuracy      {report.accuracy:.4f}")
    print(f"auc           {auc_text}")
    print(f"indoor_prior  {report.indoor_prior:.4f}")
    print(f"confusion     tp={report.tp} fp={report.fp} tn={report.tn} fn={report.fn}")


def _write_jsonl(path: Optional[str], records) -> None:
    """One JSON object per line, keys sorted; no file when path is unset."""
    if path:
        with open(path, "w", encoding="utf-8") as f:
            for record in records:
                f.write(json.dumps(record, sort_keys=True))
                f.write("\n")


# --- subcommand handlers ----------------------------------------------------

def cmd_synth(args) -> int:
    spec = worldspec_from_file(args.spec) if args.spec else WorldSpec()
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    records = generate(spec)
    write_scan_log(records, args.out)
    n_indoor = sum(1 for r in records if r.label == INDOOR)
    log(f"generated {len(records)} scans ({n_indoor} indoor) -> {args.out}")
    return 0


def cmd_ingest(args) -> int:
    m = _load_matrix(args.scans)
    empty = int(np.count_nonzero(m.k == 0))
    labeled = int(np.count_nonzero(label_codes(m.labels) >= 0))
    log(f"empty={empty} labeled={labeled}")
    if args.out:
        write_scan_log(m.to_records(), args.out)
        log(f"normalized scan log -> {args.out}")
    return 0


def cmd_cluster(args) -> int:
    cfg = _load_config(args)
    m = _load_matrix(args.scans)
    assignment = pipeline.partition(m, cfg)
    write_assignment(assignment, args.out)
    kind = ("singletons" if cfg.variant == "fingerprints"
            else f"eps={cfg.eps}, min_pts={cfg.min_pts}")
    log(f"clusters C={assignment.n_clusters} ({kind}) "
        f"mean_fp_per_cluster={m.T / assignment.n_clusters:.1f} -> {args.out}")
    return 0


def cmd_graph(args) -> int:
    cfg = _load_config(args)
    m = _load_matrix(args.scans)
    assignment = read_assignment(args.clusters)
    g = build_graph(assignment, m, cfg.max_gap_ms)
    write_graph(g, f"{args.out}.edges", f"{args.out}.nodes")
    log(f"graph nodes={g.n_nodes} edges={g.n_edges} -> {args.out}.edges / {args.out}.nodes")
    return 0


def cmd_features(args) -> int:
    cfg = _load_config(args)
    m = _load_matrix(args.scans)
    assignment = read_assignment(args.clusters)
    stages = pipeline.stages(assignment, m, cfg)
    g, table = stages.graph, stages.features
    codes = label_nodes(assignment, m.labels)
    write_features_csv(table, g.node_weight, codes, args.out)
    n_labeled = int(np.count_nonzero(codes >= 0))
    log(f"nodes={g.n_nodes} edges={g.n_edges} features={len(table.names)} "
        f"labeled={n_labeled} unlabeled={g.n_nodes - n_labeled} -> {args.out}")
    return 0


def cmd_select_dims(args) -> int:
    cfg = _load_config(args)
    m = _load_matrix(args.scans)
    assignment = pipeline.partition(m, cfg)
    g = build_graph(assignment, m, cfg.max_gap_ms)
    table = neighborhood_feature_grid(g, m, max_d=args.max_d)
    report = select_neighborhood_sizes(table, label_nodes(assignment, m.labels))
    print("feature            coef        t         p      selected")
    for e in report.entries:
        if e.constant or e.aliased:
            print(f"{e.name:<16} {'constant' if e.constant else 'aliased'} column, dropped")
            continue
        mark = "*" if e.selected else ""
        print(f"{e.name:<16} {e.coef:> 9.4f} {e.t_stat:> 8.3f} {e.p_value:> 9.5f}  {mark}")
    log(f"selected by family: {report.selected_by_family()}")
    _write_jsonl(args.out, [{
        "name": e.name, "family": e.family, "d": e.d,
        "coef": e.coef, "t": e.t_stat, "p": e.p_value,
        "selected": e.selected, "constant": e.constant,
        **({"aliased": True} if e.aliased else {}),
    } for e in report.entries])
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    table, weights, codes = read_features_csv(args.features)
    model = pipeline.train_model(table, codes, weights, cfg)
    model.save(args.out)
    log(f"trained {model.kind} on {np.count_nonzero(codes >= 0)} nodes -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    cfg = _load_config(args)
    m = _load_matrix(args.scans)
    model = Model.load(args.model)
    pred, stages = pipeline.score(m, model, cfg)
    _write_predictions(args.out, pred, stages.assignment)
    log(f"scored T={m.T} nodes={stages.graph.n_nodes} -> {args.out}")
    return 0


# --- predictions file: one {"seq", "node", "score", "label"} object per line ---

def _write_predictions(path, pred: Prediction, assignment: ClusterAssignment) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for i, node in enumerate(assignment.cluster_of):
            f.write(json.dumps({
                "seq": i,
                "node": int(node),
                "score": float(pred.fp_scores[i]),
                "label": pred.fp_labels[i],
            }))
            f.write("\n")


def _read_predictions(path, T: int) -> Prediction:
    """Inverse of _write_predictions for a scan log of T fingerprints;
    seqs must be exactly 0..T-1, node ids, as in any partition of T
    fingerprints, integers in [0, T), and every row of one node must
    carry the same score and label. A node id no row names scores 0,
    outdoor."""
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                r = json.loads(line)
                row = (r["seq"], r["node"], r["score"], r["label"])
            except (json.JSONDecodeError, KeyError, TypeError) as e:
                raise FormatError(f"{path}:{lineno}: bad prediction line: {e}") from e
            seq, node, score, label = row
            if not (first_non_int64((seq, node)) is None and 0 <= node < T
                    and isinstance(score, (int, float)) and not isinstance(score, bool)
                    and 0.0 <= score <= 1.0  # false for NaN
                    and label in (INDOOR, OUTDOOR)):
                raise FormatError(f"{path}:{lineno}: bad prediction values {line}")
            rows.append(row)
    if len(rows) != T:
        raise FormatError(f"{path}: {len(rows)} predictions for {T} scans")
    rows.sort(key=lambda r: r[0])
    if any(r[0] != i for i, r in enumerate(rows)):
        raise FormatError(f"{path}: prediction seqs must be 0..{T - 1}, each once")
    fp_scores = np.array([r[2] for r in rows], dtype=np.float64)
    fp_labels = [r[3] for r in rows]
    node_scores = np.zeros(max(r[1] for r in rows) + 1)
    node_labels = [OUTDOOR] * len(node_scores)
    first = {}
    for seq, node, score, label in rows:
        if first.setdefault(node, (seq, score, label))[1:] != (score, label):
            raise FormatError(f"{path}: seqs {first[node][0]} and {seq} give node {node} "
                              "different scores or labels")
        node_scores[node] = score
        node_labels[node] = label
    return Prediction(node_scores, node_labels, fp_scores, fp_labels)


def cmd_eval(args) -> int:
    _load_config(args)  # a bad flag or config file still exits 1
    m = _load_matrix(args.scans)
    pred = _read_predictions(args.preds, m.T)
    report = evaluation.evaluate(pred, m.labels)
    _print_eval(report)
    _write_jsonl(args.out, [dataclasses.asdict(report)])
    return 0


def cmd_latency(args) -> int:
    _load_config(args)  # a bad flag or config file still exits 1
    m = _load_matrix(args.scans)
    pred = _read_predictions(args.preds, m.T)
    report = evaluation.switch_latency(pred, m.labels, m.timestamps_ms)
    for s in report.switches:
        lat = f"{s.latency_s:.1f}s" if s.latency_s is not None else "never"
        print(f"switch@{s.index:<6} {s.direction:<11} latency={lat} "
              f"{'MISSED' if s.missed else ''}")
    for direction, mean in report.mean_latency_s.items():
        text = f"{mean:.2f}s" if mean is not None else "n/a"
        print(f"mean latency {direction}: {text}")
    print(f"missed fraction: {report.missed_fraction:.3f}")
    _write_jsonl(args.out, [
        *({"record": "switch", **dataclasses.asdict(s)} for s in report.switches),
        {"record": "summary", "mean_latency_s": report.mean_latency_s,
         "missed_fraction": report.missed_fraction},
    ])
    return 0


def cmd_xval(args) -> int:
    cfg = _load_config(args)
    m = _load_matrix(args.scans)
    report = evaluation.location_cross_validation(m, cfg)
    for loc, rep in report.per_location.items():
        auc_text = f"{rep.auc:.4f}" if rep.auc is not None else "n/a"
        print(f"{loc:<24} n={rep.n_evaluated:<7} acc={rep.accuracy:.4f} auc={auc_text}")
    mean_text = f"{report.mean_auc:.4f}" if report.mean_auc is not None else "n/a"
    print(f"mean auc: {mean_text}")
    pooled_auc = f"{report.pooled.auc:.4f}" if report.pooled.auc is not None else "n/a"
    print(f"pooled:   n={report.pooled.n_evaluated} "
          f"acc={report.pooled.accuracy:.4f} auc={pooled_auc}")
    for loc, reason in report.skipped.items():
        log(f"skipped fold {loc}: {reason}")
    _write_jsonl(args.out, [
        *({"record": "fold", "location": loc, **dataclasses.asdict(rep)}
          for loc, rep in report.per_location.items()),
        {"record": "summary", "mean_auc": report.mean_auc,
         "pooled": dataclasses.asdict(report.pooled),
         "skipped": report.skipped},
    ])
    return 0


def cmd_warmup(args) -> int:
    cfg = _load_config(args)
    m = _load_matrix(args.scans)
    model = Model.load(args.model)
    report = evaluation.warmup_eval(model, m, args.minutes, cfg)
    lines = ["minute,accuracy"]
    for e in report.entries:
        lines.append(f"{e.minute},{e.accuracy!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        log(f"warm-up series -> {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_pipeline(args) -> int:
    cfg = _load_config(args)
    train_m = _load_matrix(args.train)
    test_m = _load_matrix(args.test)
    model, _ = pipeline.fit(train_m, cfg)
    pred, stages = pipeline.score(test_m, model, cfg)
    report = evaluation.evaluate(pred, test_m.labels)
    _print_eval(report)
    if args.out:
        model.save(f"{args.out}.model.json")
        _write_predictions(f"{args.out}.preds.jsonl", pred, stages.assignment)
        _write_jsonl(f"{args.out}.report.json", [dataclasses.asdict(report)])
        log(f"artifacts -> {args.out}.model.json / .preds.jsonl / .report.json")
    return 0


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--min-pts", dest="min_pts", type=int, default=None)
    p.add_argument("--learner", choices=LEARNERS, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--variant", choices=VARIANTS, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wifi-inout",
        description="Indoor-outdoor detection from Wi-Fi scan streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled scan stream")
    p.add_argument("--spec", help="world spec file (key = value)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="validate a scan log and report counts")
    p.add_argument("--scans", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("cluster", help="cluster fingerprints")
    p.add_argument("--scans", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("graph", help="build the cluster transition graph")
    p.add_argument("--scans", required=True)
    p.add_argument("--clusters", required=True)
    p.add_argument("--out", required=True, help="output prefix (.edges/.nodes)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("features", help="extract node features to CSV")
    p.add_argument("--scans", required=True)
    p.add_argument("--clusters", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("select-dims", help="re-derive neighborhood sizes by OLS")
    p.add_argument("--scans", required=True)
    p.add_argument("--max-d", dest="max_d", type=int, default=30)
    p.add_argument("--out")
    _add_config_flags(p)
    p.set_defaults(func=cmd_select_dims)

    p = sub.add_parser("train", help="train an ensemble from a feature CSV")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score a scan stream with a model")
    p.add_argument("--model", required=True)
    p.add_argument("--scans", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="evaluate predictions against labels")
    p.add_argument("--preds", required=True)
    p.add_argument("--scans", required=True)
    p.add_argument("--out")
    _add_config_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("latency", help="switch-detection latency report")
    p.add_argument("--preds", required=True)
    p.add_argument("--scans", required=True)
    p.add_argument("--out")
    _add_config_flags(p)
    p.set_defaults(func=cmd_latency)

    p = sub.add_parser("xval", help="location-based cross-validation")
    p.add_argument("--scans", required=True)
    p.add_argument("--out")
    _add_config_flags(p)
    p.set_defaults(func=cmd_xval)

    p = sub.add_parser("warmup", help="per-minute warm-up evaluation")
    p.add_argument("--model", required=True)
    p.add_argument("--scans", required=True)
    p.add_argument("--minutes", type=int, default=10)
    p.add_argument("--out")
    _add_config_flags(p)
    p.set_defaults(func=cmd_warmup)

    p = sub.add_parser("pipeline", help="train on one stream, evaluate another")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", help="artifact prefix")
    _add_config_flags(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WifiInoutError, OSError, UnicodeDecodeError) as e:  # input files are UTF-8
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
