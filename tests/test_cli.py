import contextlib
import io
import json
import time
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wifi_inout.cli import _read_predictions, _write_predictions, main
from wifi_inout.clustering import ClusterAssignment
from wifi_inout.errors import FormatError
from wifi_inout.features import MAX_GRID_D
from wifi_inout.learner import Prediction
from wifi_inout.model import INDOOR, OUTDOOR, read_scan_log, write_scan_log

from conftest import mac, make_records

WORLD_A = (
    "seed = 1\n"
    "duration_s = 1500\n"
    "buildings = 3\n"
)
WORLD_B = (
    "seed = 2\n"
    "duration_s = 1500\n"
    "buildings = 3\n"
)


@pytest.fixture
def worlds(tmp_path):
    spec_a = tmp_path / "a.cfg"
    spec_a.write_text(WORLD_A, encoding="utf-8")
    spec_b = tmp_path / "b.cfg"
    spec_b.write_text(WORLD_B, encoding="utf-8")
    a = tmp_path / "a.scans"
    b = tmp_path / "b.scans"
    assert main(["synth", "--spec", str(spec_a), "--out", str(a)]) == 0
    assert main(["synth", "--spec", str(spec_b), "--out", str(b)]) == 0
    return a, b


def test_synth_seed_flag_overrides(tmp_path):
    out1 = tmp_path / "s1.scans"
    out2 = tmp_path / "s2.scans"
    spec = tmp_path / "w.cfg"
    spec.write_text("duration_s = 300\n", encoding="utf-8")
    assert main(["synth", "--spec", str(spec), "--seed", "5", "--out", str(out1)]) == 0
    assert main(["synth", "--spec", str(spec), "--seed", "5", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    out3 = tmp_path / "s3.scans"
    assert main(["synth", "--spec", str(spec), "--seed", "6", "--out", str(out3)]) == 0
    assert out1.read_bytes() != out3.read_bytes()


def test_ingest_normalizes_round_trip(tmp_path, worlds):
    a, _ = worlds
    out = tmp_path / "normalized.scans"
    assert main(["ingest", "--scans", str(a), "--out", str(out)]) == 0
    assert out.read_bytes() == a.read_bytes()


@pytest.mark.parametrize("variant, learner", [
    (variant, learner)
    for variant in ("graph", "clusters", "fingerprints")
    for learner in ("rf", "gbm")
])
def test_stagewise_equals_monolithic_pipeline(tmp_path, worlds, variant, learner):
    a, b = worlds
    clusters = tmp_path / "a.clusters.jsonl"
    features = tmp_path / "a.features.csv"
    model = tmp_path / "model.json"
    preds = tmp_path / "b.preds.jsonl"
    report1 = tmp_path / "report1.json"
    flags = ["--variant", variant, "--learner", learner, "--seed", "7"]

    assert main(["cluster", "--scans", str(a), "--out", str(clusters), *flags]) == 0
    assert main(["features", "--scans", str(a), "--clusters", str(clusters),
                 "--out", str(features), *flags]) == 0
    assert main(["train", "--features", str(features), "--out", str(model), *flags]) == 0
    assert main(["predict", "--model", str(model), "--scans", str(b),
                 "--out", str(preds), *flags]) == 0
    assert main(["eval", "--preds", str(preds), "--scans", str(b),
                 "--out", str(report1), *flags]) == 0

    prefix = tmp_path / "mono"
    assert main(["pipeline", "--train", str(a), "--test", str(b),
                 "--out", str(prefix), *flags]) == 0

    assert report1.read_bytes() == (tmp_path / "mono.report.json").read_bytes()
    assert model.read_bytes() == (tmp_path / "mono.model.json").read_bytes()
    assert preds.read_bytes() == (tmp_path / "mono.preds.jsonl").read_bytes()


def test_pipeline_seed_flows_to_model(tmp_path, worlds):
    a, b = worlds
    p1 = tmp_path / "run1"
    p2 = tmp_path / "run2"
    p3 = tmp_path / "run3"
    for prefix, seed in ((p1, "3"), (p2, "3"), (p3, "4")):
        assert main(["pipeline", "--train", str(a), "--test", str(b),
                     "--seed", seed, "--out", str(prefix)]) == 0
    read = lambda p: (tmp_path / (p.name + ".model.json")).read_bytes()
    assert read(p1) == read(p2)
    assert read(p1) != read(p3)


def test_graph_subcommand_writes_edges_and_nodes(tmp_path, worlds):
    a, _ = worlds
    clusters = tmp_path / "c.jsonl"
    assert main(["cluster", "--scans", str(a), "--out", str(clusters)]) == 0
    prefix = tmp_path / "g"
    assert main(["graph", "--scans", str(a), "--clusters", str(clusters),
                 "--out", str(prefix)]) == 0
    edges = (tmp_path / "g.edges").read_text().splitlines()
    nodes = (tmp_path / "g.nodes").read_text().splitlines()
    assert nodes[0] == "id weight size"
    n_fp = len(read_scan_log(a))
    weights = [int(line.split()[1]) for line in nodes[1:]]
    assert sum(weights) == n_fp
    ids = {int(line.split()[0]) for line in nodes[1:]}
    for line in edges:
        u, v = map(int, line.split())
        assert u < v and u in ids and v in ids


def test_eval_table_and_report(tmp_path, worlds, capsys):
    a, b = worlds
    prefix = tmp_path / "run"
    assert main(["pipeline", "--train", str(a), "--test", str(b),
                 "--out", str(prefix)]) == 0
    out = capsys.readouterr().out
    assert "accuracy" in out and "auc" in out and "confusion" in out
    report = json.loads((tmp_path / "run.report.json").read_text())
    assert set(report) == {"accuracy", "auc", "indoor_prior", "tp", "fp",
                           "tn", "fn", "n_evaluated"}


@pytest.mark.parametrize("command", ["eval", "latency"])
def test_eval_and_latency_take_labels_from_the_predictions_file(tmp_path, worlds, capsys,
                                                                command):
    a, b = worlds
    prefix = tmp_path / "run"
    assert main(["pipeline", "--train", str(a), "--test", str(b),
                 "--out", str(prefix)]) == 0
    outputs = set()
    for threshold in ("0.05", "0.5", "0.95"):
        out = tmp_path / f"{command}.{threshold}.jsonl"
        capsys.readouterr()
        assert main([command, "--preds", str(tmp_path / "run.preds.jsonl"),
                     "--scans", str(b), "--threshold", threshold, "--out", str(out)]) == 0
        outputs.add((capsys.readouterr().out, out.read_bytes()))
    assert len(outputs) == 1


def test_latency_subcommand(tmp_path, worlds):
    a, b = worlds
    model = tmp_path / "model.json"
    preds = tmp_path / "preds.jsonl"
    clusters = tmp_path / "c.jsonl"
    features = tmp_path / "f.csv"
    assert main(["cluster", "--scans", str(a), "--out", str(clusters)]) == 0
    assert main(["features", "--scans", str(a), "--clusters", str(clusters),
                 "--out", str(features)]) == 0
    assert main(["train", "--features", str(features), "--out", str(model)]) == 0
    assert main(["predict", "--model", str(model), "--scans", str(b),
                 "--out", str(preds)]) == 0
    out = tmp_path / "latency.jsonl"
    assert main(["latency", "--preds", str(preds), "--scans", str(b),
                 "--out", str(out)]) == 0
    records = [json.loads(l) for l in out.read_text().splitlines()]
    switches = [r for r in records if r["record"] == "switch"]
    summary = [r for r in records if r["record"] == "summary"]
    assert switches and len(summary) == 1
    assert 0.0 <= summary[0]["missed_fraction"] <= 1.0


def test_warmup_subcommand(tmp_path, worlds):
    a, _ = worlds
    indoor_spec = tmp_path / "indoor.cfg"
    indoor_spec.write_text(
        "seed = 9\nduration_s = 300\nbuildings = 1\n"
        "outdoor_dwell_min_s = 0\noutdoor_dwell_max_s = 0\n",
        encoding="utf-8",
    )
    scenario = tmp_path / "scenario.scans"
    assert main(["synth", "--spec", str(indoor_spec), "--out", str(scenario)]) == 0
    prefix = tmp_path / "run"
    b = str(a)
    assert main(["pipeline", "--train", str(a), "--test", b,
                 "--out", str(prefix)]) == 0
    series = tmp_path / "warmup.csv"
    assert main(["warmup", "--model", str(tmp_path / "run.model.json"),
                 "--scans", str(scenario), "--minutes", "10",
                 "--out", str(series)]) == 0
    lines = series.read_text().splitlines()
    assert lines[0] == "minute,accuracy"
    assert len(lines) == 6  # 5-minute scenario truncates the series
    for i, line in enumerate(lines[1:], 1):
        minute, acc = line.split(",")
        assert int(minute) == i
        assert 0.0 <= float(acc) <= 1.0


def test_xval_subcommand(tmp_path, worlds):
    a, _ = worlds
    out = tmp_path / "xval.jsonl"
    assert main(["xval", "--scans", str(a), "--out", str(out)]) == 0
    records = [json.loads(l) for l in out.read_text().splitlines()]
    folds = [r for r in records if r["record"] == "fold"]
    summary = [r for r in records if r["record"] == "summary"]
    assert folds and len(summary) == 1
    assert summary[0]["pooled"]["n_evaluated"] > 0


def test_select_dims_subcommand(tmp_path, worlds):
    a, _ = worlds
    out = tmp_path / "dims.jsonl"
    assert main(["select-dims", "--scans", str(a), "--max-d", "8",
                 "--out", str(out)]) == 0
    entries = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(entries) == 4 * 9
    assert any(e["selected"] for e in entries)


def test_select_dims_reports_aliased_columns_on_a_short_log(tmp_path, capsys):
    """On a 40-minute world (800 scans) the hop-0..30 grid holds columns
    that are linear combinations of others; they are reported aliased and
    the rest are fitted, instead of the command refusing the design."""
    spec = tmp_path / "short.cfg"
    spec.write_text("seed = 2\nduration_s = 2400\n", encoding="utf-8")
    scans = tmp_path / "short.scans"
    out = tmp_path / "dims.jsonl"
    assert main(["synth", "--spec", str(spec), "--out", str(scans)]) == 0
    capsys.readouterr()
    assert main(["select-dims", "--scans", str(scans), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    entries = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(entries) == 4 * 31
    aliased = [e for e in entries if e.get("aliased")]
    assert aliased and all(e["coef"] is None and not e["selected"] for e in aliased)
    assert all(e["coef"] is not None for e in entries if not e["constant"] and e not in aliased)
    assert printed.count("aliased column, dropped") == len(aliased)


def test_select_dims_negative_max_d_exits_one(tmp_path, capsys):
    scans = _tiny_scans(tmp_path)
    capsys.readouterr()
    assert main(["select-dims", "--scans", str(scans), "--max-d", "-2"]) == 1
    captured = capsys.readouterr()
    assert "error: max_d must be >= 0" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("max_d", [10**6, 2**62])
def test_select_dims_huge_max_d_exits_one_at_once(tmp_path, capsys, max_d):
    """A hop grid past MAX_GRID_D is refused before any column is built."""
    scans = _tiny_scans(tmp_path)
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["select-dims", "--scans", str(scans), "--max-d", str(max_d)]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert f"error: max_d must be >= 0 and <= {MAX_GRID_D}, got {max_d}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_warmup_minutes_below_one_exits_one(tmp_path, worlds, capsys):
    a, b = worlds
    cfg = tmp_path / "small.cfg"
    cfg.write_text("n_trees = 5\n", encoding="utf-8")
    assert main(["pipeline", "--train", str(a), "--test", str(b), "--config", str(cfg),
                 "--out", str(tmp_path / "run")]) == 0
    for minutes in ("0", "-3"):
        capsys.readouterr()
        assert main(["warmup", "--model", str(tmp_path / "run.model.json"),
                     "--scans", str(b), "--minutes", minutes]) == 1
        captured = capsys.readouterr()
        assert "error: minutes must be >= 1" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("location", ["5", "[1]"])
def test_xval_non_string_location_exits_one(tmp_path, capsys, location):
    scans = _tiny_scans(tmp_path)
    lines = scans.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    record["location"] = json.loads(location)
    lines[0] = json.dumps(record)
    scans.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["xval", "--scans", str(scans)]) == 1
    err = capsys.readouterr().err
    assert "error: bad scan record field types" in err and "Traceback" not in err


@pytest.mark.parametrize("field, value", [("timestamp_ms", 2**63), ("seq", -2**63 - 1),
                                          ("rssi_dbm", 2**63)])
def test_ingest_integer_beyond_int64_exits_one(tmp_path, capsys, field, value):
    scans = _tiny_scans(tmp_path)
    lines = scans.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    k = next(k for k, rec in enumerate(records) if rec["scan"]) if field == "rssi_dbm" else -1
    (records[k]["scan"][0] if field == "rssi_dbm" else records[k])[field] = value
    scans.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
    capsys.readouterr()
    assert main(["ingest", "--scans", str(scans)]) == 1
    err = capsys.readouterr().err
    assert "error: record" in err and "Traceback" not in err


def test_unknown_flag_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cluster", "--scans", "x", "--out", "y", "--frobnicate"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_domain_errors_exit_one(tmp_path, capsys):
    missing = tmp_path / "nope.scans"
    assert main(["ingest", "--scans", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err

    scans = tmp_path / "ok.scans"
    spec = tmp_path / "w.cfg"
    spec.write_text("duration_s = 60\n", encoding="utf-8")
    assert main(["synth", "--spec", str(spec), "--out", str(scans)]) == 0
    assert main(["cluster", "--scans", str(scans), "--eps", "2.5",
                 "--out", str(tmp_path / "c.jsonl")]) == 1
    assert "error:" in capsys.readouterr().err


def test_config_file_plus_flag_override(tmp_path, worlds):
    a, b = worlds
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text("learner = gbm\nseed = 13\ngbm_rounds = 25\n", encoding="utf-8")
    prefix = tmp_path / "gbm_run"
    assert main(["pipeline", "--train", str(a), "--test", str(b),
                 "--config", str(cfg), "--out", str(prefix)]) == 0
    model = json.loads((tmp_path / "gbm_run.model.json").read_text())
    assert model["kind"] == "gbm"
    assert model["seed"] == 13
    assert model["hyperparameters"]["n_rounds"] == 25
    # flag overrides file
    prefix2 = tmp_path / "rf_run"
    assert main(["pipeline", "--train", str(a), "--test", str(b),
                 "--config", str(cfg), "--learner", "rf",
                 "--out", str(prefix2)]) == 0
    model2 = json.loads((tmp_path / "rf_run.model.json").read_text())
    assert model2["kind"] == "random_forest"


def _tiny_scans(tmp_path):
    spec = tmp_path / "tiny.cfg"
    spec.write_text("duration_s = 60\n", encoding="utf-8")
    scans = tmp_path / "tiny.scans"
    assert main(["synth", "--spec", str(spec), "--out", str(scans)]) == 0
    return scans


@pytest.mark.parametrize("key", [f"{family}_d_{end}"
                                 for family in ("neighbors", "power", "aps", "fps")
                                 for end in ("min", "max")])
def test_hop_range_key_exits_one(tmp_path, capsys, key):
    # the hop ranges are the paper's, fixed: no config key sets them
    scans = _tiny_scans(tmp_path)
    cfg = tmp_path / "hops.cfg"
    cfg.write_text(f"{key} = 4\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["pipeline", "--train", str(scans), "--test", str(scans),
                 "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert f"error: unknown PipelineConfig key {key!r}" in err and "Traceback" not in err
    assert not (tmp_path / "run.model.json").exists()


@pytest.mark.parametrize("key, value", [("rf_max_features", "4"), ("rf_max_depth", "4"),
                                        ("min_leaf", "1"), ("gbm_depth", "3"),
                                        ("learning_rate", "0.1"), ("tie_rule", "indoor")])
def test_learner_setting_key_exits_one(tmp_path, capsys, key, value):
    # the learners run at their defaults but for the ensemble size, and ties
    # go to indoor: no config key sets the rest
    features = tmp_path / "f.csv"
    features.write_bytes(_SMALL_FEATURES)
    cfg = tmp_path / "learner.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    model = tmp_path / "m.json"
    assert main(["train", "--features", str(features), "--config", str(cfg),
                 "--out", str(model)]) == 1
    err = capsys.readouterr().err
    assert f"error: unknown PipelineConfig key {key!r}" in err and "Traceback" not in err
    assert not model.exists()


@pytest.mark.parametrize("line", ["eps = none", "seed = none", "seed = 3.5"])
def test_bad_config_value_exits_one(tmp_path, capsys, line):
    scans = _tiny_scans(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["cluster", "--scans", str(scans), "--config", str(cfg),
                 "--out", str(tmp_path / "c.jsonl")]) == 1
    assert main(["pipeline", "--train", str(scans), "--test", str(scans),
                 "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and "Traceback" not in err
    assert not (tmp_path / "run.model.json").exists()


@pytest.mark.parametrize("variant, kind", [
    ("graph", "(eps=0.22, min_pts=1)"), ("fingerprints", "(singletons)"),
])
def test_cluster_log_names_the_partition(tmp_path, capsys, variant, kind):
    scans = _tiny_scans(tmp_path)
    capsys.readouterr()
    assert main(["cluster", "--scans", str(scans), "--variant", variant,
                 "--out", str(tmp_path / "c.jsonl")]) == 0
    line = next(l for l in capsys.readouterr().err.splitlines() if l.startswith("clusters C="))
    assert kind in line
    assert ("eps=" in line) == (variant != "fingerprints")


def test_negative_synth_seed_exits_one(tmp_path, capsys):
    assert main(["synth", "--seed", "-1", "--out", str(tmp_path / "w.scans")]) == 1
    err = capsys.readouterr().err
    assert "error: seed must be >= 0" in err and "Traceback" not in err


def test_negative_seed_flag_exits_one(tmp_path, capsys):
    scans = _tiny_scans(tmp_path)
    assert main(["pipeline", "--train", str(scans), "--test", str(scans),
                 "--seed", "-1"]) == 1
    assert "error: seed must be >= 0" in capsys.readouterr().err


def test_seed_beyond_int64_exits_one(tmp_path, worlds, capsys):
    # a model file holds its seed as an int64, so predict could not read it
    a, b = worlds
    out = tmp_path / "big"
    assert main(["pipeline", "--train", str(a), "--test", str(b),
                 "--seed", str(2**63), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: seed must be <= 2**63 - 1" in err and "Traceback" not in err
    assert not (tmp_path / "big.model.json").exists()


def test_predictions_round_trip(tmp_path):
    assignment = ClusterAssignment(
        cluster_of=np.array([0, 0, 1, 2, 1], dtype=np.int64),
    )
    node_scores = np.array([0.25, 0.5, 1.0 / 3.0])
    fp_scores = node_scores[assignment.cluster_of]
    fp_labels = [INDOOR if s >= 0.5 else OUTDOOR for s in fp_scores]
    pred = Prediction(node_scores, ["outdoor", "indoor", "outdoor"],
                      fp_scores, fp_labels)
    path = tmp_path / "p.jsonl"
    _write_predictions(path, pred, assignment)
    back = _read_predictions(path, 5)
    assert np.array_equal(back.fp_scores, pred.fp_scores)
    assert back.fp_labels == pred.fp_labels
    assert np.array_equal(back.node_scores, pred.node_scores)
    assert back.node_labels == pred.node_labels
    # rows may come in any order
    lines = path.read_text().splitlines()
    path.write_text("\n".join(reversed(lines)) + "\n")
    assert np.array_equal(_read_predictions(path, 5).fp_scores, pred.fp_scores)


GOOD_ROWS = [{"seq": i, "node": i, "score": 0.75, "label": "indoor"} for i in range(3)]


@pytest.mark.parametrize("text", [
    "not json",
    '{"seq": 3, "node": 0, "score": 0.5}',                     # missing label
    '{"seq": 3, "node": 0, "label": "indoor"}',                # missing score
    '{"seq": 3, "node": 0, "score": "high", "label": "indoor"}',
    '{"seq": 3, "node": -1, "score": 0.5, "label": "indoor"}',
    '{"seq": 3, "node": 0, "score": 0.5, "label": "attic"}',
    '{"seq": 3, "node": 0, "score": NaN, "label": "indoor"}',
    '{"seq": 3, "node": 0, "score": Infinity, "label": "indoor"}',
    '{"seq": 3, "node": 0, "score": -0.1, "label": "indoor"}',
    '{"seq": 3, "node": 0, "score": 1.5, "label": "indoor"}',
    '[3, 0, 0.5, "indoor"]',
    '{"seq": 4, "node": 0, "score": 0.5, "label": "indoor"}',  # seq gap
    '{"seq": 2, "node": 0, "score": 0.5, "label": "indoor"}',  # seq repeated
    "",                                                        # 3 rows for 4 scans
    '{"seq": 3, "node": 0, "score": 0.5, "label": "indoor"}\n'
    '{"seq": 4, "node": 0, "score": 0.5, "label": "indoor"}',  # 5 rows for 4 scans
    '{"seq": 3, "node": false, "score": 0.5, "label": "indoor"}',
    '{"seq": 3.0, "node": 0, "score": 0.5, "label": "indoor"}',
    '{"seq": 3, "node": 4, "score": 0.5, "label": "indoor"}',  # node ids are < T
])
def test_read_predictions_rejects(tmp_path, text):
    path = tmp_path / "bad.jsonl"
    lines = [json.dumps(r) for r in GOOD_ROWS] + [text]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(FormatError):
        _read_predictions(path, 4)


@pytest.mark.parametrize("command", ["eval", "latency"])
def test_malformed_predictions_exit_one(tmp_path, worlds, capsys, command):
    a, b = worlds
    prefix = tmp_path / "run"
    assert main(["pipeline", "--train", str(a), "--test", str(b),
                 "--out", str(prefix)]) == 0
    preds = tmp_path / "run.preds.jsonl"
    with open(preds, "a", encoding="utf-8") as f:
        f.write("not json\n")
    capsys.readouterr()
    assert main([command, "--preds", str(preds), "--scans", str(b)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("field, value", [("node", 2**70), ("seq", True)],
                         ids=["node-2**70", "seq-true"])
@pytest.mark.parametrize("command", ["eval", "latency"])
def test_non_int64_prediction_field_exits_one(tmp_path, worlds, capsys, command,
                                              field, value):
    a, b = worlds
    prefix = tmp_path / "run"
    assert main(["pipeline", "--train", str(a), "--test", str(b),
                 "--out", str(prefix)]) == 0
    preds = tmp_path / "run.preds.jsonl"
    rows = [json.loads(line) for line in preds.read_text().splitlines()]
    rows[1][field] = value
    preds.write_text("".join(json.dumps(r) + "\n" for r in rows))
    capsys.readouterr()
    assert main([command, "--preds", str(preds), "--scans", str(b)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "latency"])
def test_disagreeing_rows_of_one_node_exit_one(tmp_path, worlds, capsys, command):
    a, b = worlds
    prefix = tmp_path / "run"
    assert main(["pipeline", "--train", str(a), "--test", str(b),
                 "--out", str(prefix)]) == 0
    preds = tmp_path / "run.preds.jsonl"
    rows = [json.loads(line) for line in preds.read_text().splitlines()]
    # seq 1 joins seq 0's node with another score and label: no model gave both
    rows[1] = {**rows[0], "seq": 1, "score": 0.0 if rows[0]["score"] else 1.0,
               "label": OUTDOOR if rows[0]["label"] == INDOOR else INDOOR}
    preds.write_text("".join(json.dumps(r) + "\n" for r in rows))
    capsys.readouterr()
    assert main([command, "--preds", str(preds), "--scans", str(b)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("rows", [
    [(0, 0.9, INDOOR), (0, 0.1, OUTDOOR), (1, 0.4, INDOOR)],  # no model gives node 0 both
    [(0, 0.9, INDOOR), (0, 0.9, OUTDOOR), (1, 0.4, OUTDOOR)],  # same score, other label
    [(0, 0.9, INDOOR), (0, 0.8, INDOOR), (1, 0.4, OUTDOOR)],   # same label, other score
], ids=["score-and-label", "label", "score"])
def test_read_predictions_rejects_disagreeing_rows_of_one_node(tmp_path, rows):
    path = tmp_path / "split.jsonl"
    path.write_text("".join(
        json.dumps({"seq": i, "node": node, "score": score, "label": label}) + "\n"
        for i, (node, score, label) in enumerate(rows)), encoding="utf-8")
    with pytest.raises(FormatError, match="node 0"):
        _read_predictions(path, 3)


def test_self_loop_model_makes_predict_exit_one(tmp_path, worlds, capsys):
    a, b = worlds
    prefix = tmp_path / "run"
    assert main(["pipeline", "--train", str(a), "--test", str(b),
                 "--out", str(prefix)]) == 0
    path = tmp_path / "run.model.json"
    model = json.loads(path.read_text())
    model["trees"][0]["left"][0] = 0
    model["trees"][0]["right"][0] = 0
    loop = tmp_path / "loop.model.json"
    loop.write_text(json.dumps(model), encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", "--model", str(loop), "--scans", str(b),
                 "--out", str(tmp_path / "p.jsonl")]) == 1
    assert "error:" in capsys.readouterr().err


def test_gbm_model_without_learning_rate_makes_predict_exit_one(tmp_path, worlds, capsys):
    a, b = worlds
    prefix = tmp_path / "run"
    assert main(["pipeline", "--train", str(a), "--test", str(b), "--learner", "gbm",
                 "--out", str(prefix)]) == 0
    model = json.loads((tmp_path / "run.model.json").read_text())
    del model["hyperparameters"]["learning_rate"]
    bad = tmp_path / "nolr.model.json"
    bad.write_text(json.dumps(model), encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", "--model", str(bad), "--scans", str(b),
                 "--out", str(tmp_path / "p.jsonl")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def _nan_f0(model):
    model["f0"] = float("nan")


def _nan_leaf_value(model):
    tree = model["trees"][0]
    tree["value"][tree["feature"].index(-1)] = float("nan")


@pytest.mark.parametrize("learner, corrupt", [("gbm", _nan_f0), ("rf", _nan_leaf_value)])
def test_non_finite_model_makes_predict_exit_one(tmp_path, worlds, capsys, learner, corrupt):
    a, b = worlds
    prefix = tmp_path / "run"
    assert main(["pipeline", "--train", str(a), "--test", str(b), "--learner", learner,
                 "--out", str(prefix)]) == 0
    model = json.loads((tmp_path / "run.model.json").read_text())
    corrupt(model)
    bad = tmp_path / "nan.model.json"
    bad.write_text(json.dumps(model), encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", "--model", str(bad), "--scans", str(b),
                 "--out", str(tmp_path / "p.jsonl")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.fixture(scope="module")
def rf_run(tmp_path_factory):
    """An RF model saved by `pipeline --out`, and its test scans."""
    root = tmp_path_factory.mktemp("rf_run")
    for name, spec in (("a", WORLD_A), ("b", WORLD_B)):
        (root / f"{name}.cfg").write_text(spec, encoding="utf-8")
        assert main(["synth", "--spec", str(root / f"{name}.cfg"),
                     "--out", str(root / f"{name}.scans")]) == 0
    assert main(["pipeline", "--train", str(root / "a.scans"), "--test", str(root / "b.scans"),
                 "--out", str(root / "run")]) == 0
    return json.loads((root / "run.model.json").read_text()), root / "b.scans"


def _set_seed(value):
    def corrupt(model):
        model["seed"] = value
    return corrupt


def _set_root_entry(key, value):
    def corrupt(model):
        tree = model["trees"][0]
        tree[key][0] = tree[key][0] + 0.5 if value is None else value
    return corrupt


@pytest.mark.parametrize("corrupt", [
    _set_seed(7.9), _set_seed(True), _set_seed("7"), _set_seed(2**63),
    _set_root_entry("feature", None), _set_root_entry("left", None),
    _set_root_entry("right", None), _set_root_entry("left", True),
    _set_root_entry("right", 10**30),
], ids=["seed-7.9", "seed-true", "seed-str", "seed-2^63", "feature-frac", "left-frac",
        "right-frac", "left-true", "right-1e30"])
def test_non_integer_model_field_makes_predict_exit_one(tmp_path, capsys, rf_run, corrupt):
    err = _predict_with_corrupted_model(tmp_path, capsys, rf_run, corrupt)
    assert "error:" in err and "Traceback" not in err


def _predict_with_corrupted_model(tmp_path, capsys, rf_run, corrupt):
    """Run `predict` with a corrupted copy of the saved RF model; it must
    exit 1. Returns its stderr."""
    model, scans = rf_run
    model = json.loads(json.dumps(model))
    corrupt(model)
    bad = tmp_path / "bad.model.json"
    bad.write_text(json.dumps(model), encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", "--model", str(bad), "--scans", str(scans),
                 "--out", str(tmp_path / "p.jsonl")]) == 1
    return capsys.readouterr().err


def _set_tree_entries(key, convert):
    def corrupt(model):
        tree = model["trees"][0]
        tree[key] = [convert(v) for v in tree[key]]
    return corrupt


def _set_feature_names(convert):
    def corrupt(model):
        model["feature_names"] = convert(model["feature_names"])
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (_set_tree_entries("threshold", str), "tree threshold entries must be numbers"),
    (_set_tree_entries("threshold", lambda v: True), "tree threshold entries must be numbers"),
    (_set_tree_entries("value", str), "tree value entries must be numbers"),
    (_set_tree_entries("gain", lambda v: False), "tree gain entries must be numbers"),
    (_set_tree_entries("threshold", lambda v: 10**400), "bad model file"),
    (_set_feature_names("".join), "feature_names must be a list of strings"),
    (_set_feature_names(lambda names: [1] + names[1:]), "feature_names must be a list of strings"),
], ids=["threshold-str", "threshold-true", "value-str", "gain-false", "threshold-1e400",
        "names-str", "names-int"])
def test_non_numeric_model_field_makes_predict_exit_one(tmp_path, capsys, rf_run, corrupt,
                                                        message):
    err = _predict_with_corrupted_model(tmp_path, capsys, rf_run, corrupt)
    assert message in err and "Traceback" not in err


@pytest.fixture(scope="module")
def gbm_run(tmp_path_factory):
    """A GBM model saved by `pipeline --out` on a 10-minute seed-9 world,
    and that world's scans."""
    root = tmp_path_factory.mktemp("gbm_run")
    (root / "w.cfg").write_text("seed = 9\nduration_s = 600\n", encoding="utf-8")
    scans = root / "w.scans"
    assert main(["synth", "--spec", str(root / "w.cfg"), "--out", str(scans)]) == 0
    assert main(["pipeline", "--train", str(scans), "--test", str(scans), "--learner", "gbm",
                 "--out", str(root / "run")]) == 0
    return json.loads((root / "run.model.json").read_text()), scans


def _huge_opposite_leaves(model):
    # every value stays finite, but 1e308 * 1e308 overflows to inf in one
    # tree and to -inf in the next, and their sum is NaN
    model["hyperparameters"]["learning_rate"] = 1e308
    for tree, v in zip(model["trees"], (1e308, -1e308)):
        tree["value"] = [v if f == -1 else x for f, x in zip(tree["feature"], tree["value"])]


def _set_hyperparameter(key, value):
    def corrupt(model):
        model["hyperparameters"][key] = value
    return corrupt


def _set_f0(value):
    def corrupt(model):
        model["f0"] = value
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (_huge_opposite_leaves, "gbm model scores overflow"),
    (_set_hyperparameter("learning_rate", 10**400), "finite learning_rate"),
    (_set_f0("0.25"), "model f0 must be numbers"),
    (_set_f0(True), "model f0 must be numbers"),
], ids=["leaves-1e308", "lr-1e400", "f0-str", "f0-true"])
def test_gbm_model_that_scores_nan_or_misreads_makes_predict_exit_one(tmp_path, capsys,
                                                                      gbm_run, corrupt,
                                                                      message):
    # the loader used to accept all four: predict then wrote "score": NaN
    # for the first, raised OverflowError for the second, and read the
    # last two through float()
    err = _predict_with_corrupted_model(tmp_path, capsys, gbm_run, corrupt)
    assert message in err and "Traceback" not in err


def test_gbm_model_with_a_large_finite_bound_still_predicts(tmp_path, capsys, gbm_run):
    model, scans = gbm_run
    model = json.loads(json.dumps(model))
    model["hyperparameters"]["learning_rate"] = 1e300
    path = tmp_path / "big.model.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    preds = tmp_path / "p.jsonl"
    assert main(["predict", "--model", str(path), "--scans", str(scans),
                 "--out", str(preds)]) == 0
    scores = [json.loads(line)["score"] for line in preds.read_text().splitlines()]
    assert all(0.0 <= s <= 1.0 for s in scores)


@pytest.mark.parametrize("entry", ['"cluster": 3.5', '"cluster": 10000000000000000000000000000000'])
def test_non_integer_assignment_makes_graph_exit_one(tmp_path, capsys, entry):
    scans = _tiny_scans(tmp_path)
    clusters = tmp_path / "c.jsonl"
    assert main(["cluster", "--scans", str(scans), "--out", str(clusters)]) == 0
    lines = clusters.read_text(encoding="utf-8").splitlines()
    lines[1] = '{"seq": 1, %s}' % entry
    clusters.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["graph", "--scans", str(scans), "--clusters", str(clusters),
                 "--out", str(tmp_path / "g")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("column, value", [(0, "nan"), (0, "inf"), (-2, "-5")])
def test_train_rejects_bad_feature_csv_values(tmp_path, worlds, capsys, column, value):
    a, _ = worlds
    clusters = tmp_path / "a.clusters.jsonl"
    features = tmp_path / "a.features.csv"
    assert main(["cluster", "--scans", str(a), "--out", str(clusters)]) == 0
    assert main(["features", "--scans", str(a), "--clusters", str(clusters),
                 "--out", str(features)]) == 0
    lines = features.read_text(encoding="utf-8").splitlines()
    fields = lines[1].split(",")
    fields[column] = value
    lines[1] = ",".join(fields)
    features.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    model = tmp_path / "a.model.json"
    assert main(["train", "--features", str(features), "--out", str(model)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("learner", ["rf", "gbm"])
def test_train_rejects_feature_csv_without_feature_columns(tmp_path, capsys, learner):
    # a model with no feature names could never take a predict table
    features = tmp_path / "empty.features.csv"
    features.write_text("weight,label\n3,indoor\n2,outdoor\n1,indoor\n", encoding="utf-8")
    model = tmp_path / "model.json"
    assert main(["train", "--features", str(features), "--out", str(model),
                 "--learner", learner]) == 1
    err = capsys.readouterr().err
    assert "error: feature CSV has no feature column" in err and "Traceback" not in err
    assert not model.exists()


@pytest.mark.parametrize("learner", ["rf", "gbm"])
def test_train_rejects_feature_weight_beyond_int64(tmp_path, capsys, learner):
    # a float weight of 1e400 would overflow inside the learner
    features = tmp_path / "big.features.csv"
    features.write_text("x,weight,label\n0.5,1" + "0" * 400 + ",indoor\n"
                        "0.1,2,outdoor\n", encoding="utf-8")
    model = tmp_path / "model.json"
    assert main(["train", "--features", str(features), "--out", str(model),
                 "--learner", learner]) == 1
    err = capsys.readouterr().err
    assert "error: feature CSV weights must be integers" in err and "Traceback" not in err
    assert not model.exists()


# --- a byte that is not UTF-8, in every input format ------------------------

@pytest.fixture(scope="module")
def every_format(tmp_path_factory):
    """One small valid file of each input format the CLI reads."""
    root = tmp_path_factory.mktemp("every_format")
    files = {"world spec": root / "a.cfg", "config": root / "run.cfg",
             "scan log": root / "a.scans", "assignment": root / "a.clusters.jsonl",
             "features CSV": root / "a.features.csv", "model JSON": root / "model.json",
             "predictions JSONL": root / "a.preds.jsonl"}
    files["world spec"].write_text(WORLD_A, encoding="utf-8")
    files["config"].write_text("learner = gbm\ngbm_rounds = 5\n", encoding="utf-8")
    cfg = ["--config", str(files["config"])]
    scans = str(files["scan log"])
    for argv in (
        ["synth", "--spec", str(files["world spec"]), "--out", scans],
        ["cluster", "--scans", scans, "--out", str(files["assignment"]), *cfg],
        ["features", "--scans", scans, "--clusters", str(files["assignment"]),
         "--out", str(files["features CSV"]), *cfg],
        ["train", "--features", str(files["features CSV"]), "--out", str(files["model JSON"]),
         *cfg],
        ["predict", "--model", str(files["model JSON"]), "--scans", scans,
         "--out", str(files["predictions JSONL"]), *cfg],
    ):
        assert main(argv) == 0
    return files


def _reading(fmt, files, bad, out):
    """A command that reads `bad` as a file of format `fmt`."""
    scans = str(files["scan log"])
    return {
        "scan log": ["ingest", "--scans", bad],
        "assignment": ["graph", "--scans", scans, "--clusters", bad, "--out", f"{out}/g"],
        "features CSV": ["train", "--features", bad, "--out", f"{out}/m.json"],
        "model JSON": ["predict", "--model", bad, "--scans", scans, "--out", f"{out}/p"],
        "predictions JSONL": ["eval", "--preds", bad, "--scans", scans],
        "config": ["cluster", "--scans", scans, "--config", bad, "--out", f"{out}/c"],
        "world spec": ["synth", "--spec", bad, "--out", f"{out}/s.scans"],
    }[fmt]


@pytest.mark.parametrize("fmt", ["scan log", "assignment", "features CSV", "model JSON",
                                 "predictions JSONL", "config", "world spec"])
def test_non_utf8_byte_exits_one(tmp_path, capsys, every_format, fmt):
    data = every_format[fmt].read_bytes()
    bad = tmp_path / "bad"
    bad.write_bytes(data[:len(data) // 2] + b"\xff" + data[len(data) // 2:])
    capsys.readouterr()
    assert main(_reading(fmt, every_format, str(bad), tmp_path)) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


# --- fuzz: byte edits, and a small features CSV and predictions file --------

_SMALL_FEATURES = (
    b"neighbors_d0,power_d0,weight,label\n"
    b"1.0,-60.5,3,indoor\n1.0,-71.0,1,outdoor\n2.0,-58.0,2,indoor\n"
    b"1.0,-80.25,4,outdoor\n3.0,-62.0,1,\n1.0,-77.0,2,outdoor\n"
)

# byte edits: (kind, position, xor mask); positions wrap around the data
_byte_edit = st.tuples(st.sampled_from(["flip", "truncate", "nul", "ff", "dup"]),
                       st.integers(0, 2**16), st.integers(1, 255))


def _mutate(data: bytes, edits) -> bytes:
    for kind, at, mask in edits:
        i = at % (len(data) + 1)
        if kind == "flip" and data:
            i = at % len(data)
            data = data[:i] + bytes([data[i] ^ mask]) + data[i + 1:]
        elif kind == "truncate":
            data = data[:i]
        elif kind in ("nul", "ff"):
            data = data[:i] + (b"\x00" if kind == "nul" else b"\xff") + data[i:]
        elif kind == "dup" and data:
            lines = data.splitlines(keepends=True)
            k = at % len(lines)
            data = b"".join(lines[:k + 1] + lines[k:])
    return data


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A small labelled scan log, its predictions, and a 5-tree config."""
    root = tmp_path_factory.mktemp("fuzz")
    labels = [INDOOR, INDOOR, OUTDOOR, None, OUTDOOR, INDOOR]
    write_scan_log(make_records([{mac(i): -50 - i} for i in range(6)], labels),
                   root / "s.scans")
    (root / "s.preds").write_bytes(b"".join(
        b'{"seq": %d, "node": %d, "score": %s, "label": "%s"}\n'
        % (i, i, b"0.75" if i % 2 else b"0.25", b"indoor" if i % 2 else b"outdoor")
        for i in range(6)))
    (root / "small.cfg").write_text("n_trees = 5\n", encoding="utf-8")
    return root


def _exits_zero_or_one_with_error_line(argv) -> bool:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(argv)
    lines = err.getvalue().splitlines()
    return status == 0 or (status == 1 and any(line.startswith("error:") for line in lines))


# --- fuzz: byte and value edits of every input format -----------------------

# a 60 s world that walks in and out, so its nodes carry both labels
_FUZZ_WORLD = (
    b"duration_s = 60\nseed = 3\nbuildings = 2\nindoor_dwell_min_s = 12\n"
    b"indoor_dwell_max_s = 24\noutdoor_dwell_min_s = 12\noutdoor_dwell_max_s = 24\n"
    b"scan_period_s = 3\nindoor_rssi_mean = -55.5\nindoor_rssi_sigma = 12\n"
    b"outdoor_rssi_sigma = 8\nscan_noise_sigma = 3\nap_dropout = 0.25\n"
    b"outdoor_empty_prob = 0.3\nprofile = normal\ndevice_id = phone\n"
    b"start_timestamp_ms = 1600000000000\n"
)
_FUZZ_CONFIG = b"eps = 0.3\nmin_pts = 2\nvariant = graph\nmax_gap_ms = 9000\nseed = 5\n"
_FUZZ_LEARNER_CONFIG = b"learner = %s\nn_trees = 5\ngbm_rounds = 5\nseed = 5\n"

# value edits: (kind, line, path, choice); each index wraps around what it picks
_value_edits = st.tuples(st.sampled_from(["swap", "huge", "nonfinite", "dupkey"]),
                         st.integers(0, 2**16), st.integers(0, 2**16), st.integers(0, 2**16))
_file_edits = st.lists(st.one_of(_byte_edit, _value_edits), min_size=1, max_size=3)

_NEW_VALUES = {
    "swap": [lambda v: str(v), lambda v: True, lambda v: None, lambda v: [v],
             lambda v: {"v": v}, lambda v: 0 if isinstance(v, str) else "x"],
    "huge": [lambda v: c for c in (10**30, -10**30, 2**63, -2**63 - 1, 10**400,
                                    1e308, -1e308, 5e-324)],
    "nonfinite": [lambda v: c for c in (float("nan"), float("inf"), float("-inf"))],
}
_NEW_VALUES["dupkey"] = _NEW_VALUES["swap"] + _NEW_VALUES["huge"] + _NEW_VALUES["nonfinite"]


def _slots(doc):
    """(container, key) of every value inside a JSON document, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    out = []
    for key, value in items:
        out.append((doc, key))
        if isinstance(value, (dict, list)):
            out += _slots(value)
    return out


def _edit_json_line(line: bytes, kind, path, choice) -> bytes:
    """One value edit of a JSON line: a value swapped for another type, a
    huge or non-finite number, or a key of an object repeated with a new
    value, before or after the original."""
    doc = json.loads(line)
    slots = [s for s in _slots(doc) if kind != "dupkey" or isinstance(s[0], dict)]
    if not slots:
        return line
    container, key = slots[path % len(slots)]
    new = _NEW_VALUES[kind][choice % len(_NEW_VALUES[kind])](container[key])
    if kind != "dupkey":
        container[key] = new
        return json.dumps(doc).encode()
    pairs = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in container.items()]
    pairs.insert(len(pairs) if choice % 2 else 0, f"{json.dumps(key)}: {json.dumps(new)}")
    container.clear()
    container["\x00dup"] = None  # a marker no file holds, replaced by the pairs
    text = json.dumps(doc)
    return text.replace(json.dumps({"\x00dup": None}), "{" + ", ".join(pairs) + "}").encode()


_KV_VALUES = {
    "swap": ["true", "none", "", "abc", "[1]", "{}", "0x10"],
    "huge": ["1e308", "-1e308", "1" + "0" * 30, str(2**63), str(-2**63 - 1), "1e400",
             "5e-324", "9" * 5000],
    "nonfinite": ["nan", "inf", "-inf", "NaN", "-Infinity"],
}
_KV_VALUES["dupkey"] = _KV_VALUES["swap"] + _KV_VALUES["huge"] + _KV_VALUES["nonfinite"]


def _edit_kv(data: bytes, kind, line, choice) -> bytes:
    """One value edit of a key = value file: a value replaced, or its line
    repeated with a new value."""
    lines = data.decode("utf-8", "surrogateescape").splitlines()
    keyed = [i for i, ln in enumerate(lines) if "=" in ln]
    if not keyed:
        return data
    i = keyed[line % len(keyed)]
    key = lines[i].split("=", 1)[0].strip()
    new = f"{key} = {_KV_VALUES[kind][choice % len(_KV_VALUES[kind])]}"
    if kind == "dupkey":
        lines.insert(i + choice % 2, new)
    else:
        lines[i] = new
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")


_CSV_VALUES = {
    "swap": ["abc", "true", "", "indoor", "1.5"],
    "huge": ["1e400", "-1e400", "1e308", str(2**63), "9" * 5000],
    "nonfinite": ["nan", "inf", "-inf"],
}


def _edit_csv(data: bytes, kind, row, column, choice) -> bytes:
    """One value edit of a CSV body row: a cell replaced, or (dupkey) the
    row repeated."""
    lines = data.decode("utf-8", "surrogateescape").splitlines()
    if len(lines) < 2:
        return data
    k = 1 + row % (len(lines) - 1)
    if kind == "dupkey":
        lines.insert(k, lines[k])
    else:
        cells = lines[k].split(",")
        cells[column % len(cells)] = _CSV_VALUES[kind][choice % len(_CSV_VALUES[kind])]
        lines[k] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")


def _mutate_file(data: bytes, edits, fmt: str) -> bytes:
    """Apply byte edits (`_mutate`) and value edits of a `fmt` file ("jsonl",
    "kv" or "csv") in turn; a value edit of a line that an earlier edit
    left unparsable changes nothing."""
    for edit in edits:
        if len(edit) == 3:
            data = _mutate(data, [edit])
        elif fmt == "kv":
            data = _edit_kv(data, edit[0], edit[1], edit[3])
        elif fmt == "csv":
            data = _edit_csv(data, *edit)
        else:
            lines = data.splitlines(keepends=True)
            if lines:
                k = edit[1] % len(lines)
                try:
                    lines[k] = _edit_json_line(lines[k], edit[0], edit[2], edit[3]) + b"\n"
                except ValueError:  # not JSON, or not UTF-8
                    continue
                data = b"".join(lines)
    return data


@pytest.fixture(scope="module")
def fuzz_world(tmp_path_factory):
    """The 60 s world's scans, its assignment, and an RF and a GBM model
    trained on it."""
    root = tmp_path_factory.mktemp("fuzz_world")
    (root / "w.cfg").write_bytes(_FUZZ_WORLD)
    scans = str(root / "w.scans")
    assert main(["synth", "--spec", str(root / "w.cfg"), "--out", scans]) == 0
    assert main(["cluster", "--scans", scans, "--out", str(root / "w.clusters")]) == 0
    assert main(["features", "--scans", scans, "--clusters", str(root / "w.clusters"),
                 "--out", str(root / "w.csv")]) == 0
    for learner in ("rf", "gbm"):
        (root / f"{learner}.cfg").write_text(f"learner = {learner}\nn_trees = 5\n"
                                             "gbm_rounds = 5\n", encoding="utf-8")
        assert main(["train", "--features", str(root / "w.csv"),
                     "--config", str(root / f"{learner}.cfg"),
                     "--out", str(root / f"{learner}.json")]) == 0
    return root


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(edits=_file_edits)
def test_mutated_scan_log_ingests_or_exits_one(fuzz_world, edits):
    scans = fuzz_world / "m.scans"
    scans.write_bytes(_mutate_file((fuzz_world / "w.scans").read_bytes(), edits, "jsonl"))
    assert _exits_zero_or_one_with_error_line(["ingest", "--scans", str(scans)])


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(edits=_file_edits)
def test_mutated_predictions_evaluate_or_exit_one(fuzz_dir, edits):
    preds = fuzz_dir / "p.jsonl"
    preds.write_bytes(_mutate_file((fuzz_dir / "s.preds").read_bytes(), edits, "jsonl"))
    assert _exits_zero_or_one_with_error_line(
        ["eval", "--preds", str(preds), "--scans", str(fuzz_dir / "s.scans")])


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(edits=_file_edits)
def test_mutated_features_csv_trains_or_exits_one(fuzz_dir, edits):
    features = fuzz_dir / "f.csv"
    features.write_bytes(_mutate_file(_SMALL_FEATURES, edits, "csv"))
    assert _exits_zero_or_one_with_error_line(
        ["train", "--features", str(features), "--out", str(fuzz_dir / "m.json"),
         "--config", str(fuzz_dir / "small.cfg")])


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(edits=_file_edits)
def test_mutated_assignment_gives_features_or_exits_one(fuzz_world, edits):
    clusters = fuzz_world / "m.clusters"
    clusters.write_bytes(_mutate_file((fuzz_world / "w.clusters").read_bytes(), edits, "jsonl"))
    assert _exits_zero_or_one_with_error_line(
        ["features", "--scans", str(fuzz_world / "w.scans"), "--clusters", str(clusters),
         "--out", str(fuzz_world / "m.csv")])


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(learner=st.sampled_from(["rf", "gbm"]), edits=_file_edits)
def test_mutated_model_predicts_or_exits_one(fuzz_world, learner, edits):
    model = fuzz_world / "m.json"
    model.write_bytes(_mutate_file((fuzz_world / f"{learner}.json").read_bytes(), edits,
                                   "jsonl"))
    preds = fuzz_world / "m.preds"
    preds.unlink(missing_ok=True)
    assert _exits_zero_or_one_with_error_line(
        ["predict", "--model", str(model), "--scans", str(fuzz_world / "w.scans"),
         "--out", str(preds)])
    if preds.exists():  # a model that loads scores every scan in [0, 1]
        scores = [json.loads(line)["score"] for line in preds.read_text().splitlines()]
        assert all(0.0 <= s <= 1.0 for s in scores)


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(edits=_file_edits)
def test_mutated_config_clusters_or_exits_one(fuzz_world, edits):
    config = fuzz_world / "m.cfg"
    config.write_bytes(_mutate_file(_FUZZ_CONFIG, edits, "kv"))
    assert _exits_zero_or_one_with_error_line(
        ["cluster", "--scans", str(fuzz_world / "w.scans"), "--config", str(config),
         "--out", str(fuzz_world / "m.clusters.out")])


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(learner=st.sampled_from(["rf", "gbm"]), edits=_file_edits)
def test_mutated_config_trains_or_exits_one(fuzz_world, learner, edits):
    # the learner settings: an edit that asks for 10**30 trees must exit 1
    config = fuzz_world / "m.train.cfg"
    config.write_bytes(_mutate_file(_FUZZ_LEARNER_CONFIG % learner.encode(), edits, "kv"))
    assert _exits_zero_or_one_with_error_line(
        ["train", "--features", str(fuzz_world / "w.csv"), "--config", str(config),
         "--out", str(fuzz_world / "m.train.json")])


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(edits=_file_edits)
def test_mutated_world_spec_synthesizes_or_exits_one(fuzz_world, edits):
    spec = fuzz_world / "m.world"
    spec.write_bytes(_mutate_file(_FUZZ_WORLD, edits, "kv"))
    assert _exits_zero_or_one_with_error_line(
        ["synth", "--spec", str(spec), "--out", str(fuzz_world / "m.world.scans")])
