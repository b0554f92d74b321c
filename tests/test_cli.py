import json

import numpy as np
import pytest

from wifi_inout.cli import _read_predictions, _write_predictions, main
from wifi_inout.clustering import ClusterAssignment
from wifi_inout.errors import FormatError
from wifi_inout.learner import Prediction
from wifi_inout.model import INDOOR, OUTDOOR, read_scan_log

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


def test_predictions_round_trip(tmp_path):
    assignment = ClusterAssignment(
        cluster_of=np.array([0, 0, 1, 2, 1], dtype=np.int64),
        clusters=[[0, 1], [2, 4], [3]],
    )
    node_scores = np.array([0.25, 0.5, 1.0 / 3.0])
    fp_scores = node_scores[assignment.cluster_of]
    fp_labels = [INDOOR if s >= 0.5 else OUTDOOR for s in fp_scores]
    pred = Prediction(node_scores, ["outdoor", "indoor", "outdoor"],
                      fp_scores, fp_labels, 0.5)
    path = tmp_path / "p.jsonl"
    _write_predictions(path, pred, assignment)
    back = _read_predictions(path, 0.5, 5)
    assert np.array_equal(back.fp_scores, pred.fp_scores)
    assert back.fp_labels == pred.fp_labels
    assert np.array_equal(back.node_scores, pred.node_scores)
    assert back.node_labels == pred.node_labels
    # rows may come in any order
    lines = path.read_text().splitlines()
    path.write_text("\n".join(reversed(lines)) + "\n")
    assert np.array_equal(_read_predictions(path, 0.5, 5).fp_scores, pred.fp_scores)


GOOD_ROWS = [{"seq": i, "node": i, "score": 0.75, "label": "indoor"} for i in range(3)]


@pytest.mark.parametrize("text", [
    "not json",
    '{"seq": 3, "node": 0, "score": 0.5}',                     # missing label
    '{"seq": 3, "node": 0, "label": "indoor"}',                # missing score
    '{"seq": 3, "node": 0, "score": "high", "label": "indoor"}',
    '{"seq": 3, "node": -1, "score": 0.5, "label": "indoor"}',
    '{"seq": 3, "node": 0, "score": 0.5, "label": "attic"}',
    '[3, 0, 0.5, "indoor"]',
    '{"seq": 4, "node": 0, "score": 0.5, "label": "indoor"}',  # seq gap
    '{"seq": 2, "node": 0, "score": 0.5, "label": "indoor"}',  # seq repeated
    "",                                                        # 3 rows for 4 scans
    '{"seq": 3, "node": 0, "score": 0.5, "label": "indoor"}\n'
    '{"seq": 4, "node": 0, "score": 0.5, "label": "indoor"}',  # 5 rows for 4 scans
])
def test_read_predictions_rejects(tmp_path, text):
    path = tmp_path / "bad.jsonl"
    lines = [json.dumps(r) for r in GOOD_ROWS] + [text]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(FormatError):
        _read_predictions(path, 0.5, 4)


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
