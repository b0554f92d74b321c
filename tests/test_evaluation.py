import dataclasses
import functools
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wifi_inout import fpindex, pipeline
from wifi_inout.clustering import ClusterAssignment
from wifi_inout.config import PipelineConfig
from wifi_inout.errors import (
    DegenerateLabelsError,
    EmptyPrefixError,
    FeatureMismatchError,
    NoLabelsError,
    NoTransitionsError,
    SingleLocationError,
)
from wifi_inout.evaluation import (
    MISSED_LATENCY_S,
    TO_INDOOR,
    TO_OUTDOOR,
    SwitchLatencyReport,
    SwitchRecord,
    WarmupEntry,
    XvalReport,
    auc,
    evaluate,
    location_cross_validation,
    switch_latency,
    warmup_eval,
)
from wifi_inout.features import FeatureTable
from wifi_inout.graph import TransitionGraph
from wifi_inout.learner import Prediction, label_nodes, predict, train
from wifi_inout.model import INDOOR, OUTDOOR, FingerprintMatrix, ingest
from wifi_inout.pipeline import build_stages, fit, prefix_stages, score
from wifi_inout.synth import WorldSpec, generate

from oracles import auc_pair_counting


def _pred(labels, scores=None):
    labels = list(labels)
    scores = np.asarray(scores if scores is not None
                        else [1.0 if l == INDOOR else 0.0 for l in labels])
    return Prediction(
        node_scores=scores, node_labels=labels,
        fp_scores=scores, fp_labels=labels,
    )


def test_auc_perfect_separation():
    pairs = [(0.9, INDOOR), (0.8, INDOOR), (0.2, OUTDOOR), (0.1, OUTDOOR)]
    assert auc(pairs) == 1.0


def test_auc_constant_scores():
    pairs = [(0.7, INDOOR)] * 83 + [(0.7, OUTDOOR)] * 17
    assert auc(pairs) == 0.5


def test_auc_matches_pair_counting_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(5, 51))
        scores = np.round(rng.random(n), 2)  # rounding forces ties
        labels = [INDOOR if rng.random() < 0.6 else OUTDOOR for _ in range(n)]
        if len(set(labels)) < 2:
            continue
        pairs = list(zip(scores, labels))
        assert auc(pairs) == pytest.approx(auc_pair_counting(pairs), abs=1e-12)


def test_auc_invariant_under_monotone_transform(rng):
    scores = np.round(rng.random(60), 2)
    labels = [INDOOR if rng.random() < 0.5 else OUTDOOR for _ in range(60)]
    if len(set(labels)) < 2:
        labels[0], labels[1] = INDOOR, OUTDOOR
    base = auc(list(zip(scores, labels)))
    for f in (np.exp, lambda s: 3 * s + 7, lambda s: s ** 3):
        assert auc(list(zip(f(scores), labels))) == pytest.approx(base, abs=1e-12)


def test_auc_degenerate():
    with pytest.raises(DegenerateLabelsError):
        auc([(0.5, INDOOR), (0.9, INDOOR)])


def test_evaluate_single_class_omits_auc():
    pred = _pred([INDOOR] * 5)
    report = evaluate(pred, [INDOOR] * 5)
    assert report.accuracy == 1.0
    assert report.auc is None
    assert report.indoor_prior == 1.0


def test_evaluate_majority_baseline_prior():
    n = 1000
    labels = [INDOOR] * 830 + [OUTDOOR] * 170
    pred = _pred([INDOOR] * n, scores=[0.7] * n)
    report = evaluate(pred, labels)
    assert report.accuracy == pytest.approx(0.83, abs=1e-12)
    assert report.auc == 0.5
    assert report.indoor_prior == pytest.approx(0.83, abs=1e-12)


def test_evaluate_hand_confusion():
    truth = [INDOOR, INDOOR, OUTDOOR, OUTDOOR, None, INDOOR]
    hard = [INDOOR, OUTDOOR, OUTDOOR, INDOOR, INDOOR, INDOOR]
    scores = [0.9, 0.3, 0.2, 0.8, 0.9, 0.7]
    report = evaluate(_pred(hard, scores), truth)
    assert (report.tp, report.fn, report.tn, report.fp) == (2, 1, 1, 1)
    assert report.n_evaluated == 5
    assert report.accuracy == pytest.approx(3 / 5)
    assert report.accuracy + (report.fp + report.fn) / report.n_evaluated == 1.0
    assert report.tp + report.fp + report.tn + report.fn == report.n_evaluated
    assert report.indoor_prior == pytest.approx(3 / 5)


def test_evaluate_no_labels():
    with pytest.raises(NoLabelsError):
        evaluate(_pred([INDOOR]), [None])


def _latency_stream():
    # 3 s scan period starting at t = 0; ground truth flips outdoor->indoor
    # at the fingerprint at exactly 100 s
    ts = [i * 1000 for i in range(0, 300, 1)]  # 1 s period for exact timing
    labels = [OUTDOOR if t < 100_000 else INDOOR for t in ts]
    return ts, labels


def test_switch_latency_exact_value():
    ts, labels = _latency_stream()
    # predictions flip at 104.3 s: nudge one timestamp to land exactly there
    ts = list(ts)
    ts[104] = 104_300
    pred_labels = [OUTDOOR if t < 104_300 else INDOOR for t in ts]
    report = switch_latency(_pred(pred_labels), labels, ts)
    assert len(report.switches) == 1
    s = report.switches[0]
    assert s.direction == TO_INDOOR
    assert s.latency_s == pytest.approx(4.3, abs=1e-12)
    assert not s.missed
    assert report.mean_latency_s[TO_INDOOR] == pytest.approx(4.3, abs=1e-12)
    assert report.missed_fraction == 0.0


def test_switch_latency_never_detected():
    ts, labels = _latency_stream()
    pred_labels = [OUTDOOR] * len(ts)
    report = switch_latency(_pred(pred_labels), labels, ts)
    assert report.switches[0].missed
    assert report.switches[0].latency_s is None
    assert report.missed_fraction == 1.0


def test_switch_latency_500s_boundary():
    ts = [i * 1000 for i in range(0, 1200)]
    labels = [OUTDOOR if t < 100_000 else INDOOR for t in ts]
    for delay_s, missed in ((500, False), (501, True)):
        flip = 100_000 + delay_s * 1000
        pred_labels = [OUTDOOR if t < flip else INDOOR for t in ts]
        report = switch_latency(_pred(pred_labels), labels, ts)
        assert report.switches[0].latency_s == pytest.approx(float(delay_s))
        assert report.switches[0].missed == missed


def test_switch_latency_directions_and_unlabeled_gaps():
    ts = [i * 1000 for i in range(40)]
    labels = [OUTDOOR] * 10 + [None] * 5 + [INDOOR] * 10 + [OUTDOOR] * 15
    pred_labels = [OUTDOOR] * 16 + [INDOOR] * 10 + [OUTDOOR] * 14
    report = switch_latency(_pred(pred_labels), labels, ts)
    assert [s.direction for s in report.switches] == [TO_INDOOR, TO_OUTDOOR]
    # to-indoor truth at index 15 (t=15s), prediction flips at 16 s
    assert report.switches[0].latency_s == pytest.approx(1.0)
    # to-outdoor truth at index 25 (t=25s), prediction flips at 26 s
    assert report.switches[1].latency_s == pytest.approx(1.0)


def test_switch_latency_requires_transitions():
    ts = [0, 1000, 2000]
    with pytest.raises(NoTransitionsError):
        switch_latency(_pred([INDOOR] * 3), [INDOOR] * 3, ts)


def reference_switch_latency(pred, labels, timestamps_ms):
    """The per-switch rescan of the stream that switch_latency replaced,
    kept verbatim as its reference."""
    labeled = [i for i, lab in enumerate(labels) if lab in (INDOOR, OUTDOOR)]
    switches = []
    for a, b in zip(labeled, labeled[1:]):
        if labels[a] == labels[b]:
            continue
        new = labels[b]
        t0 = timestamps_ms[b]
        latency = None
        for i in range(b, len(labels)):
            if pred.fp_labels[i] == new:
                latency = (timestamps_ms[i] - t0) / 1000.0
                break
        missed = latency is None or latency > MISSED_LATENCY_S
        switches.append(
            SwitchRecord(
                index=b,
                direction=TO_INDOOR if new == INDOOR else TO_OUTDOOR,
                latency_s=latency,
                missed=missed,
            )
        )
    if not switches:
        raise NoTransitionsError("label stream contains no transitions")

    means = {}
    for direction in (TO_INDOOR, TO_OUTDOOR):
        vals = [s.latency_s for s in switches
                if s.direction == direction and not s.missed]
        means[direction] = sum(vals) / len(vals) if vals else None
    missed_fraction = sum(1 for s in switches if s.missed) / len(switches)
    return SwitchLatencyReport(switches, means, missed_fraction)


# scan gaps in ms: equal stamps, gaps around the 500 s miss bound, and a
# jump that puts two stamps more than 2**63 ms apart
_gaps = st.one_of(st.just(0), st.integers(1, 600_000), st.just(2**63 + 7))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([INDOOR, OUTDOOR, None]),
                          st.sampled_from([INDOOR, OUTDOOR]), _gaps),
                min_size=1, max_size=60),
       st.integers(-2**63, 2**63))
def test_switch_latency_equals_per_switch_rescan(stream, t0):
    labels, pred_labels, gaps = (list(c) for c in zip(*stream))
    ts = [t0 + sum(gaps[:i + 1]) for i in range(len(gaps))]
    pred = _pred(pred_labels)
    try:
        want = reference_switch_latency(pred, labels, ts)
    except NoTransitionsError:
        with pytest.raises(NoTransitionsError):
            switch_latency(pred, labels, ts)
        return
    assert switch_latency(pred, labels, ts) == want


def _xval_world(seed=5):
    spec = WorldSpec(seed=seed, duration_s=2400.0, buildings=3,
                     indoor_dwell_min_s=180.0, indoor_dwell_max_s=300.0,
                     outdoor_dwell_min_s=60.0, outdoor_dwell_max_s=120.0)
    return ingest(generate(spec))


def _trip_tagged(m):
    """Retag locations as trips (building dwell + surrounding walk) so
    every fold holds out both classes."""
    locations = []
    trip = 0
    for i, lab in enumerate(m.labels):
        if i > 0 and lab == INDOOR and m.labels[i - 1] == OUTDOOR:
            trip += 1
        locations.append(f"trip_{trip}")
    return dataclasses.replace(m, locations=locations)


def test_xval_runs_one_fold_per_location():
    m = _xval_world()
    cfg = PipelineConfig(seed=3, n_trees=30)
    report = location_cross_validation(m, cfg)
    all_locations = {loc for loc in m.locations if loc}
    assert set(report.per_location) | set(report.skipped) == all_locations
    assert len(report.per_location) >= 2
    for loc, rep in report.per_location.items():
        want = sum(1 for l in m.locations if l == loc)
        assert rep.n_evaluated == want
    # single-class locations leave fold AUCs undefined; pooled one is not
    assert all(rep.auc is None for rep in report.per_location.values())
    assert report.mean_auc is None
    assert report.pooled is not None and report.pooled.auc is not None


def test_xval_mean_auc_over_mixed_folds():
    m = _trip_tagged(_xval_world())
    cfg = PipelineConfig(seed=3, n_trees=30)
    report = location_cross_validation(m, cfg)
    assert len(report.per_location) >= 2
    assert report.mean_auc is not None
    assert 0.0 <= report.mean_auc <= 1.0
    defined = [r.auc for r in report.per_location.values() if r.auc is not None]
    assert report.mean_auc == pytest.approx(sum(defined) / len(defined))


def test_xval_fold_matches_manual_fold():
    m = _xval_world()
    cfg = PipelineConfig(seed=3, n_trees=30)
    report = location_cross_validation(m, cfg)
    loc = sorted(report.per_location)[0]

    from wifi_inout.learner import predict as predict_nodes
    from wifi_inout.evaluation import evaluate as eval_fn
    stages = build_stages(m, cfg)
    train_labels = [lab if m.locations[i] != loc else None
                    for i, lab in enumerate(m.labels)]
    node_labels = label_nodes(stages.assignment, train_labels)
    model = train(stages.features, node_labels, stages.assignment.sizes(),
                  kind=cfg.learner_kind(), seed=cfg.seed,
                  hyperparameters=cfg.hyperparameters())
    pred = predict_nodes(model, stages.features, stages.assignment, cfg.threshold)
    held = [lab if m.locations[i] == loc else None
            for i, lab in enumerate(m.labels)]
    manual = eval_fn(pred, held)
    assert report.per_location[loc] == manual


def test_xval_heldout_labels_cannot_poison_training():
    m = _xval_world()
    cfg = PipelineConfig(seed=3, n_trees=30)
    loc = sorted({l for l in m.locations if l})[0]

    def fold_model(matrix):
        stages = build_stages(matrix, cfg)
        train_labels = [lab if matrix.locations[i] != loc else None
                        for i, lab in enumerate(matrix.labels)]
        node_labels = label_nodes(stages.assignment, train_labels)
        return train(stages.features, node_labels, stages.assignment.sizes(),
                     kind=cfg.learner_kind(), seed=cfg.seed,
                     hyperparameters=cfg.hyperparameters())

    flipped = dataclasses.replace(m, labels=[
        (OUTDOOR if lab == INDOOR else INDOOR) if m.locations[i] == loc else lab
        for i, lab in enumerate(m.labels)
    ])
    assert fold_model(m).to_json() == fold_model(flipped).to_json()

    base = location_cross_validation(m, cfg).per_location[loc]
    poisoned = location_cross_validation(flipped, cfg).per_location[loc]
    assert base.accuracy == pytest.approx(1.0 - poisoned.accuracy, abs=1e-12)
    assert base.accuracy != poisoned.accuracy


def reference_xval(m, config):
    """location_cross_validation with the held-out scans pooled into three
    Python lists and a stand-in Prediction, as before the pooled report
    came from one score vector; the pooling is kept verbatim."""
    locations = sorted({loc for loc in m.locations if loc})
    stages = build_stages(m, config)
    per_location = {}
    aucs = []
    pooled_scores = []
    pooled_hard = []
    pooled_truth = []
    skipped = {}
    for loc in locations:
        train_labels = [
            lab if m.locations[i] != loc else None
            for i, lab in enumerate(m.labels)
        ]
        node_labels = label_nodes(stages.assignment, train_labels)
        try:
            model = pipeline.train_model(stages.features, node_labels,
                                         stages.assignment.sizes(), config)
        except DegenerateLabelsError as e:
            skipped[loc] = str(e)
            continue
        pred = predict(model, stages.features, stages.assignment, config.threshold)
        held_labels = [
            lab if m.locations[i] == loc else None
            for i, lab in enumerate(m.labels)
        ]
        report = evaluate(pred, held_labels)
        per_location[loc] = report
        if report.auc is not None:
            aucs.append(report.auc)
        for i, lab in enumerate(held_labels):
            if lab in (INDOOR, OUTDOOR):
                pooled_scores.append(float(pred.fp_scores[i]))
                pooled_hard.append(pred.fp_labels[i])
                pooled_truth.append(lab)
    mean_auc = sum(aucs) / len(aucs) if aucs else None
    pooled_pred = Prediction(
        node_scores=np.asarray(pooled_scores),
        node_labels=pooled_hard,
        fp_scores=np.asarray(pooled_scores),
        fp_labels=pooled_hard,
    )
    pooled = evaluate(pooled_pred, pooled_truth) if pooled_truth else None
    return XvalReport(per_location, mean_auc, pooled, skipped)


@pytest.mark.parametrize("tagging", [lambda m: m, _trip_tagged], ids=["buildings", "trips"])
def test_xval_equals_list_pooling(tagging):
    m = tagging(_xval_world())
    cfg = PipelineConfig(seed=3, n_trees=30)
    assert location_cross_validation(m, cfg) == reference_xval(m, cfg)


def test_xval_single_location():
    spec = WorldSpec(seed=1, duration_s=600.0, buildings=1,
                     outdoor_dwell_min_s=0.0, outdoor_dwell_max_s=0.0)
    m = ingest(generate(spec))
    with pytest.raises(SingleLocationError):
        location_cross_validation(m, PipelineConfig())


def _trained_model(cfg, seed=1):
    spec = WorldSpec(seed=seed, duration_s=3600.0)
    m = ingest(generate(spec))
    model, _ = fit(m, cfg)
    return model


def test_warmup_indoor_scenario_accurate_from_start():
    cfg = PipelineConfig(seed=2, n_trees=40)
    model = _trained_model(cfg)
    scenario = ingest(generate(WorldSpec(
        seed=9, duration_s=600.0, buildings=1,
        outdoor_dwell_min_s=0.0, outdoor_dwell_max_s=0.0,
    )))
    report = warmup_eval(model, scenario, 10, cfg)
    assert len(report.entries) == 10
    assert all(e.minute == i + 1 for i, e in enumerate(report.entries))
    assert all(e.accuracy >= 0.9 for e in report.entries)


def test_warmup_truncates_at_last_nonempty_minute():
    cfg = PipelineConfig(seed=2, n_trees=40)
    model = _trained_model(cfg)
    scenario = ingest(generate(WorldSpec(
        seed=9, duration_s=240.0, buildings=1,
        outdoor_dwell_min_s=0.0, outdoor_dwell_max_s=0.0,
    )))
    report = warmup_eval(model, scenario, 30, cfg)
    assert report.entries[-1].minute == 4


def test_warmup_empty_scenario():
    cfg = PipelineConfig()
    model = _trained_model(cfg, seed=4)
    empty = FingerprintMatrix.from_fingerprints("d", [], [], [], [])
    with pytest.raises(EmptyPrefixError):
        warmup_eval(model, empty, 5, cfg)


def _warmup_by_prefix_scoring(model, m, minutes, config):
    """Reference warm-up series: each minute prefix scored by
    `pipeline.score` on that prefix alone."""
    t0 = m.timestamps_ms[0]
    last_minute = (m.timestamps_ms[-1] - t0) // 60000 + 1
    entries = []
    for minute in range(1, min(minutes, last_minute) + 1):
        n = bisect_left(m.timestamps_ms, t0 + minute * 60000)
        pred, _ = score(m.prefix(n), model, config)
        report = evaluate(pred, m.labels[:n])
        entries.append(WarmupEntry(minute, report.accuracy, report.n_evaluated))
    return entries


@pytest.mark.parametrize("variant, min_pts", [
    ("graph", 1), ("clusters", 1), ("fingerprints", 1), ("graph", 2),
])
def test_warmup_equals_scoring_each_prefix(variant, min_pts):
    cfg = PipelineConfig(seed=2, n_trees=20, variant=variant, min_pts=min_pts)
    model = _trained_model(cfg)
    scenario = ingest(generate(WorldSpec(seed=9, duration_s=720.0)))
    entries = warmup_eval(model, scenario, 12, cfg).entries
    assert len(entries) == 12
    assert entries == _warmup_by_prefix_scoring(model, scenario, 12, cfg)


def _prefix_slices(chunks):
    """(n, stages) of every prefix of the chunks `prefix_stages` yields,
    sliced from its chunk; each chunk must be block-diagonal."""
    for chunk in chunks:
        s = chunk.stages
        starts = np.cumsum([0] + chunk.ends)
        node_ends = np.r_[chunk.node_starts[1:], s.graph.n_nodes]
        assert len(s.assignment.cluster_of) == len(chunk.scan) == starts[-1]
        assert s.features.n_nodes == s.graph.n_nodes
        blocks = []
        for p, n in enumerate(chunk.ends):
            lo, hi = chunk.node_starts[p], node_ends[p]
            assert np.array_equal(chunk.scan[starts[p]:starts[p + 1]], np.arange(n))
            cluster_of = s.assignment.cluster_of[starts[p]:starts[p + 1]] - lo
            A = s.graph.A[lo:hi, lo:hi]
            blocks.append(A.nnz)
            yield n, pipeline.Stages(ClusterAssignment(cluster_of),
                                     TransitionGraph(A, cluster_of),
                                     FeatureTable(s.features.names, s.features.rows[lo:hi]))
        assert sum(blocks) == s.graph.A.nnz  # no edge crosses prefixes


def _assert_same_stages(got, want):
    assert np.array_equal(got.assignment.cluster_of, want.assignment.cluster_of)
    assert got.graph.A.shape == want.graph.A.shape
    assert (got.graph.A != want.graph.A).nnz == 0
    assert got.features.names == want.features.names
    assert np.array_equal(got.features.rows, want.features.rows)


@pytest.mark.parametrize("variant", ["graph", "clusters"])
def test_warmup_path_builds_no_index(variant, monkeypatch):
    """At min_pts = 1 the prefix stages come from the self-join alone."""
    cfg = PipelineConfig(seed=2, n_trees=20, variant=variant)
    model = _trained_model(cfg)
    scenario = ingest(generate(WorldSpec(seed=9, duration_s=720.0)))
    t0 = scenario.timestamps_ms[0]
    ends = [bisect_left(scenario.timestamps_ms, t0 + minute * 60000) for minute in range(1, 13)]
    expected = [build_stages(scenario.prefix(n), cfg) for n in ends]
    entries = _warmup_by_prefix_scoring(model, scenario, 12, cfg)

    def no_index(m):
        raise AssertionError("the warm-up path built an index")

    monkeypatch.setattr(pipeline, "build_index", no_index)
    monkeypatch.setattr(fpindex, "build_index", no_index)
    got = list(_prefix_slices(prefix_stages(scenario, cfg, ends)))
    assert [n for n, _ in got] == ends
    for (_, stages), want in zip(got, expected):
        _assert_same_stages(stages, want)
    assert warmup_eval(model, scenario, 12, cfg).entries == entries


def test_warmup_chunk_is_one_build_graph_and_one_extract_features(monkeypatch):
    """Each warm-up chunk goes through the stage path every stream uses:
    one `build_graph` and one `extract_features` call, whose graphs and
    feature rows hold the nodes of every prefix."""
    cfg = PipelineConfig(seed=2, n_trees=10)
    model = _small_model("graph")
    m = ingest(generate(WorldSpec(seed=9, duration_s=720.0)))
    t0 = m.timestamps_ms[0]
    ends = [bisect_left(m.timestamps_ms, t0 + minute * 60000) for minute in range(1, 13)]
    nodes = sum(build_stages(m.prefix(n), cfg).graph.n_nodes for n in ends)
    monkeypatch.setattr(pipeline, "_CHUNK_SCANS", 500)
    n_chunks = sum(1 for _ in prefix_stages(m, cfg, ends))
    assert n_chunks > 1

    def recording(fn, out):
        def wrapper(*args, **kwargs):
            out.append(fn(*args, **kwargs))
            return out[-1]
        return wrapper

    graphs, tables = [], []
    monkeypatch.setattr(pipeline, "build_graph", recording(pipeline.build_graph, graphs))
    monkeypatch.setattr(pipeline, "extract_features",
                        recording(pipeline.extract_features, tables))
    warmup_eval(model, m, 12, cfg)
    assert len(graphs) == len(tables) == n_chunks
    assert sum(g.n_nodes for g in graphs) == sum(t.n_nodes for t in tables) == nodes


@functools.lru_cache(maxsize=None)
def _small_model(variant):
    cfg = PipelineConfig(seed=2, n_trees=10, variant=variant)
    return fit(ingest(generate(WorldSpec(seed=1, duration_s=1800.0))), cfg)[0]


@pytest.mark.parametrize("max_gap_ms", [None, 6000])
@pytest.mark.parametrize("variant, min_pts", [
    ("graph", 1), ("clusters", 1), ("fingerprints", 1), ("graph", 2),
])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16), minutes=st.integers(1, 6), data=st.data())
def test_every_chunk_bound_gives_each_prefix_its_own_stages(variant, min_pts, max_gap_ms,
                                                            seed, minutes, data):
    """Prefixes stacked at any chunk bound (every prefix alone, a few
    scans, a few minutes, the default) equal `build_stages` and
    `pipeline.score` on each prefix; held-out gaps longer than max_gap_ms
    cut edges inside a prefix."""
    cfg = PipelineConfig(seed=2, n_trees=10, variant=variant, min_pts=min_pts,
                         max_gap_ms=max_gap_ms)
    records = generate(WorldSpec(seed=seed, duration_s=60.0 * minutes))
    gaps = data.draw(st.lists(st.sampled_from([0, 0, 0, 5000, 40000]),
                              min_size=len(records), max_size=len(records)))
    for rec, shift in zip(records, np.cumsum(gaps).tolist()):
        rec.timestamp_ms += shift
    m = ingest(records)
    ends = sorted(data.draw(st.lists(st.integers(0, m.T), min_size=1, max_size=6)))
    expected = [build_stages(m.prefix(n), cfg) for n in ends]
    model = _small_model(variant)
    entries = _warmup_by_prefix_scoring(model, m, minutes + 2, cfg)
    for bound in (1, 7, 90, pipeline._CHUNK_SCANS):
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(pipeline, "_CHUNK_SCANS", bound)
            got = list(_prefix_slices(prefix_stages(m, cfg, ends)))
            assert [n for n, _ in got] == ends
            for (_, stages), want in zip(got, expected):
                _assert_same_stages(stages, want)
            assert warmup_eval(model, m, minutes + 2, cfg).entries == entries


def test_warmup_unlabelled_first_minute_raises_no_labels():
    cfg = PipelineConfig(seed=2, n_trees=10)
    records = generate(WorldSpec(seed=9, duration_s=300.0))
    t0 = records[0].timestamp_ms
    for rec in records:
        if rec.timestamp_ms < t0 + 60000:
            rec.label = None
    m = ingest(records)
    model = _small_model("graph")
    with pytest.raises(NoLabelsError):
        _warmup_by_prefix_scoring(model, m, 5, cfg)
    with pytest.raises(NoLabelsError):
        warmup_eval(model, m, 5, cfg)


def test_warmup_with_another_variants_model_raises_feature_mismatch():
    m = ingest(generate(WorldSpec(seed=9, duration_s=300.0)))
    with pytest.raises(FeatureMismatchError):
        warmup_eval(_small_model("clusters"), m, 5, PipelineConfig(seed=2, variant="graph"))
