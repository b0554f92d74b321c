import csv
from typing import Set

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wifi_inout import features
from wifi_inout.clustering import ClusterParams, cluster
from wifi_inout.errors import (
    ConfigError, CoverageError, DegenerateLabelsError, FormatError, NodeRangeError,
    RankDeficiencyError,
)
from wifi_inout.features import (
    DEFAULT_RANGES,
    SENTINEL_DBM,
    FeatureRanges,
    FeatureTable,
    extract_features,
    neighborhood_feature_grid,
    read_features_csv,
    select_neighborhood_sizes,
    write_features_csv,
)
from wifi_inout.fpindex import build_index
from wifi_inout.graph import bfs_layers, build_graph, neighborhood
from wifi_inout.model import INDOOR, OUTDOOR

from conftest import mac, make_matrix, random_scan_matrix
from oracles import feature_oracle, ols_normal_equations
from test_graph import _assignment, _trivial_matrix

A = "0a:00:00:00:00:01"
B = "0b:00:00:00:00:02"


def _pipeline(m, eps=0.22):
    index = build_index(m)
    assignment = cluster(m, ClusterParams(eps=eps), index)
    g = build_graph(assignment, m)
    return assignment, g


def reference_bfs_layers(g, x, max_d):
    """The per-node Python BFS that graph.bfs_layers replaced: layer l holds
    the nodes first reached at exactly l hops."""
    if not 0 <= x < g.n_nodes:
        raise NodeRangeError(f"node {x} out of range [0, {g.n_nodes})")
    seen = {x}
    layers = [{x}]
    current = {x}
    for _ in range(max_d):
        nxt: Set[int] = set()
        for node in current:
            for nb in g.adjacency[node]:
                if nb not in seen:
                    seen.add(nb)
                    nxt.add(nb)
        layers.append(nxt)
        if not nxt:
            break
        current = nxt
    return layers


def reference_features(g, m, ranges):
    """The per-node BFS that extract_features replaced, kept as its oracle."""
    n_nodes = g.n_nodes
    # per-node aggregates over member fingerprints
    size = np.array(g.node_weight, dtype=np.float64)
    readings = np.zeros(n_nodes)
    dbm_sum = np.zeros(n_nodes)
    for x in range(n_nodes):
        for fi in g.node_members[x]:
            fp = m.fingerprints[fi]
            readings[x] += len(fp.powers)
            dbm_sum[x] += sum(fp.dbm_values())

    names = ranges.names()
    col = {name: i for i, name in enumerate(names)}
    max_d = ranges.max_d()
    rows = np.zeros((n_nodes, len(names)))

    for x in range(n_nodes):
        layers = reference_bfs_layers(g, x, max_d)
        cnt = 0
        size_sum = 0.0
        readings_sum = 0.0
        dbm_total = 0.0
        for d in range(max_d + 1):
            if d < len(layers):
                for y in layers[d]:
                    cnt += 1
                    size_sum += size[y]
                    readings_sum += readings[y]
                    dbm_total += dbm_sum[y]
            for family, value in (
                ("neighbors", float(cnt)),
                ("power", dbm_total / readings_sum if readings_sum > 0 else SENTINEL_DBM),
                ("aps", readings_sum / size_sum),
                ("fps", size_sum / cnt),
            ):
                rng = getattr(ranges, family)
                if rng is not None and rng[0] <= d <= rng[1]:
                    rows[x, col[f"{family}_d{d}"]] = value
    return FeatureTable(names=names, rows=rows)


_scans = st.lists(
    st.dictionaries(st.integers(0, 7).map(mac), st.integers(-95, -30), max_size=5),
    min_size=1, max_size=40,
)
_hops = st.one_of(st.none(), st.lists(st.integers(0, 8), min_size=2, max_size=2).map(
    lambda ds: (min(ds), max(ds))))
_ranges = st.builds(FeatureRanges, _hops, _hops, _hops, _hops).filter(lambda r: r.names())


@settings(max_examples=300, deadline=None)
@given(_scans, st.data(), _ranges, st.integers(1, 3))
def test_extract_features_equals_per_node_bfs(scans, data, ranges, block):
    m = make_matrix(scans)
    labels = data.draw(st.lists(st.integers(0, 11), min_size=m.T, max_size=m.T))
    g = build_graph(_assignment(np.unique(labels, return_inverse=True)[1]), m)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(features, "_SOURCE_BLOCK", block)
        got = extract_features(g, m, ranges)
    want = reference_features(g, m, ranges)
    assert got.names == want.names
    assert np.array_equal(got.rows, want.rows)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 11), min_size=1, max_size=60), st.integers(0, 8), st.randoms())
def test_bfs_layers_equal_per_node_bfs_for_every_source(labels, max_d, rnd):
    cluster_of = np.unique(labels, return_inverse=True)[1]
    g = build_graph(_assignment(cluster_of), _trivial_matrix(len(labels)))
    sources = rnd.sample(range(g.n_nodes), g.n_nodes)
    layers = bfs_layers(g, sources, max_d)
    wants = [reference_bfs_layers(g, x, max_d) for x in sources]
    # the walk stops at the last layer that any source still reaches
    assert len(layers) == max(sum(1 for layer in want if layer) for want in wants)
    for i, (x, want) in enumerate(zip(sources, wants)):
        want += [set()] * (max_d + 1 - len(want))  # the reference stops at an empty layer
        got = [set(F[[i]].nonzero()[1].tolist()) for F in layers]
        assert got + [set()] * (max_d + 1 - len(got)) == want
        for d in range(max_d + 1):
            assert neighborhood(g, x, d).members == set().union(*want[:d + 1])


@pytest.mark.parametrize("scan", [[0, 1], [0, 1, 3]])
def test_extract_features_refuses_a_bad_scan_map(scan):
    m = _trivial_matrix(3)
    g = build_graph(_assignment([0, 1, 2]), m)
    with pytest.raises(CoverageError):
        extract_features(g, m, scan=np.array(scan))


def test_feature_grid_rejects_negative_hop_bound():
    m = make_matrix([{A: -50}, {B: -60}])
    _, g = _pipeline(m)
    with pytest.raises(ConfigError):
        neighborhood_feature_grid(g, m, max_d=-1)


def test_feature_grid_stops_walking_past_the_graph(monkeypatch):
    # a path of five nodes, walked two sources at a time: the farthest node
    # is 4 hops from source 0, 3 from sources 2 and 3, and 4 from source 4
    m = make_matrix([{mac(i): -50 - i} for i in range(5)])
    g = build_graph(_assignment([0, 1, 2, 3, 4]), m)
    walked = []

    def counting_bfs_layers(g, sources, max_d):
        layers = bfs_layers(g, sources, max_d)
        walked.append(len(layers))
        return layers

    monkeypatch.setattr(features, "bfs_layers", counting_bfs_layers)
    monkeypatch.setattr(features, "_SOURCE_BLOCK", 2)
    grid = neighborhood_feature_grid(g, m, max_d=1000)
    assert walked == [5, 4, 5]
    # the hop columns past the graph repeat the last totals bit for bit
    reachable = neighborhood_feature_grid(g, m, max_d=4)
    for family in features.FAMILIES:
        for d in range(1001):
            got = grid.rows[:, grid.names.index(f"{family}_d{d}")]
            want = reachable.rows[:, reachable.names.index(f"{family}_d{min(d, 4)}")]
            assert np.array_equal(got, want)


def test_isolated_uniform_node():
    m = make_matrix([{A: -50, B: -50}] * 4)
    _, g = _pipeline(m)
    assert g.n_nodes == 1
    table = extract_features(g, m)
    v = table.vector(0)
    assert v["power_d0"] == -50.0
    assert v["aps_d0"] == 2.0
    assert v["fps_d0"] == 4.0
    assert v["neighbors_d2"] == 1.0


def test_mean_cluster_size_at_d1():
    # two nodes of sizes 2 and 6 joined by one transition
    scans = [{A: -40}] * 2 + [{B: -40}] * 6
    m = make_matrix(scans)
    _, g = _pipeline(m)
    assert g.n_nodes == 2
    table = extract_features(g, m, FeatureRanges(
        neighbors=None, power=None, aps=None, fps=(0, 1)))
    assert table.vector(0)["fps_d1"] == 4.0
    assert table.vector(1)["fps_d1"] == 4.0
    assert table.vector(0)["fps_d0"] == 2.0


def test_default_vector_has_twenty_components(rng):
    m = random_scan_matrix(rng, 120, ap_pool=15, empty_prob=0.1)
    _, g = _pipeline(m)
    table = extract_features(g, m)
    assert len(table.names) == 20
    assert table.rows.shape == (g.n_nodes, 20)
    assert table.names[:5] == [f"neighbors_d{d}" for d in range(2, 7)]
    assert table.names[5:10] == [f"power_d{d}" for d in range(5)]
    assert table.names[10:15] == [f"aps_d{d}" for d in range(5)]
    assert table.names[15:20] == [f"fps_d{d}" for d in range(5)]


def test_matches_direct_summation_oracle(rng):
    m = random_scan_matrix(rng, 400, ap_pool=18, empty_prob=0.12)
    _, g = _pipeline(m)
    grid = neighborhood_feature_grid(g, m, max_d=6)
    for node in range(g.n_nodes):
        v = grid.vector(node)
        for d in range(7):
            want = feature_oracle(g, m, node, d)
            assert v[f"neighbors_d{d}"] == want["neighbors"]
            assert v[f"power_d{d}"] == pytest.approx(want["power"], abs=1e-9)
            assert v[f"aps_d{d}"] == pytest.approx(want["aps"], abs=1e-9)
            assert v[f"fps_d{d}"] == pytest.approx(want["fps"], abs=1e-9)


def test_neighbor_count_monotone(rng):
    m = random_scan_matrix(rng, 300, ap_pool=20, empty_prob=0.1)
    _, g = _pipeline(m)
    grid = neighborhood_feature_grid(g, m, max_d=8)
    for node in range(g.n_nodes):
        v = grid.vector(node)
        counts = [v[f"neighbors_d{d}"] for d in range(9)]
        assert counts == sorted(counts)
        assert counts[0] == 1.0


def test_empty_pool_sentinel():
    scans = [{A: -40}] * 2 + [{}] * 3 + [{A: -40}] * 2
    m = make_matrix(scans)
    _, g = _pipeline(m)
    table = extract_features(g, m)
    empty_node = next(
        x for x in range(g.n_nodes)
        if all(m.fingerprints[i].is_empty() for i in g.node_members[x])
    )
    assert table.vector(empty_node)["power_d0"] == SENTINEL_DBM
    assert table.vector(empty_node)["aps_d0"] == 0.0


def test_empty_fingerprints_count_in_aps_denominator():
    m = make_matrix([{A: -40, B: -50}, {}])
    g = build_graph(_assignment([0, 0]), m)
    table = extract_features(g, m)
    v = table.vector(0)
    assert v["aps_d0"] == 1.0        # 2 readings / 2 fingerprints
    assert v["power_d0"] == -45.0    # empties excluded from the dBm mean


def test_ols_matches_normal_equations():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(10, 3))
    y = (rng.random(10) > 0.5).astype(float)
    table = FeatureTable(names=["power_d0", "power_d1", "power_d2"], rows=X)
    report = select_neighborhood_sizes(table, y.astype(np.int8))
    beta, t_stats, p_values = ols_normal_equations(X, y)
    for k, entry in enumerate(report.entries):
        assert entry.coef == pytest.approx(beta[k + 1], abs=1e-9)
        assert entry.t_stat == pytest.approx(t_stats[k + 1], abs=1e-9)
        assert entry.p_value == pytest.approx(p_values[k + 1], abs=1e-9)
        assert entry.selected == (entry.p_value <= 0.05)


def test_selection_finds_the_informative_feature():
    # seed chosen so the noise features sit clear of the 0.05 cut
    rng = np.random.default_rng(2)
    n = 500
    y = (rng.random(n) > 0.5).astype(float)
    X = np.column_stack([
        y + rng.normal(0, 0.3, size=n),   # linearly determines the label
        rng.normal(size=n),               # pure noise
        rng.normal(size=n),
        rng.normal(size=n),
    ])
    table = FeatureTable(
        names=["power_d0", "power_d1", "power_d2", "power_d3"], rows=X)
    report = select_neighborhood_sizes(table, y.astype(np.int8))
    assert report.entries[0].selected
    assert not any(e.selected for e in report.entries[1:])
    assert report.selected_by_family()["power"] == [0]


def test_selection_errors_and_constants():
    rows = np.column_stack([np.ones(6), np.arange(6.0)])
    table = FeatureTable(names=["aps_d0", "aps_d1"], rows=rows)
    labels = np.ones(6, dtype=np.int8)
    with pytest.raises(DegenerateLabelsError):
        select_neighborhood_sizes(table, labels)

    labels = np.array([1, 0, 1, 0, 1, 0], dtype=np.int8)
    report = select_neighborhood_sizes(table, labels)
    assert report.entries[0].constant and not report.entries[0].selected

    dup = np.column_stack([np.arange(6.0), np.arange(6.0)])
    table = FeatureTable(names=["aps_d0", "aps_d1"], rows=dup)
    report = select_neighborhood_sizes(table, labels)
    assert [e.aliased for e in report.entries] == [False, True]
    assert report.entries[0].coef is not None and report.dof == 4
    assert report.entries[1].coef is None and not report.entries[1].selected

    # as many independent columns as labelled rows leave no residual dof
    square = np.column_stack([np.arange(6.0) ** k for k in range(1, 6)])
    table = FeatureTable(names=[f"aps_d{k}" for k in range(5)], rows=square)
    with pytest.raises(RankDeficiencyError):
        select_neighborhood_sizes(table, labels)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 4))
def test_aliased_columns_leave_the_fit_of_a_basis(seed, p, n_alias):
    """Columns plus linear combinations of them: the combinations' count
    of columns is reported aliased, the dof is that of the basis, and the
    fitted columns report exactly what a table of them alone reports."""
    rng = np.random.default_rng(seed)
    n = 40
    X = rng.normal(size=(n, p))
    y = (rng.random(n) > 0.5).astype(float)
    y[:2] = [0.0, 1.0]
    labels = y.astype(np.int8)
    combos = X @ rng.integers(1, 3, size=(p, n_alias)) + rng.integers(-3, 4, size=n_alias)
    names = [f"power_d{d}" for d in range(p)] + [f"aps_d{d}" for d in range(n_alias)]
    report = select_neighborhood_sizes(
        FeatureTable(names=names, rows=np.column_stack([X, combos])), labels)
    assert sum(e.aliased for e in report.entries) == n_alias
    assert not any(e.constant for e in report.entries)
    assert report.dof == n - 1 - p
    fitted = [j for j, e in enumerate(report.entries) if not e.aliased]
    alone = select_neighborhood_sizes(
        FeatureTable(names=[names[j] for j in fitted],
                     rows=np.column_stack([X, combos])[:, fitted]), labels)
    assert alone.entries == [report.entries[j] for j in fitted]


def test_features_csv_round_trip(tmp_path, rng):
    m = random_scan_matrix(rng, 150, ap_pool=15, empty_prob=0.1)
    _, g = _pipeline(m)
    table = extract_features(g, m)
    labels = np.array([(1, 0, -1)[x % 3] for x in range(g.n_nodes)], dtype=np.int8)
    path = tmp_path / "features.csv"
    write_features_csv(table, g.node_weight, labels, path)
    table2, weights2, labels2 = read_features_csv(path)
    assert table2.names == table.names
    assert np.array_equal(table2.rows, table.rows)  # repr round-trips exactly
    assert weights2 == g.node_weight
    assert labels2.dtype == np.int8 and np.array_equal(labels2, labels)


def reference_write_features_csv(table, weights, labels, path):
    """The string-label writer that `write_features_csv` replaced, kept
    verbatim: labels are "indoor", "outdoor" or None."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(table.names + ["weight", "label"])
        for x in range(table.n_nodes):
            row = [repr(float(v)) for v in table.rows[x]]
            row.append(str(int(weights[x])))
            row.append(labels[x] if labels[x] else "")
            writer.writerow(row)


@settings(max_examples=100, deadline=None)
@given(codes=st.one_of(
    st.integers(0, 12).map(lambda n: [-1] * n),  # no node labelled
    st.lists(st.sampled_from([-1, 0, 1]), max_size=12),
), data=st.data())
def test_features_csv_writes_the_bytes_of_the_string_label_writer(tmp_path_factory, codes,
                                                                  data):
    n = len(codes)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = np.array(data.draw(st.lists(st.lists(finite, min_size=2, max_size=2),
                                       min_size=n, max_size=n)), dtype=np.float64)
    table = FeatureTable(names=["power_d0", "aps_d0"], rows=rows.reshape(n, 2))
    weights = data.draw(st.lists(st.integers(1, 2**63 - 1), min_size=n, max_size=n))
    root = tmp_path_factory.mktemp("csv")
    write_features_csv(table, weights, np.array(codes, dtype=np.int8), root / "codes.csv")
    spelled = [{1: INDOOR, 0: OUTDOOR, -1: None}[c] for c in codes]
    reference_write_features_csv(table, weights, spelled, root / "strings.csv")
    assert (root / "codes.csv").read_bytes() == (root / "strings.csv").read_bytes()


def test_features_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_features_csv(path)


@pytest.mark.parametrize("weight, ok", [
    ("1", True), (str(2**63 - 1), True), ("0", False), (str(2**63), False),
    ("1" + "0" * 400, False),
], ids=["1", "2**63-1", "0", "2**63", "10**400"])
def test_features_csv_weights_are_int64_and_positive(tmp_path, weight, ok):
    path = tmp_path / "w.csv"
    path.write_text(f"x,weight,label\n0.5,{weight},indoor\n", encoding="utf-8")
    if ok:
        assert read_features_csv(path)[1] == [int(weight)]
    else:
        with pytest.raises(FormatError, match=r"\[1, 2\*\*63\)"):
            read_features_csv(path)
