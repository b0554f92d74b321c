"""Per-node neighborhood features and the size-selection regression.

Four feature families are computed over bounded-hop neighborhoods:
number of neighbor nodes, average signal strength (dBm, pooled over all
readings in the neighborhood), average APs per scan, and average
fingerprints per cluster. The paper's hop ranges (neighbors 2..6, the
rest 0..4, `DEFAULT_RANGES`) give the standard 20-component vector and
are fixed for the pipeline; a library caller may pass other
`FeatureRanges` to `extract_features`, and the regression tool below
(`select-dims`) assesses the sizes over a wider grid.

`extract_features` sums each node's size, readings and dBm, then pools
those totals over each node's hop-d balls in one blocked BFS. Its row
map `scan` is `build_graph`'s, so the warm-up runs it on a chunk of
stacked prefixes (`pipeline.prefix_stages`) as on one stream.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import qr
from scipy.stats import t as student_t

from .clustering import ClusterAssignment, check_coverage
from .errors import (
    ConfigError, DegenerateLabelsError, FormatError, RankDeficiencyError, first_non_int64,
)
from .graph import TransitionGraph, bfs_layers
from .model import INDOOR, OUTDOOR, FingerprintMatrix, label_codes

# dBm assigned when a neighborhood pool contains no readings at all;
# weaker than any realistic reading so tree learners can still split on it
SENTINEL_DBM = -100.0

FAMILIES = ("neighbors", "power", "aps", "fps")

# BFS sources per block in extract_features; bounds its frontier matrices
_SOURCE_BLOCK = 256

# the largest hop bound of neighborhood_feature_grid, whose table has
# 4 (max_d + 1) columns; a larger request is refused before anything is built
MAX_GRID_D = 2048


@dataclass(frozen=True)
class FeatureRanges:
    """Inclusive hop-bound range per family; None drops the family."""

    neighbors: Optional[Tuple[int, int]] = (2, 6)
    power: Optional[Tuple[int, int]] = (0, 4)
    aps: Optional[Tuple[int, int]] = (0, 4)
    fps: Optional[Tuple[int, int]] = (0, 4)

    def columns(self) -> List[Tuple[int, int]]:
        """(index in FAMILIES, hop bound) of each feature column, in order."""
        return [(k, d) for k, family in enumerate(FAMILIES)
                if (rng := getattr(self, family)) is not None
                for d in range(rng[0], rng[1] + 1)]

    def names(self) -> List[str]:
        return [f"{FAMILIES[k]}_d{d}" for k, d in self.columns()]

    def max_d(self) -> int:
        return max(d for _, d in self.columns())


DEFAULT_RANGES = FeatureRanges()

# d = 0 variants for the cluster / raw-fingerprint baseline models, which
# have no meaningful graph neighborhood
BASELINE_RANGES = FeatureRanges(neighbors=None, power=(0, 0), aps=(0, 0), fps=(0, 0))


@dataclass
class FeatureTable:
    """Node feature matrix with stable column names."""

    names: List[str]
    rows: np.ndarray  # (n_nodes, n_features)

    @property
    def n_nodes(self) -> int:
        return self.rows.shape[0]

    def vector(self, node: int) -> Dict[str, float]:
        return dict(zip(self.names, (float(v) for v in self.rows[node])))


def extract_features(
    g: TransitionGraph,
    m: FingerprintMatrix,
    ranges: FeatureRanges = DEFAULT_RANGES,
    scan: Optional[np.ndarray] = None,
) -> FeatureTable:
    """One feature row per graph node; row i of g.cluster_of stands for
    scan scan[i] of m (by default, scan i), as in `build_graph`.

    For each hop bound d: neighbors = |N_x(d)|; power = mean dBm over all
    readings of all fingerprints in the pooled neighborhood clusters
    (empty fingerprints contribute no readings; an all-empty pool takes
    the sentinel); aps = total readings / total fingerprints (empties
    count in the denominator); fps = mean cluster size.

    With V = [1, size, readings, dBm sum] per node, all nodes are BFS
    sources, _SOURCE_BLOCK at a time: `bfs_layers` gives the frontiers
    F_0 = I[block] and F_d = (F_{d-1} A) > F_{d-1} + F_{d-2}, and hop d
    totals S_d = F_0 V + ... + F_d V. A source's frontiers are disjoint,
    so a block's hold at most _SOURCE_BLOCK x n_nodes entries. S adds
    only integers (ingest keeps integer dBm), exactly in float64 in any
    order, so the rows equal a per-node BFS's bit for bit, and a
    block-diagonal graph of stacked prefixes gives each prefix the rows
    its own graph would.
    """
    check_coverage(ClusterAssignment(g.cluster_of), m, scan)
    k, dbm_sum = m.k, np.bincount(m.rows, m.dbm, m.T)
    if scan is not None:
        k, dbm_sum = k[scan], dbm_sum[scan]
    n = g.n_nodes
    V = np.column_stack([np.ones(n), np.bincount(g.cluster_of, minlength=n),
                         np.bincount(g.cluster_of, k, n), np.bincount(g.cluster_of, dbm_sum, n)])
    fam, hop = zip(*ranges.columns())
    rows = np.empty((n, len(hop)))
    for lo in range(0, n, _SOURCE_BLOCK):
        layers = bfs_layers(g, range(lo, min(lo + _SOURCE_BLOCK, n)), ranges.max_d())
        totals = np.cumsum([F @ V for F in layers], axis=0)  # (hop, source, 4)
        count, size, readings, dbm = totals.transpose(2, 0, 1)  # each (hop, source)
        power = np.divide(dbm, readings, out=np.full_like(dbm, SENTINEL_DBM),
                          where=readings > 0)
        values = np.stack([count, power, readings / size, size / count])
        # hops past the block's last layer repeat its totals
        rows[lo:lo + _SOURCE_BLOCK] = values[fam, np.minimum(hop, len(layers) - 1)].T
    return FeatureTable(names=ranges.names(), rows=rows)


def neighborhood_feature_grid(
    g: TransitionGraph, m: FingerprintMatrix, max_d: int = 30
) -> FeatureTable:
    """All four families at every hop bound 0..max_d, for the selection
    regression."""
    if not 0 <= max_d <= MAX_GRID_D:
        raise ConfigError(f"max_d must be >= 0 and <= {MAX_GRID_D}, got {max_d}")
    full = FeatureRanges(
        neighbors=(0, max_d), power=(0, max_d), aps=(0, max_d), fps=(0, max_d)
    )
    return extract_features(g, m, full)


@dataclass(frozen=True)
class SelectionEntry:
    name: str
    family: str
    d: int
    coef: Optional[float]
    t_stat: Optional[float]
    p_value: Optional[float]
    selected: bool
    constant: bool = False
    aliased: bool = False  # a linear combination of the fitted columns


@dataclass
class FeatureSelectionReport:
    entries: List[SelectionEntry]
    n_nodes: int
    dof: int

    def selected_by_family(self) -> Dict[str, List[int]]:
        out: Dict[str, List[int]] = {f: [] for f in FAMILIES}
        for e in self.entries:
            if e.selected:
                out[e.family].append(e.d)
        return {f: sorted(ds) for f, ds in out.items()}


def select_neighborhood_sizes(table: FeatureTable, labels: np.ndarray) -> FeatureSelectionReport:
    """OLS of the label code (`label_codes`: indoor = 1, outdoor = 0) on
    every (family, d) feature, over the nodes whose code is >= 0; a
    feature is selected when its two-sided t-test p-value is <= 0.05.
    Constant columns are dropped before the fit and reported unselected.

    A column that is a linear combination of others (a hop bound past
    which a family stops changing, say) is aliased: a pivoted QR of the
    centred columns picks a basis of the design deterministically, and
    the rest are reported unselected and aliased, as R's `lm` reports NA
    coefficients. A design with no residual degree of freedom left
    raises RankDeficiencyError.
    """
    labels = np.asarray(labels)
    if len(labels) != table.n_nodes:
        raise FormatError("one label slot per node required")
    keep_rows = np.flatnonzero(labels >= 0)
    y = labels[keep_rows].astype(np.float64)
    if len(set(y.tolist())) < 2:
        raise DegenerateLabelsError("selection regression needs both classes")
    X = table.rows[keep_rows]

    variable = [j for j in range(X.shape[1]) if np.ptp(X[:, j]) > 0]
    design = np.column_stack([np.ones(len(X)), X[:, variable]])
    rank = np.linalg.matrix_rank(design)
    fitted = variable
    if rank < design.shape[1]:
        _, pivots = qr(design[:, 1:] - design[:, 1:].mean(axis=0), mode="r", pivoting=True)
        fitted = [variable[k] for k in np.sort(pivots[:rank - 1])]
        design = np.column_stack([np.ones(len(X)), X[:, fitted]])
    n, p = design.shape
    dof = n - p
    if dof <= 0:
        raise RankDeficiencyError(
            f"design has no residual degree of freedom ({n} rows, rank {p})"
        )
    beta, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(design.T @ design)
    se = np.sqrt(np.diag(cov))
    t_stats = beta / se
    p_values = 2.0 * student_t.sf(np.abs(t_stats), dof)

    stats = {
        fitted[k]: (float(beta[k + 1]), float(t_stats[k + 1]), float(p_values[k + 1]))
        for k in range(len(fitted))
    }
    entries = []
    for j, name in enumerate(table.names):
        family, d_str = name.rsplit("_d", 1)
        if j in stats:
            coef, t_val, p_val = stats[j]
            entries.append(
                SelectionEntry(name, family, int(d_str), coef, t_val, p_val,
                               selected=p_val <= 0.05)
            )
        else:
            entries.append(
                SelectionEntry(name, family, int(d_str), None, None, None, selected=False,
                               constant=j not in variable, aliased=j in variable)
            )
    return FeatureSelectionReport(entries=entries, n_nodes=len(keep_rows), dof=dof)


# --- feature matrix export ---------------------------------------------------

def write_features_csv(
    table: FeatureTable,
    weights: Sequence[int],
    labels: np.ndarray,
    path,
) -> None:
    """One row per node: its features, weight and label, the label code
    (`label_codes`) spelled indoor, outdoor, or empty for -1."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(table.names + ["weight", "label"])
        for x in range(table.n_nodes):
            row = [repr(float(v)) for v in table.rows[x]]
            row.append(str(int(weights[x])))
            row.append({1: INDOOR, 0: OUTDOOR, -1: ""}[int(labels[x])])
            writer.writerow(row)


def read_features_csv(path) -> Tuple[FeatureTable, List[int], np.ndarray]:
    """Inverse of write_features_csv: the table, weights and label codes."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if not header or header[-2:] != ["weight", "label"]:
            raise FormatError("feature CSV must end with weight,label columns")
        names = header[:-2]
        if not names:
            raise FormatError("feature CSV has no feature column")
        rows, weights, labels = [], [], []
        for rec in reader:
            if len(rec) != len(header):
                raise FormatError(f"feature CSV row has {len(rec)} fields, want {len(header)}")
            try:
                rows.append([float(v) for v in rec[: len(names)]])
                weights.append(int(rec[-2]))
            except ValueError as e:
                raise FormatError(f"bad feature CSV value: {e}") from e
            lab = rec[-1]
            if lab not in ("", INDOOR, OUTDOOR):
                raise FormatError(f"bad label in feature CSV: {lab!r}")
            labels.append(lab)
    table = FeatureTable(names=names, rows=np.array(rows, dtype=np.float64))
    if not np.isfinite(table.rows).all():
        raise FormatError("feature CSV holds a non-finite value")
    if first_non_int64(weights) is not None or any(w < 1 for w in weights):
        raise FormatError("feature CSV weights must be integers in [1, 2**63)")
    return table, weights, label_codes(labels)
