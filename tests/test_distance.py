import numpy as np
import pytest

from wifi_inout.distance import DistanceCase, distance

from conftest import fp, raw_fp
from oracles import eps_oracle_distance

A = "0a:00:00:00:00:01"
B = "0b:00:00:00:00:02"
C = "0c:00:00:00:00:03"
D = "0d:00:00:00:00:04"


def test_subset_example_ranks_the_missing_ap_last():
    # x lacks B, which ranks 2 in x as in y: the union ranks agree
    x = fp(0, {A: -40})
    y = fp(1, {A: -50, B: -60})
    r = distance(x, y, 0, 1)
    assert r.case is DistanceCase.SPEARMAN
    assert r.value == 0.0


def test_tie_example_shares_the_average_rank():
    # x ranks A and B 1.5 each, y ranks them 1 and 2: 6 * 0.5 / (2 * 3)
    x = fp(0, {A: -50, B: -50})
    y = fp(1, {A: -40, B: -60})
    r = distance(x, y, 0, 1)
    assert r.case is DistanceCase.SPEARMAN
    assert r.value == 0.5


def test_case_table_both_empty_adjacent():
    r = distance(fp(4, {}), fp(5, {}), 4, 5)
    assert r.value == 0.0
    assert r.case is DistanceCase.EMPTY_ADJACENT


def test_case_table_both_empty_nonadjacent():
    r = distance(fp(1, {}), fp(4, {}), 1, 4)
    assert r.value == 2.0
    assert r.case is DistanceCase.EMPTY_NONADJACENT


def test_case_table_disjoint():
    r = distance(fp(0, {A: -40}), fp(9, {B: -55}), 0, 9)
    assert r.value == 2.0
    assert r.case is DistanceCase.DISJOINT


def test_case_table_single_identical():
    r = distance(fp(0, {A: -40}), fp(9, {A: -88}), 0, 9)
    assert r.value == 0.0
    assert r.case is DistanceCase.SINGLE_IDENTICAL


def test_case_table_spearman_four_ap_example():
    # sum d^2 = 4, rho = 1 - 24/60 = 0.6, distance 0.4
    x = fp(0, {A: -40, B: -60, C: -70})
    y = fp(1, {A: -50, B: -45, D: -80})
    r = distance(x, y, 0, 1)
    assert r.case is DistanceCase.SPEARMAN
    assert r.value == 6.0 * 4.0 / (4 * 15)


def test_one_empty_is_disjoint_case():
    r = distance(fp(0, {}), fp(1, {A: -40}), 0, 1)
    assert r.value == 2.0
    assert r.case is DistanceCase.DISJOINT


def test_self_distance_zero_everywhere():
    multi = fp(3, {A: -40, B: -50, C: -60})
    single = fp(4, {A: -40})
    empty = fp(5, {})
    assert distance(multi, multi, 3, 3).value == 0.0
    assert distance(single, single, 4, 4).value == 0.0
    assert distance(empty, empty, 5, 5).value == 0.0


def _random_pair(rng, overlap_frac=0.3, lo=5, hi=15):
    kx = int(rng.integers(lo, hi + 1))
    ky = int(rng.integers(lo, hi + 1))
    o = max(1, round(overlap_frac * min(kx, ky)))
    n_aps = kx + ky - o
    aps = [f"02:00:00:00:{i >> 8:02x}:{i & 255:02x}" for i in range(n_aps)]
    x = {aps[i]: int(rng.integers(-95, -30)) for i in range(kx)}
    y = {aps[i]: int(rng.integers(-95, -30)) for i in range(kx - o, n_aps)}
    return fp(0, x), fp(1, y)


def test_matches_explicit_epsilon_oracle(rng):
    for _ in range(1000):
        x, y = _random_pair(rng)
        got = distance(x, y, 0, 1).value
        want = eps_oracle_distance(x.powers, y.powers, 0, 1)
        assert got == pytest.approx(want, abs=1e-9)


def test_oracle_agreement_on_edge_cases(rng):
    cases = [
        (fp(0, {}), fp(1, {}), 0, 1),
        (fp(0, {}), fp(7, {}), 0, 7),
        (fp(0, {A: -40}), fp(1, {B: -40}), 0, 1),
        (fp(0, {A: -40}), fp(1, {A: -90}), 0, 1),
        (fp(0, {A: -40, B: -40}), fp(1, {A: -40, B: -40}), 0, 1),
    ]
    for x, y, i, j in cases:
        assert distance(x, y, i, j).value == pytest.approx(
            eps_oracle_distance(x.powers, y.powers, i, j), abs=1e-12
        )


def test_symmetry(rng):
    for _ in range(300):
        x, y = _random_pair(rng, overlap_frac=float(rng.uniform(0.1, 1.0)))
        assert distance(x, y, 0, 1).value == distance(y, x, 1, 0).value


def test_range(rng):
    for _ in range(300):
        x, y = _random_pair(rng, overlap_frac=float(rng.uniform(0.1, 1.0)))
        v = distance(x, y, 0, 1).value
        assert 0.0 <= v <= 2.0


def test_identity_via_rho_one(rng):
    for _ in range(50):
        x, _ = _random_pair(rng)
        assert distance(x, x, 0, 0).case in (
            DistanceCase.SPEARMAN, DistanceCase.SINGLE_IDENTICAL
        )
        assert distance(x, x, 0, 0).value == 0.0


def test_scale_invariance(rng):
    for c in (2.0, 0.5, 1.7, 1e6, 3.1e-4):
        for _ in range(60):
            x, y = _random_pair(rng)
            xs = raw_fp(0, {a: p * c for a, p in x.powers.items()})
            ys = raw_fp(1, {a: p * c for a, p in y.powers.items()})
            assert distance(xs, ys, 0, 1).value == distance(x, y, 0, 1).value
