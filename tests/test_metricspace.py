"""Covering/packing oracles checked against independent brute-force search."""

import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import entrokit as ek
from entrokit.rng import stream


# -- independent oracles (enumeration, no branch-and-bound) ------------


def brute_cover(space, eps, subset=None, ambient=None):
    """Minimal cover size by enumerating all center subsets by size."""
    subset = list(range(space.n)) if subset is None else subset
    ambient = list(range(space.n)) if ambient is None else ambient
    for size in range(1, len(ambient) + 1):
        for centers in itertools.combinations(ambient, size):
            if all(any(space.dist[c, p] <= eps for c in centers) for p in subset):
                return size
    raise AssertionError("uncoverable")


def brute_pack(space, eps, subset=None):
    """Maximal separated subset by enumerating all subsets."""
    subset = list(range(space.n)) if subset is None else subset
    best = 0
    for size in range(len(subset), 0, -1):
        for members in itertools.combinations(subset, size):
            if all(space.dist[a, b] >= eps
                   for a, b in itertools.combinations(members, 2)):
                return size
    return best


def brute_code_length(space, eps, subset=None, ambient=None):
    """Smallest B such that some codebook of <= 2^B ambient points
    reconstructs every subset point within eps."""
    subset = list(range(space.n)) if subset is None else subset
    ambient = list(range(space.n)) if ambient is None else ambient
    for bits in range(0, len(ambient).bit_length() + 1):
        brk = False
        for size in range(1, 2**bits + 1):
            for centers in itertools.combinations(ambient, size):
                if all(any(space.dist[c, p] <= eps for c in centers)
                       for p in subset):
                    brk = True
                    break
            if brk:
                break
        if brk:
            return bits
    raise AssertionError("no codebook found")


# -- construction and validation ---------------------------------------


def test_validation_rejects_bad_matrices():
    with pytest.raises(ValueError, match="asymmetric"):
        ek.FiniteMetricSpace([0, 1], [[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="diagonal"):
        ek.FiniteMetricSpace([0, 1], [[0.5, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="triangle"):
        ek.FiniteMetricSpace([0, 1, 2],
                             [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    with pytest.raises(ValueError, match="negative"):
        ek.FiniteMetricSpace([0, 1], [[0, -1.0], [-1.0, 0]])


def test_triangle_violation_named_as_by_a_scan_over_k():
    # 128 points check k in two blocks; the first violation is k = 101
    n = 128
    idx = np.arange(n, dtype=float)
    dist = np.abs(idx[:, None] - idx[None, :])
    dist[100, 120] = dist[120, 100] = 20.5
    first = None
    for k in range(n):
        slack = dist - (dist[:, k][:, None] + dist[k, :][None, :])
        if np.max(slack) > 1e-12:
            i, j = np.unravel_index(np.argmax(slack), slack.shape)
            first = f"violated for ({i}, {j}, {k})"
            break
    assert first == "violated for (100, 120, 101)"
    with pytest.raises(ValueError, match=re.escape(first)):
        ek.FiniteMetricSpace(list(range(n)), dist)


def test_json_round_trip(tmp_path):
    space = ek.FiniteMetricSpace.circle(5)
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space.to_json()))
    back = ek.FiniteMetricSpace.from_file(path)
    assert back.points == space.points
    assert np.array_equal(back.dist, space.dist)


# -- covering -----------------------------------------------------------


def test_cover_line3_unit_radius():
    line3 = ek.FiniteMetricSpace.line(3)
    res = ek.exact_covering_number(line3, 1.0)
    assert res.count == 1 and res.centers == (1,)


def test_cover_at_diameter_is_one():
    for space in (ek.FiniteMetricSpace.line(5), ek.FiniteMetricSpace.circle(7)):
        assert ek.exact_covering_number(space, space.diameter).count == 1


def test_cover_line4_half_radius():
    line4 = ek.FiniteMetricSpace.line(4)
    assert ek.exact_covering_number(line4, 0.5).count == 4


def test_cover_matches_brute_force_on_random_instances():
    rng = stream(101, 6)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        space = ek.FiniteMetricSpace.from_coords(rng.uniform(0, 1, (n, 2)))
        eps = float(rng.uniform(0.1, 0.8))
        got = ek.exact_covering_number(space, eps).count
        assert got == brute_cover(space, eps)


def test_cover_with_proper_subset_and_outside_centers():
    rng = stream(303, 6)
    for _ in range(10):
        n = int(rng.integers(5, 9))
        space = ek.FiniteMetricSpace.from_coords(rng.uniform(0, 1, (n, 2)))
        subset = list(range(0, n, 2))
        eps = float(rng.uniform(0.15, 0.6))
        got = ek.exact_covering_number(space, eps, subset=subset)
        assert got.count == brute_cover(space, eps, subset=subset)
        for p in subset:  # returned centers really cover the subset
            assert any(space.dist[c, p] <= eps for c in got.centers)


def test_duplicate_points_are_handled():
    # zero distance between distinct indices is legal and collapses covers
    coords = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    space = ek.FiniteMetricSpace.from_coords(coords)
    assert ek.exact_covering_number(space, 0.5).count == 2
    assert ek.exact_packing_number(space, 0.5).count == 2
    assert ek.sandwich_check(space, 0.3).holds


def test_cover_size_limit():
    space = ek.FiniteMetricSpace.line(21)
    with pytest.raises(ek.SizeLimitExceeded):
        ek.exact_covering_number(space, 1.0)


def test_greedy_cover_valid_and_dominates_exact():
    rng = stream(55, 6)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        space = ek.FiniteMetricSpace.from_coords(rng.uniform(0, 1, (n, 2)))
        eps = float(rng.uniform(0.1, 0.7))
        greedy = ek.greedy_covering(space, eps)
        # cover validity
        for p in range(n):
            assert any(space.dist[c, p] <= eps for c in greedy.centers)
        assert greedy.count >= ek.exact_covering_number(space, eps).count


def test_greedy_cover_trivia():
    line3 = ek.FiniteMetricSpace.line(3)
    assert ek.greedy_covering(line3, 1.0).count in (1, 2)
    assert ek.greedy_covering(line3, line3.diameter).count == 1
    assert ek.greedy_covering(line3, 0.5, subset=[1]).count == 1


# -- packing ------------------------------------------------------------


def test_pack_line3():
    line3 = ek.FiniteMetricSpace.line(3)
    assert ek.exact_packing_number(line3, 1.0).count == 3
    assert ek.exact_packing_number(line3, 3.0).count == 1


def test_pack_below_min_distance_keeps_all():
    space = ek.FiniteMetricSpace.circle(6)
    min_positive = np.min(space.dist[space.dist > 0])
    assert ek.exact_packing_number(space, min_positive / 2).count == space.n


def test_pack_matches_brute_force():
    rng = stream(77, 6)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        space = ek.FiniteMetricSpace.from_coords(rng.uniform(0, 1, (n, 2)))
        eps = float(rng.uniform(0.1, 0.8))
        assert ek.exact_packing_number(space, eps).count == brute_pack(space, eps)


def test_greedy_packing_below_exact():
    rng = stream(78, 6)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        space = ek.FiniteMetricSpace.from_coords(rng.uniform(0, 1, (n, 2)))
        eps = float(rng.uniform(0.1, 0.8))
        greedy = ek.greedy_packing(space, eps)
        for a, b in itertools.combinations(greedy.members, 2):
            assert space.dist[a, b] >= eps
        assert greedy.count <= ek.exact_packing_number(space, eps).count


# -- sandwich and monotonicity -------------------------------------------


def test_sandwich_line3():
    rep = ek.sandwich_check(ek.FiniteMetricSpace.line(3), 1.0)
    assert (rep.m_3eps, rep.n_eps, rep.m_eps) == (1, 1, 3)
    assert rep.holds


def test_sandwich_above_diameter():
    space = ek.FiniteMetricSpace.circle(5)
    rep = ek.sandwich_check(space, space.diameter * 1.000001)
    assert (rep.m_3eps, rep.n_eps, rep.m_eps) == (1, 1, 1)
    # at eps = diameter exactly, a tie pair still counts as separated
    at_diam = ek.sandwich_check(space, space.diameter)
    assert at_diam.n_eps == 1 and at_diam.holds


def test_sandwich_random_square_instance():
    rng = stream(7, 6)
    space = ek.FiniteMetricSpace.from_coords(rng.uniform(0, 1, (10, 2)))
    assert ek.sandwich_check(space, 0.3).holds


def test_monotonicity_in_eps():
    rng = stream(13, 6)
    space = ek.FiniteMetricSpace.from_coords(rng.uniform(0, 1, (8, 2)))
    ladder = [0.1, 0.2, 0.3, 0.5, 0.8]
    covers = [ek.exact_covering_number(space, e).count for e in ladder]
    packs = [ek.exact_packing_number(space, e).count for e in ladder]
    assert covers == sorted(covers, reverse=True)
    assert packs == sorted(packs, reverse=True)


@st.composite
def _small_instances(draw):
    """(space, eps, subset): at most 7 points on a small integer grid, so
    duplicates and distance ties are common, and eps often a distance."""
    n = draw(st.integers(1, 7), label="n")
    coords = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                           min_size=n, max_size=n), label="coords")
    metric = draw(st.sampled_from(["euclidean", "chebyshev"]), label="metric")
    space = ek.FiniteMetricSpace.from_coords(coords, metric=metric)
    positive = sorted(set(space.dist[space.dist > 0].tolist())) or [1.0]
    eps = draw(st.one_of(st.sampled_from(positive),
                         st.floats(0.05, 6.0)), label="eps")
    subset = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True),
                  label="subset")
    return space, eps, sorted(subset)


@given(_small_instances())
def test_sandwich_and_code_length_match_enumeration(instance):
    space, eps, subset = instance
    rep = ek.sandwich_check(space, eps, subset)
    assert rep.holds
    assert rep.m_3eps == brute_pack(space, 3 * eps, subset)
    assert rep.n_eps == brute_cover(space, eps, subset)
    assert rep.m_eps == brute_pack(space, eps, subset)
    assert (ek.minimax_code_length(space, eps, subset)
            == brute_code_length(space, eps, subset))
    assert (ek.minimax_code_length(space, eps, subset, decoder="restricted")
            == brute_code_length(space, eps, subset, ambient=subset))


# -- minimax code length ---------------------------------------------------


def test_code_length_three_ball_instance():
    # line of 3 points at radius 0.5: each ball covers one point, N = 3
    line3 = ek.FiniteMetricSpace.line(3)
    assert ek.exact_covering_number(line3, 0.5).count == 3
    assert ek.minimax_code_length(line3, 0.5) == 2
    assert brute_code_length(line3, 0.5) == 2


def test_code_length_constant_decoder():
    line3 = ek.FiniteMetricSpace.line(3)
    assert ek.minimax_code_length(line3, line3.diameter) == 0


def test_code_length_line4():
    line4 = ek.FiniteMetricSpace.line(4)
    assert ek.exact_covering_number(line4, 0.5).count == 4
    assert ek.minimax_code_length(line4, 0.5) == 2
    assert brute_code_length(line4, 0.5) == 2


def test_code_length_lower_bounded_by_entropy():
    rng = stream(23, 6)
    for _ in range(10):
        space = ek.FiniteMetricSpace.from_coords(rng.uniform(0, 1, (7, 2)))
        eps = float(rng.uniform(0.1, 0.6))
        rep = ek.code_length_report(space, eps)
        assert rep["B"] >= rep["H"] - 1e-12
        assert rep["B"] == (rep["N"] - 1).bit_length()
        # restricting the decoder image can only increase the bit count
        assert rep["B_restricted"] >= rep["B"]


# -- dictionary minimax error ----------------------------------------------


def _functional(ids, values):
    return ek.SampledFunctional(tuple(ids), np.asarray(values, dtype=float))


def test_dictionary_self_approximation():
    ids = ("a", "b", "c")
    fam = [_functional(ids, v) for v in ([0, 1, 2], [1, 1, 1], [2, 0, 1])]
    assert ek.dictionary_minimax_error(fam, fam) == 0.0


def test_dictionary_constant_shift():
    ids = (0, 1, 2, 3)
    f = _functional(ids, [0.1, 0.4, -0.2, 0.0])
    g = _functional(ids, np.asarray([0.1, 0.4, -0.2, 0.0]) + 0.25)
    assert ek.dictionary_minimax_error([f], [g]) == pytest.approx(0.25)


def test_dictionary_hat_family_vs_zero():
    space = ek.FiniteMetricSpace.line(2)
    fam = ek.build_hat_family(space, 1 / 6)
    ids = tuple(space.points)
    targets = [fam.member_functional([s >> 0 & 1, s >> 1 & 1]) for s in range(4)]
    zero = _functional(ids, [0.0, 0.0])
    err = ek.dictionary_minimax_error(targets, [zero])
    assert err == pytest.approx(3 * fam.eps)


def test_dictionary_monotone_under_enlargement():
    ids = (0, 1)
    targets = [_functional(ids, [1.0, 0.0]), _functional(ids, [0.0, 1.0])]
    small = [_functional(ids, [0.0, 0.0])]
    large = small + [_functional(ids, [1.0, 0.0])]
    assert (ek.dictionary_minimax_error(targets, large)
            <= ek.dictionary_minimax_error(targets, small))


def test_dictionary_sample_mismatch():
    with pytest.raises(ek.SampleMismatch):
        ek.dictionary_minimax_error([_functional((0, 1), [0, 0])],
                                    [_functional((0, 2), [0, 0])])


def test_dictionary_array_must_hold_rows_of_the_sample_ids():
    targets = [_functional((0, 1, 2), [0.0, 1.0, 2.0])]
    for bad in (np.zeros(3), np.zeros((4, 2)), np.zeros((2, 3, 1))):
        with pytest.raises(ek.SampleMismatch, match="does not hold"):
            ek.dictionary_minimax_error(targets, bad)
    with pytest.raises(ValueError, match="nonempty"):
        ek.dictionary_minimax_error(targets, np.zeros((0, 3)))
    with pytest.raises(ek.SampleMismatch):
        ek.dictionary_minimax_error(
            targets + [_functional((0, 1, 3), [0, 0, 0])], np.zeros((1, 3)))
    assert ek.dictionary_minimax_error(
        targets, np.array([[0, 1, 3], [1, 1, 2]])) == 1.0


def test_lp_sample_norm():
    norm = ek.LpSampleNorm(2, (0.5, 0.5))
    f = _functional((0, 1), [1.0, 0.0])
    g = _functional((0, 1), [0.0, 0.0])
    assert ek.dictionary_minimax_error([f], [g], norm) == pytest.approx(math.sqrt(0.5))


def _per_row_minimax(targets, dictionary, dist):
    """The per-row loop that one vectorised minimum per target replaced."""
    worst = 0.0
    for f in targets:
        worst = max(worst, min(dist(f.values - g.values) for g in dictionary))
    return worst


@pytest.mark.parametrize("seed", range(20))
def test_dictionary_minimax_matches_per_row_loop(seed):
    rng = stream(seed, 9)
    s = int(rng.integers(1, 6))
    ids = tuple(range(s))
    targets = [_functional(ids, rng.normal(size=s))
               for _ in range(int(rng.integers(1, 5)))]
    dictionary = [_functional(ids, rng.normal(size=s))
                  for _ in range(int(rng.integers(1, 300)))]
    sup = _per_row_minimax(targets, dictionary,
                           lambda d: float(np.max(np.abs(d))))
    assert ek.dictionary_minimax_error(targets, dictionary) == sup
    # the same dictionary as one array, a row per functional
    rows = np.array([g.values for g in dictionary])
    assert ek.dictionary_minimax_error(targets, rows) == sup
    w = rng.uniform(0.1, 1.0, s)
    w /= w.sum()
    p = 2.0 if seed % 2 else float(rng.uniform(1.0, 4.0))
    lp = _per_row_minimax(targets, dictionary,
                          lambda d: float(np.sum(w * np.abs(d) ** p) ** (1 / p)))
    # array and scalar power may differ in the last bit
    assert ek.dictionary_minimax_error(targets, dictionary,
                                       ek.LpSampleNorm(p, tuple(w))) \
        == pytest.approx(lp, rel=1e-15, abs=0)
