"""Covering/packing oracles checked against independent brute-force search."""

import hashlib
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


def _random_instance(rng, n, grid):
    """(space, eps): uniform points in the unit square with a uniform eps,
    or an integer Chebyshev grid, full of duplicates and distance ties,
    with eps one of its distances."""
    if not grid:
        space = ek.FiniteMetricSpace.from_coords(rng.uniform(0, 1, (n, 2)))
        return space, float(rng.uniform(0.1, 0.8))
    space = ek.FiniteMetricSpace.from_coords(rng.integers(0, 4, (n, 2)),
                                             metric="chebyshev")
    return space, float(rng.integers(1, 4))


def test_cover_matches_brute_force_on_random_instances():
    rng = stream(101, 6)
    for i in range(40):
        space, eps = _random_instance(rng, int(rng.integers(3, 9)), i >= 20)
        got = ek.exact_covering_number(space, eps)
        assert got.count == brute_cover(space, eps)
        for p in range(space.n):
            assert any(space.dist[c, p] <= eps for c in got.centers)


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


def test_greedy_cover_breaks_ties_by_lowest_index():
    # on a line of 4 at radius 1, centers 1 and 2 each cover three points;
    # 1 goes first, then 2 and 3 tie on the last point and 2 goes
    line4 = ek.FiniteMetricSpace.line(4)
    assert ek.greedy_covering(line4, 1.0).centers == (1, 2)
    assert ek.greedy_covering(line4, 1.0, ambient=[3, 2, 1, 0]).centers == (1, 2)
    assert ek.greedy_covering(line4, 1.0, subset=[3], ambient=[1, 2, 3]).centers == (2,)


def _reference_greedy_cover(space, eps, subset, ambient):
    """One numpy argmax per pick over the ball matrix."""
    covered_by = space.dist[np.ix_(ambient, subset)] <= eps
    uncovered = np.ones(len(subset), dtype=bool)
    centers = []
    while uncovered.any():
        pick = int(np.argmax((covered_by & uncovered).sum(axis=1)))
        centers.append(ambient[pick])
        uncovered &= ~covered_by[pick]
    return tuple(centers)


def _reference_first_fit(space, eps, subset):
    members = []
    for i in subset:
        if all(space.dist[i, j] >= eps for j in members):
            members.append(i)
    return tuple(members)


@pytest.mark.parametrize("n", [9, 62, 63, 90])
def test_greedy_witnesses_match_a_per_pair_scan_on_tied_grids(n):
    # widths on both sides of a 64-bit word
    rng = stream(n, 6)
    for _ in range(10):
        space, eps = _random_instance(rng, n, grid=True)
        every = list(range(n))
        subset = sorted(rng.choice(n, int(rng.integers(1, n + 1)),
                                   replace=False).tolist())
        for sub in (every, subset):
            assert (ek.greedy_covering(space, eps, sub).centers
                    == _reference_greedy_cover(space, eps, sub, every))
            assert (ek.greedy_packing(space, eps, sub).members
                    == _reference_first_fit(space, eps, sub))


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
    for i in range(40):
        space, eps = _random_instance(rng, int(rng.integers(3, 9)), i >= 20)
        got = ek.exact_packing_number(space, eps)
        assert got.count == brute_pack(space, eps)
        for a, b in itertools.combinations(got.members, 2):
            assert space.dist[a, b] >= eps


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


# -- pinned witnesses ------------------------------------------------------


def _witness_spaces(seed, count, sizes):
    """(space, eps, subset, ambient) drawn from a seeded stream: Euclidean
    points in 1-3 dims and integer Chebyshev grids, whose distances tie
    often; eps is either one of the distances or a uniform draw, and
    every second instance carries a random subset inside a random
    ambient set."""
    rng = stream(seed, 6)
    for i in range(count):
        n = int(rng.integers(sizes[0], sizes[1] + 1))
        if i % 4 < 3:
            space = ek.FiniteMetricSpace.from_coords(
                rng.uniform(0, 1, (n, i % 4 + 1)))
        else:
            space = ek.FiniteMetricSpace.from_coords(
                rng.integers(0, 4, (n, 2)), metric="chebyshev")
        positive = np.unique(space.dist[space.dist > 0])
        if positive.size and i % 3:
            eps = float(positive[rng.integers(0, positive.size)])
        else:
            eps = float(rng.uniform(0.05, 1.5))
        subset = ambient = None
        if i % 2:
            ambient = sorted(rng.choice(n, int(rng.integers(1, n + 1)),
                                        replace=False).tolist())
            subset = sorted(rng.choice(ambient, int(rng.integers(1, len(ambient) + 1)),
                                       replace=False).tolist())
        yield space, eps, subset, ambient


def _digest(records):
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


# sha256 of every solver's output on the instances above; a value
# changes only with a stated reason
EXACT_WITNESS_SHA256 = "66782be4cd8233f7cbbd7edb935eaad0a9971780b3243bcfda2f826ac4f76fd9"
WIDE_GREEDY_SHA256 = "30995dc0194cf397331b366a1b99725ec98bcdf223f3fd4207faa43188929657"


def test_solver_witnesses_are_pinned():
    records = []
    for space, eps, subset, ambient in _witness_spaces(131, 320, (2, 18)):
        cover = ek.exact_covering_number(space, eps, subset, ambient)
        records.append([
            eps, cover.centers,
            ek.exact_packing_number(space, eps, subset).members,
            ek.exact_packing_number(space, 3 * eps, subset).members,
            ek.greedy_covering(space, eps, subset, ambient).centers,
            ek.greedy_packing(space, eps, subset).members,
            ek.code_length_report(space, eps, subset, ambient)])
    assert _digest(records) == EXACT_WITNESS_SHA256


def test_greedy_witnesses_on_wide_spaces_are_pinned():
    records = []
    for size in (70, 100):
        for space, eps, subset, ambient in _witness_spaces(size, 8, (size, size)):
            records.append([
                eps, ek.greedy_covering(space, eps, subset, ambient).centers,
                ek.greedy_packing(space, eps, subset).members])
    assert _digest(records) == WIDE_GREEDY_SHA256


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


def test_code_length_report_covers_once_when_the_decoders_agree(monkeypatch):
    covers = []
    exact = ek.metricspace.exact_covering_number

    def counted(*args):
        covers.append(args[2:])
        return exact(*args)

    monkeypatch.setattr(ek.metricspace, "exact_covering_number", counted)
    line5 = ek.FiniteMetricSpace.line(5)
    assert ek.code_length_report(line5, 1.0)["B_restricted"] == 1
    assert len(covers) == 1
    covers.clear()
    assert ek.code_length_report(line5, 2.0, subset=[1, 3], ambient=[3, 1])[
        "B_restricted"] == 0
    assert len(covers) == 1
    covers.clear()
    # centers 2 (ambient) and {0, 4} (restricted) cover the ends
    rep = ek.code_length_report(line5, 2.0, subset=[0, 4])
    assert (rep["B"], rep["B_restricted"]) == (0, 1)
    assert covers == [([0, 4], [0, 1, 2, 3, 4]), ([0, 4], [0, 4])]


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
