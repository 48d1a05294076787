"""Covering/packing oracles checked against independent brute-force search."""

import hashlib
import itertools
import json
import math
import re
import tracemalloc

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


@pytest.mark.parametrize("seed", range(6))
def test_triangle_message_equals_a_scan_over_k(seed):
    # up to 200 points check k in up to eight blocks; the message, distances
    # included, is the one a scan over every k writes
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 200))
    x = rng.uniform(size=(n, 2))
    dist = np.sqrt(((x[:, None] - x[None]) ** 2).sum(-1))
    for i, j in rng.choice(n, (3, 2)):
        dist[i, j] = dist[j, i] = dist[i, j] * rng.uniform(1.5, 4.0)
    expected = None
    for k in range(n):
        bound = dist[:, k][:, None] + dist[k, :][None, :]
        slack = dist - bound * (1.0 + ek.metricspace.TRIANGLE_RTOL)
        if np.max(slack) > 0:
            i, j = np.unravel_index(np.argmax(slack), slack.shape)
            expected = (f"triangle inequality violated for ({i}, {j}, {k}): "
                        f"d={dist[i, j]} > {dist[i, k] + dist[k, j]}")
            break
    assert expected is not None
    with pytest.raises(ValueError) as err:
        ek.FiniteMetricSpace(list(range(n)), dist)
    assert str(err.value) == expected


def test_json_round_trip(tmp_path):
    space = ek.FiniteMetricSpace.circle(5)
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space.to_json()))
    back = ek.FiniteMetricSpace.from_file(path)
    assert back.points == space.points
    assert np.array_equal(back.dist, space.dist)


def _round_trip(space, tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space.to_json()))
    return ek.FiniteMetricSpace.from_file(path)


def _collinear(scale, direction, metric):
    t = np.arange(30)[:, None] / 29
    return ek.FiniteMetricSpace.from_coords(
        scale * t * np.array(direction) / 3, metric=metric)


@pytest.mark.parametrize("make", [
    lambda: ek.FiniteMetricSpace.line(50, spacing=1e5 / 3),
    lambda: _collinear(1e4, [1.0, 2.0, 3.0], "euclidean"),
    lambda: _collinear(1e6, [0.6, 0.8], "chebyshev"),
], ids=["line-1e5/3", "collinear-euclidean-1e4", "collinear-chebyshev-1e6"])
def test_files_of_library_built_spaces_load(tmp_path, make):
    # each breaks the triangle inequality by rounding by more than an
    # absolute 1e-12, but within the relative slack
    space = make()
    back = _round_trip(space, tmp_path)
    assert back.points == space.points
    assert np.array_equal(back.dist, space.dist)


def test_violation_at_tiny_scale_is_rejected(tmp_path):
    # every side is far below an absolute slack of 1e-12
    tiny = {"points": [0, 1, 2],
            "dist": [[0.0, 1e-300, 3e-300], [1e-300, 0.0, 1e-300],
                     [3e-300, 1e-300, 0.0]]}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny))
    with pytest.raises(ek.ConfigError, match=r"violated for \(0, 2, 1\)"):
        ek.FiniteMetricSpace.from_file(path)


@pytest.mark.parametrize("scale", [1e-300, 1e-6, 1.0, 1e9, 1e300])
def test_triangle_slack_is_relative(scale):
    def space(excess):
        d = scale * (2 + excess)
        return ek.FiniteMetricSpace(
            [0, 1, 2], [[0.0, scale, d], [scale, 0.0, scale], [d, scale, 0.0]])

    space(0.5 * ek.metricspace.TRIANGLE_RTOL)
    with pytest.raises(ValueError, match="triangle"):
        space(4 * ek.metricspace.TRIANGLE_RTOL)


@st.composite
def _tied_spaces(draw):
    """(points, dist, eps): integer Chebyshev distances times eps, so many
    pairs sit at eps or 3 eps, each pair apart then moved by at most 4
    units in the last place."""
    n = draw(st.integers(1, 7), label="n")
    coords = np.array(draw(st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        min_size=n, max_size=n), label="coords"))
    eps = draw(st.sampled_from([1.0, 0.1, 1 / 3, 1e5 / 3, 1e-300, 7e300 / 3]),
               label="eps")
    hops = np.max(np.abs(coords[:, None, :] - coords[None, :, :]), axis=-1)
    dist = eps * hops
    for i, j in zip(*np.nonzero(np.triu(hops))):
        ulps = draw(st.integers(-4, 4), label="ulps")
        for _ in range(abs(ulps)):
            dist[i, j] = np.nextafter(dist[i, j], np.inf * ulps)
        dist[j, i] = dist[i, j]
    return list(range(n)), dist, eps


@given(_tied_spaces())
def test_sandwich_holds_on_accepted_spaces_at_ties(instance):
    # the proof of M(3 eps) <= N(eps) needs the triangle inequality only
    # up to a slack of eps, so no space the relative check accepts breaks it
    points, dist, eps = instance
    try:
        space = ek.FiniteMetricSpace(points, dist)
    except ValueError:
        return  # a move of a few ulps may break a triangle beyond the slack
    rep = ek.sandwich_check(space, eps)
    assert rep.holds
    assert rep.m_3eps == brute_pack(space, 3 * eps)
    assert rep.n_eps == brute_cover(space, eps)
    assert rep.m_eps == brute_pack(space, eps)


def test_unmoved_tied_spaces_are_accepted():
    coords = np.array(list(itertools.product(range(4), range(4))))
    hops = np.max(np.abs(coords[:, None, :] - coords[None, :, :]), axis=-1)
    for eps in (1.0, 0.1, 1 / 3, 1e5 / 3, 1e-300, 7e300 / 3):
        ek.FiniteMetricSpace(list(range(len(coords))), eps * hops)


@st.composite
def _constructed_spaces(draw):
    """A space from from_coords (either metric, 1-3 dims, coordinate
    scales 1e-6 to 1e9, some sets collinear), line or circle."""
    kind = draw(st.sampled_from(["coords", "collinear", "line", "circle"]),
                label="kind")
    scale = 10.0 ** draw(st.integers(-6, 9), label="log10 scale")
    if kind in ("line", "circle"):
        n = draw(st.integers(1, 40), label="n")
        size = scale * draw(st.floats(0.01, 100.0), label="size")
        return (ek.FiniteMetricSpace.line(n, size) if kind == "line"
                else ek.FiniteMetricSpace.circle(n, size))
    dim = draw(st.integers(1, 3), label="dim")
    n = draw(st.integers(1, 12), label="n")
    # no two coordinates nearer than about 1e-25, far above where a
    # Euclidean square leaves the normal range
    unit = st.one_of(st.just(0.0), st.floats(-1.0, -1e-3), st.floats(1e-3, 1.0))
    if kind == "coords":
        coords = np.array(draw(st.lists(st.lists(unit, min_size=dim, max_size=dim),
                                        min_size=n, max_size=n), label="coords"))
    else:
        origin = np.array(draw(st.lists(unit, min_size=dim, max_size=dim)))
        direction = np.array(draw(st.lists(unit, min_size=dim, max_size=dim)))
        steps = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
        coords = origin + steps[:, None] * direction
    metric = draw(st.sampled_from(["euclidean", "chebyshev"]), label="metric")
    return ek.FiniteMetricSpace.from_coords(scale * coords, metric=metric)


@given(_constructed_spaces())
def test_constructed_spaces_pass_the_full_check(space):
    checked = ek.FiniteMetricSpace(space.points, space.dist)
    assert np.array_equal(checked.dist, space.dist)
    assert not space.dist.flags.writeable


@pytest.mark.parametrize("make", [ek.FiniteMetricSpace.line,
                                  ek.FiniteMetricSpace.circle])
@pytest.mark.parametrize("size", [0, 0.0, -1.0, -2.0, math.nan, math.inf,
                                  -math.inf])
def test_line_and_circle_refuse_sizes_that_are_not_positive_and_finite(make, size):
    with pytest.raises(ValueError, match="must be positive and finite"):
        make(5, size)


@pytest.mark.parametrize("make", [ek.FiniteMetricSpace.line,
                                  ek.FiniteMetricSpace.circle])
@pytest.mark.parametrize("n", [0, -3])
def test_line_and_circle_need_a_point(make, n):
    with pytest.raises(ValueError, match="n must be positive"):
        make(n, 1.0)


@pytest.mark.parametrize("make,matrices", [
    (ek.FiniteMetricSpace.line, 2), (ek.FiniteMetricSpace.circle, 3),
    (lambda n: ek.FiniteMetricSpace.from_coords(np.linspace(0, 1, n)), 3),
    (lambda n: ek.FiniteMetricSpace.from_coords(
        np.linspace(0, 1, 3 * n).reshape(n, 3), metric="chebyshev"), 7)],
    ids=["line", "circle", "coords-1d", "coords-3d-chebyshev"])
def test_space_budget_counts_every_square_temporary(monkeypatch, make,
                                                    matrices):
    # the budget counts the n x n arrays a constructor holds at its peak
    n = 400
    tracemalloc.start()
    try:
        make(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrices <= peak / (8 * n * n) < matrices + 0.05
    monkeypatch.setattr(ek.metricspace, "SPACE_BYTE_BUDGET",
                        8 * n * n * matrices)
    assert make(n).n == n
    with pytest.raises(ek.SizeLimitExceeded, match=f"^{n + 1} points hold "):
        make(n + 1)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("metric", ["euclidean", "chebyshev"])
@pytest.mark.parametrize("coords", [
    [[0.0, 0.0], [math.nan, 1.0]], [[math.inf, 0.0], [0.0, 1.0]],
    [[-math.inf]], [[1e308], [-1e308]]])
def test_from_coords_refuses_non_finite_input_and_overflow(coords, metric):
    with pytest.raises(ValueError, match="non-finite"):
        ek.FiniteMetricSpace.from_coords(coords, metric=metric)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_euclidean_from_coords_refuses_squares_that_overflow():
    with pytest.raises(ValueError, match="non-finite"):
        ek.FiniteMetricSpace.from_coords([[0.0, 0.0], [1e200, 1e200]])


def test_from_coords_checks_pairs_too_near_for_relative_rounding():
    # 2^-538 squares to below the least subnormal, so that pair reads as
    # 0 apart and the third side exceeds the other two by 2^-38 of itself
    coords = [[0.0], [2.0**-538], [2.0**-500 + 2.0**-538]]
    with pytest.raises(ValueError, match="triangle"):
        ek.FiniteMetricSpace.from_coords(coords)
    # repeated points are exactly 0 apart and need no check
    space = ek.FiniteMetricSpace.from_coords([[0.5, 0.5], [1.0, 0.0], [0.5, 0.5]])
    assert space.dist[0, 2] == 0.0



def test_flat_coords_are_one_coordinate_per_point():
    space = ek.FiniteMetricSpace.from_coords([0.0, 1.0, 2.0])
    assert space.n == 3
    assert space.dist.tobytes() == ek.FiniteMetricSpace.line(3).dist.tobytes()
    for metric in ("euclidean", "chebyshev"):
        assert (ek.FiniteMetricSpace.from_coords([0.5, -2.0], metric=metric)
                .dist.tobytes()
                == ek.FiniteMetricSpace.from_coords([[0.5], [-2.0]],
                                                    metric=metric)
                .dist.tobytes())


@pytest.mark.parametrize("coords", [1.0, [[[0.0]], [[1.0]]]])
def test_from_coords_refuses_other_ranks(coords):
    with pytest.raises(ValueError, match="one row per point"):
        ek.FiniteMetricSpace.from_coords(coords)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_space_files_refuse_non_finite_constants(tmp_path, constant):
    path = tmp_path / "space.json"
    path.write_text('{"points": [0, 1], "dist": [[0.0, %s], [1.0, 0.0]]}'
                    % constant)
    with pytest.raises(ek.ConfigError,
                       match=re.escape(f"{path}: not valid JSON: {constant}")):
        ek.FiniteMetricSpace.from_file(path)


# -- covering -----------------------------------------------------------


def test_cover_line3_unit_radius():
    line3 = ek.FiniteMetricSpace.line(3)
    res = ek.exact_covering_number(line3, 1.0)
    assert res.count == 1 and res.centers == (1,)


def test_cover_at_diameter_is_one():
    for space in (ek.FiniteMetricSpace.line(5), ek.FiniteMetricSpace.circle(7)):
        diameter = float(np.max(space.dist))
        assert ek.exact_covering_number(space, diameter).count == 1


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



@pytest.mark.parametrize("oracle", [
    ek.exact_covering_number, ek.greedy_covering,
    ek.exact_packing_number, ek.greedy_packing])
@pytest.mark.parametrize("subset", [[5], [-1], [0, 3]])
def test_indices_outside_the_space_are_refused(oracle, subset):
    # [5] used to raise numpy's IndexError, [-1] to read as point 2
    with pytest.raises(ValueError, match=r"range\(3\)"):
        oracle(ek.FiniteMetricSpace.line(3), 0.5, subset=subset)


@pytest.mark.parametrize("oracle", [ek.exact_covering_number,
                                    ek.greedy_covering])
@pytest.mark.parametrize("subset,ambient", [([5], [5]), ([-1], [-1, 0]),
                                            ([0], [0, 3])])
def test_ambient_indices_outside_the_space_are_refused(oracle, subset,
                                                       ambient):
    with pytest.raises(ValueError, match=r"range\(3\)"):
        oracle(ek.FiniteMetricSpace.line(3), 0.5, subset=subset,
               ambient=ambient)

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


def test_pack_size_limit():
    space = ek.FiniteMetricSpace.line(21)
    with pytest.raises(ek.SizeLimitExceeded, match="exact packing limited"):
        ek.exact_packing_number(space, 1.0)


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
    assert ek.greedy_covering(line3, float(np.max(line3.dist))).count == 1
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


def _packbits_reference(rows):
    """Row bitmasks through packbits, a byte string and int.from_bytes."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def test_bitmasks_match_packbits():
    # every width from 1 to 130 crosses the 63-column chunks (62, 63, 64,
    # 126, 127) and the 8-bit bytes of packbits
    rng = stream(130, 6)
    for width in range(1, 131):
        rows = rng.random((7, width)) < rng.uniform(0.05, 0.95)
        rows[0] = True  # every bit of the widest mask
        rows[1] = False
        assert ek.metricspace._bitmasks(rows) == _packbits_reference(rows), width


def _conflict_ints(space, eps):
    """Conflict masks read off the distances one pair at a time."""
    return [sum(1 << j for j in range(space.n) if j != i and space.dist[i, j] < eps)
            for i in range(space.n)]


def _max_separated_by_enumeration(space, eps):
    """Largest separated set size over all 2^n subsets, vectorised."""
    adj = _conflict_ints(space, eps)
    subsets = np.arange(1 << space.n, dtype=np.int64)
    separated = np.ones(subsets.shape, dtype=bool)
    for i, nbrs in enumerate(adj):
        separated &= ~((subsets >> i & 1).astype(bool) & (subsets & nbrs != 0))
    return int(np.max(np.bitwise_count(subsets[separated])))


def _popcount_only_search(adj):
    """The exact packing search bounded by the candidate count alone, with
    its node count: the first maximum set in include-lowest-first order."""
    best, nodes = ek.metricspace._first_fit(adj), 0

    def recurse(candidates, chosen):
        nonlocal best, nodes
        nodes += 1
        if not candidates:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        if len(chosen) + candidates.bit_count() <= len(best):
            return
        v = (candidates & -candidates).bit_length() - 1
        recurse(candidates & ~(1 << v) & ~adj[v], chosen + [v])
        recurse(candidates & ~(1 << v), chosen)

    recurse((1 << len(adj)) - 1, [])
    return best, nodes


def _packing_spaces(seed, count, max_n):
    """(space, eps): Euclidean points in 1-3 dims, integer Chebyshev grids,
    lines and circles, with eps at a quantile of the distances or a
    multiple of the line's spacing."""
    rng = stream(seed, 6)
    for i in range(count):
        n = int(rng.integers(2, max_n + 1))
        kind = i % 5
        if kind < 3:
            space = ek.FiniteMetricSpace.from_coords(rng.uniform(0, 1, (n, kind + 1)))
        elif kind == 3:
            space = ek.FiniteMetricSpace.from_coords(
                rng.integers(0, 5, (n, 2)), metric="chebyshev")
        else:
            space = (ek.FiniteMetricSpace.line(n, 0.5) if i % 2
                     else ek.FiniteMetricSpace.circle(n))
        positive = space.dist[space.dist > 0]
        eps = (float(np.quantile(positive, rng.uniform(0.05, 0.9)))
               if positive.size else 1.0)
        yield space, eps


def test_exact_packing_matches_enumeration_up_to_14_points():
    for space, eps in _packing_spaces(141, 60, 14):
        got = ek.exact_packing_number(space, eps)
        assert got.count == _max_separated_by_enumeration(space, eps)
        for a, b in itertools.combinations(got.members, 2):
            assert space.dist[a, b] >= eps


def test_clique_bound_keeps_the_witness_and_never_adds_nodes():
    fewer = 0
    for space, eps in _packing_spaces(201, 120, 20):
        adj = ek.metricspace._conflict_masks(space, list(range(space.n)), eps)
        assert adj == _conflict_ints(space, eps)
        best, nodes = ek.metricspace._max_separated(adj)
        ref_best, ref_nodes = _popcount_only_search(adj)
        assert best == ref_best
        assert nodes <= ref_nodes
        fewer += nodes < ref_nodes
    assert fewer >= 100, fewer  # 104 of 120 when the bound landed


# -- sandwich and monotonicity -------------------------------------------


def test_sandwich_line3():
    rep = ek.sandwich_check(ek.FiniteMetricSpace.line(3), 1.0)
    assert (rep.m_3eps, rep.n_eps, rep.m_eps) == (1, 1, 3)
    assert rep.holds


def test_sandwich_above_diameter():
    space = ek.FiniteMetricSpace.circle(5)
    rep = ek.sandwich_check(space, float(np.max(space.dist)) * 1.000001)
    assert (rep.m_3eps, rep.n_eps, rep.m_eps) == (1, 1, 1)
    # at eps = diameter exactly, a tie pair still counts as separated
    at_diam = ek.sandwich_check(space, float(np.max(space.dist)))
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
    assert ek.minimax_code_length(line3, float(np.max(line3.dist))) == 0


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


def test_dictionary_self_approximation():
    fam = np.array([[0, 1, 2], [1, 1, 1], [2, 0, 1]], dtype=float)
    assert ek.dictionary_minimax_error(fam, fam) == 0.0


def test_dictionary_constant_shift():
    f = np.array([[0.1, 0.4, -0.2, 0.0]])
    assert ek.dictionary_minimax_error(f, f + 0.25) == pytest.approx(0.25)


def test_dictionary_hat_family_vs_zero():
    space = ek.FiniteMetricSpace.line(2)
    fam = ek.build_hat_family(space, 1 / 6)
    targets = [fam.member([s >> 0 & 1, s >> 1 & 1]) for s in range(4)]
    err = ek.dictionary_minimax_error(targets, np.zeros((1, space.n)))
    assert err == pytest.approx(3 * fam.eps)


def test_dictionary_monotone_under_enlargement():
    targets = np.array([[1.0, 0.0], [0.0, 1.0]])
    small = np.array([[0.0, 0.0]])
    large = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert (ek.dictionary_minimax_error(targets, large)
            <= ek.dictionary_minimax_error(targets, small))


def test_dictionary_sample_mismatch():
    with pytest.raises(ek.SampleMismatch,
                       match="targets of 3 samples against a dictionary of 2"):
        ek.dictionary_minimax_error(np.zeros((1, 3)), np.zeros((4, 2)))


def test_dictionary_array_must_hold_rows_of_the_sample_ids():
    targets = np.array([[0.0, 1.0, 2.0]])
    for bad in (np.zeros(3), np.zeros((2, 3, 1))):
        with pytest.raises(ValueError, match="2-D arrays"):
            ek.dictionary_minimax_error(targets, bad)
        with pytest.raises(ValueError, match="2-D arrays"):
            ek.dictionary_minimax_error(bad, targets)
    for empty in (np.zeros((0, 3)), np.zeros((1, 0))):
        with pytest.raises(ValueError, match="nonempty"):
            ek.dictionary_minimax_error(targets, empty)
        with pytest.raises(ValueError, match="nonempty"):
            ek.dictionary_minimax_error(empty, targets)
    assert ek.dictionary_minimax_error(
        targets, np.array([[0, 1, 3], [1, 1, 2]])) == 1.0


def _per_row_minimax(targets, dictionary):
    """The per-row loop that one vectorised minimum per target replaced."""
    worst = 0.0
    for f in targets:
        worst = max(worst, min(float(np.max(np.abs(f - g)))
                               for g in dictionary))
    return worst


@pytest.mark.parametrize("seed", range(20))
def test_dictionary_minimax_matches_per_row_loop(seed):
    rng = stream(seed, 9)
    s = int(rng.integers(1, 6))
    targets = rng.normal(size=(int(rng.integers(1, 5)), s))
    dictionary = rng.normal(size=(int(rng.integers(1, 300)), s))
    assert (ek.dictionary_minimax_error(targets, dictionary)
            == _per_row_minimax(targets, dictionary))
