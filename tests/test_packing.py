"""Packing constructions: hat families, greedy sign codes, bump families."""

import itertools
import math
import pathlib
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import entrokit as ek
from entrokit import packing
from entrokit.packing import greedy_sign_code, grid_lipschitz
from entrokit.rng import STREAM_SPACE_GEN, stream


# -- hat families --------------------------------------------------------


def test_hat_two_point_line():
    space = ek.FiniteMetricSpace.line(2)
    fam = ek.build_hat_family(space, 1 / 6)
    assert fam.n_centers == 2 and fam.size == 4
    assert fam.member([1, 0])[0] == pytest.approx(0.5)
    gap = np.max(np.abs(fam.member([1, 0]) - fam.member([0, 0])))
    assert gap == pytest.approx(0.5)  # = 3 eps


def test_hat_identical_sigma_distance_zero():
    fam = ek.build_hat_family(ek.FiniteMetricSpace.line(2), 1 / 6)
    assert np.max(np.abs(fam.member([1, 0]) - fam.member([1, 0]))) == 0.0


def test_hat_circle8_full_enumeration():
    fam = ek.build_hat_family(ek.FiniteMetricSpace.circle(8), 1 / 6)
    assert fam.n_centers == 8 and fam.size == 256
    rep = fam.verify()
    assert rep.pairwise_exhaustive
    assert rep.min_pairwise_supdist >= 0.5 - 1e-12
    assert rep.ok


def test_hat_pairwise_matches_direct_enumeration():
    # dedicated oracle: enumerate sigma pairs and evaluate from the distances
    space = ek.FiniteMetricSpace.circle(4)
    eps = 1 / 6
    fam = ek.build_hat_family(space, eps)
    psi = np.maximum(3 * eps - space.dist[list(fam.centers), :], 0.0)
    best = math.inf
    for a, b in itertools.combinations(range(fam.size), 2):
        sa = np.array([(a >> j) & 1 for j in range(fam.n_centers)], dtype=float)
        sb = np.array([(b >> j) & 1 for j in range(fam.n_centers)], dtype=float)
        best = min(best, np.max(np.abs((sa - sb) @ psi)))
    rep = fam.verify()
    assert rep.pairwise_exhaustive and rep.min_pairwise_supdist == pytest.approx(best)


def enumerated_report(fam, tol=1e-12):
    """Reference: every member on every point, as a 2^N x n matrix, and
    the difference quotients and sup distances of every member pair."""
    n = fam.n_centers
    sigmas = (np.arange(fam.size)[:, None] >> np.arange(n)[None, :]) & 1
    values = sigmas.astype(float) @ fam.psi
    sup_max = float(np.max(np.abs(values)))
    iu, ju = np.triu_indices(fam.space.n, k=1)
    d = fam.space.dist[iu, ju]
    keep = d > 0
    lip_max = 0.0
    if keep.any():
        quotients = np.abs(values[:, iu[keep]] - values[:, ju[keep]]) / d[keep]
        lip_max = float(np.max(quotients))
    min_pair = min(float(np.min(np.max(np.abs(values[i + 1:] - values[i]), axis=1)))
                   for i in range(fam.size - 1))
    return packing.HatFamilyReport(
        size=fam.size,
        min_pairwise_supdist=min_pair,
        pairwise_exhaustive=True,
        sup_max=sup_max,
        lipschitz_max=lip_max,
        separation_ok=min_pair >= 3 * fam.eps - tol,
        sup_ok=sup_max <= min(3 * fam.eps, 1.0) + tol,
        lipschitz_ok=lip_max <= 1.0 + tol,
    )


def _seeded_space(kind, rng):
    n = int(rng.integers(3, 31))
    if kind == "line":
        return ek.FiniteMetricSpace.line(n, float(rng.uniform(0.05, 0.5)))
    if kind == "circle":
        return ek.FiniteMetricSpace.circle(n, float(rng.uniform(0.5, 3.0)))
    coords = rng.uniform(0.0, 1.0, (n, int(rng.integers(1, 4))))
    return ek.FiniteMetricSpace.from_coords(coords, metric=kind)


@pytest.mark.parametrize("kind", ["line", "circle", "euclidean", "chebyshev"])
def test_hat_verify_equals_member_enumeration(kind):
    # every field, bit for bit, on families of up to 2^10 members
    rng = stream(11, STREAM_SPACE_GEN)
    checked = 0
    for _ in range(40):
        space = _seeded_space(kind, rng)
        eps = float(rng.uniform(0.01, 0.1))
        try:
            fam = ek.build_hat_family(space, eps)
        except (ek.NoPacking, ek.FamilyTooLarge):
            continue
        if fam.size > 1 << 10:
            continue
        assert fam.verify() == enumerated_report(fam)
        checked += 1
    assert checked >= 20


def test_hat_certifies_space_entropy():
    space = ek.FiniteMetricSpace.circle(8)
    eps = 1 / 6
    fam = ek.build_hat_family(space, eps)
    n6 = ek.exact_covering_number(space, 6 * eps).count
    h = math.log2(n6)
    # the certified packing exponent dominates the predicted lower bound
    assert fam.n_centers >= n6
    assert 2.0**fam.n_centers >= ek.entropy_lower_bound_uniform(h)


def test_hat_separation_is_exact_above_2_to_the_10_members():
    # 11 centers -> 2048 members; each center's hat peaks at 3 eps
    space = ek.FiniteMetricSpace.line(11, spacing=2.0)
    fam = ek.build_hat_family(space, 1 / 6)
    assert fam.size == 2048
    rep = fam.verify()
    assert rep.pairwise_exhaustive
    assert rep.min_pairwise_supdist == 3 * fam.eps
    assert rep.ok


def test_hat_family_rejects_centers_closer_than_6_eps():
    space = ek.FiniteMetricSpace.line(4)
    with pytest.raises(ValueError, match="closer than 6 eps"):
        packing.HatFamily(space, 1 / 3, [0, 3, 1])  # d(0, 1) = 1 < 2
    with pytest.raises(ValueError, match="closer than 6 eps"):
        packing.HatFamily(space, 1 / 6, [1, 1])
    assert packing.HatFamily(space, 1 / 3, [0, 2]).verify().ok  # d = 2


def test_hat_rejections():
    with pytest.raises(ek.EpsilonTooLarge):
        ek.build_hat_family(ek.FiniteMetricSpace.line(2), 0.4)
    # diameter 1 space admits no 2-separated pair at 6 eps = 1.2
    with pytest.raises(ek.NoPacking):
        ek.build_hat_family(ek.FiniteMetricSpace.line(2), 0.2)
    with pytest.raises(ek.FamilyTooLarge):
        ek.build_hat_family(ek.FiniteMetricSpace.line(18, spacing=2.0), 1 / 6)


# -- greedy sign codes ------------------------------------------------------


@pytest.mark.parametrize("n,target,dist", [(8, 3, 2), (16, 8, 4)])
def test_gv_reaches_bound(n, target, dist):
    code = ek.gilbert_varshamov(n)
    assert code.size >= target
    assert code.min_distance == dist
    # exhaustive recheck from the +-1 word matrix, not the packed ints
    words = code.words
    for i, j in itertools.combinations(range(code.size), 2):
        assert int(np.sum(words[i] != words[j])) >= dist


def test_gv_first_word_all_plus():
    for n in (4, 8, 12):
        assert bool((ek.gilbert_varshamov(n).words[0] == 1).all())


def test_gv_deterministic():
    a = ek.gilbert_varshamov(12)
    b = ek.gilbert_varshamov(12)
    assert a.ints == b.ints


def test_gv_range_validation():
    # greedy_sign_code's range: the expectation chain builds lengths 2 and 3
    with pytest.raises(ValueError):
        ek.gilbert_varshamov(0)
    with pytest.raises(ValueError):
        ek.gilbert_varshamov(65)
    # e^(n/8) overflows a float past n = 5678; the length is checked first
    with pytest.raises(ValueError):
        ek.gilbert_varshamov(10_000)
    assert ek.gilbert_varshamov(3).ints == scan_sign_code(3, 1, 2)


def test_greedy_code_small_lengths():
    code = greedy_sign_code(2, 1, 2)
    assert code.size >= 2
    assert code.pairwise_min_hamming() >= 1


def scan_sign_code(n, min_dist, target, chunk=1 << 15):
    """Reference: scan {+1,-1}^n in lexicographic order and keep every word
    at distance >= min_dist from all kept words, up to target words."""
    kept = [0]
    total = 1 << n
    start = 1
    while len(kept) < target and start < total:
        end = min(start + chunk, total)
        cand = start + np.arange(end - start, dtype=np.uint64)
        kept_arr = np.array(kept, dtype=np.uint64)
        ok = (np.bitwise_count(cand[:, None] ^ kept_arr[None, :]) >= min_dist).all(axis=1)
        while ok.any() and len(kept) < target:
            pos = int(np.argmax(ok))
            word = int(cand[pos])
            kept.append(word)
            ok[: pos + 1] = False
            ok &= np.bitwise_count(cand ^ np.uint64(word)) >= min_dist
        start = end
    return tuple(kept)


@pytest.mark.parametrize("n", range(4, 33))
def test_volume_bound_code_matches_scan(n):
    code = ek.gilbert_varshamov(n)
    assert code.ints == scan_sign_code(n, code.min_distance, code.target_size)


@pytest.mark.parametrize("n,dist,target",
                         [(10, 3, 40), (15, 5, 100), (20, 6, 300), (2, 1, 2)])
def test_greedy_code_matches_scan(n, dist, target):
    assert greedy_sign_code(n, dist, target).ints == scan_sign_code(n, dist, target)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_greedy_code_matches_scan_property(data):
    n = data.draw(st.integers(1, 14), label="n")
    dist = data.draw(st.integers(1, n), label="dist")
    target = data.draw(st.integers(1, 300), label="target")
    expect = scan_sign_code(n, dist, target)
    if len(expect) < target:
        with pytest.raises(ek.BoundNotReached):
            greedy_sign_code(n, dist, target)
    else:
        assert greedy_sign_code(n, dist, target).ints == expect


def test_gv_coset_table_limit(monkeypatch):
    # length 24 needs a coset table of 2^9 entries
    monkeypatch.setattr(packing, "LEXICODE_TABLE_LIMIT", 1 << 8)
    with pytest.raises(ek.SizeLimitExceeded):
        ek.gilbert_varshamov(24)
    monkeypatch.setattr(packing, "LEXICODE_TABLE_LIMIT", 1 << 9)
    assert ek.gilbert_varshamov(24).ints == scan_sign_code(24, 6, 21)



def test_gv_refuses_lengths_past_the_table_limit_before_building(monkeypatch):
    # at 2^27 entries the tables of lengths 56..64 took 0.5-2 s and up to
    # 443 MB before they were refused
    def no_table(n, min_dist, target):
        raise AssertionError(f"the coset table of length {n} was built")

    monkeypatch.setattr(packing, "_greedy_sign_code", no_table)
    for n in range(56, 65):
        start = time.perf_counter()
        with pytest.raises(ek.SizeLimitExceeded, match=f"length {n} "):
            ek.gilbert_varshamov(n)
        assert time.perf_counter() - start < 0.1
    for n in range(1, 56):
        with pytest.raises(AssertionError, match=f"length {n} was built"):
            ek.gilbert_varshamov(n)


def test_greedy_sign_code_refuses_the_table_limit_triples_before_building(
        monkeypatch):
    # the public entry with gilbert_varshamov's targets raises the message a
    # built table raises at the limit (leading bit 37 at distance 14, 33 at
    # distances 15 and 16), without building it
    def no_table(n, min_dist, target):
        raise AssertionError(f"the coset table of length {n} was built")

    monkeypatch.setattr(packing, "_greedy_sign_code", no_table)
    for n in range(56, 65):
        d, target = math.ceil(n / 4), math.ceil(math.exp(n / 8))
        lead = 37 if n == 56 else 33
        start = time.perf_counter()
        with pytest.raises(ek.SizeLimitExceeded) as err:
            greedy_sign_code(n, d, target)
        assert time.perf_counter() - start < 0.1
        assert str(err.value) == (
            f"the lexicode of length {n} at distance {d} needs a coset table "
            f"above {packing.LEXICODE_TABLE_LIMIT} entries at leading bit "
            f"{lead}")
    # a length that stops below the recorded leading bit builds its table
    with pytest.raises(AssertionError, match="length 33 was built"):
        greedy_sign_code(33, 16, 2981)



def test_greedy_sign_code_refuses_every_recorded_distance_before_building(
        monkeypatch):
    # at each distance's recorded (leading bit, basis words), one word more
    # at one bit longer is refused at once; one word fewer, or one bit
    # shorter, reaches the builder.  Distances above 64 find no word, as 64
    def no_table(n, min_dist, target):
        raise AssertionError(f"the coset table of length {n} was built")

    monkeypatch.setattr(packing, "_greedy_sign_code", no_table)
    record = packing._TABLE_LIMIT_RECORD
    assert sorted(record) == list(range(11, 65))
    for d in list(record) + [65, 100]:
        lead, words = record[min(d, 64)]
        start = time.perf_counter()
        with pytest.raises(ek.SizeLimitExceeded) as err:
            greedy_sign_code(lead + 1, d, (1 << words) + 1)
        assert time.perf_counter() - start < 0.1
        assert str(err.value) == (
            f"the lexicode of length {lead + 1} at distance {d} needs a coset "
            f"table above {packing.LEXICODE_TABLE_LIMIT} entries at leading "
            f"bit {lead}")
        for n, target in ((lead + 1, 1 << words), (lead, (1 << words) + 1)):
            with pytest.raises(AssertionError, match=f"length {n} was built"):
                greedy_sign_code(n, d, target)
    # which once built 322 MB of table for 0.5 s before it raised
    with pytest.raises(ek.SizeLimitExceeded, match="leading bit 29$"):
        greedy_sign_code(64, 18, 4096)
    # below distance 11 the limit is never reached at any length
    for d in range(1, 11):
        with pytest.raises(AssertionError, match="length 64 was built"):
            greedy_sign_code(64, d, 1 << 63)

# -- bump families -----------------------------------------------------------


def test_bump_d1_trapezoid_closed_form():
    # closed-form area of the unit-cell trapezoid: 1 - lam/2
    fam = ek.build_bump_family(1, 2, 16, greedy_sign_code(2, 1, 2))
    assert fam.lam == pytest.approx(0.5)
    assert fam.cell_profile_l1 == pytest.approx(1 - fam.lam / 2, abs=1e-12)


def test_bump_d1_pairwise_bound():
    fam = ek.build_bump_family(1, 2, 16, greedy_sign_code(2, 1, 2))
    assert fam.l1_floor == pytest.approx(1 / (8 * math.e * 1 * 2))
    assert fam.min_pairwise_l1() >= fam.l1_floor - 1e-9


def test_bump_identical_sigma_zero_distance():
    fam = ek.build_bump_family(1, 2, 16, greedy_sign_code(2, 1, 2))
    assert fam.pairwise_l1(0, 0) == 0.0


def test_bump_hamming_shortcut_equals_grid_quadrature():
    fam = ek.build_bump_family(2, 2, 24, ek.gilbert_varshamov(4))
    g = fam.grid_res
    mids = (np.arange(g) + 0.5) / g
    mesh = np.meshgrid(mids, mids, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    direct = float(np.mean(np.abs(fam.member_values(0, pts)
                                  - fam.member_values(1, pts))))
    assert direct == pytest.approx(fam.pairwise_l1(0, 1), abs=1e-12)


@pytest.mark.parametrize("dim,cells,grid", [(1, 2, 16), (1, 4, 32), (2, 2, 24)])
def test_bump_family_invariants(dim, cells, grid):
    n = cells**dim
    if 4 <= n <= 64:
        code = ek.gilbert_varshamov(n)
    else:
        code = greedy_sign_code(n, math.ceil(n / 4), math.ceil(math.exp(n / 8)))
    rep = ek.build_bump_family(dim, cells, grid, code).verify()
    assert rep.ok
    assert rep.sup_max <= 1.0 + 1e-9
    assert rep.lipschitz_max <= 1.0 + 1e-9
    assert rep.min_pairwise_l1 >= rep.l1_floor - 1e-9
    assert rep.cell_profile_l1 >= rep.profile_l1_lower


def test_bump_three_dimensional():
    code = ek.gilbert_varshamov(8)  # N^d = 2^3
    rep = ek.build_bump_family(3, 2, 16, code).verify()
    assert rep.ok
    assert rep.l1_floor == pytest.approx(1 / (8 * math.e * 3 * 2))


def test_bump_custom_plateau_parameter():
    fam = ek.build_bump_family(1, 2, 16, greedy_sign_code(2, 1, 2), lam=0.25)
    rep = fam.verify()
    assert rep.cell_profile_l1 == pytest.approx(1 - 0.25 / 2, abs=1e-12)
    assert rep.min_pairwise_l1 >= rep.pairwise_lower - 1e-9
    assert rep.lipschitz_max <= 1.0 + 1e-9


def test_bump_member_is_continuous_across_cells():
    # values on shared cell faces vanish, so adjacent bumps cannot clash
    fam = ek.build_bump_family(1, 2, 16, greedy_sign_code(2, 1, 2))
    boundary = fam.member_values(0, np.array([[0.0], [0.5], [1.0]]))
    assert np.max(np.abs(boundary)) == 0.0


def all_pairs_lipschitz(fam, index):
    """Reference: the max difference quotient over every pair of nodes."""
    flat = fam.member_on_nodes(index).ravel()
    axes = [np.arange(fam.grid_res + 1) / fam.grid_res] * fam.dim
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    best = 0.0
    for i in range(0, len(flat), 512):
        block = slice(i, min(i + 512, len(flat)))
        dx = np.max(np.abs(pts[block, None, :] - pts[None, :, :]), axis=-1)
        df = np.abs(flat[block, None] - flat[None, :])
        mask = dx > 0
        best = max(best, float(np.max(df[mask] / dx[mask])))
    return best


@pytest.mark.parametrize("dim,cells,grid",
                         [(1, 2, 16), (1, 4, 32), (2, 2, 24), (2, 2, 48), (2, 3, 36)])
def test_king_neighbour_lipschitz_equals_all_pairs(dim, cells, grid):
    fam = ek.build_bump_family(dim, cells, grid,
                               ek.gilbert_varshamov(cells**dim))
    for index in range(fam.code.size):
        assert fam.member_discrete_lipschitz(index) == all_pairs_lipschitz(fam, index)


def test_grid_lipschitz_sees_diagonal_quotients():
    # (x1 + x2) / 2 has sup-norm Lipschitz constant 1, reached only along
    # diagonals; axis neighbours alone give 0.5
    x = np.arange(81) / 80
    values = (x[:, None] + x[None, :]) / 2
    assert grid_lipschitz(values) == pytest.approx(1.0, abs=1e-12)


def test_bump_grid_misalignment_rejected():
    with pytest.raises(ek.GridMisaligned):
        ek.build_bump_family(1, 2, 10, greedy_sign_code(2, 1, 2))
    with pytest.raises(ek.GridMisaligned):
        ek.build_bump_family(2, 2, 16, ek.gilbert_varshamov(4))  # needs 12 | G


def test_bump_node_grid_is_bounded_before_anything_is_built():
    # (grid_res + 1)^d nodes at most BUMP_NODE_LIMIT; one below the limit
    # in 1-D passes, and 16001^3 nodes (terabytes) are refused
    limit = packing.BUMP_NODE_LIMIT
    assert packing.bump_lam(1, 2, limit - 8, None) == 0.5
    for dim, cells, grid in ((1, 2, limit), (3, 2, 16000)):
        with pytest.raises(ek.SizeLimitExceeded, match="grid nodes"):
            packing.bump_lam(dim, cells, grid, None)
    with pytest.raises(ek.SizeLimitExceeded):
        ek.build_bump_family(3, 2, 16000, ek.gilbert_varshamov(8))


@pytest.mark.parametrize("grid", [0, -8])
def test_bump_grid_below_one_rejected(grid):
    # both pass the alignment checks, then failed untyped
    with pytest.raises(ValueError, match="grid_res"):
        ek.build_bump_family(1, 2, grid, greedy_sign_code(2, 1, 2))


# -- dimension selection -------------------------------------------------------


def test_select_dimension_examples():
    assert ek.select_embedding_dimension(1.0, 2.0, 1.0, 1.0) == 1
    assert ek.select_embedding_dimension(0.01, 2.0, 1.0, 1.0) == 10


def test_select_dimension_boundary_eps():
    assert ek.select_embedding_dimension(1.0, 2.0, 1.0, 0.7) == 1


def test_select_dimension_rejects_large_eps():
    with pytest.raises(ek.EpsilonTooLarge):
        ek.select_embedding_dimension(1.5, 2.0, 1.0, 1.0)


def test_select_dimension_matches_direct_scan():
    for eps in (0.9, 0.5, 0.2, 0.07, 0.011):
        for alpha in (0.5, 1.0, 2.0):
            got = ek.select_embedding_dimension(eps, 2.0, 1.0, alpha)
            scan = 1
            while eps * (scan + 1) ** (1 + alpha) <= 1.0:
                scan += 1
            assert got == scan
            assert 1.0 < eps * (2 * got) ** (1 + alpha)


def _largest_fitting_d(eps, c2, k):
    """Largest d with eps * d^k <= c2, in exact fractions of the shortest
    decimals of eps and c2."""
    e, c = Fraction(repr(eps)), Fraction(repr(c2))
    lo, hi = 1, 2
    while e * hi**k <= c:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if e * mid**k <= c else (lo, mid)
    return lo


def _selection_cases(count, seed):
    """(eps, c2, k) with decimal eps <= c2 and integer k = 1 + alpha; every
    other case sits on a boundary eps * d^k == c2."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        k = rng.randint(2, 5)
        eps = rng.randint(1, 999) * Fraction(10) ** rng.randint(-12, 0)
        if len(cases) % 2:
            c2 = eps * rng.randint(1, 10 ** rng.randint(1, 4)) ** k
        else:
            c2 = rng.randint(1, 9999) * Fraction(10) ** rng.randint(-4, 2)
        # keep c2 only where a float's shortest decimal is c2 itself
        if eps <= c2 and Fraction(repr(float(c2))) == c2:
            cases.append((float(eps), float(c2), k))
    return cases


def test_select_dimension_matches_an_exact_fraction_oracle():
    cases = _selection_cases(1200, seed=25)
    on_boundary = sum(Fraction(repr(eps)) * _largest_fitting_d(eps, c2, k)**k
                      == Fraction(repr(c2)) for eps, c2, k in cases)
    assert on_boundary >= 600
    bad = [(eps, c2, k) for eps, c2, k in cases
           if ek.select_embedding_dimension(eps, 2 * c2, c2, k - 1.0)
           != _largest_fitting_d(eps, c2, k)]
    assert not bad, bad[:5]


@pytest.mark.parametrize("args,expected", [
    # each an exact boundary eps * d^(1+alpha) == c2 that binary 50-digit
    # arithmetic put one below d
    ((0.001, 1.0, 0.009, 1.0), 3),
    ((3e-7, 1.0, 0.3, 1.0), 1000),
    ((0.006759805803772235, 10.0, 2.703922321508894, 1.0), 20),
    ((9.44e-06, 20.0, 9.44, 2.0), 100),
])
def test_select_dimension_decides_boundaries_exactly(args, expected):
    eps, _, c2, alpha = args
    assert _largest_fitting_d(eps, c2, int(1 + alpha)) == expected
    assert ek.select_embedding_dimension(*args) == expected


def test_select_dimension_needs_no_mpmath(monkeypatch):
    monkeypatch.setitem(sys.modules, "mpmath", None)
    assert ek.select_embedding_dimension(0.001, 1.0, 0.009, 1.0) == 3


@pytest.mark.parametrize("args", [
    (math.nan, 2.0, 1.0, 1.0), (math.inf, 2.0, 1.0, 1.0),
    (0.1, math.inf, 1.0, 1.0), (0.1, 2.0, math.nan, 1.0),
    (0.1, 2.0, 1.0, math.inf), (0.1, 2.0, 1.0, -math.inf),
])
def test_select_dimension_refuses_non_finite_arguments(args):
    with pytest.raises(ValueError, match="finite"):
        ek.select_embedding_dimension(*args)


@pytest.mark.parametrize("args,digits", [
    # d = 10^60, past the 50 digits that used to hold d and d + 1 apart
    ((1e-120, 2.0, 1.0, 1.0), 61),
    # the widest finite ratio c2/eps and an alpha near zero
    ((5e-324, 1.79e308, 1e308, 1e-300), 632),
])
def test_select_dimension_on_extreme_inputs_ends_quickly(args, digits):
    start = time.monotonic()
    d = ek.select_embedding_dimension(*args)
    assert time.monotonic() - start < 1.0
    assert len(str(d)) == digits


@pytest.mark.parametrize("alpha", [1e-300, 1e-40, 1e-20])
def test_select_dimension_keeps_a_tiny_alpha(alpha):
    # 0.5 * 2^(1 + alpha) > 1 by alpha ln 2, below the digits of c2/eps = 2
    assert ek.select_embedding_dimension(0.5, 2.0, 1.0, alpha) == 1
    assert ek.select_embedding_dimension(1e-5, 2.0, 1.0, alpha) == 99999


@pytest.mark.parametrize("args,expected", [
    # exact boundaries at a non-integer 1 + alpha: 0.125 * 4^1.5 == 1 and
    # 1 * 1^1.7 == 1, computed with rounding but decided in integers
    ((0.125, 2.0, 1.0, 0.5), 4), ((1.0, 2.0, 1.0, 0.7), 1),
])
def test_select_dimension_decides_rational_boundaries_exactly(args, expected):
    assert ek.select_embedding_dimension(*args) == expected


def _mpmath_largest_fitting_d(eps, c2, alpha):
    """Largest d with eps * d^(1+alpha) <= c2 in mpmath at 1,100 digits,
    for the shortest decimals of eps, c2 and alpha."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(1100):
        e, c = mpmath.mpf(repr(eps)), mpmath.mpf(repr(c2))
        k = 1 + mpmath.mpf(repr(alpha))
        d = max(int(mpmath.floor((c / e) ** (1 / k))), 1)
        while e * mpmath.mpf(d + 1) ** k <= c:
            d += 1
        while d > 1 and e * mpmath.mpf(d) ** k > c:
            d -= 1
    return d


def _non_integer_cases(count, seed):
    """(eps, c2, alpha, m) with alpha no integer: one case in four takes
    1e-300, 1e-40 or 1e-20, one a seeded alpha below 1e-1, two one in
    [0.01, 3].  Three in four put eps * m == c2 exactly in decimals, so
    that a tiny alpha tips d from m to m - 1 by a hair."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        kind = len(cases) % 4
        if kind == 0:
            alpha = (1e-300, 1e-40, 1e-20)[len(cases) // 4 % 3]
        elif kind == 1:
            alpha = float(f"{rng.uniform(1, 10):.3g}e-{rng.randint(1, 300)}")
        else:
            alpha = float(f"{rng.uniform(0.01, 3):.6g}")
        m = rng.randint(1, 10 ** rng.randint(1, 6))
        eps = rng.randint(1, 999) * Fraction(10) ** rng.randint(-12, 0)
        if kind == 3:
            c2 = rng.randint(1, 9999) * Fraction(10) ** rng.randint(-4, 2)
        else:
            c2 = eps * m
        # keep the case only where each float's shortest decimal is itself
        if (alpha != int(alpha) and eps <= c2
                and all(Fraction(repr(float(v))) == v for v in (eps, c2))):
            cases.append((float(eps), float(c2), alpha, m))
    return cases


def test_select_dimension_matches_an_mpmath_oracle_at_non_integer_powers():
    cases = _non_integer_cases(240, seed=27)
    expected = [_mpmath_largest_fitting_d(eps, c2, alpha)
                for eps, c2, alpha, _ in cases]
    # the cases reach the hair's-breadth boundaries they are built for
    assert sum(alpha < 1e-19 and d == m - 1
               for (_, _, alpha, m), d in zip(cases, expected)) >= 60
    bad = [(case, d) for case, d in zip(cases, expected)
           if ek.select_embedding_dimension(case[0], 2 * case[1], case[1],
                                            case[2]) != d]
    assert not bad, bad[:5]


def test_select_dimension_redecides_within_its_rounding():
    # at 9 digits 0.5 * 2^(1 + 1e-7) rounds to 1.00000007, within the
    # slack of c2 = 1; alpha = 1e-7 makes q = 10^7, so no integer
    # decision exists, and only more digits can tell
    args = (Decimal("0.5"), Decimal("2"), Decimal("1"), Decimal("1e-7"))
    with pytest.raises(packing._Undecided):
        packing._select_dimension(*args, 9)
    assert packing._select_dimension(*args, 60) == 1
    # an exact boundary at a non-integer power is decided in integers at
    # any precision: 0.125 * 4^1.5 == 1
    assert packing._select_dimension(Decimal("0.125"), Decimal("2"),
                                     Decimal("1"), Decimal("0.5"), 9) == 4


def test_select_dimension_refuses_what_it_cannot_decide(monkeypatch):
    precisions = []

    def undecided(e, top, bound, a, prec):
        precisions.append(prec)
        raise packing._Undecided

    monkeypatch.setattr(packing, "_select_dimension", undecided)
    with pytest.raises(ValueError, match="undecided"):
        ek.select_embedding_dimension(0.25, 2.0, 1.0, 0.5)
    assert precisions == [precisions[0] * 2**i
                          for i in range(packing.SELECTION_ROUNDS)]
    cfg = ek.load_config(pathlib.Path(__file__).resolve().parent.parent
                         / "configs" / "expectation-d2-select.json")
    with pytest.raises(ek.ConfigError, match="dim_select: .*undecided"):
        ek.run_experiment(cfg)


def test_entropy_lower_bound():
    assert ek.entropy_lower_bound_uniform(0.0) == 1.0
    assert ek.entropy_lower_bound_uniform(3.0) == 8.0
    with pytest.raises(ValueError):
        ek.entropy_lower_bound_uniform(-1.0)
