"""KL sampling, the CDF map, embeddings, and Monte-Carlo norms."""

import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import entrokit as ek
from entrokit import packing as pk
from entrokit import randomfield as rf
from entrokit.rng import STREAM_MC_NORM, stream


def gaussian_j2(j_max=64):
    return ek.KLMeasure.from_config(
        {"lambda": "j^-2a", "alpha": 1.0, "J": j_max, "law": "gaussian"})


# -- measures ---------------------------------------------------------------


def test_measure_validation():
    with pytest.raises(ValueError):
        ek.KLMeasure([], "gaussian")
    with pytest.raises(ValueError):
        ek.KLMeasure([1.0, 2.0], "gaussian")  # increasing
    with pytest.raises(ValueError):
        ek.KLMeasure([1.0, 0.0], "gaussian")  # nonpositive
    with pytest.raises(ValueError):
        ek.KLMeasure([1.0], "cauchy")


def test_density_bound_definition():
    g = ek.KLMeasure([4.0, 1.0], "gaussian")
    assert g.density_bound == pytest.approx(2.0)  # sqrt(lambda_1) dominates
    u = ek.KLMeasure([0.01], "uniform")
    assert u.density_bound == pytest.approx(1 / (2 * math.sqrt(3)))


def test_uniform_law_unit_variance():
    m = ek.KLMeasure([1.0], "uniform")
    draws = ek.sample(m, seed=5, count=200000)
    assert np.var(draws) == pytest.approx(1.0, abs=0.02)


# -- sampling --------------------------------------------------------------


def test_sample_second_moment():
    m = ek.KLMeasure([1.0, 0.25], "gaussian")
    draws = ek.sample(m, seed=11, count=100000)
    nsq = np.sum(draws**2, axis=1)
    se = np.std(nsq, ddof=1) / math.sqrt(len(nsq))
    assert abs(np.mean(nsq) - 1.25) <= 3 * se


def test_sample_determinism():
    m = gaussian_j2(8)
    a = ek.sample(m, seed=42, count=16)
    b = ek.sample(m, seed=42, count=16)
    assert a.tobytes() == b.tobytes()
    c = ek.sample(m, seed=43, count=16)
    assert a.tobytes() != c.tobytes()


def test_sample_scales_the_standard_draws():
    for law in ("gaussian", "uniform"):
        m = ek.KLMeasure.from_config(
            {"lambda": "j^-2a", "alpha": 0.75, "J": 16, "law": law})
        expect = m.draw_z(stream(9, STREAM_MC_NORM), 500) * m.sqrt_ev
        got = ek.sample(m, 9, 500, stream_id=STREAM_MC_NORM)
        assert got.tobytes() == expect.tobytes()


def test_sample_count_validation():
    with pytest.raises(ValueError):
        ek.sample(gaussian_j2(4), seed=0, count=0)


def test_torus_synthesis_parseval():
    # grid mean of u^2 equals the coefficient norm for band-limited fields
    m = ek.KLMeasure([1.0, 0.5, 0.25, 0.125], "gaussian")
    coeffs = ek.sample(m, seed=21, count=16)
    fields = ek.synthesize_torus(coeffs, resolution=32)
    grid_norms = np.mean(fields**2, axis=1)
    assert np.allclose(grid_norms, np.sum(coeffs**2, axis=1), atol=1e-12)


def test_torus_synthesis_constant_mode():
    field = ek.synthesize_torus(np.array([[0.4]]), resolution=8)
    assert np.allclose(field, 0.4)


# -- the CDF map -------------------------------------------------------------


def test_cdf_map_symmetry_point():
    m = gaussian_j2(4)
    assert ek.cdf_map(m, np.zeros((1, 4)), 1)[0, 0] == pytest.approx(0.5)


def test_cdf_map_uniform_endpoint():
    m = ek.KLMeasure([2.0], "uniform")
    top = math.sqrt(3 * 2.0)  # sqrt(lambda_1) * sqrt(3)
    assert ek.cdf_map(m, np.array([[top]]), 1)[0, 0] == pytest.approx(1.0)


@pytest.mark.parametrize("law", ["gaussian", "uniform"])
def test_cdf_map_marginal_uniformity(law):
    m = ek.KLMeasure(np.arange(1, 5, dtype=float)[::-1], law)
    coords = ek.cdf_map(m, ek.sample(m, seed=3, count=10000), 2)
    for axis in range(2):
        assert stats.kstest(coords[:, axis], "uniform").pvalue > 0.01


def test_cdf_map_dim_validation():
    m = gaussian_j2(4)
    with pytest.raises(ek.DimensionExceedsTruncation):
        ek.cdf_map(m, np.zeros((1, 4)), 5)


# -- grid functions and embedding ----------------------------------------------


def test_grid_function_multilinear_exactness():
    # multilinear data is reproduced exactly between nodes
    f = ek.GridFunction01.from_callable(
        lambda x: 2.0 * x[:, 0] * x[:, 1] - x[:, 1], 2, 4)
    pts = np.array([[0.13, 0.77], [0.5, 0.25], [1.0, 1.0]])
    expect = 2.0 * pts[:, 0] * pts[:, 1] - pts[:, 1]
    assert np.allclose(f(pts), expect, atol=1e-12)


def test_grid_function_quadrature_exact_for_multilinear():
    f = ek.GridFunction01.from_callable(lambda x: x[:, 0], 1, 8)
    assert f.quadrature_abs_pow(1, refine=1) == pytest.approx(0.5, abs=1e-14)


# a mean over many points hides last-bit differences between the two
# paths, so the one-cell grids (res 1) at refine 1 compare a single point
@pytest.mark.parametrize("dim,res", [(1, 7), (2, 5), (3, 4), (2, 1), (3, 1)])
def test_quadrature_equals_pointwise_evaluation(dim, res):
    f = ek.GridFunction01(dim, np.random.default_rng(dim).standard_normal(
        (res + 1,) * dim))
    for p in (1, 1.5, 2):
        for refine in (1, 8):
            m = res * refine
            mids = (np.arange(m) + 0.5) / m
            mesh = np.meshgrid(*([mids] * dim), indexing="ij")
            pts = np.stack([g.ravel() for g in mesh], axis=-1)
            expect = float(np.mean(np.abs(f(pts)) ** p))
            assert f.quadrature_abs_pow(p, refine=refine) == expect


def _reference_quadrature(self, p, refine=8):
    """quadrature_abs_pow as one full-grid gather per corner and axis."""
    m = self.res * refine
    mids = (np.arange(m) + 0.5) / m
    # the midpoint mesh is a product grid, so __call__'s per-point
    # cell index and weights are per-axis arrays; the corners and
    # axes are combined in __call__'s order, value for value
    t = np.clip(mids, 0.0, 1.0) * self.res
    i0 = np.minimum(t.astype(int), self.res - 1)
    frac = t - i0
    factors = (1.0 - frac, frac)

    def along(axis, arr):
        shape = [1] * self.dim
        shape[axis] = m
        return arr.reshape(shape)

    out = np.zeros((m,) * self.dim)
    for corner in itertools.product((0, 1), repeat=self.dim):
        w, corner_values = 1.0, self.values
        for axis, bit in enumerate(corner):
            w = w * along(axis, factors[bit])
            corner_values = corner_values.take(i0 + bit, axis=axis)
        out += w * corner_values
    return float(np.mean(np.abs(out.ravel()) ** p))


# one-cell grids, odd sizes, the benchmark shapes (2-D res 24, 3-D res 16)
# and a 1-D grid of several leaves
@pytest.mark.parametrize("dim,res", [(1, 1), (1, 2), (1, 13), (1, 24),
                                     (1, 10_000),
                                     (2, 1), (2, 3), (2, 7), (2, 24),
                                     (3, 1), (3, 2), (3, 5), (3, 16)])
def test_quadrature_equals_the_full_grid_formula(dim, res):
    rng = np.random.default_rng(100 * dim + res)
    f = ek.GridFunction01(dim, rng.standard_normal((res + 1,) * dim))
    for refine, p in itertools.product((1, 2, 3, 8), (1, 1.5, 2, 3.7)):
        assert (f.quadrature_abs_pow(p, refine=refine)
                == _reference_quadrature(f, p, refine=refine))


@pytest.mark.parametrize("p", [1, 2])
def test_quadrature_memory_is_one_grid(p):
    # the (128,)^3 midpoint grid is 16 MiB; full-grid gathers peak at 64-80
    f = ek.GridFunction01(3, np.random.default_rng(3).standard_normal((17,) * 3))
    tracemalloc.start()
    try:
        f.quadrature_abs_pow(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36 * 2**20


# -- the streamed pairwise sum ----------------------------------------------


_PRIMES = [7, 127, 131, 1009, 7919, 65537]


@pytest.mark.parametrize("leaf", [128, 200, 1000])
def test_pairwise_sum_equals_add_reduce(monkeypatch, leaf):
    monkeypatch.setattr(rf, "QUAD_LEAF", leaf)
    x = np.random.default_rng(leaf).standard_normal(2**21 + 64) ** 2
    lengths = list(range(1, 301)) + [1000, 36_864, 64_000, 2**21] + _PRIMES
    for n in lengths:
        for offset in (0, 3, 61):
            leaves = []

            def add_reduce(lo, hi):
                leaves.append(hi - lo)
                return np.add.reduce(x[lo:hi])

            got = rf._pairwise_sum(offset, offset + n, add_reduce)
            assert got == np.add.reduce(x[offset:offset + n]), (n, offset)
            assert sum(leaves) == n and max(leaves) <= leaf


# cells per axis of the bump families whose node grids have these shapes
_BUMP_CELLS = {(1, 24): 2, (2, 24): 4, (3, 16): 2}


def _node_grids(dim, res):
    """A dense random node grid, then sparse ones whose all-zero lines
    the quadrature skips: all zero, one nonzero node, a few nonzero nodes
    among +0.0 and -0.0, and where one exists, the difference of two
    bump-family members."""
    rng = np.random.default_rng(100 * dim + res)
    dense = rng.standard_normal((res + 1,) * dim)
    zero = np.zeros_like(dense)
    one = zero.copy()
    one[tuple(rng.integers(0, res + 1, dim))] = 1.5
    signed = np.copysign(zero, rng.standard_normal(dense.shape))
    signed.flat[rng.integers(0, signed.size, 3)] = (-0.7, 0.3, 2.0)
    grids = [dense, zero, one, signed]
    if (dim, res) in _BUMP_CELLS:
        cells = _BUMP_CELLS[dim, res]
        fam = pk.build_bump_family(dim, cells, res,
                                   pk.gilbert_varshamov(cells**dim))
        grids.append(fam.member_on_nodes(0) - fam.member_on_nodes(1))
    return grids


# the full-grid oracle again, with leaves that straddle lines; at refine 8
# a (2, 30) line is 240 points, so leaves also lie inside one line
@pytest.mark.parametrize("dim,res", [(1, 13), (1, 24), (2, 3), (2, 7),
                                     (2, 24), (2, 30), (3, 2), (3, 5),
                                     (3, 16)])
def test_small_leaves_equal_the_full_grid_formula(monkeypatch, dim, res):
    monkeypatch.setattr(rf, "QUAD_LEAF", 200)
    for k, values in enumerate(_node_grids(dim, res)):
        f = ek.GridFunction01(dim, values)
        for refine, p in itertools.product((1, 3, 8), (1, 1.5, 2)):
            # past the dense grid, skip (3, 16) at refine 8: its 2M points
            # in leaves of 200 take about a second a call
            if k and (res * refine) ** dim > 2**20:
                continue
            assert (f.quadrature_abs_pow(p, refine=refine)
                    == _reference_quadrature(f, p, refine=refine))


def test_quadrature_memory_is_a_few_cell_rows():
    # a cell row of the (128,)^3 midpoint grid is 1 MiB; the grid is 16
    f = ek.GridFunction01(3, np.random.default_rng(3).standard_normal((17,) * 3))
    tracemalloc.start()
    try:
        f.quadrature_abs_pow(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_1d_quadrature_memory_is_a_few_leaves():
    # the 800,000-point midpoint grid is 6.1 MiB; full-grid per-axis
    # arrays peaked at 55 MiB
    f = ek.GridFunction01(1, np.random.default_rng(1).standard_normal(100_001))
    tracemalloc.start()
    try:
        f.quadrature_abs_pow(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_one_leaf_1d_grid_is_computed_once(monkeypatch):
    # embed-check's res 16 grid is 128 midpoints: a single leaf
    calls = []
    leaf = rf._leaf_sum

    def counting(values, live_rows, p, m, lo, hi, scratch):
        calls.append((lo, hi))
        return leaf(values, live_rows, p, m, lo, hi, scratch)

    monkeypatch.setattr(rf, "_leaf_sum", counting)
    f = ek.GridFunction01.from_callable(lambda x: x[:, 0], 1, 16)
    assert f.quadrature_abs_pow(2) == _reference_quadrature(f, 2)
    assert calls == [(0, 128)]


@pytest.mark.parametrize("refine", [0, -1, 2.5, 8.0, True, "8", None])
def test_quadrature_rejects_a_bad_refine(refine):
    f = ek.GridFunction01(2, np.ones((3, 3)))
    with pytest.raises(ValueError, match="refine"):
        f.quadrature_abs_pow(2, refine=refine)


@pytest.mark.parametrize("p", [math.nan, math.inf, 0.5, 0, -2])
def test_quadrature_rejects_a_bad_p(p):
    f = ek.GridFunction01(2, np.ones((3, 3)))
    with pytest.raises(ValueError, match="p must be"):
        f.quadrature_abs_pow(p)


def test_embed_constant():
    m = gaussian_j2(8)
    emb = ek.embed(ek.GridFunction01.constant(0.7), m)
    vals = emb(ek.sample(m, seed=9, count=50))
    assert np.allclose(vals, 0.7)
    est = ek.lp_norm_mc(emb, m, 2, 1000, seed=1)
    assert est.estimate == pytest.approx(0.7, abs=1e-12) and est.stderr == 0.0


def test_embed_range_containment():
    m = gaussian_j2(8)
    f = ek.GridFunction01.from_callable(lambda x: x[:, 0] ** 2, 1, 16)
    emb = ek.embed(f, m)
    vals = emb(ek.sample(m, seed=2, count=2000))
    assert vals.min() >= f.values.min() - 1e-12
    assert vals.max() <= f.values.max() + 1e-12


def test_coordinate_function_moments():
    m = gaussian_j2()
    f = ek.GridFunction01.from_callable(lambda x: x[:, 0], 1, 16, lipschitz=1.0)
    emb = ek.embed(f, m)
    est1 = ek.lp_norm_mc(emb, m, 1, 100000, seed=5)
    assert abs(est1.estimate - 0.5) <= 3 * est1.stderr  # integral of x on [0,1]
    est2 = ek.lp_norm_mc(emb, m, 2, 100000, seed=5)
    assert abs(est2.estimate - math.sqrt(1 / 3)) <= 3 * est2.stderr


def test_lp_norm_validation():
    m = gaussian_j2(4)
    emb = ek.embed(ek.GridFunction01.constant(1.0), m)
    with pytest.raises(ValueError):
        ek.lp_norm_mc(emb, m, math.inf, 1000, seed=0)
    with pytest.raises(ValueError):
        ek.lp_norm_mc(emb, m, 2, 50, seed=0)


def _one_shot_lp_norm_mc(functional, measure, p, n_samples, seed):
    """The single-draw estimator: the whole (n_samples, J) matrix at once."""
    coeffs = measure.draw_z(stream(seed, STREAM_MC_NORM), n_samples)
    coeffs *= measure.sqrt_ev
    y = np.abs(np.asarray(functional(coeffs), dtype=float)) ** p
    moment = float(np.mean(y))
    if float(np.ptp(y)) <= 1e-14 * (1.0 + float(np.max(np.abs(y)))):
        return ek.McEstimate(moment ** (1.0 / p), 0.0, moment, 0.0, n_samples)
    moment_se = float(np.std(y, ddof=1) / math.sqrt(n_samples))
    stderr = ((1.0 / p) * moment ** (1.0 / p - 1.0) * moment_se
              if moment > 0 else 0.0)
    return ek.McEstimate(moment ** (1.0 / p), stderr, moment, moment_se,
                         n_samples)


def _block_rows(j_max):
    return max(1, rf.MC_BLOCK_BYTES // (8 * j_max))


def _signed_functional(measure):
    # changes sign on the cube, so |.|^p is not the identity
    dim = min(measure.truncation, 2)
    f = ek.GridFunction01.from_callable(
        lambda x: np.sin(3 * x[:, 0]) + x[:, -1] ** 2 - 0.6, dim, 8)
    return ek.embed(f, measure)


@pytest.mark.parametrize("law", ["gaussian", "uniform"])
# J = 1250 still gives a block of about 100 rows, the sample minimum
@pytest.mark.parametrize("j_max", [1, 3, 64, 1250])
def test_lp_norm_mc_equals_the_one_shot_draw(law, j_max):
    m = ek.KLMeasure.from_config(
        {"lambda": "j^-2a", "alpha": 1.0, "J": j_max, "law": law})
    emb = _signed_functional(m)
    rows = _block_rows(j_max)
    # below one block, exactly one block, and a non-multiple of the block
    for n in (max(100, min(1000, rows - 1)), rows, 2 * rows + 37):
        for p in (1, 1.5, 2):
            assert (ek.lp_norm_mc(emb, m, p, n, seed=7)
                    == _one_shot_lp_norm_mc(emb, m, p, n, seed=7))
    const = ek.embed(ek.GridFunction01.constant(0.7), m)
    assert (ek.lp_norm_mc(const, m, 2, 2 * rows + 37, seed=7)
            == _one_shot_lp_norm_mc(const, m, 2, 2 * rows + 37, seed=7))


@pytest.mark.parametrize("law", ["gaussian", "uniform"])
@pytest.mark.parametrize("rows", [1, 7, 100, 333])
def test_lp_norm_mc_does_not_depend_on_the_block_size(monkeypatch, law, rows):
    m = ek.KLMeasure.from_config(
        {"lambda": "j^-2a", "alpha": 1.0, "J": 16, "law": law})
    emb = _signed_functional(m)
    expect = ek.lp_norm_mc(emb, m, 1.5, 1000, seed=3)
    monkeypatch.setattr(rf, "MC_BLOCK_BYTES", 8 * 16 * rows)
    assert ek.lp_norm_mc(emb, m, 1.5, 1000, seed=3) == expect


@pytest.mark.parametrize("functional", [
    lambda c: c[:, :2],
    lambda c: c[:, :1],
    lambda c: 1.0,
    lambda c: np.ones(len(c) + 1),
], ids=["two-per-row", "column", "scalar", "one-extra"])
def test_lp_norm_mc_rejects_results_that_are_not_one_per_row(functional):
    with pytest.raises(ValueError, match="one value per row"):
        ek.lp_norm_mc(functional, gaussian_j2(4), 2, 1000, seed=0)


def test_lp_norm_mc_memory_is_one_block():
    # the one-shot (200000, 64) draw alone is 98 MiB; a block is 1 MiB,
    # and y (one float per sample) 1.5
    m = gaussian_j2(64)
    emb = ek.embed(ek.GridFunction01.from_callable(
        lambda x: x[:, 0], 1, 16, lipschitz=1.0), m)
    tracemalloc.start()
    try:
        ek.lp_norm_mc(emb, m, 2, 200_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_lp_norm_mc_holds_one_block_at_a_time(monkeypatch):
    # 8 MiB blocks: one alive at a time peaks near 9 MiB, two near 17
    monkeypatch.setattr(rf, "MC_BLOCK_BYTES", 8 << 20)
    m = gaussian_j2(64)
    emb = ek.embed(ek.GridFunction01.from_callable(
        lambda x: x[:, 0], 1, 16, lipschitz=1.0), m)
    tracemalloc.start()
    try:
        ek.lp_norm_mc(emb, m, 2, 3 * _block_rows(64), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


def test_shipped_embed_check_holds_one_block():
    # two (8192, 64) blocks alive at once peaked at 8.9 MiB
    cfg = ek.chains.load_embed_check_config(
        pathlib.Path(__file__).resolve().parent.parent / "configs"
        / "embed-check.json")
    measure = ek.KLMeasure.from_config(cfg["kl"])
    f = ek.GridFunction01.from_callable(
        lambda x: x[:, 0], 1, cfg["f"]["grid_res"], lipschitz=1.0)
    tracemalloc.start()
    try:
        ek.isometry_check(f, measure, cfg["p"], cfg["samples"], cfg["seed"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


# -- draws made ahead on worker threads -----------------------------------------


def _mc_measure(law, j_max=64):
    return ek.KLMeasure.from_config(
        {"lambda": "j^-2a", "alpha": 1.0, "J": j_max, "law": law})


def _dim_functional(measure, dim):
    f = ek.GridFunction01.from_callable(
        lambda x: np.sin(3 * x[:, 0]) + x[:, -1] ** 2 - 0.6, dim, 8)
    return ek.embed(f, measure)


@pytest.mark.parametrize("law", ["gaussian", "uniform"])
@pytest.mark.parametrize("dim,columns", [(1, 1), (2, 2), (2, 64)])
def test_lp_norm_mc_with_draws_equals_the_generic_path(law, dim, columns):
    m = _mc_measure(law)
    emb = _dim_functional(m, dim)
    # a multiple of neither the functional's block nor a worker's block
    n = 2 * _block_rows(64) + 131
    assert n % (rf.MC_DRAW_BLOCK_BYTES // (8 * 64)) != 0
    seeds = [7, 8, 9]
    with ek.McDraws(m, n, seeds, columns) as draws:
        for seed, p in zip(seeds, (1, 1.5, 2)):
            assert (ek.lp_norm_mc(emb, m, p, n, seed, draws=draws)
                    == ek.lp_norm_mc(emb, m, p, n, seed))


def test_draws_taken_out_of_order_are_the_same(monkeypatch):
    # one worker: the take of the last seed submits the seeds before it
    monkeypatch.setattr(rf, "_usable_cpus", lambda: 1)
    m = _mc_measure("gaussian", 16)
    emb = _dim_functional(m, 2)
    seeds = list(range(10, 16))
    with ek.McDraws(m, 500, seeds, 2) as draws:
        assert draws.workers == 1
        for seed in reversed(seeds):
            assert (ek.lp_norm_mc(emb, m, 2, 500, seed, draws=draws)
                    == ek.lp_norm_mc(emb, m, 2, 500, seed))


def test_draws_of_a_constant_functional_have_no_variance():
    m = _mc_measure("uniform", 8)
    const = ek.embed(ek.GridFunction01.constant(0.7), m)
    with ek.McDraws(m, 300, [1], 1) as draws:
        est = ek.lp_norm_mc(const, m, 2, 300, 1, draws=draws)
    assert est == ek.lp_norm_mc(const, m, 2, 300, 1)
    assert est.stderr == 0.0


def test_draws_validation():
    m = _mc_measure("gaussian", 8)
    emb = _dim_functional(m, 2)
    with pytest.raises(ValueError, match="distinct"):
        ek.McDraws(m, 200, [3, 4, 3], 2)
    with pytest.raises(ValueError):
        ek.McDraws(m, 200, [], 2)
    for columns in (0, 9):
        with pytest.raises(ValueError, match="columns"):
            ek.McDraws(m, 200, [3], columns)
    with ek.McDraws(m, 200, [3, 4], 2) as draws:
        with pytest.raises(ValueError, match="not one of"):
            ek.lp_norm_mc(emb, m, 2, 200, 5, draws=draws)
        with pytest.raises(ValueError, match="another measure"):
            ek.lp_norm_mc(emb, _mc_measure("uniform", 8), 2, 200, 3,
                          draws=draws)
        with pytest.raises(ValueError, match="200 samples"):
            ek.lp_norm_mc(emb, m, 2, 300, 3, draws=draws)
        ek.lp_norm_mc(emb, m, 2, 200, 3, draws=draws)
        with pytest.raises(ValueError, match="already taken"):
            ek.lp_norm_mc(emb, m, 2, 200, 3, draws=draws)
    with pytest.raises(RuntimeError, match="with block"):
        draws.take(4)


class _FailingMeasure(ek.KLMeasure):
    def draw_z(self, rng, count):
        raise FloatingPointError("draw failed")


def test_worker_exception_surfaces_from_take():
    m = _FailingMeasure([1.0, 0.25])
    with ek.McDraws(m, 200, [1, 2], 2) as draws:
        with pytest.raises(FloatingPointError, match="draw failed"):
            draws.take(1)


def test_worker_exception_of_an_untaken_seed_surfaces_on_exit():
    with pytest.raises(FloatingPointError, match="draw failed"):
        with ek.McDraws(_FailingMeasure([1.0]), 200, [1], 1):
            time.sleep(0.01)


class _FailingSecondSeed(ek.KLMeasure):
    """Draws fail for seed 2's stream only."""

    def draw_z(self, rng, count):
        if np.array_equal(rng.bit_generator.state["state"]["key"],
                          [2, STREAM_MC_NORM]):
            raise FloatingPointError("draw failed")
        return super().draw_z(rng, count)


def test_exit_waits_for_an_untaken_draw_that_has_not_started(monkeypatch):
    # one worker: when the block is left, seed 2 still waits behind seed 1,
    # and its failure is raised all the same
    monkeypatch.setattr(rf, "_usable_cpus", lambda: 1)
    with pytest.raises(FloatingPointError, match="draw failed"):
        with ek.McDraws(_FailingSecondSeed([1.0]), 20_000, [1, 2], 1) as draws:
            assert draws.workers == 1


def _new_threads(before):
    return [t for t in threading.enumerate() if t not in before]


@pytest.mark.parametrize("leave", ["normally", "by-exception"])
def test_no_worker_is_alive_after_the_with_block(leave):
    m = _mc_measure("gaussian", 64)
    before = set(threading.enumerate())
    workers = []
    try:
        with ek.McDraws(m, 20_000, list(range(8)), 2) as draws:
            draws.take(0)
            workers = _new_threads(before)
            if leave == "by-exception":
                raise KeyboardInterrupt
    except KeyboardInterrupt:
        pass
    # leaving the block has joined them: none is alive before our own join
    alive = [t for t in workers if t.is_alive()]
    for t in workers:
        t.join(timeout=10)
    assert 1 <= len(workers) <= draws.workers
    assert alive == []
    assert _new_threads(before) == []


def test_import_starts_no_thread():
    out = subprocess.run(
        [sys.executable, "-c",
         "import threading, entrokit; print(threading.active_count())"],
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "1"


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _fresh_python(code, *args):
    """stdout of code run in a new interpreter that imports src's entrokit."""
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    return out.stdout.strip()


_SCIPY_LOADED = "any(m.split('.')[0] == 'scipy' for m in sys.modules)"


def test_import_loads_no_scipy():
    # scipy.special is imported by the first ndtr call, not by the package
    assert _fresh_python(
        f"import sys, entrokit, entrokit.cli; print({_SCIPY_LOADED})") == "False"


def test_import_loads_no_jsonschema_and_no_thread_pool():
    # configs are checked by chains' own interpreter, and McDraws imports
    # concurrent.futures when it is entered
    assert _fresh_python(
        "import sys, entrokit, entrokit.cli; print(sorted({m.split('.')[0] "
        "for m in sys.modules} & {'jsonschema', 'concurrent'}))") == "[]"


def test_cli_runs_without_ndtr_load_no_scipy(tmp_path):
    space = tmp_path / "line4.json"
    space.write_text(json.dumps(ek.FiniteMetricSpace.line(4).to_json()))
    config = tmp_path / "uniform.json"
    config.write_text(json.dumps({
        "schema_version": 1, "experiment": "uniform-chain", "seed": 7,
        "space": {"kind": "circle", "n": 8}, "eps_ladder": [1 / 6]}))
    out = _fresh_python(f"""
import sys
from click.testing import CliRunner
from entrokit.cli import main
space, config = sys.argv[1:]
for args in (["gv", "--n", "24"],
             ["bump", "--d", "1", "--n", "4", "--grid", "32"],
             ["hat", "--space", space, "--eps", str(1 / 6)],
             ["codelength", "--space", space, "--eps", "0.5"],
             ["chain-uniform", "--config", config]):
    print(CliRunner().invoke(main, args).exit_code, end=" ")
print({_SCIPY_LOADED})
""", space, config)
    assert out == "0 0 0 0 0 False"


_NDTR_CALLERS = {
    "gelu-forward": """
import entrokit as ek
from entrokit import fno
from entrokit.rng import stream
before = {loaded}
hyper = ek.FnoHyper(1, 1, 1, 2, 2, 2, "gelu")
params = ek.FnoParams.random(hyper, 1.0, stream(4, 0))
u = ek.random_inputs(hyper, 1, 4)[0]
got = fno.forward(params, u)
loaded = "scipy.special" in sys.modules
from scipy.special import ndtr
fno.ACTIVATIONS["gelu"] = (lambda x: x * ndtr(x), 1.129)
same = got.hex() == fno.forward(params, u).hex()
""",
    "gaussian-cdf": """
import numpy as np
import entrokit as ek
before = {loaded}
z = np.linspace(-9.0, 9.0, 4001)
got = ek.KLMeasure([1.0, 0.25]).cdf(z)
loaded = "scipy.special" in sys.modules
from scipy.special import ndtr
same = got.tobytes() == ndtr(z).tobytes()
""",
}


@pytest.mark.parametrize("name", sorted(_NDTR_CALLERS))
def test_ndtr_callers_load_scipy_and_keep_its_bits(name):
    code = _NDTR_CALLERS[name].format(loaded=_SCIPY_LOADED)
    out = _fresh_python(f"import sys\n{code}\nprint(before, loaded, same)")
    assert out == "False True True"


def test_more_seeds_than_cores_under_fast_thread_switching():
    m = _mc_measure("uniform", 16)
    emb = _dim_functional(m, 2)
    seeds = list(range(4 * rf._usable_cpus() + 3))
    expect = [ek.lp_norm_mc(emb, m, 1.5, 700, s) for s in seeds]
    got, errors = [], []

    def run():
        try:
            for _ in range(3):
                with ek.McDraws(m, 700, seeds, 2) as draws:
                    got.append([ek.lp_norm_mc(emb, m, 1.5, 700, s, draws=draws)
                                for s in seeds])
                # leave with most seeds untaken or still drawing
                with ek.McDraws(m, 700, seeds, 2) as draws:
                    draws.take(seeds[0])
        except BaseException as exc:  # reported on the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive(), "draws did not finish within 120 s"
    assert errors == []
    assert got == [expect] * 3


# -- isometry -----------------------------------------------------------------


def test_isometry_constant_zscore_zero():
    rep = ek.isometry_check(ek.GridFunction01.constant(0.7), gaussian_j2(8),
                            2, 1000, seed=1)
    assert rep.zscore == 0.0


def test_isometry_coordinate_function():
    f = ek.GridFunction01.from_callable(lambda x: x[:, 0], 1, 16, lipschitz=1.0)
    rep = ek.isometry_check(f, gaussian_j2(), 2, 100000, seed=5)
    assert abs(rep.zscore) <= 3
    assert rep.quad_moment == pytest.approx(1 / 3, abs=1e-4)


def test_isometry_bump_member():
    code = ek.gilbert_varshamov(4)
    fam = ek.build_bump_family(2, 2, 24, code)
    f = ek.GridFunction01(2, fam.member_on_nodes(1), lipschitz=1.0)
    rep = ek.isometry_check(f, gaussian_j2(), 2, 100000, seed=8)
    assert abs(rep.zscore) <= 3


def test_moment_zscore_degenerate_cases():
    assert ek.randomfield.moment_zscore(0.5, 0.5 + 1e-15, 0.0) == 0.0
    assert ek.randomfield.moment_zscore(1.0, 0.0, 0.0) == math.inf
    assert ek.randomfield.moment_zscore(1.0, 0.0, 0.5) == pytest.approx(2.0)


# -- Lipschitz transport ---------------------------------------------------------


def test_transport_quotient_within_declared_bound():
    m = gaussian_j2()
    f = ek.GridFunction01.from_callable(lambda x: x[:, 0], 1, 16, lipschitz=1.0)
    emb = ek.embed(f, m)
    bound = emb.lipschitz_bound
    assert bound == pytest.approx(m.density_bound / math.sqrt(m.eigenvalues[0]))
    assert ek.transport_quotient_max(emb, 10000, seed=9) <= bound + 1e-9


def test_transport_quotient_d1_bump():
    m = gaussian_j2()
    code = ek.greedy_sign_code(2, 1, 2)
    fam = ek.build_bump_family(1, 2, 16, code)
    f = ek.GridFunction01(1, fam.member_on_nodes(0), lipschitz=1.0)
    emb = ek.embed(f, m)
    assert ek.transport_quotient_max(emb, 10000, seed=4) <= emb.lipschitz_bound + 1e-9
