"""Karhunen-Loeve measures, the CDF map, and isometric L^p embeddings.

A measure is the law of u = sum_j sqrt(lambda_j) Z_j e_j with independent
unit-variance coordinates Z_j, truncated at J terms.  Two coordinate laws
are supported: standard Gaussian and Uniform(-sqrt(3), sqrt(3)); both have
bounded densities, so the coordinate-wise CDF map

    h_d(u) = (F_1(u_1 / sqrt(lambda_1)), ..., F_d(u_d / sqrt(lambda_d)))

pushes the first d coordinates to Uniform(0,1)^d.  Composition f -> f o h_d
is an isometry from L^p([0,1]^d) into L^p(mu) and transports a unit
sup-norm-Lipschitz f (w.r.t. the max norm on the cube) to a functional
with Lipschitz constant at most L / sqrt(lambda_d) in the coordinate
l2 norm, where L bounds both the coordinate densities and sqrt(lambda_1).
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DimensionExceedsTruncation
from .rng import (STREAM_KL_SAMPLE, STREAM_MC_NORM, STREAM_TRANSPORT, stream)

_SQRT3 = math.sqrt(3.0)

# lp_norm_mc draws its coefficients in row blocks of this many bytes
# (2,048 rows at J = 64), one block alive at a time, so its memory does
# not grow with n_samples
MC_BLOCK_BYTES = 1 << 20
# McDraws' worker threads draw in row blocks of this many bytes (128 rows
# at J = 64): large blocks on worker threads grow glibc's per-thread arenas
MC_DRAW_BLOCK_BYTES = 64 << 10
# GridFunction01.quadrature_abs_pow sums its midpoint grid in leaves of at
# most this many points (512 KiB of float64).  It must be at least 128,
# numpy's unsplit pairwise block, or _pairwise_sum would split nodes
# numpy does not split
QUAD_LEAF = 1 << 16

_DENSITY_SUP = {
    "gaussian": 1.0 / math.sqrt(2 * math.pi),
    "uniform": 1.0 / (2 * _SQRT3),
}


class KLMeasure:
    """Truncated product measure with declared eigenvalues and coordinate law."""

    def __init__(self, eigenvalues, law: str = "gaussian"):
        ev = np.asarray(eigenvalues, dtype=float)
        if ev.ndim != 1 or ev.size < 1:
            raise ValueError("need at least one eigenvalue (J >= 1)")
        if np.any(ev <= 0):
            raise ValueError("eigenvalues must be positive")
        if np.any(np.diff(ev) > 1e-12):
            raise ValueError("eigenvalues must be nonincreasing")
        if law not in _DENSITY_SUP:
            raise ValueError(f"unknown law {law!r}; use 'gaussian' or 'uniform'")
        self.eigenvalues = ev
        self.law = law
        self.sqrt_ev = np.sqrt(ev)

    @property
    def truncation(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def density_sup(self) -> float:
        return _DENSITY_SUP[self.law]

    @property
    def density_bound(self) -> float:
        """L = max(sup-norm of the coordinate density, sqrt(lambda_1))."""
        return max(self.density_sup, float(self.sqrt_ev[0]))

    def cdf(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.law == "gaussian":
            # imported here, so runs without a Gaussian CDF never load scipy
            from scipy.special import ndtr

            return ndtr(z)
        return np.clip((z + _SQRT3) / (2 * _SQRT3), 0.0, 1.0)

    def draw_z(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self.law == "gaussian":
            return rng.standard_normal((count, self.truncation))
        return rng.uniform(-_SQRT3, _SQRT3, (count, self.truncation))

    @classmethod
    def from_config(cls, cfg: dict) -> "KLMeasure":
        """Build from {"lambda": "j^-2a" | [values], "alpha": a, "J": J, "law": ...}."""
        lam = cfg["lambda"]
        law = cfg.get("law", "gaussian")
        if isinstance(lam, str):
            if lam != "j^-2a":
                raise ValueError(f"unknown eigenvalue rule {lam!r}")
            alpha = float(cfg["alpha"])
            j_max = int(cfg["J"])
            ev = np.arange(1, j_max + 1, dtype=float) ** (-2.0 * alpha)
        else:
            ev = np.asarray(lam, dtype=float)
        try:
            return cls(ev, law)
        except ValueError as err:  # e.g. an increasing explicit list
            raise ConfigError(f"kl: {err}") from err


def sample(measure: KLMeasure, seed: int, count: int,
           stream_id: int = STREAM_KL_SAMPLE) -> np.ndarray:
    """(count, J) array of KL coefficients u_j = sqrt(lambda_j) Z_j.

    Deterministic per (seed, stream_id); rows are i.i.d. draws.
    """
    if count < 1:
        raise ValueError("count must be positive")
    return _draw_scaled(measure, stream(seed, stream_id), count)


def _draw_scaled(measure: KLMeasure, rng: np.random.Generator,
                 count: int) -> np.ndarray:
    """The next count rows of rng's KL coefficients, scaled in place."""
    coeffs = measure.draw_z(rng, count)
    coeffs *= measure.sqrt_ev
    return coeffs


def synthesize_torus(coeffs: np.ndarray, resolution: int) -> np.ndarray:
    """Realize coefficient rows as functions on the 1-periodic interval.

    Basis: e_1 = 1, e_{2m} = sqrt(2) cos(2 pi m x), e_{2m+1} = sqrt(2)
    sin(2 pi m x) - orthonormal in L^2([0,1]).  For resolution above twice
    the highest mode, the grid mean of u^2 equals sum_j u_j^2 exactly
    (discrete orthogonality of trigonometric polynomials).
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    j_max = coeffs.shape[1]
    x = np.arange(resolution) / resolution
    basis = np.empty((j_max, resolution))
    basis[0] = 1.0
    for j in range(1, j_max):
        m = (j + 1) // 2
        phase = 2 * math.pi * m * x
        basis[j] = math.sqrt(2) * (np.cos(phase) if j % 2 == 1 else np.sin(phase))
    return coeffs @ basis


def cdf_map(measure: KLMeasure, coeffs: np.ndarray, dim: int) -> np.ndarray:
    """First dim coordinates of h_d; each is marginally Uniform(0,1)."""
    if dim < 1 or dim > measure.truncation:
        raise DimensionExceedsTruncation(
            f"dim {dim} outside [1, J={measure.truncation}]")
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    z = coeffs[:, :dim] / measure.sqrt_ev[None, :dim]
    return measure.cdf(z)


class GridFunction01:
    """Node values on a uniform grid over [0,1]^d with multilinear interpolation."""

    def __init__(self, dim: int, values, lipschitz: Optional[float] = None):
        self.dim = dim
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != dim:
            raise ValueError(f"values must be {dim}-dimensional")
        res = self.values.shape[0] - 1
        if res < 1 or self.values.shape != (res + 1,) * dim:
            raise ValueError("values must be (res+1)^d node samples")
        self.lipschitz = lipschitz

    @property
    def res(self) -> int:
        return self.values.shape[0] - 1

    @classmethod
    def from_callable(cls, fn: Callable, dim: int, res: int,
                      lipschitz: Optional[float] = None) -> "GridFunction01":
        axes = [np.arange(res + 1) / res] * dim
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        vals = np.asarray(fn(pts), dtype=float).reshape((res + 1,) * dim)
        return cls(dim, vals, lipschitz)

    @classmethod
    def constant(cls, value: float, dim: int = 1) -> "GridFunction01":
        return cls(dim, np.full((2,) * dim, float(value)), lipschitz=0.0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.dim:
            raise ValueError(f"points must have {self.dim} coordinates")
        t = np.clip(x, 0.0, 1.0) * self.res
        i0 = np.minimum(t.astype(int), self.res - 1)
        frac = t - i0
        out = np.zeros(len(x))
        for corner in itertools.product((0, 1), repeat=self.dim):
            w = np.ones(len(x))
            for axis, bit in enumerate(corner):
                w *= frac[:, axis] if bit else 1.0 - frac[:, axis]
            idx = tuple(i0[:, axis] + corner[axis] for axis in range(self.dim))
            out += w * self.values[idx]
        return out

    def quadrature_abs_pow(self, p: float, refine: int = 8) -> float:
        """Midpoint quadrature of |f|^p on a refine-times-finer aligned grid.

        Refined cells sit inside single interpolation cells, so the only
        quadrature error comes from the curvature of |.|^p and shrinks
        like refine^-2.  p must satisfy 1 <= p < inf and refine must be an
        integer >= 1; anything else raises ValueError.

        The value is np.mean of |f|^p over the whole (refine * res)^d
        midpoint grid, bit for bit, but that grid is never held: numpy's
        pairwise sum is taken in leaves of at most QUAD_LEAF points, and
        each leaf computes only the points it touches (see _leaf_sum), and
        skips the lines whose node rows are all zero.
        """
        if not 1 <= p < math.inf:
            raise ValueError("p must be finite and >= 1")
        if (not isinstance(refine, numbers.Integral)
                or isinstance(refine, bool) or refine < 1):
            raise ValueError(f"refine must be an integer >= 1, got {refine!r}")
        m = self.res * int(refine)
        n = m ** self.dim
        live_rows = np.any(self.values.reshape(-1, self.res + 1) != 0, axis=1)
        scratch: list = []
        total = _pairwise_sum(0, n, lambda lo, hi: _leaf_sum(
            self.values, live_rows, p, m, lo, hi, scratch))
        # np.mean divides the pairwise sum by the count
        return float(total / n)


def _axis_weights(res: int, m: int, index: np.ndarray):
    """Cell index i0 and per-bit weights (1 - frac, frac) of the midpoints
    `index` of m refined cells on one axis of a res-cell grid.

    The midpoint mesh is a product grid, so GridFunction01.__call__'s
    per-point cell index and weights are these per-axis arrays, value for
    value.
    """
    mids = (index + 0.5) / m
    t = np.clip(mids, 0.0, 1.0) * res
    i0 = np.minimum(t.astype(int), res - 1)
    frac = t - i0
    return i0, (1.0 - frac, frac)


def _leaf_sum(values: np.ndarray, live_rows: np.ndarray, p: float, m: int,
              lo: int, hi: int, scratch: list) -> float:
    """np.add.reduce of |f|^p at the points lo..hi-1, in C order, of the
    (m,)*d midpoint grid of m refined cells per axis, f's node values given.

    The grid is read as lines along the last axis.  The leaf computes the
    lines it touches, or only its own columns when it lies inside one
    line.  Corners are combined in GridFunction01.__call__'s order, so
    each value is pointwise evaluation bit for bit.  live_rows marks the
    node rows along the last axis that hold a nonzero value; a line whose
    corner rows are all unmarked is left at +0.0 without being computed.
    scratch keeps the leaf-sized buffers from one leaf to the next.
    """
    res = values.shape[0] - 1
    first, last = lo // m, (hi - 1) // m
    start, stop = (lo - first * m, hi - first * m) if first == last else (0, m)
    # each line's midpoint index on the leading axes, axis 0 first
    lines, heads = np.arange(first, last + 1), []
    for _ in range(values.ndim - 1):
        lines, index = np.divmod(lines, m)
        heads.insert(0, index)
    # head weight and node row per leading-axis corner (rows, in
    # itertools.product order) and per line (columns)
    count = last - first + 1
    w, row = np.ones((1, count)), np.zeros((1, count), dtype=np.intp)
    for index in heads:
        head_i0, head_factors = _axis_weights(res, m, index)
        w = (w[:, None] * np.stack(head_factors)).reshape(-1, count)
        row = (row[:, None] * (res + 1) + head_i0
               + np.arange(2)[:, None]).reshape(-1, count)
    # the weights are >= 0 and the nodes of a skipped line are +-0, so
    # every product the line would add is +-0 and its sum stays at +0.0
    live = live_rows[row].any(axis=0)
    if not live.any():
        return 0.0
    dense = live.all()
    if not dense:
        w, row = w[:, live], row[:, live]
    i0, factors = _axis_weights(res, m, np.arange(start, stop))
    # only the node rows the lines read, and only their columns
    top = int(row[0].min())
    rows = values.reshape(-1, res + 1)[top:int(row[-1].max()) + 1]
    table = [rows.take(i0 + bit, axis=1) for bit in (0, 1)]
    size = count * (stop - start)
    if not scratch or scratch[0].size < size:
        scratch[:] = [np.empty(size) for _ in range(3)]
    computed = row.shape[1] * (stop - start)
    out, term, nodes = (b[:computed].reshape(-1, stop - start)
                        for b in scratch)
    out.fill(0.0)
    for head_w, head_row in zip(w, row - top):
        for bit in (0, 1):
            # the outer product head_w * factors[bit]: einsum, faster than
            # a broadcast multiply over short lines, adds each product to
            # +0.0, which can change only a zero's sign, and the sums into
            # out (from +0.0) never show a zero's sign
            np.einsum("i,j->ij", head_w, factors[bit], out=term)
            # head_row is in range; mode "raise" would buffer the output
            np.take(table[bit], head_row, axis=0, out=nodes, mode="clip")
            term *= nodes
            out += term
    np.abs(out, out=out)
    out **= p
    if not dense:
        # term's buffer is free again: the whole leaf, skipped lines +0.0
        full = scratch[1][:size].reshape(count, -1)
        full.fill(0.0)
        full[live] = out
        out = full
    offset = first * m + start
    return np.add.reduce(out.ravel()[lo - offset:hi - offset])


def _pairwise_sum(lo: int, hi: int, leaf: Callable[[int, int], float]) -> float:
    """numpy's pairwise sum of elements lo..hi-1, its leaves summed by leaf.

    Above 128 elements numpy's float64 add.reduce splits n
    elements at n2 = n // 2 rounded down to a multiple of 8 and adds the
    halves' sums (Higham, SIAM J. Sci. Comput. 14(4), 1993).  This
    recursion makes the same splits down to nodes of at most QUAD_LEAF
    elements, each a node of that tree; so when leaf(a, b) is
    np.add.reduce of a contiguous copy of elements a..b-1, the result is
    np.add.reduce of the whole range, bit for bit.
    """
    n = hi - lo
    if n <= QUAD_LEAF:
        return float(leaf(lo, hi))
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_sum(lo, lo + n2, leaf) + _pairwise_sum(lo + n2, hi, leaf)


@dataclass
class EmbeddedFunctional:
    """u -> scale * f(h_d(u)); evaluation stays within scale * range(f)."""

    f: GridFunction01
    measure: KLMeasure
    scale: float = 1.0

    def __post_init__(self):
        if self.f.dim > self.measure.truncation:
            raise DimensionExceedsTruncation(
                f"f needs {self.f.dim} coordinates, measure truncated at "
                f"{self.measure.truncation}")

    @property
    def dim(self) -> int:
        return self.f.dim

    @property
    def lipschitz_bound(self) -> Optional[float]:
        """Declared transport bound scale * lip(f) * L / sqrt(lambda_d)."""
        if self.f.lipschitz is None:
            return None
        lam_d = float(self.measure.eigenvalues[self.dim - 1])
        return abs(self.scale) * self.f.lipschitz * self.measure.density_bound / math.sqrt(lam_d)

    def scaled(self, factor: float) -> "EmbeddedFunctional":
        return EmbeddedFunctional(self.f, self.measure, self.scale * factor)

    def __call__(self, coeffs: np.ndarray) -> np.ndarray:
        return self.scale * self.f(cdf_map(self.measure, coeffs, self.dim))


def embed(f: GridFunction01, measure: KLMeasure) -> EmbeddedFunctional:
    return EmbeddedFunctional(f, measure)


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    stderr: float
    moment: float
    moment_stderr: float
    n_samples: int


class McDraws:
    """lp_norm_mc's coefficient streams for several seeds, drawn ahead on
    worker threads.

    Inside its with block, the pool's min(len(seeds), usable CPUs) worker
    threads draw each seed's stream(seed, STREAM_MC_NORM) in row blocks of
    MC_DRAW_BLOCK_BYTES and keep the leading `columns` scaled coefficients
    z[:, :columns] * sqrt_ev[:columns], the values lp_norm_mc would compute
    for those columns.  take(seed) returns that (n_samples, columns) array
    once it is drawn; pass the object as lp_norm_mc(..., draws=...).

    Seeds are drawn in their given order, at most one more than there are
    workers ahead of the last take, so the buffers held stay few whatever
    the number of seeds.  Buffers are allocated on the calling thread.
    Workers run only rng.stream, KLMeasure.draw_z and the product above;
    every traced library call (lp_norm_mc, cdf_map, quadrature) stays on
    the calling thread, whose span stack and counters a tracer may keep
    unsynchronised.  A worker's exception is raised by take.  Leaving the
    block joins the workers, and what it raises does not depend on thread
    timing: after an exception in the block, or once a take has raised,
    it cancels the draws not started and raises nothing more; otherwise
    it waits for every draw submitted and raises the first failure, in
    the seeds' given order, of a seed not taken.
    """

    def __init__(self, measure: KLMeasure, n_samples: int, seeds,
                 columns: int):
        seeds = [int(s) for s in seeds]
        if not seeds:
            raise ValueError("need at least one seed")
        if len(set(seeds)) != len(seeds):
            raise ValueError("seeds must be distinct")
        if n_samples < 1:
            raise ValueError("n_samples must be positive")
        if not 1 <= columns <= measure.truncation:
            raise ValueError(
                f"columns {columns} outside [1, J={measure.truncation}]")
        self.measure = measure
        self.n_samples = n_samples
        self.columns = columns
        self.seeds = seeds
        self.workers = min(len(seeds), _usable_cpus())
        self._pool = None   # a ThreadPoolExecutor while entered
        self._next = 0      # index of the next seed to submit
        self._jobs: dict = {}
        self._taken: set = set()
        self._take_failed = False

    def __enter__(self) -> "McDraws":
        if self._pool is not None or self._next:
            raise RuntimeError("McDraws is entered once")
        # imported here: nothing else in the package needs concurrent.futures
        from concurrent.futures import ThreadPoolExecutor
        self._pool = ThreadPoolExecutor(self.workers,
                                        thread_name_prefix="entrokit-mc")
        for _ in range(self.workers + 1):
            self._submit_next()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        quiet = exc_type is not None or self._take_failed
        self._pool.shutdown(wait=True, cancel_futures=quiet)
        self._pool = None
        jobs, self._jobs = self._jobs, {}
        if not quiet:
            # submitted in the seeds' given order
            for future, _ in jobs.values():
                future.result()

    def _submit_next(self) -> None:
        if self._next == len(self.seeds):
            return
        seed = self.seeds[self._next]
        self._next += 1
        out = np.empty((self.n_samples, self.columns))
        self._jobs[seed] = (self._pool.submit(
            _draw_columns, self.measure, seed, out), out)

    def take(self, seed: int) -> np.ndarray:
        """The (n_samples, columns) scaled coefficients of seed, once."""
        if self._pool is None:
            raise RuntimeError("McDraws.take outside its with block")
        if seed in self._taken:
            raise ValueError(f"seed {seed} was already taken")
        if seed not in self.seeds:
            raise ValueError(f"seed {seed} is not one of the drawn seeds")
        while seed not in self._jobs:
            self._submit_next()
        future, out = self._jobs.pop(seed)
        self._taken.add(seed)
        self._submit_next()
        try:
            future.result()
        except BaseException:
            self._take_failed = True
            raise
        return out


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _draw_columns(measure: KLMeasure, seed: int, out: np.ndarray) -> None:
    """Fill out with the leading columns of seed's scaled MC coefficients."""
    rng = stream(seed, STREAM_MC_NORM)
    rows = max(1, MC_DRAW_BLOCK_BYTES // (8 * measure.truncation))
    columns = out.shape[1]
    for lo in range(0, len(out), rows):
        z = measure.draw_z(rng, min(rows, len(out) - lo))
        np.multiply(z[:, :columns], measure.sqrt_ev[:columns],
                    out=out[lo:lo + len(z)])


def lp_norm_mc(functional: Callable, measure: KLMeasure, p: float,
               n_samples: int, seed: int, *,
               draws: Optional[McDraws] = None) -> McEstimate:
    """Monte-Carlo estimate of (E |G(u)|^p)^(1/p) with delta-method stderr.

    The draws come from one stream(seed, STREAM_MC_NORM) generator, in
    consecutive row blocks of at most MC_BLOCK_BYTES of coefficients, each
    mapped and released before the next is drawn.  A Philox stream
    continues across calls, so the blocks are the rows of
    sample(measure, seed, n_samples, STREAM_MC_NORM) in order, and the
    estimate does not depend on the block size, provided functional maps
    a (rows, J) coefficient array to one value per row that depends only
    on that row.  A result of any other shape raises ValueError.

    With draws (an McDraws of this measure object and n_samples, inside
    its with block), the rows come from draws.take(seed) in the same row
    blocks, and the functional sees only their leading draws.columns
    coordinates; for a functional that reads no others the estimate is the
    same, bit for bit.
    """
    if not 1 <= p < math.inf:
        raise ValueError("p must be finite and >= 1")
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    rows = max(1, MC_BLOCK_BYTES // (8 * measure.truncation))
    if draws is None:
        rng = stream(seed, STREAM_MC_NORM)
    else:
        if draws.measure is not measure:
            raise ValueError("draws were made for another measure")
        if draws.n_samples != n_samples:
            raise ValueError(f"draws hold {draws.n_samples} samples, "
                             f"not {n_samples}")
        coeffs = draws.take(seed)
    y = np.empty(n_samples)
    for lo in range(0, n_samples, rows):
        count = min(rows, n_samples - lo)
        if draws is None:
            block = _draw_scaled(measure, rng, count)
        else:
            block = coeffs[lo:lo + count]
        values = np.asarray(functional(block), dtype=float)
        if values.shape != (count,):
            raise ValueError(
                f"functional must return one value per row: got shape "
                f"{values.shape} for {count} rows")
        np.abs(values, out=y[lo:lo + count])
        # release this block before the next is drawn, so that only one
        # is ever alive
        del block, values
    # |.|^p over all of y at once, the array a single draw would give
    y **= p
    moment = float(np.mean(y))
    # constant functionals wiggle by ulps through interpolation; that is
    # zero variance, not sampling noise
    if float(np.ptp(y)) <= 1e-14 * (1.0 + float(np.max(np.abs(y)))):
        return McEstimate(moment ** (1.0 / p), 0.0, moment, 0.0, n_samples)
    moment_se = float(np.std(y, ddof=1) / math.sqrt(n_samples))
    estimate = moment ** (1.0 / p)
    if moment > 0:
        stderr = (1.0 / p) * moment ** (1.0 / p - 1.0) * moment_se
    else:
        stderr = 0.0
    return McEstimate(estimate, stderr, moment, moment_se, n_samples)


@dataclass(frozen=True)
class IsometryReport:
    mc_moment: float
    quad_moment: float
    zscore: float
    mc: McEstimate

    @property
    def consistent(self) -> bool:
        return abs(self.zscore) <= 3.0


def isometry_check(f: GridFunction01, measure: KLMeasure, p: float,
                   n_samples: int, seed: int, refine: int = 8) -> IsometryReport:
    """Compare the p-th moment of f o h_d under mu with cube quadrature.

    zscore is on the moment scale; a degenerate stderr with matching sides
    (constant f) reports zscore 0.
    """
    emb = embed(f, measure)
    mc = lp_norm_mc(emb, measure, p, n_samples, seed)
    quad = f.quadrature_abs_pow(p, refine=refine)
    z = moment_zscore(mc.moment, quad, mc.moment_stderr)
    return IsometryReport(mc.moment, quad, z, mc)


def moment_zscore(mc_moment: float, reference: float, stderr: float) -> float:
    """(mc - reference) / stderr, with roundoff-level agreement scoring 0."""
    if abs(mc_moment - reference) <= 1e-12 * (1.0 + abs(reference)):
        return 0.0
    if stderr > 0:
        return (mc_moment - reference) / stderr
    return math.inf if mc_moment > reference else -math.inf


def transport_quotient_max(emb: EmbeddedFunctional, n_pairs: int,
                           seed: int) -> float:
    """Max sampled difference quotient |G(u) - G(v)| / ||u - v||_2."""
    coeffs = sample(emb.measure, seed, 2 * n_pairs, stream_id=STREAM_TRANSPORT)
    u, v = coeffs[:n_pairs], coeffs[n_pairs:]
    num = np.abs(emb(u) - emb(v))
    den = np.linalg.norm(u - v, axis=1)
    keep = den > 0
    if not keep.any():
        return 0.0
    return float(np.max(num[keep] / den[keep]))
