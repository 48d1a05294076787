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

Both isometry checks, embed-check's (isometry_check) and the expectation
chain's, run through isometry_checks, the package's one caller of
draw_ahead and lp_norm_mc.

Monte-Carlo norms read one Philox stream per seed.  draw_ahead draws
whole seeds on worker threads; given one Gaussian seed (embed-check's)
and more than one usable CPU, it splits that stream instead, in segments
at fixed raw-word offsets, which a counter-based generator reaches
directly, and stitches them where OVERLAP values of a segment equal a
run of its predecessor's bit for bit: two parses of one word stream that
share the start of a value agree from there on, so the result is the
serial draw, bit for bit.  Both modes run on one in-order queue
(_in_order), write scaled values through one writer (_place), and keep
one buffer rule: workers write only buffers allocated on the calling
thread (see draw_ahead).
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import math
import numbers
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (ConfigError, DimensionExceedsTruncation,
                     SizeLimitExceeded)
from .rng import (STREAM_KL_SAMPLE, STREAM_MC_NORM, STREAM_TRANSPORT, stream)

_SQRT3 = math.sqrt(3.0)

# lp_norm_mc draws its coefficients in row blocks of this many bytes
# (2,048 rows at J = 64), one block alive at a time, so its memory does
# not grow with n_samples
MC_BLOCK_BYTES = 1 << 20
# draw_ahead draws a whole seed in row blocks of SEGMENT values (one row
# at least), and splits one Gaussian seed's stream over SPLIT_WORKERS
# workers in segments of about SEGMENT raw words (256 KiB of values: 2^14
# words paid more per segment than the split saved, and 2^16 broke the
# shipped embed-check's 3 MiB memory bound), each drawing OVERLAP values
# more, which are also the run two segments must share to be joined
SPLIT_WORKERS = 2
SEGMENT = 1 << 15
OVERLAP = 64
# refusal limits of one seed's Monte-Carlo run (check_mc_budget), from the
# CLI's embed-check on a 2-vCPU x86-64 VM: 2^28 coordinates drawn (4M
# samples at J = 64) took 3.5 s at 147 MB peak RSS, so the 2^30 allowed
# take about 14 s; 256 MB held (16M samples of one column) took 1.7 s at
# 423 MB peak RSS, since np.std adds one more value per sample
MC_WORD_BUDGET = 1 << 30
MC_BYTE_BUDGET = 1 << 28
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

    def draw_z(self, rng: np.random.Generator, count: int,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        """The next count rows of rng's standard coordinates, (count, J),
        written into out when it is given (a (count, J) float64 array).

        A uniform coordinate is u * (high - low) + low of one double u,
        the product and sum Generator.uniform(low, high) computes, taken
        here as two ufunc steps, so no bit depends on whether a compiler
        fused them.
        """
        shape = (count, self.truncation)
        if out is None:
            out = np.empty(shape)
        if self.law == "gaussian":
            return rng.standard_normal(shape, out=out)
        rng.random(shape, out=out)
        out *= 2 * _SQRT3
        out -= _SQRT3
        return out

    @staticmethod
    def config_truncation(cfg: dict) -> int:
        """J of a KL config, read before its eigenvalues are built."""
        lam = cfg["lambda"]
        return int(cfg["J"]) if isinstance(lam, str) else len(lam)

    @classmethod
    def from_config(cls, cfg: dict) -> "KLMeasure":
        """Build from {"lambda": "j^-2a" | [values], "alpha": a, "J": J, "law": ...}."""
        lam = cfg["lambda"]
        law = cfg.get("law", "gaussian")
        if isinstance(lam, str):
            if lam != "j^-2a":
                raise ValueError(f"unknown eigenvalue rule {lam!r}")
            alpha = float(cfg["alpha"])
            j_max = cls.config_truncation(cfg)
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


@dataclass(frozen=True, eq=False)
class McDraw:
    """The leading columns of seed's scaled MC coefficients under measure."""

    seed: int
    measure: KLMeasure
    coeffs: np.ndarray


@contextlib.contextmanager
def draw_ahead(measure: KLMeasure, n_samples: int, seeds, columns: int):
    """An iterator of one McDraw per seed, in the seeds' order, drawn ahead
    by worker threads.

    Several seeds, or one on a single usable CPU, or one of the uniform
    law: min(len(seeds), usable CPUs) workers each run _draw_seed on one
    seed, a block of SEGMENT values at a time, at most workers + 1 seeds
    ahead of the iterator.

    One Gaussian seed with more than one usable CPU (embed-check's draw):
    SPLIT_WORKERS workers run _draw_segment.  Segment i starts at raw
    Philox word i * stride (a multiple of 4, one counter block), which the
    counter-based generator reaches directly, and draws SEGMENT + OVERLAP
    or more values, rounded up to whole rows.  numpy's Gaussian ziggurat
    reads a varying number of words per value, so a segment's own parse
    of its words meets the stream's true parse a value or two after its
    start.  The calling thread joins each segment to its predecessor at
    the first of its leading values from which OVERLAP values equal, bit
    for bit, a run of the predecessor's values (see _join).  That is the
    serial draw, bit for bit: each value is a function of the words from
    its first one on, so two parses that share the start of one value
    agree from there on, and before they meet they read different words,
    so a false join would need OVERLAP values to coincide by chance, each
    with a probability near 2^-53.  Where no run agrees, or the segments
    end short of the seed's values, the predecessor's generator, which
    stands at a value boundary of the true parse, is continued serially
    on the calling thread.  At most SPLIT_WORKERS + 2 segment buffers are
    alive at once, and none once the McDraw is yielded.  The stitching,
    not the draw, bounds the split, so more workers would add threads and
    buffers but no speed; and a uniform value is so cheap that its split
    measured no faster than the serial draw.

    Both modes run on one queue, _in_order, which submits every task from
    the calling thread and hands the results out in order; one writer,
    _place, which scales the leading columns with sample's products; and
    one buffer rule: every buffer a worker writes, draw and block alike,
    is allocated on the calling thread.  Traced calls (lp_norm_mc,
    cdf_map, quadrature) stay on the calling thread, whose span stack and
    counters a tracer may keep unsynchronised.  A worker's exception is
    raised when its draw is reached.  Leaving the block joins the workers,
    which finish the draws already submitted, and raises nothing of its
    own.  A draw past the Monte-Carlo budgets raises SizeLimitExceeded
    before anything is allocated (check_mc_budget).
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    if not 1 <= columns <= measure.truncation:
        raise ValueError(
            f"columns {columns} outside [1, J={measure.truncation}]")
    check_mc_budget(measure.truncation, n_samples, columns)
    # imported here: nothing else in the package needs concurrent.futures
    from concurrent.futures import ThreadPoolExecutor
    cpus = _usable_cpus()
    split = len(seeds) == 1 and cpus > 1 and measure.law == "gaussian"
    workers = SPLIT_WORKERS if split else min(len(seeds), cpus)
    with ThreadPoolExecutor(workers, thread_name_prefix="entrokit-mc") as pool:
        if split:
            yield _split_draw(pool, measure, n_samples, seeds[0], columns)
            return
        rows = max(1, SEGMENT // measure.truncation)
        yield _in_order((pool.submit(
            _draw_seed, McDraw(seed, measure, np.empty((n_samples, columns))),
            np.empty((rows, measure.truncation))) for seed in seeds),
            workers + 1)


def _in_order(submitted, ahead: int):
    """An iterator of the results of the futures that submitted yields, in
    its order.  submitted is advanced ahead times before this returns, and
    once more each time a result is asked for, before that result is
    awaited; so every task, and every buffer made for one, is submitted on
    the thread that reads the results."""
    jobs = collections.deque(itertools.islice(submitted, ahead))

    def results():
        while jobs:
            jobs.extend(itertools.islice(submitted, 1))
            yield jobs.popleft().result()

    return results()


def _split_draw(pool, measure: KLMeasure, n_samples: int, seed: int,
                columns: int):
    """draw_ahead's iterator of seed's one McDraw, its stream split in
    segments; the first SPLIT_WORKERS are submitted before it returns."""
    j_max = measure.truncation
    total = n_samples * j_max
    rows = -(-(SEGMENT + OVERLAP) // j_max)
    stride = (rows * j_max - OVERLAP) // 4 * 4
    if n_samples <= rows:
        rows, count = n_samples, 1
    else:
        # the Gaussian ziggurat reads about 2.2% more words than it gives
        # values, so 1/32 more segments than words; what they still leave
        # is drawn serially
        count = -(-total * 33 // (32 * stride))
    segments = _in_order((pool.submit(
        _draw_segment, measure, seed, index, stride, np.empty((rows, j_max)))
        for index in range(count)), SPLIT_WORKERS)

    def stitched():
        draw = McDraw(seed, measure, np.empty((n_samples, columns)))
        # the values placed so far; the last joined segment's values from
        # its join on, its buffer and its generator
        placed, last, serial = 0, None, False
        for buf, rng in segments:
            if last is None:
                last, last_buf, last_rng = buf.reshape(-1), buf, rng
            elif not serial and placed + len(last) < total:
                join = _join(last, buf.reshape(-1))
                serial = join is None
                if not serial:
                    placed = _place(draw.coeffs, measure.sqrt_ev, placed,
                                    last[:join[0]])
                    last = buf.reshape(-1)[join[1]:]
                    last_buf, last_rng = buf, rng
            # release this buffer, unless it is the last joined one,
            # before the next is submitted: at most SPLIT_WORKERS + 2 alive
            del buf, rng
        placed = _place(draw.coeffs, measure.sqrt_ev, placed, last)
        while placed < total:
            measure.draw_z(last_rng, rows, out=last_buf)
            placed = _place(draw.coeffs, measure.sqrt_ev, placed,
                            last_buf.reshape(-1))
        del last, last_buf, last_rng
        yield draw

    return stitched()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _draw_seed(draw: McDraw, block: np.ndarray) -> McDraw:
    """Fill draw's coefficients from its seed's MC stream, drawn into
    block's rows a block at a time; return draw."""
    rng = stream(draw.seed, STREAM_MC_NORM)
    n, j_max = len(draw.coeffs), draw.measure.truncation
    for lo in range(0, n, len(block)):
        z = block[:n - lo]
        draw.measure.draw_z(rng, len(z), out=z)
        _place(draw.coeffs, draw.measure.sqrt_ev, lo * j_max, z.reshape(-1))
    return draw


def _draw_segment(measure: KLMeasure, seed: int, index: int, stride: int,
                  out: np.ndarray):
    """Fill out's rows with standard coordinates of seed's MC stream from
    raw word index * stride on; return out and the generator, which
    continues it."""
    rng = stream(seed, STREAM_MC_NORM)
    rng.bit_generator.advance(index * stride // 4)
    measure.draw_z(rng, len(out), out=out)
    return out, rng


def _join(last: np.ndarray, values: np.ndarray):
    """(k, j) for the first j < OVERLAP such that values[j:j + OVERLAP]
    equals last[k:k + OVERLAP] bit for bit, or None.

    Equality is taken on the uint64 views, since == equates +0 and -0.
    The join lies a few percent of a segment before last's end, so the
    last eighth of last is searched before the rest.
    """
    a, b = last.view(np.uint64), values.view(np.uint64)
    end = len(a) - OVERLAP + 1
    if end < 1:
        return None
    near = max(0, end - len(a) // 8 - OVERLAP)
    for lo, hi in ((near, end), (0, near)):
        for j in range(OVERLAP):
            for k in np.flatnonzero(a[lo:hi] == b[j]) + lo:
                if np.array_equal(a[k:k + OVERLAP], b[j:j + OVERLAP]):
                    return int(k), j
    return None


def _place(coeffs: np.ndarray, sqrt_ev: np.ndarray, at: int,
           values: np.ndarray) -> int:
    """Write a stream's standard values, the first at flat position at of
    its (n, J) draw, scaled, into coeffs' leading columns, up to the end of
    the draw; return the position after the last one written.  The one
    writer of draw_ahead's scaled values, in both of its modes."""
    n, columns = coeffs.shape
    j_max = len(sqrt_ev)
    values = values[:n * j_max - at]
    end = at + len(values)
    row, col = divmod(at, j_max)
    if col:
        head = min(columns, col + len(values))
        if col < head:
            np.multiply(values[:head - col], sqrt_ev[col:head],
                        out=coeffs[row, col:head])
        values = values[j_max - col:]
        row += 1
    full = len(values) // j_max
    np.multiply(values[:full * j_max].reshape(full, j_max)[:, :columns],
                sqrt_ev[:columns], out=coeffs[row:row + full])
    rest = values[full * j_max:]
    if len(rest):
        head = min(columns, len(rest))
        np.multiply(rest[:head], sqrt_ev[:head], out=coeffs[row + full, :head])
    return end


def check_mc_budget(truncation: int, n_samples: int, columns: int) -> None:
    """Raise SizeLimitExceeded when one seed's Monte-Carlo run is past the
    budgets: n_samples * J coordinates drawn, or n_samples * (columns + 1)
    float64 values held (columns kept by a draw, one value per sample)."""
    words = n_samples * truncation
    if words > MC_WORD_BUDGET:
        raise SizeLimitExceeded(
            f"{n_samples} samples of J = {truncation} coordinates draw "
            f"{words} values per seed, above the budget of {MC_WORD_BUDGET}")
    held = 8 * n_samples * (columns + 1)
    if held > MC_BYTE_BUDGET:
        raise SizeLimitExceeded(
            f"{n_samples} samples keeping {columns} columns hold {held} "
            f"bytes, above the budget of {MC_BYTE_BUDGET}")


def lp_norm_mc(functional: Callable, measure: KLMeasure, p: float,
               n_samples: int, seed: int, *,
               draws: Optional[McDraw] = None) -> McEstimate:
    """Monte-Carlo estimate of (E |G(u)|^p)^(1/p) with delta-method stderr.

    The draws come from one stream(seed, STREAM_MC_NORM) generator, in
    consecutive row blocks of at most MC_BLOCK_BYTES of coefficients, each
    mapped and released before the next is drawn.  A Philox stream
    continues across calls, so the blocks are the rows of
    sample(measure, seed, n_samples, STREAM_MC_NORM) in order, and the
    estimate does not depend on the block size, provided functional maps
    a (rows, J) coefficient array to one value per row that depends only
    on that row.  A result of any other shape raises ValueError.

    With draws (an McDraw of this measure object, n_samples rows and this
    seed, from draw_ahead), the rows come from draws.coeffs in the same
    row blocks, and the functional sees only their leading columns; for a
    functional that reads no others the estimate is the same, bit for bit.
    """
    if not 1 <= p < math.inf:
        raise ValueError("p must be finite and >= 1")
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    # sized for J on the draws= path too: rows sized for draws' columns
    # would span all 100,000 samples of the shipped embed-check, and the
    # functional's temporaries with them (tracemalloc peak 3.48 -> 9.09 MB)
    rows = max(1, MC_BLOCK_BYTES // (8 * measure.truncation))
    if draws is None:
        check_mc_budget(measure.truncation, n_samples, 0)
        rng = stream(seed, STREAM_MC_NORM)
    else:
        if draws.measure is not measure:
            raise ValueError("draws were made for another measure")
        if len(draws.coeffs) != n_samples:
            raise ValueError(f"draws hold {len(draws.coeffs)} samples, "
                             f"not {n_samples}")
        if draws.seed != seed:
            raise ValueError(f"draws are seed {draws.seed}'s stream, "
                             f"not seed {seed}'s")
        coeffs = draws.coeffs
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
    # past the early return a finite y has max(y) > 1e-14, so its mean is
    # positive
    stderr = (1.0 / p) * moment ** (1.0 / p - 1.0) * moment_se
    return McEstimate(estimate, stderr, moment, moment_se, n_samples)


@dataclass(frozen=True)
class IsometryReport:
    mc_moment: float
    quad_moment: float
    zscore: float
    mc: McEstimate

    @classmethod
    def from_mc(cls, mc: McEstimate, reference: float) -> "IsometryReport":
        """mc's p-th moment scored against a reference moment."""
        z = moment_zscore(mc.moment, reference, mc.moment_stderr)
        return cls(mc.moment, reference, z, mc)

    @property
    def consistent(self) -> bool:
        """The isometry gate: the moments agree within 3 standard errors."""
        return abs(self.zscore) <= 3.0


def isometry_checks(functionals, p: float, n_samples: int, seeds) -> list:
    """One IsometryReport per EmbeddedFunctional of a sequence, all on one
    measure, in order: its Monte-Carlo p-th moment on its seed's stream,
    drawn ahead while the references are computed, against scale^p times
    the cube quadrature of |f|^p."""
    if not seeds or len(seeds) != len(functionals):
        raise ValueError("need one seed per functional, and at least one")
    reports = []
    with draw_ahead(functionals[0].measure, n_samples, seeds,
                    max(emb.dim for emb in functionals)) as draws:
        references = [emb.scale**p * emb.f.quadrature_abs_pow(p)
                      for emb in functionals]
        for emb, seed, reference, draw in zip(functionals, seeds,
                                              references, draws):
            # a functional of another measure fails lp_norm_mc's check
            mc = lp_norm_mc(emb, emb.measure, p, n_samples, seed, draws=draw)
            reports.append(IsometryReport.from_mc(mc, reference))
    return reports


def isometry_check(f: GridFunction01, measure: KLMeasure, p: float,
                   n_samples: int, seed: int) -> IsometryReport:
    """isometry_checks on embed(f, measure): the p-th moment of f o h_d
    under mu against cube quadrature; zscore is on the moment scale, and a
    constant f (degenerate stderr, matching sides) reports zscore 0."""
    return isometry_checks([embed(f, measure)], p, n_samples, [seed])[0]


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
