"""Uniform parameter quantization with bit-budget and Lipschitz accounting.

Desk-scale mode materializes an actual grid on [-M, M]^q and certifies the
induced operator deviation against a supplied Lipschitz estimate.  The
asymptotic budget mode never materializes grids: its spacings underflow
any float for moderate q, so everything is carried in log2 space and only
bit counts are produced.

The operator-level Lipschitz bound used throughout is

    Lip <= (L + 2) (2 d_c M)^(L+2) (C + (2 kappa)^(d/2)),

returned as log2 to stay overflow-safe.  C depends on the input family
and is a calibration constant, never asserted as ground truth; the shipped
procedure sets it to twice the empirically measured prefactor on a
reference configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import BudgetExceeded, OutOfRange
# forward is not called here; bench/tests/test_bench_spans.py traces it here
from .fno import (FnoHyper, FnoParams, GridFunction, check_theta_bytes,
                  checked_layout_length, empirical_lipschitz, forward,
                  forward_batch, param_count, super_arch)
from .metricspace import dictionary_minimax_error
from .rng import STREAM_SWEEP_DICT, stream

LOG2_E = math.log2(math.e)
EXHAUSTIVE_DICT_LIMIT = 1 << 14
EVALUATION_CAP = 1 << 20


@dataclass(frozen=True)
class QuantGrid:
    """Uniform grid of spacing delta covering [-M, M], centered at 0.

    Centering makes the worst-case rounding error delta/2 for every
    admissible delta; when 2M/delta is an integer the grid endpoints are
    exactly +-M and 0 is a grid point.
    """

    m: float
    delta: float

    def __post_init__(self):
        if self.m <= 0 or self.delta <= 0 or self.delta > 2 * self.m:
            raise ValueError("need 0 < delta <= 2 M")
        # a grid index must fit an int64; below 2^63 a float's floor is at
        # most 2^63 - 1024, so the largest index converts exactly
        if not self.m / self.delta * 2 < 2.0**63:
            raise OutOfRange(f"a grid of spacing {self.delta} on [-{self.m}, "
                             f"{self.m}] has more than 2^63 points")

    @property
    def points_per_coord(self) -> int:
        return int(math.floor(2 * self.m / self.delta)) + 1

    @property
    def bits_per_coord(self) -> int:
        return max((self.points_per_coord - 1).bit_length(), 1)

    @property
    def _half_span(self) -> float:
        return (self.points_per_coord - 1) / 2.0

    def values(self) -> np.ndarray:
        return self._values_at(np.arange(self.points_per_coord, dtype=float))

    def _values_at(self, idx: np.ndarray) -> np.ndarray:
        """(idx - half span) * delta, in the one array it makes."""
        values = idx - self._half_span
        values *= self.delta
        return values

    def round_indices(self, theta: np.ndarray) -> np.ndarray:
        # np.round resolves representable ties half-to-even on the index
        idx = np.round(np.asarray(theta, dtype=float) / self.delta + self._half_span)
        return np.clip(idx, 0, self.points_per_coord - 1).astype(int)


def quantize(theta: np.ndarray, grid: QuantGrid) -> np.ndarray:
    """Nearest grid point per coordinate; ties round half-to-even on index."""
    theta = np.asarray(theta, dtype=float)
    if theta.size and float(np.max(np.abs(theta))) > grid.m + 1e-12:
        raise OutOfRange(f"theta leaves [-{grid.m}, {grid.m}]")
    return grid._values_at(grid.round_indices(theta))


@dataclass(frozen=True)
class LipBoundInputs:
    depth: int
    d_c: int
    kappa: int
    dim: int
    m: float
    c: float

    def __post_init__(self):
        if min(self.depth, self.d_c, self.kappa, self.dim) < 1:
            raise ValueError("depth, d_c, kappa and dim must be >= 1")
        if self.m <= 0 or self.c < 0:
            raise ValueError("need m > 0 and c >= 0")


def theoretical_lip_bound(inputs: LipBoundInputs) -> float:
    """log2 of (L+2) (2 d_c M)^(L+2) (C + (2 kappa)^(d/2))."""
    l2 = inputs.depth + 2
    return (math.log2(l2)
            + l2 * math.log2(2 * inputs.d_c * inputs.m)
            + math.log2(inputs.c + (2 * inputs.kappa) ** (inputs.dim / 2)))


def calibrate_c(hyper: FnoHyper, box: float, input_set: Sequence[GridFunction],
                probes: int, seed: int) -> float:
    """Calibration constant: twice the empirical prefactor on the reference.

    The bound factors as (L+2)(2 d_c M)^(L+2) times (C + (2 kappa)^(d/2));
    the measured Lipschitz estimate divided by the leading factor is the
    empirically realized prefactor, and C is set to twice that, so the
    calibrated bound exceeds the measurement by construction.  Raises
    OutOfRange when the leading factor overflows a float.
    """
    try:
        leading = (hyper.depth + 2) * (2 * hyper.d_c * box) ** (hyper.depth + 2)
    except OverflowError:
        leading = math.inf
    if math.isinf(leading):
        raise OutOfRange(f"(L+2) (2 d_c M)^(L+2) overflows a float at M = {box}")
    est = empirical_lipschitz(hyper, box, probes, input_set, seed)
    return 2.0 * est / leading


# ---------------------------------------------------------------------
# asymptotic bit budget (log2-space only)
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class BitBudget:
    q: int
    dim: int
    gamma: float
    c: float
    depth_bits: int
    bits_per_coord: int
    super_params: int
    log2_points_per_coord: float
    m_exponent: int  # power of q in the growth law, dim + 4

    @property
    def coord_bits(self) -> int:
        return self.super_params * self.bits_per_coord

    @property
    def total(self) -> int:
        return self.depth_bits + self.coord_bits

    @property
    def scaling_deviation(self) -> float:
        """log2(total) - log2(2^dim c q^(dim+4) log2(c q)).

        The reference is the budget's own growth law (see
        bit_budget_asymptotic), so the deviation tends to 0 as q grows.
        """
        law = (self.dim + self.m_exponent * math.log2(self.q)
               + math.log2(self.c * math.log2(self.c * self.q)))
        return math.log2(self.total) - law


def bit_budget_asymptotic(q: int, dim: int, gamma: float, c: float) -> BitBudget:
    """Bit count for quantizing the depth-maximal super architecture.

    Per coordinate the grid on [-M_q, M_q] with M_q = e^q and spacing
    delta_q = log(q)^(-gamma) / exp(c q log(c q)) needs
    b1 = ceil(log2(2 M_q / delta_q)) bits, evaluated in log2 space since
    delta_q underflows for moderate q.  The super-architecture coordinate
    count is maximized over depths L <= q (attained at L = q), and
    ceil(log2 q) extra bits select the depth.

    Growth law: the super architecture (d_in = d_out = 1, d_c = kappa = q,
    L = q, (2q)^dim mode slots) has q(d_in + d_out) + q(q^2 + (2q)^dim q^2
    + q) = 2^dim q^(dim+3) (1 + o(1)) coordinates, and b1 = c q log2(c q)
    (1 + o(1)) since the terms q log2(e) and gamma log2(ln q) are of lower
    order.  Hence n_q = 2^dim c q^(dim+4) log2(c q) (1 + o(1)), and
    m_exponent = dim + 4 is the power of q in that law.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    if gamma <= 0 or c <= 0:
        raise ValueError("gamma and c must be positive")
    if c * q <= 1:
        raise ValueError("need c q > 1 so the spacing shrinks with q")
    log2_points = (1.0                       # the 2 in 2 M_q
                   + q * LOG2_E              # M_q = e^q
                   + gamma * math.log2(math.log(q))
                   + c * q * math.log(c * q) * LOG2_E)
    b1 = int(math.ceil(log2_points))
    qhat = max(param_count(super_arch(q, dim, 1, 1, depth)).q
               for depth in (1, q))  # linear in depth; max at depth = q
    return BitBudget(
        q=q, dim=dim, gamma=gamma, c=c,
        depth_bits=max((q - 1).bit_length(), 1),
        bits_per_coord=b1,
        super_params=qhat,
        log2_points_per_coord=log2_points,
        m_exponent=dim + 4,
    )


def bit_budget_sweep(qs: Sequence[int], dim: int, gamma: float,
                     c: float) -> List[BitBudget]:
    return [bit_budget_asymptotic(q, dim, gamma, c) for q in qs]


# ---------------------------------------------------------------------
# end-to-end certification
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class QuantCertificate:
    measured_err: float
    lip_estimate: float
    delta: float

    @property
    def bound(self) -> float:
        return self.lip_estimate * self.delta / 2.0

    @property
    def passed(self) -> bool:
        """The measured error is within a finite bound: an infinite bound
        checks nothing, so it fails."""
        return math.isfinite(self.bound) and self.measured_err <= self.bound


def certify_quantization(params: FnoParams, grid: QuantGrid,
                         input_set: Sequence[GridFunction],
                         lip_estimate: float) -> QuantCertificate:
    """Measured sup deviation between the operator and its quantized copy.

    lip_estimate is a linear-scale Lipschitz value; callers pass either the
    exponentiated theoretical bound or a safety-factored empirical one.
    A NaN deviation on any input makes measured_err NaN, which fails.
    """
    pair = [params.theta, quantize(params.theta, grid)]
    values = forward_batch(params.hyper, pair, input_set)
    measured = float(np.max(np.abs(values[0] - values[1])))
    return QuantCertificate(measured, lip_estimate, grid.delta)


# ---------------------------------------------------------------------
# bits versus accuracy sweep
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    bits: int
    minimax_err: float
    hyper_id: int
    grid_id: int
    seed: int
    exhaustive: bool  # False marks a random-search upper bound


def _dictionary_thetas(q: int, grid: QuantGrid, exhaustive: bool, seed: int,
                       max_random: int) -> np.ndarray:
    """Read-only candidate matrix of the quantized parameter set: all of
    it, or max_random seeded draws.

    Grid indices map to values by `QuantGrid._values_at`, so no grid is
    materialized: random search draws indices on grids of up to 2^63
    points.
    """
    p = grid.points_per_coord
    if exhaustive:
        idx = np.indices((p,) * q).reshape(q, -1).T
    else:
        rng = stream(seed, STREAM_SWEEP_DICT)
        idx = rng.integers(0, p, size=(max_random, q))
    thetas = grid._values_at(idx)
    thetas.setflags(write=False)
    return thetas


def accuracy_bits_sweep(targets: np.ndarray,
                        hypers: Sequence[FnoHyper],
                        grids: Sequence[QuantGrid],
                        input_set: Sequence[GridFunction],
                        seed: int,
                        max_random: int = 1 << 12) -> List[SweepRow]:
    """Pareto front of (total bits, minimax error) over quantized dictionaries.

    targets holds one functional per row and one column per input.
    Exhaustive enumeration below EXHAUSTIVE_DICT_LIMIT candidates, seeded
    random search above it; random rows are upper bounds on the true
    minimax error and carry exhaustive=False.  Raises BudgetExceeded when a
    cell would need more than EVALUATION_CAP forward evaluations, and
    SizeLimitExceeded past fno.DEPTH_LIMIT or fno.THETA_BYTE_BUDGET, before
    any cell runs.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2 or targets.shape[1] != len(input_set):
        raise ValueError("targets must be sampled on the input set")
    # every cell is checked before any theta is drawn
    cells = []
    for hi, hyper in enumerate(hypers):
        q = checked_layout_length(hyper)
        for gi, grid in enumerate(grids):
            exhaustive = _check_cell(f"cell ({hi}, {gi})", q, grid,
                                     max_random, len(input_set))
            cells.append((hi, hyper, gi, grid, q, exhaustive))
    rows = []
    for hi, hyper, gi, grid, q, exhaustive in cells:
        thetas = _dictionary_thetas(q, grid, exhaustive, seed + hi,
                                    max_random)
        # row t holds theta t's functional on the input set
        dictionary = forward_batch(hyper, thetas, input_set)
        err = dictionary_minimax_error(targets, dictionary)
        # released before the next cell's draw, which holds two matrices
        del thetas, dictionary
        rows.append(SweepRow(bits=q * grid.bits_per_coord, minimax_err=err,
                             hyper_id=hi, grid_id=gi, seed=seed,
                             exhaustive=exhaustive))
    return pareto_front(rows)


def _check_cell(name: str, q: int, grid: QuantGrid, max_random: int,
                n_inputs: int) -> bool:
    """Whether a sweep cell of q parameters on grid is enumerated
    exhaustively; BudgetExceeded past EVALUATION_CAP evaluations, and
    SizeLimitExceeded past fno.THETA_BYTE_BUDGET bytes of thetas.

    A grid has at least 2 points per coordinate, so p^q is at most
    EXHAUSTIVE_DICT_LIMIT only for q below its bit length; the power is
    taken only then, since with q in the billions it would not end.
    """
    p = grid.points_per_coord
    exhaustive = (q < EXHAUSTIVE_DICT_LIMIT.bit_length()
                  and p ** q <= EXHAUSTIVE_DICT_LIMIT)
    candidates = p ** q if exhaustive else max_random
    n_eval = candidates * n_inputs
    if n_eval > EVALUATION_CAP:
        raise BudgetExceeded(
            f"{name} needs {n_eval} evaluations > {EVALUATION_CAP}")
    check_theta_bytes(name, candidates, q)
    return exhaustive


def pareto_front(rows: Sequence[SweepRow]) -> List[SweepRow]:
    """Keep rows strictly improving the error as bits increase."""
    front = []
    best = math.inf
    for row in sorted(rows, key=lambda r: (r.bits, r.minimax_err)):
        if row.minimax_err < best:
            front.append(row)
            best = row.minimax_err
    return front
