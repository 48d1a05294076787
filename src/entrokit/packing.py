"""Explicit packing families of 1-Lipschitz functionals.

Three constructions:

* Hat families on a finite metric space K: from N centers at pairwise
  distance >= 6 eps, the 2^N sign combinations of the hat functions
  psi_j(u) = max(3 eps - d(u, u_j), 0) are 3 eps-separated in sup norm.
  That certifies log2 of the packing number of the unit Lipschitz ball
  over K to be at least N, and N dominates the 6 eps covering number of
  K (2 to its entropy) whenever the packing is exact.

* Greedy sign codes: lexicographic scan of {+1, -1}^n keeping words at
  Hamming distance >= ceil(n/4) from everything kept so far reaches size
  ceil(e^(n/8)); classical volume counting guarantees feasibility.  The
  kept words form a linear lexicode, built from its GF(2) basis rather
  than by scanning.

* Bump families on [0,1]^d: the cube is split into N^d cells, each
  carrying a plateau bump with linear ramp (width lam/2 in the max-norm
  distance to the cell boundary).  Signed combinations indexed by a sign
  code are 1-Lipschitz with pairwise L^1 distance >= lam (1-lam)^d / (4N),
  which at lam = 1/(1+d) is at least 1/(8 e d N).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (BoundNotReached, EpsilonTooLarge, FamilyTooLarge,
                     GridMisaligned, NoPacking, SizeLimitExceeded)
from .metricspace import (EXACT_LIMIT, FiniteMetricSpace, SampledFunctional,
                          exact_packing_number, greedy_packing)

HAT_MAX_LOG2_MEMBERS = 16
# entries of the (centers, rows, points) block the Lipschitz check holds
HAT_BLOCK_ENTRIES = 1 << 20
QUADRATURE_TOL = 1e-9
# coset-weight table entries (one byte each) a sign code may use
LEXICODE_TABLE_LIMIT = 1 << 27
# sign-code words are stored as uint64 bit patterns
MAX_CODE_LENGTH = 64
# (grid_res + 1)^d nodes a bump family may hold: at the limit a 3-D family
# peaks near 0.15 GB, and verify scans every member's node grid
BUMP_NODE_LIMIT = 1 << 20


# ---------------------------------------------------------------------
# hat families
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class HatFamilyReport:
    size: int
    min_pairwise_supdist: float
    pairwise_exhaustive: bool
    sup_max: float
    lipschitz_max: float
    separation_ok: bool
    sup_ok: bool
    lipschitz_ok: bool

    @property
    def ok(self) -> bool:
        return self.separation_ok and self.sup_ok and self.lipschitz_ok


class HatFamily:
    """2^N signed sums of hat functions on a finite metric space, from
    centers at pairwise distance >= 6 eps: no center lies in another hat."""

    def __init__(self, space: FiniteMetricSpace, eps: float, centers: Sequence[int]):
        self.space = space
        self.eps = float(eps)
        self.centers = tuple(int(c) for c in centers)
        close = space.dist[np.ix_(self.centers, self.centers)] < 6 * self.eps
        if (close & ~np.eye(len(close), dtype=bool)).any():
            raise ValueError(f"two centers are closer than 6 eps = {6 * self.eps}")
        # psi[j, u] = max(3 eps - d(c_j, u), 0), evaluated on every space point
        self.psi = np.maximum(3 * self.eps - space.dist[list(self.centers), :], 0.0)

    @property
    def n_centers(self) -> int:
        return len(self.centers)

    @property
    def size(self) -> int:
        return 1 << self.n_centers

    def member(self, sigma) -> np.ndarray:
        """Values of f_sigma on all space points for sigma in {0,1}^N."""
        sigma = np.asarray(sigma, dtype=float)
        return sigma @ self.psi

    def member_functional(self, sigma) -> SampledFunctional:
        return SampledFunctional(tuple(self.space.points), self.member(sigma))

    def verify(self, tol: float = 1e-12) -> HatFamilyReport:
        """Exact over all 2^N members without building them.  psi >= 0 and
        the supports are disjoint, so each sum below has one nonzero term
        and every value equals that of enumerating the members, bit for bit.

        sup_max: the member with every sign set is the largest everywhere.
        lipschitz_max: at (u, w) with a = psi(u) - psi(w), the largest
        |sigma . a| over sigma in {0,1}^N is max(sum a_j^+, sum a_j^-).
        min_pairwise_supdist: members that differ in sign k differ by psi_k
        where it peaks, a point in no other hat; one flip attains that.
        """
        psi, dist, n = self.psi, self.space.dist, self.space.n
        rows = max(1, HAT_BLOCK_ENTRIES // (self.n_centers * n))
        lip_max = 0.0
        for lo in range(0, n - 1, rows):  # the pairs u < w, by rows of u
            hi = min(lo + rows, n - 1)
            a = psi[:, lo:hi, None] - psi[:, None, lo + 1:]
            reach = np.maximum(np.maximum(a, 0.0).sum(axis=0),
                               np.maximum(-a, 0.0).sum(axis=0))
            d = dist[lo:hi, lo + 1:]
            keep = (d > 0) & (np.arange(lo + 1, n) > np.arange(lo, hi)[:, None])
            if keep.any():
                lip_max = max(lip_max, float(np.max(reach[keep] / d[keep])))
        sup_max = float(np.max(psi.sum(axis=0)))
        min_pair = float(np.min(np.max(psi, axis=1)))
        return HatFamilyReport(
            size=self.size,
            min_pairwise_supdist=min_pair,
            pairwise_exhaustive=True,
            sup_max=sup_max,
            lipschitz_max=lip_max,
            separation_ok=min_pair >= 3 * self.eps - tol,
            sup_ok=sup_max <= min(3 * self.eps, 1.0) + tol,
            lipschitz_ok=lip_max <= 1.0 + tol,
        )

    def manifest(self) -> dict:
        return {
            "eps": self.eps,
            "n_centers": self.n_centers,
            "size": self.size,
            "centers": [self.space.points[c] for c in self.centers],
            "center_indices": list(self.centers),
        }


def build_hat_family(space: FiniteMetricSpace, eps: float) -> HatFamily:
    """Build the hat family at accuracy eps from a 6 eps-separated center set.

    Centers come from the exact packing when the space is small enough,
    otherwise from the deterministic greedy packing.
    """
    if not 0 < eps <= 1.0 / 3.0:
        raise EpsilonTooLarge(f"eps must lie in (0, 1/3], got {eps}")
    sep = 6 * eps
    if space.n <= EXACT_LIMIT:
        pack = exact_packing_number(space, sep)
    else:
        pack = greedy_packing(space, sep)
    if pack.count < 2:
        raise NoPacking(f"no two points are {sep}-separated")
    if pack.count > HAT_MAX_LOG2_MEMBERS:
        raise FamilyTooLarge(
            f"2^{pack.count} members exceeds the 2^{HAT_MAX_LOG2_MEMBERS} cap")
    return HatFamily(space, eps, pack.members)


# ---------------------------------------------------------------------
# greedy sign codes
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class SignCode:
    """Sign vectors in {-1,+1}^length with a verified minimum Hamming distance."""

    length: int
    ints: tuple          # kept candidates in scan order, bit=1 encodes -1
    min_distance: int    # required pairwise Hamming distance
    target_size: int

    @property
    def size(self) -> int:
        return len(self.ints)

    @property
    def words(self) -> np.ndarray:
        """(size, length) array of +-1 entries; coordinate 0 is the top bit."""
        shifts = np.arange(self.length - 1, -1, -1, dtype=np.uint64)
        bits = (np.array(self.ints, dtype=np.uint64)[:, None] >> shifts[None, :]) & 1
        return (1 - 2 * bits.astype(np.int8))

    def pairwise_min_hamming(self) -> int:
        ints = np.array(self.ints, dtype=np.uint64)
        best = self.length
        for i in range(len(ints) - 1):
            d = np.bitwise_count(ints[i + 1:] ^ ints[i])
            best = min(best, int(d.min()))
        return best

    def manifest(self) -> dict:
        return {
            "length": self.length,
            "size": self.size,
            "min_distance": self.min_distance,
            "target_size": self.target_size,
            "words": ["".join("+" if w > 0 else "-" for w in row) for row in self.words],
        }


def _xor_shifted(table: np.ndarray, j: int) -> np.ndarray:
    """table[i ^ j] for every i of a table of length 2^f, in a fresh
    array viewed with shape (2, ..., 2, 2^low).  The low index bits are
    permuted by one gather per row of 2^low entries and the high bits by
    reversed axes, so no index array as long as the table is built."""
    bits = table.size.bit_length() - 1
    low = min(bits, 8)
    row = 1 << low
    inner = np.take(table.reshape(-1, row), np.arange(row) ^ (j & (row - 1)), axis=1)
    high = bits - low
    flips = tuple(slice(None, None, -1) if j >> (bits - 1 - a) & 1 else slice(None)
                  for a in range(high))
    return inner.reshape((2,) * high + (row,))[flips]


def _greedy_sign_code(n: int, min_dist: int, target: int) -> SignCode:
    """The lexicographic greedy code of {+1,-1}^n (all +1 first, +1 as
    0-bit), cut at target words, built from its GF(2) basis.

    Greedy lexicodes are linear (Conway & Sloane, IEEE Trans. IT 32(3),
    1986): the word kept at position 2^k is a basis word b_k with a new
    leading bit, and the kept words are the span of b_0, b_1, ... in
    binary-counting order.  b_k is the smallest word with leading bit
    above those of the current span C whose coset x + C has minimum
    weight >= min_dist; every word of that coset passes or fails the
    greedy test together, so one representative per coset is checked.

    The representatives of the cosets of C inside [0, 2^L) are the words
    whose pivot bits (the leading bits of b_0, b_1, ...) are zero; the
    j-th one deposits the bits of j on the free positions.  `weight[j]`
    holds its coset's minimum weight.  Moving to leading bit L either
    doubles the table (no basis word: weight of 2^L + rep_j is 1 +
    weight[j]) or keeps its length and takes the minimum with the coset
    shifted by the new basis word (rep_j ^ rep_j* is rep_(j ^ j*)).  Time
    and memory grow like 2^(L - k) for the last basis word's leading bit
    L and basis size k.
    """
    need = (target - 1).bit_length()
    basis: list = []
    free: list = []   # free bit positions, ascending
    weight = np.zeros(1, dtype=np.uint8)
    for lead in range(n):
        if len(basis) == need:
            break
        j = int(np.argmax(weight >= min_dist - 1))
        if weight[j] >= min_dist - 1:
            rep = sum(1 << pos for t, pos in enumerate(free) if j >> t & 1)
            basis.append((1 << lead) | rep)
            shifted = _xor_shifted(weight, j)
            shifted += np.uint8(1)
            np.minimum(weight.reshape(shifted.shape), shifted,
                       out=weight.reshape(shifted.shape))
            continue
        if weight.size >= LEXICODE_TABLE_LIMIT:
            raise SizeLimitExceeded(
                f"the lexicode of length {n} at distance {min_dist} needs a "
                f"coset table above {LEXICODE_TABLE_LIMIT} entries at "
                f"leading bit {lead}")
        doubled = np.empty(2 * weight.size, dtype=np.uint8)
        doubled[:weight.size] = weight
        np.add(weight, np.uint8(1), out=doubled[weight.size:])
        weight = doubled
        free.append(lead)
    if len(basis) < need:
        raise BoundNotReached(
            f"the greedy code of length {n} has {1 << len(basis)} < {target} "
            "words; this contradicts the volume bound and signals a bug")
    ints = np.zeros(1, dtype=np.uint64)
    for word in basis:
        ints = np.concatenate([ints, ints ^ np.uint64(word)])
    return SignCode(n, tuple(int(v) for v in ints[:target]), min_dist, target)


def greedy_sign_code(length: int, min_distance: int,
                     target_size: int) -> SignCode:
    """Greedy code with explicit distance and size targets; no range gate,
    so degenerate short lengths (distance-1 codes) are allowed."""
    if not 1 <= length <= MAX_CODE_LENGTH:
        raise ValueError(
            f"length must lie in [1, {MAX_CODE_LENGTH}], got {length}")
    if min_distance < 1 or target_size < 1:
        raise ValueError("min_distance and target_size must be >= 1")
    return _greedy_sign_code(length, min_distance, target_size)


def gilbert_varshamov(n: int) -> SignCode:
    """Greedy code of length n in [1, MAX_CODE_LENGTH] with Hamming
    distance >= ceil(n/4) and size >= ceil(e^(n/8)), the combination the
    volume bound guarantees for any n.  Deterministic.  Work and memory
    grow like the coset table, 2^(L - k) entries for the leading bit L of
    the last of k basis words: 2^18 at n = 40, 2^27 at n = 53..55.  Longer
    codes need more than LEXICODE_TABLE_LIMIT entries and raise
    SizeLimitExceeded."""
    return greedy_sign_code(n, math.ceil(n / 4), math.ceil(math.exp(n / 8)))


# ---------------------------------------------------------------------
# bump families on [0,1]^d
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class BumpFamilyReport:
    size: int
    cell_profile_l1: float       # integral of the unit-cell profile over the cube
    profile_l1_lower: float      # (1 - lam)^d plateau volume
    min_pairwise_l1: float
    pairwise_lower: float        # lam (1-lam)^d / (4 N)
    l1_floor: float              # 1 / (8 e d N), valid at lam = 1/(1+d)
    sup_max: float
    lipschitz_max: float

    @property
    def ok(self) -> bool:
        return (self.cell_profile_l1 >= self.profile_l1_lower - QUADRATURE_TOL
                and self.sup_max <= 1.0 + QUADRATURE_TOL
                and self.lipschitz_max <= 1.0 + QUADRATURE_TOL
                and self.min_pairwise_l1 >= self.pairwise_lower - QUADRATURE_TOL)


def grid_lipschitz(values: np.ndarray) -> float:
    """Max difference quotient |f(x) - f(y)| / |x - y|_inf over all pairs of
    nodes of a uniform grid on [0,1]^d, from the (res+1)^d node values.

    Under the max norm, the distance between grid nodes is the king-move
    path metric, so a quotient over any pair is at most the largest
    quotient along a king path between them: the 3^d - 1 king-neighbour
    offsets (half of them, by symmetry) give the all-pairs maximum.  The
    distances come from the float node coordinates k / res, as an
    all-pairs scan would compute them.
    """
    values = np.asarray(values, dtype=float)
    dim, res = values.ndim, values.shape[0] - 1
    step = np.abs(np.diff(np.arange(res + 1) / res))
    lo, hi = slice(0, res), slice(1, res + 1)
    best = 0.0
    for offset in itertools.product((-1, 0, 1), repeat=dim):
        if offset <= (0,) * dim:
            continue  # no move, or the mirror image of a later offset
        here, there, dx = [], [], 0.0
        for axis, o in enumerate(offset):
            here.append(slice(None) if o == 0 else (lo if o > 0 else hi))
            there.append(slice(None) if o == 0 else (hi if o > 0 else lo))
            if o:
                shape = [1] * dim
                shape[axis] = res
                dx = np.maximum(dx, step.reshape(shape))
        df = np.abs(values[tuple(there)] - values[tuple(here)])
        best = max(best, float(np.max(df / dx)))
    return best


class BumpFamily:
    """Signed plateau-bump combinations f_sigma = (lam / 2N) sum sigma_j phi_j."""

    def __init__(self, dim: int, cells: int, grid_res: int, code: SignCode,
                 lam: float):
        self.dim = dim
        self.cells = cells
        self.grid_res = grid_res
        self.code = code
        self.lam = lam
        self.scale = lam / (2 * cells)
        self._cell_l1 = self._cell_quadrature()
        self._words = code.words
        # cell index and profile value of every grid node, for all members
        axes = [np.arange(grid_res + 1) / grid_res] * dim
        nodes = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
        self._node_cells, self._node_profile = self._locate(nodes)

    # -- evaluation ----------------------------------------------------

    def _profile(self, local: np.ndarray) -> np.ndarray:
        """Unit-cell profile: 1 on the plateau, linear ramp of width lam/2
        in the sup-norm distance to the cell boundary, 0 on the boundary."""
        r = np.max(np.abs(local - 0.5), axis=-1)
        return np.clip((0.5 - r) / (self.lam / 2), 0.0, 1.0)

    def _locate(self, x: np.ndarray):
        """(flat cell index, unit-cell profile value) of each point x."""
        cell = np.minimum((x * self.cells).astype(int), self.cells - 1)
        local = x * self.cells - cell
        flat = np.ravel_multi_index(cell.T, (self.cells,) * self.dim)
        return flat, self._profile(local)

    def member_values(self, index: int, x: np.ndarray) -> np.ndarray:
        """f_sigma at points x in [0,1]^d for the index-th code word."""
        flat, profile = self._locate(np.atleast_2d(np.asarray(x, dtype=float)))
        return self.scale * self._words[index][flat] * profile

    def member_on_nodes(self, index: int) -> np.ndarray:
        """Member values on the (grid_res+1)^d node grid, as a d-dim array."""
        values = self.scale * self._words[index][self._node_cells] * self._node_profile
        return values.reshape((self.grid_res + 1,) * self.dim)

    # -- quadrature ----------------------------------------------------

    def _cell_quadrature(self) -> float:
        """Midpoint quadrature of one scaled bump over its cell.

        Quadrature cells align with the ramp breakpoints, so for d = 1 the
        value is exact up to roundoff; the same per-cell value serves every
        cell by translation invariance of the construction.
        """
        per_cell = self.grid_res // self.cells
        mids = (np.arange(per_cell) + 0.5) / per_cell
        mesh = np.meshgrid(*([mids] * self.dim), indexing="ij")
        local = np.stack([m.ravel() for m in mesh], axis=-1)
        cell_volume = self.cells ** (-self.dim)
        return float(np.mean(self._profile(local)) * cell_volume)

    @property
    def cell_profile_l1(self) -> float:
        """Quadrature of the unit-cell profile over the whole unit cube."""
        return self._cell_l1 * self.cells**self.dim

    def pairwise_l1(self, i: int, j: int) -> float:
        """L^1 distance between members i and j (disjoint supports make the
        quadrature collapse to a Hamming count times the per-cell mass)."""
        d = int(np.bitwise_count(np.uint64(self.code.ints[i] ^ self.code.ints[j])))
        return self.scale * 2 * d * self._cell_l1

    def min_pairwise_l1(self) -> float:
        return self.scale * 2 * self.code.pairwise_min_hamming() * self._cell_l1

    # -- member checks ---------------------------------------------------

    def member_discrete_lipschitz(self, index: int) -> float:
        """Max grid difference quotient w.r.t. the sup norm over all node
        pairs (see grid_lipschitz)."""
        return grid_lipschitz(self.member_on_nodes(index))

    @property
    def pairwise_lower(self) -> float:
        return self.lam * (1 - self.lam) ** self.dim / (4 * self.cells)

    @property
    def l1_floor(self) -> float:
        return 1.0 / (8 * math.e * self.dim * self.cells)

    def verify(self) -> BumpFamilyReport:
        sup_max = lip_max = 0.0
        for i in range(self.code.size):
            grid = self.member_on_nodes(i)
            sup_max = max(sup_max, float(np.max(np.abs(grid))))
            lip_max = max(lip_max, grid_lipschitz(grid))
        return BumpFamilyReport(
            size=self.code.size,
            cell_profile_l1=self.cell_profile_l1,
            profile_l1_lower=(1 - self.lam) ** self.dim,
            min_pairwise_l1=self.min_pairwise_l1(),
            pairwise_lower=self.pairwise_lower,
            l1_floor=self.l1_floor,
            sup_max=sup_max,
            lipschitz_max=lip_max,
        )

    def manifest(self) -> dict:
        return {
            "dim": self.dim,
            "cells_per_axis": self.cells,
            "lam": self.lam,
            "grid_res": self.grid_res,
            "code": self.code.manifest(),
        }


def bump_lam(dim: int, cells: int, grid_res: int,
             lam: Optional[float]) -> float:
    """The plateau parameter (1/(1+d) when lam is None), once cells,
    grid_res and lam are known to put every ramp breakpoint on a grid node
    and the node grid within BUMP_NODE_LIMIT (SizeLimitExceeded); needs no
    sign code, so a caller can check before building one."""
    if cells < 2:
        raise ValueError("cells must be >= 2")
    if grid_res < 1:
        raise ValueError("grid_res must be >= 1")
    nodes = (grid_res + 1) ** dim
    if nodes > BUMP_NODE_LIMIT:
        raise SizeLimitExceeded(
            f"(grid_res + 1)^{dim} = {nodes} grid nodes is above "
            f"{BUMP_NODE_LIMIT}")
    if lam is None:
        lam = 1.0 / (1 + dim)
    if not 0 < lam < 1:
        raise ValueError("lam must lie in (0, 1)")
    if grid_res % cells != 0:
        raise GridMisaligned(f"grid_res {grid_res} not a multiple of {cells}")
    breakpoint_steps = grid_res * lam / (2 * cells)
    if abs(breakpoint_steps - round(breakpoint_steps)) > 1e-9:
        raise GridMisaligned(
            f"ramp breakpoints at lam/(2N) = {lam / (2 * cells)} off the "
            f"1/{grid_res} grid")
    return lam


def build_bump_family(dim: int, cells: int, grid_res: int, code: SignCode,
                      lam: Optional[float] = None) -> BumpFamily:
    """Assemble the bump family; grid_res must put every ramp breakpoint on
    a grid node (a multiple of 2 N (d+1) suffices at the default lam)."""
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2 or 3")
    lam = bump_lam(dim, cells, grid_res, lam)
    if code.length != cells**dim:
        raise ValueError(f"code length {code.length} != {cells}^{dim}")
    return BumpFamily(dim, cells, grid_res, code, lam)


# ---------------------------------------------------------------------
# dimension selection and the uniform-setting prediction
# ---------------------------------------------------------------------


def select_embedding_dimension(eps: float, c1: float, c2: float,
                               alpha: float) -> int:
    """Largest d with eps * d^(1+alpha) <= c2, where c2 = c1 e^(-beta).

    The returned d also satisfies c2 < eps (2d)^(1+alpha) and the growth
    bound beta d > c eps^(-1/(1+alpha)) with c = beta c2^(1/(1+alpha)) / 2,
    the constant the two defining inequalities actually imply; all three
    are re-verified in 50-digit arithmetic.
    """
    if not (c1 > c2 > 0):
        raise ValueError("need c1 > c2 > 0 so that beta = ln(c1/c2) > 0")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if eps > c2:
        raise EpsilonTooLarge(f"eps = {eps} exceeds eps_0 = c2 = {c2}")

    import mpmath as mp

    with mp.workdps(50):
        # shortest-decimal reading, so 0.01 means 1/100 and not its binary
        # neighbor; boundary cases like eps * d^(1+alpha) == c2 then resolve
        # the way the decimal inputs intend
        e, a, bound = (mp.mpf(repr(float(v))) for v in (eps, alpha, c2))
        d = int(mp.floor((bound / e) ** (1 / (1 + a))))
        d = max(d, 1)
        while e * mp.mpf(d + 1) ** (1 + a) <= bound:
            d += 1
        while d > 1 and e * mp.mpf(d) ** (1 + a) > bound:
            d -= 1
        beta = mp.log(mp.mpf(repr(float(c1))) / bound)
        c = beta * bound ** (1 / (1 + a)) / 2
        ok = (e * mp.mpf(d) ** (1 + a) <= bound
              and bound < e * mp.mpf(2 * d) ** (1 + a)
              and beta * d > c * e ** (-1 / (1 + a)))
        if not ok:
            raise RuntimeError(f"dimension selection self-check failed at d={d}")
    return d


def entropy_lower_bound_uniform(entropy_6eps: float) -> float:
    """Predicted lower bound 2^H(K; 6 eps) for the Lipschitz-class entropy."""
    if entropy_6eps < 0:
        raise ValueError("entropy must be nonnegative")
    return 2.0**entropy_6eps
