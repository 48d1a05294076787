"""Exact and greedy covering/packing numbers on finite metric spaces.

Covering numbers use closed balls: a point at distance exactly eps from a
center counts as covered, and a pair at distance exactly eps counts as
separated.  Exact solvers are branch-and-bound searches limited to
EXACT_LIMIT subset points; larger instances must use the greedy variants,
whose counts bracket the exact values from the correct side.

The minimax code length of a subset A is the fewest bits B for which some
B-bit encoder/decoder pair reconstructs every element of A within eps.
With a decoder free to output any ambient point this equals
ceil(log2 N(A; eps)), realized constructively by indexing a minimal cover.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, SampleMismatch, SizeLimitExceeded, read_json

EXACT_LIMIT = 20
VALIDATION_ATOL = 1e-12
# Relative slack of the triangle check, d_ij <= (d_ik + d_kj) * (1 + r).
# With unit roundoff u = 2^-53 (Higham, "Accuracy and Stability of
# Numerical Algorithms", 2nd ed., SIAM 2002, ch. 2), distances that each
# lie within relative error c u of a true metric pass whenever
# r >= (2 c + 2) u + O(u^2): 2 c u when d_ij and d_ik + d_kj err in
# opposite directions, u for the check's rounded addition and u for its
# rounded scaling.  A to_json round trip adds nothing: json writes each
# float as the shortest repr that reads back to the same bits.  line,
# circle and Chebyshev from_coords err by c = 1 (one product, or one
# subtraction); Euclidean from_coords in m dimensions by c = (m + 4) / 2
# (a subtraction and a square per coordinate, m - 1 additions, a square
# root).  r = 16 u covers all of them up to m = 8.
TRIANGLE_RTOL = 2.0**-49
TRIANGLE_BLOCK_ENTRIES = 1 << 20
# A Euclidean distance below this may sum squares that left the normal
# range, each off by up to 2^-1075 absolute, which is not small beside
# it.  At or above it that error is below m 2^-75 of the sum, far inside
# TRIANGLE_RTOL.
_EUCLIDEAN_SAFE = 2.0**-500
# bytes that line, circle and from_coords may hold at once: the n x n
# matrix and its n x n temporaries, 2 for line, 3 for circle and 2 m + 1
# for m coordinates (tracemalloc peaks).  At this budget circle(3344),
# line(4096) and from_coords of 2,590 points in 2-D each took 0.1-0.3 s
# at 290 MB peak RSS on a 2-vCPU x86-64 VM
SPACE_BYTE_BUDGET = 1 << 28


class FiniteMetricSpace:
    """A finite point set with an explicit, validated distance matrix.

    `__init__` (and so `from_json` and `from_file`) checks every metric
    axiom of an outside matrix.  `from_coords`, `line` and `circle` build
    metrics by construction and check only what construction can get
    wrong: non-finite inputs, a size that is not positive and finite,
    and overflow.  Before they allocate, they raise SizeLimitExceeded
    when the matrix and its temporaries would pass SPACE_BYTE_BUDGET.
    """

    def __init__(self, points: Sequence, dist) -> None:
        self.points = list(points)
        self.dist = np.array(dist, dtype=float)
        n = len(self.points)
        if self.dist.shape != (n, n):
            raise ValueError(f"distance matrix shape {self.dist.shape} != ({n}, {n})")
        if not np.all(np.isfinite(self.dist)):
            raise ValueError("distance matrix contains non-finite entries")
        if np.any(self.dist < -VALIDATION_ATOL):
            raise ValueError("negative distances")
        if np.max(np.abs(np.diagonal(self.dist))) > VALIDATION_ATOL:
            raise ValueError("nonzero diagonal")
        if np.max(np.abs(self.dist - self.dist.T)) > VALIDATION_ATOL:
            raise ValueError("asymmetric distance matrix")
        # triangle inequality for every (i, j, k), in blocks of k sized so
        # that each block's bound array stays near TRIANGLE_BLOCK_ENTRIES
        block = max(1, TRIANGLE_BLOCK_ENTRIES // max(1, n * n))
        for lo in range(0, n, block):
            ks = slice(lo, min(lo + block, n))
            bound = self.dist[:, ks].T[:, :, None] + self.dist[ks, :][:, None, :]
            bound *= 1.0 + TRIANGLE_RTOL
            if (self.dist[None, :, :] > bound).any():
                # name the block's first failing k and its worst (i, j)
                first = int(np.argmax((self.dist > bound).any(axis=(1, 2))))
                slack = self.dist - bound[first]
                i, j = np.unravel_index(np.argmax(slack), slack.shape)
                k = lo + first
                raise ValueError(
                    f"triangle inequality violated for ({i}, {j}, {k}): "
                    f"d={self.dist[i, j]} > {self.dist[i, k] + self.dist[k, j]}"
                )
        self.dist.setflags(write=False)

    @classmethod
    def _built(cls, points: list, dist: np.ndarray) -> "FiniteMetricSpace":
        """A space over a fresh matrix that a constructor below built as a
        metric: symmetric, zero on the diagonal and within TRIANGLE_RTOL of
        the triangle inequality by construction.  Checks the shape and that
        no entry overflowed or came from a non-finite input."""
        if dist.shape != (len(points), len(points)):
            raise ValueError(f"distance matrix shape {dist.shape} != "
                             f"({len(points)}, {len(points)})")
        if not np.isfinite(dist).all():
            raise ValueError("distance matrix contains non-finite entries")
        space = object.__new__(cls)
        space.points = points
        space.dist = dist
        dist.setflags(write=False)
        return space

    @property
    def n(self) -> int:
        return len(self.points)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_coords(cls, coords, metric: str = "euclidean") -> "FiniteMetricSpace":
        """Points 0..n-1 in R^m under the Euclidean or Chebyshev metric.

        coords holds one row per point, or, as a flat sequence, one
        coordinate per point; input of any other rank raises ValueError.
        A non-finite coordinate or an overflowing distance raises
        ValueError.  The triangle inequality holds by construction, except
        for Euclidean pairs nearer than 2^-500 that are not repeated
        points, whose squares may lose their relative precision: a space
        with such a pair gets the full check of __init__.
        """
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        elif coords.ndim != 2:
            raise ValueError(f"coords must be a flat sequence or one row per "
                             f"point, not a {coords.ndim}-D array")
        _check_space_size(len(coords), 2 * coords.shape[1] + 1)
        diff = coords[:, None, :] - coords[None, :, :]
        if metric == "euclidean":
            dist = np.sqrt(np.sum(diff**2, axis=-1))
        elif metric == "chebyshev":
            dist = np.max(np.abs(diff), axis=-1)
        else:
            raise ValueError(f"unknown metric {metric!r}")
        points = list(range(len(coords)))
        if metric == "euclidean":
            # repeated points (the diagonal among them) are exactly 0 apart
            near = np.count_nonzero(dist < _EUCLIDEAN_SAFE)
            if near > len(dist) and near > np.count_nonzero(~diff.any(axis=-1)):
                return cls(points, dist)
        return cls._built(points, dist)

    @classmethod
    def line(cls, n: int, spacing: float = 1.0) -> "FiniteMetricSpace":
        """n points on a line at the given spacing, d(i, j) = spacing * |i - j|."""
        _require_positive("n", n)
        _require_positive("spacing", spacing)
        _check_space_size(n, 2)
        idx = np.arange(n, dtype=float)
        return cls._built(list(range(n)), spacing * np.abs(idx[:, None] - idx[None, :]))

    @classmethod
    def circle(cls, n: int, circumference: Optional[float] = None) -> "FiniteMetricSpace":
        """n equispaced points on a circle with the arc-length metric."""
        _require_positive("n", n)
        if circumference is None:
            circumference = float(n)
        _require_positive("circumference", circumference)
        _check_space_size(n, 3)
        step = circumference / n
        idx = np.arange(n)
        hops = np.abs(idx[:, None] - idx[None, :])
        hops = np.minimum(hops, n - hops)
        return cls._built(list(range(n)), step * hops)

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {"points": self.points, "dist": self.dist.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteMetricSpace":
        """Inverse of to_json; any other object raises ConfigError."""
        if not isinstance(obj, dict) or set(obj) != {"points", "dist"}:
            raise ConfigError('a space is an object with exactly the keys '
                              '"points" and "dist"')
        if not isinstance(obj["points"], list):
            raise ConfigError('space: "points" must be a list')
        try:
            return cls(obj["points"], obj["dist"])
        except (TypeError, ValueError) as err:  # ragged, non-numeric, invalid
            raise ConfigError(f"space: {err}") from err

    @classmethod
    def from_file(cls, path) -> "FiniteMetricSpace":
        return cls.from_json(read_json(path))


def _require_positive(name: str, value: float) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _check_space_size(n: int, matrices: int) -> None:
    """SizeLimitExceeded when matrices n x n float64 arrays, a built
    space's matrix and its temporaries, pass SPACE_BYTE_BUDGET."""
    held = 8 * n * n * matrices
    if held > SPACE_BYTE_BUDGET:
        raise SizeLimitExceeded(
            f"{n} points hold {held} bytes in their distance matrix and its "
            f"temporaries, above the budget of {SPACE_BYTE_BUDGET}")


@dataclass(frozen=True)
class CoverResult:
    centers: tuple
    radius: float
    exact: bool

    @property
    def count(self) -> int:
        return len(self.centers)


@dataclass(frozen=True)
class PackResult:
    members: tuple
    separation: float
    exact: bool

    @property
    def count(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SandwichReport:
    eps: float
    m_3eps: int
    n_eps: int
    m_eps: int

    @property
    def holds(self) -> bool:
        return self.m_3eps <= self.n_eps <= self.m_eps


def _resolve(space: FiniteMetricSpace, subset, ambient):
    subset = (list(range(space.n)) if subset is None
              else sorted(set(map(operator.index, subset))))
    ambient = (list(range(space.n)) if ambient is None
               else sorted(set(map(operator.index, ambient))))
    for name, idx in (("subset", subset), ("ambient", ambient)):
        # sorted: its ends are its extremes
        if idx and not 0 <= idx[0] <= idx[-1] < space.n:
            raise ValueError(f"{name} indices must lie in range({space.n})")
    if not set(subset) <= set(ambient):
        raise ValueError("subset must be contained in ambient")
    if not subset:
        raise ValueError("empty subset")
    return subset, ambient


def _whole(space: FiniteMetricSpace, idx: list) -> bool:
    """Whether the sorted distinct indices idx are all of space's points."""
    return len(idx) == space.n and idx[0] == 0 and idx[-1] == space.n - 1


# bit values of the columns of one chunk; 63 of them sum below 2^63
_CHUNK_BITS = np.left_shift(1, np.arange(63, dtype=np.int64))


def _bitmasks(rows: np.ndarray) -> list:
    """Each row of a boolean matrix as an int whose bit pos is set when
    column pos is: one integer product per chunk of 63 columns."""
    width = rows.shape[1]
    masks = [0] * len(rows)
    for lo in range(0, width, 63):
        values = (rows[:, lo:lo + 63] @ _CHUNK_BITS[:width - lo]).tolist()
        masks = values if lo == 0 else [m | v << lo for m, v in zip(masks, values)]
    return masks


def _cover_masks(space, subset, ambient, eps) -> list:
    """One bitmask over subset positions per ambient center: the subset
    points in its closed eps-ball."""
    if _whole(space, subset):  # and so ambient too
        return _bitmasks(space.dist <= eps)
    return _bitmasks((space.dist.take(ambient, 0) <= eps).take(subset, 1))


def _greedy_cover(masks: list, full: int) -> list:
    """Positions in masks of a greedy cover of full: each step takes the
    first mask that covers the most uncovered bits."""
    uncovered = full
    picks = []
    while uncovered:
        gains = [(bits & uncovered).bit_count() for bits in masks]
        best = max(gains)
        if best == 0:
            raise RuntimeError("uncoverable point; subset not within ambient balls")
        pick = gains.index(best)
        picks.append(pick)
        uncovered &= ~masks[pick]
    return picks


def _cover_candidates(masks: list, ambient: list) -> list:
    """(bitmask, center) per ambient center, deduplicated.

    Dominated masks (strict subsets of another candidate's coverage) are
    dropped: an optimal cover never needs them, and removal keeps the
    deterministic witness stable.
    """
    first = {}
    for bits, center in zip(masks, ambient):
        if bits and bits not in first:
            first[bits] = center
    items = sorted(first.items(), key=lambda kv: (-kv[0].bit_count(), kv[1]))
    kept = []
    for bits, center in items:
        if not any(bits | other == other for other, _ in kept):
            kept.append((bits, center))
    return kept


def exact_covering_number(space: FiniteMetricSpace, eps: float,
                          subset=None, ambient=None) -> CoverResult:
    """Minimum number of closed eps-balls with ambient centers covering subset.

    Branch-and-bound set cover; exact, deterministic.  Raises
    SizeLimitExceeded above EXACT_LIMIT subset points (use greedy_covering).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    subset, ambient = _resolve(space, subset, ambient)
    if len(subset) > EXACT_LIMIT:
        raise SizeLimitExceeded(
            f"exact cover limited to {EXACT_LIMIT} points, got {len(subset)}")
    k = len(subset)
    full = (1 << k) - 1
    masks = _cover_masks(space, subset, ambient, eps)
    candidates = _cover_candidates(masks, ambient)
    best_centers = [ambient[i] for i in _greedy_cover(masks, full)]
    best_count = len(best_centers)
    max_cover = max(bits.bit_count() for bits, _ in candidates)
    # candidates that cover each point, densest first (deterministic order)
    per_point = [[(bits, c) for bits, c in candidates if bits >> pos & 1]
                 for pos in range(k)]

    def recurse(covered, chosen):
        nonlocal best_count, best_centers
        if covered == full:
            if len(chosen) < best_count:
                best_count = len(chosen)
                best_centers = list(chosen)
            return
        remaining = (full & ~covered).bit_count()
        if len(chosen) + math.ceil(remaining / max_cover) >= best_count:
            return
        # branch on the uncovered point with the fewest candidates
        pos = min((p for p in range(k) if not covered >> p & 1),
                  key=lambda p: len(per_point[p]))
        for bits, center in per_point[pos]:
            chosen.append(center)
            recurse(covered | bits, chosen)
            chosen.pop()

    recurse(0, [])
    return CoverResult(tuple(best_centers), eps, exact=True)


def greedy_covering(space: FiniteMetricSpace, eps: float,
                    subset=None, ambient=None) -> CoverResult:
    """Greedy cover: repeatedly pick the ambient center covering the most
    uncovered subset points, ties broken by lowest center index."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    subset, ambient = _resolve(space, subset, ambient)
    masks = _cover_masks(space, subset, ambient, eps)
    picks = _greedy_cover(masks, (1 << len(subset)) - 1)
    return CoverResult(tuple(ambient[i] for i in picks), eps, exact=False)


def _conflict_masks(space, subset, eps) -> list:
    """One bitmask over subset positions per subset point: the other
    points closer than eps to it."""
    conflict = (space.dist < eps if _whole(space, subset)
                else (space.dist.take(subset, 0) < eps).take(subset, 1))
    np.fill_diagonal(conflict, False)
    return _bitmasks(conflict)


def _first_fit(adj: list) -> list:
    """Positions kept by a first-fit scan: each joins when it conflicts
    with none kept before it."""
    kept, chosen = [], 0
    for v, nbrs in enumerate(adj):
        if not nbrs & chosen:
            kept.append(v)
            chosen |= 1 << v
    return kept


def _clique_count(candidates: int, adj: list, cap: int) -> int:
    """Cliques in a greedy partition of candidates in the conflict graph
    adj, each grown from its lowest position, counted up to cap + 1.  A
    separated set takes at most one point of each clique."""
    count = 0
    while candidates and count <= cap:
        count += 1
        pool = candidates
        while pool:
            low = pool & -pool
            candidates ^= low
            pool &= adj[low.bit_length() - 1]
    return count


def _max_separated(adj: list) -> tuple:
    """(positions, nodes): the first maximum independent set of the
    conflict graph adj in include-lowest-first order, and the number of
    search nodes visited.

    A branch is cut when the points it could still add, bounded by their
    count and then by a clique partition (Tomita and Seki, DMTCS 2003),
    cannot beat the best set so far.  Only strictly larger sets replace
    it, so any valid bound yields the same set.
    """
    best = _first_fit(adj)
    best_size = len(best)
    nodes = 0

    def recurse(candidates, chosen):
        nonlocal best, best_size, nodes
        nodes += 1
        if not candidates:
            if len(chosen) > best_size:
                best_size = len(chosen)
                best = list(chosen)
            return
        room = best_size - len(chosen)  # points that only tie the best
        if (candidates.bit_count() <= room
                or _clique_count(candidates, adj, room) <= room):
            return
        v = (candidates & -candidates).bit_length() - 1  # lowest candidate index
        chosen.append(v)
        recurse(candidates & ~(1 << v) & ~adj[v], chosen)
        chosen.pop()
        recurse(candidates & ~(1 << v), chosen)

    recurse((1 << len(adj)) - 1, [])
    return best, nodes


def exact_packing_number(space: FiniteMetricSpace, eps: float,
                         subset=None) -> PackResult:
    """Maximum eps-separated subset: a maximum independent set in the
    conflict graph joining pairs at distance < eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    subset, _ = _resolve(space, subset, None)
    if len(subset) > EXACT_LIMIT:
        raise SizeLimitExceeded(
            f"exact packing limited to {EXACT_LIMIT} points, got {len(subset)}")
    best, _ = _max_separated(_conflict_masks(space, subset, eps))
    return PackResult(tuple(subset[i] for i in sorted(best)), eps, exact=True)


def greedy_packing(space: FiniteMetricSpace, eps: float, subset=None) -> PackResult:
    """First-fit packing in index order; count <= exact packing number.

    Reads one column of distances per member kept, so it holds O(n)
    memory on spaces of any size.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    subset, _ = _resolve(space, subset, None)
    rows = np.asarray(subset)
    free = np.ones(len(subset), dtype=bool)  # no member kept so far is < eps away
    members = []
    while free.any():
        pos = int(free.argmax())
        members.append(subset[pos])
        free &= space.dist[rows, subset[pos]] >= eps
        free[pos] = False
    return PackResult(tuple(members), eps, exact=False)


def sandwich_check(space: FiniteMetricSpace, eps: float,
                   subset=None, ambient=None) -> SandwichReport:
    """Verify M(A; 3 eps) <= N(A; eps) <= M(A; eps) on an exact instance.

    A failing report signals an implementation bug, never a property of
    the space.
    """
    m3 = exact_packing_number(space, 3 * eps, subset)
    ne = exact_covering_number(space, eps, subset, ambient)
    me = exact_packing_number(space, eps, subset)
    return SandwichReport(eps, m3.count, ne.count, me.count)


def minimax_code_length(space: FiniteMetricSpace, eps: float,
                        subset=None, ambient=None,
                        decoder: str = "ambient") -> int:
    """Fewest bits B for an encoder/decoder pair with sup error <= eps.

    decoder="ambient" lets the decoder output any ambient point (the
    default); decoder="restricted" confines decoder outputs to the subset
    itself, which can only increase the covering number and hence B.
    """
    if decoder not in ("ambient", "restricted"):
        raise ValueError(f"unknown decoder mode {decoder!r}")
    subset, ambient = _resolve(space, subset, ambient)
    centers = ambient if decoder == "ambient" else subset
    n = exact_covering_number(space, eps, subset, centers).count
    return (n - 1).bit_length()


def code_length_report(space: FiniteMetricSpace, eps: float,
                       subset=None, ambient=None) -> dict:
    """Covering number, entropy, and code length in both decoder modes."""
    subset, ambient = _resolve(space, subset, ambient)
    n = exact_covering_number(space, eps, subset, ambient).count
    b = (n - 1).bit_length()
    return {
        "N": n,
        "H": math.log2(n),
        "B": b,
        # the restricted decoder covers with the same centers when they coincide
        "B_restricted": (b if subset == ambient else
                         minimax_code_length(space, eps, subset, ambient,
                                             decoder="restricted")),
    }


# -- functional dictionaries ------------------------------------------


def dictionary_minimax_error(targets, dictionary) -> float:
    """Sup-norm minimax error: the max over targets of the least sup
    distance to a dictionary functional.

    targets and dictionary are 2-D arrays, a row per functional and a
    column per sample.  Column counts that differ raise SampleMismatch;
    an empty side, or an array of another rank, raises ValueError.
    """
    targets = np.asarray(targets, dtype=float)
    dictionary = np.asarray(dictionary, dtype=float)
    if targets.ndim != 2 or dictionary.ndim != 2:
        raise ValueError(f"targets and dictionary must be 2-D arrays, not of "
                         f"shapes {targets.shape} and {dictionary.shape}")
    if not targets.size or not dictionary.size:
        raise ValueError("targets and dictionary must be nonempty")
    if targets.shape[1] != dictionary.shape[1]:
        raise SampleMismatch(f"targets of {targets.shape[1]} samples against "
                             f"a dictionary of {dictionary.shape[1]}")
    return max(float(np.min(np.max(np.abs(f - dictionary), axis=-1)))
               for f in targets)
