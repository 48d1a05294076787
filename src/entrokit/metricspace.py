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

import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, SampleMismatch, SizeLimitExceeded

EXACT_LIMIT = 20
VALIDATION_ATOL = 1e-12
TRIANGLE_BLOCK_ENTRIES = 1 << 20


class FiniteMetricSpace:
    """A finite point set with an explicit, validated distance matrix."""

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
        # that each block's slack array stays near TRIANGLE_BLOCK_ENTRIES
        block = max(1, TRIANGLE_BLOCK_ENTRIES // max(1, n * n))
        for lo in range(0, n, block):
            ks = slice(lo, min(lo + block, n))
            slack = self.dist[None, :, :] - (self.dist[:, ks].T[:, :, None]
                                             + self.dist[ks, :][:, None, :])
            if np.max(slack) > VALIDATION_ATOL:
                self._raise_first_violation(lo)
        self.dist.setflags(write=False)

    def _raise_first_violation(self, start: int) -> None:
        """Name the first k from start (and its worst (i, j)) that breaks
        the triangle inequality."""
        for k in range(start, self.n):
            slack = self.dist - (self.dist[:, k][:, None] + self.dist[k, :][None, :])
            if np.max(slack) > VALIDATION_ATOL:
                i, j = np.unravel_index(np.argmax(slack), slack.shape)
                raise ValueError(
                    f"triangle inequality violated for ({i}, {j}, {k}): "
                    f"d={self.dist[i, j]} > {self.dist[i, k] + self.dist[k, j]}"
                )

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def diameter(self) -> float:
        return float(np.max(self.dist))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_coords(cls, coords, labels=None, metric: str = "euclidean") -> "FiniteMetricSpace":
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        diff = coords[:, None, :] - coords[None, :, :]
        if metric == "euclidean":
            dist = np.sqrt(np.sum(diff**2, axis=-1))
        elif metric == "chebyshev":
            dist = np.max(np.abs(diff), axis=-1)
        else:
            raise ValueError(f"unknown metric {metric!r}")
        if labels is None:
            labels = list(range(len(coords)))
        return cls(labels, dist)

    @classmethod
    def line(cls, n: int, spacing: float = 1.0) -> "FiniteMetricSpace":
        """n points on a line at the given spacing, d(i, j) = spacing * |i - j|."""
        idx = np.arange(n, dtype=float)
        return cls(list(range(n)), spacing * np.abs(idx[:, None] - idx[None, :]))

    @classmethod
    def circle(cls, n: int, circumference: Optional[float] = None) -> "FiniteMetricSpace":
        """n equispaced points on a circle with the arc-length metric."""
        if circumference is None:
            circumference = float(n)
        step = circumference / n
        idx = np.arange(n)
        hops = np.abs(idx[:, None] - idx[None, :])
        hops = np.minimum(hops, n - hops)
        return cls(list(range(n)), step * hops)

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
        with open(path, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except ValueError as err:  # JSONDecodeError, UnicodeDecodeError
                raise ConfigError(f"{path}: not valid JSON: {err}") from err
        return cls.from_json(obj)


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
    if not set(subset) <= set(ambient):
        raise ValueError("subset must be contained in ambient")
    if not subset:
        raise ValueError("empty subset")
    return subset, ambient


def _bitmasks(rows: np.ndarray) -> list:
    """Each row of a boolean matrix as an int whose bit pos is set when
    column pos is."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    width, buf = packed.shape[1], packed.tobytes()
    return [int.from_bytes(buf[i:i + width], "little")
            for i in range(0, len(buf), width)]


def _cover_masks(space, subset, ambient, eps) -> list:
    """One bitmask over subset positions per ambient center: the subset
    points in its closed eps-ball."""
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
    conflict = (space.dist.take(subset, 0) < eps).take(subset, 1)
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
    k = len(subset)
    adj = _conflict_masks(space, subset, eps)
    best = _first_fit(adj)
    best_size = len(best)

    def recurse(candidates, chosen):
        nonlocal best, best_size
        if not candidates:
            if len(chosen) > best_size:
                best_size = len(chosen)
                best = list(chosen)
            return
        if len(chosen) + candidates.bit_count() <= best_size:
            return
        v = (candidates & -candidates).bit_length() - 1  # lowest candidate index
        chosen.append(v)
        recurse(candidates & ~(1 << v) & ~adj[v], chosen)
        chosen.pop()
        recurse(candidates & ~(1 << v), chosen)

    recurse((1 << k) - 1, [])
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


@dataclass(frozen=True)
class SampledFunctional:
    """A real-valued map known on a declared finite sample of its domain."""

    sample_ids: tuple
    values: np.ndarray = field(compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.sample_ids),):
            raise ValueError("values must be one per sample id")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class LpSampleNorm:
    """Weighted discrete L^p norm on a sample set; weights sum to the mass."""

    p: float
    weights: tuple

    def __call__(self, delta: np.ndarray):
        """Norm of delta along its last axis (a float for one vector)."""
        w = np.asarray(self.weights, dtype=float)
        return np.sum(w * np.abs(delta) ** self.p, axis=-1) ** (1.0 / self.p)


def _norm_fn(norm) -> Callable[[np.ndarray], np.ndarray]:
    """The norm as a function applied along the last axis."""
    if norm == "sup":
        return lambda delta: np.max(np.abs(delta), axis=-1)
    if isinstance(norm, LpSampleNorm):
        return norm
    raise ValueError(f"unknown norm {norm!r}")


def dictionary_minimax_error(targets: Sequence[SampledFunctional],
                             dictionary, norm="sup") -> float:
    """sup over targets of the min dictionary distance in the chosen norm.

    dictionary is a sequence of SampledFunctional, or a 2-D float array
    whose rows are functionals sampled on the targets' sample ids.
    """
    if not targets or len(dictionary) == 0:
        raise ValueError("targets and dictionary must be nonempty")
    ids = targets[0].sample_ids
    is_array = isinstance(dictionary, np.ndarray)
    for f in targets if is_array else itertools.chain(targets, dictionary):
        if f.sample_ids != ids:
            raise SampleMismatch("functionals sampled on different sets")
    if not is_array:
        dict_values = np.stack([g.values for g in dictionary])
    elif dictionary.ndim == 2 and dictionary.shape[1] == len(ids):
        dict_values = np.asarray(dictionary, dtype=float)
    else:
        raise SampleMismatch(f"dictionary array of shape {dictionary.shape} "
                             f"does not hold rows of {len(ids)} samples")
    dist = _norm_fn(norm)
    return max(float(np.min(dist(f.values - dict_values))) for f in targets)
