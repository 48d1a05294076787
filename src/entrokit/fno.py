"""Output-averaged Fourier neural operator on periodic grids.

The operator composes a linear lifting, hidden layers
v -> act(W v + K v + b) with K a truncated Fourier multiplier, and a
linear projection followed by the spatial mean, so outputs are scalars.

Parameter layout.  The flat vector theta stores, in this order, the
projection Q (d_out x d_c), the hidden layers L, ..., 1, and the lifting
P (d_c x d_in); each hidden layer stores the pointwise matrix W
(d_c x d_c), the multiplier block ((2 kappa)^d x d_c x d_c) and the bias.
With constant bias the total length equals the declared parameter
dimension

    q = d_c d_in + L (d_c^2 + (2 kappa)^d d_c^2 + d_c) + d_c d_out,

which is bracketed by q <= 5 (2 kappa)^d L d_c^2 <= 5 q.  `_storage`
holds this order, once per architecture.

Mode slots.  The multiplier is constrained to act as a
conjugate-symmetric tensor so real inputs produce real outputs.  Per
matrix entry the block carries (2 kappa)^d real slots: slot 0 is the zero
mode, slots 1 + 2t and 2 + 2t hold Re and Im of canonical mode t (the
nonzero modes with |k|_inf < kappa whose first nonzero coordinate is
positive, in lexicographic order; mode -k carries the conjugate), and the
trailing slots that pad the active (2 kappa - 1)^d values up to the
declared count are inert: they never influence the forward pass.
`_slot_pairs` decodes the slots and `_mode_index` places the modes on a
grid.

Zero mode.  At kappa = 1 only the zero mode is active, and the inverse
transform of a lone zero mode is that mode broadcast over the grid, so
`forward` adds the mode's channel mix as a constant instead of running
the inverse FFT; the bits are those of the full round trip.

Per-call cost.  `forward` is called once per (theta, input), tens of
thousands of times per sweep on tiny grids, so each call does only the
arithmetic.  The input checks, the activation, the per-axis FFT specs
and the forward scale 1/n are decided once per (architecture object,
grid shape) in a `_Plan`.  The FFTs call numpy's pocketfft gufuncs, the
ones `np.fft.fft` and `np.fft.ifft` reach, with the scale and the
complex output buffer that `np.fft` would pass, so the bits are those of
`np.fft`.  Each `FnoParams` builds its transposed blocks once, and at
kappa > 1 its complex multiplier stacks on first use.

Bias.  "constant" (the default) stores d_c reals added pointwise and is
what the parameter-count formula assumes; "spectral" stores one
multiplier-style slot block per channel and adds the synthesized field,
at the cost of a longer theta and of translation invariance.  theta is
read-only, so each layer's field is synthesized once per parameter vector
and resolution, on the first forward that needs it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (ChannelMismatch, ConfigError, IncompatibleDepth,
                     LayoutMismatch, ResolutionTooLow, TargetTooSmall)
from .rng import STREAM_FNO_PROBE, STREAM_INPUT_GEN, stream


def _gelu(x):
    # scipy.special is imported on the first call, so runs without gelu
    # never load it
    from scipy.special import ndtr

    return x * ndtr(x)


# activation -> (function, Lipschitz constant used in bound propagation)
ACTIVATIONS = {
    "relu": (lambda x: np.maximum(x, 0.0), 1.0),
    # gelu(x) = x Phi(x); max slope Phi(sqrt 2) + sqrt 2 phi(sqrt 2) = 1.12892...
    "gelu": (_gelu, 1.129),
    "identity": (lambda x: x, 1.0),
}


@dataclass(frozen=True)
class FnoHyper:
    dim: int
    d_in: int
    d_out: int
    d_c: int
    kappa: int
    depth: int
    activation: str = "relu"
    bias_mode: str = "constant"

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")
        if min(self.d_in, self.d_out, self.d_c, self.kappa, self.depth) < 1:
            raise ValueError("channel counts, cutoff and depth must be >= 1")
        if self.d_c < max(self.d_in, self.d_out):
            raise ValueError("hidden width d_c must be >= max(d_in, d_out)")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.bias_mode not in ("constant", "spectral"):
            raise ValueError(f"unknown bias mode {self.bias_mode!r}")

    @property
    def n_mode_slots(self) -> int:
        return (2 * self.kappa) ** self.dim

    @property
    def default_resolution(self) -> int:
        # headroom for one activation-induced spectral broadening
        return 4 * self.kappa

    def to_json(self) -> dict:
        return {"dim": self.dim, "d_in": self.d_in, "d_out": self.d_out,
                "d_c": self.d_c, "kappa": self.kappa, "depth": self.depth,
                "activation": self.activation, "bias_mode": self.bias_mode}

    @classmethod
    def from_json(cls, obj: dict) -> "FnoHyper":
        return cls(**obj)


@dataclass(frozen=True)
class ParamCount:
    q: int
    bound: int  # 5 (2 kappa)^d L d_c^2

    @property
    def bracketing_holds(self) -> bool:
        return self.q <= self.bound <= 5 * self.q


def param_count(hyper: FnoHyper) -> ParamCount:
    """Declared parameter dimension and its universal bracketing bound."""
    per_layer = hyper.d_c**2 + hyper.n_mode_slots * hyper.d_c**2 + hyper.d_c
    q = hyper.d_c * hyper.d_in + hyper.depth * per_layer + hyper.d_c * hyper.d_out
    bound = 5 * hyper.n_mode_slots * hyper.depth * hyper.d_c**2
    pc = ParamCount(q, bound)
    if not pc.bracketing_holds:
        raise RuntimeError(f"parameter bracketing violated for {hyper}")
    return pc


@functools.lru_cache(maxsize=None)
def _mode_index(dim: int, kappa: int, n: int) -> tuple:
    """(modes, k, -k): the canonical modes as rows of an integer array, and
    the grid indices of k and of -k on the n^d grid.

    For n >= 2 kappa no two of these indices coincide.
    """
    axis = np.arange(-(kappa - 1), kappa)
    modes = np.stack(np.meshgrid(*(axis,) * dim, indexing="ij"),
                     axis=-1).reshape(-1, dim)
    first_nonzero = modes[np.arange(len(modes)), np.argmax(modes != 0, axis=1)]
    modes = modes[first_nonzero > 0]
    table = (modes, tuple(modes.T % n), tuple(-modes.T % n))
    for arr in (table[0],) + table[1] + table[2]:
        arr.flags.writeable = False  # shared by every caller
    return table


def canonical_modes(dim: int, kappa: int) -> List[Tuple[int, ...]]:
    """Nonzero modes |k|_inf < kappa with positive first nonzero coordinate."""
    # the modes do not depend on the grid; 2 kappa is the coarsest grid
    return [tuple(k) for k in _mode_index(dim, kappa, 2 * kappa)[0].tolist()]


def _slot_pairs(block: np.ndarray, dim: int, kappa: int) -> tuple:
    """Views of the Re and Im slots of the canonical modes, in mode order,
    along the leading axis of a slot block."""
    n_modes = ((2 * kappa - 1) ** dim - 1) // 2
    return block[1:1 + 2 * n_modes:2], block[2:2 + 2 * n_modes:2]


@functools.lru_cache(maxsize=None)
def _storage(hyper: FnoHyper) -> tuple:
    """(slice of theta, shape, leading axis holds mode slots) of each block,
    in storage order."""
    dc, nm = hyper.d_c, hyper.n_mode_slots
    bias = ((nm, dc), True) if hyper.bias_mode == "spectral" else ((dc,), False)
    layer = [((dc, dc), False), ((nm, dc, dc), True), bias]
    blocks, pos = [], 0
    for shape, slotted in ([((hyper.d_out, dc), False)] + layer * hyper.depth
                           + [((dc, hyper.d_in), False)]):
        size = math.prod(shape)
        blocks.append((slice(pos, pos + size), shape, slotted))
        pos += size
    if hyper.bias_mode == "constant" and pos != param_count(hyper).q:
        raise RuntimeError(f"layout length {pos} differs from the declared "
                           f"parameter count of {hyper}")
    return tuple(blocks)


def layout_length(hyper: FnoHyper) -> int:
    return _storage(hyper)[-1][0].stop


class FnoParams:
    """Flat parameter vector bound to a hyperparameter tuple."""

    def __init__(self, hyper: FnoHyper, theta):
        self.hyper = hyper
        self.theta = np.asarray(theta, dtype=float).copy()
        storage = _storage(hyper)
        expected = storage[-1][0].stop
        if self.theta.shape != (expected,):
            raise ValueError(
                f"theta has length {self.theta.shape}, layout needs {expected}")
        # read-only, so the blocks and the cached bias fields stay current
        self.theta.setflags(write=False)
        self._bind([self.theta[sl].reshape(shape) for sl, shape, _ in storage])

    def _bind(self, views: list) -> None:
        """Set the blocks from the stored blocks of theta, in storage order,
        and the transposes that forward multiplies by."""
        layers = tuple(tuple(views[i:i + 3])
                       for i in range(len(views) - 4, 0, -3))
        self._blocks = (views[0], layers, views[-1])
        # (P^T, (W^T, M_0^T, bias) per layer, Q^T), in application order
        self._forward_views = (views[-1].T,
                               tuple((w.T, m[0].T, b) for w, m, b in layers),
                               views[0].T)

    @classmethod
    def rows(cls, hyper: FnoHyper, thetas) -> Iterator["FnoParams"]:
        """One FnoParams per row of a dictionary matrix, made as it is
        needed.  Each row's theta and blocks are views of the matrix,
        reshaped once for the whole batch; a writeable matrix is copied
        once to a read-only one."""
        thetas = np.asarray(thetas, dtype=float)
        storage = _storage(hyper)
        expected = storage[-1][0].stop
        if thetas.ndim != 2 or thetas.shape[1] != expected:
            raise ValueError(f"thetas have shape {thetas.shape}, layout "
                             f"needs rows of {expected}")
        if thetas.flags.writeable:
            thetas = thetas.copy()
            thetas.setflags(write=False)
        count = len(thetas)
        batch = [thetas[:, sl].reshape((count,) + shape)
                 for sl, shape, _ in storage]
        for t in range(count):
            params = cls.__new__(cls)
            params.hyper = hyper
            params.theta = thetas[t]
            params._bind([block[t] for block in batch])
            yield params

    # -- structured access ----------------------------------------------

    def blocks(self) -> tuple:
        """(Q, layers, P) with layers in application order 1..L: read-only
        views of theta, built once."""
        return self._blocks

    _bias_cache = None  # resolution -> spectral bias field of each layer

    def _spectral_bias(self, n: int) -> tuple:
        """Synthesized spectral bias of each layer on the n^d grid, in
        application order; built on first use per resolution."""
        if self._bias_cache is None:
            self._bias_cache = {}
        fields = self._bias_cache.get(n)
        if fields is None:
            h = self.hyper
            fields = []
            for _, _, bias in self._blocks[1]:
                re, im = _slot_pairs(bias, h.dim, h.kappa)
                field = _synthesize(bias[0], re + 1j * im, h.dim, h.kappa, n)
                field.setflags(write=False)
                fields.append(field)
            fields = self._bias_cache[n] = tuple(fields)
        return fields

    _mult_cache = None  # _complex_multiplier of each layer

    def _multipliers(self) -> tuple:
        """The complex multiplier stacks of each layer, in application
        order; built on first use."""
        if self._mult_cache is None:
            h = self.hyper
            self._mult_cache = tuple(_complex_multiplier(mult, h.dim, h.kappa)
                                     for _, mult, _ in self._blocks[1])
        return self._mult_cache

    @classmethod
    def pack(cls, hyper: FnoHyper, q_mat, layers, p_mat) -> "FnoParams":
        """Inverse of blocks(); layers given in application order 1..L."""
        parts = [q_mat, *itertools.chain.from_iterable(reversed(list(layers))),
                 p_mat]
        # reshaping to the stored shape checks each block's size
        storage = _storage(hyper)
        return cls(hyper, np.concatenate([
            np.asarray(part, dtype=float).reshape(shape).ravel()
            for part, (_, shape, _) in zip(parts, storage, strict=True)]))

    @classmethod
    def zeros(cls, hyper: FnoHyper) -> "FnoParams":
        return cls(hyper, np.zeros(layout_length(hyper)))

    @classmethod
    def random(cls, hyper: FnoHyper, box: float, rng: np.random.Generator,
               canonical: bool = True) -> "FnoParams":
        theta = rng.uniform(-box, box, layout_length(hyper))
        if canonical:
            theta = theta * active_mask(hyper)
        return cls(hyper, theta)


def active_mask(hyper: FnoHyper) -> np.ndarray:
    """Boolean mask of slots that influence the forward pass: one read-only
    array per architecture."""
    return _active_mask(hyper)


@functools.lru_cache(maxsize=None)
def _active_mask(hyper: FnoHyper) -> np.ndarray:
    mask = np.ones(layout_length(hyper), dtype=bool)
    for sl, shape, slotted in _storage(hyper):
        if slotted:
            # the (2 kappa - 1)^d active slots precede the inert ones
            mask[sl].reshape(shape)[(2 * hyper.kappa - 1) ** hyper.dim:] = False
    mask.setflags(write=False)
    return mask


# ---------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------


@dataclass
class GridFunction:
    """Real channel-valued samples on the n^d periodic torus grid."""

    dim: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != self.dim + 1:
            raise ValueError("values must have shape (n,)*dim + (channels,)")
        n = self.values.shape[0]
        if self.values.shape[:self.dim] != (n,) * self.dim:
            raise ValueError("grid must be cubic")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite grid values")

    @property
    def resolution(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[-1]

    def shifted(self, offsets: Sequence[int]) -> "GridFunction":
        vals = self.values
        for axis, off in enumerate(offsets):
            vals = np.roll(vals, off, axis=axis)
        return GridFunction(self.dim, vals)

    def to_json(self) -> dict:
        return {"dim": self.dim, "resolution": self.resolution,
                "channels": self.channels, "values": self.values.ravel().tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "GridFunction":
        """Inverse of to_json; any other object raises ConfigError."""
        keys = ("dim", "resolution", "channels", "values")
        if not isinstance(obj, dict) or set(obj) != set(keys):
            raise ConfigError("a grid is an object with exactly the keys "
                              + ", ".join(keys))
        d, n, c, values = (obj[k] for k in keys)
        for name, count in zip(keys, (d, n, c)):
            if type(count) is not int or count < 1:
                raise ConfigError(f"grid: {name} must be a positive integer")
        if not isinstance(values, list) or len(values) != n**d * c:
            raise ConfigError(f"grid: values must be a list of "
                              f"resolution^dim * channels = {n**d * c} numbers")
        try:
            return cls(d, np.array(values, dtype=float).reshape((n,) * d + (c,)))
        except (TypeError, ValueError) as err:  # non-numeric or non-finite
            raise ConfigError(f"grid: {err}") from err


def random_grid_function(dim: int, resolution: int, channels: int,
                         rng: np.random.Generator,
                         normalize: bool = True) -> GridFunction:
    """Gaussian node values, optionally sup-normalized to the unit ball."""
    vals = rng.standard_normal((resolution,) * dim + (channels,))
    if normalize:
        peak = np.max(np.abs(vals))
        if peak > 0:
            vals = vals / peak
    return GridFunction(dim, vals)


def random_inputs(hyper: FnoHyper, count: int, seed: int,
                  resolution: Optional[int] = None) -> List[GridFunction]:
    """Deterministic sup-normalized input family for probes and sweeps."""
    rng = stream(seed, STREAM_INPUT_GEN)
    n = resolution or hyper.default_resolution
    return [random_grid_function(hyper.dim, n, hyper.d_in, rng)
            for _ in range(count)]


# ---------------------------------------------------------------------
# forward evaluation
# ---------------------------------------------------------------------


def _pocketfft():
    """The gufunc module behind np.fft.fft and np.fft.ifft (numpy >= 2.0),
    imported on first use as np.fft itself is, so runs that never
    transform never load it."""
    from numpy.fft import _pocketfft_umath

    return _pocketfft_umath


@functools.lru_cache(maxsize=None)
def _fft_specs(dim: int) -> tuple:
    """The gufunc `axes` argument of each of the leading dim axes, in the
    reverse order that fftn and ifftn take them."""
    return tuple([(axis,), (), (axis,)] for axis in reversed(range(dim)))


def _fft_axes(gufunc, a: np.ndarray, specs: tuple, scale: float) -> np.ndarray:
    """pocketfft's fft or ifft gufunc over each axis of specs in turn,
    scaled by `scale` (1/n forward, 1 inverse: norm="forward").

    These are the calls np.fft.fft and np.fft.ifft make, with the same
    scale and a fresh complex output, so the bits are those of np.fft
    without its argument handling.
    """
    for spec in specs:
        a = gufunc(a, scale, axes=spec, out=np.empty(a.shape, dtype=complex))
    return a


def _synthesize(zero: np.ndarray, coeffs: np.ndarray, dim: int, kappa: int,
                n: int) -> np.ndarray:
    """Real field on the n^d grid (n >= 2 kappa) with Fourier coefficient
    `zero` at mode 0, coeffs[t] at canonical mode t and its conjugate at the
    opposite mode."""
    grid = np.zeros((n,) * dim + zero.shape, dtype=complex)
    grid[(0,) * dim] = zero
    if kappa > 1:
        _, pos, neg = _mode_index(dim, kappa, n)
        grid[pos] = coeffs
        grid[neg] = np.conj(coeffs)
    return _fft_axes(_pocketfft().ifft, grid, _fft_specs(dim), 1).real


def _complex_multiplier(mult: np.ndarray, dim: int, kappa: int) -> tuple:
    """(M_0^T, M_t^T stacked over the canonical modes t, their conjugates)
    of a multiplier slot block, as _apply_multiplier takes them."""
    re, im = _slot_pairs(mult, dim, kappa)
    m_t = (re + 1j * im).transpose(0, 2, 1)
    return mult[0].T, m_t, np.conj(m_t)


def _apply_multiplier(vhat: np.ndarray, mults: tuple, pos: tuple,
                      neg: tuple) -> np.ndarray:
    """y_hat(k) = M_k v_hat(k) on active modes, conjugate pair mirrored;
    mults from _complex_multiplier, pos and neg from _mode_index."""
    m0_t, m_t, m_conj = mults
    out = np.zeros_like(vhat)
    zero = (0,) * (vhat.ndim - 1)
    out[zero] = vhat[zero] @ m0_t
    # a stack of vector-matrix products; einsum would sum in another order
    out[pos] = (vhat[pos][:, None, :] @ m_t)[:, 0, :]
    out[neg] = (vhat[neg][:, None, :] @ m_conj)[:, 0, :]
    return out


class _Plan:
    """What forward needs of one architecture on one input grid shape,
    decided once the input passed the checks."""

    __slots__ = ("hyper", "act", "fft", "ifft", "n", "specs", "scale",
                 "zero", "kappa1", "spectral", "pos", "neg")

    def __init__(self, h: FnoHyper, n: int):
        self.hyper = h  # keeps the id in the cache key taken
        self.act = ACTIVATIONS[h.activation][0]
        pfu = _pocketfft()
        self.fft, self.ifft = pfu.fft, pfu.ifft
        self.n = n
        self.specs = _fft_specs(h.dim)
        self.scale = 1.0 / n  # np.fft's forward scale reciprocal(n)
        self.zero = (0,) * h.dim
        self.kappa1 = h.kappa == 1
        self.spectral = h.bias_mode == "spectral"
        _, self.pos, self.neg = _mode_index(h.dim, h.kappa, n)


# (id of the FnoHyper, input grid shape) -> _Plan.  Keyed by identity, so a
# lookup never hashes or compares the dataclass; each plan holds its hyper,
# so an id stays taken while its entry lives.
_PLANS: dict = {}
_PLAN_LIMIT = 1024


def _plan(h: FnoHyper, u: GridFunction) -> _Plan:
    """The checked plan of h on u's grid; a bad input raises and caches
    nothing."""
    if u.dim != h.dim:
        raise ChannelMismatch(f"input dim {u.dim} != architecture dim {h.dim}")
    if u.channels != h.d_in:
        raise ChannelMismatch(f"input channels {u.channels} != d_in {h.d_in}")
    if h.d_out != 1:
        raise ChannelMismatch("output-averaged forward requires d_out = 1")
    if u.resolution < 2 * h.kappa:
        raise ResolutionTooLow(
            f"resolution {u.resolution} < 2 kappa = {2 * h.kappa}")
    if len(_PLANS) >= _PLAN_LIMIT:
        _PLANS.clear()
    plan = _PLANS[id(h), u.values.shape] = _Plan(h, u.resolution)
    return plan


def forward(params: FnoParams, u: GridFunction) -> float:
    """Lift, apply hidden layers, project, and spatially average."""
    values = u.values
    plan = _PLANS.get((id(params.hyper), values.shape))
    if plan is None:
        plan = _plan(params.hyper, u)
    p_t, layers, q_t = params._forward_views
    if plan.spectral:
        layers = [(w_t, m0_t, field) for (w_t, m0_t, _), field
                  in zip(layers, params._spectral_bias(plan.n))]
    mults = None if plan.kappa1 else params._multipliers()

    v = values @ p_t
    for i, (w_t, m0_t, bias) in enumerate(layers):
        vhat = _fft_axes(plan.fft, v, plan.specs, plan.scale)
        if mults is None:  # a lone zero mode transforms back to its broadcast
            conv = (vhat[plan.zero] @ m0_t).real
        else:
            conv = _fft_axes(plan.ifft, _apply_multiplier(
                vhat, mults[i], plan.pos, plan.neg), plan.specs, 1).real
        v = plan.act(v @ w_t + conv + bias)
    out = v @ q_t
    # np.mean without its Python wrappers: the same sum, divided by the count
    return float(np.add.reduce(out, axis=None) / out.size)


# ---------------------------------------------------------------------
# super architecture and zero-padding
# ---------------------------------------------------------------------


def super_arch(q: int, dim: int, d_in: int, d_out: int, depth: int,
               activation: str = "relu") -> FnoHyper:
    """Maximally connected architecture (d_c = kappa = q) of the given depth.

    Its parameter count is at most 5 * 2^dim * q^(dim+3) for depth <= q.
    """
    if not 1 <= depth <= q:
        raise ValueError("need 1 <= depth <= q")
    if q < max(d_in, d_out):
        raise ValueError("q must be >= the boundary channel counts")
    hyper = FnoHyper(dim, d_in, d_out, d_c=q, kappa=q, depth=depth,
                     activation=activation)
    cap = 5 * 2**dim * q ** (dim + 3)
    if param_count(hyper).q > cap:
        raise RuntimeError("super architecture exceeded its algebraic cap")
    return hyper


def zero_pad_embed(small: FnoParams, target: FnoHyper) -> FnoParams:
    """Embed a parameter vector into a dominating architecture by zero-padding.

    The padded operator reproduces the small one exactly: new channels and
    modes carry zero weights, and zero projection columns annihilate any
    activation offset living in padded channels.
    """
    s = small.hyper
    if target.depth != s.depth:
        raise IncompatibleDepth(f"depth {target.depth} != {s.depth}")
    if (target.dim != s.dim or target.activation != s.activation
            or target.bias_mode != s.bias_mode):
        raise TargetTooSmall("dim, activation and bias mode must match")
    if target.d_in != s.d_in or target.d_out != s.d_out:
        raise TargetTooSmall("boundary channel counts must match")
    if target.d_c < s.d_c or target.kappa < s.kappa:
        raise TargetTooSmall("target must dominate d_c and kappa")

    # target mode number of each canonical mode of the small architecture
    target_t = {k: t for t, k
                in enumerate(canonical_modes(target.dim, target.kappa))}
    moved = np.array([target_t[k] for k in canonical_modes(s.dim, s.kappa)],
                     dtype=np.intp)
    theta = np.zeros(layout_length(target))
    for (sl_s, shape_s, slotted), (sl_t, shape_t, _) in zip(_storage(s),
                                                           _storage(target)):
        src = small.theta[sl_s].reshape(shape_s)
        dst = theta[sl_t].reshape(shape_t)
        if not slotted:
            dst[tuple(map(slice, shape_s))] = src
            continue
        inner = tuple(map(slice, shape_s[1:]))
        dst[(0,) + inner] = src[0]
        for to, frm in zip(_slot_pairs(dst, target.dim, target.kappa),
                           _slot_pairs(src, s.dim, s.kappa)):
            to[(moved,) + inner] = frm
    return FnoParams(target, theta)


# ---------------------------------------------------------------------
# empirical parameter-to-operator Lipschitz estimate
# ---------------------------------------------------------------------


def empirical_lipschitz(hyper: FnoHyper, box: float, probes: int,
                        input_set: Sequence[GridFunction], seed: int) -> float:
    """Lower estimate of the Lipschitz constant of theta -> Phi(.; theta).

    Max over random canonical parameter pairs in [-box, box]^q and over the
    input family of |Phi(u; theta) - Phi(u; theta')| / ||theta - theta'||_inf.
    """
    if probes < 100:
        raise ValueError("need at least 100 probes")
    if not input_set:
        raise ValueError("empty input set")
    rng = stream(seed, STREAM_FNO_PROBE)
    best = 0.0
    for _ in range(probes):
        a = FnoParams.random(hyper, box, rng)
        b = FnoParams.random(hyper, box, rng)
        denom = float(np.max(np.abs(a.theta - b.theta)))
        if denom == 0:
            continue
        gap = max(abs(forward(a, u) - forward(b, u)) for u in input_set)
        best = max(best, gap / denom)
    return best


# ---------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------


def save_theta(params: FnoParams, path) -> None:
    with open(path, "wb") as fh:
        fh.write(params.theta.astype("<f8").tobytes())


def load_params(hyper: FnoHyper, path) -> FnoParams:
    with open(path, "rb") as fh:
        raw = fh.read()
    expected = layout_length(hyper)
    if len(raw) != 8 * expected:
        raise LayoutMismatch(
            f"{path} holds {len(raw)} bytes; the layout of {hyper} needs "
            f"{expected} float64 values ({8 * expected} bytes)")
    return FnoParams(hyper, np.frombuffer(raw, dtype="<f8"))

