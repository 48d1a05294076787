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

Zero mode.  Under constant bias every hidden field of a constant input
is constant, and a constant's spectrum is its zero mode, so each layer
acts through its zero-mode matrix M_0 alone, at any kappa.  A
`GridFunction` records a constant's channel vector as its `level`, and
`forward` evaluates v = level P^T, then v = act(v W^T + v M_0^T + b) per
layer, and returns (v Q^T)[0], in the grid path's order W v, + M_0 v,
+ b.  With one hidden channel (d_c = 1, so d_in = d_out = 1) each step
is one product or one sum, not a reduction, so `forward` runs them on
Python floats, which IEEE 754 rounds as numpy does, with the activation
of `ACTIVATIONS` applied to each float: the bits are the numpy
branch's, a NaN's sign aside.  In 1-D with d_c = 1 and a power-of-two
resolution of at most 32 (the shape of the shipped bits sweep) the bits
are the grid path's; elsewhere the last bits may move, since the grid
path rounds its FFT and its sums of n^d equal values.  The input's
resolution then only decides the ResolutionTooLow check.  Non-constant
inputs and spectral bias, whose field is not constant, take the grid
path `_forward_grid`, which runs one body at every kappa: per layer the
forward FFT, the multiplier and the inverse FFT.

Per-call cost.  `forward_batch`, the library's one evaluation path,
calls `forward` once per (theta, input), tens of thousands of times per
sweep, so each call does little beyond the arithmetic: it checks the
input (dim, channels, d_out, resolution) directly, and on a sweep's
constant inputs the rest is a few float operations per layer (d_c = 1)
or a few vector-matrix products per layer.  The grid path reads the
per-axis FFT specs and the mode indices from tables cached per dim and
per (dim, kappa, n).  The FFTs call numpy's pocketfft gufuncs, the ones
`np.fft.fft` and `np.fft.ifft` reach, with the scale and the complex
output buffer that `np.fft` would pass, so the bits are those of
`np.fft`.  The multiplier acts on the zero mode by the product with
M_0^T, and on the 2T other active modes by one gather at their flat grid
indices, one stacked product and one scatter.  `forward_batch` walks its
rows in chunks, so the work around `forward` is per chunk: a
single-channel architecture under constant bias, on inputs that are all
constant, decodes the chunk's scalars with one `tolist` and `zip`s
(`_decode_scalars`) and binds no blocks; every other row binds its
blocks as views of the matrix, and a row that reaches the grid path gets
its complex multiplier stacks (`_chunk_multipliers`, one vectorised pass
per layer) and its spectral bias fields (`_chunk_bias`) as views of
arrays built for the whole chunk.  A lone `FnoParams` runs the same
builders on a one-row chunk, on first use.  Each chunk's values are
stored in one assignment, and the chunk bounds the Python objects held
at once: `_CHUNK` rows, or fewer for grid rows, whose chunk holds at
most `_CHUNK_BYTES` of stacks and fields.

Bias.  "constant" (the default) stores d_c reals added pointwise and is
what the parameter-count formula assumes; "spectral" stores one
multiplier-style slot block per channel and adds the synthesized field,
at the cost of a longer theta and of translation invariance.  theta is
read-only, so each layer's field is synthesized once per parameter vector
and resolution: in `forward_batch`, for every row of a chunk and every
resolution among the inputs, with one inverse FFT per layer and
resolution over the chunk's [rows, n^d, d_c] stack; for a lone
`FnoParams`, on the first forward that needs it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (ChannelMismatch, ConfigError, IncompatibleDepth,
                     LayoutMismatch, ResolutionTooLow, SizeLimitExceeded,
                     TargetTooSmall)
from .rng import STREAM_FNO_PROBE, STREAM_INPUT_GEN, stream


@functools.lru_cache(maxsize=None)
def _ndtr():
    """scipy.special.ndtr, imported once, on the first gelu call, so runs
    without gelu never load scipy."""
    from scipy.special import ndtr

    return ndtr


def _gelu(x):
    return x * _ndtr()(x)


# activation -> (function, Lipschitz constant used in bound propagation)
ACTIVATIONS = {
    "relu": (lambda x: np.maximum(x, 0.0), 1.0),
    # gelu(x) = x Phi(x); max slope Phi(sqrt 2) + sqrt 2 phi(sqrt 2) = 1.12892...
    "gelu": (_gelu, 1.129),
    "identity": (lambda x: x, 1.0),
}


# bytes of float64 thetas held at once (rows times the layout length): a
# sweep cell's candidates, empirical_lipschitz's probe pairs or the theta
# of FnoParams.random.  At the limit on a 2-vCPU x86-64 VM the bits-hat
# sweep at d_c = 36 took 0.5 s at 287 MB peak RSS (two matrices: the index
# draw and the thetas); `quantize --n-inputs 1` at d_c = 147 (probe pairs)
# took 1.1 s at 293 MB, and with `--c 1` at d_c = 2,364, 1.5 s at 654 MB
THETA_BYTE_BUDGET = 1 << 27
# layers of a layout built or drawn, for its per-layer Python objects: at
# the limit `quantize --c 1 --n-inputs 1` at d_c = kappa = 1 took 4.5-4.9 s
# at 325 MB peak RSS on a 2-vCPU x86-64 VM, about 4.5 KB a layer
DEPTH_LIMIT = 1 << 16


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
    """(modes, index): the canonical modes as rows of an integer array, and
    the flat C-order indices on the n^d grid of each k, then of each -k.

    For n >= 2 kappa no two of these indices coincide, and none is 0.
    """
    axis = np.arange(-(kappa - 1), kappa)
    modes = np.stack(np.meshgrid(*(axis,) * dim, indexing="ij"),
                     axis=-1).reshape(-1, dim)
    first_nonzero = modes[np.arange(len(modes)), np.argmax(modes != 0, axis=1)]
    modes = modes[first_nonzero > 0]
    index = np.concatenate([modes, -modes]) % n @ n ** np.arange(dim)[::-1]
    for arr in (modes, index):
        arr.flags.writeable = False  # shared by every caller
    return modes, index


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
    in storage order, once hyper passes DEPTH_LIMIT."""
    length = checked_layout_length(hyper)
    dc, nm = hyper.d_c, hyper.n_mode_slots
    bias = ((nm, dc), True) if hyper.bias_mode == "spectral" else ((dc,), False)
    layer = [((dc, dc), False), ((nm, dc, dc), True), bias]
    blocks, pos = [], 0
    for shape, slotted in ([((hyper.d_out, dc), False)] + layer * hyper.depth
                           + [((dc, hyper.d_in), False)]):
        size = math.prod(shape)
        blocks.append((slice(pos, pos + size), shape, slotted))
        pos += size
    if pos != length:
        raise RuntimeError(f"storage of length {pos} differs from the "
                           f"layout length of {hyper}")
    return tuple(blocks)


def layout_length(hyper: FnoHyper) -> int:
    """Length of theta, from param_count: q plus the spectral-bias slots."""
    slots = hyper.n_mode_slots if hyper.bias_mode == "spectral" else 1
    return param_count(hyper).q + hyper.depth * hyper.d_c * (slots - 1)


def checked_layout_length(hyper: FnoHyper) -> int:
    """layout_length(hyper); SizeLimitExceeded past DEPTH_LIMIT layers."""
    if hyper.depth > DEPTH_LIMIT:
        raise SizeLimitExceeded(f"depth {hyper.depth} is above the budget "
                                f"of {DEPTH_LIMIT} layers")
    return layout_length(hyper)


def check_theta_bytes(what: str, rows: int, q: int) -> None:
    """SizeLimitExceeded when rows thetas of q float64 values pass it."""
    held = 8 * rows * q
    if held > THETA_BYTE_BUDGET:
        raise SizeLimitExceeded(
            f"{what} holds {rows} thetas of {q} parameters in {held} bytes, "
            f"above the budget of {THETA_BYTE_BUDGET}")


def _layers(stored: list) -> tuple:
    """The (W, multiplier, bias) triples of per-block items in storage
    order, regrouped in application order 1..L."""
    return tuple([tuple(stored[i:i + 3])
                  for i in range(len(stored) - 4, 0, -3)])


def _decode_scalars(storage: tuple, rows: np.ndarray) -> list:
    """(P, (W, M_0, b) per layer, Q) as Python floats, in application
    order, of each d_c = 1 row of a theta matrix, with the _storage of its
    architecture: with one channel each of them is its block's first
    entry.  One tolist per matrix; the rest is zips."""
    columns = rows[:, [sl.start for sl, _, _ in storage]].T.tolist()
    layers = zip(*[zip(*layer) for layer in _layers(columns)])
    return list(zip(columns[-1], layers, columns[0]))


def _block_stacks(storage: tuple, rows: np.ndarray) -> list:
    """Each stored block of the rows of a theta matrix, as one view
    [rows, *shape] per block, in storage order."""
    return [rows[:, sl].reshape((len(rows),) + shape)
            for sl, shape, _ in storage]


def _chunk_multipliers(hyper: FnoHyper, rows: np.ndarray) -> list:
    """The complex multiplier stacks of each row of a theta matrix, one per
    layer in application order, as _apply_multiplier takes them: M_t^T
    over the canonical modes t, then their conjugates, [2T, d_c, d_c] on
    a transposed view, whose layout the bits depend on.  One vectorised
    pass per layer covers every row."""
    stacks = []
    for _, mult, _ in _layers(_block_stacks(_storage(hyper), rows)):
        re, im = _slot_pairs(mult.swapaxes(0, 1), hyper.dim, hyper.kappa)
        m_t = (re + 1j * im).swapaxes(0, 1)
        stacks.append(
            np.concatenate([m_t, np.conj(m_t)], axis=1).swapaxes(2, 3))
    return list(zip(*stacks))


def _chunk_bias(hyper: FnoHyper, rows: np.ndarray, sizes: Sequence[int]
                ) -> list:
    """The spectral bias fields of each row of a theta matrix, as a dict
    from each resolution n of `sizes` to one field on the n^d grid per
    layer, in application order.  One inverse FFT per layer and resolution
    covers every row."""
    layers = _layers(_block_stacks(_storage(hyper), rows))
    caches = [{} for _ in rows]
    for n in sizes:
        fields = zip(*[_synthesize(bias, hyper.dim, hyper.kappa, n)
                       for _, _, bias in layers])
        for cache, row_fields in zip(caches, fields):
            cache[n] = row_fields
    return caches


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

    def _bind(self, views: Sequence) -> None:
        """Set the blocks from the stored blocks of theta, in storage order,
        and the transposes that forward multiplies by."""
        layers = _layers(views)
        self._blocks = (views[0], layers, views[-1])
        # (P^T, (W^T, M_0^T, bias) per layer, Q^T), in application order
        self._forward_views = (views[-1].T,
                               tuple((w.T, m[0].T, b) for w, m, b in layers),
                               views[0].T)

    @classmethod
    def _batch_row(cls, hyper: FnoHyper, theta: np.ndarray, part,
                   bind: bool) -> "FnoParams":
        """Parameters on a read-only row of a forward_batch matrix, without
        __init__'s copy and checks.  If `bind`, `part` is (the row's block
        views, its multiplier stacks, its bias fields by resolution), the
        last two None where not built; otherwise it is the row's decoded
        scalars."""
        params = cls.__new__(cls)
        params.hyper = hyper
        params.theta = theta
        if bind:
            views, params._mult_cache, params._bias_cache = part
            params._bind(views)
        else:
            params._scalar_cache = part
        return params

    # -- structured access ----------------------------------------------

    def blocks(self) -> tuple:
        """(Q, layers, P) with layers in application order 1..L: read-only
        views of theta, built once."""
        return self._blocks

    _scalar_cache = None  # _decode_scalars of theta, when d_c = 1

    def _scalars(self) -> tuple:
        """(P, (W, M_0, b) per layer, Q) as Python floats, in application
        order, for d_c = 1; decoded on first use."""
        if self._scalar_cache is None:
            self._scalar_cache = _decode_scalars(_storage(self.hyper),
                                                 self.theta[None])[0]
        return self._scalar_cache

    _bias_cache = None  # resolution -> spectral bias field of each layer

    def _spectral_bias(self, n: int) -> tuple:
        """Synthesized spectral bias of each layer on the n^d grid, in
        application order; built on first use per resolution, by
        _chunk_bias on a one-row chunk."""
        if self._bias_cache is None:
            self._bias_cache = {}
        fields = self._bias_cache.get(n)
        if fields is None:
            fields = self._bias_cache[n] = _chunk_bias(
                self.hyper, self.theta[None], (n,))[0][n]
        return fields

    _mult_cache = None  # the complex multiplier stack of each layer

    def _multipliers(self) -> tuple:
        """The complex multiplier stacks of each layer, in application
        order; built on first use, by _chunk_multipliers on a one-row
        chunk."""
        if self._mult_cache is None:
            self._mult_cache = _chunk_multipliers(self.hyper,
                                                  self.theta[None])[0]
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
    def random(cls, hyper: FnoHyper, box: float,
               rng: np.random.Generator) -> "FnoParams":
        q = checked_layout_length(hyper)
        check_theta_bytes("the random draw", 1, q)
        return cls(hyper, rng.uniform(-box, box, q) * active_mask(hyper))


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


@dataclass(frozen=True)
class GridFunction:
    """Real channel-valued samples on the n^d periodic torus grid.

    `values` is a read-only copy of the samples.  `level` is the channel
    vector of a constant function (every node equal to node 0) and None
    otherwise; both are set once, with the checks, and never go stale.
    """

    dim: int
    values: np.ndarray = field(repr=False)
    level: Optional[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != self.dim + 1:
            raise ValueError("values must have shape (n,)*dim + (channels,)")
        n = values.shape[0]
        if values.shape[:self.dim] != (n,) * self.dim:
            raise ValueError("grid must be cubic")
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite grid values")
        values.setflags(write=False)
        nodes = values.reshape(-1, values.shape[-1])
        level = nodes[0] if len(nodes) and np.all(nodes == nodes[0]) else None
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "level", level)

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
                         rng: np.random.Generator) -> GridFunction:
    """Gaussian node values, sup-normalized to the unit ball."""
    vals = rng.standard_normal((resolution,) * dim + (channels,))
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals = vals / peak
    return GridFunction(dim, vals)


def random_inputs(hyper: FnoHyper, count: int,
                  seed: int) -> List[GridFunction]:
    """Deterministic sup-normalized input family at default resolution."""
    rng = stream(seed, STREAM_INPUT_GEN)
    return [random_grid_function(hyper.dim, hyper.default_resolution,
                                 hyper.d_in, rng) for _ in range(count)]


# ---------------------------------------------------------------------
# forward evaluation
# ---------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _pocketfft():
    """The gufunc module behind np.fft.fft and np.fft.ifft (numpy >= 2.0),
    imported once, on first use as np.fft itself is, so runs that never
    transform never load it."""
    from numpy.fft import _pocketfft_umath

    return _pocketfft_umath


@functools.lru_cache(maxsize=None)
def _fft_specs(dim: int) -> tuple:
    """The gufunc `axes` argument of each of the dim grid axes, in the
    reverse order that fftn and ifftn take them.  The axes count from the
    channel axis at the end, so they fit a stack of grids too."""
    return tuple([(axis,), (), (axis,)] for axis in range(-2, -dim - 2, -1))


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


def _synthesize(blocks: np.ndarray, dim: int, kappa: int,
                n: int) -> np.ndarray:
    """Read-only real fields [rows, n, ..., n, channels] on the n^d grid
    (n >= 2 kappa) of a stack of slot blocks [rows, slots, channels]:
    Fourier coefficient slot 0 at mode 0, Re + i Im of each canonical mode
    t at t and its conjugate at -t.  One inverse FFT covers every row."""
    rows, _, channels = blocks.shape
    re, im = _slot_pairs(blocks.swapaxes(0, 1), dim, kappa)
    coeffs = (re + 1j * im).swapaxes(0, 1)
    grid = np.zeros((rows, n**dim, channels), dtype=complex)
    grid[:, 0] = blocks[:, 0]
    grid[:, _mode_index(dim, kappa, n)[1]] = np.concatenate(
        [coeffs, np.conj(coeffs)], axis=1)
    grid = grid.reshape((rows,) + (n,) * dim + (channels,))
    # a copy: the .real view would keep the complex transform alive
    fields = _fft_axes(_pocketfft().ifft, grid, _fft_specs(dim), 1).real.copy()
    fields.setflags(write=False)
    return fields


def _apply_multiplier(vhat: np.ndarray, m0_t: np.ndarray, m_t: np.ndarray,
                      index: np.ndarray) -> np.ndarray:
    """y_hat(k) = M_k v_hat(k) on active modes: M_0^T on the zero mode, and
    one stacked product on the modes at the flat grid indices `index`,
    from _mode_index, with their stack m_t, from _chunk_multipliers."""
    flat = vhat.reshape(-1, vhat.shape[-1])
    out = np.zeros(flat.shape, dtype=complex)
    out[0] = flat[0] @ m0_t
    # a stack of vector-matrix products; einsum would sum in another order
    out[index] = (flat[index][:, None, :] @ m_t)[:, 0, :]
    return out.reshape(vhat.shape)


def forward(params: FnoParams, u: GridFunction) -> float:
    """Lift, apply hidden layers, project, and spatially average."""
    h = params.hyper
    shape = u.values.shape
    if u.dim != h.dim:
        raise ChannelMismatch(f"input dim {u.dim} != architecture dim {h.dim}")
    if shape[-1] != h.d_in:
        raise ChannelMismatch(f"input channels {shape[-1]} != d_in {h.d_in}")
    if h.d_out != 1:
        raise ChannelMismatch("output-averaged forward requires d_out = 1")
    if shape[0] < 2 * h.kappa:
        raise ResolutionTooLow(
            f"resolution {shape[0]} < 2 kappa = {2 * h.kappa}")
    level = u.level
    if level is None or h.bias_mode == "spectral":
        return _forward_grid(params, u)
    # under constant bias every hidden field of a constant input is the
    # constant v, whose spectrum is its zero mode: each layer acts through
    # M_0 alone, in the grid path's order W v, + M_0 v, + b
    act = ACTIVATIONS[h.activation][0]
    if h.d_c == 1:
        # one channel: each step is one product or one sum, rounded alike
        # in Python floats and in numpy
        p, layers, q = params._scalars()
        x = level.item() * p
        for w, m0, b in layers:
            x = act(x * w + x * m0 + b)
        return float(x * q)
    # on operands this small a call of ndarray.dot costs less than one of
    # the matmul ufunc
    p_t, layers, q_t = params._forward_views
    v = level.dot(p_t)
    for w_t, m0_t, bias in layers:
        v = act(v.dot(w_t) + v.dot(m0_t) + bias)
    return float(v.dot(q_t)[0])


def _forward_grid(params: FnoParams, u: GridFunction) -> float:
    """forward on the n^d grid of an input that passed forward's checks."""
    h = params.hyper
    n = u.values.shape[0]
    act = ACTIVATIONS[h.activation][0]
    pfu = _pocketfft()
    specs = _fft_specs(h.dim)
    scale = 1.0 / n  # np.fft's forward scale reciprocal(n)
    index = _mode_index(h.dim, h.kappa, n)[1]
    p_t, layers, q_t = params._forward_views
    if h.bias_mode == "spectral":
        layers = [(w_t, m0_t, field) for (w_t, m0_t, _), field
                  in zip(layers, params._spectral_bias(n))]

    v = u.values @ p_t
    for (w_t, m0_t, bias), m_t in zip(layers, params._multipliers()):
        vhat = _fft_axes(pfu.fft, v, specs, scale)
        conv = _fft_axes(pfu.ifft, _apply_multiplier(vhat, m0_t, m_t, index),
                         specs, 1).real
        v = act(v @ w_t + conv + bias)
    out = v @ q_t
    # np.mean without its Python wrappers: the same sum, divided by the count
    return float(np.add.reduce(out, axis=None) / out.size)


# rows per chunk of forward_batch: a chunk's scalars and values are held
# as Python objects, so decoding every row of a large matrix at once would
# multiply the batch's peak memory
_CHUNK = 128
# bytes of the multiplier stacks and bias fields that a chunk of grid rows
# holds at once: 48 rows of the 2-D d_c = 3 kappa 2 spectral-bias shape
# (31 rows of it ran as fast as 128, at a quarter of the memory)
_CHUNK_BYTES = 1 << 18


def _grid_chunk(hyper: FnoHyper, sizes: Sequence[int]) -> int:
    """Rows per chunk of grid rows with bias fields on the n^d grid of each
    n in `sizes`: as many as _CHUNK_BYTES of their complex multiplier
    stacks and real fields hold, from 1 to _CHUNK."""
    modes = len(_mode_index(hyper.dim, hyper.kappa, 2 * hyper.kappa)[1])
    row_bytes = hyper.depth * hyper.d_c * (
        16 * modes * hyper.d_c + 8 * sum(n**hyper.dim for n in sizes))
    return max(1, min(_CHUNK, _CHUNK_BYTES // max(row_bytes, 1)))


def forward_batch(hyper: FnoHyper, thetas, inputs: Sequence[GridFunction]
                  ) -> np.ndarray:
    """out[t, i] = forward of row t of thetas on inputs[i]: the library's
    one evaluation path.  Each row's theta and blocks are read-only views
    of the matrix, so the matrix is neither copied nor written (a
    single-channel row on constant inputs under constant bias gets its
    scalars instead of blocks); forward runs once per (row, input), rows
    in order.  Rows go in chunks: per chunk the scalars are decoded in one
    pass, or the blocks reshaped once, and the values stored in one
    assignment.  Rows that reach the grid path get their multiplier stacks
    and spectral bias fields built per chunk too, and their chunk holds at
    most _CHUNK_BYTES of them.
    """
    thetas = np.asarray(thetas, dtype=float).view()
    storage = _storage(hyper)
    expected = storage[-1][0].stop
    if thetas.ndim != 2 or thetas.shape[1] != expected:
        raise ValueError(f"thetas have shape {thetas.shape}, layout needs "
                         f"rows of {expected}")
    thetas.setflags(write=False)
    spectral = hyper.bias_mode == "spectral"
    grid = spectral or any(u.level is None for u in inputs)
    # on constant inputs under constant bias a single-channel row reads
    # only its scalars, so such a batch decodes them and binds no blocks
    bind = grid or hyper.d_c > 1
    sizes = ()
    if spectral:
        # a bias field per resolution that forward's check admits
        sizes = sorted({u.resolution for u in inputs
                        if u.resolution >= 2 * hyper.kappa})
    step = _grid_chunk(hyper, sizes) if grid else _CHUNK
    unbuilt = itertools.repeat(None)
    width = len(inputs)
    out = np.empty(len(thetas) * width)
    for lo in range(0, len(thetas), step):
        chunk = thetas[lo:lo + step]
        if bind:
            parts = zip(zip(*_block_stacks(storage, chunk)),
                        _chunk_multipliers(hyper, chunk) if grid else unbuilt,
                        _chunk_bias(hyper, chunk, sizes) if spectral
                        else unbuilt)
        else:
            parts = _decode_scalars(storage, chunk)
        rows = (FnoParams._batch_row(hyper, theta, part, bind)
                for theta, part in zip(chunk, parts))
        out[lo * width:(lo + len(chunk)) * width] = [
            forward(params, u) for params in rows for u in inputs]
    return out.reshape(len(thetas), width)


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
    input family of |Phi(u; theta) - Phi(u; theta')| / ||theta - theta'||_inf;
    a NaN on any pair and input makes it NaN.  SizeLimitExceeded before
    drawing past DEPTH_LIMIT or THETA_BYTE_BUDGET.
    """
    if probes < 100:
        raise ValueError("need at least 100 probes")
    if not input_set:
        raise ValueError("empty input set")
    q = checked_layout_length(hyper)
    check_theta_bytes("the probe draw", 2 * probes, q)
    rng = stream(seed, STREAM_FNO_PROBE)
    # each probe's a and b draws in turn, as FnoParams.random draws them
    pairs = rng.uniform(-box, box, (probes, 2, q))
    pairs *= active_mask(hyper)
    denom = np.max(np.abs(pairs[:, 0] - pairs[:, 1]), axis=1)
    keep = denom != 0  # a probe with a zero denominator is not evaluated
    pairs, denom = pairs[keep], denom[keep]
    values = forward_batch(hyper, pairs.reshape(-1, pairs.shape[-1]),
                           input_set)
    gaps = np.max(np.abs(values[0::2] - values[1::2]), axis=1)
    return float(np.max(gaps / denom, initial=0.0))


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

