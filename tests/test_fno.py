"""Output-averaged operator: parameter accounting, forward identities,
zero-padding, and the empirical parameter-to-operator Lipschitz estimate."""

import itertools
import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import entrokit as ek
from entrokit.fno import active_mask, layout_length
from entrokit.rng import stream


def small_hyper(**kw):
    base = dict(dim=1, d_in=1, d_out=1, d_c=1, kappa=1, depth=1,
                activation="identity")
    base.update(kw)
    return ek.FnoHyper(**base)


def rand_input(dim, n, channels, key):
    return ek.random_grid_function(dim, n, channels, stream(key, 7))


# -- parameter counting ---------------------------------------------------


def test_param_count_smallest():
    pc = ek.param_count(small_hyper())
    assert pc.q == 6 and pc.bound == 10 and pc.bound <= 5 * pc.q


def test_param_count_second_example():
    pc = ek.param_count(small_hyper(d_c=2, kappa=2, depth=2))
    assert pc.q == 48 and pc.bound == 160 and pc.bound <= 240


def test_param_count_linear_in_depth():
    h1 = small_hyper(d_c=3, kappa=2, depth=1)
    h2 = small_hyper(d_c=3, kappa=2, depth=2)
    per_layer = 3**2 + 4 * 3**2 + 3
    assert ek.param_count(h2).q - ek.param_count(h1).q == per_layer


def test_param_count_bracketing_lattice():
    for dim, d_c, kappa, depth in itertools.product((1, 2), (1, 2, 3),
                                                    (1, 2, 3), (1, 2, 3)):
        for d_in in (1, d_c):
            h = ek.FnoHyper(dim, d_in, 1, d_c, kappa, depth)
            pc = ek.param_count(h)
            assert pc.q <= pc.bound <= 5 * pc.q


def test_layout_matches_count_for_constant_bias():
    for d_c, kappa, depth in itertools.product((1, 2), (1, 2), (1, 2)):
        h = small_hyper(d_c=d_c, kappa=kappa, depth=depth)
        assert layout_length(h) == ek.param_count(h).q


def test_hyper_validation():
    with pytest.raises(ValueError):
        ek.FnoHyper(1, 2, 1, 1, 1, 1)  # d_c < d_in
    with pytest.raises(ValueError):
        ek.FnoHyper(4, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        ek.FnoHyper(1, 1, 1, 1, 1, 1, activation="tanh")


# -- forward identities -----------------------------------------------------


def test_zero_parameters_give_zero():
    for act in ("relu", "gelu", "identity"):
        h = small_hyper(d_c=2, kappa=2, depth=2, activation=act)
        p = ek.FnoParams.zeros(h)
        assert ek.forward(p, rand_input(1, 8, 1, 3)) == 0.0


def test_reduces_to_averaging():
    # identity activation, unit zero-mode multiplier, unit lifting/projection
    h = small_hyper()
    mult = np.zeros((2, 1, 1))
    mult[0, 0, 0] = 1.0
    p = ek.FnoParams.pack(h, np.eye(1), [(np.zeros((1, 1)), mult, np.zeros(1))],
                          np.eye(1))
    u = rand_input(1, 8, 1, 5)
    assert ek.forward(p, u) == pytest.approx(float(np.mean(u.values)), abs=1e-14)
    # pointwise identity path: W = I, no multiplier
    pw = ek.FnoParams.pack(h, np.eye(1), [(np.eye(1), np.zeros((2, 1, 1)),
                                           np.zeros(1))], np.eye(1))
    assert ek.forward(pw, u) == pytest.approx(float(np.mean(u.values)), abs=1e-14)


def test_doubled_zero_mode_doubles_mean():
    # hand-computed zero-mode action: coefficient 2 at k=0 yields 2 mean(u)
    h = small_hyper()
    mult = np.zeros((2, 1, 1))
    mult[0, 0, 0] = 2.0
    p = ek.FnoParams.pack(h, np.eye(1), [(np.zeros((1, 1)), mult, np.zeros(1))],
                          np.eye(1))
    u = rand_input(1, 8, 1, 6)
    oracle = 2.0 * float(np.mean(u.values))  # DFT mode 0 is the spatial mean
    assert ek.forward(p, u) == pytest.approx(oracle, abs=1e-14)


def test_single_nonzero_mode_hand_oracle():
    # multiplier on k=1 only; identity activation; hand DFT evaluation
    h = small_hyper(kappa=2)
    mult = np.zeros((4, 1, 1))
    mult[1, 0, 0] = 1.5  # re part of mode +1
    p = ek.FnoParams.pack(h, np.eye(1), [(np.zeros((1, 1)), mult, np.zeros(1))],
                          np.eye(1))
    u = rand_input(1, 8, 1, 12)
    # K u has zero mean (only modes +-1 are populated), so the output is 0
    assert ek.forward(p, u) == pytest.approx(0.0, abs=1e-14)


def test_identity_linearity():
    h = small_hyper(d_c=2, kappa=2, depth=2)
    q_m, layers, p_m = ek.FnoParams.random(h, 1.0, stream(6, 8)).blocks()
    layers = [(w, m, np.zeros_like(b)) for w, m, b in layers]
    p = ek.FnoParams.pack(h, q_m, layers, p_m)
    ua, ub = rand_input(1, 8, 1, 7), rand_input(1, 8, 1, 8)
    mix = ek.GridFunction(1, 2.0 * ua.values - 3.0 * ub.values)
    lhs = ek.forward(p, mix)
    rhs = 2.0 * ek.forward(p, ua) - 3.0 * ek.forward(p, ub)
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


@pytest.mark.parametrize("dim,act", [(1, "relu"), (2, "gelu"), (2, "relu")])
def test_translation_invariance(dim, act):
    h = ek.FnoHyper(dim, 2, 1, 3, 2, 2, activation=act)
    p = ek.FnoParams.random(h, 1.0, stream(4, 8))
    u = rand_input(dim, 8, 2, 5)
    base = ek.forward(p, u)
    shifts = [(3,), (5,)] if dim == 1 else [(3, 1), (0, 5)]
    for s in shifts:
        shifted = ek.forward(p, u.shifted(s))
        assert abs(shifted - base) <= 1e-10 * (1 + abs(base))


def bandlimited_sampler(dim, channels, max_mode, rng):
    """Random real band-limited function, samplable at any resolution.

    Coefficients are drawn once for modes |k|_inf < max_mode; calling the
    sampler evaluates the same continuum function on an n^d grid, so two
    resolutions represent identical inputs.  Below n = 2 max_mode the
    modes would alias, and the sampler raises ResolutionTooLow.
    """
    n_modes = 1 + len(ek.canonical_modes(dim, max_mode))
    re, im = (rng.standard_normal((n_modes, channels)) for _ in range(2))
    # a slot block: the zero mode, which must be real, then Re and Im of
    # each canonical mode
    block = np.empty((2 * n_modes - 1, channels))
    block[0], block[1::2], block[2::2] = re[0], re[1:], im[1:]

    def at_resolution(n):
        if n < 2 * max_mode:
            raise ek.ResolutionTooLow(
                f"resolution {n} < 2 max_mode = {2 * max_mode}")
        return ek.GridFunction(dim, ek.fno._synthesize(
            block[None], dim, max_mode, n)[0])

    return at_resolution


def test_resolution_consistency_bandlimited():
    h = small_hyper(d_c=2, kappa=2)
    q_m, layers, p_m = ek.FnoParams.random(h, 1.0, stream(9, 8)).blocks()
    layers = [(np.zeros_like(w), m, b) for w, m, b in layers]
    p = ek.FnoParams.pack(h, q_m, layers, p_m)
    sampler = bandlimited_sampler(1, 1, 2, stream(10, 7))
    a, b = ek.forward(p, sampler(8)), ek.forward(p, sampler(16))
    assert abs(a - b) <= 1e-10 * (1 + abs(a))


def test_bandlimited_sampler_rejects_aliasing_resolution():
    sampler = bandlimited_sampler(2, 1, 3, stream(10, 7))
    assert sampler(6).resolution == 6
    with pytest.raises(ek.ResolutionTooLow):
        sampler(5)


def test_forward_validation():
    h = small_hyper(kappa=4)
    p = ek.FnoParams.zeros(h)
    with pytest.raises(ek.ResolutionTooLow):
        ek.forward(p, rand_input(1, 4, 1, 3))
    with pytest.raises(ek.ChannelMismatch):
        ek.forward(ek.FnoParams.zeros(small_hyper(d_in=2, d_c=2)),
                   rand_input(1, 8, 1, 3))
    with pytest.raises(ek.ChannelMismatch):
        ek.forward(ek.FnoParams.zeros(small_hyper(d_out=2, d_c=2)),
                   rand_input(1, 8, 1, 3))


def test_spectral_bias_mode_zero_equals_constant_bias():
    hc = small_hyper(d_c=2, activation="relu")
    hs = small_hyper(d_c=2, activation="relu", bias_mode="spectral")
    q_m, layers, p_m = ek.FnoParams.random(hc, 1.0, stream(13, 8)).blocks()
    spectral_layers = []
    for w, m, b in layers:
        sb = np.zeros((hs.n_mode_slots, 2))
        sb[0] = b  # zero-mode spectral bias is the constant bias
        spectral_layers.append((w, m, sb))
    pc = ek.FnoParams.pack(hc, q_m, layers, p_m)
    ps = ek.FnoParams.pack(hs, q_m, spectral_layers, p_m)
    u = rand_input(1, 8, 1, 14)
    assert ek.forward(pc, u) == pytest.approx(ek.forward(ps, u), abs=1e-14)


def _conjugate_pairs(block, modes):
    """(k, coefficient) at mode 0, at each canonical mode and at its
    opposite, decoded slot by slot from a slot block."""
    pairs = [((0, 0), block[0].astype(complex))]
    for t, k in enumerate(modes):
        c = block[1 + 2 * t] + 1j * block[2 + 2 * t]
        pairs.append((k, c))
        pairs.append((tuple(-ki for ki in k), np.conj(c)))
    return pairs


def _dft_sum(pairs, n):
    """Re sum_k c_k exp(2 pi i k.x) on the n x n grid, term by term."""
    x = np.arange(n) / n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    out = 0.0
    for k, ck in pairs:
        phase = np.exp(2j * np.pi * (k[0] * xx + k[1] * yy))
        out = out + np.real(phase[..., None] * ck[None, None, :])
    return out


def test_multiplier_matches_naive_dft_oracle():
    # independent oracle: apply the realized conjugate-symmetric multiplier
    # through explicit DFT sums instead of the fft path
    h = small_hyper(dim=2, d_c=2, kappa=2)
    p = ek.FnoParams.random(h, 1.0, stream(51, 8))
    _, layers, _ = p.blocks()
    _, mult, _ = layers[0]
    modes = ek.canonical_modes(2, 2)
    n = 8
    u = ek.random_grid_function(2, n, 2, stream(52, 7))

    # continuum-convention coefficients: vhat(k) = mean(v * exp(-2 pi i k.x))
    x = np.arange(n) / n
    xx, yy = np.meshgrid(x, x, indexing="ij")

    def coefficient(v, k):
        phase = np.exp(-2j * np.pi * (k[0] * xx + k[1] * yy))
        return np.tensordot(phase, v, axes=([0, 1], [0, 1])) / n**2

    oracle = _dft_sum([(k, mk @ coefficient(u.values, k))
                       for k, mk in _conjugate_pairs(mult, modes)], n)

    vhat = np.fft.fftn(u.values, axes=(0, 1), norm="forward")
    m_t = ek.fno._chunk_multipliers(h, p.theta[None])[0][0]
    fast = np.real(np.fft.ifftn(
        ek.fno._apply_multiplier(vhat, mult[0].T, m_t,
                                 ek.fno._mode_index(2, 2, n)[1]),
        axes=(0, 1), norm="forward"))
    assert np.allclose(fast, oracle, atol=1e-12)


def test_spectral_bias_matches_naive_dft_oracle():
    h = small_hyper(dim=2, d_c=2, kappa=3, bias_mode="spectral")
    _, layers, _ = ek.FnoParams.random(h, 1.0, stream(53, 8)).blocks()
    _, _, bias = layers[0]
    n = 8
    oracle = _dft_sum(_conjugate_pairs(bias, ek.canonical_modes(2, 3)), n)
    field = ek.fno._synthesize(bias[None], 2, 3, n)[0]
    assert np.allclose(field, oracle, atol=1e-12)


def test_spectral_bias_is_synthesized_once_per_layer_and_resolution(
        monkeypatch):
    calls = []
    synthesize = ek.fno._synthesize

    def counted(blocks, *args):
        calls.append((len(blocks), args[-1]))  # rows and resolution
        fields = synthesize(blocks, *args)
        # real arrays of their own, not views of the complex transform
        assert fields.dtype == float and fields.base is None
        assert not fields.flags.writeable
        return fields

    monkeypatch.setattr(ek.fno, "_synthesize", counted)
    h = ek.FnoHyper(2, 1, 1, 3, 2, 2, bias_mode="spectral")
    p = ek.FnoParams.random(h, 1.0, stream(54, 8))
    inputs = []
    for n in (4, 6):
        first, second = rand_input(2, n, 1, 55), rand_input(2, n, 1, 56)
        for u in (first, second, first):
            assert ek.forward(p, u) == _reference_forward(p, u)
        inputs += [first, second]
    assert calls == [(1, 4), (1, 4), (1, 6), (1, 6)]
    # forward_batch: once per layer, resolution and chunk; two rows fill a
    # chunk: per row 2 layers of 3 channels of real fields on 4^2 + 6^2
    # nodes, 8 bytes a value, plus 2 layers of 8 complex multiplier
    # matrices of 3 x 3, 16 bytes a value
    monkeypatch.setattr(ek.fno, "_CHUNK_BYTES",
                        2 * 2 * 3 * (8 * 52 + 16 * 24))
    thetas = stream(59, 8).uniform(-1.0, 1.0, (5, layout_length(h)))
    calls.clear()
    got = ek.forward_batch(h, thetas, inputs)
    assert calls == [(2, 4), (2, 4), (2, 6), (2, 6)] * 2 + [(1, 4), (1, 4),
                                                           (1, 6), (1, 6)]
    want = [[ek.forward(ek.FnoParams(h, theta), u) for u in inputs]
            for theta in thetas]
    assert got.tobytes() == np.array(want).tobytes()
    calls.clear()
    # the constant bias keeps no cache
    c = ek.FnoParams.random(small_hyper(d_c=2, kappa=2), 1.0, stream(57, 8))
    ek.forward(c, rand_input(1, 8, 1, 58))
    assert not calls and "_bias_cache" not in vars(c)


def test_three_dimensional_operator():
    h = ek.FnoHyper(3, 1, 1, 2, 1, 1, activation="relu")
    p = ek.FnoParams.random(h, 1.0, stream(41, 8))
    u = rand_input(3, 4, 1, 42)
    base = ek.forward(p, u)
    assert np.isfinite(base)
    shifted = ek.forward(p, u.shifted((1, 2, 3)))
    assert abs(shifted - base) <= 1e-10 * (1 + abs(base))
    padded = ek.zero_pad_embed(p, ek.FnoHyper(3, 1, 1, 3, 2, 1,
                                              activation="relu"))
    again = ek.forward(padded, u)
    assert abs(again - base) <= 1e-12 * (1 + abs(base))


def _reference_forward(params, u):
    """forward as first written: np.fft.fft and ifft with norm="forward"
    over each axis, the full inverse transform in every layer, the
    multiplier and the spectral bias decoded slot by slot, and np.mean at
    the end, over blocks sliced from the stored layout."""
    h, fno = params.hyper, ek.fno
    views = [params.theta[sl].reshape(shape)
             for sl, shape, _ in fno._storage(h)]
    zero = (0,) * h.dim
    modes = np.array(ek.canonical_modes(h.dim, h.kappa)).reshape(-1, h.dim)
    pos, neg = tuple(modes.T % u.resolution), tuple(-modes.T % u.resolution)

    def transform(fft, a):
        for axis in reversed(range(h.dim)):
            a = fft(a, axis=axis, norm="forward")
        return a

    def multiply(vhat, mult):
        out = np.zeros_like(vhat)
        out[zero] = vhat[zero] @ mult[0].T
        if h.kappa > 1:
            re, im = fno._slot_pairs(mult, h.dim, h.kappa)
            m_t = (re + 1j * im).transpose(0, 2, 1)
            out[pos] = (vhat[pos][:, None, :] @ m_t)[:, 0, :]
            out[neg] = (vhat[neg][:, None, :] @ np.conj(m_t))[:, 0, :]
        return out

    v = u.values @ views[-1].T
    for i in range(len(views) - 4, 0, -3):
        w_mat, mult, bias = views[i:i + 3]
        vhat = transform(np.fft.fft, v)
        conv = np.real(transform(np.fft.ifft, multiply(vhat, mult)))
        if h.bias_mode == "spectral":
            grid = np.zeros(v.shape, dtype=complex)
            grid[zero] = bias[0]
            if h.kappa > 1:
                re, im = fno._slot_pairs(bias, h.dim, h.kappa)
                grid[pos] = re + 1j * im
                grid[neg] = np.conj(re + 1j * im)
            bias = np.real(transform(np.fft.ifft, grid))
        v = fno.ACTIVATIONS[h.activation][0](v @ w_mat.T + conv + bias)
    return float(np.mean(v @ views[0].T))


@pytest.mark.parametrize("dim,kappa", list(itertools.product((1, 2, 3),
                                                             (1, 2, 3))))
def test_forward_equals_the_fftn_formula_bit_for_bit(dim, kappa):
    rng = stream(70 + 3 * dim + kappa, 8)
    for act, bias_mode, extra in itertools.product(
            sorted(ek.ACTIVATIONS), ("constant", "spectral"), range(4)):
        d_c = int(rng.integers(1, 5))
        h = ek.FnoHyper(dim, int(rng.integers(1, d_c + 1)), 1, d_c, kappa,
                        int(rng.integers(1, 3)), act, bias_mode)
        p = ek.FnoParams(h, rng.uniform(-1.0, 1.0, layout_length(h)))
        u = ek.random_grid_function(dim, 2 * kappa + extra, h.d_in, rng)
        assert ek.forward(p, u) == _reference_forward(p, u)


# resolutions for the lean-path oracle: even, odd and prime grids
ORACLE_RESOLUTIONS = (2, 3, 4, 5, 6, 7, 8, 9, 11, 13)


def test_lean_forward_matches_the_np_fft_oracle_on_random_architectures():
    # 204 seeded architectures, each at two resolutions >= 2 kappa, called
    # in the order a, b, a so one architecture holds two cached plans; a
    # batch of three thetas goes through forward_batch as well
    rng = stream(90, 8)
    combos = list(itertools.product(sorted(ek.ACTIVATIONS),
                                    ("constant", "spectral"))) * 34
    for act, bias_mode in combos:
        dim, kappa = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        d_c = int(rng.integers(1, 5))
        h = ek.FnoHyper(dim, int(rng.integers(1, d_c + 1)), 1, d_c, kappa,
                        int(rng.integers(1, 3)), act, bias_mode)
        sizes = [n for n in ORACLE_RESOLUTIONS if n >= 2 * kappa]
        first, second = (
            ek.random_grid_function(dim, int(rng.choice(sizes)), h.d_in, rng)
            for _ in range(2))
        thetas = rng.uniform(-1.0, 1.0, (3, layout_length(h)))
        thetas.setflags(write=False)
        inputs = (first, second, first)
        batch = ek.forward_batch(h, thetas, inputs)
        for theta, values in zip(thetas, batch):
            single = ek.FnoParams(h, theta)
            for u, value in zip(inputs, values):
                want = _reference_forward(single, u)
                assert ek.forward(single, u) == want
                assert value == want


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 5, 8, 11])
def test_fft_axes_equals_np_fft(dim, n):
    rng = stream(91 + dim, 8)
    real = rng.standard_normal((n,) * dim + (3,))
    specs, pfu = ek.fno._fft_specs(dim), ek.fno._pocketfft()
    for a in (real, real + 1j * rng.standard_normal(real.shape)):
        want_fwd, want_inv = a, a
        for axis in reversed(range(dim)):
            want_fwd = np.fft.fft(want_fwd, axis=axis, norm="forward")
            want_inv = np.fft.ifft(want_inv, axis=axis, norm="forward")
        got_fwd = ek.fno._fft_axes(pfu.fft, a, specs, 1.0 / n)
        got_inv = ek.fno._fft_axes(pfu.ifft, a, specs, 1)
        for got, want in ((got_fwd, want_fwd), (got_inv, want_inv)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_fft_gufuncs_are_the_ones_np_fft_uses():
    # a numpy that moves np.fft's gufuncs fails here before any bit drifts
    assert ek.fno._pocketfft() is np.fft._pocketfft.pfu


def test_a_bad_input_raises_on_every_call():
    h = small_hyper(kappa=3)
    p = ek.FnoParams.random(h, 1.0, stream(92, 8))
    low, good = rand_input(1, 5, 1, 93), rand_input(1, 6, 1, 94)
    wide = rand_input(1, 6, 2, 95)
    for bad, error in ((low, ek.ResolutionTooLow), (wide, ek.ChannelMismatch)):
        with pytest.raises(error):
            ek.forward(p, bad)
        assert ek.forward(p, good) == _reference_forward(p, good)
        with pytest.raises(error):
            ek.forward(p, bad)


# -- constant inputs --------------------------------------------------------


U = 2.0 ** -53  # unit roundoff of float64
# peak relative error of scipy's ndtr (cephes' documented 3.4e-14) plus
# gelu's product x * ndtr(x); relu and identity round nothing
ACT_ROUNDING = {"relu": 0.0, "identity": 0.0, "gelu": 3.4e-14 + U}


def _grid(p, u):
    return ek.fno._forward_grid(p, u)


def _constant_rounding_bound(p, u):
    """Bound, to first order in U, on |forward(p, u) - _forward_grid(p, u)|
    for a constant input u under constant bias, from depth, d_c, n and the
    magnitudes of the weights.

    Per channel, a bounds each hidden value (|act(x)| <= |x| for all three
    activations) and e bounds how far the grid path's field may sit from
    the constant branch's value at any node.  A length-k sum, dot product
    or matrix-vector product errs by at most k U times the sum of its term
    magnitudes.  A length-n FFT pass with radices r_1 ... r_s (s <= log2 n)
    forms each output through s stages, each a sum of r_i terms after a
    complex twiddle product of at most 4 roundings: at most
    sum_i (r_i + 4) <= n + 4 s <= 2n + 4 units against the input
    magnitudes.  Each layer's roundings, all counted against the layer's
    whole term magnitude:

    - constant branch: W v and M_0 v (d_c each) and two adds, 2 d_c + 2;
    - grid path: W v (d_c), the forward transform (d passes and d scales
      by 1/n, d (2n + 5)), the complex zero-mode product (d_c + 2), the
      inverse transform (d (2n + 4)) and two adds, 2 d_c + 4 + d (4n + 9);

    4 d_c + 6 + d (4n + 9) units in all.  A deviation e of the field
    reaches the next pre-activation through |W| + |M_0| + sum_k |M_k| (the
    transform of a field within e of a constant is within e of it at mode
    0 and has modulus at most e at every other mode), then the
    activation's Lipschitz constant, plus its own rounding at both values.
    The output adds a matrix-vector product on each path and the grid's
    mean of N = n^d values (N - 1 sums and one division).
    """
    h = p.hyper
    lip = ek.ACTIVATIONS[h.activation][1]
    q_mat, layers, p_mat = p.blocks()
    per_layer = (4 * h.d_c + 6 + h.dim * (4 * u.resolution + 9)) * U
    a = np.abs(p_mat) @ np.abs(u.level)
    e = 2 * h.d_in * U * a
    for w_mat, mult, bias in layers:
        re, im = ek.fno._slot_pairs(mult, h.dim, h.kappa)
        spread = np.abs(w_mat) + np.abs(mult[0]) + 2 * np.sum(
            np.abs(re) + np.abs(im), axis=0)
        terms = spread @ a + np.abs(bias)
        a = (np.abs(w_mat) + np.abs(mult[0])) @ a + np.abs(bias)
        e = (lip * (spread @ e + per_layer * terms)
             + 2 * ACT_ROUNDING[h.activation] * a)
    n_nodes = u.resolution ** h.dim
    out = np.abs(q_mat) @ (e + (2 * h.d_c + n_nodes) * U * a)
    return float(out[0])


def test_constant_inputs_evaluate_as_on_the_grid():
    # 1-D, d_c = 1, power-of-two n <= 32: the grid path's sums of equal
    # values are exact, so the bits match; elsewhere the stated bound holds
    rng = stream(98, 8)
    exact = bounded = 0
    for dim, act, depth, kappa, d_c in itertools.product(
            (1, 2, 3), sorted(ek.ACTIVATIONS), (1, 2), (1, 2), (1, 2, 3)):
        sizes = [n for n in (2, 3, 4, 5, 6, 7, 8, 16, 32)
                 if n >= 2 * kappa and n ** dim <= 512]
        for n in sizes * 3:
            h = ek.FnoHyper(dim, int(rng.integers(1, d_c + 1)), 1, d_c, kappa,
                            depth, act)
            p = ek.FnoParams(h, rng.uniform(-1.0, 1.0, layout_length(h)))
            level = rng.uniform(-1.0, 1.0, h.d_in)
            u = ek.GridFunction(dim, np.broadcast_to(
                level, (n,) * dim + (h.d_in,)))
            assert np.array_equal(u.level, level)
            got, want = ek.forward(p, u), _grid(p, u)
            if dim == 1 and d_c == 1 and n & (n - 1) == 0:
                assert got == want
                exact += 1
            else:
                assert abs(got - want) <= _constant_rounding_bound(p, u)
                bounded += 1
    # 3 draws x 3 activations x 2 depths x 9 power-of-two sizes over kappa
    assert exact == 162 and bounded == 2106


def _numpy_constant_branch(p, level):
    """forward's constant-input branch for any d_c, in numpy: v = level P^T,
    v = act(v W^T + v M_0^T + b) per layer, (v Q^T)[0]."""
    act = ek.ACTIVATIONS[p.hyper.activation][0]
    q_mat, layers, p_mat = p.blocks()
    v = level.dot(p_mat.T)
    for w_mat, mult, bias in layers:
        v = act(v.dot(w_mat.T) + v.dot(mult[0].T) + bias)
    return float(v.dot(q_mat.T)[0])


# signed zeros, the smallest subnormal and an entry that overflows
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308])


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_single_channel_constant_inputs_give_the_numpy_bits():
    # d_c = 1 evaluates in Python floats; through forward and forward_batch
    # every non-NaN value carries the numpy branch's bits, signed zeros
    # included, and a NaN stays NaN (IEEE 754 leaves its sign open)
    rng = stream(100, 8)
    levels = np.append(SPECIAL[[0, 1, 2, 4]], rng.uniform(-1.0, 1.0, 2))
    compared = nans = negative_zeros = 0
    for dim, kappa, depth, act in itertools.product(
            (1, 2, 3), (1, 2, 3), (1, 2, 3), sorted(ek.ACTIVATIONS)):
        h = ek.FnoHyper(dim, 1, 1, 1, kappa, depth, act)
        thetas = rng.uniform(-2.0, 2.0, (2, layout_length(h)))
        special = rng.random(thetas.shape) < 0.3
        thetas[special] = rng.choice(SPECIAL, int(special.sum()))
        inputs = [ek.GridFunction(dim, np.full((2 * kappa,) * dim + (1,), x))
                  for x in levels]
        batch = ek.forward_batch(h, thetas, inputs)
        for theta, batch_row in zip(thetas, batch):
            p = ek.FnoParams(h, theta)
            for u, from_batch in zip(inputs, batch_row):
                want = _numpy_constant_branch(p, u.level)
                for got in (ek.forward(ek.FnoParams(h, theta), u),
                            float(from_batch)):
                    if math.isnan(want):
                        assert math.isnan(got)
                        nans += 1
                        continue
                    bits = struct.pack("<d", got)
                    assert bits == struct.pack("<d", want)
                    compared += 1
                    negative_zeros += bits == struct.pack("<d", -0.0)
    # 81 architectures x 2 thetas x 6 levels, each through both paths
    assert compared + nans == 1944
    assert nans > 0 and negative_zeros > 0


@pytest.mark.parametrize("bias_mode", ["constant", "spectral"])
def test_single_channel_rows_bind_unless_every_input_is_constant(bias_mode):
    # a single-channel batch skips binding only under constant bias with
    # every input constant; a grid input or spectral bias binds each row
    rng = stream(101, 8)
    const = ek.GridFunction(1, np.full((4, 1), 0.75))
    grid = rand_input(1, 4, 1, 102)
    for act in sorted(ek.ACTIVATIONS):
        h = ek.FnoHyper(1, 1, 1, 1, 2, 2, act, bias_mode)
        thetas = rng.uniform(-1.0, 1.0, (3, layout_length(h)))
        for inputs in ([const, grid], [grid, const], [const]):
            got = ek.forward_batch(h, thetas, inputs)
            want = np.array([[ek.forward(ek.FnoParams(h, theta), u)
                              for u in inputs] for theta in thetas])
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim,kappa", [(1, 1), (1, 2), (2, 2)])
def test_spectral_bias_keeps_the_grid_path_on_constant_inputs(dim, kappa):
    # the synthesized bias field is not constant, so forward gives the bits
    # of the np.fft oracle, not those of the zero-mode recursion
    rng = stream(99 + dim + kappa, 8)
    for act in sorted(ek.ACTIVATIONS):
        h = ek.FnoHyper(dim, 1, 1, 2, kappa, 2, act, "spectral")
        p = ek.FnoParams.random(h, 1.0, rng)
        u = ek.GridFunction(dim, np.full((4 * kappa,) * dim + (1,),
                                         rng.uniform(-1.0, 1.0)))
        assert u.level is not None
        assert ek.forward(p, u) == _reference_forward(p, u) == _grid(p, u)


def test_forward_batch_equals_a_forward_loop_on_random_architectures():
    # 102 seeded architectures: dim 1-3, kappa 1-3, both bias modes, every
    # activation, 0-3 rows and 1-3 inputs; bit for bit, signed zeros too
    rng = stream(96, 8)
    combos = list(itertools.product(sorted(ek.ACTIVATIONS),
                                    ("constant", "spectral"))) * 17
    shapes = set()
    for act, bias_mode in combos:
        dim, kappa = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        d_c = int(rng.integers(1, 5))
        h = ek.FnoHyper(dim, int(rng.integers(1, d_c + 1)), 1, d_c, kappa,
                        int(rng.integers(1, 3)), act, bias_mode)
        inputs = [ek.random_grid_function(dim, 2 * kappa + int(rng.integers(3)),
                                          h.d_in, rng)
                  for _ in range(int(rng.integers(1, 4)))]
        thetas = rng.uniform(-1.0, 1.0, (int(rng.integers(4)), layout_length(h)))
        got = ek.forward_batch(h, thetas, inputs)
        want = np.array([[ek.forward(ek.FnoParams(h, theta), u) for u in inputs]
                         for theta in thetas]).reshape(len(thetas), len(inputs))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        shapes.add((min(len(thetas), 1), min(len(inputs), 2)))
    assert shapes == {(0, 1), (0, 2), (1, 1), (1, 2)}  # no rows, one input
    # row counts around the chunk size, single channel: all-constant inputs
    # (decoded scalars) and constant with grid inputs (bound rows), thetas
    # with signed zeros and subnormals
    chunk = ek.fno._CHUNK
    const = [ek.GridFunction(1, np.full((4, 1), x)) for x in (-0.0, 0.5)]
    for act, depth in itertools.product(sorted(ek.ACTIVATIONS), (1, 2, 3)):
        h = ek.FnoHyper(1, 1, 1, 1, 2, depth, act)
        thetas = rng.uniform(-1.0, 1.0, (2 * chunk + 1, layout_length(h)))
        special = rng.random(thetas.shape) < 0.3
        thetas[special] = rng.choice(SPECIAL[:4], int(special.sum()))
        for inputs in (const, const + [rand_input(1, 4, 1, depth)]):
            want = np.array([[ek.forward(ek.FnoParams(h, theta), u)
                              for u in inputs] for theta in thetas])
            for rows in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
                got = ek.forward_batch(h, thetas[:rows], inputs)
                assert got.tobytes() == want[:rows].tobytes()


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_forward_batch_grid_rows_equal_forward_and_the_oracle(data):
    # grid rows get their multiplier stacks and bias fields a chunk at a
    # time: bit for bit a lone FnoParams' forward and the np.fft oracle, at
    # row counts around the chunk, with inputs at two resolutions
    draw = data.draw
    dim, kappa, d_c = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                       draw(st.integers(1, 4)))
    h = ek.FnoHyper(dim, draw(st.integers(1, d_c)), 1, d_c, kappa,
                    draw(st.integers(1, 2)),
                    draw(st.sampled_from(sorted(ek.ACTIVATIONS))),
                    draw(st.sampled_from(["constant", "spectral"])))
    rng = stream(draw(st.integers(0, 2**16)), 8)
    sizes = (2 * kappa, 2 * kappa + 1 + int(rng.integers(2)))
    inputs = [ek.random_grid_function(dim, n, h.d_in, rng) for n in sizes]
    inputs.append(ek.GridFunction(dim, np.full((sizes[0],) * dim + (h.d_in,),
                                               rng.uniform(-1.0, 1.0))))
    chunk = ek.fno._grid_chunk(h, sizes if h.bias_mode == "spectral" else ())
    counts = (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 5)
    thetas = rng.uniform(-1.0, 1.0, (counts[-1], layout_length(h)))
    want = np.array([[ek.forward(ek.FnoParams(h, theta), u) for u in inputs]
                     for theta in thetas])
    built, build = [], ek.fno._chunk_multipliers

    def recorded(hyper, rows):
        built.append(len(rows))
        return build(hyper, rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ek.fno, "_chunk_multipliers", recorded)
        for rows in counts:
            got = ek.forward_batch(h, thetas[:rows], inputs)
            assert got.tobytes() == want[:rows].tobytes()
    # one build per chunk, none per row
    assert max(built) == chunk and sum(built) == sum(counts)
    assert len(built) == sum(-(-rows // chunk) for rows in counts)
    # the oracle, on the rows of the first chunk and the next, reads
    # constant inputs on the grid, whose last bits may differ from the
    # zero-mode recursion's, so it checks the others
    oracle = [[_reference_forward(ek.FnoParams(h, theta), u)
               for u in inputs[:2]] for theta in thetas[:chunk + 1]]
    assert want[:chunk + 1, :2].tolist() == oracle


def test_forward_batch_rows_are_read_only_views_of_the_matrix(monkeypatch):
    h = ek.FnoHyper(2, 1, 1, 2, 2, 2, bias_mode="spectral")
    thetas = stream(96, 8).uniform(-1.0, 1.0, (4, layout_length(h)))
    before = thetas.copy()
    u = rand_input(2, 5, 1, 97)
    seen, real = [], ek.fno.forward

    def recording(params, u):
        seen.append(params)
        return real(params, u)

    monkeypatch.setattr(ek.fno, "forward", recording)
    values = ek.forward_batch(h, thetas, [u])[:, 0]
    assert len(seen) == len(thetas)
    for theta, row, value in zip(thetas, seen, values):
        single = ek.FnoParams(h, theta)
        assert np.array_equal(row.theta, single.theta)
        assert np.shares_memory(row.theta, thetas)  # no copy of the matrix
        got, want = row.blocks(), single.blocks()
        for a, b in zip((got[0], *itertools.chain(*got[1]), got[2]),
                        (want[0], *itertools.chain(*want[1]), want[2])):
            assert np.array_equal(a, b) and np.shares_memory(a, thetas)
            with pytest.raises(ValueError):
                a.flat[0] = 1.0
        assert value == real(single, u)
    # the caller's writeable matrix is read through a read-only view:
    # neither written nor frozen
    assert thetas.flags.writeable and np.array_equal(thetas, before)
    for bad in (thetas[:, :-1], thetas[0], thetas[None]):
        with pytest.raises(ValueError, match="layout needs rows of"):
            ek.forward_batch(h, bad, [u])
    # a single-channel batch on constant inputs decodes scalars instead of
    # binding blocks, and still reads each row as a view of the matrix
    h = ek.FnoHyper(1, 1, 1, 1, 2, 2)
    thetas = stream(98, 8).uniform(-1.0, 1.0, (3, layout_length(h)))
    before = thetas.copy()
    inputs = [ek.GridFunction(1, np.full((4, 1), x)) for x in (0.0, 1.0)]
    seen.clear()
    values = ek.forward_batch(h, thetas, inputs)
    assert len(seen) == len(thetas) * len(inputs)
    for theta, row, row_values in zip(thetas, seen[::2], values):
        single = ek.FnoParams(h, theta)
        assert np.array_equal(row.theta, theta)
        assert np.shares_memory(row.theta, thetas)  # no copy of the matrix
        assert row._scalars() == single._scalars()
        assert row_values.tolist() == [real(single, v) for v in inputs]
    assert thetas.flags.writeable and np.array_equal(thetas, before)


def test_blocks_are_views_of_theta_built_once():
    h = ek.FnoHyper(2, 1, 1, 2, 2, 2, bias_mode="spectral")
    p = ek.FnoParams.random(h, 1.0, stream(60, 8))
    q_m, layers, p_m = p.blocks()
    assert isinstance(layers, tuple) and len(layers) == 2
    again = p.blocks()
    for a, b in zip((q_m, *itertools.chain(*layers), p_m),
                    (again[0], *itertools.chain(*again[1]), again[2])):
        assert a is b
    for view in (q_m, *itertools.chain(*layers), p_m):
        assert np.shares_memory(view, p.theta)
        with pytest.raises(ValueError):  # theta is read-only
            view.flat[0] = 1.0
    assert q_m[0, 1] == p.theta[1]
    # layer 1 is stored after Q and layer 2 (2 + 100 values), past its W
    assert layers[0][1][0, 1, 0] == p.theta[102 + 4 + 2]
    assert p_m[1, 0] == p.theta[-1]
    with pytest.raises(ValueError):
        p.theta[0] = 1.0


# -- pack/unpack and masks -----------------------------------------------------


def test_pack_blocks_round_trip():
    h = ek.FnoHyper(2, 2, 1, 3, 2, 2, activation="gelu")
    p = ek.FnoParams(h, stream(15, 8).uniform(-1.0, 1.0, layout_length(h)))
    q_m, layers, p_m = p.blocks()
    rebuilt = ek.FnoParams.pack(h, q_m, layers, p_m)
    assert np.array_equal(rebuilt.theta, p.theta)


def test_storage_layout_oracle():
    # theta = arange(q): every block reads the stored offsets back, in the
    # order (Q, layer 2, layer 1, P) with each layer (W, multiplier, bias)
    h = ek.FnoHyper(2, 1, 1, 2, 2, 2, bias_mode="spectral")
    assert layout_length(h) == 204
    q_m, layers, p_m = ek.FnoParams(h, np.arange(204.0)).blocks()

    def at(start, shape):
        return np.arange(start, start + np.prod(shape)).reshape(shape)

    assert np.array_equal(q_m, at(0, (1, 2)))
    assert len(layers) == 2
    for (w, mult, bias), start in zip(layers, (102, 2)):
        assert np.array_equal(w, at(start, (2, 2)))
        assert np.array_equal(mult, at(start + 4, (16, 2, 2)))
        assert np.array_equal(bias, at(start + 68, (16, 2)))
    assert np.array_equal(p_m, at(202, (2, 1)))


@pytest.mark.parametrize("bias_mode", ["constant", "spectral"])
def test_active_mask_matches_per_layer_formula(bias_mode):
    h = ek.FnoHyper(2, 1, 1, 2, 2, 2, bias_mode=bias_mode)
    slot = np.arange(h.n_mode_slots) < 1 + 2 * len(ek.canonical_modes(2, 2))
    bias = np.ones(2, dtype=bool) if bias_mode == "constant" else np.repeat(slot, 2)
    layer = [np.ones(4, dtype=bool), np.repeat(slot, 4), bias]
    expected = np.concatenate([np.ones(2, dtype=bool)] + layer * 2
                              + [np.ones(2, dtype=bool)])
    assert np.array_equal(active_mask(h), expected)


def test_layout_length_is_checked_against_param_count(monkeypatch):
    h = small_hyper(d_c=2, kappa=2)
    monkeypatch.setattr(ek.fno, "param_count", lambda hyper: ek.ParamCount(1, 5))
    with pytest.raises(RuntimeError):
        ek.fno._storage.__wrapped__(h)


def test_pack_rejects_a_block_of_the_wrong_size():
    h = small_hyper(d_c=2, kappa=2)
    q_m, layers, p_m = ek.FnoParams.zeros(h).blocks()
    (w, mult, bias), = layers
    # same total length, wrong split between the multiplier and the bias
    with pytest.raises(ValueError):
        ek.FnoParams.pack(h, q_m, [(w, mult.ravel()[:-1],
                                    np.zeros(bias.size + 1))], p_m)


def test_active_mask_counts():
    h = ek.FnoHyper(2, 1, 1, 2, 2, 1)
    mask = active_mask(h)
    # one read-only mask per architecture
    assert active_mask(ek.FnoHyper(2, 1, 1, 2, 2, 1)) is mask
    with pytest.raises(ValueError):
        mask[0] = False
    inert_per_entry = (2 * 2) ** 2 - (2 * 2 - 1) ** 2  # 16 - 9 = 7
    assert int((~mask).sum()) == inert_per_entry * h.d_c**2
    # inert slots never change the output
    rng = stream(16, 8)
    base = ek.FnoParams.random(h, 1.0, rng)
    noisy = ek.FnoParams(h, base.theta + (~mask) * 0.37)
    u = rand_input(2, 8, 1, 17)
    assert ek.forward(base, u) == ek.forward(noisy, u)


# -- super architecture and zero padding ------------------------------------------


def test_super_arch_counts():
    h = ek.super_arch(2, 1, 1, 1, 1)
    assert h.d_c == 2 and h.kappa == 2
    assert ek.param_count(h).q == 26
    assert ek.param_count(h).q <= 5 * 2 * 2**4
    h1 = ek.super_arch(1, 1, 1, 1, 1)
    assert ek.param_count(h1).q == 6 <= 10


def test_super_arch_cap_monotone():
    caps = [5 * 2**1 * q**4 for q in (1, 2, 3, 4)]
    assert caps == sorted(caps)
    counts = [ek.param_count(ek.super_arch(q, 1, 1, 1, q)).q for q in (1, 2, 3, 4)]
    assert counts == sorted(counts)


def test_super_arch_validation():
    with pytest.raises(ValueError):
        ek.super_arch(2, 1, 1, 1, 3)  # depth > q


def test_zero_pad_identity():
    h = small_hyper(d_c=2, kappa=2, activation="relu")
    p = ek.FnoParams.random(h, 1.0, stream(11, 8))
    same = ek.zero_pad_embed(p, h)
    assert np.array_equal(same.theta, p.theta)


@pytest.mark.parametrize("target_kw", [dict(d_c=2), dict(kappa=2),
                                       dict(d_c=3, kappa=3, activation="gelu")])
def test_zero_pad_preserves_forward(target_kw):
    act = target_kw.pop("activation", "relu")
    small = ek.FnoParams.random(small_hyper(depth=2, activation=act), 1.0,
                                stream(11, 8))
    target = small_hyper(depth=2, activation=act, **target_kw)
    padded = ek.zero_pad_embed(small, target)
    for i in range(32):
        u = rand_input(1, 8, 1, 100 + i)
        a, b = ek.forward(small, u), ek.forward(padded, u)
        assert abs(a - b) <= 1e-12 * (1 + abs(a))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("grow", [dict(d_c=3), dict(kappa=3),
                                  dict(d_c=3, kappa=3)])
def test_zero_pad_preserves_forward_with_spectral_bias(dim, grow):
    base = dict(dim=dim, d_c=2, kappa=2, depth=2, activation="gelu",
                bias_mode="spectral")
    small = ek.FnoParams.random(small_hyper(**base), 1.0, stream(12, 8))
    padded = ek.zero_pad_embed(small, small_hyper(**dict(base, **grow)))
    for i in range(8):
        u = rand_input(dim, 8, 1, 200 + i)
        a, b = ek.forward(small, u), ek.forward(padded, u)
        assert abs(a - b) <= 1e-12 * (1 + abs(a))


@settings(max_examples=40)
@given(st.data())
def test_zero_pad_preserves_forward_property(data):
    d_c = data.draw(st.integers(1, 3), label="d_c")
    small_hyper_ = ek.FnoHyper(
        dim=data.draw(st.integers(1, 2), label="dim"),
        d_in=data.draw(st.integers(1, d_c), label="d_in"), d_out=1, d_c=d_c,
        kappa=data.draw(st.integers(1, 2), label="kappa"),
        depth=data.draw(st.integers(1, 2), label="depth"),
        activation=data.draw(st.sampled_from(sorted(ek.ACTIVATIONS)),
                             label="activation"),
        bias_mode=data.draw(st.sampled_from(["constant", "spectral"]),
                            label="bias_mode"))
    grow_c, grow_k = data.draw(st.tuples(st.integers(0, 2), st.integers(0, 2))
                               .filter(any), label="growth")
    target = replace(small_hyper_, d_c=d_c + grow_c,
                     kappa=small_hyper_.kappa + grow_k)
    key = data.draw(st.integers(0, 2**32), label="key")
    small = ek.FnoParams.random(small_hyper_, 1.0, stream(key, 8))
    padded = ek.zero_pad_embed(small, target)
    n = data.draw(st.integers(2 * target.kappa, 2 * target.kappa + 3),
                  label="resolution")
    for i in range(3):
        u = rand_input(small_hyper_.dim, n, small_hyper_.d_in, key + i)
        a, b = ek.forward(small, u), ek.forward(padded, u)
        assert abs(a - b) <= 1e-12 * (1 + abs(a))


def test_zero_pad_validation():
    small = ek.FnoParams.zeros(small_hyper(depth=2))
    with pytest.raises(ek.IncompatibleDepth):
        ek.zero_pad_embed(small, small_hyper(depth=3))
    with pytest.raises(ek.TargetTooSmall):
        ek.zero_pad_embed(ek.FnoParams.zeros(small_hyper(d_c=2, kappa=2, depth=1)),
                          small_hyper(d_c=1, kappa=2, depth=1))
    with pytest.raises(ek.TargetTooSmall):
        ek.zero_pad_embed(small, small_hyper(depth=2, activation="relu"))


# -- empirical Lipschitz ---------------------------------------------------------


def test_empirical_lipschitz_positive_and_directional_oracle():
    h = small_hyper()
    inputs = ek.random_inputs(h, 8, seed=21)
    est = ek.empirical_lipschitz(h, 1.0, 100, inputs, seed=22)
    assert est > 0
    # multilinear in the projection entry: the single-direction quotient
    # equals the analytic derivative d(output)/dQ = mean(W P u + K P u + b)
    mult = np.zeros((2, 1, 1))
    mult[0, 0, 0] = 0.5
    w, b, p_m = np.array([[0.25]]), np.array([0.1]), np.array([[1.0]])
    u = inputs[0]
    layer_out = (u.values @ w.T + 0.5 * np.mean(u.values) + 0.1)
    analytic = abs(float(np.mean(layer_out)))
    base = ek.FnoParams.pack(h, np.array([[0.3]]), [(w, mult, b)], p_m)
    bumped = ek.FnoParams.pack(h, np.array([[0.8]]), [(w, mult, b)], p_m)
    quotient = abs(ek.forward(bumped, u) - ek.forward(base, u)) / 0.5
    assert quotient == pytest.approx(analytic, rel=1e-12)


def test_empirical_lipschitz_zero_on_dead_configuration():
    # zero inputs and zero biases keep every layer at the activation fixpoint
    h = small_hyper(d_c=2, depth=2, activation="relu")
    zero_u = ek.GridFunction(1, np.zeros((8, 1)))
    rng = stream(23, 8)
    for _ in range(20):
        a = ek.FnoParams.random(h, 1.0, rng)
        q_m, layers, p_m = a.blocks()
        layers = [(w, m, np.zeros_like(b)) for w, m, b in layers]
        a = ek.FnoParams.pack(h, q_m, layers, p_m)
        assert ek.forward(a, zero_u) == 0.0


def test_empirical_lipschitz_validation():
    h = small_hyper()
    with pytest.raises(ValueError):
        ek.empirical_lipschitz(h, 1.0, 10, ek.random_inputs(h, 2, 0), seed=0)


# -- parameter budgets ------------------------------------------------------


def test_a_deep_layout_is_refused_before_it_is_drawn_or_built(tmp_path):
    # depth 10^8 would take 3 * 10^8 blocks in _storage and 3.2 GB a theta
    h = ek.FnoHyper(1, 1, 1, 1, 1, 10**8)
    q = 4 * 10**8 + 2
    assert layout_length(h) == q
    refusal = (f"depth {10**8} is above the budget of "
               f"{ek.fno.DEPTH_LIMIT} layers")
    tracemalloc.start()
    try:
        with pytest.raises(ek.SizeLimitExceeded, match=refusal):
            ek.FnoParams.random(h, 1.0, stream(0, 8))
        with pytest.raises(ek.SizeLimitExceeded, match=refusal):
            ek.empirical_lipschitz(h, 1.0, 100, ek.random_inputs(h, 1, 0),
                                   seed=0)
        with pytest.raises(ek.SizeLimitExceeded, match=refusal):
            ek.forward_batch(h, np.empty((0, q)), [])
        path = tmp_path / "theta.bin"
        path.write_bytes(bytes(8))
        with pytest.raises(ek.LayoutMismatch):
            ek.fno.load_params(h, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_wide_draws_are_refused_before_drawing():
    # 1-D, depth 1: d_c 2,365 is the first whose theta passes the budget,
    # and d_c 148 the first whose 128 probe pairs do
    budget = ek.fno.THETA_BYTE_BUDGET
    wide = ek.FnoHyper(1, 1, 1, 2365, 1, 1)
    pairs = ek.FnoHyper(1, 1, 1, 148, 1, 1)
    q, q_pairs = layout_length(wide), layout_length(pairs)
    assert 8 * layout_length(replace(wide, d_c=2364)) <= budget < 8 * q
    assert (8 * 256 * layout_length(replace(pairs, d_c=147)) <= budget
            < 8 * 256 * q_pairs)
    tracemalloc.start()
    try:
        with pytest.raises(ek.SizeLimitExceeded, match=(
                f"the random draw holds 1 thetas of {q} parameters in "
                f"{8 * q} bytes, above the budget of {budget}")):
            ek.FnoParams.random(wide, 1.0, stream(0, 8))
        with pytest.raises(ek.SizeLimitExceeded, match=(
                f"the probe draw holds 256 thetas of {q_pairs} parameters")):
            ek.empirical_lipschitz(pairs, 1.0, 128,
                                   ek.random_inputs(pairs, 1, 0), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_the_budgets_admit_operators_up_to_their_limits():
    limit, budget = ek.fno.DEPTH_LIMIT, ek.fno.THETA_BYTE_BUDGET
    deepest = ek.FnoHyper(1, 1, 1, 1, 1, limit)
    assert ek.fno.checked_layout_length(deepest) == layout_length(deepest)
    with pytest.raises(ek.SizeLimitExceeded):
        ek.fno.checked_layout_length(replace(deepest, depth=limit + 1))
    for rows in (1, 2, 256):
        ek.fno.check_theta_bytes("cell", rows, budget // (8 * rows))
        with pytest.raises(ek.SizeLimitExceeded):
            ek.fno.check_theta_bytes("cell", rows, budget // (8 * rows) + 1)


# -- serialization ----------------------------------------------------------------


def test_theta_round_trip(tmp_path):
    h = ek.FnoHyper(1, 1, 1, 2, 2, 1)
    p = ek.FnoParams.random(h, 1.0, stream(31, 8))
    path = tmp_path / "theta.bin"
    ek.fno.save_theta(p, path)
    back = ek.fno.load_params(h, path)
    assert np.array_equal(back.theta, p.theta)


@pytest.mark.parametrize("size", [7, 8, 8 * 27])
def test_load_params_rejects_a_file_of_the_wrong_size(tmp_path, size):
    h = ek.FnoHyper(1, 1, 1, 2, 2, 1)  # 26 values
    path = tmp_path / "theta.bin"
    path.write_bytes(bytes(size))
    with pytest.raises(ek.LayoutMismatch):
        ek.fno.load_params(h, path)


def test_grid_function_json_round_trip():
    u = rand_input(2, 6, 2, 33)
    back = ek.GridFunction.from_json(u.to_json())
    assert np.array_equal(back.values, u.values)


def test_grid_function_is_frozen_on_a_read_only_copy():
    given = np.full((4, 1), 0.5)
    u = ek.GridFunction(1, given)
    assert given.flags.writeable  # the caller's array is left alone
    given[0] = 9.0
    assert u.values[0, 0] == 0.5 and np.array_equal(u.level, [0.5])
    with pytest.raises(ValueError):
        u.values[0, 0] = 1.0
    with pytest.raises(ValueError):
        u.level[0] = 1.0
    with pytest.raises(AttributeError):
        u.values = np.zeros((4, 1))
    with pytest.raises(AttributeError):
        u.level = None
    assert np.array_equal(u.shifted([1]).level, [0.5])
    # one node off the level makes the function non-constant, and a shift
    # keeps it so
    ramp = rand_input(2, 4, 3, 34)
    assert ramp.level is None and ramp.shifted([1, 2]).level is None
    bump = ek.GridFunction(1, np.array([[0.5], [0.5], [0.5], [0.25]]))
    assert bump.level is None
    const = ek.GridFunction(2, np.full((3, 3, 2), [0.5, -1.0]))
    back = ek.GridFunction.from_json(const.to_json())
    assert np.array_equal(back.values, const.values)
    assert np.array_equal(back.level, [0.5, -1.0])
