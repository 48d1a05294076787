"""Output-averaged operator: parameter accounting, forward identities,
zero-padding, and the empirical parameter-to-operator Lipschitz estimate."""

import inspect
import itertools
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
    coeffs = (rng.standard_normal((n_modes, channels))
              + 1j * rng.standard_normal((n_modes, channels)))
    coeffs[0] = coeffs[0].real  # zero mode must be real

    def at_resolution(n):
        if n < 2 * max_mode:
            raise ek.ResolutionTooLow(
                f"resolution {n} < 2 max_mode = {2 * max_mode}")
        return ek.GridFunction(dim, ek.fno._synthesize(
            coeffs[0], coeffs[1:], dim, max_mode, n))

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
    _, pos, neg = ek.fno._mode_index(2, 2, n)
    fast = np.real(np.fft.ifftn(
        ek.fno._apply_multiplier(vhat, ek.fno._complex_multiplier(mult, 2, 2),
                                 pos, neg), axes=(0, 1), norm="forward"))
    assert np.allclose(fast, oracle, atol=1e-12)


def test_spectral_bias_matches_naive_dft_oracle():
    h = small_hyper(dim=2, d_c=2, kappa=3, bias_mode="spectral")
    _, layers, _ = ek.FnoParams.random(h, 1.0, stream(53, 8)).blocks()
    _, _, bias = layers[0]
    n = 8
    oracle = _dft_sum(_conjugate_pairs(bias, ek.canonical_modes(2, 3)), n)
    re, im = ek.fno._slot_pairs(bias, 2, 3)
    field = ek.fno._synthesize(bias[0], re + 1j * im, 2, 3, n)
    assert np.allclose(field, oracle, atol=1e-12)


def test_spectral_bias_is_synthesized_once_per_layer_and_resolution(
        monkeypatch):
    calls = []
    synthesize = ek.fno._synthesize

    def counted(*args):
        calls.append(args[-1])  # the resolution
        return synthesize(*args)

    monkeypatch.setattr(ek.fno, "_synthesize", counted)
    h = ek.FnoHyper(2, 1, 1, 3, 2, 2, bias_mode="spectral")
    p = ek.FnoParams.random(h, 1.0, stream(54, 8))
    for n in (4, 6):
        first, second = rand_input(2, n, 1, 55), rand_input(2, n, 1, 56)
        for u in (first, second, first):
            assert ek.forward(p, u) == _reference_forward(p, u)
    assert calls == [4, 4, 6, 6]
    # the constant bias keeps no cache
    c = ek.FnoParams.random(small_hyper(d_c=2, kappa=2), 1.0, stream(57, 8))
    ek.forward(c, rand_input(1, 8, 1, 58))
    assert calls == [4, 4, 6, 6] and "_bias_cache" not in vars(c)


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
    _, pos, neg = fno._mode_index(h.dim, h.kappa, u.resolution)

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
        p = ek.FnoParams.random(h, 1.0, rng, canonical=False)
        u = ek.random_grid_function(dim, 2 * kappa + extra, h.d_in, rng)
        assert ek.forward(p, u) == _reference_forward(p, u)


# resolutions for the lean-path oracle: even, odd and prime grids
ORACLE_RESOLUTIONS = (2, 3, 4, 5, 6, 7, 8, 9, 11, 13)


def test_lean_forward_matches_the_np_fft_oracle_on_random_architectures():
    # 204 seeded architectures, each at two resolutions >= 2 kappa, called
    # in the order a, b, a so one architecture holds two cached plans; a
    # batch of three thetas goes through FnoParams.rows as well
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
        for theta, row in zip(thetas, ek.FnoParams.rows(h, thetas)):
            single = ek.FnoParams(h, theta)
            for u in (first, second, first):
                want = _reference_forward(single, u)
                assert ek.forward(single, u) == want
                assert ek.forward(row, u) == want


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


def test_plan_cache_keeps_no_failure():
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
        assert (id(h), bad.values.shape) not in ek.fno._PLANS


def test_rows_is_a_lazy_generator_of_read_only_views():
    h = ek.FnoHyper(2, 1, 1, 2, 2, 2, bias_mode="spectral")
    thetas = stream(96, 8).uniform(-1.0, 1.0, (4, layout_length(h)))
    thetas.setflags(write=False)
    rows = ek.FnoParams.rows(h, thetas)
    assert inspect.isgenerator(rows)
    u = rand_input(2, 5, 1, 97)
    for theta, row in zip(thetas, rows):
        single = ek.FnoParams(h, theta)
        assert np.array_equal(row.theta, single.theta)
        assert np.shares_memory(row.theta, thetas)  # no copy of the matrix
        got, want = row.blocks(), single.blocks()
        for a, b in zip((got[0], *itertools.chain(*got[1]), got[2]),
                        (want[0], *itertools.chain(*want[1]), want[2])):
            assert np.array_equal(a, b) and np.shares_memory(a, thetas)
            with pytest.raises(ValueError):
                a.flat[0] = 1.0
        assert ek.forward(row, u) == ek.forward(single, u)
    # a writeable matrix is copied once, so later writes change no row
    writeable = np.array(thetas)
    first = next(ek.FnoParams.rows(h, writeable))
    assert not np.shares_memory(first.theta, writeable)
    with pytest.raises(ValueError):
        next(ek.FnoParams.rows(h, thetas[:, :-1]))


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
    p = ek.FnoParams.random(h, 1.0, stream(15, 8), canonical=False)
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
