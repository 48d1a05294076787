"""Quantization grids, Lipschitz bounds, bit budgets, and the sweep."""

import collections
import hashlib
import itertools
import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import entrokit as ek
from entrokit.cli import main
from entrokit.rng import STREAM_FNO_PROBE, STREAM_SWEEP_DICT, stream


REF_HYPER = ek.FnoHyper(1, 1, 1, 1, 1, 1)
ROOT = pathlib.Path(__file__).resolve().parent.parent


# -- grids and rounding ------------------------------------------------------


def test_grid_counts():
    g = ek.QuantGrid(1.0, 0.1)
    assert g.points_per_coord == 21
    assert g.bits_per_coord == 5
    assert np.allclose(g.values()[[0, 10, -1]], [-1.0, 0.0, 1.0])


def test_quantize_nearest():
    g = ek.QuantGrid(1.0, 0.1)
    out = ek.quantize(np.array([0.07]), g)
    assert out[0] == pytest.approx(0.1)
    assert abs(0.07 - out[0]) <= g.delta / 2


def test_quantize_fixes_grid_points():
    g = ek.QuantGrid(1.0, 0.1)
    pts = g.values()
    assert np.allclose(ek.quantize(pts, g), pts, atol=1e-15)


def test_quantize_tie_rounds_half_even():
    g = ek.QuantGrid(1.0, 0.1)
    # 0.05 sits between grid indices 10 (value 0) and 11 (value 0.1)
    assert ek.quantize(np.array([0.05]), g)[0] == 0.0


def test_quantize_out_of_range():
    with pytest.raises(ek.OutOfRange):
        ek.quantize(np.array([1.2]), ek.QuantGrid(1.0, 0.1))


def test_quantize_error_bound_random():
    rng = stream(17, 8)
    for m, delta in ((1.0, 0.1), (2.0, 0.03), (0.5, 0.07)):
        g = ek.QuantGrid(m, delta)
        theta = rng.uniform(-m, m, 10000)
        err = np.abs(theta - ek.quantize(theta, g))
        assert float(err.max()) <= delta / 2 + 1e-15
        assert g.points_per_coord <= 2**g.bits_per_coord


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_quantize_error_bound_property(data):
    # |theta - quantize(theta)| <= delta/2 on [-M, M], endpoints included,
    # up to the rounding of the grid value and of the index (a few ulps of M)
    m = data.draw(st.floats(1e-3, 1e3), label="m")
    g = ek.QuantGrid(m, m * data.draw(st.floats(1e-6, 2.0), label="ratio"))
    theta = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from([-m, m]), st.floats(-m, m)),
        min_size=1, max_size=20), label="theta"))
    err = np.abs(theta - ek.quantize(theta, g))
    assert float(err.max()) <= g.delta / 2 + 4 * np.finfo(float).eps * m


def test_grid_covers_box_even_for_non_dividing_delta():
    g = ek.QuantGrid(1.0, 0.3)
    assert abs(1.0 - ek.quantize(np.array([1.0]), g)[0]) <= g.delta / 2


def test_quantize_idempotent():
    rng = stream(31, 8)
    g = ek.QuantGrid(1.0, 0.07)
    theta = rng.uniform(-1.0, 1.0, 500)
    once = ek.quantize(theta, g)
    assert np.array_equal(ek.quantize(once, g), once)


# -- theoretical Lipschitz bound ------------------------------------------------


def test_lip_bound_hand_value():
    got = ek.theoretical_lip_bound(ek.LipBoundInputs(1, 1, 1, 1, 1.0, 0.0))
    assert got == pytest.approx(math.log2(24 * math.sqrt(2)))


def test_lip_bound_monotone():
    base = ek.LipBoundInputs(1, 1, 1, 1, 1.0, 0.5)
    b0 = ek.theoretical_lip_bound(base)
    for kw in (dict(depth=2), dict(d_c=2), dict(kappa=2), dict(m=2.0),
               dict(c=1.0)):
        args = dict(depth=1, d_c=1, kappa=1, dim=1, m=1.0, c=0.5)
        args.update(kw)
        assert ek.theoretical_lip_bound(ek.LipBoundInputs(**args)) > b0


def test_lip_bound_doubling_m():
    a = ek.theoretical_lip_bound(ek.LipBoundInputs(2, 1, 1, 1, 1.0, 0.0))
    b = ek.theoretical_lip_bound(ek.LipBoundInputs(2, 1, 1, 1, 2.0, 0.0))
    assert b - a == pytest.approx(2 + 2)  # (L+2) doublings in log2 space


# -- asymptotic bit budget ----------------------------------------------------


def test_bit_budget_depth_bits_exact():
    for q in (2, 3, 4, 9, 64):
        assert ek.bit_budget_asymptotic(q, 1, 1.0, 1.0).depth_bits == math.ceil(math.log2(q))


def test_bit_budget_b1_increasing():
    b1s = [ek.bit_budget_asymptotic(q, 1, 1.0, 1.0).bits_per_coord
           for q in range(4, 65, 4)]
    assert all(a < b for a, b in zip(b1s, b1s[1:]))


def test_bit_budget_ratio_window_snapshot():
    # regression snapshot of the implementation's own sweep (d=1, gamma=c=1)
    budgets = ek.bit_budget_sweep([4, 8, 16, 32], 1, 1.0, 1.0)
    totals = [b.total for b in budgets]
    assert totals == [9602, 333795, 12191044, 445380677]
    ratios = [b.total / b.q**7 for b in budgets]
    assert min(ratios) >= 0.0129 and max(ratios) <= 0.5861


def test_bit_budget_log2_points_matches_mpmath_oracle():
    # exact high-precision recomputation of log2(2 M_q / delta_q)
    import mpmath as mp
    for q, gamma, c in ((4, 1.0, 1.0), (16, 0.5, 2.0), (64, 1.0, 1.0)):
        with mp.workdps(60):
            points = 2 * mp.e**q * mp.log(q)**gamma * mp.exp(c * q * mp.log(c * q))
            expect = mp.log(points, 2)
            b = ek.bit_budget_asymptotic(q, 1, gamma, c)
            assert abs(b.log2_points_per_coord - float(expect)) < 1e-9
            assert b.bits_per_coord == int(mp.ceil(expect))


def test_bit_budget_super_params_match_super_arch():
    b = ek.bit_budget_asymptotic(5, 2, 1.0, 1.0)
    assert b.super_params == ek.param_count(ek.super_arch(5, 2, 1, 1, 5)).q
    assert b.m_exponent == 6


def test_bit_budget_validation():
    with pytest.raises(ValueError):
        ek.bit_budget_asymptotic(1, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        ek.bit_budget_asymptotic(8, 1, 0.0, 1.0)
    with pytest.raises(ValueError):
        ek.bit_budget_asymptotic(8, 1, 1.0, 0.05)  # c q <= 1



@pytest.mark.parametrize("m,delta", [(1.0, 2.0**-62), (1e100, 1e-10),
                                     (1.0, 1e-300), (1e300, 1e-300)])
def test_grid_of_more_than_2_63_points_is_out_of_range(m, delta):
    with pytest.raises(ek.OutOfRange):
        ek.QuantGrid(m, delta)


def test_largest_grid_indices_fit_an_int64():
    # 2 M / delta is the largest float below 2^63
    g = ek.QuantGrid(1.0, 2.0 / np.nextafter(2.0**63, 0.0))
    top = g.points_per_coord - 1
    assert 2**62 < top < 2**63
    assert g.round_indices(np.array([-1.0, 1.0])).tolist() == [0, top]


@pytest.mark.parametrize("m,delta,q", [(2.0, 0.3, 3), (1.0, 0.5, 10),
                                       (0.7, 0.13, 8)])
def test_dictionary_thetas_equal_the_materialized_grid(m, delta, q):
    grid = ek.QuantGrid(m, delta)
    vals = grid.values()
    exhaustive = len(vals) ** q <= ek.quantizer.EXHAUSTIVE_DICT_LIMIT
    thetas = ek.quantizer._dictionary_thetas(q, grid, exhaustive, 3, 64)
    if exhaustive:
        idx = np.indices((len(vals),) * q).reshape(q, -1).T
    else:
        idx = stream(3, STREAM_SWEEP_DICT).integers(0, len(vals), size=(64, q))
    assert np.array_equal(thetas, vals[idx])
    assert not thetas.flags.writeable


def test_random_search_on_a_fine_grid_materializes_no_grid():
    # 2e7 + 1 grid values would take 160 MB
    tracemalloc.start()
    try:
        thetas = ek.quantizer._dictionary_thetas(
            10, ek.QuantGrid(1.0, 1e-7), False, 3, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert thetas.shape == (64, 10)
    assert np.all(np.abs(thetas) <= 1.0) and peak < 1 << 20

# -- certification -----------------------------------------------------------------


def test_certify_on_grid_theta_zero_error():
    g = ek.QuantGrid(1.0, 0.25)
    theta = np.zeros(ek.param_count(REF_HYPER).q)
    params = ek.FnoParams(REF_HYPER, theta)
    inputs = ek.random_inputs(REF_HYPER, 8, seed=3)
    cert = ek.certify_quantization(params, g, inputs, lip_estimate=1.0)
    assert cert.measured_err == 0.0 and cert.passed


def test_certify_zero_network():
    g = ek.QuantGrid(1.0, 0.1)
    params = ek.FnoParams.zeros(REF_HYPER)
    inputs = ek.random_inputs(REF_HYPER, 4, seed=5)
    cert = ek.certify_quantization(params, g, inputs, lip_estimate=0.0)
    assert cert.measured_err == 0.0 and cert.passed


def test_certify_reference_configuration():
    inputs = ek.random_inputs(REF_HYPER, 64, seed=7)
    c_cal = ek.calibrate_c(REF_HYPER, 1.0, inputs, 128, seed=7)
    log2_bound = ek.theoretical_lip_bound(
        ek.LipBoundInputs(1, 1, 1, 1, 1.0, c_cal))
    params = ek.FnoParams.random(REF_HYPER, 1.0, stream(7, 8))
    cert = ek.certify_quantization(params, ek.QuantGrid(1.0, 0.01), inputs,
                                   2.0**log2_bound)
    assert cert.passed


def test_calibrated_bound_dominates_empirical_lattice():
    for depth, d_c, kappa, box in itertools.product((1, 2), (1, 2), (1, 2),
                                                    (1.0, 2.0)):
        hyper = ek.FnoHyper(1, 1, 1, d_c, kappa, depth)
        inputs = ek.random_inputs(hyper, 8, seed=11)
        c_cal = ek.calibrate_c(hyper, box, inputs, 100, seed=11)
        emp = ek.empirical_lipschitz(hyper, box, 100, inputs, seed=11)
        bound = 2.0 ** ek.theoretical_lip_bound(
            ek.LipBoundInputs(depth, d_c, kappa, 1, box, c_cal))
        assert bound >= emp


def test_certify_pass_whenever_estimate_covers_empirical():
    # with lip_estimate >= the measured pairwise constant the bound holds
    inputs = ek.random_inputs(REF_HYPER, 16, seed=19)
    emp = ek.empirical_lipschitz(REF_HYPER, 1.0, 100, inputs, seed=19)
    params = ek.FnoParams.random(REF_HYPER, 1.0, stream(20, 8))
    grid = ek.QuantGrid(1.0, 0.05)
    cert = ek.certify_quantization(params, grid, inputs, lip_estimate=2 * emp)
    assert cert.passed


@pytest.mark.parametrize("lip_estimate,delta", [
    (1e308, 10.0), (math.inf, 0.1), (math.nan, 0.1)])
def test_certificate_with_a_bound_that_is_not_finite_fails(lip_estimate,
                                                           delta):
    cert = ek.QuantCertificate(0.0, lip_estimate, delta)
    assert not math.isfinite(cert.bound)
    assert not cert.passed


# -- the per-(theta, input) loops that forward_batch replaced ---------------------


def _loop_lipschitz(hyper, box, probes, input_set, seed):
    """empirical_lipschitz as one loop per probe pair and input."""
    rng = stream(seed, STREAM_FNO_PROBE)
    best = 0.0
    for _ in range(probes):
        a = ek.FnoParams.random(hyper, box, rng)
        b = ek.FnoParams.random(hyper, box, rng)
        denom = float(np.max(np.abs(a.theta - b.theta)))
        if denom == 0:
            continue
        gap = max(abs(ek.forward(a, u) - ek.forward(b, u)) for u in input_set)
        best = max(best, gap / denom)
    return best


def _loop_certificate(params, grid, input_set, lip_estimate):
    """certify_quantization as one loop over the inputs."""
    rounded = ek.FnoParams(params.hyper, ek.quantize(params.theta, grid))
    measured = max(abs(ek.forward(params, u) - ek.forward(rounded, u))
                   for u in input_set)
    return ek.QuantCertificate(measured, lip_estimate, grid.delta)


def _seeded_architectures(seed, count):
    rng = stream(seed, 8)
    for act, bias_mode in itertools.islice(itertools.cycle(itertools.product(
            sorted(ek.ACTIVATIONS), ("constant", "spectral"))), count):
        dim, kappa = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        d_c = int(rng.integers(1, 3))
        yield ek.FnoHyper(dim, 1, 1, d_c, kappa, int(rng.integers(1, 3)), act,
                          bias_mode), rng


def test_empirical_lipschitz_equals_the_per_probe_loop():
    for i, (hyper, rng) in enumerate(_seeded_architectures(30, 12)):
        inputs = ek.random_inputs(hyper, int(rng.integers(1, 4)), seed=i)
        box = float(rng.choice([0.5, 1.0, 2.0]))
        got = ek.empirical_lipschitz(hyper, box, 100, inputs, seed=i)
        assert got > 0 and got == _loop_lipschitz(hyper, box, 100, inputs, i)


def test_empirical_lipschitz_evaluates_no_probe_with_a_zero_denominator(
        monkeypatch):
    # at box 0 every pair is (0, 0): the loop skipped each probe
    calls = _counting(monkeypatch, [ek.fno])
    inputs = ek.random_inputs(REF_HYPER, 2, seed=1)
    assert ek.empirical_lipschitz(REF_HYPER, 0.0, 100, inputs, seed=1) == 0.0
    assert _loop_lipschitz(REF_HYPER, 0.0, 100, inputs, 1) == 0.0
    assert not calls


def test_certificate_equals_the_per_input_loop():
    for i, (hyper, rng) in enumerate(_seeded_architectures(31, 12)):
        inputs = ek.random_inputs(hyper, int(rng.integers(1, 5)), seed=i)
        params = ek.FnoParams.random(hyper, 1.0, rng)
        grid = ek.QuantGrid(1.0, float(rng.choice([0.01, 0.1, 0.5])))
        lip = float(rng.uniform(0.0, 2.0))
        got = ek.certify_quantization(params, grid, inputs, lip)
        assert got == _loop_certificate(params, grid, inputs, lip)


def _overflow_case():
    """An identity network, three sup-normalized inputs and one whose
    values overflow the grid path's sums, so its deviation is inf - inf."""
    hyper = ek.FnoHyper(1, 1, 1, 1, 1, 1, activation="identity")
    params = ek.FnoParams.random(hyper, 1.0, stream(3, 8))
    inputs = ek.random_inputs(hyper, 3, seed=3)
    big = ek.GridFunction(1, np.array([[1.7e308]] * 3 + [[0.0]]))
    return hyper, params, inputs, big


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_a_nan_deviation_fails_the_certificate_in_any_input_order():
    hyper, params, inputs, big = _overflow_case()
    grid = ek.QuantGrid(1.0, 0.1)
    assert ek.certify_quantization(params, grid, inputs, 10.0).passed
    # the per-input loop kept the first of max(nan, x) and max(x, nan), so
    # it passed when the overflowing input came last
    assert _loop_certificate(params, grid, inputs + [big], 10.0).passed
    for order in ([big] + inputs, inputs + [big]):
        cert = ek.certify_quantization(params, grid, order, 10.0)
        assert math.isnan(cert.measured_err) and not cert.passed
    assert math.isnan(ek.empirical_lipschitz(hyper, 1.0, 100, inputs + [big],
                                             seed=0))


# -- bits versus accuracy -----------------------------------------------------------


def _swept_targets(levels):
    """(targets, inputs) that the bits-accuracy chain passes to the sweep
    for hat targets on levels at eps 1/6; the sweep itself is not run."""
    seen = []
    cfg = {"schema_version": 1, "experiment": "bits-accuracy", "seed": 5,
           "targets": {"kind": "hat-on-constants", "levels": levels},
           "hypers": [REF_HYPER.to_json()], "grids": [{"m": 1.0, "delta": 1.0}]}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ek.quantizer, "accuracy_bits_sweep",
                   lambda targets, hypers, grids, inputs, *rest, **kw:
                   seen.append((targets, inputs)) or [])
        ek.run_experiment(cfg)
    return seen[0]


def _hat_targets_and_inputs():
    return _swept_targets([0.0, 1.0])


@pytest.mark.parametrize("centers", range(2, 17))
def test_hat_targets_are_the_members_of_each_sign_vector(centers):
    # levels 1 apart carry the hats, of radius 1/2, among seeded levels of
    # which some lie in a hat and some in none; 20 levels at most, the
    # exact cover's limit
    rng = stream(centers, 9)
    levels = [float(c) for c in range(centers)] + rng.uniform(
        0.0, centers - 1, min(centers, 20 - centers)).tolist()
    targets, inputs = _swept_targets(levels)
    space, _ = ek.chains.constant_input_space(levels, 8)
    fam = ek.build_hat_family(space, 1 / 6)
    assert fam.centers == tuple(range(centers))
    rows = [fam.member([(s >> j) & 1 for j in range(centers)])
            for s in range(fam.size)]
    assert targets.shape == (2**centers, len(inputs))
    assert targets.tobytes() == np.stack(rows).tobytes()


def test_sweep_targets_must_be_sampled_on_the_inputs():
    targets, inputs = _hat_targets_and_inputs()
    hyper = ek.FnoHyper(1, 1, 1, 1, 1, 1, activation="identity")
    for bad in (targets[:, :1], targets[0]):
        with pytest.raises(ValueError, match="sampled on the input set"):
            ek.accuracy_bits_sweep(bad, [hyper], [ek.QuantGrid(1.0, 1.0)],
                                   inputs, seed=5)


def test_sweep_self_targets_reach_zero():
    targets, inputs = _hat_targets_and_inputs()
    hyper = ek.FnoHyper(1, 1, 1, 1, 1, 1, activation="identity")
    rows = ek.accuracy_bits_sweep(targets, [hyper],
                                  [ek.QuantGrid(1.0, 1.0),
                                   ek.QuantGrid(1.0, 0.5)],
                                  inputs, seed=5)
    errs = [r.minimax_err for r in rows]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] == pytest.approx(0.0, abs=1e-12)
    bits = [r.bits for r in rows]
    assert bits == sorted(bits)


def test_sweep_volume_floor():
    # any row with error below the family separation needs >= log2(size) - 1 bits
    targets, inputs = _hat_targets_and_inputs()
    hyper = ek.FnoHyper(1, 1, 1, 1, 1, 1, activation="identity")
    rows = ek.accuracy_bits_sweep(targets, [hyper], [ek.QuantGrid(1.0, 0.5)],
                                  inputs, seed=5)
    sep = 0.5  # 3 eps for the two-point hat family
    floor = math.log2(len(targets)) - 1
    for r in rows:
        if r.minimax_err < sep:
            assert r.bits >= floor


def test_sweep_deterministic_snapshot():
    targets, inputs = _hat_targets_and_inputs()
    hyper = ek.FnoHyper(1, 1, 1, 1, 1, 1, activation="identity")
    grids = [ek.QuantGrid(1.0, 0.5)]
    a = ek.accuracy_bits_sweep(targets, [hyper], grids, inputs, seed=5)
    b = ek.accuracy_bits_sweep(targets, [hyper], grids, inputs, seed=5)
    assert a == b


def test_sweep_budget_exceeded():
    targets, inputs = _hat_targets_and_inputs()
    hyper = ek.FnoHyper(1, 1, 1, 2, 2, 2)  # q = 48: random search territory
    # refused before drawing: 2^20 thetas of 48 coordinates take 384 MiB
    tracemalloc.start()
    try:
        with pytest.raises(ek.BudgetExceeded):
            ek.accuracy_bits_sweep(targets, [hyper], [ek.QuantGrid(1.0, 0.5)],
                                   inputs, seed=5, max_random=1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20



@pytest.mark.parametrize("p", [2, 3, 5, 127, 2**62 + 1])
def test_sweep_cells_are_exhaustive_exactly_when_p_to_the_q_fits(p):
    # the decision never takes a power past the limit, yet equals it
    grid = ek.QuantGrid(1.0, 2.0 / (p - 1))
    assert grid.points_per_coord == p
    for q in range(1, 40):
        assert ek.quantizer._check_cell("cell", q, grid, 1, 1) == \
            (p**q <= ek.quantizer.EXHAUSTIVE_DICT_LIMIT), q


def test_sweep_cells_past_the_theta_budget_are_refused_before_drawing():
    targets, inputs = _hat_targets_and_inputs()
    budget = ek.fno.THETA_BYTE_BUDGET
    # a billion-parameter layout: q is never raised to a power, and
    # nothing is drawn
    huge = ek.FnoHyper(1, 1, 1, 100_000, 1, 1, activation="identity")
    small = ek.FnoHyper(1, 1, 1, 1, 1, 1, activation="identity")
    q = ek.fno.layout_length(huge)
    tracemalloc.start()
    try:
        with pytest.raises(ek.SizeLimitExceeded,
                           match=f"cell \\(1, 0\\) holds 4096 thetas of {q} "
                           f"parameters in {8 * 4096 * q} bytes, above the "
                           f"budget of {budget}"):
            ek.accuracy_bits_sweep(targets, [small, huge],
                                   [ek.QuantGrid(1.0, 1.0)], inputs, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # one random theta fewer or one more than the budget holds at q = 30
    hyper = ek.FnoHyper(1, 1, 1, 2, 1, 2, activation="identity")
    q = ek.fno.layout_length(hyper)
    fits = budget // (8 * q)
    grid = ek.QuantGrid(1.0, 1.0)
    assert ek.quantizer._check_cell("cell", q, grid, fits, 1) is False
    with pytest.raises(ek.SizeLimitExceeded):
        ek.quantizer._check_cell("cell", q, grid, fits + 1, 1)


def _counting(monkeypatch, modules):
    """Replace forward in each module by a wrapper that counts calls."""
    calls = []
    for module in modules:
        real = module.forward

        def counted(params, u, real=real):
            calls.append(1)
            return real(params, u)

        monkeypatch.setattr(module, "forward", counted)
    return calls


def test_sweep_calls_forward_once_per_theta_and_input(monkeypatch):
    calls = _counting(monkeypatch, [ek.fno])
    targets, inputs = _hat_targets_and_inputs()
    exhaustive = ek.FnoHyper(1, 1, 1, 1, 1, 1, activation="identity")  # 3^6
    random = ek.FnoHyper(1, 1, 1, 1, 1, 2, activation="identity")  # 3^10
    ek.accuracy_bits_sweep(targets, [exhaustive, random],
                           [ek.QuantGrid(1.0, 1.0)], inputs, seed=5,
                           max_random=40)
    assert len(calls) == (3**6 + 40) * len(inputs)


def test_calibration_and_certificate_call_forward_per_probe_pair(monkeypatch):
    calls = _counting(monkeypatch, [ek.fno, ek.quantizer])
    hyper = ek.FnoHyper(2, 1, 1, 3, 2, 2, activation="gelu",
                        bias_mode="spectral")
    inputs = ek.random_inputs(hyper, 2, seed=4)
    c_cal = ek.calibrate_c(hyper, 0.8, inputs, 100, seed=4)
    params = ek.FnoParams.random(hyper, 0.8, stream(4, 8))
    ek.certify_quantization(params, ek.QuantGrid(0.8, 0.02), inputs, c_cal)
    assert len(calls) == 2 * (100 + 1) * len(inputs)


def test_shipped_sweep_and_a_certificate_call_forward_once_per_pair(
        monkeypatch):
    # the benchmark's traced run holds fno.forward's call count to one per
    # (theta, input); constant inputs take forward's zero-mode branch, but
    # through forward itself
    calls, real = [], ek.fno.forward

    def counted(params, u):
        calls.append(id(u))
        return real(params, u)

    monkeypatch.setattr(ek.fno, "forward", counted)
    cfg = ek.load_config(ROOT / "configs" / "bits-hat.json")
    ek.run_experiment(cfg)
    q = ek.fno.layout_length(ek.FnoHyper.from_json(cfg["hypers"][0]))
    thetas = sum(ek.QuantGrid(g["m"], g["delta"]).points_per_coord ** q
                 for g in cfg["grids"])
    per_input = collections.Counter(calls)
    assert len(per_input) == len(cfg["targets"]["levels"])
    assert set(per_input.values()) == {thetas} == {3**6 + 5**6}
    calls.clear()
    _, inputs = _hat_targets_and_inputs()
    params = ek.FnoParams.random(REF_HYPER, 1.0, stream(6, 8))
    ek.certify_quantization(params, ek.QuantGrid(1.0, 0.5), inputs, 1.0)
    assert sorted(calls) == sorted(map(id, inputs * 2))


@pytest.fixture(scope="module")
def bits_hat_batches():
    """(hyper, thetas, inputs, values) of each forward_batch call that the
    shipped bits-hat sweep makes, in order."""
    batches, real = [], ek.quantizer.forward_batch

    def recorded(hyper, thetas, inputs):
        values = real(hyper, thetas, inputs)
        batches.append((hyper, thetas, inputs, values))
        return values

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ek.quantizer, "forward_batch", recorded)
        ek.run_experiment(ek.load_config(ROOT / "configs" / "bits-hat.json"))
    return batches


# sha256 of each bits-hat dictionary, (rows, inputs) float64 little-endian:
# every row the sweep evaluates, where the CSV digest covers only the front
BITS_HAT_DICTIONARY_SHA256 = [
    ((729, 2),
     "58eec58423802c2172449072d22a892bb78694a1d365de799c64219f14630ce5"),
    ((15625, 2),
     "6ea76110fae20429f2fb5f31b86240e88678dbcd58b50f0c45d7cf6887fd3adc"),
]


def test_bits_hat_dictionaries_keep_their_bits(bits_hat_batches):
    assert [(values.shape,
             hashlib.sha256(values.astype("<f8").tobytes()).hexdigest())
            for _, _, _, values in bits_hat_batches] == BITS_HAT_DICTIONARY_SHA256


# the benchmark's quantize operator: 2-D, d_c = 3, kappa 2, depth 2,
# spectral-bias gelu, whose every forward takes the grid path
QUANTIZE_HYPER = ek.FnoHyper(2, 1, 1, 3, 2, 2, activation="gelu",
                             bias_mode="spectral")
# sha256 of forward_batch on empirical_lipschitz's probe matrix at box 0.8
# and seed 4, (200, 2) float64 little-endian, and of the stdout of
# `entrokit quantize` on that operator at --delta 0.02, --m 0.8, --seed 4,
# --n-inputs 2, --probes 100
QUANTIZE_PROBES_SHA256 = (
    "f3773638919e54ff6499f12c5c69c45ecfc81c3817b244db6a8a15d2f53f951b")
QUANTIZE_STDOUT_SHA256 = (
    "08e96ad4749a893fb697b6feee626ed70032562b5161576e427ded675306b23a")


def test_grid_path_keeps_its_bits(tmp_path):
    h, box, seed = QUANTIZE_HYPER, 0.8, 4
    pairs = stream(seed, STREAM_FNO_PROBE).uniform(
        -box, box, (100, 2, ek.fno.layout_length(h)))
    thetas = (pairs * ek.fno.active_mask(h)).reshape(200, -1)
    values = ek.forward_batch(h, thetas, ek.random_inputs(h, 2, seed))
    assert values.shape == (200, 2)
    assert (hashlib.sha256(values.astype("<f8").tobytes()).hexdigest()
            == QUANTIZE_PROBES_SHA256)
    path = tmp_path / "hyper.json"
    path.write_text(json.dumps(h.to_json()))
    res = CliRunner().invoke(main, [
        "quantize", "--hyper", str(path), "--delta", "0.02", "--m", "0.8",
        "--seed", "4", "--n-inputs", "2", "--probes", "100"])
    assert res.exit_code == 0 and json.loads(res.output)["passed"]
    assert (hashlib.sha256(res.output.encode()).hexdigest()
            == QUANTIZE_STDOUT_SHA256)


def test_bits_hat_dictionary_evaluates_in_bounded_memory(bits_hat_batches):
    # forward_batch decodes its rows a chunk at a time: on the 15,625-row
    # cell its peak, the 244 KiB result included, stays under 1 MiB, where
    # decoding every row at once would hold several MiB of Python floats
    hyper, thetas, inputs, values = bits_hat_batches[-1]
    assert len(thetas) == 15625
    tracemalloc.start()
    try:
        got = ek.forward_batch(hyper, thetas, inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == values.tobytes()
    assert peak < 1 << 20


def test_pareto_front_cleaning():
    rows = [ek.SweepRow(10, 0.5, 0, 0, 1, True),
            ek.SweepRow(20, 0.7, 0, 1, 1, True),
            ek.SweepRow(30, 0.2, 0, 2, 1, True)]
    front = ek.quantizer.pareto_front(rows)
    assert [(r.bits, r.minimax_err) for r in front] == [(10, 0.5), (30, 0.2)]
