"""Self-time arithmetic and wrapper installation of the benchmark tracer."""

import numpy as np

import entrokit
import entrokit.cli  # noqa: F401
import layers
from spans import Tracer, self_times


def test_self_times_subtract_direct_children_only():
    # A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 7]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    np.testing.assert_allclose(self_times(starts, ends, parents), [3.0, 3.0, 3.0, 1.0])


def test_self_times_of_roots_sum_to_their_durations():
    tracer = Tracer()
    with tracer.span("chains.outer"):
        with tracer.span("fno.inner"):
            with tracer.span("fno.leaf"):
                pass
        with tracer.span("metricspace.inner"):
            pass
    summary = tracer.summary()
    total = sum(rec["self_s"] for rec in summary["by_name"].values())
    assert summary["spans"] == 4
    assert np.isclose(total, tracer.ends[0] - tracer.starts[0])
    assert set(summary["by_layer"]) == {"chains", "fno", "metricspace"}
    assert list(tracer.parents) == [-1, 0, 1, 0]


def _tiny_params():
    hyper = entrokit.FnoHyper(1, 1, 1, 1, 1, 1, "relu")
    theta = np.linspace(-0.5, 0.5, entrokit.fno.layout_length(hyper))
    return entrokit.FnoParams(hyper, theta)


def test_wrappers_reach_every_import_site_and_are_restored():
    original = entrokit.fno.forward
    verify = entrokit.packing.BumpFamily.verify
    tracer = layers.make_tracer(entrokit)
    tracer.install()
    try:
        assert entrokit.fno.forward is not original
        # quantizer imported forward by name; the package re-exports it
        assert entrokit.quantizer.forward is entrokit.fno.forward
        assert entrokit.forward is entrokit.fno.forward
        params = _tiny_params()
        grid = entrokit.QuantGrid(1.0, 0.5)
        inputs = entrokit.fno.random_inputs(params.hyper, 3, 0)
        entrokit.quantizer.certify_quantization(params, grid, inputs, 1.0)
        summary = tracer.summary()
        assert summary["by_name"]["fno.forward"]["calls"] == 6
        assert summary["counters"]["fno.forward.grid_cells"] == 6 * 4
        assert summary["by_name"]["quantizer.certify_quantization"]["calls"] == 1
    finally:
        tracer.remove()
    assert entrokit.fno.forward is original
    assert entrokit.quantizer.forward is original
    assert entrokit.forward is original
    assert entrokit.packing.BumpFamily.verify is verify
    spans_before = len(tracer.starts)
    entrokit.fno.forward(_tiny_params(), inputs[0])
    assert len(tracer.starts) == spans_before


def test_exceptions_leaving_a_wrapped_call_are_counted_per_layer():
    tracer = layers.make_tracer(entrokit)
    tracer.install()
    try:
        try:
            entrokit.chains.validate_config({"experiment": "nope"})
        except entrokit.ConfigError:
            pass
    finally:
        tracer.remove()
    assert tracer.summary()["errors"] == {"chains": 1}


def test_replayed_mc_streams_are_counted_from_traced_seeds():
    measure = entrokit.randomfield.KLMeasure.from_config(
        {"lambda": "j^-2a", "alpha": 1.0, "J": 64, "law": "gaussian"})

    def norm(coeffs):
        return coeffs[:, 0]

    tracer = layers.make_tracer(entrokit)
    tracer.install()
    try:
        # job 0 draws seeds 7 and 8; job 1 replays seed 8 twice, then seed 9
        for job, seed in ((0, 7), (0, 8), (1, 8), (1, 8), (1, 9)):
            tracer.job_id = job
            entrokit.randomfield.lp_norm_mc(norm, measure, 2, 100, seed)
    finally:
        tracer.remove()
    metrics = layers.pass_metrics(tracer.summary())
    assert metrics["known.mc_stream_reuse"] == 1
    assert metrics["randomfield.lp_norm_mc.samples"] == 500
