"""Workload generation, the tail percentile, and the metric lists."""

import json
import os

import pytest

import layers
import run
from workloads import WORKLOADS, _interleave, generate

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_and_seed_dependent(workload):
    first = generate(workload, 5, ROOT)
    assert first == generate(workload, 5, ROOT)
    other = generate(workload, 6, ROOT)
    assert first != other
    # the same job shapes at every seed, so timings compare across seeds
    assert [j.kind for j in first] == [j.kind for j in other]


def test_interleave_spreads_short_jobs_after_each_segment():
    out = _interleave([[1], [2], [3, 4]], list("abcdefg"))
    assert out == [1, "a", "b", 2, "c", "d", 3, 4, "e", "f", "g"]


def test_wall_and_p50_come_from_each_jobs_best_pass():
    res = {"job_times": [[0.001, 0.010, 0.003], [0.002, 0.004, 0.005]],
           "setup_samples": [1.0], "pass_walls": [1.0, 2.0],
           "peak_rss_kb": 1024, "failures": [], "attempted": 6}
    e2e = run.end_to_end(res)
    # best times 1, 4 and 3 ms; the pooled median would read 3.5 ms
    assert abs(e2e["job_p50_ms"] - 3.0) < 1e-9
    assert abs(e2e["wall_s"] - 0.008) < 1e-12
    assert abs(e2e["job_tail_ms"] - 10.0) < 1e-9


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = list(range(1, 101))
    p, value = run.tail_percentile(samples[::-1])
    assert value == 90 and sum(x > value for x in samples) == 10
    assert abs(p - 100 * 89 / 99) < 1e-12
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_benchmark_json_lists_the_layer_map():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    mapped = [(m["name"], m["unit"], m["better"]) for m in layers.load_map()]
    assert listed == mapped
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
