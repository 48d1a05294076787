"""Per-layer metrics: tracer hooks, derivation from traces, and checks.

`layer_map.json` lists every per-layer metric with its unit, the
end-to-end metrics it should move, the workloads where it should see
work (`on`) and those where it must read zero (`zero_on`).
"""

from __future__ import annotations

import json
import os
from statistics import median

from spans import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

# metric prefix -> span name, where they differ
SPAN_ALIASES = {"cli": "cli.main",
                "chains.to_csv_bytes": "chains.ResultTable.to_csv_bytes"}

# statistics read from the tracer's hook counters
COUNTED = {"grid_cells", "pairs", "thetas", "random_cells", "probes", "words",
           "scanned", "node_pairs", "members", "samples", "points",
           "nonzero_exits"}

# counts the traced run must reproduce from the generated inputs
CROSS_CHECKED = ("fno.forward.calls", "randomfield.lp_norm_mc.samples",
                 "packing.greedy_sign_code.words")


def load_map() -> list:
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        return json.load(fh)["per_layer"]


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def make_tracer(ek) -> Tracer:
    """Tracer with the count hooks; hooks call only unwrapped originals,
    captured here before installation, so they record no spans."""
    layout_length = ek.fno.layout_length
    limit = ek.quantizer.EXHAUSTIVE_DICT_LIMIT

    def forward(args, kwargs, result):
        h, u = args[0].hyper, args[1]
        return {"grid_cells": u.resolution ** h.dim * h.d_c * h.depth}

    def minimax(args, kwargs, result):
        return {"pairs": len(args[0]) * len(args[1])}

    def bits_sweep(args, kwargs, result):
        max_random = _arg(args, kwargs, 5, "max_random", 1 << 12)
        thetas = random_cells = 0
        for hyper in args[1]:
            q = layout_length(hyper)
            for grid in args[2]:
                total = grid.points_per_coord ** q
                is_random = total > limit
                random_cells += is_random
                thetas += max_random if is_random else total
        return {"thetas": thetas, "random_cells": random_cells}

    def lipschitz(args, kwargs, result):
        return {"probes": _arg(args, kwargs, 2, "probes")}

    def sign_code(args, kwargs, result):
        return {"words": result.size, "scanned": result.ints[-1] + 1}

    def bump_verify(args, kwargs, result):
        fam = args[0]
        nodes = (fam.grid_res + 1) ** fam.dim
        per_member = nodes * nodes if fam.grid_res <= 64 else fam.dim * nodes
        return {"node_pairs": result.size * per_member}

    def hat_verify(args, kwargs, result):
        return {"members": result.size}

    def mc(args, kwargs, result):
        # a stream is keyed by its seed: a seed that an earlier job of the
        # pass already used replays that job's draws
        jobs = tracer.seen["randomfield.lp_norm_mc.seed", _arg(args, kwargs, 4, "seed")]
        replayed = bool(jobs) and tracer.job_id not in jobs
        jobs.add(tracer.job_id)
        return {"samples": _arg(args, kwargs, 3, "n_samples"),
                "replayed_streams": replayed}

    def quadrature(args, kwargs, result):
        refine = _arg(args, kwargs, 2, "refine", 8)
        return {"points": (args[0].res * refine) ** args[0].dim}

    tracer = Tracer({
        "fno.forward": forward,
        "metricspace.dictionary_minimax_error": minimax,
        "quantizer.accuracy_bits_sweep": bits_sweep,
        "fno.empirical_lipschitz": lipschitz,
        "packing.greedy_sign_code": sign_code,
        "packing.BumpFamily.verify": bump_verify,
        "packing.HatFamily.verify": hat_verify,
        "randomfield.lp_norm_mc": mc,
        "randomfield.GridFunction01.quadrature_abs_pow": quadrature,
    })
    return tracer


def pass_metrics(summary: dict) -> dict:
    """Every per-layer metric that one traced pass determines."""
    by_name, counters = summary["by_name"], summary["counters"]
    out = {}
    for spec in load_map():
        name = spec["name"]
        prefix, stat = name.rsplit(".", 1)
        span = by_name.get(SPAN_ALIASES.get(prefix, prefix),
                           {"calls": 0, "self_s": 0.0})
        if prefix in LAYERS and stat == "self_s":
            value = summary["by_layer"].get(prefix, 0.0)
        elif prefix in LAYERS and stat == "errors":
            value = summary["errors"].get(prefix, 0) + counters.get(f"{prefix}.errors", 0)
        elif stat == "calls":
            value = span["calls"]
        elif stat == "self_s":
            value = span["self_s"]
        elif stat in COUNTED:
            value = counters.get(name, 0)
        else:
            continue
        out[name] = value
    out["trace.spans"] = summary["spans"]
    out["known.mc_stream_reuse"] = counters.get(
        "randomfield.lp_norm_mc.replayed_streams", 0)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    out["fno.forward.us_per_call"] = ratio(out["fno.forward.self_s"],
                                           out["fno.forward.calls"], 1e6)
    out["packing.greedy_sign_code.kept_ratio"] = ratio(
        out["packing.greedy_sign_code.words"], out["packing.greedy_sign_code.scanned"])
    out["randomfield.lp_norm_mc.samples_per_s"] = ratio(
        out["randomfield.lp_norm_mc.samples"], out["randomfield.lp_norm_mc.self_s"])
    return out


def combine(per_pass: list, untraced_walls: list, traced_walls: list,
            known: dict) -> dict:
    """Median over traced passes; counts must agree between passes."""
    names = [spec["name"] for spec in load_map()]
    metrics = {}
    for name in names:
        values = [p.get(name, 0) for p in per_pass]
        metrics[name] = median(values) if values else 0
    metrics["trace.overhead_s"] = median(traced_walls) - median(untraced_walls)
    for key, value in known.items():
        metrics[f"known.{key}"] = value
    return metrics


def check(workload: str, per_pass: list, predicted: dict) -> list:
    """Mismatches between traced counts and the map's predictions."""
    problems = []
    specs = load_map()
    for i, metrics in enumerate(per_pass):
        for name in CROSS_CHECKED:
            if metrics[name] != predicted[name]:
                problems.append(f"pass {i}: {name} = {metrics[name]}, "
                                f"inputs give {predicted[name]}")
        for spec in specs:
            if not spec["name"].endswith(".calls"):
                continue
            value = metrics[spec["name"]]
            if workload in spec["on"] and value == 0:
                problems.append(f"pass {i}: {spec['name']} = 0 where work is predicted")
            if workload in spec.get("zero_on", ()) and value != 0:
                problems.append(f"pass {i}: {spec['name']} = {value} where none is predicted")
    counted = [{k: v for k, v in m.items() if not k.endswith("_s")
                and not k.endswith("us_per_call") and not k.endswith("samples_per_s")}
               for m in per_pass]
    if any(c != counted[0] for c in counted[1:]):
        problems.append("counts differ between traced passes")
    return problems
