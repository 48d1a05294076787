"""One workload in one fresh interpreter: set up, then run passes.

Started by run.py; prints a `ready` line when set-up ends and one JSON
result line at exit.  A pass runs every job once, one at a time (a closed
loop with a single caller).  The first pass warms caches and is not timed;
then come `--passes` timed passes with tracing off and `--traced-passes`
passes with the tracer installed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "entrokit", "__init__.py")):
        raise SystemExit(f"program source not found under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import entrokit
    import entrokit.cli  # noqa: F401  (the CLI layer is traced too)

    if not os.path.abspath(entrokit.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported entrokit from {entrokit.__file__}, not {src}")
    return entrokit


def _golden(workload: str) -> dict:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


class Pass:
    """Outcomes of one pass over the jobs."""

    def __init__(self):
        self.wall = 0.0
        self.times = []
        self.failures = []
        self.digests = {}
        self.known = {}


def run_pass(jobs, runner, reference, tracer=None) -> Pass:
    out = Pass()
    start = time.perf_counter()
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = idx
        t0 = time.perf_counter()
        try:
            outcome = runner.run(job)
        except Exception:
            out.times.append(time.perf_counter() - t0)
            out.failures.append([job.name, traceback.format_exc(limit=3)])
            continue
        out.times.append(time.perf_counter() - t0)
        out.digests[job.name] = outcome.digest
        for key, value in outcome.known.items():
            out.known[key] = out.known.get(key, 0) + value
        expected = reference.get(job.name)
        if not outcome.ok:
            out.failures.append([job.name, outcome.detail or "pass flag false"])
        elif expected is not None and outcome.digest != expected:
            out.failures.append([job.name, f"digest {outcome.digest} != {expected}"])
    out.wall = time.perf_counter() - start
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--passes", type=int, default=0)
    ap.add_argument("--traced-passes", type=int, default=0)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ek = _import_program()
    import workloads as wl
    import layers

    jobs = wl.generate(args.workload, args.seed, ROOT)
    for job in jobs:
        cfg = job.spec.get("config")
        if cfg is not None:
            ek.chains.validate_config(cfg)
    runner = wl.Runner(args.workdir)
    runner.prepare(jobs)
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    if args.setup_only:
        return 0

    golden = _golden(args.workload) if args.seed == wl.DEFAULT_SEED else {}
    warm = run_pass(jobs, runner, golden)
    # every later pass must reproduce the warm pass byte for byte
    reference = dict(warm.digests, **golden)
    timed = [run_pass(jobs, runner, reference) for _ in range(args.passes)]
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    traced = []
    if args.traced_passes:
        tracer = layers.make_tracer(ek)
        tracer.install()
        runner.tracer = tracer
        try:
            for _ in range(args.traced_passes):
                tracer.reset()
                p = run_pass(jobs, runner, reference, tracer)
                traced.append((p, tracer.summary()))
        finally:
            runner.tracer = None
            tracer.remove()
        if args.spans:
            tracer.save(args.spans)

    passes = [warm] + timed + [p for p, _ in traced]
    result = {
        "jobs": [j.name for j in jobs],
        "attempted": len(jobs) * len(passes),
        "failures": [f for p in passes for f in p.failures],
        "pass_walls": [p.wall for p in timed],
        "job_times": [p.times for p in timed],
        "peak_rss_kb": peak_rss_kb,
        "known": warm.known,
        "golden_checked": bool(golden),
        "traced_walls": [p.wall for p, _ in traced],
        "traces": [s for _, s in traced],
        "predicted": wl.predicted_counts(ek, jobs),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
