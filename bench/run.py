"""entrokit benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload sweep --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0      # every workload
    python3 -m pytest bench/tests                     # the benchmark's tests

Each workload runs in its own fresh interpreter (bench/worker.py) as a
closed loop: one caller, one job at a time.  `--seconds` sets how many
timed passes run, from the workload's nominal pass time at the commit
that defined the benchmark, so every commit times the same job list the
same number of times.  Set-up is timed in `SETUP_RUNS` further fresh
interpreters that stop once the first job is ready.

With `--trace 0` the last line carries the end-to-end metrics; with
`--trace 1` some timed passes run under the tracer and the last line
carries the per-layer metrics of bench/layer_map.json, after the traced
counts are checked against the counts worked out from the inputs.

Every job must pass the paper's own flag and reproduce its first pass
byte for byte; at the default seed its bytes must also match
bench/digests.json, recorded from the output of the commit that defined
the benchmark.  Known defects are counted, not hidden: see the `known.*`
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# seconds one pass takes at the defining commit on a 2-core x86-64 VM
NOMINAL_PASS_S = {"sweep": 4.7, "packing-embedding": 8.7}
MIN_PASSES = 2
SETUP_RUNS = 4
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREADS = 1
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms",
             "job_tail_ms": "ms", "peak_rss_mb": "MB", "fail_ratio": "1"}
# fail_ratio reads 0 when the program is correct, so it is printed and
# carried by `failed`/`attempted` but is not a gated metric
GATED = ("setup_s", "wall_s", "job_p50_ms", "job_tail_ms", "peak_rss_mb")


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    threads = str(min(THREADS, os.cpu_count() or 1))
    for var in THREAD_VARS:
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int, env: dict) -> dict:
    import numpy
    import scipy

    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "seed": seed,
            "threads": {v: env[v] for v in THREAD_VARS}}


def tail_percentile(samples: list) -> tuple:
    """(p, value): the highest percentile with at least ten samples above
    it, i.e. the eleventh largest sample and its percentile rank; the
    maximum (p100) when there are eleven samples or fewer."""
    data = sorted(samples)
    n = len(data)
    if n <= 11:
        return 100.0, data[-1]
    return 100.0 * (n - 11) / (n - 1), data[n - 11]


class Budget:
    def __init__(self, seconds: float):
        self.deadline = time.monotonic() + seconds

    def left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time budget")
        return left


def _spawn(args: list, env: dict, budget: Budget) -> tuple:
    """Run the worker; (result lines, spawn time).  Kills it on timeout."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=budget.left())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker timed out: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {err.strip()[-2000:]}")
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    return lines, spawned


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 env: dict, budget: Budget) -> dict:
    workdir = os.path.join(HERE, ".work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed), "--workdir", workdir]

    def setup_only() -> float:
        lines, spawned = _spawn(base + ["--setup-only"], env, budget)
        return lines[0]["ready"] - spawned

    passes = max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))
    traced = passes // 2 if trace else 0
    extra = ["--passes", str(passes - traced), "--traced-passes", str(traced)]
    if trace:
        extra += ["--spans", os.path.join(HERE, ".work", f"spans-{workload}-{seed}.npz")]
    try:
        # set-up samples before and after the measured process, so a slow
        # spell of the machine at either end moves the median less
        setups = [setup_only() for _ in range(SETUP_RUNS // 2)]
        lines, spawned = _spawn(base + extra, env, budget)
        setups.append(lines[0]["ready"] - spawned)
        setups += [setup_only() for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res = lines[-1]
    res["setup_samples"] = setups
    return res


def end_to_end(res: dict) -> dict:
    """wall_s and job_p50_ms come from each job's best time over the timed
    passes: wall_s is their sum, one warmed pass with every job at its
    best, and job_p50_ms their median.  On a shared 2-vCPU VM, spells
    lasting tens of seconds slow sub-millisecond Python jobs by up to 1.8x
    and vectorised jobs by about 1.3x; the best of several passes spread
    over the run reads the program more than the spell.  The tail pools
    every timing, so slow spells stay visible there."""
    per_pass = [[1e3 * t for t in times] for times in res["job_times"]]
    best_ms = [min(job) for job in zip(*per_pass)]
    times_ms = [t for times in per_pass for t in times]
    p, tail = tail_percentile(times_ms)
    return {
        "setup_s": median(res["setup_samples"]),
        "wall_s": sum(best_ms) / 1e3,
        "job_p50_ms": median(best_ms),
        "job_tail_ms": tail,
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "fail_ratio": len(res["failures"]) / res["attempted"],
        "_tail_p": p,
        "_tail_n": len(times_ms),
    }


def report(workload: str, res: dict, trace: bool) -> dict:
    """Print the workload's metrics; return its result-line fields."""
    e2e = end_to_end(res)
    failed = len(res["failures"])
    print(f"== {workload}: {len(res['jobs'])} jobs/pass, "
          f"{len(res['pass_walls'])} timed passes, golden digests "
          f"{'checked' if res['golden_checked'] else 'not recorded for this seed'}")
    for name, unit in E2E_UNITS.items():
        extra = ""
        if name in ("wall_s", "job_p50_ms"):
            how = "sum" if name == "wall_s" else "median"
            extra = (f"  ({how} of {len(res['jobs'])} jobs' best of "
                     f"{len(res['job_times'])} timed passes)")
        if name == "job_tail_ms":
            extra = f"  (p{e2e['_tail_p']:.2f} of {e2e['_tail_n']} job timings)"
        if name == "fail_ratio":
            extra = f"  ({failed} failed / {res['attempted']} attempted)"
        print(f"{workload}.{name} = {e2e[name]:.6g} {unit}{extra}")
    for name, value in sorted(res["known"].items()):
        print(f"{workload}.known.{name} = {value} count")
    for job, why in res["failures"][:20]:
        print(f"FAILED {workload}/{job}: {why.strip().splitlines()[-1]}")
    problems = []
    metrics = {k: {"value": e2e[k], "unit": E2E_UNITS[k]} for k in GATED}
    if trace:
        per_pass = [layers.pass_metrics(s) for s in res["traces"]]
        problems = layers.check(workload, per_pass, res["predicted"])
        values = layers.combine(per_pass, res["pass_walls"], res["traced_walls"],
                                res["known"])
        units = {spec["name"]: spec["unit"] for spec in layers.load_map()}
        for name in units:
            print(f"{workload}.{name} = {values[name]:.6g} {units[name]}")
        for problem in problems:
            print(f"CROSS-CHECK {workload}: {problem}")
        metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    return {"correct": failed == 0 and not problems,
            "attempted": res["attempted"], "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "entrokit", "__init__.py")):
        print(f"error: program source not found under {ROOT}/src", file=sys.stderr)
        return 2
    env = _env()
    try:
        print("environment " + json.dumps(environment(args.seed, env), sort_keys=True))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in names:
            budget = Budget(RUN_BUDGET_S)
            res = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                               env, budget)
            results[workload] = report(workload, res, bool(args.trace))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
