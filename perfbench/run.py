"""tsirnorm benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics.  The last line of stdout is the result object; the line
before it holds the environment, sample counts and quartiles.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9


def _import_library():
    if not (SRC / "tsirnorm" / "__init__.py").is_file():
        sys.exit(f"run.py: no tsirnorm sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import tsirnorm
    if Path(tsirnorm.__file__).resolve().parent != SRC / "tsirnorm":
        sys.exit(f"run.py: imported tsirnorm from {tsirnorm.__file__}, not from {SRC}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="tsirnorm benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("witness_l2", "matrix_l3", "generic_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, then exit (times setup_s)")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout's own .git, if it has one; never searches upward."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
        "seed": args.seed,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"n": 1, "q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


def nearest_rank(sorted_values: list[float], p: float) -> float:
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def measure_setup(args) -> list[float]:
    """Wall time of fresh processes that import the library and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"setup process failed: {done.stderr.strip()}")
    return samples


def run_passes(plan, seconds: float, tracer=None):
    """Passes until the pass boundary nearest to ``seconds``; at least one.

    With a tracer, each pass index runs twice, untraced and traced, so the
    two medians compare the same inputs; which goes first alternates.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        if tracer is None or index % 2 == 0:
            untraced.append(plan.run_pass(index))
        if tracer is not None:
            with tracer:
                traced.append(tracer.run_root(plan.run_pass, index))
            if index % 2 == 1:
                untraced.append(plan.run_pass(index))
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / index > seconds:
            return untraced, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_library()
    import workloads

    plan = workloads.setup(args.workload, args.seed)
    if args.setup_only:
        return 0

    setup_samples = [] if args.trace else measure_setup(args)
    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
    untraced, traced = run_passes(plan, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    results = untraced + traced
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    problems = [p for r in results for p in r.problems]
    walls = [r.wall_s for r in untraced]
    wall = quartiles(walls)

    latencies = sorted(ms for r in untraced for ms in r.latencies_ms)
    finite = [ms for ms in latencies if math.isfinite(ms)]
    # A failed evaluation misses every latency limit; it sorts last, and a
    # percentile that lands on one reports the whole measured time instead.
    stand_in = sum(walls) * 1e3
    p50 = statistics.median(latencies)
    p99 = nearest_rank(latencies, 0.99)
    p50, p99 = (v if math.isfinite(v) else stand_in for v in (p50, p99))
    beyond_p99 = len(latencies) - math.ceil(0.99 * len(latencies))

    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "environment": environment(args),
        "passes": len(untraced),
        "wall_s": wall,
        "evaluations": {"n": len(latencies), "p50_ms": p50, "p99_ms": p99,
                        "samples_beyond_p99": beyond_p99},
        "setup_s": {"n": len(setup_samples), "samples": setup_samples},
        "digest": workloads.digest([v for r in untraced for v in r.values]),
        "problems": problems[:20],
    }

    if args.trace:
        metrics = tracer_mod.layer_metrics(tracer, len(traced))
        traced_wall = statistics.median(r.wall_s for r in traced)
        metrics["trace.overhead_share"] = (traced_wall / wall["median"] - 1, "ratio")
        metrics["fail_share"] = (failed / attempted, "ratio")
        detail["traced_wall_s"] = quartiles([r.wall_s for r in traced])
        detail["dp_shapes"] = tracer.dp_shapes
    else:
        seconds_total = sum(walls)
        metrics = {
            "wall_s": (wall["median"], "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "evals_per_s": (len(finite) / seconds_total, "1/s"),
            "eval_p50_ms": (p50, "ms"),
            "eval_p99_ms": (p99, "ms"),
        }

    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
