#!/usr/bin/env python3
"""The multipool benchmark.

    python3 bench/run.py --workload sim-dense-small --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
With ``--trace 0`` the run reports the end-to-end metrics of one
workload, timed with tracing off.  With ``--trace 1`` it runs the
workload untraced for half the time and traced for the other half, and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is the result as JSON; the line before it records the
environment and the sample counts.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("sim-dense-small", "sim-sparse-large")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Fresh interpreters started per run; setup_s and cli.import.s are their median.
PROBES = 5
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
# The simulation gate's known false alarms fail about 0.2 % of the
# compare calls; many more means something broke.
MAX_FAILED_FRAC = 0.05


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> dict[str, str]:
    """Keep native thread pools to one thread, and never above nproc, so the
    run uses at most the two threads of compare(threads=2)."""
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        os.environ[var] = str(min(int(value), nproc())) if value.isdigit() else "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def import_package():
    if not (SRC / "multipool" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC.relative_to(ROOT)}/multipool; "
                 "run from the root of a multipool checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import multipool

    if not Path(multipool.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported multipool from {multipool.__file__}, not from the checkout")


def probe(kind: str, workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its ready line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", kind,
           "--workload", workload, "--seed", str(seed)]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = perf_counter() - start
        try:
            child.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            child.kill()
            raise
    if child.returncode != 0 or not line.startswith("ready"):
        sys.exit(f"error: {kind} probe failed with exit code {child.returncode}")
    # The import probe times the import itself, inside the child.
    return float(line.split()[1]) if kind == "import" else ready


def run_probe(kind: str, workload: str, seed: int):
    if kind == "import":
        start = perf_counter()
        import_package()
        import multipool.cli  # noqa: F401

        print(f"ready {perf_counter() - start!r}", flush=True)
        return
    import_package()
    import workloads

    workloads.make(workload, seed).warmup()
    print("ready", flush=True)


def measure(work, first: int, seconds: float, min_steps: int, tracer=None) -> list:
    """Steps from index ``first`` on, for ``seconds`` and at least ``min_steps``."""
    steps = []
    deadline = perf_counter() + seconds
    while len(steps) < min_steps or perf_counter() < deadline:
        steps.append(work.step(first + len(steps), tracer))
    return steps


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of sorted samples."""
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least ten of ``count`` samples
    beyond it."""
    for pct in TAIL_LADDER:
        if count - math.ceil(pct / 100 * count) >= 10:
            return pct
    return 100.0


def environment(threads: dict[str, str]) -> dict:
    import numpy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        read = lambda name: (index / name).read_text().strip()  # noqa: E731
        caches[f"L{read('level')} {read('type')}"] = read("size")
    return {"nproc": nproc(), "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "caches": caches, "threads": threads}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steps", type=int, default=None,
                        help="run exactly this many operations, once each (self-test)")
    parser.add_argument("--probe", choices=("setup", "import"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    threads = cap_threads()
    if args.probe:
        run_probe(args.probe, args.workload, args.seed)
        return

    import_package()
    # Byte-compile first, in a child so the compiler's memory stays out of
    # peak_rss_mb, and every probe starts from the same cached state.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH)], check=True)
    probes = 1 if args.steps else PROBES
    kind = "import" if args.trace else "setup"
    probe_s = [probe(kind, args.workload, args.seed) for _ in range(probes)]

    import tracing
    import workloads

    work = workloads.make(args.workload, args.seed, args.steps)
    work.warmup()
    gc.collect()
    seconds = 0.0 if args.steps else args.seconds
    detail = {"workload": args.workload, "seed": args.seed, "environment": environment(threads)}

    if args.trace:
        plain = measure(work, 0, seconds / 2, work.ops)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = measure(work, len(plain), seconds / 2, min(work.ops, 10), tracer)
        steps = plain + traced
        t1 = statistics.median(s.seconds for s in plain)
        t2_s = statistics.median(s.t2_seconds for s in plain)
        t2 = (work.trials / t2_s, t1 / t2_s)
        overhead = statistics.median(s.seconds for s in traced) / t1 - 1
        metrics = tracing.per_layer(tracer, len(traced), statistics.median(probe_s), overhead, t2)
        consistent = tracer.violations == 0 and \
            tracer.counts["gf.field_ops.s"] <= tracer.seconds["design.build_multipool"]
        detail.update(steps_untraced=len(plain), steps_traced=len(traced),
                      span_violations=tracer.violations,
                      t2_speedup_base="trials/s at threads = 1, untraced phase")
    else:
        steps = measure(work, 0, seconds, work.ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        latencies = sorted(s.seconds for s in steps)
        # Fixed by the guaranteed step count, so runs that fit more steps
        # in report the same percentile.
        pct = tail_percentile(work.ops)
        metrics = {
            "trials_per_s": (statistics.median(s.trials / s.seconds for s in steps), "1/s"),
            "op_ms_p50": (1e3 * percentile(latencies, 50), "ms"),
            "op_ms_tail": (1e3 * percentile(latencies, pct), "ms"),
            "setup_s": (statistics.median(probe_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        consistent = True
        detail.update(steps=len(steps), tail_percentile=pct, setup_probes_s=probe_s,
                      trials_per_s_t2=statistics.median(s.trials / s.t2_seconds for s in steps))

    # An attempt is one operation at one thread count, however often the
    # run repeated it; it fails if any of its calls missed a check.
    attempted = len({(s.op, t) for s in steps for t in s.threads})
    failed = len({(s.op, t) for s in steps for t in s.failed})
    unexpected = len({(s.op, t) for s in steps for t in s.unexpected})
    detail.update(ops=work.ops, failed_frac=failed / attempted, failed_unexpected=unexpected)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": consistent and unexpected == 0 and failed <= MAX_FAILED_FRAC * attempted,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
