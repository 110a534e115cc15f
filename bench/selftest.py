#!/usr/bin/env python3
"""Quick self-test of the benchmark, run from the root of a checkout:

    python3 bench/selftest.py

Checks that the exact oracle flags the ROADMAP repro point and prints how
many points of a min_multiplicity grid the package misses.  Then it runs
every workload for one step in both modes and confirms that the result
line carries every metric BENCHMARK.json names, with its unit.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracle  # noqa: E402
from multipool import NoiseModel, analytics  # noqa: E402
from multipool.errors import InfeasibleError  # noqa: E402


def check_oracle():
    rho = eps = Fraction(1, 10 ** 9)
    assert oracle.min_multiplicity(rho, 8, Fraction(0), eps) == 3
    at_two = oracle.statistics(oracle.Point(rho=rho, q=8, m=2))["typeI"]
    assert 4.8e-8 < at_two < 5.0e-8, float(at_two)
    assert oracle.in_tail(oracle.Point(rho=rho, q=8, m=2))
    assert not oracle.matches(0.0, at_two)


def tune_misses() -> tuple[int, int, int]:
    """(points, misses, misses outside the tail region) of min_multiplicity
    over rho, epsilon in 1e-1 .. 1e-9, q in {5, 8, 16, 27, 64}, noiseless
    and p = 0.02."""
    decades = [Fraction(1, 10 ** e) for e in range(1, 10)]
    points = misses = outside = 0
    for p in (Fraction(0), Fraction(2, 100)):
        for q in (5, 8, 16, 27, 64):
            for rho in decades:
                for eps in decades:
                    points += 1
                    try:
                        got = analytics.min_multiplicity(
                            float(rho), q, NoiseModel(float(p), float(p)), float(eps)).m
                    except InfeasibleError:
                        got = None
                    exact = oracle.min_multiplicity(rho, q, p, eps)
                    if got != exact:
                        misses += 1
                        m = min(v for v in (got, exact) if v is not None)
                        point = oracle.Point(rho=rho, q=q, m=m, p_fp=p, p_fn=p)
                        outside += not oracle.in_tail(point)
    return points, misses, outside


def check_workload(spec: dict, workload: str, trace: int):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--steps", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["attempted"] >= 1, result
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == expected, (workload, trace, set(got) ^ set(expected))
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"} and math.isfinite(metric["value"]), name


def main():
    check_oracle()
    print("oracle flags the repro point: ok")
    points, misses, outside = tune_misses()
    print(f"min_multiplicity misses the exact oracle at {misses} of {points} grid points, "
          f"{outside} outside the known tail region")
    assert outside == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in spec["workloads"]:
        for trace in (0, 1):
            check_workload(spec, entry["name"], trace)
            print(f"{entry['name']} trace {trace}: ok")


if __name__ == "__main__":
    main()
