"""Spans and counters around the package's layer boundaries.

The traced run wraps the public functions each layer exposes, at the
names ``montecarlo`` calls them through, and restores them afterwards;
the package itself is never edited.  Spans nest on one
thread: only threads = 1 calls run traced.  Each span is folded into
per-name totals as it closes, which keeps memory flat however long the
run is.
"""

from __future__ import annotations

import math
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from multipool import gf, model, montecarlo


class Tracer:
    def __init__(self):
        # Open spans: [name, start, child seconds, first child start, last child end].
        self.stack: list[list] = []
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.violations = 0

    def open(self, name: str):
        self.stack.append([name, perf_counter(), 0.0, math.inf, -math.inf])

    def close(self):
        end = perf_counter()
        name, start, child, first, last = self.stack.pop()
        duration = end - start
        if child > duration or first < start or last > end:
            self.violations += 1
        self.seconds[name] += duration
        self.self_seconds[name] += duration - child
        self.calls[name] += 1
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            parent[3] = min(parent[3], start)
            parent[4] = max(parent[4], end)

    def span(self, name: str, fn, measure=None):
        """Wrap fn in a span; ``measure(args, result)`` adds computed bytes."""

        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if measure is not None:
                self.counts[name + ".bytes"] += measure(args, result)
            return result

        return traced

    def counted(self, name: str, fn):
        """Count and time fn without a span; used for per-element calls."""

        def traced(*args):
            start = perf_counter()
            result = fn(*args)
            self.counts[name + ".s"] += perf_counter() - start
            self.counts[name] += 1
            return result

        return traced


def _gather_bytes(index_attr: str):
    """Input, gathered intermediate and output bytes of ``x[..., index]``."""

    def measure(args, result) -> int:
        matrix, x = args[0], args[1]
        index = getattr(matrix, index_attr)
        rows = x.size // x.shape[-1]
        return x.nbytes + rows * index.size * x.itemsize + result.nbytes

    return measure


@contextmanager
def installed(tracer: Tracer):
    """Route every traced entry point through ``tracer`` while active."""
    span, counted = tracer.span, tracer.counted
    patches = [
        (montecarlo, "run_experiment",
         span("montecarlo.run_experiment", montecarlo.run_experiment)),
        (montecarlo, "build_multipool", span("design.build_multipool", montecarlo.build_multipool)),
        (montecarlo, "analytic_report",
         span("analytics.analytic_report", montecarlo.analytic_report)),
        (montecarlo, "pool_loads",
         span("model.pool_loads", montecarlo.pool_loads, _gather_bytes("pools_array"))),
        (montecarlo, "negative_probabilities",
         span("model.negative_probabilities", montecarlo.negative_probabilities)),
        (montecarlo, "positive_pool_counts",
         span("model.positive_pool_counts", montecarlo.positive_pool_counts,
              _gather_bytes("membership_array"))),
        (model.SeedSpec, "rng", span("model.rng", model.SeedSpec.rng)),
        (gf.Field, "add", counted("gf.field_ops", gf.Field.add)),
        (gf.Field, "mul", counted("gf.field_ops", gf.Field.mul)),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def per_layer(tracer: Tracer, ops: int, cli_import_s: float, overhead: float,
              t2: tuple[float, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced phase of ``ops`` workload steps.

    ``.s`` on model and montecarlo names is seconds per workload step;
    on design and analytics names it is seconds per call.  Shares are of
    the block stages: the run_experiment span minus its design build.
    ``t2`` is (trials/s at threads = 2, speed-up over threads = 1) from
    the untraced phase.
    """
    sec, calls, counts = tracer.seconds, tracer.calls, tracer.counts

    def per(total: float, n: float) -> float:
        return total / n if n else 0.0

    run = sec["montecarlo.run_experiment"]
    stages = run - sec["design.build_multipool"]
    # The inline draws, tally and accumulators: run_experiment minus its
    # child spans (rng, pool loads, noise, decode counts, design build).
    self_s = tracer.self_seconds["montecarlo.run_experiment"]
    builds = calls["design.build_multipool"]
    return {
        "model.pool_loads.s": (per(sec["model.pool_loads"], ops), "s"),
        "model.pool_loads.share": (per(sec["model.pool_loads"], stages), "share"),
        "model.pool_loads.bytes_computed": (per(counts["model.pool_loads.bytes"], ops), "B"),
        "model.positive_pool_counts.s": (per(sec["model.positive_pool_counts"], ops), "s"),
        "model.positive_pool_counts.share":
            (per(sec["model.positive_pool_counts"], stages), "share"),
        "model.positive_pool_counts.bytes_computed":
            (per(counts["model.positive_pool_counts.bytes"], ops), "B"),
        "model.negative_probabilities.s": (per(sec["model.negative_probabilities"], ops), "s"),
        "model.negative_probabilities.share":
            (per(sec["model.negative_probabilities"], stages), "share"),
        "model.rng.s": (per(sec["model.rng"], ops), "s"),
        "model.rng.calls": (per(calls["model.rng"], ops), "count"),
        "montecarlo.run_experiment.s": (per(run, ops), "s"),
        "montecarlo.self.s": (per(self_s, ops), "s"),
        "montecarlo.self.share": (per(self_s, stages), "share"),
        "montecarlo.blocks": (per(calls["model.rng"], calls["montecarlo.run_experiment"]), "count"),
        "montecarlo.trials_per_s_t2": (t2[0], "1/s"),
        "montecarlo.t2_speedup": (t2[1], "ratio"),
        "design.build_multipool.s": (per(sec["design.build_multipool"], builds), "s"),
        "gf.field_ops": (per(counts["gf.field_ops"], builds), "count"),
        "gf.field_ops.s": (per(counts["gf.field_ops.s"], builds), "s"),
        "analytics.analytic_report.s":
            (per(sec["analytics.analytic_report"], calls["analytics.analytic_report"]), "s"),
        "cli.import.s": (cli_import_s, "s"),
        "trace.overhead": (overhead, "share"),
    }
