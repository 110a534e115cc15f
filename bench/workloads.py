"""The benchmark's workloads: inputs, timed operations and their checks.

Each workload turns ``--seed`` into its inputs and exposes ``step(i)``,
one timed unit of the run.  Checks run after the clock stops and never
compare against outputs stored from an earlier commit.

* sim-dense-small: cheap trials with dense infections, so the inline
  draws, tally, accumulation and per-block overhead in ``montecarlo``
  weigh most; a sparse-infection kernel gains least here.
* sim-sparse-large: the pool-load and decode-count gathers of ``model``
  dominate, threads = 2 pays, and the noiseless nc = 0 scenario turns on
  the variance-bound rows and their moment accumulators.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import oracle
from multipool import montecarlo
from multipool.analytics import ScenarioParams
from multipool.design import MultipoolParams
from multipool.model import NoiseModel

# Report rows and the oracle statistic each one's closed form must match.
_ROWS = {"sens": "sens", "spec": "spec", "typeI": "typeI", "typeII": "typeII",
         "mean_T": "e_T", "mean_Tfp": "e_Tfp", "mean_Tfn": "e_Tfn",
         "var_T": "var_T_bound", "var_Tfp": "var_Tfp_bound"}


@dataclass
class Step:
    """One execution of operation ``op``: compare() on its config at each
    thread count in ``threads``, the time at threads = 1 and, untraced, at
    threads = 2, and the thread counts whose call missed a check.
    ``unexpected`` holds the misses no documented defect accounts for."""

    op: int
    seconds: float
    trials: int
    threads: tuple[int, ...]
    failed: frozenset[int] = frozenset()
    unexpected: frozenset[int] = frozenset()
    t2_seconds: float | None = None


def derive_seed(seed: int, i: int) -> int:
    """64-bit master seed of operation i under the workload seed."""
    digest = hashlib.blake2b(f"{seed}:{i}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class Simulate:
    """``ops`` operations, each one config with its own master seed.  A
    run executes every operation at least once and then cycles through
    them until its time is up, so the operations a run checks, and hence
    ``attempted`` and ``failed``, depend on the seed alone."""

    def __init__(self, seed: int, ops: int, q: int, m: int, nc: int, rho: str, p: str,
                 trials: int):
        self.seed = seed
        self.ops = ops
        self.trials = trials
        self.params = MultipoolParams(q=q, m=m)
        noise = NoiseModel(float(p), float(p))
        self.scenario = ScenarioParams(rho=float(rho), q=q, m=m, nc=nc, noise=noise, n=q * q)
        self.point = oracle.Point(rho=Fraction(rho), q=q, m=m, nc=nc, p_fp=Fraction(p),
                                  p_fn=Fraction(p), n=q * q)
        self._exact = None
        # Digest of the first document each operation returned.
        self._documents: dict[int, bytes] = {}

    def _config(self, op: int) -> montecarlo.ExperimentConfig:
        return montecarlo.ExperimentConfig(
            scenario=self.scenario, design=self.params, trials=self.trials,
            master_seed=derive_seed(self.seed, op))

    def warmup(self):
        config = self._config(-1)
        montecarlo.compare(config, threads=1)
        montecarlo.compare(config, threads=2)

    def step(self, i: int, tracer=None) -> Step:
        """Operation ``i % ops``: compare() at threads = 1 and, untraced, at
        threads = 2 on the same config, alternating which runs first."""
        op = i % self.ops
        config = self._config(op)
        traced = tracer is not None
        order = (1,) if traced else ((1, 2) if i % 2 == 0 else (2, 1))
        reports, seconds = {}, {}
        for threads in order:
            start = perf_counter()
            reports[threads] = montecarlo.compare(config, threads=threads)
            seconds[threads] = perf_counter() - start
        # A gate trip is a failed operation but not a wrong output: the gate
        # divides by a standard error estimated from the same trials, so a
        # low count of a rare outcome (false negatives on sim-dense-small)
        # or a few heavy trials make z run large now and then.
        failed, unexpected = set(), set()
        for threads, report in reports.items():
            # Every call of an operation, at either thread count, traced or
            # not, must return the same document byte for byte.
            document = json.dumps(report.to_document(), indent=2).encode()
            digest = hashlib.blake2b(document, digest_size=16).digest()
            same = self._documents.setdefault(op, digest) == digest
            if not (same and self._closed_forms_exact(report)):
                unexpected.add(threads)
            if threads in unexpected or not report.passed:
                failed.add(threads)
        return Step(op=op, seconds=seconds[1], trials=self.trials, threads=order,
                    failed=frozenset(failed), unexpected=frozenset(unexpected),
                    t2_seconds=seconds.get(2))

    def _closed_forms_exact(self, report) -> bool:
        """Every closed form in the report matches the exact oracle."""
        if self._exact is None:
            self._exact = oracle.statistics(self.point)
        return all(
            oracle.matches(row.bound if row.kind == "bound" else row.analytic,
                           self._exact.get(_ROWS[row.statistic]))
            for row in report.rows)


def make(name: str, seed: int, ops: int | None = None) -> Simulate:
    """The workload's inputs under ``seed``; ``ops`` overrides its
    operation count (the self-test runs one)."""
    if name == "sim-dense-small":
        return Simulate(seed, ops or 384, q=16, m=4, nc=1, rho="0.1", p="0.02", trials=6552)
    if name == "sim-sparse-large":
        return Simulate(seed, ops or 128, q=64, m=8, nc=0, rho="0.01", p="0", trials=448)
    raise KeyError(name)
