"""Monte Carlo estimation of screening statistics, and comparison of the
estimates against the closed forms.

Trials are processed in fixed-size blocks.  Block b draws all of its
randomness from the stream (master_seed, b), and every accumulation is
an exact integer sum, so results are bit-identical no matter how many
threads process the blocks or in which order they finish.

Conditional proportions (sensitivity and friends) pool item-level events
across trials.  Items within a trial share pools and are therefore
correlated, so next to the naive binomial standard error each estimate
carries a trial-level clustered standard error from the linearized ratio
estimator; the larger of the two is what comparisons gate on.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import analytics
from .analytics import AnalyticReport, ScenarioParams, analytic_report
from .design import MultipoolParams, PoolingMatrix, build_multipool
from .errors import DomainError
from .model import SeedSpec, negative_probabilities, pool_loads, positive_pool_counts

_BLOCK_TARGET_ELEMENTS = 1 << 24
_BLOCK_MAX = 4096
_BLOCK_MIN = 32


def _block_size(n: int, m: int, q: int) -> int:
    """Trials per block.

    Block b draws its randomness from the stream (master_seed, b), so
    this partition fixes every random draw of an experiment: the formula
    must stay as it is for reports to stay the same.  Its bound also
    keeps the per-block moment sums of T**4 below the int64 limit for
    built designs.
    """
    per_trial = max(1, n * (m + q))
    return max(_BLOCK_MIN, min(_BLOCK_MAX, _BLOCK_TARGET_ELEMENTS // per_trial))


@dataclass(frozen=True)
class Estimate:
    """One empirical quantity with its uncertainty.

    ``value`` is None when the conditioning class never occurred.  For
    pooled proportions ``se`` is the larger of the binomial and clustered
    standard errors and ``observations`` counts conditioning events; for
    means and variances ``se`` is the usual sampling error and
    ``observations`` counts trials.
    """

    value: float | None
    se: float | None
    observations: int
    se_binomial: float | None = None
    se_clustered: float | None = None
    effective_observations: float | None = None

    @property
    def available(self) -> bool:
        return self.value is not None


class _RatioAcc:
    """Exact integer sums for a pooled ratio  sum(a_i) / sum(b_i)."""

    __slots__ = ("events", "base", "events_sq", "cross", "base_sq", "trials")

    def __init__(self):
        self.events = 0
        self.base = 0
        self.events_sq = 0
        self.cross = 0
        self.base_sq = 0
        self.trials = 0

    def add(self, events: np.ndarray, base: np.ndarray):
        events = events.astype(np.int64, copy=False)
        base = base.astype(np.int64, copy=False)
        self.events += int(events.sum())
        self.base += int(base.sum())
        self.events_sq += int((events * events).sum())
        self.cross += int((events * base).sum())
        self.base_sq += int((base * base).sum())
        self.trials += int(events.shape[0])

    def merge(self, other: "_RatioAcc"):
        self.events += other.events
        self.base += other.base
        self.events_sq += other.events_sq
        self.cross += other.cross
        self.base_sq += other.base_sq
        self.trials += other.trials

    def estimate(self) -> Estimate:
        if self.base == 0:
            return Estimate(value=None, se=None, observations=0)
        p = self.events / self.base
        se_binomial = math.sqrt(max(0.0, p * (1.0 - p)) / self.base)
        # Linearized (cluster-robust) variance of the ratio, trials as clusters:
        # sum((a_i - p * b_i)^2) expanded from exact cross moments.
        residual_sq = self.events_sq - 2.0 * p * self.cross + p * p * self.base_sq
        if self.trials > 1:
            residual_sq *= self.trials / (self.trials - 1)
        se_clustered = math.sqrt(max(0.0, residual_sq)) / self.base
        se = max(se_binomial, se_clustered)
        if se_clustered > 0.0:
            effective = self.base * (se_binomial / se_clustered) ** 2
        else:
            effective = float(self.base)
        return Estimate(
            value=p,
            se=se,
            observations=self.base,
            se_binomial=se_binomial,
            se_clustered=se_clustered,
            effective_observations=effective,
        )


class _MomentAcc:
    """Exact integer power sums of one per-trial count."""

    __slots__ = ("count", "s1", "s2", "s3", "s4")

    def __init__(self):
        self.count = 0
        self.s1 = 0
        self.s2 = 0
        self.s3 = 0
        self.s4 = 0

    def add(self, values: np.ndarray):
        v = values.astype(np.int64, copy=False)
        v2 = v * v
        self.count += int(v.shape[0])
        self.s1 += int(v.sum())
        self.s2 += int(v2.sum())
        self.s3 += int((v2 * v).sum())
        self.s4 += int((v2 * v2).sum())

    def merge(self, other: "_MomentAcc"):
        self.count += other.count
        self.s1 += other.s1
        self.s2 += other.s2
        self.s3 += other.s3
        self.s4 += other.s4

    def _central_moments(self) -> tuple[float, float, float]:
        n = self.count
        mean = self.s1 / n
        m2 = self.s2 / n - mean * mean
        m4 = (
            self.s4 / n
            - 4.0 * mean * (self.s3 / n)
            + 6.0 * mean * mean * (self.s2 / n)
            - 3.0 * mean ** 4
        )
        return mean, max(0.0, m2), max(0.0, m4)

    def mean_estimate(self) -> Estimate:
        n = self.count
        mean, m2, _ = self._central_moments()
        sample_var = m2 * n / (n - 1) if n > 1 else 0.0
        se = math.sqrt(sample_var / n) if n > 0 else None
        return Estimate(value=mean, se=se, observations=n)

    def variance_estimate(self) -> Estimate:
        n = self.count
        if n < 2:
            return Estimate(value=None, se=None, observations=n)
        mean, m2, m4 = self._central_moments()
        sample_var = m2 * n / (n - 1)
        # Sampling variance of the sample variance via the plug-in fourth
        # central moment.
        se_sq = (m4 - sample_var * sample_var * (n - 3) / (n - 1)) / n
        return Estimate(value=sample_var, se=math.sqrt(max(0.0, se_sq)), observations=n)


class _Totals:
    __slots__ = (
        "sens",
        "spec",
        "type_one",
        "type_two",
        "positives",
        "false_positives",
        "false_negatives",
        "max_false_negatives",
    )

    def __init__(self):
        self.sens = _RatioAcc()
        self.spec = _RatioAcc()
        self.type_one = _RatioAcc()
        self.type_two = _RatioAcc()
        self.positives = _MomentAcc()
        self.false_positives = _MomentAcc()
        self.false_negatives = _MomentAcc()
        self.max_false_negatives = 0

    def merge(self, other: "_Totals"):
        self.sens.merge(other.sens)
        self.spec.merge(other.spec)
        self.type_one.merge(other.type_one)
        self.type_two.merge(other.type_two)
        self.positives.merge(other.positives)
        self.false_positives.merge(other.false_positives)
        self.false_negatives.merge(other.false_negatives)
        self.max_false_negatives = max(self.max_false_negatives, other.max_false_negatives)


@dataclass(frozen=True)
class EmpiricalStats:
    """Pooled Monte Carlo estimates for one experiment."""

    sensitivity: Estimate
    specificity: Estimate
    type_one: Estimate
    type_two: Estimate
    mean_positives: Estimate
    mean_false_positives: Estimate
    mean_false_negatives: Estimate
    var_positives: Estimate
    var_false_positives: Estimate
    trials: int
    max_false_negatives: int


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully specified simulation: scenario, design, size, seed."""

    scenario: ScenarioParams
    design: MultipoolParams | PoolingMatrix
    trials: int
    master_seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError(f"trial count must be positive, got {self.trials}")
        if not 0 <= self.master_seed < 2 ** 64:
            raise DomainError("master_seed must be a 64-bit unsigned integer")
        scenario = self.scenario
        if scenario.n is None:
            raise DomainError("simulation needs the item count n in the scenario")
        if isinstance(self.design, MultipoolParams):
            if self.design.q != scenario.q or self.design.m != scenario.m:
                raise DomainError(
                    f"design ({self.design.q}, {self.design.m}) does not match "
                    f"scenario ({scenario.q}, {scenario.m})"
                )
            if self.design.n != scenario.n:
                raise DomainError(
                    f"built designs cover {self.design.n} items, scenario says {scenario.n}"
                )
        else:
            if self.design.pool_size != scenario.q:
                raise DomainError(
                    f"matrix pool size {self.design.pool_size} does not match q={scenario.q}"
                )
            if self.design.multiplicity != scenario.m:
                raise DomainError(
                    f"matrix multiplicity {self.design.multiplicity} does not match m={scenario.m}"
                )
            if self.design.n != scenario.n:
                raise DomainError(
                    f"matrix covers {self.design.n} items, scenario says {scenario.n}"
                )

    def matrix(self) -> PoolingMatrix:
        if isinstance(self.design, PoolingMatrix):
            return self.design
        return build_multipool(self.design)


def _run_block(
    matrix: PoolingMatrix,
    scenario: ScenarioParams,
    master_seed: int,
    block_index: int,
    count: int,
    m: int,
) -> _Totals:
    n = matrix.n
    rng = SeedSpec(master_seed, block_index).rng()
    x = rng.random((count, n)) < scenario.rho
    loads = pool_loads(matrix, x)
    p_negative = negative_probabilities(loads, scenario.noise)
    y = rng.random((count, matrix.t)) >= p_negative
    counts = positive_pool_counts(matrix, y)
    z = counts >= (m - scenario.nc)

    infected = x.sum(axis=1, dtype=np.int64)
    true_pos = (x & z).sum(axis=1, dtype=np.int64)
    flagged = z.sum(axis=1, dtype=np.int64)
    false_pos = flagged - true_pos
    false_neg = infected - true_pos
    healthy = n - infected
    true_neg = healthy - false_pos
    flagged_neg = n - flagged

    totals = _Totals()
    totals.sens.add(true_pos, infected)
    totals.spec.add(true_neg, healthy)
    totals.type_one.add(false_pos, flagged)
    totals.type_two.add(false_neg, flagged_neg)
    totals.positives.add(flagged)
    totals.false_positives.add(false_pos)
    totals.false_negatives.add(false_neg)
    totals.max_false_negatives = int(false_neg.max()) if count else 0
    return totals


def run_experiment(config: ExperimentConfig, threads: int = 1) -> EmpiricalStats:
    """Simulate config.trials rounds and pool the tallies.

    ``threads`` only distributes blocks over a thread pool; the estimates
    are identical for every thread count because block seeding and the
    integer accumulations do not depend on scheduling.
    """
    if threads < 1:
        raise DomainError(f"thread count must be positive, got {threads}")
    matrix = config.matrix()
    m = matrix.multiplicity
    scenario = config.scenario
    block = _block_size(matrix.n, scenario.m, scenario.q)
    blocks = [
        (index, min(block, config.trials - start))
        for index, start in enumerate(range(0, config.trials, block))
    ]

    def work(entry: tuple[int, int]) -> _Totals:
        index, count = entry
        return _run_block(matrix, scenario, config.master_seed, index, count, m)

    totals = _Totals()
    if threads == 1 or len(blocks) == 1:
        for entry in blocks:
            totals.merge(work(entry))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for partial in pool.map(work, blocks):
                totals.merge(partial)

    return EmpiricalStats(
        sensitivity=totals.sens.estimate(),
        specificity=totals.spec.estimate(),
        type_one=totals.type_one.estimate(),
        type_two=totals.type_two.estimate(),
        mean_positives=totals.positives.mean_estimate(),
        mean_false_positives=totals.false_positives.mean_estimate(),
        mean_false_negatives=totals.false_negatives.mean_estimate(),
        var_positives=totals.positives.variance_estimate(),
        var_false_positives=totals.false_positives.variance_estimate(),
        trials=config.trials,
        max_false_negatives=totals.max_false_negatives,
    )


@dataclass(frozen=True)
class ComparisonRow:
    """One statistic set side by side with its closed form.

    ``kind`` is "z" for value comparisons and "bound" for one-sided
    variance checks.  ``status`` is "ok" when both sides exist,
    "unavailable" when the empirical side has no observations,
    "undefined" when the analytic side does not exist, and
    "not_applicable" when the closed form has no claim to make.
    """

    statistic: str
    kind: str
    status: str
    passed: bool
    analytic: float | None = None
    empirical: float | None = None
    se: float | None = None
    z: float | None = None
    bound: float | None = None
    slack: float | None = None
    observations: int = 0


@dataclass(frozen=True)
class ComparisonReport:
    scenario: ScenarioParams
    trials: int
    master_seed: int
    rows: tuple[ComparisonRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_document(self) -> dict:
        scenario = self.scenario
        return {
            "q": scenario.q,
            "m": scenario.m,
            "nc": scenario.nc,
            "rho": scenario.rho,
            "p_fp": scenario.noise.p_fp,
            "p_fn": scenario.noise.p_fn,
            "n": scenario.n,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "passed": self.passed,
            "rows": [
                {
                    "statistic": row.statistic,
                    "kind": row.kind,
                    "status": row.status,
                    "passed": row.passed,
                    "analytic": row.analytic,
                    "empirical": row.empirical,
                    "se": row.se,
                    "z": row.z,
                    "bound": row.bound,
                    "slack": row.slack,
                    "observations": row.observations,
                }
                for row in self.rows
            ],
        }


def _value_row(
    statistic: str, analytic: float | None, estimate: Estimate, z_threshold: float
) -> ComparisonRow:
    if analytic is None and estimate.value is None:
        return ComparisonRow(statistic=statistic, kind="z", status="undefined", passed=True)
    if estimate.value is None:
        return ComparisonRow(
            statistic=statistic, kind="z", status="unavailable", passed=True, analytic=analytic
        )
    if analytic is None:
        # The conditional should never have occurred, yet it did.
        return ComparisonRow(
            statistic=statistic,
            kind="z",
            status="undefined",
            passed=False,
            empirical=estimate.value,
            observations=estimate.observations,
        )
    diff = estimate.value - analytic
    if estimate.se and estimate.se > 0.0:
        z = diff / estimate.se
        passed = abs(z) <= z_threshold
    else:
        z = 0.0 if diff == 0.0 else None
        passed = diff == 0.0
    return ComparisonRow(
        statistic=statistic,
        kind="z",
        status="ok",
        passed=passed,
        analytic=analytic,
        empirical=estimate.value,
        se=estimate.se,
        z=z,
        observations=estimate.observations,
    )


def _bound_row(statistic: str, bound: float | None, estimate: Estimate) -> ComparisonRow:
    if bound is None:
        return ComparisonRow(statistic=statistic, kind="bound", status="not_applicable", passed=True)
    if estimate.value is None:
        return ComparisonRow(
            statistic=statistic, kind="bound", status="unavailable", passed=True, bound=bound
        )
    slack = 5.0 * (estimate.se or 0.0)
    return ComparisonRow(
        statistic=statistic,
        kind="bound",
        status="ok",
        passed=estimate.value <= bound + slack,
        empirical=estimate.value,
        bound=bound,
        slack=slack,
        observations=estimate.observations,
    )


def compare(
    config: ExperimentConfig, threads: int = 1, z_threshold: float = 4.0
) -> ComparisonReport:
    """Run the experiment and gate every closed form against it.

    Value rows fail when |empirical - analytic| exceeds z_threshold
    standard errors; variance rows fail when the sample variance exceeds
    the bound by more than five of its own standard errors.
    """
    report: AnalyticReport = analytic_report(config.scenario)
    stats = run_experiment(config, threads=threads)
    rows = (
        _value_row("sens", report.sensitivity, stats.sensitivity, z_threshold),
        _value_row("spec", report.specificity, stats.specificity, z_threshold),
        _value_row("typeI", report.type_one, stats.type_one, z_threshold),
        _value_row("typeII", report.type_two, stats.type_two, z_threshold),
        _value_row("mean_T", report.expected_positives, stats.mean_positives, z_threshold),
        _value_row(
            "mean_Tfp", report.expected_false_positives, stats.mean_false_positives, z_threshold
        ),
        _value_row(
            "mean_Tfn", report.expected_false_negatives, stats.mean_false_negatives, z_threshold
        ),
        _bound_row("var_T", report.var_positives_bound, stats.var_positives),
        _bound_row("var_Tfp", report.var_false_positives_bound, stats.var_false_positives),
    )
    return ComparisonReport(
        scenario=config.scenario,
        trials=config.trials,
        master_seed=config.master_seed,
        rows=rows,
    )
