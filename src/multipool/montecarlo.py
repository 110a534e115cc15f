"""Monte Carlo estimation of screening statistics, and comparison of the
estimates against the closed forms.

Blocks fix the randomness: block b holds :func:`_block_size` trials and
draws their infections, then their pool errors, from the stream
(master_seed, b), each as the sorted positions of the rare events
(:func:`positions`).  Batches only group the compute: a batch is a
run of consecutive whole blocks, about ``_BATCH_ITEM_TRIALS``
item-trials in all, whose trials go through the pool-load gather, the
decode gather and the tally together, trial-minor.  Each batch returns
an exact tally: for each pooled ratio the integer sums of its per-trial
events and bases, their squares and their product, and for each
per-trial count (flagged, false positives, false negatives) a histogram
of how many trials had each value.  Batches merge by integer addition
and every estimate is a function of the merged integers, so results are
bit-identical no matter how many threads process the batches, in which
order they finish, or how the blocks group into batches.

Conditional proportions (sensitivity and friends) pool item-level events
across trials.  Items within a trial share pools and are therefore
correlated, so next to the naive binomial standard error each estimate
carries a trial-level clustered standard error from the linearized ratio
estimator; the larger of the two is the estimate's standard error.
Comparisons divide by the larger of it and the standard error that the
closed form implies (:func:`compare`).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate
from typing import Callable, Iterable

import numpy as np

from .analytics import AnalyticReport, Moments, ScenarioParams, analytic_report, exact_moments
from .design import MultipoolParams, PoolingMatrix, build_multipool
from .errors import DomainError
from .model import SeedSpec, negative_probabilities, pool_loads, positive_pool_counts

_BLOCK_TARGET_ELEMENTS = 1 << 24
_BLOCK_MAX = 4096
_BLOCK_MIN = 32
# Item-trials per batch, about: a batch groups whole blocks.
_BATCH_ITEM_TRIALS = 1 << 19

# glibc's malloc serves each request at or above its mmap threshold
# (128 KiB at start) with a fresh mapping and unmaps it on free, so every
# batch would fault its arrays in anew: about 1400 page faults, a fifth
# of a compare call on both benchmark workloads.  Freeing one mapped
# block raises the threshold to that block's size, and batch arrays
# below it (under 1 MiB each on both workloads) then reuse heap memory.
# Elsewhere this costs one allocation that is never touched.
np.empty(4 << 20, dtype=np.uint8)


def _block_size(n: int, m: int, q: int) -> int:
    """Trials per block.

    Blocks fix the random streams: block b draws from (master_seed, b),
    so this partition fixes every random draw of an experiment and the
    formula must stay as it is for reports to stay the same.  Batches
    only group whole blocks for the compute and move no draw.
    """
    per_trial = max(1, n * (m + q))
    return max(_BLOCK_MIN, min(_BLOCK_MAX, _BLOCK_TARGET_ELEMENTS // per_trial))


def _gap_chunk(size: int, rate: float) -> int:
    """Gaps drawn at a time by :func:`positions`: the mean success count
    of ``size`` trials plus four standard deviations, plus 16."""
    mean = size * rate
    return int(mean + 4.0 * math.sqrt(mean * (1.0 - rate))) + 16


def positions(rng: np.random.Generator, size: int, rate: float) -> np.ndarray:
    """Sorted positions of the successes among ``size`` Bernoulli(rate)
    trials, by geometric skips (Devroye 1986, ch. X).

    Each gap to the next success is floor(E * -1 / log1p(-rate)) + 1 for
    a standard exponential E.  Gaps come in chunks of
    :func:`_gap_chunk` exponentials, chunk after chunk while the
    positions fall short of ``size``, and the rest of the last chunk is
    discarded.  The chunk rule fixes how much of the stream a call takes
    and so every later draw: like :func:`_block_size` it must stay as it
    is for reports to stay the same.  Rate 0 draws nothing, and rate 1
    returns every position without drawing.
    """
    if rate <= 0.0 or size <= 0:
        return np.empty(0, dtype=np.int64)
    if rate >= 1.0:
        return np.arange(size, dtype=np.int64)
    scale = -1.0 / math.log1p(-rate)
    chunk = _gap_chunk(size, rate)
    parts, last = [], -1
    while last < size - 1:
        # Any gap past the end ends the draw, so capping gaps at ``size``
        # moves no position and keeps the sums in int64.
        gaps = np.fmin(rng.standard_exponential(chunk) * scale, size).astype(np.int64)
        gaps += 1
        parts.append(np.cumsum(gaps) + last)
        last = int(parts[-1][-1])
    found = np.concatenate(parts)
    return found[: np.searchsorted(found, size)]


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


def _ratio_sums(events: np.ndarray, base: np.ndarray) -> Counter:
    """Exact integer sums for a pooled ratio  sum(a_i) / sum(b_i).

    Every term is at most n**2 per trial, and a batch holds at most about
    2**19 / n trials plus two blocks, so a batch's int64 sums are exact
    for any n below 2**28; batches merge as Python ints.
    """
    return Counter(
        events=int(events.sum()),
        base=int(base.sum()),
        events_sq=int((events * events).sum()),
        cross=int((events * base).sum()),
        base_sq=int((base * base).sum()),
        trials=int(events.shape[0]),
    )


def _histogram(values: np.ndarray) -> Counter:
    """How many trials had each value of one per-trial count."""
    keys, counts = np.unique(values, return_counts=True)
    return Counter(dict(zip(keys.tolist(), counts.tolist())))


def _merge(tallies: Iterable[dict[str, Counter]]) -> dict[str, Counter]:
    """Sum block tallies; every entry is an exact integer."""
    total: dict[str, Counter] = defaultdict(Counter)
    for tally in tallies:
        for name, counts in tally.items():
            total[name].update(counts)
    return total


def _ratio_estimate(sums: Counter) -> Estimate:
    events, base, trials = sums["events"], sums["base"], sums["trials"]
    if base == 0:
        return Estimate(value=None, se=None, observations=0)
    p = events / base
    se_binomial = math.sqrt(max(0.0, p * (1.0 - p)) / base)
    # Linearized (cluster-robust) variance of the ratio, trials as clusters:
    # sum((a_i - p * b_i)^2) expanded from exact cross moments.
    residual_sq = sums["events_sq"] - 2.0 * p * sums["cross"] + p * p * sums["base_sq"]
    if trials > 1:
        residual_sq *= trials / (trials - 1)
    se_clustered = math.sqrt(max(0.0, residual_sq)) / base
    se = max(se_binomial, se_clustered)
    if se_clustered > 0.0:
        effective = base * (se_binomial / se_clustered) ** 2
    else:
        effective = float(base)
    return Estimate(
        value=p,
        se=se,
        observations=base,
        se_binomial=se_binomial,
        se_clustered=se_clustered,
        effective_observations=effective,
    )


def _central_moments(histogram: Counter) -> tuple[int, Fraction, Fraction, Fraction]:
    """Trial count, mean and plug-in second and fourth central moments,
    exact.

    With s1 the sum of the values, each centred value is (n v - s1) / n,
    so the centred power sums are integer sums over the histogram.
    """
    n = sum(histogram.values())
    s1 = sum(trials * value for value, trials in histogram.items())
    d2 = d4 = 0
    for value, trials in histogram.items():
        square = (n * value - s1) ** 2
        d2 += trials * square
        d4 += trials * square * square
    return n, Fraction(s1, n), Fraction(d2, n ** 3), Fraction(d4, n ** 5)


def _mean_estimate(histogram: Counter) -> Estimate:
    n, mean, m2, _ = _central_moments(histogram)
    sample_var = m2 * n / (n - 1) if n > 1 else 0
    return Estimate(value=float(mean), se=math.sqrt(sample_var / n), observations=n)


def _variance_estimate(histogram: Counter) -> Estimate:
    n, _, m2, m4 = _central_moments(histogram)
    if n < 2:
        return Estimate(value=None, se=None, observations=n)
    sample_var = m2 * n / (n - 1)
    # Sampling variance of the sample variance via the plug-in fourth
    # central moment.
    se_sq = (m4 - sample_var * sample_var * (n - 3) / (n - 1)) / n
    return Estimate(value=float(sample_var), se=math.sqrt(max(0, se_sq)), observations=n)


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
        SeedSpec(self.master_seed)  # raises on a seed outside [0, 2**64)
        scenario = self.scenario
        if scenario.n is None:
            raise DomainError("simulation needs the item count n in the scenario")
        design = self.design
        if isinstance(design, MultipoolParams):
            shape = (design.q, design.m, design.n)
        else:
            shape = (design.pool_size, design.multiplicity, design.n)
        if shape != (scenario.q, scenario.m, scenario.n):
            raise DomainError(
                f"design has (q, m, n) = {shape}, scenario has "
                f"({scenario.q}, {scenario.m}, {scenario.n})"
            )

    def matrix(self) -> PoolingMatrix:
        if isinstance(self.design, PoolingMatrix):
            return self.design
        return build_multipool(self.design)


def _run_batch(
    matrix: PoolingMatrix,
    scenario: ScenarioParams,
    master_seed: int,
    blocks: list[tuple[int, int]],
) -> dict[str, Counter]:
    """Tally a run of consecutive whole (block index, trial count) blocks.

    Each block draws from its own stream: the positions of its
    infections among its count * n item-trials, trial-major, then the
    candidate pool errors among its count * t pool-trials at the largest
    error rate r*, then one uniform per candidate that keeps it with
    probability (its pool's error rate) / r*.  A pool errs at rate p_fp
    at load 0 and (1 - p_fp) * p_fn ** k at load k >= 1, and its result
    is (load > 0) XOR error.  Everything else runs once for the whole
    batch, trial-minor: item and pool states are (rows, trials) arrays,
    and the gathers get them as transposed views.
    """
    n, t = matrix.n, matrix.t
    counts = [count for _, count in blocks]
    trials = sum(counts)
    starts = list(accumulate(counts[:-1], initial=0))
    rngs = [SeedSpec(master_seed, index).rng() for index, _ in blocks]
    xt = np.zeros((n, trials), dtype=bool)
    for rng, count, first in zip(rngs, counts, starts):
        trial, item = np.divmod(positions(rng, count * n, scenario.rho), n)
        xt[item, trial + first] = True

    # Pool results, then decoded items, overwrite the counts they come
    # from, as 0/1 in the counts' own dtype.
    loads = pool_loads(matrix, xt.T)
    yt = loads.T
    # Error rate by load, up to the widest pool; p_fn ** k falls with k,
    # so r* is the rate at load 0 or 1.
    widest = max(1, matrix.pool_index.shape[1])
    error = negative_probabilities(np.arange(widest + 1), scenario.noise)
    error[0] = scenario.noise.p_fp
    top = float(error[:2].max())
    pools, cols = [], []
    for rng, count, first in zip(rngs, counts, starts):
        trial, pool = np.divmod(positions(rng, count * t, top), t)
        trial += first
        keep = rng.random(pool.size) * top < error[yt[pool, trial]]
        pools.append(pool[keep])
        cols.append(trial[keep])
    np.greater(yt, 0, out=yt)
    yt[np.concatenate(pools), np.concatenate(cols)] ^= 1
    zt = positive_pool_counts(matrix, yt.T).T
    np.greater_equal(zt, scenario.m - scenario.nc, out=zt)

    # Per-trial column sums: uint16 holds any count below 65536 items.
    acc = np.uint16 if n < 1 << 16 else np.int64

    def per_trial(states: np.ndarray) -> np.ndarray:
        return states.sum(axis=0, dtype=acc).astype(np.int64)

    infected = per_trial(xt)
    flagged = per_trial(zt)
    zt &= xt
    true_pos = per_trial(zt)
    false_pos = flagged - true_pos
    false_neg = infected - true_pos
    healthy = n - infected
    true_neg = healthy - false_pos
    flagged_neg = n - flagged

    return {
        "sens": _ratio_sums(true_pos, infected),
        "spec": _ratio_sums(true_neg, healthy),
        "type_one": _ratio_sums(false_pos, flagged),
        "type_two": _ratio_sums(false_neg, flagged_neg),
        "positives": _histogram(flagged),
        "false_positives": _histogram(false_pos),
        "false_negatives": _histogram(false_neg),
    }


def _simulate(
    matrix: PoolingMatrix,
    scenario: ScenarioParams,
    trials: int,
    master_seed: int,
    threads: int,
) -> dict[str, Counter]:
    """The merged tally of ``trials`` trials.

    Block b of :func:`_block_size` trials draws from the stream
    (master_seed, b).  Consecutive blocks are grouped into at least
    ``threads`` batches of about ``_BATCH_ITEM_TRIALS`` item-trials each,
    never more batches than blocks, and the batches share out over the
    thread pool.
    """
    block = _block_size(matrix.n, scenario.m, scenario.q)
    blocks = [
        (index, min(block, trials - start))
        for index, start in enumerate(range(0, trials, block))
    ]
    count = min(len(blocks), max(threads, -(-trials * matrix.n // _BATCH_ITEM_TRIALS)))
    cuts = [len(blocks) * k // count for k in range(count + 1)]
    batches = [blocks[lo:hi] for lo, hi in zip(cuts, cuts[1:])]

    def work(batch: list[tuple[int, int]]) -> dict[str, Counter]:
        return _run_batch(matrix, scenario, master_seed, batch)

    if threads == 1 or len(batches) == 1:
        return _merge(map(work, batches))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return _merge(pool.map(work, batches))


def run_experiment(config: ExperimentConfig, threads: int = 1) -> EmpiricalStats:
    """Simulate config.trials rounds and pool the tallies.

    ``threads`` only distributes batches of blocks over a thread pool;
    the estimates are identical for every thread count because block
    seeding and the integer accumulations do not depend on scheduling.
    """
    if threads < 1:
        raise DomainError(f"thread count must be positive, got {threads}")
    tally = _simulate(config.matrix(), config.scenario, config.trials, config.master_seed, threads)
    return EmpiricalStats(
        sensitivity=_ratio_estimate(tally["sens"]),
        specificity=_ratio_estimate(tally["spec"]),
        type_one=_ratio_estimate(tally["type_one"]),
        type_two=_ratio_estimate(tally["type_two"]),
        mean_positives=_mean_estimate(tally["positives"]),
        mean_false_positives=_mean_estimate(tally["false_positives"]),
        mean_false_negatives=_mean_estimate(tally["false_negatives"]),
        var_positives=_variance_estimate(tally["positives"]),
        var_false_positives=_variance_estimate(tally["false_positives"]),
        trials=config.trials,
        max_false_negatives=max(tally["false_negatives"]),
    )


@dataclass(frozen=True)
class ComparisonRow:
    """One statistic set side by side with its closed form.

    ``kind`` is "z" for value comparisons and "bound" for one-sided
    variance checks.  ``status`` is "ok" when both sides exist,
    "unavailable" when the empirical side has no observations,
    "undefined" when the analytic side does not exist, and
    "not_applicable" when the closed form has no claim to make.  A z row
    divides by ``se``, the larger of ``se_sample``, the standard error
    estimated from the trials, and ``se_null``, the one the closed form
    implies (see :func:`compare`).  ``exact`` is a var row's exact
    variance on a built design.
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
    se_sample: float | None = None
    se_null: float | None = None
    exact: float | None = None


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
            "rows": [asdict(row) for row in self.rows],
        }


# Each ratio row's event and base counts as coefficients on
# (I, T, T_fp, T_fn), and the base's constant term in units of n:
# sens = TP / I, spec = TN / (n - I), typeI = T_fp / T and
# typeII = T_fn / (n - T), with TP = I - T_fn and TN = n - I - T_fp.
_RATIO_COUNTS = {
    "sens": ((1, 0, 0, -1), (1, 0, 0, 0), 0),
    "spec": ((-1, 0, -1, 0), (-1, 0, 0, 0), 1),
    "typeI": ((0, 0, 1, 0), (0, 1, 0, 0), 0),
    "typeII": ((0, 0, 0, 1), (0, -1, 0, 0), 1),
}
# Each mean row's count, as its index in (I, T, T_fp, T_fn).
_MEAN_COUNTS = {"mean_T": 1, "mean_Tfp": 2, "mean_Tfn": 3}


def _null_se(
    statistic: str,
    analytic: float,
    estimate: Estimate,
    *,
    scenario: ScenarioParams,
    moments: Moments | None,
    trials: int,
) -> float:
    """Standard error of a z row's estimate when its closed form holds.

    With the exact moments of a built design, a mean row's is
    sqrt(Var0 / trials) and a ratio row's, for event and base counts A
    and B and closed form p0, is sqrt(Var(A - p0 B) / trials) / E[B].
    Without them (external designs) it is the binomial floor:
    sqrt(p0 (1 - p0) / base) and sqrt(mu0 (1 - mu0 / n) / trials).
    """
    if statistic in _MEAN_COUNTS:
        if moments is None:
            return math.sqrt(max(0.0, analytic * (1.0 - analytic / scenario.n)) / trials)
        index = _MEAN_COUNTS[statistic]
        return math.sqrt(max(0.0, moments.cov[index][index]) / trials)
    if moments is None:
        return math.sqrt(max(0.0, analytic * (1.0 - analytic)) / estimate.observations)
    events, base, offset = _RATIO_COUNTS[statistic]
    mean_base = offset * scenario.n + sum(c * mu for c, mu in zip(base, moments.mean))
    if mean_base <= 0.0:
        return 0.0
    residual = [a - analytic * b for a, b in zip(events, base)]
    variance = sum(
        residual[i] * residual[j] * moments.cov[i][j] for i in range(4) for j in range(4)
    )
    return math.sqrt(max(0.0, variance) / trials) / mean_base


def _value_row(
    statistic: str,
    analytic: float | None,
    estimate: Estimate,
    z_threshold: float,
    null_se: Callable[[str, float, Estimate], float],
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
    se_null = null_se(statistic, analytic, estimate)
    se = max(estimate.se, se_null)
    if se > 0.0:
        z = diff / se
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
        se=se,
        z=z,
        observations=estimate.observations,
        se_sample=estimate.se,
        se_null=se_null,
    )


def _bound_row(
    statistic: str, bound: float | None, estimate: Estimate, exact: float | None
) -> ComparisonRow:
    if bound is None:
        return ComparisonRow(
            statistic=statistic, kind="bound", status="not_applicable", passed=True, exact=exact
        )
    if estimate.value is None:
        return ComparisonRow(
            statistic=statistic, kind="bound", status="unavailable", passed=True, bound=bound,
            exact=exact,
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
        exact=exact,
    )


def compare(
    config: ExperimentConfig, threads: int = 1, z_threshold: float = 4.0
) -> ComparisonReport:
    """Run the experiment and gate every closed form against it.

    Value rows fail when |empirical - analytic| exceeds z_threshold
    standard errors, where the standard error is the larger of the one
    estimated from the trials and the one the closed form implies
    (:func:`_null_se`): on a built design (``MultipoolParams``) from the
    exact moments of ``analytics.exact_moments``, on an external design
    from the binomial floor, since its pair structure is unknown.  The
    null side keeps a rare outcome that happens to be seen seldom from
    giving a tiny standard error and a large z.  Variance rows fail when
    the sample variance exceeds the bound by more than five of its own
    standard errors.
    """
    scenario = config.scenario
    report: AnalyticReport = analytic_report(scenario)
    moments = exact_moments(scenario) if isinstance(config.design, MultipoolParams) else None
    stats = run_experiment(config, threads=threads)
    value_row = partial(
        _value_row,
        z_threshold=z_threshold,
        null_se=partial(_null_se, scenario=scenario, moments=moments, trials=config.trials),
    )
    exact = (None, None) if moments is None else (moments.cov[1][1], moments.cov[2][2])
    rows = (
        value_row("sens", report.sensitivity, stats.sensitivity),
        value_row("spec", report.specificity, stats.specificity),
        value_row("typeI", report.type_one, stats.type_one),
        value_row("typeII", report.type_two, stats.type_two),
        value_row("mean_T", report.expected_positives, stats.mean_positives),
        value_row("mean_Tfp", report.expected_false_positives, stats.mean_false_positives),
        value_row("mean_Tfn", report.expected_false_negatives, stats.mean_false_negatives),
        _bound_row("var_T", report.var_positives_bound, stats.var_positives, exact[0]),
        _bound_row(
            "var_Tfp", report.var_false_positives_bound, stats.var_false_positives, exact[1]
        ),
    )
    return ComparisonReport(
        scenario=scenario,
        trials=config.trials,
        master_seed=config.master_seed,
        rows=rows,
    )
