"""Closed-form accuracy statistics for multipool screening.

Everything here reduces to one per-pool quantity: in a pool of size q
containing a fixed item known negative, the other q - 1 members are
independently infected with probability rho, so the pool tests negative
with probability

    gamma_1 = (1 - p_fp) * (1 - (1 - p_fn) * rho) ** (q - 1).

Because the design lets any two items share at most one pool, the m
pools of one item overlap only in that item, and their results are
conditionally independent given the item's status.  Sensitivity and
specificity of the threshold decoder are therefore binomial tails in
gamma_1, and the posterior error rates follow from Bayes' rule.  These
expressions hold for any design with the multipool properties, not only
for the ones built in this package.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

from .errors import (
    DomainError,
    InfeasibleError,
    NoSolutionError,
    NotApplicableError,
    UndefinedResultError,
    require_instance,
    require_integer,
    require_probability,
)
from .model import NOISELESS, NoiseModel


@dataclass(frozen=True)
class ScenarioParams:
    """One screening scenario: prevalence, design shape, decoder, noise.

    ``n`` is only needed by the count statistics (expectations and
    variance bounds) and may be left unset otherwise.
    """

    rho: float
    q: int
    m: int
    nc: int = 0
    noise: NoiseModel = NOISELESS
    n: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "rho", require_probability("prevalence", self.rho))
        object.__setattr__(self, "q", require_integer("pool size", self.q, 2))
        object.__setattr__(self, "m", require_integer("multiplicity", self.m, 1))
        object.__setattr__(self, "nc", require_integer("nc", self.nc, 0, self.m))
        require_instance("noise", self.noise, NoiseModel)
        if self.n is not None:
            object.__setattr__(self, "n", require_integer("item count", self.n, 1))

    def _require_n(self) -> int:
        if self.n is None:
            raise DomainError("this statistic needs the item count n")
        return self.n


def _clamp_probability(value: float) -> float:
    # Binomial tail sums can drift past the unit interval by a few ulps.
    return min(1.0, max(0.0, value))


def gamma(k: int, scenario: ScenarioParams) -> float:
    """P(a pool tests negative | exactly k fixed members are infected).

    The remaining q - k members are infected independently at rate rho:

        gamma_k = (1 - p_fp) * (1 - (1 - p_fn) * rho) ** (q - k)
    """
    k = require_integer("k", k, 0, scenario.q)
    noise = scenario.noise
    base = 1.0 - (1.0 - noise.p_fn) * scenario.rho
    return (1.0 - noise.p_fp) * base ** (scenario.q - k)


def _quiet_beta(scenario: ScenarioParams) -> tuple[float, float]:
    """(quiet, beta): the chance quiet = (1 - rho) ** (q - 1) that the
    other q - 1 members of a pool are all healthy, and beta = 1 - quiet.
    Both come from (q - 1) * log1p(-rho), beta through expm1, so beta
    keeps its digits where quiet rounds to 1."""
    if scenario.rho == 1.0:
        return 0.0, 1.0  # log1p(-1) would raise
    log_quiet = (scenario.q - 1) * math.log1p(-scenario.rho)
    return math.exp(log_quiet), -math.expm1(log_quiet)


def _binomial_tail(m: int, counts: range, positive: float, negative: float) -> float:
    """P(the number of positive pools among m independent ones lies in
    ``counts``), each pool positive with ``positive`` and negative with
    ``negative``."""
    total = sum(math.comb(m, k) * positive ** k * negative ** (m - k) for k in counts)
    return _clamp_probability(total)


class _DecodeRates(NamedTuple):
    """The threshold decoder's four conditional rates, each summed as its
    own binomial tail: a complement taken by subtraction would round a
    small rate to 0 once its partner rounds to 1."""

    sensitivity: float  # P(flagged | infected)
    miss: float  # P(cleared | infected)
    false_alarm: float  # P(flagged | healthy)
    specificity: float  # P(cleared | healthy)


def _decode_rates(scenario: ScenarioParams) -> _DecodeRates:
    """A pool of a healthy item tests negative with probability gamma_1,
    a pool of an infected item with p_fn * gamma_1, independently across
    the item's m pools; the decoder flags the item when at least m - nc
    of them are positive.  The healthy pool's positive rate 1 - gamma_1
    is -expm1(log1p(-p_fp) + (q - 1) * log1p(-(1 - p_fn) * rho)), which
    keeps its digits where gamma_1 rounds to 1."""
    m, nc = scenario.m, scenario.nc
    p_fp, p_fn = scenario.noise.p_fp, scenario.noise.p_fn
    hit = (1.0 - p_fn) * scenario.rho
    if p_fp == 1.0 or hit == 1.0:
        healthy_positive = 1.0  # gamma_1 = 0, and log1p(-1) would raise
    else:
        healthy_positive = -math.expm1(math.log1p(-p_fp) + (scenario.q - 1) * math.log1p(-hit))
    healthy_negative = gamma(1, scenario)
    infected_positive = (1.0 - p_fn) + p_fn * healthy_positive
    infected_negative = p_fn * healthy_negative
    flagged, cleared = range(m - nc, m + 1), range(m - nc)
    return _DecodeRates(
        sensitivity=_binomial_tail(m, flagged, infected_positive, infected_negative),
        miss=_binomial_tail(m, cleared, infected_positive, infected_negative),
        false_alarm=_binomial_tail(m, flagged, healthy_positive, healthy_negative),
        specificity=_binomial_tail(m, cleared, healthy_positive, healthy_negative),
    )


def sensitivity(scenario: ScenarioParams) -> float:
    """P(item flagged positive | item infected)."""
    return _decode_rates(scenario).sensitivity


def specificity(scenario: ScenarioParams) -> float:
    """P(item flagged negative | item not infected)."""
    return _decode_rates(scenario).specificity


def _posterior(
    wrong_prior: float, wrong_rate: float, right_prior: float, right_rate: float, flagged: str
) -> float:
    """P(item in the wrong class | item flagged ``flagged``) by Bayes' rule.

    The wrong class carries prior ``wrong_prior`` and is flagged at
    ``wrong_rate``; the right class likewise.  Interior evaluation uses
        (1 + right_prior / wrong_prior * right_rate / wrong_rate) ** -1.
    When no probability mass is ever flagged this way the conditional
    does not exist and an UndefinedResultError is raised.
    """
    wrong_mass = wrong_prior * wrong_rate
    right_mass = right_prior * right_rate
    if wrong_mass == 0.0 and right_mass == 0.0:
        raise UndefinedResultError(f"nothing is ever flagged {flagged} in this scenario")
    if wrong_mass == 0.0:
        return 0.0
    if right_mass == 0.0:
        return 1.0
    return 1.0 / (1.0 + (right_prior / wrong_prior) * (right_rate / wrong_rate))


def type_one(scenario: ScenarioParams) -> float:
    """P(item not infected | item flagged positive)."""
    rho, rates = scenario.rho, _decode_rates(scenario)
    return _posterior(1.0 - rho, rates.false_alarm, rho, rates.sensitivity, "positive")


def type_two(scenario: ScenarioParams) -> float:
    """P(item infected | item flagged negative), the mirror posterior."""
    rho, rates = scenario.rho, _decode_rates(scenario)
    return _posterior(rho, rates.miss, 1.0 - rho, rates.specificity, "negative")


class ExpectedCounts(NamedTuple):
    positives: float
    false_positives: float
    false_negatives: float


def expected_counts(scenario: ScenarioParams) -> ExpectedCounts:
    """Expected flagged, falsely flagged, and missed items out of n."""
    n = scenario._require_n()
    rho, rates = scenario.rho, _decode_rates(scenario)
    return ExpectedCounts(
        positives=n * (rho * rates.sensitivity + (1.0 - rho) * rates.false_alarm),
        false_positives=n * (1.0 - rho) * rates.false_alarm,
        false_negatives=n * rho * rates.miss,
    )


class VarianceBounds(NamedTuple):
    positives: float
    false_positives: float


def variance_bounds(scenario: ScenarioParams) -> VarianceBounds:
    """Upper bounds on Var[positives] and Var[false positives].

    Valid only for exact tests decoded with nc = 0; anything else raises
    NotApplicableError.  With beta = 1 - (1 - rho) ** (q - 1), items
    interact only through shared pools, and an Efron-Stein argument gives

        Var[T]    <= n*m*q*rho*(1-rho) * (1 - beta**m + c)
        Var[T_fp] <= n*m*q*rho*(1-rho) * (beta**m + c)

    where c = m*(q-1) * (1-rho)**(q-1) * beta**(m-1) accounts for pairs
    of items meeting in one pool.
    """
    if scenario.nc != 0:
        raise NotApplicableError("variance bounds hold only for nc = 0")
    if not scenario.noise.noiseless:
        raise NotApplicableError("variance bounds hold only for noiseless tests")
    n = scenario._require_n()
    rho, q, m = scenario.rho, scenario.q, scenario.m
    quiet, beta = _quiet_beta(scenario)
    shared_pair_term = m * (q - 1) * quiet * beta ** (m - 1)
    scale = n * m * q * rho * (1.0 - rho)
    return VarianceBounds(
        positives=scale * (1.0 - beta ** m + shared_pair_term),
        false_positives=scale * (beta ** m + shared_pair_term),
    )


class Moments(NamedTuple):
    """Means and covariance matrix of (I, T, T_fp, T_fn): the infected,
    flagged, falsely flagged and missed counts of one round."""

    mean: tuple[float, ...]
    cov: tuple[tuple[float, ...], ...]


# Digits of the first decimal pass of exact_moments.  The inclusion-
# exclusion sums alternate in sign and cancel: on (64, 8) noiseless,
# 50 digits broke down at rho = 1e-9, and 80 digits at rho = 1e-10.
_MOMENT_DIGITS = 80


@lru_cache(maxsize=256)
def exact_moments(scenario: ScenarioParams) -> Moments:
    """Exact means and covariances of (I, T, T_fp, T_fn) on the line
    design that ``design.build_multipool`` makes for (q, m).

    Holds for that design only, under noise and for any nc: every two of
    its non-parallel pools meet in one item, so the joint law of two
    items' decodes depends only on whether they share a pool.  Computed
    in ``decimal`` from the exact values of the float parameters, at 80
    digits and then at twice as many, doubling until two passes round to
    the same floats, so the far tails keep their digits.
    """
    n = scenario._require_n()
    if n != scenario.q * scenario.q:
        raise DomainError(f"a line design has q*q = {scenario.q ** 2} items, got n = {n}")
    digits, previous = _MOMENT_DIGITS, None
    while True:
        with decimal.localcontext() as context:
            context.prec = digits
            mean, cov = _line_design_moments(scenario, decimal.Decimal)
        moments = Moments(
            mean=tuple(float(v) for v in mean),
            cov=tuple(tuple(float(v) for v in row) for row in cov),
        )
        if moments == previous:
            return moments
        digits, previous = 2 * digits, moments


def _line_design_moments(scenario: ScenarioParams, number: Callable[[float], object]):
    """Means and covariance matrix of (I, T, T_fp, T_fn) in the number
    type that ``number`` converts the float parameters to: ``Decimal``
    here, an exact type in the tests.

    A pool set S is all negative with probability, given the statuses of
    the items held fixed, (1 - p_fp)^|S| * p_fn^(pools of S over fixed
    infected items) * g1^once * g2^twice, where once and twice count the
    other items that S covers once and twice, g1 = 1 - rho (1 - p_fn) and
    g2 = 1 - rho (1 - p_fn^2).  Summing over the pool subsets A of item
    i and B of item j, grouped by their sizes and their c shared
    directions, gives the binomial moments S_ab of the two negative-pool
    counts, and P(N_i <= nc, N_j <= nc) = sum c_a c_b S_ab inverts them.
    """
    q, m, nc, n = scenario.q, scenario.m, scenario.nc, scenario.n
    one = number(1)
    rho = number(scenario.rho)
    p_fn = number(scenario.noise.p_fn)
    keep = one - number(scenario.noise.p_fp)
    g1 = one - rho * (one - p_fn)
    g2 = one - rho * (one - p_fn * p_fn)

    def powers(base, top: int) -> list:
        table = [one]
        for _ in range(top):
            table.append(table[-1] * base)
        return table

    keep_pow, fn_pow = powers(keep, 2 * m), powers(p_fn, 2 * m)
    g1_pow, g2_pow = powers(g1, 2 * m * (q - 1)), powers(g2, m * m)
    # P(N <= nc) = sum over s of c_s times the s-th binomial moment of N.
    inverse = [sum((-1) ** (s - k) * math.comb(s, k) for k in range(min(nc, s) + 1))
               for s in range(m + 1)]

    def placed(free: int, a: int, b: int):
        """Sum over the ways to place a pools of i and b of j among ``free``
        directions, c of them shared, of g1**once * g2**twice: the two
        pools of one direction are parallel, of two directions they meet
        in one other item."""
        total = 0
        for c in range(max(0, a + b - free), min(a, b) + 1):
            twice = a * b - c
            ways = math.comb(free, a) * math.comb(a, c) * math.comb(free - a, b - c)
            total += ways * g1_pow[(a + b) * (q - 1) - 2 * twice] * g2_pow[twice]
        return total

    shared = m * (q - 1)
    pair_types = []
    if n - 1 - shared > 0:
        # A pair sharing no pool.
        moments = {(a, b, a, b): placed(m, a, b) * keep_pow[a + b]
                   for a in range(m + 1) for b in range(m + 1)}
        pair_types.append((n - 1 - shared, moments))
    # A pair sharing pool P: P covers both and q - 2 others once; the
    # other m - 1 pools of each are placed as in the disjoint case.
    moments = {}
    for a in range(m):
        for b in range(m):
            others = placed(m - 1, a, b)
            for in_a in (0, 1):
                for in_b in (0, 1):
                    with_p = in_a | in_b
                    key = (a + in_a, b + in_b, a + with_p, b + with_p)
                    term = others * g1_pow[(q - 2) * with_p] * keep_pow[a + b + with_p]
                    moments[key] = moments.get(key, 0) + term
    pair_types.append((shared, moments))

    # The per-item indicators x, z and xz are x**e z**d for (e, d) in
    # products; Y = (X, Z, W) are their sums over the items.
    prior = (one - rho, rho)
    flag = [sum(inverse[s] * math.comb(m, s) * pool
                for s, pool in enumerate(powers(keep * fn_pow[x] * g1_pow[q - 1], m)))
            for x in (0, 1)]
    products = ((1, 0), (0, 1), (1, 1))

    def single(e: int, d: int):
        """E[x**e z**d] of one item."""
        return sum(prior[x] * (flag[x] if d else one) for x in ((1,) if e else (0, 1)))

    mean_y = [n * single(e, d) for e, d in products]
    second = [[n * single(e | f, d | g) for f, g in products] for e, d in products]
    for count, moments in pair_types:
        for xi in (0, 1):
            for xj in (0, 1):
                # Joint and marginal flag probabilities given the pair's statuses.
                both = flag_i = flag_j = 0
                for (a, b, ei, ej), value in moments.items():
                    term = value * fn_pow[xi * ei] * fn_pow[xj * ej]
                    both += inverse[a] * inverse[b] * term
                    if b == 0:
                        flag_i += inverse[a] * term
                    if a == 0:
                        flag_j += inverse[b] * term
                weight = prior[xi] * prior[xj] * n * count
                law = {(0, 0): one, (1, 0): flag_i, (0, 1): flag_j, (1, 1): both}
                for u, (e, d) in enumerate(products):
                    for v, (f, g) in enumerate(products):
                        second[u][v] += weight * xi ** e * xj ** f * law[d, g]
    cov_y = [[second[u][v] - mean_y[u] * mean_y[v] for v in range(3)] for u in range(3)]
    # (I, T, T_fp, T_fn) = (X, Z, Z - W, X - W) for X, Z, W the sums of x, z, xz.
    lift = ((1, 0, 0), (0, 1, 0), (0, 1, -1), (1, 0, -1))
    mean = [sum(c * mean_y[u] for u, c in enumerate(row)) for row in lift]
    cov = [[sum(r[u] * s[v] * cov_y[u][v] for u in range(3) for v in range(3)) for s in lift]
           for r in lift]
    return mean, cov


def pivotal_probability(scenario: ScenarioParams) -> float:
    """P(one infection, in a shared pool, flips a healthy item's decode).

    For two items sharing a pool under exact tests: the flip happens when
    the other q - 2 members of the shared pool are healthy, the target
    item is healthy, and each of its other m - 1 pools already carries an
    infection.  Equals
        (1 - rho)**(q-1) * (1 - (1 - rho)**(q-1)) ** (m-1).
    """
    if not scenario.noise.noiseless:
        raise NotApplicableError("pivotal probability is defined for noiseless tests")
    quiet, beta = _quiet_beta(scenario)
    return quiet * beta ** (scenario.m - 1)


@dataclass(frozen=True)
class TuningResult:
    """Outcome of multiplicity tuning: the integer m, the real-valued
    bound it was rounded from, and the posterior error m achieves."""

    m: int
    raw_bound: float
    type_one: float


def min_multiplicity(
    rho: float,
    q: int,
    noise: NoiseModel,
    epsilon: float,
    cap: int | None = None,
) -> TuningResult:
    """Smallest multiplicity whose nc = 0 posterior false-positive rate
    is at most epsilon.

    The real-valued bound

        log((1 - rho)/rho * (1/epsilon - 1)) / log((1 - p_fn*gamma_1)/(1 - gamma_1))

    locates the crossing; the returned integer is verified against the
    closed form directly, so rounding of the bound can never produce an m
    that misses the budget.  Raises InfeasibleError when no m up to
    ``cap`` (default q + 1) suffices.
    """
    rho = require_probability("prevalence", rho, open=True)
    epsilon = require_probability("epsilon", epsilon, open=True)
    q = require_integer("pool size", q, 2)
    cap = require_integer("cap", q + 1 if cap is None else cap, 1)

    # With one pool, the flag rates are the pool's positive rates
    # 1 - p_fn * gamma_1 and 1 - gamma_1.
    one_pool = _decode_rates(ScenarioParams(rho=rho, q=q, m=1, noise=noise))
    if one_pool.false_alarm == 0.0:
        raise DomainError("gamma_1 must be below 1 for tuning; the tests carry no signal")
    ratio = one_pool.sensitivity / one_pool.false_alarm
    numerator = math.log(((1.0 - rho) / rho) * (1.0 / epsilon - 1.0))
    raw_bound = numerator / math.log(ratio) if ratio > 1.0 else math.inf

    for m in range(1, cap + 1):
        scenario = ScenarioParams(rho=rho, q=q, m=m, nc=0, noise=noise)
        try:
            achieved = type_one(scenario)
        except UndefinedResultError:
            # Nothing is ever flagged positive, so no false positives occur.
            achieved = 0.0
        if achieved <= epsilon:
            return TuningResult(m=m, raw_bound=raw_bound, type_one=achieved)
    raise InfeasibleError(
        f"no multiplicity up to {cap} meets epsilon={epsilon} (raw bound {raw_bound})",
        raw_bound=raw_bound,
    )


def threshold_disjunct(q: int, m: int) -> float:
    """Prevalence below which expected infections stay under the design's
    guaranteed-exact decoding capacity: (m - 1) / q**2."""
    require_integer("pool size", q, 2)
    require_integer("multiplicity", m, 1)
    return (m - 1) / (q * q)


def binary_entropy(x: float) -> float:
    """H(x) = -x log2(x) - (1 - x) log2(1 - x), with H(0) = H(1) = 0."""
    x = require_probability("entropy argument", x)
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def threshold_info(q: int, m: int) -> float:
    """Prevalence where the design's m/q bits per item match the entropy
    of the infection vector: the unique x in (0, 1/2] with H(x) = m/q.

    Solved by bisection; no solution exists when m/q exceeds 1.
    """
    require_integer("pool size", q, 2)
    require_integer("multiplicity", m, 1)
    target = m / q
    if target > 1.0:
        raise NoSolutionError(f"m/q = {m}/{q} exceeds 1 bit; H(x) cannot reach it")
    if target == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if binary_entropy(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13:
            break
    return (lo + hi) / 2.0


class ConfusionStats(NamedTuple):
    """Empirical rates from a confusion table; entries with an empty
    conditioning class are None."""

    sensitivity: float | None
    specificity: float | None
    type_one: float | None
    type_two: float | None


def confusion_stats(
    true_positives: int,
    false_negatives: int,
    false_positives: int,
    true_negatives: int,
) -> ConfusionStats:
    true_positives, false_negatives, false_positives, true_negatives = (
        require_integer("confusion count", c, 0)
        for c in (true_positives, false_negatives, false_positives, true_negatives)
    )

    def ratio(num: int, den: int) -> float | None:
        return num / den if den > 0 else None

    return ConfusionStats(
        sensitivity=ratio(true_positives, true_positives + false_negatives),
        specificity=ratio(true_negatives, true_negatives + false_positives),
        type_one=ratio(false_positives, false_positives + true_positives),
        type_two=ratio(false_negatives, false_negatives + true_negatives),
    )


@dataclass(frozen=True)
class AnalyticReport:
    """All closed-form statistics for one scenario in one place.

    Fields that do not exist for the scenario are None: the posteriors
    when their conditioning event has zero mass, the count statistics
    when n is unset, the variance bounds away from noiseless nc = 0, and
    the information threshold when m exceeds q.
    """

    gamma_1: float
    sensitivity: float
    specificity: float
    type_one: float | None
    type_two: float | None
    expected_positives: float | None
    expected_false_positives: float | None
    expected_false_negatives: float | None
    var_positives_bound: float | None
    var_false_positives_bound: float | None
    beta: float
    rho_disjunct: float
    rho_info: float | None


def _or_none(error: type[Exception], statistic, *args):
    """``statistic(*args)``, or None where it raises ``error``."""
    try:
        return statistic(*args)
    except error:
        return None


@lru_cache(maxsize=256)
def analytic_report(scenario: ScenarioParams) -> AnalyticReport:
    """Every closed form of ``scenario``; cached, like :func:`exact_moments`."""
    t1 = _or_none(UndefinedResultError, type_one, scenario)
    t2 = _or_none(UndefinedResultError, type_two, scenario)
    expected = bounds = None
    if scenario.n is not None:
        expected = expected_counts(scenario)
        bounds = _or_none(NotApplicableError, variance_bounds, scenario)
    rho_info = _or_none(NoSolutionError, threshold_info, scenario.q, scenario.m)
    return AnalyticReport(
        gamma_1=gamma(1, scenario),
        sensitivity=sensitivity(scenario),
        specificity=specificity(scenario),
        type_one=t1,
        type_two=t2,
        expected_positives=expected.positives if expected else None,
        expected_false_positives=expected.false_positives if expected else None,
        expected_false_negatives=expected.false_negatives if expected else None,
        var_positives_bound=bounds.positives if bounds else None,
        var_false_positives_bound=bounds.false_positives if bounds else None,
        beta=_quiet_beta(scenario)[1],
        rho_disjunct=threshold_disjunct(scenario.q, scenario.m),
        rho_info=rho_info,
    )
