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

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .design import MultipoolParams
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
from .gf import field_for_order
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


# The log of probability 0: finite, so that a count of 0 times it is 0
# and not NaN, and so far below any real log-probability that exp of a
# sum holding it is 0.
_LOG_ZERO = -1e300


def _log(p: float, complement: float) -> float:
    """log p, from p and 1 - p each to full relative precision: through
    log1p(-complement) where p is near 1, so a small complement keeps its
    digits."""
    if p == 0.0:
        return _LOG_ZERO
    return math.log1p(-complement) if p > 0.5 else math.log(p)


@lru_cache(maxsize=256)
def exact_moments(scenario: ScenarioParams) -> Moments:
    """Exact means and covariances of (I, T, T_fp, T_fn) on the line
    design that ``design.build_multipool`` makes for (q, m).

    Holds for that design only, under noise and for any nc: every two of
    its non-parallel pools meet in one item, so the joint law of two
    items' decodes depends only on whether they share a pool.  Every
    probability is a sum of non-negative float terms, each complement of
    a product is -expm1 of a sum of logs, and each covariance is taken on
    the rarer of a class of items and its complement, so one pass keeps
    the digits far into the tails.
    """
    n = scenario._require_n()
    q, m, nc = scenario.q, scenario.m, scenario.nc
    if n != q * q:
        raise DomainError(f"a line design has q*q = {q ** 2} items, got n = {n}")
    MultipoolParams(q, m)  # DesignBoundError past m = q + 1
    field_for_order(q)  # UnsupportedFieldError where there is no GF(q)
    rho, p_fp, p_fn = scenario.rho, scenario.noise.p_fp, scenario.noise.p_fn
    # Another item shows in a given pool when it is infected and not
    # diluted out; it hides from one pool, or from both of two pools.
    shows = rho * (1.0 - p_fn)
    hides = (1.0 - rho) + rho * p_fn
    hides_twice = (1.0 - rho) + rho * p_fn * p_fn
    once = rho * p_fn * (1.0 - p_fn)  # hides - hides_twice
    log_keep, log_fn = _log(1.0 - p_fp, p_fp), _log(p_fn, 1.0 - p_fn)
    log_hides = _log(hides, shows)
    # It hides from a second pool given that it hid from the first.
    log_again = _log(hides_twice / hides, once / hides) if once else 0.0
    prior, status = np.array([1.0 - rho, rho]), np.arange(2)

    # An item's m pools share only the item, so its count of negative
    # pools is Binomial(m, alpha_x) given its status x.
    flag = np.zeros((2, 2))  # P(z | x), z = 1 when at most nc pools are negative
    for x in (0, 1):
        log_alpha = log_keep + x * log_fn + (q - 1) * log_hides
        alpha, beta = math.exp(log_alpha), -math.expm1(log_alpha)
        for k in range(m + 1):
            flag[x, int(k <= nc)] += math.comb(m, k) * alpha ** k * beta ** (m - k)

    def negatives(steps: int) -> np.ndarray:
        """law[x_i, x_j, a, b]: the chance that items i and j, of statuses
        x_i and x_j, have a and b negative pools among their pools in
        ``steps`` directions, where the two pools of each direction are
        parallel.  Pool d of i meets pool e != d of j in one cross item,
        and each pool holds q - steps items that no other of these pools
        holds.  The law is built one direction at a time."""
        size = steps + 1
        old = np.arange(size)[:, None]  # a: old pools of the other item still negative
        kept = np.arange(size)  # j: those of them that stay negative
        turned = np.maximum(old - kept, 0)
        # A new pool meets each old pool of the other item in one cross
        # item; a - j of the a cross items show in their old pool.
        comb = np.array([[math.comb(a, j) for j in range(size)] for a in range(size)], float)
        turn = comb * shows ** turned * hides ** kept
        # Given that, the new pool is negative when its own items hide, and
        # the cross items of the turned pools (each with p_fn), of the kept
        # pools (hides_twice / hides) and of the k - a positive old pools.
        own = log_keep + status * log_fn + (q - steps) * log_hides
        settled = own[:, None, None] + turned * log_fn + kept * log_again
        law = np.ones((2, 2, 1, 1))
        for k in range(steps):
            s = k + 1
            quiet = (settled + np.maximum(k - old, 0) * log_hides)[:, :s, :s]
            # kernel[x, v, a, j] for a new pool of an item of status x,
            # which is negative when v = 1.
            kernel = np.stack([-np.expm1(quiet), np.exp(quiet)], axis=1) * turn[:s, :s]
            # j's new pool turns i's old pools (v), and i's new pool j's (w).
            left = np.matmul(kernel.swapaxes(-1, -2)[None], law[:, :, None])
            both = np.matmul(left[:, :, :, None], kernel[:, None, None])
            law = np.zeros((2, 2, s + 1, s + 1))
            for v in (0, 1):
                for w in (0, 1):
                    law[:, :, w : w + s, v : v + s] += both[:, :, v, w]
        return law

    # Pair types: (ordered pairs per item, law).  A pair sharing pool P
    # has parallel pools in the other m - 1 directions, and P holds q - 2
    # items that no other of their pools holds.
    log_shared = log_keep + (status[:, None] + status) * log_fn + (q - 2) * log_hides
    rest = negatives(m - 1)
    law = np.zeros((2, 2, m + 1, m + 1))
    law[:, :, :m, :m] = -np.expm1(log_shared)[:, :, None, None] * rest
    law[:, :, 1:, 1:] += np.exp(log_shared)[:, :, None, None] * rest
    pairs = [(m * (q - 1), law)]
    if n - 1 - m * (q - 1) > 0:
        pairs.append((n - 1 - m * (q - 1), negatives(m)))

    # Per-item states s = 2 x + z.  (I, T, T_fp, T_fn) count the items
    # whose state lies in these classes.
    classes = np.array([[0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]], float)
    single = (prior[:, None] * flag).ravel()
    mean = n * (classes @ single)
    # Each covariance is taken on the rarer of a class and its complement,
    # so pairs that are nearly independent cancel only small masses.
    flip = classes @ single > (1.0 - classes) @ single
    classes = np.where(flip[:, None], 1.0 - classes, classes)
    sign = np.where(flip, -1.0, 1.0)
    mass, others = classes @ single, 1.0 - classes
    only = (classes * single) @ others.T  # P(S_u and not S_v)
    cov = ((classes * single) @ classes.T) * ((others * single) @ others.T) - only * only.T
    decoded = np.stack([np.arange(m + 1) > nc, np.arange(m + 1) <= nc]).astype(float)
    for count, law in pairs:
        table = decoded @ law @ decoded.T  # [x_i, x_j, z_i, z_j]
        joint = (np.outer(prior, prior)[:, :, None, None] * table).transpose(0, 2, 1, 3)
        cov += count * (classes @ joint.reshape(4, 4) @ classes.T - np.outer(mass, mass))
    cov *= n * np.outer(sign, sign)
    return Moments(mean=tuple(map(float, mean)), cov=tuple(tuple(map(float, row)) for row in cov))


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
