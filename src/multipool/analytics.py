"""Closed-form accuracy statistics for multipool screening.

Everything here reduces to one per-pool quantity: in a pool of size q
containing a fixed item known negative, the other q - 1 members are
independently infected with probability rho, so the pool tests negative
with probability

    gamma_1 = (1 - p_fp) * ((1 - rho) + rho * p_fn) ** (q - 1).

Because the design lets any two items share at most one pool, the m
pools of one item overlap only in that item, and their results are
conditionally independent given the item's status.  Sensitivity and
specificity of the threshold decoder are therefore binomial tails in
gamma_1, and the posterior error rates follow from Bayes' rule.  These
expressions hold for any design with the multipool properties, not only
for the ones built in this package.  Every pool rate is exp or -expm1 of
a sum of the logs from :func:`_pool_logs`, so neither a rate nor its
complement loses digits where the other rounds to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, make_dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

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


def _pool_logs(scenario: ScenarioParams) -> tuple[float, float, float]:
    """(log_keep, log_fn, log_hides): the logs of 1 - p_fp, of p_fn, and
    of hides = (1 - rho) + rho * p_fn, the chance that another member of
    a pool is healthy or diluted out of it.  A pool with k fixed infected
    members and q - k others tests negative with probability
    exp(log_keep + k * log_fn + (q - k) * log_hides)."""
    rho, p_fp, p_fn = scenario.rho, scenario.noise.p_fp, scenario.noise.p_fn
    hides = (1.0 - rho) + rho * p_fn
    return _log(1.0 - p_fp, p_fp), _log(p_fn, 1.0 - p_fn), _log(hides, rho * (1.0 - p_fn))


def gamma(k: int, scenario: ScenarioParams) -> float:
    """P(a pool tests negative | exactly k fixed members are infected).

    The remaining q - k members are infected independently at rate rho:

        gamma_k = (1 - p_fp) * ((1 - rho) + rho * p_fn) ** (q - k)
    """
    k = require_integer("k", k, 0, scenario.q)
    log_keep, _, log_hides = _pool_logs(scenario)
    return math.exp(log_keep + (scenario.q - k) * log_hides)


def _quiet_beta(scenario: ScenarioParams) -> tuple[float, float]:
    """(quiet, beta): the chance quiet = (1 - rho) ** (q - 1) that the
    other q - 1 members of a pool are all healthy, and beta = 1 - quiet.
    Both come from (q - 1) * log(1 - rho), beta through expm1, so beta
    keeps its digits where quiet rounds to 1."""
    log_quiet = (scenario.q - 1) * _log(1.0 - scenario.rho, scenario.rho)
    return math.exp(log_quiet), -math.expm1(log_quiet)


def _binomial_tail(m: int, counts: range, positive: float, negative: float) -> float:
    """P(the number of positive pools among m independent ones lies in
    ``counts``), each pool positive with ``positive`` and negative with
    ``negative``."""
    total = sum(math.comb(m, k) * positive ** k * negative ** (m - k) for k in counts)
    # The sum can drift past the unit interval by a few ulps.
    return min(1.0, max(0.0, total))


def _log_binomial_tail(m: int, counts: range, log_positive: float, log_negative: float) -> float:
    """The log of :func:`_binomial_tail` from the logs of the pool rates,
    summed in log space, so that it stays finite where the tail
    underflows a double."""
    terms = [
        math.log(math.comb(m, k)) + k * log_positive + (m - k) * log_negative for k in counts
    ]
    if not terms:
        return _LOG_ZERO
    top = max(terms)
    return top + math.log(sum(math.exp(term - top) for term in terms))


class _DecodeRates(NamedTuple):
    """The threshold decoder's four conditional rates, each summed as its
    own binomial tail: a complement taken by subtraction would round a
    small rate to 0 once its partner rounds to 1."""

    sensitivity: float  # P(flagged | infected)
    miss: float  # P(cleared | infected)
    false_alarm: float  # P(flagged | healthy)
    specificity: float  # P(cleared | healthy)


def _decode_rates(scenario: ScenarioParams, logs: bool = False) -> _DecodeRates:
    """A pool of an item of status x (1 when infected) tests negative
    with probability exp(log_neg), log_neg = log_keep + x * log_fn +
    (q - 1) * log_hides, independently across the item's m pools; the
    decoder flags the item when at least m - nc of them are positive.
    The positive rate is -expm1(log_neg), which keeps its digits where
    the negative rate rounds to 1.  With ``logs`` each rate is its log,
    its tail summed in log space."""
    m, nc = scenario.m, scenario.nc
    log_keep, log_fn, log_hides = _pool_logs(scenario)
    flagged, cleared = range(m - nc, m + 1), range(m - nc)

    def tails(x: int) -> tuple[float, float]:
        log_neg = log_keep + x * log_fn + (scenario.q - 1) * log_hides
        positive, negative = -math.expm1(log_neg), math.exp(log_neg)
        if logs:
            log_pos = _log(positive, negative)
            return tuple(_log_binomial_tail(m, counts, log_pos, log_neg)
                         for counts in (flagged, cleared))
        return tuple(_binomial_tail(m, counts, positive, negative) for counts in (flagged, cleared))

    sensitivity, miss = tails(1)
    false_alarm, specificity = tails(0)
    return _DecodeRates(sensitivity, miss, false_alarm, specificity)


def sensitivity(scenario: ScenarioParams) -> float:
    """P(item flagged positive | item infected)."""
    return _decode_rates(scenario).sensitivity


def specificity(scenario: ScenarioParams) -> float:
    """P(item flagged negative | item not infected)."""
    return _decode_rates(scenario).specificity


def _posterior(scenario: ScenarioParams, wrong: str, right: str, flagged: str) -> float:
    """P(item in the wrong class | item flagged ``flagged``) by Bayes' rule.

    ``wrong`` and ``right`` name the decode rates at which the wrong and
    the right class are flagged this way: an infected item's
    (sensitivity, miss) at prior rho, a healthy one's (false_alarm,
    specificity) at prior 1 - rho.  Interior evaluation uses
        (1 + right_prior / wrong_prior * right_rate / wrong_rate) ** -1.
    Where both masses, prior times rate, underflow a double, the
    posterior comes from their logs, each tail summed in log space.  When
    no probability mass is ever flagged this way, which shows as a log
    that holds ``_LOG_ZERO``, the conditional does not exist and an
    UndefinedResultError is raised.
    """
    rho = scenario.rho
    infected, healthy = (rho, 1.0 - rho), (1.0 - rho, rho)
    priors = {"sensitivity": infected, "miss": infected,
              "false_alarm": healthy, "specificity": healthy}
    (wrong_prior, _), (right_prior, _) = priors[wrong], priors[right]
    rates = _decode_rates(scenario)
    wrong_rate, right_rate = getattr(rates, wrong), getattr(rates, right)
    wrong_mass = wrong_prior * wrong_rate
    right_mass = right_prior * right_rate
    if wrong_mass == 0.0 and right_mass == 0.0:
        logs = _decode_rates(scenario, logs=True)
        log_wrong, log_right = (
            _log(*priors[name]) + getattr(logs, name) for name in (wrong, right)
        )
        if max(log_wrong, log_right) <= _LOG_ZERO / 2:
            raise UndefinedResultError(f"nothing is ever flagged {flagged} in this scenario")
        # 1 / (1 + exp(odds)), with no exp of a large positive number.
        odds = log_right - log_wrong
        if odds <= 0.0:
            return 1.0 / (1.0 + math.exp(odds))
        tail = math.exp(-odds)
        return tail / (1.0 + tail)
    if wrong_mass == 0.0:
        return 0.0
    if right_mass == 0.0:
        return 1.0
    return 1.0 / (1.0 + (right_prior / wrong_prior) * (right_rate / wrong_rate))


def type_one(scenario: ScenarioParams) -> float:
    """P(item not infected | item flagged positive)."""
    return _posterior(scenario, "false_alarm", "sensitivity", "positive")


def type_two(scenario: ScenarioParams) -> float:
    """P(item infected | item flagged negative), the mirror posterior."""
    return _posterior(scenario, "miss", "specificity", "negative")


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
    rho, p_fn = scenario.rho, scenario.noise.p_fn
    # Another item shows in a given pool when it is infected and not
    # diluted out; it hides from one pool, or from both of two pools.
    shows = rho * (1.0 - p_fn)
    hides = (1.0 - rho) + rho * p_fn
    hides_twice = (1.0 - rho) + rho * p_fn * p_fn
    once = rho * p_fn * (1.0 - p_fn)  # hides - hides_twice
    log_keep, log_fn, log_hides = _pool_logs(scenario)
    # It hides from a second pool given that it hid from the first.
    log_again = _log(hides_twice / hides, once / hides) if once else 0.0
    prior, status = np.array([1.0 - rho, rho]), np.arange(2)

    # An item's m pools share only the item, so it is flagged (z = 1)
    # at the decoder's rates given its status x.
    rates = _decode_rates(scenario)
    flag = np.array([[rates.specificity, rates.false_alarm], [rates.miss, rates.sensitivity]])

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


class Ratio(NamedTuple):
    """A pooled ratio sum(events) / sum(base) over trials, tallied under
    ``tally``.  Its event and base counts are coefficients on (n, I, T,
    T_fp, T_fn): the item count and a trial's infected, flagged, falsely
    flagged and missed counts.  T_fp = T - I + T_fn, but the null errors
    sum floats over the exact moments of (I, T, T_fp, T_fn), whose last
    bits depend on which of them are used."""

    tally: str
    events: tuple[int, int, int, int, int]
    base: tuple[int, int, int, int, int]


class Mean(NamedTuple):
    """The mean of a per-trial count, by its index in (I, T, T_fp, T_fn),
    whose histogram a simulation tallies under ``histogram``."""

    count: int
    histogram: str


class Variance(NamedTuple):
    """The variance of a per-trial count, which the closed form bounds:
    ``count`` also indexes the exact covariance matrix."""

    count: int
    histogram: str


class Statistic(NamedTuple):
    """One of the paper's nine statistics and every name it goes by."""

    row: str  # its row in a comparison report
    cli: str  # its ``multipool analyze --statistic`` choice
    needs_n: bool  # whether it needs the item count n
    closed_form: Callable[[ScenarioParams], float]  # raises where it does not exist
    field: str  # its AnalyticReport field
    estimate: str  # its montecarlo.EmpiricalStats field
    kind: Ratio | Mean | Variance


# The nine statistics, in report order: sens = TP / I, spec = TN / (n - I),
# typeI = T_fp / T and typeII = T_fn / (n - T), with TP = I - T_fn and
# TN = n - I - T_fp, then the means of T, T_fp and T_fn and the variances
# of T and T_fp.
STATISTICS = (
    Statistic("sens", "sens", False, sensitivity, "sensitivity", "sensitivity",
              Ratio("sens", (0, 1, 0, 0, -1), (0, 1, 0, 0, 0))),
    Statistic("spec", "spec", False, specificity, "specificity", "specificity",
              Ratio("spec", (1, -1, 0, -1, 0), (1, -1, 0, 0, 0))),
    Statistic("typeI", "typeI", False, type_one, "type_one", "type_one",
              Ratio("type_one", (0, 0, 0, 1, 0), (0, 0, 1, 0, 0))),
    Statistic("typeII", "typeII", False, type_two, "type_two", "type_two",
              Ratio("type_two", (0, 0, 0, 0, 1), (1, 0, -1, 0, 0))),
    Statistic("mean_T", "e_T", True, lambda sc: expected_counts(sc).positives,
              "expected_positives", "mean_positives", Mean(1, "positives")),
    Statistic("mean_Tfp", "e_Tfp", True, lambda sc: expected_counts(sc).false_positives,
              "expected_false_positives", "mean_false_positives", Mean(2, "false_positives")),
    Statistic("mean_Tfn", "e_Tfn", True, lambda sc: expected_counts(sc).false_negatives,
              "expected_false_negatives", "mean_false_negatives", Mean(3, "false_negatives")),
    Statistic("var_T", "var_T_bound", True, lambda sc: variance_bounds(sc).positives,
              "var_positives_bound", "var_positives", Variance(1, "positives")),
    Statistic("var_Tfp", "var_Tfp_bound", True, lambda sc: variance_bounds(sc).false_positives,
              "var_false_positives_bound", "var_false_positives", Variance(2, "false_positives")),
)
_RATIOS = tuple(statistic for statistic in STATISTICS if isinstance(statistic.kind, Ratio))

ConfusionStats = NamedTuple("ConfusionStats", [(ratio.field, float | None) for ratio in _RATIOS])
ConfusionStats.__doc__ = """Empirical rates from a confusion table, one per ratio of
    ``STATISTICS``; entries with an empty conditioning class are None."""


def confusion_stats(
    true_positives: int,
    false_negatives: int,
    false_positives: int,
    true_negatives: int,
) -> ConfusionStats:
    tp, fn, fp, tn = (
        require_integer("confusion count", c, 0)
        for c in (true_positives, false_negatives, false_positives, true_negatives)
    )
    # The table's (n, I, T, T_fp, T_fn).
    counts = (tp + fn + fp + tn, tp + fn, tp + fp, fp, fn)

    def ratio(kind: Ratio) -> float | None:
        events = sum(c * x for c, x in zip(kind.events, counts))
        base = sum(c * x for c, x in zip(kind.base, counts))
        return events / base if base > 0 else None

    return ConfusionStats(*(ratio(statistic.kind) for statistic in _RATIOS))


AnalyticReport = make_dataclass(
    "AnalyticReport",
    [("gamma_1", float), *((statistic.field, float | None) for statistic in STATISTICS),
     ("beta", float), ("rho_disjunct", float), ("rho_info", float | None)],
    frozen=True,
    namespace={"__module__": __name__},
)
AnalyticReport.__doc__ = """All closed-form statistics for one scenario in one place: gamma_1,
    the ``field`` of each of ``STATISTICS``, beta and the two thresholds.

    Fields that do not exist for the scenario are None: the posteriors
    when their conditioning event has zero mass, the count statistics
    when n is unset, the variance bounds away from noiseless nc = 0, and
    the information threshold when m exceeds q.  Sensitivity and
    specificity always exist.
    """


def _or_none(error: type[Exception] | tuple[type[Exception], ...], statistic, *args):
    """``statistic(*args)``, or None where it raises ``error``."""
    try:
        return statistic(*args)
    except error:
        return None


@lru_cache(maxsize=256)
def analytic_report(scenario: ScenarioParams) -> AnalyticReport:
    """Every closed form of ``scenario``, None where it raises: a count
    statistic raises a DomainError when n is unset.  Cached, like
    :func:`exact_moments`."""
    refusals = (DomainError, NotApplicableError, UndefinedResultError)
    return AnalyticReport(
        gamma_1=gamma(1, scenario),
        **{
            statistic.field: _or_none(refusals, statistic.closed_form, scenario)
            for statistic in STATISTICS
        },
        beta=_quiet_beta(scenario)[1],
        rho_disjunct=threshold_disjunct(scenario.q, scenario.m),
        rho_info=_or_none(NoSolutionError, threshold_info, scenario.q, scenario.m),
    )
