"""Shared oracles for the test suite.

Everything in here is deliberately written against the raw definitions,
not against the package's closed forms, so tests can compare two
independent computational routes.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import comb, log1p
from typing import Callable

import numpy as np

from multipool import model, montecarlo
from multipool.analytics import STATISTICS, Ratio, ScenarioParams
from multipool.design import PoolingMatrix
from multipool.errors import DomainError, MatrixFormatError
from multipool.model import NOISELESS


def independent_irreducibility(modulus: tuple[int, ...], p: int) -> bool:
    """Irreducibility by exhaustive factor pairing.

    A monic polynomial of degree a factors iff it equals g * h with
    1 <= deg g <= a // 2 and deg h = a - deg g, both monic.  Enumerates
    every such pair and multiplies with numpy's convolution, which shares
    no code with the package's trial-division test.
    """
    a = len(modulus) - 1
    if a == 1:
        return True
    target = np.asarray(modulus, dtype=np.int64)
    for d in range(1, a // 2 + 1):
        for g_low in itertools.product(range(p), repeat=d):
            g = np.asarray(list(g_low) + [1], dtype=np.int64)
            for h_low in itertools.product(range(p), repeat=a - d):
                h = np.asarray(list(h_low) + [1], dtype=np.int64)
                product = np.convolve(g, h) % p
                if np.array_equal(product, target):
                    return False
    return True


def index_to_coeffs(index: int, p: int, a: int) -> tuple[int, ...]:
    """Base-p digits of a GF(p^a) element index, little endian, padded to
    length ``a``: the coefficients of its residue polynomial."""
    digits = []
    for _ in range(a):
        digits.append(index % p)
        index //= p
    return tuple(digits)


def coeffs_to_index(coeffs: tuple[int, ...], p: int) -> int:
    index = 0
    for c in reversed(coeffs):
        index = index * p + c
    return index


def _poly_mul(u: tuple[int, ...], v: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui == 0:
            continue
        for j, vj in enumerate(v):
            out[i + j] = (out[i + j] + ui * vj) % p
    return tuple(out)


def _poly_rem(u: tuple[int, ...], modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of ``u`` modulo a monic ``modulus`` over F_p."""
    deg_m = len(modulus) - 1
    rem = list(u)
    for i in range(len(rem) - 1, deg_m - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        rem[i] = 0
        for j in range(deg_m):
            rem[i - deg_m + j] = (rem[i - deg_m + j] - c * modulus[j]) % p
    return tuple(rem[:deg_m]) if deg_m > 0 else ()


def poly_mul_mod(
    u: tuple[int, ...], v: tuple[int, ...], modulus: tuple[int, ...], p: int
) -> tuple[int, ...]:
    """Product of two residue polynomials, reduced modulo ``modulus``: the
    scalar route that the field's multiplication table is checked against."""
    return _poly_rem(_poly_mul(u, v, p), modulus, p)


def all_states(n: int) -> np.ndarray:
    """Every binary infection vector of length n, as a (2**n, n) array."""
    states = np.array(list(itertools.product([0, 1], repeat=n)), dtype=np.uint8)
    return states


def state_weights(states: np.ndarray, rho: float) -> np.ndarray:
    infected = states.sum(axis=1)
    n = states.shape[1]
    return rho ** infected * (1.0 - rho) ** (n - infected)


def ncomp_flags(matrix: PoolingMatrix, y: np.ndarray, m: int, nc: int) -> np.ndarray:
    """Threshold decode of stacked 0/1 pool results: flag an item when at
    most nc of its m pools tested negative."""
    return (model.positive_pool_counts(matrix, y) >= m - nc).astype(np.uint8)


def decode_states(matrix: PoolingMatrix, states: np.ndarray, m: int, nc: int) -> np.ndarray:
    """Noiseless pipeline applied to a stack of states: loads, exact pool
    results, threshold decode."""
    y = (model.pool_loads(matrix, states) > 0).astype(np.uint8)
    return ncomp_flags(matrix, y, m, nc)


@dataclass(frozen=True)
class ExactStats:
    per_item_sensitivity: np.ndarray
    per_item_specificity: np.ndarray
    expected_positives: float
    expected_false_positives: float
    var_positives: float
    var_false_positives: float
    # Means and covariance matrix of (I, T, T_fp, T_fn).
    means: np.ndarray
    cov: np.ndarray


def exact_noiseless_stats(
    matrix: PoolingMatrix, rho: float, m: int, nc: int = 0, noise: model.NoiseModel = NOISELESS
) -> ExactStats:
    """Exact statistics by probability-weighted enumeration of all 2**n
    infection states, under exact tests unless ``noise`` is given; under
    noise, also of all 2**t pool results of each state."""
    states = all_states(matrix.n)
    weights = state_weights(states, rho)
    if noise.noiseless:
        z = decode_states(matrix, states, m, nc)
    else:
        results = all_states(matrix.t)
        negative = model.negative_probabilities(model.pool_loads(matrix, states), noise)
        given = np.where(results[None] == 0, negative[:, None], 1.0 - negative[:, None])
        weights = (weights[:, None] * given.prod(axis=2)).ravel()
        z = np.tile(ncomp_flags(matrix, results, m, nc), (len(states), 1))
        states = np.repeat(states, len(results), axis=0)
    x = states.astype(np.int64)
    z = z.astype(np.int64)
    infected = x.sum(axis=1)
    positives = z.sum(axis=1)
    true_positives = (x * z).sum(axis=1)
    counts = np.stack([infected, positives, positives - true_positives,
                       infected - true_positives]).astype(float)
    means = counts @ weights
    centred = counts - means[:, None]
    cov = (centred * weights) @ centred.T
    sens = (weights[:, None] * (x * z)).sum(axis=0) / rho
    spec = (weights[:, None] * ((1 - x) * (1 - z))).sum(axis=0) / (1.0 - rho)
    return ExactStats(
        per_item_sensitivity=sens,
        per_item_specificity=spec,
        expected_positives=float(means[1]),
        expected_false_positives=float(means[2]),
        var_positives=float(cov[1, 1]),
        var_false_positives=float(cov[2, 2]),
        means=means,
        cov=cov,
    )


class Dyadic:
    """An exact dyadic rational mantissa * 2**exponent.

    Floats and ints convert exactly, and sums, differences and products
    stay exact without the gcd that ``Fraction`` pays on every step, so
    long products of float parameters stay cheap.
    """

    __slots__ = ("mantissa", "exponent")

    def __init__(self, value, exponent: int = 0):
        if isinstance(value, float):
            numerator, denominator = value.as_integer_ratio()
            value, exponent = numerator, 1 - denominator.bit_length()
        self.mantissa, self.exponent = int(value), exponent

    @staticmethod
    def _of(value) -> "Dyadic":
        return value if value.__class__ is Dyadic else Dyadic(value)

    @staticmethod
    def _make(mantissa: int, exponent: int) -> "Dyadic":
        """mantissa * 2**exponent, without the conversion in ``__init__``."""
        out = object.__new__(Dyadic)
        out.mantissa, out.exponent = mantissa, exponent
        return out

    def __add__(self, other):
        if other.__class__ is int:
            other = Dyadic._make(other, 0)
        elif other.__class__ is not Dyadic:
            other = Dyadic(other)
        shift = self.exponent - other.exponent
        if shift >= 0:
            return Dyadic._make((self.mantissa << shift) + other.mantissa, other.exponent)
        return Dyadic._make(self.mantissa + (other.mantissa << -shift), self.exponent)

    __radd__ = __add__

    def __neg__(self):
        return Dyadic._make(-self.mantissa, self.exponent)

    def __sub__(self, other):
        return self + -Dyadic._of(other)

    def __rsub__(self, other):
        return Dyadic._of(other) + -self

    def __mul__(self, other):
        if other.__class__ is int:
            return Dyadic._make(self.mantissa * other, self.exponent)
        if other.__class__ is not Dyadic:
            other = Dyadic(other)
        return Dyadic._make(self.mantissa * other.mantissa, self.exponent + other.exponent)

    __rmul__ = __mul__

    def fraction(self) -> Fraction:
        if self.exponent >= 0:
            return Fraction(self.mantissa << self.exponent)
        return Fraction(self.mantissa, 1 << -self.exponent)

    def __float__(self) -> float:
        """The nearest float, without the gcd of :meth:`fraction`: int / int
        rounds correctly."""
        if self.exponent >= 0:
            return float(self.mantissa << self.exponent)
        return self.mantissa / (1 << -self.exponent)


def line_design_moments(scenario: ScenarioParams, number: Callable[[float], object]):
    """Means and covariance matrix of (I, T, T_fp, T_fn) on the line
    design of (q, m), in the number type that ``number`` converts the
    float parameters to: with :class:`Dyadic`, the exact reference for
    ``analytics.exact_moments``.

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


def _exact_pool_rates(rho: Fraction, q: int, p_fp: Fraction, p_fn: Fraction):
    """gamma_1 and p_fn * gamma_1: the chance that a pool of a healthy,
    and of an infected, item tests negative."""
    gamma_1 = (1 - p_fp) * (1 - (1 - p_fn) * rho) ** (q - 1)
    return gamma_1, p_fn * gamma_1


def exact_closed_forms(scenario: ScenarioParams, rho: Fraction | None = None) -> dict:
    """sens, spec, typeI, typeII and, when n is set, the expected counts
    e_T, e_Tfp and e_Tfn of a scenario, each the float nearest its exact
    rational value.

    The float parameters convert exactly; ``rho`` replaces the
    scenario's prevalence with an exact rational.  The m pools of an item
    test negative independently, each at its rate from
    :func:`_exact_pool_rates`, and the decoder flags the item when at
    least m - nc are positive.  Every statistic is one quotient of
    integers over a common denominator, rounded once (Python's int / int
    is correctly rounded), so no gcd is taken on the long numerators.  A
    posterior whose conditioning event has zero mass is None, where the
    package raises.
    """
    rho = Fraction(scenario.rho) if rho is None else rho
    m, nc = scenario.m, scenario.nc
    r, s = rho.numerator, rho.denominator
    noise = scenario.noise
    healthy, infected = _exact_pool_rates(
        rho, scenario.q, Fraction(noise.p_fp), Fraction(noise.p_fn)
    )

    def flagged(negative: Fraction) -> tuple[int, int]:
        """P(flagged) as (numerator, denominator) for a pool negative rate
        a / b: the sum of C(m, k) (b - a)^k a^(m - k) over k >= m - nc, by
        Horner's rule in b - a."""
        a, b = negative.numerator, negative.denominator
        total, a_power = 1, 1
        for k in range(m - 1, m - nc - 1, -1):
            a_power *= a
            total = total * (b - a) + comb(m, k) * a_power
        return total * (b - a) ** (m - nc), b ** m

    def ratio(numerator: int, denominator: int) -> float | None:
        return None if denominator == 0 else numerator / denominator

    # P(flagged | healthy) = alarm / B and P(flagged | infected) = sens / D.
    (alarm, big_b), (sens, big_d) = flagged(healthy), flagged(infected)
    flagged_healthy, flagged_infected = (s - r) * alarm * big_d, r * sens * big_b
    missed, cleared = r * (big_d - sens) * big_b, (s - r) * (big_b - alarm) * big_d
    out = {
        "sens": sens / big_d,
        "spec": (big_b - alarm) / big_b,
        "typeI": ratio(flagged_healthy, flagged_healthy + flagged_infected),
        "typeII": ratio(missed, missed + cleared),
    }
    if scenario.n is not None:
        # The four masses above share the denominator s * B * D.
        n, mass = scenario.n, s * big_b * big_d
        out["e_T"] = n * (flagged_infected + flagged_healthy) / mass
        out["e_Tfp"] = n * flagged_healthy / mass
        out["e_Tfn"] = n * missed / mass
    return out


def exact_negative_masses(scenario: ScenarioParams) -> tuple[Fraction, Fraction]:
    """P(infected and cleared) and P(healthy and cleared), exactly: the
    two masses that type II weighs against each other.  An item is
    cleared when fewer than m - nc of its m pools test positive."""
    rho, m, nc, noise = Fraction(scenario.rho), scenario.m, scenario.nc, scenario.noise
    healthy, infected = _exact_pool_rates(
        rho, scenario.q, Fraction(noise.p_fp), Fraction(noise.p_fn)
    )

    def cleared(negative: Fraction) -> Fraction:
        return sum(comb(m, k) * (1 - negative) ** k * negative ** (m - k) for k in range(m - nc))

    return rho * cleared(infected), (1 - rho) * cleared(healthy)


def exact_min_multiplicity(
    rho: Fraction, q: int, p_fp: Fraction, p_fn: Fraction, epsilon: Fraction
) -> int | None:
    """Smallest m in [1, q + 1] whose exact nc = 0 type I is at most
    epsilon, or None when no m qualifies; a scenario in which nothing is
    ever flagged counts as type I = 0.  Follows ``bench/oracle.py``.

    With nc = 0 an item is flagged when all m of its pools are positive,
    so type I <= epsilon reads
        (1 - rho)(1 - epsilon) (1 - gamma_1)^m <= epsilon rho (1 - p_fn gamma_1)^m,
    compared in integers after clearing denominators.
    """
    healthy, infected = (1 - rate for rate in _exact_pool_rates(rho, q, p_fp, p_fn))
    left, right = (1 - rho) * (1 - epsilon), epsilon * rho
    lhs, rhs = left.numerator * right.denominator, right.numerator * left.denominator
    for m in range(1, q + 2):
        lhs *= healthy.numerator * infected.denominator
        rhs *= infected.numerator * healthy.denominator
        if lhs <= rhs:
            return m
    return None


def exact_pivotal_probability(
    matrix: PoolingMatrix, rho: float, m: int, item: int, other: int
) -> float:
    """P(raising ``other`` from healthy to infected flips ``item`` from a
    negative decode to a positive one), noiseless, nc = 0, by enumeration.

    The event depends only on the remaining items, so enumerating full
    states and toggling ``other`` marginalizes it out exactly.
    """
    states = all_states(matrix.n)
    weights = state_weights(states, rho)
    low = states.copy()
    low[:, other] = 0
    high = states.copy()
    high[:, other] = 1
    z_low = decode_states(matrix, low, m, nc=0)[:, item]
    z_high = decode_states(matrix, high, m, nc=0)[:, item]
    flipped = (z_low == 0) & (z_high == 1)
    return float(weights @ flipped)


FANO_POOLS = (
    (0, 1, 2),
    (0, 3, 4),
    (0, 5, 6),
    (1, 3, 5),
    (1, 4, 6),
    (2, 3, 6),
    (2, 4, 5),
)


def fano_matrix() -> PoolingMatrix:
    """The 7-point, 7-line plane: pool size 3, multiplicity 3, n = 7."""
    return PoolingMatrix.from_pools(7, FANO_POOLS)


def parse_matrix_csv_per_cell(text: str) -> PoolingMatrix:
    """Reference CSV reader for ``design.parse_matrix_csv``: it splits
    every line into cells and strips and checks each cell on its own."""
    rows: list[list[int]] = []
    width: int | None = None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for line_no, line in enumerate(lines, start=1):
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise MatrixFormatError(
                f"row has {len(cells)} columns, expected {width}", line=line_no, column=1
            )
        row = []
        for col_no, cell in enumerate(cells, start=1):
            value = cell.strip()
            if value not in ("0", "1"):
                raise MatrixFormatError(
                    f"non-binary entry {cell!r}", line=line_no, column=col_no
                )
            row.append(int(value))
        rows.append(row)
    if not rows:
        raise MatrixFormatError("empty design file", line=1, column=1)
    try:
        return PoolingMatrix.from_dense(np.asarray(rows, dtype=np.uint8))
    except DomainError as exc:
        raise MatrixFormatError(str(exc)) from exc


def traced_peak(call: Callable[[], object]) -> tuple[object, int]:
    """``call()``'s result and the most bytes it held at once, past what
    was live when it started, as tracemalloc counts them; numpy reports
    its array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_positions(rng: np.random.Generator, size: int, rate: float) -> np.ndarray:
    """Reference for :func:`montecarlo.positions`: the same geometric
    skips, with each chunk's capped gaps cast to int64 by a copy
    (``astype``) rather than in the exponentials' own buffer.  It takes
    its chunk size from ``montecarlo._gap_chunk``, so a test that patches
    the chunk patches both."""
    if rate <= 0.0 or size <= 0:
        return np.empty(0, dtype=np.int64)
    if rate >= 1.0:
        return np.arange(size, dtype=np.int64)
    scale = -1.0 / log1p(-rate)
    chunk = montecarlo._gap_chunk(size, rate)
    parts, last = [], -1
    while last < size - 1:
        gaps = rng.standard_exponential(chunk) * scale
        gaps = np.fmin(gaps, size).astype(np.int64) + 1
        gaps[0] += last
        parts.append(np.cumsum(gaps))
        last = int(parts[-1][-1])
    found = np.concatenate(parts)
    return found[: np.searchsorted(found, size)]


def dense_gather_sums(values: np.ndarray, rows) -> np.ndarray:
    """Reference for the package's gather kernel: ``out[..., i]`` is the
    sum of ``values[..., rows[i]]``, one fancy-index gather per row, in
    int64 so no sum can wrap."""
    values = np.asarray(values)
    columns = [values[..., list(row)].sum(axis=-1, dtype=np.int64) for row in rows]
    return np.stack(columns, axis=-1)


def ratio_sums(events: np.ndarray, base: np.ndarray) -> Counter:
    """The six integer sums of one pooled ratio  sum(a_i) / sum(b_i),
    each summed directly over the trials."""
    return Counter(
        events=int(events.sum()),
        base=int(base.sum()),
        events_sq=int((events * events).sum()),
        cross=int((events * base).sum()),
        base_sq=int((base * base).sum()),
        trials=int(events.shape[0]),
    )


# The names under which the tests compare a call's result: each ratio
# of ``STATISTICS`` in order, and each ``montecarlo._HISTOGRAMS`` count by
# its index in (I, T, T_fp, T_fn).
_RATIO_NAMES = ("sens", "spec", "type_one", "type_two")
_COUNT_NAMES = {1: "positives", 2: "false_positives", 3: "false_negatives"}


def named_tally(n: int, result: tuple[list[list[int]], list[list[int]]]) -> dict[str, Counter]:
    """A call's (gram, histograms) of n items as :func:`block_tally` names
    it: each ratio's six sums, which ``montecarlo._ratio_sums`` reads from
    the Gram matrix, and how many trials had each value of each count."""
    gram, histograms = result
    ratios = [statistic.kind for statistic in STATISTICS if isinstance(statistic.kind, Ratio)]
    return {
        **{name: Counter(montecarlo._ratio_sums(n, gram, kind))
           for name, kind in zip(_RATIO_NAMES, ratios)},
        **{_COUNT_NAMES[count]: Counter({value: trials for value, trials in enumerate(histogram)
                                        if trials})
           for count, histogram in zip(montecarlo._HISTOGRAMS, histograms)},
    }


def block_tally(
    matrix: PoolingMatrix,
    scenario: ScenarioParams,
    master_seed: int,
    block_index: int,
    count: int,
) -> dict[str, Counter]:
    """Reference for the batched Monte Carlo kernel: one block through the
    per-block pipeline, dense and trial-major.

    It takes its draws from the stream (master_seed, block_index) through
    the package's :func:`montecarlo.positions`, in the package's order:
    the infected item-trials, then the candidate pool errors at the
    largest error rate r*, then one uniform per candidate, which keeps
    it when u * r* falls below its pool's error rate.  A pool errs at rate
    p_fp when empty and at its negative probability when loaded, and its
    result is (load > 0) XOR error.
    """
    n, t = matrix.n, matrix.t
    noise = scenario.noise
    rng = model.SeedSpec(master_seed, block_index).rng()
    x = np.zeros(count * n, dtype=bool)
    x[montecarlo.positions(rng, count * n, scenario.rho)] = True
    x = x.reshape(count, n)
    loads = model.pool_loads(matrix, x)
    error = np.where(loads == 0, noise.p_fp, model.negative_probabilities(loads, noise)).ravel()
    top = max(noise.p_fp, (1.0 - noise.p_fp) * noise.p_fn)
    candidates = montecarlo.positions(rng, count * t, top)
    u = rng.random(candidates.size)
    flip = np.zeros(count * t, dtype=bool)
    flip[candidates] = u * top < error[candidates]
    y = (loads > 0) ^ flip.reshape(count, t)
    counts = model.positive_pool_counts(matrix, y)
    z = counts >= (scenario.m - scenario.nc)

    infected = x.sum(axis=1, dtype=np.int64)
    true_pos = (x & z).sum(axis=1, dtype=np.int64)
    flagged = z.sum(axis=1, dtype=np.int64)
    false_pos = flagged - true_pos
    false_neg = infected - true_pos
    healthy = n - infected
    true_neg = healthy - false_pos
    flagged_neg = n - flagged

    return {
        "sens": ratio_sums(true_pos, infected),
        "spec": ratio_sums(true_neg, healthy),
        "type_one": ratio_sums(false_pos, flagged),
        "type_two": ratio_sums(false_neg, flagged_neg),
        "positives": Counter(flagged.tolist()),
        "false_positives": Counter(false_pos.tolist()),
        "false_negatives": Counter(false_neg.tolist()),
    }


def blockwise_tally(
    matrix: PoolingMatrix, scenario: ScenarioParams, trials: int, master_seed: int
) -> dict[str, Counter]:
    """The merged :func:`block_tally` of every block of an experiment:
    each tally's counters added key by key."""
    block = montecarlo._block_size(matrix.n, scenario.m, scenario.q)
    total: dict[str, Counter] = defaultdict(Counter)
    for index, start in enumerate(range(0, trials, block)):
        tally = block_tally(matrix, scenario, master_seed, index, min(block, trials - start))
        for name, counts in tally.items():
            total[name].update(counts)
    return total
