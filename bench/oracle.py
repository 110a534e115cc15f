"""Exact rational oracle for the closed forms, standard library only.

Every quantity is evaluated with ``fractions.Fraction`` straight from the
model: the m pools of an item test negative independently, a pool of a
healthy item with probability gamma_1 = (1 - p_fp)(1 - (1 - p_fn) rho)^(q-1)
and a pool of an infected item with probability p_fn * gamma_1.  No
complement is ever taken in floating point, so the oracle stays exact in
the far tails where the package's float evaluation loses its digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

# A float from the package matches the oracle when it is within this
# relative distance of the exact value; an exact 0 must come back as 0.
REL_TOL = 1e-9

# ROADMAP item 2: the package forms 1 - spec and 1 - sens by subtraction,
# so a complement below this size keeps fewer than ten significant digits
# and misses REL_TOL.  Mismatches inside that region are the known defect;
# the self-test fails on any other.
TAIL = Fraction(1, 10 ** 6)


@dataclass(frozen=True)
class Point:
    """One scenario with exact rational parameters."""

    rho: Fraction
    q: int
    m: int
    nc: int = 0
    p_fp: Fraction = Fraction(0)
    p_fn: Fraction = Fraction(0)
    n: int | None = None


def _flag(m: int, nc: int, negative: Fraction) -> Fraction:
    """P(at most nc of m pools negative), each negative with ``negative``."""
    positive = 1 - negative
    return sum(
        (comb(m, k) * positive ** k * negative ** (m - k) for k in range(m - nc, m + 1)),
        Fraction(0),
    )


def gamma_1(pt: Point) -> Fraction:
    return (1 - pt.p_fp) * (1 - (1 - pt.p_fn) * pt.rho) ** (pt.q - 1)


def flag_healthy(pt: Point) -> Fraction:
    """1 - spec, evaluated directly."""
    return _flag(pt.m, pt.nc, gamma_1(pt))


def miss_infected(pt: Point) -> Fraction:
    """1 - sens, evaluated directly."""
    return 1 - _flag(pt.m, pt.nc, pt.p_fn * gamma_1(pt))


def in_tail(pt: Point) -> bool:
    return min(flag_healthy(pt), miss_infected(pt)) < TAIL


def statistics(pt: Point) -> dict[str, Fraction | None]:
    """The nine analyze statistics; None where the package raises."""
    fp = flag_healthy(pt)
    fn = miss_infected(pt)
    rho = pt.rho
    flagged_healthy = (1 - rho) * fp
    flagged_infected = rho * (1 - fn)
    missed = rho * fn
    cleared = (1 - rho) * (1 - fp)
    out: dict[str, Fraction | None] = {
        "sens": 1 - fn,
        "spec": 1 - fp,
        "typeI": _posterior(flagged_healthy, flagged_infected),
        "typeII": _posterior(missed, cleared),
    }
    if pt.n is not None:
        out["e_T"] = pt.n * (flagged_infected + flagged_healthy)
        out["e_Tfp"] = pt.n * flagged_healthy
        out["e_Tfn"] = pt.n * missed
    if pt.n is not None and pt.nc == 0 and pt.p_fp == 0 and pt.p_fn == 0:
        quiet = (1 - rho) ** (pt.q - 1)
        beta = 1 - quiet
        shared = pt.m * (pt.q - 1) * quiet * beta ** (pt.m - 1)
        scale = pt.n * pt.m * pt.q * rho * (1 - rho)
        out["var_T_bound"] = scale * (1 - beta ** pt.m + shared)
        out["var_Tfp_bound"] = scale * (beta ** pt.m + shared)
    return out


def _posterior(wrong: Fraction, right: Fraction) -> Fraction | None:
    if wrong + right == 0:
        return None
    return wrong / (wrong + right)


def min_multiplicity(rho: Fraction, q: int, p: Fraction, epsilon: Fraction) -> int | None:
    """Smallest m in [1, q + 1] with exact nc = 0 type I <= epsilon, or
    None when no m qualifies.  A scenario where nothing is ever flagged
    counts as type I = 0, as in the package.

    With nc = 0 an item is flagged when all m pools are positive, so
    type I <= epsilon reads
        (1 - rho)(1 - epsilon) (1 - g)^m <= epsilon rho (1 - p g)^m,
    which is compared in integers after clearing denominators.
    """
    g = gamma_1(Point(rho=rho, q=q, m=1, p_fp=p, p_fn=p))
    healthy = 1 - g
    infected = 1 - p * g
    left = (1 - rho) * (1 - epsilon)
    right = epsilon * rho
    lhs = left.numerator * right.denominator
    rhs = right.numerator * left.denominator
    lhs_step = healthy.numerator * infected.denominator
    rhs_step = infected.numerator * healthy.denominator
    for m in range(1, q + 2):
        lhs *= lhs_step
        rhs *= rhs_step
        if lhs <= rhs:
            return m
    return None


def matches(value: float | None, exact: Fraction | None) -> bool:
    if exact is None or value is None:
        return exact is None and value is None
    if exact == 0:
        return value == 0.0
    return abs(Fraction(value) - exact) <= REL_TOL * abs(exact)
