"""Closed-form statistics: spot values, independent oracles, invariants."""

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipool import analytics, cli
from multipool.analytics import (
    ScenarioParams,
    analytic_report,
    binary_entropy,
    exact_moments,
    confusion_stats,
    expected_counts,
    gamma,
    min_multiplicity,
    pivotal_probability,
    sensitivity,
    specificity,
    threshold_disjunct,
    threshold_info,
    type_one,
    type_two,
    variance_bounds,
)
from multipool.design import MultipoolParams, build_multipool
from multipool.errors import (
    DesignBoundError,
    DomainError,
    InfeasibleError,
    NoSolutionError,
    NotApplicableError,
    UndefinedResultError,
    UnsupportedFieldError,
)
from multipool.model import NOISELESS, NoiseModel

from helpers import (
    Dyadic,
    exact_closed_forms,
    exact_min_multiplicity,
    exact_negative_masses,
    exact_noiseless_stats,
    exact_pivotal_probability,
    line_design_moments,
)

NOISY = NoiseModel(0.02, 0.02)


# --- per-pool negative probability -----------------------------------------

def test_gamma_matches_the_direct_expression():
    scenario = ScenarioParams(rho=0.05, q=16, m=4, noise=NOISY)
    expected = 0.98 * (1.0 - 0.98 * 0.05) ** 15
    assert gamma(1, scenario) == pytest.approx(expected, rel=1e-15)
    # A fully specified pool leaves nothing to marginalize.
    assert gamma(16, scenario) == pytest.approx(0.98, rel=1e-15)
    with pytest.raises(DomainError):
        gamma(-1, scenario)
    with pytest.raises(DomainError):
        gamma(17, scenario)
    for k in (1.5, 1.0, True):
        with pytest.raises(DomainError, match="must be an integer"):
            gamma(k, scenario)


def test_gamma_against_binomial_mixture_sampling():
    # gamma_1 collapses a binomial mixture: the other q - 1 pool members
    # are infected at rate rho, and a load-k pool reads negative with
    # probability (1 - p_fp) * p_fn ** k.  Estimate that mixture head-on.
    q, rho, noise = 16, 0.05, NOISY
    rng = np.random.default_rng(424242)
    loads = rng.binomial(q - 1, rho, size=1_000_000)
    values = (1.0 - noise.p_fp) * noise.p_fn ** loads
    estimate = values.mean()
    se = values.std(ddof=1) / math.sqrt(values.size)
    closed = gamma(1, ScenarioParams(rho=rho, q=q, m=1, noise=noise))
    assert abs(estimate - closed) < 4 * se


# --- sensitivity and specificity --------------------------------------------

def test_single_pool_sensitivity_is_one_minus_miss_rate():
    scenario = ScenarioParams(rho=0.1, q=8, m=1, noise=NoiseModel(0.03, 0.2))
    g1 = gamma(1, scenario)
    assert sensitivity(scenario) == pytest.approx(1.0 - 0.2 * g1, rel=1e-15)
    assert specificity(scenario) == pytest.approx(g1, rel=1e-15)


def test_comp_collapses_to_powers():
    scenario = ScenarioParams(rho=0.08, q=8, m=3, nc=0, noise=NoiseModel(0.01, 0.1))
    g1 = gamma(1, scenario)
    assert sensitivity(scenario) == pytest.approx((1.0 - 0.1 * g1) ** 3, rel=1e-12)
    assert specificity(scenario) == pytest.approx(1.0 - (1.0 - g1) ** 3, rel=1e-12)


def test_noiseless_sensitivity_is_perfect():
    assert sensitivity(ScenarioParams(rho=0.0, q=4, m=2)) == 1.0
    assert sensitivity(ScenarioParams(rho=0.3, q=4, m=2)) == 1.0


def test_certain_alarms_destroy_specificity():
    assert specificity(ScenarioParams(rho=0.1, q=4, m=2, noise=NoiseModel(1.0, 0.0))) == 0.0


# --- posterior error rates ---------------------------------------------------

def test_screening_paradox_at_tiny_prevalence():
    # With prevalence at one in a million, almost every flagged item is a
    # false alarm even though the test itself looks decent.
    scenario = ScenarioParams(rho=1e-6, q=16, m=2, noise=NoiseModel(0.2, 0.02))
    assert type_one(scenario) > 0.99


def test_type_one_keeps_the_false_alarms_that_round_away():
    # rho so small that gamma_1 and specificity round to exactly 1; the
    # false alarms they hide still put type one at 2.25e-15, not at 0.
    scenario = ScenarioParams(rho=1e-17, q=16, m=2, noise=NoiseModel(0.0, 0.02))
    assert specificity(scenario) == 1.0
    exact = exact_closed_forms(scenario)["typeI"]
    assert 2e-15 < exact < 2.5e-15
    assert type_one(scenario) == pytest.approx(exact, rel=1e-12, abs=0)


def test_type_one_is_one_when_nobody_is_infected():
    scenario = ScenarioParams(rho=0.0, q=4, m=3, noise=NoiseModel(0.3, 0.0))
    assert type_one(scenario) == 1.0


def test_type_two_zero_when_nothing_is_missed():
    scenario = ScenarioParams(rho=0.3, q=4, m=2, noise=NoiseModel(0.1, 0.0))
    assert sensitivity(scenario) == 1.0
    assert type_two(scenario) == 0.0


def test_undefined_posteriors():
    # Noiseless with rho = 0: no pool ever fires, so "flagged positive"
    # has zero mass; "flagged negative" covers everyone and is clean.
    silent = ScenarioParams(rho=0.0, q=4, m=2)
    with pytest.raises(UndefinedResultError):
        type_one(silent)
    assert type_two(silent) == 0.0
    # rho = 1 with p_fn = 0: everyone is infected and flagged.
    saturated = ScenarioParams(rho=1.0, q=4, m=2, noise=NoiseModel(0.0, 0.0))
    with pytest.raises(UndefinedResultError):
        type_two(saturated)
    assert type_one(saturated) == 0.0


# --- expected counts and variance bounds ------------------------------------

def test_expected_counts_identity():
    scenario = ScenarioParams(rho=0.05, q=16, m=4, nc=1, noise=NOISY, n=256)
    counts = expected_counts(scenario)
    sens = sensitivity(scenario)
    assert counts.positives == pytest.approx(
        counts.false_positives + 256 * 0.05 * sens, rel=1e-9
    )
    assert counts.false_negatives == pytest.approx(256 * 0.05 * (1 - sens), rel=1e-9)


def test_count_statistics_need_n():
    scenario = ScenarioParams(rho=0.05, q=16, m=4)
    with pytest.raises(DomainError):
        expected_counts(scenario)
    with pytest.raises(DomainError):
        variance_bounds(scenario)


@pytest.mark.parametrize("field, value", [("q", 4.0), ("m", 2.5), ("m", True), ("nc", 0.5), ("n", 16.0)])
def test_scenario_sizes_must_be_integers(field, value):
    fields = dict(rho=0.05, q=4, m=3, nc=1, n=16)
    fields[field] = value
    with pytest.raises(DomainError, match="must be an integer"):
        ScenarioParams(**fields)


@pytest.mark.parametrize("rho", [True, False, "0.1", None, float("nan"), -0.1, 1.5,
                                 pytest.param(10 ** 400, id="10**400")])
def test_scenario_prevalence_must_be_a_rate(rho):
    with pytest.raises(DomainError, match="prevalence must"):
        ScenarioParams(rho=rho, q=4, m=3)


def test_numpy_scenario_rates_are_held_as_python_floats():
    noise = NoiseModel(np.float32(0.5), np.float64(0.25))
    scenario = ScenarioParams(rho=np.float64(0.1), q=4, m=3, noise=noise)
    python = ScenarioParams(rho=0.1, q=4, m=3, noise=NoiseModel(0.5, 0.25))
    assert type(scenario.rho) is float
    assert scenario == python and hash(scenario) == hash(python)
    # An int rate is held as the equal float.
    assert ScenarioParams(rho=1, q=4, m=3) == ScenarioParams(rho=1.0, q=4, m=3)


def test_numpy_scenario_sizes_are_held_as_python_ints():
    scenario = ScenarioParams(rho=0.05, q=np.int64(4), m=np.int32(3), nc=np.uint8(1), n=np.int64(16))
    assert [type(value) for value in (scenario.q, scenario.m, scenario.nc, scenario.n)] == [int] * 4
    assert scenario == ScenarioParams(rho=0.05, q=4, m=3, nc=1, n=16)


def test_variance_bounds_vanish_at_degenerate_prevalence():
    for rho in (0.0, 1.0):
        bounds = variance_bounds(ScenarioParams(rho=rho, q=8, m=3, n=64))
        assert bounds.positives == 0.0
        assert bounds.false_positives == 0.0


def test_variance_bounds_are_positive_inside():
    bounds = variance_bounds(ScenarioParams(rho=0.1, q=8, m=3, n=64))
    assert bounds.positives > 0
    assert bounds.false_positives > 0


def test_variance_bounds_require_exact_comp():
    with pytest.raises(NotApplicableError):
        variance_bounds(ScenarioParams(rho=0.1, q=8, m=3, nc=1, n=64))
    with pytest.raises(NotApplicableError):
        variance_bounds(ScenarioParams(rho=0.1, q=8, m=3, noise=NOISY, n=64))


# --- pivotal probability -----------------------------------------------------

def test_pivotal_probability_values():
    assert pivotal_probability(
        ScenarioParams(rho=0.3, q=5, m=1)
    ) == pytest.approx(0.7 ** 4, rel=1e-15)
    assert pivotal_probability(ScenarioParams(rho=0.5, q=3, m=2)) == 0.1875
    with pytest.raises(NotApplicableError):
        pivotal_probability(ScenarioParams(rho=0.5, q=3, m=2, noise=NOISY))


def test_pivotal_probability_against_enumeration():
    # Items 0 and 3 of the (q=3, m=2) line design share exactly the pool
    # of slope 0 and intercept 0; enumerate all 2**9 states and compare.
    matrix = build_multipool(MultipoolParams(3, 2))
    assert sum(1 for pool in matrix.pools if 0 in pool and 3 in pool) == 1
    for rho in (0.2, 0.5):
        exact = exact_pivotal_probability(matrix, rho, m=2, item=0, other=3)
        closed = pivotal_probability(ScenarioParams(rho=rho, q=3, m=2))
        assert exact == pytest.approx(closed, abs=1e-12)


# --- multiplicity tuning -----------------------------------------------------

def test_min_multiplicity_noiseless_example():
    result = min_multiplicity(0.01, 10, NOISELESS, 0.01)
    assert result.m == 4
    assert 3.7 < result.raw_bound < 3.8
    assert result.raw_bound == pytest.approx(3.754473859194839, rel=1e-12)
    assert result.type_one == pytest.approx(0.005507502716820348, rel=1e-12)


def test_min_multiplicity_is_minimal_under_noise():
    rho, q, noise, eps = 0.02, 16, NoiseModel(0.01, 0.05), 1e-3
    result = min_multiplicity(rho, q, noise, eps)
    sweep = [
        type_one(ScenarioParams(rho=rho, q=q, m=m, noise=noise))
        for m in range(1, q + 2)
    ]
    first_ok = next(i + 1 for i, value in enumerate(sweep) if value <= eps)
    assert result.m == first_ok
    assert result.type_one <= eps
    assert sweep[result.m - 2] > eps


def test_min_multiplicity_meets_the_budget_in_the_far_tail():
    # At m = 2 type one is about 4.9e-8, 49 times the budget; spec rounded
    # to 1 there, so 1 - spec read it as 0 and tuning stopped at m = 2.
    rho = eps = Fraction(1, 10 ** 9)
    result = min_multiplicity(1e-9, 8, NOISELESS, 1e-9)
    assert result.m == exact_min_multiplicity(rho, 8, Fraction(0), Fraction(0), eps) == 3
    at_two = exact_closed_forms(ScenarioParams(rho=1e-9, q=8, m=2), rho=rho)["typeI"]
    assert 4.8e-8 < at_two < 5.0e-8
    at_three = exact_closed_forms(ScenarioParams(rho=1e-9, q=8, m=3), rho=rho)["typeI"]
    assert result.type_one == pytest.approx(at_three, rel=1e-12, abs=0)


def test_min_multiplicity_matches_the_exact_oracle_on_a_grid():
    # The benchmark self-test's grid: rho and epsilon over the decades
    # 1e-1 .. 1e-9, five pool sizes, exact and p_fp = p_fn = 0.02 tests.
    decades = [Fraction(1, 10 ** e) for e in range(1, 10)]
    rates = (Fraction(0), Fraction(2, 100))
    points = list(itertools.product(rates, (5, 8, 16, 27, 64), decades, decades))
    misses = []
    for p, q, rho, eps in points:
        noise = NoiseModel(float(p), float(p))
        try:
            got = min_multiplicity(float(rho), q, noise, float(eps)).m
        except InfeasibleError:
            got = None
        exact = exact_min_multiplicity(rho, q, p, p, eps)
        if got != exact:
            misses.append((p, q, rho, eps, got, exact))
    assert len(points) == 810
    assert misses == []


@pytest.mark.parametrize("noise", [NOISELESS, NOISY, NoiseModel(0.1, 0.3)])
@pytest.mark.parametrize("q, m, nc", [(8, 2, 0), (16, 4, 1), (64, 8, 0), (64, 8, 3)])
@pytest.mark.parametrize("decade", [3, 6, 9, 12])
def test_closed_forms_keep_their_digits_at_small_prevalence(noise, q, m, nc, decade):
    rho = Fraction(1, 10 ** decade)
    scenario = ScenarioParams(rho=float(rho), q=q, m=m, nc=nc, noise=noise, n=q * q)
    exact = exact_closed_forms(scenario, rho=rho)
    counts = expected_counts(scenario)
    got = {
        "sens": sensitivity(scenario),
        "spec": specificity(scenario),
        "typeI": type_one(scenario),
        "typeII": type_two(scenario),
        "e_T": counts.positives,
        "e_Tfp": counts.false_positives,
        "e_Tfn": counts.false_negatives,
    }
    assert set(got) == set(exact)
    for name, value in got.items():
        if exact[name] == 0:
            assert value == 0.0, name
        else:
            assert value == pytest.approx(exact[name], rel=1e-12, abs=0), name


def _near_one_cases():
    """Every (noise, design, decade) of the near-one grid, each at rho
    = 1 - 10 ** -decade."""
    grid = itertools.product(
        [NOISELESS, NOISY, NoiseModel(0.1, 0.3), NoiseModel(0.0, 1e-6), NoiseModel(1e-6, 1e-3)],
        [(4, 2, 0), (4, 2, 1), (16, 4, 0), (16, 4, 1), (64, 8, 0), (64, 8, 3)],
        [3, 6, 9, 12],
    )
    for noise, (q, m, nc), decade in grid:
        scenario = ScenarioParams(rho=1 - 10.0 ** -decade, q=q, m=m, nc=nc, noise=noise, n=q * q)
        yield pytest.param(scenario, id=f"{q}-{m}-{nc}-{noise.p_fp}-{noise.p_fn}-{decade}")


def test_the_near_one_grid_holds_posteriors_whose_masses_underflow():
    # In 23 cases both of type II's masses, P(infected and cleared) and
    # P(healthy and cleared), lie below the smallest double, so the
    # posterior must come from their logs.
    underflows = [
        param.values[0] for param in _near_one_cases()
        if max(exact_negative_masses(param.values[0])) < Fraction(5e-324)
    ]
    assert len(underflows) == 23


@pytest.mark.parametrize("scenario", _near_one_cases())
def test_closed_forms_keep_their_digits_as_prevalence_nears_one(scenario):
    # gamma_1 from 1 - (1 - p_fn) * rho by subtraction was off by 8.9e-10
    # relative in e_Tfn at (16, 4), nc = 1, p_fn = 1e-6, rho = 1 - 1e-12.
    exact = exact_closed_forms(scenario)
    report = analytic_report(scenario)
    got = {
        "sens": report.sensitivity,
        "spec": report.specificity,
        "typeI": report.type_one,
        "typeII": report.type_two,
        "e_T": report.expected_positives,
        "e_Tfp": report.expected_false_positives,
        "e_Tfn": report.expected_false_negatives,
    }
    assert set(got) == set(exact)
    for name, value in got.items():
        if exact[name] is None or exact[name] == 0:
            assert value == exact[name], name
        else:
            assert value == pytest.approx(exact[name], rel=1e-12, abs=0), name


def test_min_multiplicity_infeasible():
    with pytest.raises(InfeasibleError) as excinfo:
        min_multiplicity(0.2, 32, NOISELESS, 1e-9)
    assert excinfo.value.raw_bound == pytest.approx(22313.894013313697, rel=1e-12)
    assert excinfo.value.raw_bound > 33


def test_min_multiplicity_respects_cap():
    with pytest.raises(InfeasibleError):
        min_multiplicity(0.01, 10, NOISELESS, 0.01, cap=2)


def test_min_multiplicity_validation():
    with pytest.raises(DomainError):
        min_multiplicity(0.0, 10, NOISELESS, 0.01)
    with pytest.raises(DomainError):
        min_multiplicity(0.1, 10, NOISELESS, 1.0)
    with pytest.raises(DomainError):
        min_multiplicity(0.1, 10, NoiseModel(0.0, 1.0), 0.01)
    for bad in (True, "0.1", float("nan")):
        with pytest.raises(DomainError):
            min_multiplicity(bad, 10, NOISELESS, 0.01)
        with pytest.raises(DomainError):
            min_multiplicity(0.1, 10, NOISELESS, bad)
    # A fraction that rounds to 0 as a float leaves the open interval.
    with pytest.raises(DomainError, match="strictly inside"):
        min_multiplicity(Fraction(1, 10 ** 400), 10, NOISELESS, 0.01)


# --- prevalence thresholds ---------------------------------------------------

@pytest.mark.parametrize("function", [threshold_info, threshold_disjunct])
def test_thresholds_take_only_integer_sizes(function):
    for q, m in ((4.5, 2), (4, 2.0), (4, True)):
        with pytest.raises(DomainError, match="must be an integer"):
            function(q, m)


def test_threshold_disjunct_exact_fractions():
    assert threshold_disjunct(16, 3) == 2 / 256
    assert threshold_disjunct(2, 2) == 0.25
    assert threshold_disjunct(5, 1) == 0.0


def test_binary_entropy_shape():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    for x in (0.1, 0.25, 0.4):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), rel=1e-15)
    with pytest.raises(DomainError):
        binary_entropy(-0.1)
    for x in (True, "0.5", float("nan"), 1.5):
        with pytest.raises(DomainError):
            binary_entropy(x)


def test_threshold_info_solves_the_entropy_equation():
    for m in range(1, 17):
        x = threshold_info(16, m)
        assert 0.0 < x <= 0.5
        assert abs(binary_entropy(x) - m / 16) <= 1e-10
    assert threshold_info(16, 16) == 0.5
    assert threshold_info(16, 3) == pytest.approx(0.028635084734474958, abs=1e-12)
    with pytest.raises(NoSolutionError):
        threshold_info(16, 17)


def test_threshold_info_is_monotone_in_m():
    values = [threshold_info(16, m) for m in range(1, 17)]
    assert all(a < b for a, b in zip(values, values[1:]))


# --- empirical confusion rates -----------------------------------------------

@pytest.mark.parametrize("table, rates", [
    ((19, 1, 20, 960), (19 / 20, 960 / 980, 20 / 39, 1 / 961)),
    ((0, 0, 0, 0), (None, None, None, None)),
    ((3, 0, 0, 0), (1.0, None, 0.0, None)),
    ((0, 7, 0, 3), (0.0, 1.0, None, 0.7)),
    ((0, 0, 4, 0), (None, 0.0, 1.0, None)),
    ((5, 0, 3, 0), (1.0, 0.0, 3 / 8, None)),
    ((0, 2, 0, 0), (0.0, None, None, 1.0)),
    # Counts past 2**53, where each rate is still one correctly rounded
    # quotient of the exact integers.
    ((10 ** 17 + 1, 3, 7, 10 ** 18 + 9),
     ((10 ** 17 + 1) / (10 ** 17 + 4), (10 ** 18 + 9) / (10 ** 18 + 16),
      7 / (10 ** 17 + 8), 3 / (10 ** 18 + 12))),
])
def test_confusion_stats_reference_table(table, rates):
    stats = confusion_stats(*table)
    assert stats == rates
    assert stats._fields == ("sensitivity", "specificity", "type_one", "type_two")


def test_confusion_stats_empty_classes_are_none():
    no_negatives = confusion_stats(5, 0, 3, 0)
    assert no_negatives.type_two is None
    assert no_negatives.specificity == 0.0
    nobody_sick = confusion_stats(0, 0, 0, 10)
    assert nobody_sick.sensitivity is None
    assert nobody_sick.type_one is None
    assert nobody_sick.specificity == 1.0
    assert nobody_sick.type_two == 0.0
    with pytest.raises(DomainError):
        confusion_stats(-1, 0, 0, 0)
    for bad in (1.0, True, "1"):
        with pytest.raises(DomainError, match="must be an integer"):
            confusion_stats(19, 1, bad, 960)
    assert confusion_stats(np.int64(19), 1, 20, np.uint16(960)) == confusion_stats(19, 1, 20, 960)


# --- combined report ----------------------------------------------------------

def test_analytic_report_none_semantics():
    noisy = analytic_report(ScenarioParams(rho=0.05, q=16, m=4, noise=NOISY, n=256))
    assert noisy.var_positives_bound is None
    assert noisy.type_one is not None
    assert noisy.expected_positives is not None
    assert noisy.rho_info is not None

    clean = analytic_report(ScenarioParams(rho=0.05, q=16, m=4, n=256))
    assert clean.var_positives_bound is not None
    assert clean.beta == pytest.approx(1 - 0.95 ** 15, rel=1e-12)
    assert clean.rho_disjunct == 3 / 256

    silent = analytic_report(ScenarioParams(rho=0.0, q=4, m=2))
    assert silent.type_one is None
    assert silent.expected_positives is None

    steep = analytic_report(ScenarioParams(rho=0.1, q=3, m=4))
    assert steep.rho_info is None


def test_each_closed_form_matches_its_report_field():
    # analyze evaluates each statistic's closed form; the report holds it
    # as a field.  They must agree bit for bit, and the closed form must
    # raise exactly where the field is None.
    refusals = (DomainError, NotApplicableError, UndefinedResultError)
    evaluated, refused = set(), set()
    grid = itertools.product([(4, 2), (16, 4), (64, 8)], [0, 1], [NOISELESS, NOISY],
                             [0.0, 0.01, 0.1, 1.0], [False, True])
    for (q, m), nc, noise, rho, with_n in grid:
        scenario = ScenarioParams(rho=rho, q=q, m=m, nc=nc, noise=noise,
                                  n=q * q if with_n else None)
        report = analytic_report(scenario)
        for name, statistic in cli._STATISTICS.items():
            field = getattr(report, statistic.field)
            try:
                value = statistic.closed_form(scenario)
            except refusals:
                assert field is None, (name, scenario)
                refused.add(name)
                continue
            assert field is not None, (name, scenario)
            assert type(value) is float and value.hex() == field.hex(), (name, scenario)
            evaluated.add(name)
    # sens and spec exist everywhere; every other statistic both exists
    # and is refused somewhere on the grid.
    assert evaluated == set(cli._STATISTICS)
    assert refused == set(cli._STATISTICS) - {"sens", "spec"}


@pytest.mark.parametrize("rho", [1e-6, 1e-9, 1e-12])
def test_beta_forms_keep_their_digits_at_low_prevalence(rho):
    # 1 - (1 - rho) ** 63 by subtraction was off by 3.0e-11 relative at
    # rho = 1e-6 and 2.9e-8 at 1e-9.
    q, m, n = 64, 8, 4096
    scenario = ScenarioParams(rho=rho, q=q, m=m, n=n)
    r = Fraction(rho)
    quiet = (1 - r) ** (q - 1)
    beta = 1 - quiet
    shared = m * (q - 1) * quiet * beta ** (m - 1)
    scale = n * m * q * r * (1 - r)
    bounds = variance_bounds(scenario)
    assert analytic_report(scenario).beta == _exactly(beta)
    assert bounds.positives == _exactly(scale * (1 - beta ** m + shared))
    assert bounds.false_positives == _exactly(scale * (beta ** m + shared))
    assert pivotal_probability(scenario) == _exactly(quiet * beta ** (m - 1))


def _exactly(value: Fraction):
    return pytest.approx(float(value), rel=1e-12, abs=0)


# --- invariants over the whole parameter box ----------------------------------

@st.composite
def scenario_boxes(draw, interior=False):
    q = draw(st.integers(2, 32))
    m = draw(st.integers(1, q + 1))
    nc = draw(st.integers(0, m))
    if interior:
        rho = draw(st.floats(1e-3, 0.999))
        noise = NoiseModel(draw(st.floats(0.0, 0.3)), draw(st.floats(0.0, 0.3)))
    else:
        rho = draw(st.floats(0.0, 1.0))
        noise = NoiseModel(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)))
    return ScenarioParams(rho=rho, q=q, m=m, nc=nc, noise=noise)


@settings(max_examples=200, deadline=None)
@given(scenario=scenario_boxes())
def test_rates_stay_inside_the_unit_interval(scenario):
    assert 0.0 <= gamma(1, scenario) <= 1.0
    assert 0.0 <= sensitivity(scenario) <= 1.0
    assert 0.0 <= specificity(scenario) <= 1.0
    for posterior in (type_one, type_two):
        try:
            assert 0.0 <= posterior(scenario) <= 1.0
        except UndefinedResultError:
            pass


@settings(max_examples=100, deadline=None)
@given(
    q=st.integers(2, 32),
    nc=st.integers(0, 2),
    rho=st.floats(0.0, 1.0),
    p_fp=st.floats(0.0, 1.0),
    p_fn=st.floats(0.0, 1.0),
)
def test_more_pools_trade_sensitivity_for_specificity(q, nc, rho, p_fp, p_fn):
    noise = NoiseModel(p_fp, p_fn)
    lo = max(nc, 1)
    scenarios = [
        ScenarioParams(rho=rho, q=q, m=m, nc=nc, noise=noise) for m in range(lo, q + 2)
    ]
    sens = [sensitivity(s) for s in scenarios]
    spec = [specificity(s) for s in scenarios]
    for a, b in zip(sens, sens[1:]):
        assert b <= a + 1e-12
    for a, b in zip(spec, spec[1:]):
        assert b >= a - 1e-12


@settings(max_examples=100, deadline=None)
@given(
    q=st.integers(2, 32),
    rho=st.floats(0.0, 1.0),
    p_fp=st.floats(0.0, 1.0),
    p_fn=st.floats(0.0, 1.0),
)
def test_allowing_misses_trades_specificity_for_sensitivity(q, rho, p_fp, p_fn):
    m = min(4, q + 1)
    noise = NoiseModel(p_fp, p_fn)
    scenarios = [ScenarioParams(rho=rho, q=q, m=m, nc=nc, noise=noise) for nc in range(m + 1)]
    sens = [sensitivity(s) for s in scenarios]
    spec = [specificity(s) for s in scenarios]
    for a, b in zip(sens, sens[1:]):
        assert b >= a - 1e-12
    for a, b in zip(spec, spec[1:]):
        assert b <= a + 1e-12


@settings(max_examples=150, deadline=None)
@given(scenario=scenario_boxes(interior=True))
def test_posteriors_agree_with_bayes_rule(scenario):
    # The reference is exact: one built from the floats 1 - spec and
    # 1 - sens put type two 1.6e-12 off at (rho=0.5, q=12, m=2, nc=1,
    # p_fn=0.25).
    exact = exact_closed_forms(replace(scenario, n=1))
    flagged = exact["e_T"]  # the chance that an item is flagged
    if flagged > 1e-12:
        assert type_one(scenario) == pytest.approx(exact["typeI"], abs=1e-12)
    if 1 - flagged > 1e-12:
        assert type_two(scenario) == pytest.approx(exact["typeII"], abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    q=st.integers(2, 32),
    rho=st.floats(1e-3, 0.999),
    p_fp=st.floats(0.0, 0.3),
    p_fn=st.floats(0.0, 0.3),
)
def test_comp_posterior_collapses_to_the_odds_form(q, rho, p_fp, p_fn):
    m = min(3, q + 1)
    scenario = ScenarioParams(rho=rho, q=q, m=m, nc=0, noise=NoiseModel(p_fp, p_fn))
    g1 = gamma(1, scenario)
    if g1 >= 1.0:
        return
    odds = (rho / (1 - rho)) * ((1 - p_fn * g1) / (1 - g1)) ** m
    assert type_one(scenario) == pytest.approx(1.0 / (1.0 + odds), rel=1e-12)


# --- exact moments of built line designs ------------------------------------

_MOMENT_CELLS = [(q, m, nc) for q in (2, 3) for m in (1, 2, 3) for nc in range(min(m, 2) + 1)]


@pytest.mark.parametrize("q,m,nc", _MOMENT_CELLS)
@pytest.mark.parametrize("noise,rho", [(NOISELESS, 0.3), (NoiseModel(0.05, 0.1), 0.2)])
def test_exact_moments_match_enumeration(q, m, nc, noise, rho):
    matrix = build_multipool(MultipoolParams(q, m))
    exact = exact_noiseless_stats(matrix, rho, m, nc, noise)
    moments = exact_moments(ScenarioParams(rho=rho, q=q, m=m, nc=nc, noise=noise, n=q * q))
    np.testing.assert_allclose(moments.mean, exact.means, rtol=0, atol=1e-12)
    np.testing.assert_allclose(moments.cov, exact.cov, rtol=0, atol=1e-12)


def test_exact_moments_agree_with_the_closed_form_means():
    scenario = ScenarioParams(rho=0.1, q=16, m=4, nc=1, noise=NOISY, n=256)
    moments = exact_moments(scenario)
    counts = expected_counts(scenario)
    assert moments.mean[0] == pytest.approx(25.6, rel=1e-15)
    assert moments.mean[1:] == pytest.approx(
        (counts.positives, counts.false_positives, counts.false_negatives), rel=1e-12
    )


@pytest.mark.parametrize("q,m,rho", [(64, 8, 1e-3), (64, 8, 1e-5), (64, 8, 1e-9),
                                     (64, 8, 1e-12), (16, 8, 1 - 1e-9)])
@pytest.mark.parametrize("noise,nc", [(NOISELESS, 0), (NOISY, 1)])
def test_exact_moments_keep_their_digits_in_the_far_tail(q, m, rho, noise, nc):
    # The inclusion-exclusion sums cancel: in floats Var[T_fp] at (64, 8)
    # came out 32 % off at rho = 1e-3 and negative at 1e-5, and 80
    # decimal digits lose it below rho = 1e-10.  Exact dyadic arithmetic
    # on the same float inputs is the reference.
    scenario = ScenarioParams(rho=rho, q=q, m=m, nc=nc, noise=noise, n=q * q)
    means, cov = line_design_moments(scenario, Dyadic)
    moments = exact_moments(scenario)
    for got, want in zip(moments.mean + sum(moments.cov, ()), means + sum(cov, [])):
        assert got == pytest.approx(float(want.fraction()), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("q,m,noise", [(64, 2, NOISY), (16, 5, NOISELESS)])
def test_exact_moments_do_not_round_tiny_tails_to_zero(q, m, noise):
    # A precision ladder whose passes had both lost every digit agreed on
    # 0.0: it gave mean T_fn = 0 and Var T = 0 at (64, 2), against
    # 1.3386e-214 for both, and Var T = 0 at (16, 5), against 2.56e-276.
    scenario = ScenarioParams(rho=1 - 1e-9, q=q, m=m, nc=1, noise=noise, n=q * q)
    means, cov = line_design_moments(scenario, Dyadic)
    moments = exact_moments(scenario)
    assert moments.mean[1:] == pytest.approx(tuple(expected_counts(scenario)), rel=1e-12, abs=0.0)
    for got, want in zip(moments.mean + sum(moments.cov, ()), means + sum(cov, [])):
        assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)


def _assert_moments_match_the_oracle(scenario: ScenarioParams) -> None:
    # Every probability in exact_moments is a sum of non-negative terms,
    # so it is off by a few ulps per term and per unit of |log p|: about
    # 1e-13 at worst, and 1e-11 leaves room.  A covariance is a pair mass
    # minus a product of item masses, which cancel where the items are
    # nearly independent, so its error is bounded against the scale
    # sqrt(var_u * var_v) and not against itself.  Below 1e-300 a float is
    # subnormal and carries too few digits for a relative bound.
    means, cov = line_design_moments(scenario, Dyadic)
    want_mean = np.array([float(v) for v in means])
    want_cov = np.array([[float(v) for v in row] for row in cov])
    moments = exact_moments(scenario)
    scale = np.sqrt(np.abs(np.diag(want_cov)))
    error = np.abs(np.concatenate([moments.mean - want_mean, (moments.cov - want_cov).ravel()]))
    bound = 1e-11 * np.concatenate([np.abs(want_mean), np.outer(scale, scale).ravel()])
    assert ((error <= bound) | (error < 1e-300)).all(), (scenario, error, bound)


# NOISY's rates round in binary; the large rates of the third model are
# short dyadic fractions, which halve the exact oracle's cost on this grid.
_GRID_NOISE = (NOISELESS, NOISY, NoiseModel(0.125, 0.25))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_exact_moments_match_the_oracle_on_every_small_line_design(q):
    for m in range(1, q + 2):
        for rho, noise, nc in itertools.product(
            (1e-12, 1e-3, 0.3, 1 - 1e-9), _GRID_NOISE, sorted({0, 1, m // 2})
        ):
            _assert_moments_match_the_oracle(
                ScenarioParams(rho=rho, q=q, m=m, nc=nc, noise=noise, n=q * q)
            )


@pytest.mark.parametrize("q,m,rho,noise,nc", [
    (16, 17, 1e-12, NOISY, 1),
    (16, 17, 0.3, NOISELESS, 8),
    (64, 9, 1e-3, NOISY, 1),
    (64, 9, 1 - 1e-9, NoiseModel(0.1, 0.3), 4),
])
def test_exact_moments_match_the_oracle_on_large_line_designs(q, m, rho, noise, nc):
    _assert_moments_match_the_oracle(ScenarioParams(rho=rho, q=q, m=m, nc=nc, noise=noise, n=q * q))


@pytest.mark.filterwarnings("error")
def test_exact_moments_stay_finite_at_the_edges_of_their_domain():
    # Certain and impossible infections, errors and alarms: the logs of
    # probability 0 and 1 must raise nothing, warn nothing and leave no NaN.
    edges = (0.0, 0.5, 1.0)
    for q in (2, 3, 4, 5):
        for m in range(1, q + 2):
            for rho, p_fp, p_fn, nc in itertools.product(
                (0.0, 1e-300, 0.5, 1.0), edges, edges, sorted({0, m // 2, m})
            ):
                scenario = ScenarioParams(
                    rho=rho, q=q, m=m, nc=nc, noise=NoiseModel(p_fp, p_fn), n=q * q
                )
                moments = exact_moments(scenario)
                assert np.isfinite(moments.mean + sum(moments.cov, ())).all(), scenario
                assert min(np.diag(moments.cov)) >= 0.0, scenario


def test_exact_moments_need_a_line_design_size():
    with pytest.raises(DomainError):
        exact_moments(ScenarioParams(rho=0.1, q=4, m=2))
    with pytest.raises(DomainError):
        exact_moments(ScenarioParams(rho=0.1, q=4, m=2, n=20))
    # No line design has more than q + 1 directions, and none is built
    # without a GF(q).
    with pytest.raises(DesignBoundError):
        exact_moments(ScenarioParams(rho=0.1, q=4, m=7, n=16))
    with pytest.raises(UnsupportedFieldError):
        exact_moments(ScenarioParams(rho=0.1, q=6, m=3, n=36))
