"""Acceptance gate: every release criterion, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
ACCEPTANCE lines while the suite runs).  Each criterion is a single test
so the verbose listing doubles as the checklist.
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from multipool import analytics, montecarlo
from multipool.analytics import ScenarioParams
from multipool.cli import main as cli_main
from multipool.design import MultipoolParams, build_multipool, max_pools_bound, validate_multipool
from multipool.errors import DesignBoundError, InfeasibleError, UndefinedResultError
from multipool.model import NOISELESS, NoiseModel
from multipool.montecarlo import ExperimentConfig, compare

from helpers import exact_noiseless_stats

NOISY = NoiseModel(0.02, 0.02)


def _gate(criterion: str, name: str, check):
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {criterion} {name}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {criterion} {name}: PASS", flush=True)


def test_c1_every_supported_design_builds_and_validates():
    def check():
        start = time.monotonic()
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32):
            for m in range(1, q + 2):
                matrix = build_multipool(MultipoolParams(q, m))
                report = validate_multipool(matrix, q, m)
                assert report.is_multipool, (q, m, report.summary())
                assert report.max_pairwise_overlap <= 1
        assert time.monotonic() - start < 10.0

    _gate("C1", "design-grid", check)


def test_c2_infeasible_multiplicities_are_rejected():
    def check():
        for q in (2, 3, 7, 8):
            with pytest.raises(DesignBoundError):
                MultipoolParams(q, q + 2)
        assert max_pools_bound(7, 49) == 56

    _gate("C2", "design-bounds", check)


def test_c3_confusion_table_reference_values():
    def check():
        stats = analytics.confusion_stats(19, 1, 20, 960)
        expected = (19 / 20, 960 / 980, 20 / 39, 1 / 961)
        for got, want in zip(stats, expected):
            assert abs(got - want) <= 1e-12

    _gate("C3", "confusion-stats", check)


def test_c4_closed_forms_match_exhaustive_enumeration():
    def check():
        start = time.monotonic()
        cells = [(2, 2)] + [(3, m) for m in (2, 3, 4)]
        for q, m in cells:
            matrix = build_multipool(MultipoolParams(q, m))
            n = matrix.n
            for rho in (0.1, 0.3, 0.5):
                exact = exact_noiseless_stats(matrix, rho, m, nc=0)
                scenario = ScenarioParams(rho=rho, q=q, m=m, n=n)
                sens = analytics.sensitivity(scenario)
                spec = analytics.specificity(scenario)
                counts = analytics.expected_counts(scenario)
                assert np.max(np.abs(exact.per_item_sensitivity - sens)) <= 1e-10
                assert np.max(np.abs(exact.per_item_specificity - spec)) <= 1e-10
                assert abs(exact.expected_positives - counts.positives) <= 1e-10
                assert abs(exact.expected_false_positives - counts.false_positives) <= 1e-10
                bounds = analytics.variance_bounds(scenario)
                assert exact.var_positives <= bounds.positives + 1e-10
                assert exact.var_false_positives <= bounds.false_positives + 1e-10
        assert time.monotonic() - start < 30.0

    _gate("C4", "enumeration-oracle", check)


def test_c5_simulation_agrees_with_closed_forms_under_noise():
    def check():
        start = time.monotonic()
        z_rows = 0
        beyond_three = 0
        seed = 0xC5000
        for q in (4, 8, 16):
            for m in (2, 4, 6):
                if m > q + 1:
                    continue
                for nc in (0, 1):
                    for rho in (0.01, 0.05, 0.1):
                        seed += 1
                        scenario = ScenarioParams(
                            rho=rho, q=q, m=m, nc=nc, noise=NOISY, n=q * q
                        )
                        config = ExperimentConfig(
                            scenario=scenario,
                            design=MultipoolParams(q, m),
                            trials=100_000,
                            master_seed=seed,
                        )
                        report = compare(config, threads=1)
                        for row in report.rows:
                            if row.kind != "z":
                                continue
                            assert row.passed, (q, m, nc, rho, row)
                            if row.status == "ok":
                                z_rows += 1
                                if abs(row.z) > 3.0:
                                    beyond_three += 1
        assert z_rows > 0
        assert beyond_three / z_rows < 0.01, (beyond_three, z_rows)
        assert time.monotonic() - start < 600.0

    _gate("C5", "simulation-gate", check)


def test_c6_variance_bounds_hold_empirically():
    def check():
        seed = 0xC6000
        for m in (2, 4, 6, 8, 10):
            for step in range(1, 11):
                rho = step / 100.0
                seed += 1
                scenario = ScenarioParams(rho=rho, q=16, m=m, n=256)
                config = ExperimentConfig(
                    scenario=scenario,
                    design=MultipoolParams(16, m),
                    trials=25_000,
                    master_seed=seed,
                )
                report = compare(config, threads=1)
                for row in report.rows:
                    if row.kind == "bound":
                        assert row.status == "ok"
                        assert row.passed, (m, rho, row)

    _gate("C6", "variance-bounds", check)


def test_c7_sensitivity_specificity_trade_monotonically():
    def check():
        rhos = [0.2 * i / 50 for i in range(1, 51)]
        for nc in (0, 1):
            for rho in rhos:
                scenarios = [
                    ScenarioParams(rho=rho, q=16, m=m, nc=nc, noise=NOISY)
                    for m in range(2, 11)
                ]
                sens = [analytics.sensitivity(s) for s in scenarios]
                spec = [analytics.specificity(s) for s in scenarios]
                for a, b in zip(sens, sens[1:]):
                    assert b <= a + 1e-12
                for a, b in zip(spec, spec[1:]):
                    assert b >= a - 1e-12
        for rho in rhos:
            for m in range(2, 11):
                relaxed = analytics.sensitivity(
                    ScenarioParams(rho=rho, q=16, m=m, nc=1, noise=NOISY)
                )
                strict = analytics.sensitivity(
                    ScenarioParams(rho=rho, q=16, m=m, nc=0, noise=NOISY)
                )
                assert relaxed >= strict - 1e-12

    _gate("C7", "monotone-tradeoffs", check)


def test_c8_prevalence_thresholds():
    def check():
        assert analytics.threshold_disjunct(16, 3) == 2 / 256
        values = []
        for m in range(1, 17):
            x = analytics.threshold_info(16, m)
            assert abs(analytics.binary_entropy(x) - m / 16) <= 1e-10
            values.append(x)
        assert all(a < b for a, b in zip(values, values[1:]))
        for m in (3, 4, 6):
            assert analytics.threshold_disjunct(16, m) < analytics.threshold_info(16, m)

    _gate("C8", "prevalence-thresholds", check)


def test_c9_tuned_multiplicity_is_minimal():
    def check():
        rng = np.random.default_rng(0xC9)

        def posterior(rho, q, m, noise):
            try:
                return analytics.type_one(ScenarioParams(rho=rho, q=q, m=m, noise=noise))
            except UndefinedResultError:
                return 0.0

        for _ in range(100):
            rho = 10.0 ** rng.uniform(math.log10(1e-4), math.log10(0.3))
            q = int(rng.integers(2, 65))
            epsilon = 10.0 ** rng.uniform(math.log10(1e-6), math.log10(0.5))
            noise = NoiseModel(rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.1))
            try:
                result = analytics.min_multiplicity(rho, q, noise, epsilon)
            except InfeasibleError:
                assert posterior(rho, q, q + 1, noise) > epsilon
                continue
            assert 1 <= result.m <= q + 1
            assert posterior(rho, q, result.m, noise) <= epsilon
            if result.m > 1:
                assert posterior(rho, q, result.m - 1, noise) > epsilon

    _gate("C9", "tuning-minimality", check)


def test_c10_simulation_reports_are_bit_stable(tmp_path, monkeypatch):
    # A 128 KiB batch budget splits the (8, 3) call's 20000 trials, about
    # 749 KB by the budget's count, into five batches, one per block, so
    # threads = 4 runs them on the caller and three helpers.
    monkeypatch.setattr(montecarlo, "_BATCH_BYTES", 1 << 17)

    def check():
        runner = CliRunner()
        args = [
            "simulate", "--q", "8", "--m", "3", "--rho", "0.05",
            "--pfp", "0.02", "--pfn", "0.02", "--trials", "20000", "--seed", "5",
        ]
        paths = [tmp_path / name for name in ("one.json", "two.json", "four.json")]
        for path, threads in zip(paths, ("1", "1", "4")):
            result = runner.invoke(
                cli_main, args + ["--threads", threads, "--output", str(path)]
            )
            assert result.exit_code == 0, result.output
        first = paths[0].read_bytes()
        assert paths[1].read_bytes() == first
        assert paths[2].read_bytes() == first
        assert json.loads(first)["passed"] is True

    _gate("C10", "bit-stable-reports", check)
