"""Simulation engine: determinism, exact identities, agreement gates."""

import hashlib
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipool import montecarlo
from multipool.analytics import ScenarioParams, analytic_report, exact_moments
from multipool.design import MultipoolParams, PoolingMatrix, build_multipool
from multipool.errors import DomainError
from multipool.model import NOISELESS, NoiseModel, SeedSpec, pool_loads, positive_pool_counts
from multipool.montecarlo import ComparisonReport, ExperimentConfig, compare, run_experiment

from helpers import blockwise_tally, exact_noiseless_stats, fano_matrix

NOISY = NoiseModel(0.02, 0.02)


def _config(q, m, rho, nc=0, noise=NOISELESS, trials=10_000, seed=99, design=None):
    scenario = ScenarioParams(rho=rho, q=q, m=m, nc=nc, noise=noise, n=q * q)
    return ExperimentConfig(
        scenario=scenario,
        design=design if design is not None else MultipoolParams(q, m),
        trials=trials,
        master_seed=seed,
    )


def _document_bytes(report: ComparisonReport) -> bytes:
    return json.dumps(report.to_document(), sort_keys=True).encode()


def test_reports_are_identical_across_reruns_and_thread_counts():
    # 9000 trials split into several blocks, so the thread pool actually
    # has something to schedule.
    config = _config(4, 3, rho=0.07, nc=1, noise=NOISY, trials=9_000, seed=31337)
    baseline = _document_bytes(compare(config, threads=1))
    assert _document_bytes(compare(config, threads=1)) == baseline
    assert _document_bytes(compare(config, threads=4)) == baseline


def test_count_means_satisfy_the_tally_identity():
    stats = run_experiment(_config(5, 3, rho=0.1, noise=NOISY, trials=8_000))
    mean_infected = (
        stats.mean_positives.value
        - stats.mean_false_positives.value
        + stats.mean_false_negatives.value
    )
    mean_true_positives = stats.mean_positives.value - stats.mean_false_positives.value
    assert stats.sensitivity.value * mean_infected == pytest.approx(
        mean_true_positives, rel=1e-9
    )


def test_nothing_happens_at_zero_prevalence():
    stats = run_experiment(_config(4, 2, rho=0.0, trials=2_000))
    assert stats.mean_positives.value == 0.0
    assert stats.var_positives.value == 0.0
    assert stats.specificity.value == 1.0
    assert not stats.sensitivity.available
    assert stats.sensitivity.observations == 0
    assert not stats.type_one.available

    report = compare(_config(4, 2, rho=0.0, trials=2_000))
    by_name = {row.statistic: row for row in report.rows}
    assert by_name["sens"].status == "unavailable"
    assert by_name["typeI"].status == "undefined"
    assert by_name["typeI"].passed
    assert report.passed


def test_noiseless_comp_never_misses():
    stats = run_experiment(_config(4, 3, rho=0.2, trials=5_000))
    assert stats.max_false_negatives == 0
    assert stats.mean_false_negatives.value == 0.0


def test_saturated_round_gives_exact_agreement():
    # Everyone infected, no misses: sensitivity is exactly 1 with zero
    # spread, and the flagged-negative class never occurs.
    report = compare(_config(3, 2, rho=1.0, noise=NoiseModel(0.0, 0.0), trials=1_000))
    by_name = {row.statistic: row for row in report.rows}
    assert by_name["sens"].empirical == 1.0
    assert by_name["sens"].z == 0.0
    assert by_name["typeII"].status == "undefined"
    assert report.passed


def test_external_matrix_runs_and_agrees():
    matrix = fano_matrix()
    scenario = ScenarioParams(rho=0.1, q=3, m=3, n=7)
    config = ExperimentConfig(
        scenario=scenario, design=matrix, trials=50_000, master_seed=7
    )
    report = compare(config)
    assert report.passed
    stats = run_experiment(config)
    assert stats.max_false_negatives == 0


def test_statistical_agreement_under_noise():
    report = compare(_config(8, 4, rho=0.05, nc=1, noise=NOISY, trials=60_000, seed=2))
    assert report.passed
    for row in report.rows:
        if row.kind == "z" and row.status == "ok":
            assert abs(row.z) <= 4.0


def test_ratio_estimates_carry_both_error_scales():
    stats = run_experiment(_config(8, 4, rho=0.05, nc=1, noise=NOISY, trials=20_000))
    est = stats.specificity
    assert est.available
    assert est.se == max(est.se_binomial, est.se_clustered)
    assert est.effective_observations <= est.observations


def test_config_validation():
    scenario = ScenarioParams(rho=0.1, q=4, m=3, n=16)
    with pytest.raises(DomainError):
        ExperimentConfig(scenario=scenario, design=MultipoolParams(4, 3), trials=0, master_seed=0)
    with pytest.raises(DomainError):
        ExperimentConfig(scenario=scenario, design=MultipoolParams(4, 3), trials=10, master_seed=-1)
    with pytest.raises(DomainError):
        ExperimentConfig(scenario=scenario, design=MultipoolParams(4, 2), trials=10, master_seed=0)
    with pytest.raises(DomainError):
        ExperimentConfig(
            scenario=ScenarioParams(rho=0.1, q=4, m=3),
            design=MultipoolParams(4, 3),
            trials=10,
            master_seed=0,
        )
    with pytest.raises(DomainError):
        ExperimentConfig(
            scenario=ScenarioParams(rho=0.1, q=4, m=3, n=20),
            design=MultipoolParams(4, 3),
            trials=10,
            master_seed=0,
        )
    # External matrices must match the scenario's q, m, and n.
    with pytest.raises(DomainError):
        ExperimentConfig(
            scenario=ScenarioParams(rho=0.1, q=3, m=2, n=7),
            design=fano_matrix(),
            trials=10,
            master_seed=0,
        )
    with pytest.raises(DomainError):
        run_experiment(_config(3, 2, rho=0.1, trials=100), threads=0)


def test_partial_final_block_keeps_exact_trial_count():
    stats = run_experiment(_config(4, 3, rho=0.1, trials=33))
    assert stats.trials == 33
    assert stats.mean_positives.observations == 33


# sha256 of json.dumps(compare(config).to_document(), indent=2), captured
# once the batched kernel tallied exactly like the dense per-block oracle
# (helpers.block_tally) on the sparse position draws.  A change that
# keeps every draw, tally and report field must match byte for byte.
_GOLDEN_REPORTS = {
    ("dense", 1): "86658350bf933a31f1e08df611839e659acfb12798f9b97b4bdebf313e9d221c",
    ("dense", 2 ** 64 - 59): "8da420a67fcf024cea028f126ad6f864224cda19f5bbafeab2f709c90f99b528",
    ("sparse", 1): "3b307f73485e446b8e8a07069b107a162dd6b86352020affe87380a5185a7de1",
    ("sparse", 2 ** 64 - 59): "47a79e95ce72cb75a44fda7e4101972c2e38cfdfd0b32c990c308daa08bf0ad4",
}
_GOLDEN_CONFIGS = {
    "dense": dict(q=16, m=4, nc=1, rho=0.1, noise=NOISY, trials=6552),
    "sparse": dict(q=64, m=8, nc=0, rho=0.01, noise=NOISELESS, trials=448),
}


def _sha256(document) -> str:
    return hashlib.sha256(json.dumps(document, indent=2).encode()).hexdigest()


@pytest.mark.parametrize("name,seed", sorted(_GOLDEN_REPORTS))
def test_reports_match_the_dense_gather_pipeline(name, seed):
    report = compare(_config(**_GOLDEN_CONFIGS[name], seed=seed))
    assert _sha256(report.to_document()) == _GOLDEN_REPORTS[(name, seed)]


def test_external_design_report_matches_the_dense_gather_pipeline():
    # The (8, 3) lines with items relabelled and pools reordered, so the
    # design only reaches the engine through from_pools.
    perm = np.random.default_rng(11).permutation(64)
    built = build_multipool(MultipoolParams(8, 3))
    pools = [sorted(int(perm[j]) for j in pool) for pool in reversed(built.pools)]
    external = PoolingMatrix.from_pools(64, pools)
    config = _config(8, 3, rho=0.08, nc=1, noise=NoiseModel(0.05, 0.05), trials=3000, seed=5,
                     design=external)
    assert _sha256(compare(config).to_document()) == (
        "bb5e001b2c4c8952ac07f2c20b7723827ee1d37560eb8f29e4d224996e8841eb"
    )


# sha256 of the merged tally of montecarlo._simulate, every histogram and
# integer sum in sorted order.  It pins the draws and the counting apart
# from the report, so a change to the report's fields or closed forms
# leaves these alone, and a change that moves a draw shows here first.
_TALLY_PINS = {
    ("dense", 1): "337f9a55bc4a7ff9293a9b55a76059a06963daa13be957069503d99463f67163",
    ("dense", 2 ** 64 - 59): "1214dc9392dd168ffaa7456375e294f3aca85001a9ee20848d2de80ce30641b7",
    ("sparse", 1): "e7b9b7d8d598dbb0b33cd55cb415411dcc30dae1184c8f442697a738837cac3d",
    ("sparse", 2 ** 64 - 59): "c3f9d8ac131bcdb38bf8fdc2ba7f1d4abb0de687642ec33152875cf9143a902a",
    ("external", 5): "7400ba5952bd44736628efaf6735b0d77c598493b5a00ddf97da416b61781815",
}


def _tally_sha256(config: ExperimentConfig, threads: int) -> str:
    tally = montecarlo._simulate(
        config.matrix(), config.scenario, config.trials, config.master_seed, threads
    )
    merged = {name: sorted(counter.items()) for name, counter in sorted(tally.items())}
    return hashlib.sha256(json.dumps(merged).encode()).hexdigest()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name,seed", sorted(_TALLY_PINS))
def test_merged_tallies_match_their_pins(name, seed, threads):
    if name == "external":
        # The relabelled (8, 3) design of the external report pin above.
        perm = np.random.default_rng(11).permutation(64)
        built = build_multipool(MultipoolParams(8, 3))
        pools = [sorted(int(perm[j]) for j in pool) for pool in reversed(built.pools)]
        config = _config(8, 3, rho=0.08, nc=1, noise=NoiseModel(0.05, 0.05), trials=3000,
                         seed=seed, design=PoolingMatrix.from_pools(64, pools))
    else:
        config = _config(**_GOLDEN_CONFIGS[name], seed=seed)
    assert _tally_sha256(config, threads) == _TALLY_PINS[(name, seed)]


def test_ragged_design_kernels_match_the_dense_gather_pipeline():
    # Pools of sizes 0..9 over 50 items; item 49 sits in no pool.
    rng = np.random.default_rng(3)
    ragged = PoolingMatrix.from_pools(50, [rng.choice(49, size=k, replace=False) for k in range(10)])
    x = rng.random((64, 50)) < 0.3
    y = rng.random((64, 10)) < 0.5
    document = {
        "loads": pool_loads(ragged, x).tolist(),
        "counts": positive_pool_counts(ragged, y).tolist(),
    }
    assert _sha256(document) == "ca99501d7752fb9ef662dbf643281af091d6949221c656de14530bc4303f2a2f"


def _plug_in_moments(values) -> tuple[Fraction, Fraction, Fraction]:
    """Exact mean and second and fourth central moments of a sample."""
    values = [Fraction(int(v)) for v in values]
    mean = sum(values) / len(values)
    m2 = sum((v - mean) ** 2 for v in values) / len(values)
    m4 = sum((v - mean) ** 4 for v in values) / len(values)
    return mean, m2, m4


def test_variance_standard_error_survives_fourth_powers_past_int64():
    # 10,000 disjoint pairs over 20,000 items with all 200 trials in one
    # block: about 15,000 items are flagged per trial, so sum(T**4) is
    # about 1.0e19, past the int64 range.
    n, rho, trials, seed = 20_000, 0.5, 200, 1
    pairs = PoolingMatrix.from_pools(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
    scenario = ScenarioParams(rho=rho, q=2, m=1, nc=0, noise=NOISELESS, n=n)
    stats = run_experiment(ExperimentConfig(scenario, pairs, trials, seed))

    # Replay the block's infection draws: noiseless tests decoded with
    # m = 1 flag both items of every pool that holds an infection.
    x = np.zeros(trials * n, dtype=bool)
    x[montecarlo.positions(SeedSpec(seed, 0).rng(), trials * n, rho)] = True
    x = x.reshape(trials, n)
    flagged = 2 * x.reshape(trials, n // 2, 2).any(axis=2).sum(axis=1)
    assert sum(int(t) ** 4 for t in flagged) > np.iinfo(np.int64).max

    _, m2, m4 = _plug_in_moments(flagged)
    sample_var = m2 * trials / (trials - 1)
    se_sq = (m4 - sample_var * sample_var * (trials - 3) / (trials - 1)) / trials
    assert stats.var_positives.value == pytest.approx(float(sample_var), rel=1e-9)
    # The float plug-in formula expands the fourth central moment from raw
    # power sums: s4/n is about 5e16 against m4 of about 2e8, which leaves
    # about 7 of the 16 digits.
    assert stats.var_positives.se == pytest.approx(math.sqrt(se_sq), rel=1e-6)


_COUNT = st.one_of(st.integers(0, 20_000), st.integers(19_900, 20_000))


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(_COUNT, _COUNT, _COUNT), min_size=1, max_size=300), data=st.data())
def test_tallies_merge_to_the_same_estimates_however_trials_split(rows, data):
    # Per trial: one count, and a ratio's events and base (events <= base).
    trials = len(rows)
    values, a, b = np.array(rows, dtype=np.int64).T
    events, base = np.minimum(a, b), np.maximum(a, b)
    cuts = sorted(data.draw(st.sets(st.integers(1, trials - 1)) if trials > 1 else st.just(set())))

    def tally(values, events, base):
        return {"count": montecarlo._histogram(values),
                "ratio": montecarlo._ratio_sums(events, base)}

    def estimates(total):
        return (montecarlo._mean_estimate(total["count"]),
                montecarlo._variance_estimate(total["count"]),
                montecarlo._ratio_estimate(total["ratio"]),
                max(total["count"]))

    whole = estimates(montecarlo._merge([tally(values, events, base)]))
    blocks = zip(*(np.split(array, cuts) for array in (values, events, base)))
    split = estimates(montecarlo._merge(tally(*block) for block in blocks))
    assert split == whole
    mean, variance, ratio, largest = split

    exact_mean, m2, _ = _plug_in_moments(values)
    assert mean.value == float(exact_mean)
    assert largest == values.max()
    assert ratio.observations == base.sum()
    if ratio.available:
        assert ratio.value == float(Fraction(int(events.sum()), int(base.sum())))
    if trials > 1:
        # m2 = s2/n - mean**2 in floats: the rounding of each term is
        # relative to the raw second moment, not to the variance.
        raw_second = float(sum(Fraction(int(v)) ** 2 for v in values) / trials)
        exact = m2 * trials / (trials - 1)
        tolerance = 8 * sys.float_info.epsilon * raw_second * trials / (trials - 1)
        assert abs(variance.value - float(exact)) <= tolerance


@st.composite
def _simulations(draw):
    """A design and a scenario on it: a built line design, or a ragged
    external one whose pools may be empty and whose items may sit in no
    pool, decoded against its widest membership."""
    noise = draw(st.sampled_from([NOISELESS, NOISY, NoiseModel(0.3, 0.1)]))
    rho = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    if draw(st.booleans()):
        q, m = draw(st.sampled_from([(2, 1), (3, 4), (4, 2), (5, 3), (7, 2)]))
        matrix = build_multipool(MultipoolParams(q, m))
    else:
        n = draw(st.integers(1, 30))
        pools = draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=1, max_size=12))
        matrix = PoolingMatrix.from_pools(n, pools)
        q = draw(st.integers(2, 6))
        m = max(1, max(map(len, matrix.item_membership)))
    nc = draw(st.integers(0, m))
    return matrix, ScenarioParams(rho=rho, q=q, m=m, nc=nc, noise=noise, n=matrix.n)


@settings(max_examples=120, deadline=None)
@given(
    simulation=_simulations(),
    trials=st.integers(1, 300),
    seed=st.sampled_from([1, 7, 2 ** 64 - 59]),
    threads=st.sampled_from([1, 2, 3]),
    target=st.integers(1, 1 << 14),
    batch=st.integers(1, 1 << 12),
)
def test_batches_tally_exactly_like_the_per_block_pipeline(
    simulation, trials, seed, threads, target, batch
):
    # Small limits split even these small designs into several blocks, a
    # partial last one and batches of several blocks.
    matrix, scenario = simulation
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_BLOCK_TARGET_ELEMENTS", target)
        patch.setattr(montecarlo, "_BATCH_ITEM_TRIALS", batch)
        tally = montecarlo._simulate(matrix, scenario, trials, seed, threads)
        expected = blockwise_tally(matrix, scenario, trials, seed)
    assert tally == expected


@pytest.mark.parametrize(
    "pools,n",
    [
        ([range(300), (0, 1), ()], 300),  # a pool of 300 items: int32 loads
        ([(0, 1)] * 260 + [(2,)], 3),  # items in 260 pools: int32 counts
    ],
)
def test_wide_ragged_designs_tally_like_the_per_block_pipeline(pools, n):
    matrix = PoolingMatrix.from_pools(n, pools)
    m = max(map(len, matrix.item_membership))
    scenario = ScenarioParams(rho=0.5, q=2, m=m, nc=1, noise=NOISY, n=n)
    tally = montecarlo._simulate(matrix, scenario, 70, 3, 2)
    assert tally == blockwise_tally(matrix, scenario, 70, 3)


# Six items: pool 1 is empty and item 5 sits in no pool.
_RAGGED_POOLS = [(0, 1, 2), (), (2, 3, 4), (0, 4)]


@pytest.mark.parametrize("trials", [1, 63, 64, 65, 127, 128, 129])
@pytest.mark.parametrize("design", ["built", "ragged"])
def test_no_bit_past_the_last_trial_and_no_pad_row_is_counted(design, trials):
    # Packed states hold whole 64-trial words: the last word's spare bits
    # and the index padding must never reach a count.
    if design == "built":
        matrix = build_multipool(MultipoolParams(3, 2))
    else:
        matrix = PoolingMatrix.from_pools(6, _RAGGED_POOLS)
    n, m = matrix.n, max(map(len, matrix.item_membership))
    # nc = m flags every item in every trial.
    flag_all = ScenarioParams(rho=0.3, q=3, m=m, nc=m, noise=NOISY, n=n)
    tally = montecarlo._simulate(matrix, flag_all, trials, 7, 1)
    assert tally["positives"] == {n: trials}
    assert tally == blockwise_tally(matrix, flag_all, trials, 7)
    # Every item infected, nc = 0: an item is flagged when all m of its
    # pools are positive, so only the items in m pools are.
    all_infected = ScenarioParams(rho=1.0, q=3, m=m, nc=0, noise=NOISELESS, n=n)
    tally = montecarlo._simulate(matrix, all_infected, trials, 7, 1)
    full = sum(len(pools) == m for pools in matrix.item_membership)
    assert tally["positives"] == {full: trials}
    assert tally == blockwise_tally(matrix, all_infected, trials, 7)
    # The padding of a pool below the widest reads a healthy item.
    some = ScenarioParams(rho=0.3, q=3, m=m, nc=0, noise=NOISY, n=n)
    tally = montecarlo._simulate(matrix, some, trials, 7, 1)
    assert tally == blockwise_tally(matrix, some, trials, 7)


def test_counts_past_uint16_are_tallied_exactly():
    # 65536 items all infected: every per-trial count reaches 65536.
    n = 1 << 16
    pairs = PoolingMatrix.from_pools(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
    scenario = ScenarioParams(rho=1.0, q=2, m=1, nc=0, noise=NOISELESS, n=n)
    tally = montecarlo._simulate(pairs, scenario, 3, 5, 1)
    assert tally["positives"] == {n: 3}
    assert tally == blockwise_tally(pairs, scenario, 3, 5)


def test_variance_standard_error_is_exact_near_a_large_mean():
    # Raw power sums of values near 15000 are about 5e16 per trial, so a
    # float expansion of the fourth central moment (0.5 here) kept no
    # digit of it and gave se = 0.0.
    histogram = Counter({15000: 50, 15001: 100, 15002: 50})
    n = 200
    sample_var = Fraction(100, 199)
    se_sq = (Fraction(1, 2) - sample_var * sample_var * (n - 3) / (n - 1)) / n
    estimate = montecarlo._variance_estimate(histogram)
    assert estimate.value == float(sample_var)
    assert estimate.se == pytest.approx(math.sqrt(se_sq), rel=1e-12)
    assert estimate.se == pytest.approx(0.0354, abs=1e-4)


def test_z_rows_divide_by_the_larger_of_the_sample_and_null_errors():
    built = compare(_config(8, 3, rho=0.05, nc=1, noise=NOISY, trials=3000, seed=4))
    moments = exact_moments(built.scenario)
    rows = {row.statistic: row for row in built.rows}
    for row in built.rows:
        if row.kind == "z" and row.status == "ok":
            assert row.se == max(row.se_sample, row.se_null)
            assert row.z == (row.empirical - row.analytic) / row.se
    assert rows["mean_T"].se_null == math.sqrt(moments.cov[1][1] / 3000)
    assert rows["var_T"].exact == moments.cov[1][1]
    assert rows["var_Tfp"].exact == moments.cov[2][2]
    document = built.to_document()["rows"]
    assert {"se_sample", "se_null", "exact"} <= set(document[0])

    # An external design falls back on the binomial floor.
    external = compare(
        ExperimentConfig(ScenarioParams(rho=0.1, q=3, m=3, n=7), fano_matrix(), 2000, 4)
    )
    rows = {row.statistic: row for row in external.rows}
    spec, mean_t = rows["spec"], rows["mean_T"]
    assert spec.se_null == math.sqrt(spec.analytic * (1 - spec.analytic) / spec.observations)
    assert mean_t.se_null == math.sqrt(mean_t.analytic * (1 - mean_t.analytic / 7) / 2000)
    assert rows["var_T"].exact is None


def test_null_errors_follow_the_enumerated_null_variance():
    # Each ratio row is A / B for event and base counts written out here
    # from (I, T, T_fp, T_fn); its null error is the delta-method one,
    # sqrt(Var(A - p0 B) / trials) / E[B], from an enumerated covariance.
    q, m, nc, rho, noise, trials = 3, 2, 1, 0.2, NoiseModel(0.05, 0.1), 1000
    exact = exact_noiseless_stats(build_multipool(MultipoolParams(q, m)), rho, m, nc, noise)
    scenario = ScenarioParams(rho=rho, q=q, m=m, nc=nc, noise=noise, n=q * q)
    report = compare(ExperimentConfig(scenario, MultipoolParams(q, m), trials, 3))
    rows = {row.statistic: row for row in report.rows}
    n = q * q
    infected, flagged, false_pos, false_neg = np.eye(4)
    ratios = {
        "sens": (infected - false_neg, infected, 0),
        "spec": (-infected - false_pos, -infected, n),
        "typeI": (false_pos, flagged, 0),
        "typeII": (false_neg, -flagged, n),
    }
    for name, (events, base, offset) in ratios.items():
        p0 = rows[name].analytic
        residual = events - p0 * base
        expected = math.sqrt(residual @ exact.cov @ residual / trials) / (offset + base @ exact.means)
        assert rows[name].se_null == pytest.approx(expected, rel=1e-9), name
    for name, index in (("mean_T", 1), ("mean_Tfp", 2), ("mean_Tfn", 3)):
        expected = math.sqrt(exact.cov[index, index] / trials)
        assert rows[name].se_null == pytest.approx(expected, rel=1e-9), name


def test_exact_moments_are_computed_once_per_scenario():
    config = _config(4, 3, rho=0.07, nc=1, noise=NOISY, trials=500, seed=8)
    exact_moments.cache_clear()
    compare(config)
    compare(config, threads=2)
    assert exact_moments.cache_info().misses == 1


# sim-dense-small's seed 102, op 377 before the sparse draws: 5 misses
# against about 17 expected.  Dividing by the standard error of those
# same trials gave sens z = 5.55, typeII z = -5.59 and mean_Tfn z = -5.56.
_SEED_102_OP_377 = {
    "sens": Counter(events=167682, base=167687, events_sq=4444888, cross=4445002,
                    base_sq=4445121, trials=6552),
    "type_two": Counter(events=5, base=294396, events_sq=5, cross=388, base_sq=18884412,
                        trials=6552),
    "false_negatives": Counter({0: 6547, 1: 5}),
}


def test_a_low_count_of_a_rare_outcome_passes_the_null_gate():
    scenario = ScenarioParams(rho=0.1, q=16, m=4, nc=1, noise=NOISY, n=256)
    report = analytic_report(scenario)
    null_se = partial(montecarlo._null_se, scenario=scenario, moments=exact_moments(scenario),
                      trials=6552)
    tally = _SEED_102_OP_377
    rows = [
        montecarlo._value_row("sens", report.sensitivity,
                              montecarlo._ratio_estimate(tally["sens"]), 4.0, null_se),
        montecarlo._value_row("typeII", report.type_two,
                              montecarlo._ratio_estimate(tally["type_two"]), 4.0, null_se),
        montecarlo._value_row("mean_Tfn", report.expected_false_negatives,
                              montecarlo._mean_estimate(tally["false_negatives"]), 4.0, null_se),
    ]
    for row in rows:
        assert abs((row.empirical - row.analytic) / row.se_sample) > 5.5
        assert abs(row.z) < 4.0 and row.passed, row


_CALIBRATION_CASES = [
    (4, 2, 1, 0.1, NOISY),
    (8, 3, 0, 0.05, NOISY),
    (8, 3, 1, 0.02, NOISY),
    (8, 4, 1, 0.1, NoiseModel(0.05, 0.05)),
    (16, 4, 1, 0.1, NOISY),
    (8, 3, 0, 0.03, NOISELESS),
]


def test_the_gate_trips_no_more_often_than_its_nominal_rate():
    # 240 small reports: a row is beyond 2 (3) standard errors with
    # probability 4.55 % (0.27 %) under a normal null.  The share of rows
    # beyond must stay under the upper 99.9 % binomial limit of that rate.
    # Rows of one report share counts, so this is a screen, not an exact
    # test.  Dividing by the sample error alone put 18.8 % of these rows
    # beyond 2 and 16.7 % beyond 3: rows whose rare outcome never
    # occurred had a zero standard error.
    beyond, old_beyond, rows = Counter(), Counter(), 0
    for q, m, nc, rho, noise in _CALIBRATION_CASES:
        scenario = ScenarioParams(rho=rho, q=q, m=m, nc=nc, noise=noise, n=q * q)
        for seed in range(1, 41):
            report = compare(ExperimentConfig(scenario, MultipoolParams(q, m), 200, seed))
            for row in report.rows:
                if row.kind != "z" or row.status != "ok":
                    continue
                rows += 1
                diff = abs(row.empirical - row.analytic)
                old = diff / row.se_sample if row.se_sample else (math.inf if diff else 0.0)
                for k in (2, 3):
                    beyond[k] += abs(row.z) > k
                    old_beyond[k] += old > k
    print(f"rows {rows}: beyond 2 / 3 sigma {beyond[2]} / {beyond[3]} with the null gate, "
          f"{old_beyond[2]} / {old_beyond[3]} dividing by the sample error alone")
    for k, rate in ((2, 0.0455), (3, 0.0027)):
        limit = rate + 3.0902 * math.sqrt(rate * (1 - rate) / rows)
        assert beyond[k] / rows <= limit, (k, beyond[k], rows)
