"""Simulation engine: determinism, exact identities, agreement gates."""

import hashlib
import json
import math
import sys
import threading
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import partial
from typing import Callable

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

from helpers import blockwise_tally, exact_noiseless_stats, fano_matrix, ratio_sums, traced_peak

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


@pytest.fixture
def small_batches(monkeypatch):
    """A 32 KiB batch budget: _THREE_BATCHES' 9000 trials take about
    116 KB by the budget's count, so each of its three blocks is a batch
    of its own."""
    monkeypatch.setattr(montecarlo, "_BATCH_BYTES", 1 << 15)


@pytest.mark.usefixtures("small_batches")
def test_reports_are_identical_across_reruns_and_thread_counts():
    # 9000 trials split into several batches, so the thread pool actually
    # has something to schedule.
    config = _config(4, 3, rho=0.07, nc=1, noise=NOISY, trials=9_000, seed=31337)
    baseline = _document_bytes(compare(config, threads=1))
    assert _document_bytes(compare(config, threads=1)) == baseline
    assert _document_bytes(compare(config, threads=4)) == baseline


_TEST_HELPERS = "multipool-test"


@pytest.fixture
def helpers(monkeypatch):
    """A fresh helper executor for one test, built like the module's, its
    threads joined after it."""
    fresh = ThreadPoolExecutor(max_workers=sys.maxsize, thread_name_prefix=_TEST_HELPERS)
    monkeypatch.setattr(montecarlo, "_HELPERS", fresh)
    yield fresh
    fresh.shutdown()


def _helper_threads() -> int:
    """The live threads of the ``helpers`` fixture's executor."""
    return sum(thread.name.startswith(_TEST_HELPERS + "_") for thread in threading.enumerate())


def _record_batch_threads(monkeypatch, fail_on: str | None = None) -> tuple[list[int], Callable]:
    """Route ``_run_batch`` through a wrapper that records the thread of
    each batch, and return the record with a function that resets it for
    the next call.  A batch on the caller sets one event and waits for a
    helper's batch to set the other; a helper's batch sets that one and
    waits for the caller's.  A call that has helpers therefore always
    runs a batch on the caller and one on a helper.  With ``fail_on``
    "the caller" or "a helper", every batch there raises after its
    wait."""
    threads, caller_ran, helper_ran = [], threading.Event(), threading.Event()
    run_batch, caller = montecarlo._run_batch, threading.get_ident()

    def recorded(*args):
        thread = threading.get_ident()
        threads.append(thread)
        if thread == caller:
            where = "the caller"
            caller_ran.set()
            assert helper_ran.wait(timeout=30), "no helper took a batch"
        else:
            where = "a helper"
            helper_ran.set()
            assert caller_ran.wait(timeout=30), "the caller took no batch"
        if where == fail_on:
            raise RuntimeError(f"batch failed on {where}")
        return run_batch(*args)

    def reset() -> None:
        threads.clear()
        caller_ran.clear()
        helper_ran.clear()

    monkeypatch.setattr(montecarlo, "_run_batch", recorded)
    return threads, reset


# Three blocks of at most 4096 trials at n = 16, so under small_batches
# threads = 3 runs three batches on the caller and two helpers.
_THREE_BATCHES = _config(4, 3, rho=0.07, nc=1, noise=NOISY, trials=9_000, seed=31337)


@pytest.mark.usefixtures("small_batches")
def test_the_caller_runs_batches_and_consecutive_calls_share_one_helper(helpers, monkeypatch):
    expected = _document_bytes(compare(_THREE_BATCHES, threads=1))
    threads, reset = _record_batch_threads(monkeypatch)
    caller = threading.get_ident()
    seen = []
    for _ in range(2):
        reset()
        assert _document_bytes(compare(_THREE_BATCHES, threads=2)) == expected
        assert threads.count(caller) >= 1
        seen.append(set(threads) - {caller})
    # One helper at threads = 2, and the same thread in both calls.
    assert len(seen[0]) == 1
    assert seen[1] == seen[0]


@pytest.mark.usefixtures("small_batches")
def test_helpers_never_outnumber_the_batches(helpers, monkeypatch):
    threads, reset = _record_batch_threads(monkeypatch)
    # (16, 4) at 6552 trials is two blocks, so two batches at any thread count.
    config = _config(16, 4, rho=0.1, nc=1, noise=NOISY, trials=6552, seed=4)
    compare(config, threads=3)
    assert len(threads) == 2
    assert _helper_threads() == 1
    reset()
    compare(_THREE_BATCHES, threads=3)
    assert len(set(threads)) <= 3
    assert _helper_threads() == 2


@pytest.mark.usefixtures("small_batches")
def test_a_helper_failure_reaches_the_caller_and_the_pool_still_works(helpers, monkeypatch):
    expected = _document_bytes(compare(_THREE_BATCHES, threads=1))
    run_batch = montecarlo._run_batch
    _record_batch_threads(monkeypatch, fail_on="a helper")
    with pytest.raises(RuntimeError, match="on a helper"):
        compare(_THREE_BATCHES, threads=3)
    monkeypatch.setattr(montecarlo, "_run_batch", run_batch)
    assert _document_bytes(compare(_THREE_BATCHES, threads=3)) == expected


@pytest.mark.usefixtures("small_batches")
def test_a_caller_failure_reaches_the_caller_and_the_pool_still_works(helpers, monkeypatch):
    expected = _document_bytes(compare(_THREE_BATCHES, threads=1))
    run_batch = montecarlo._run_batch
    _record_batch_threads(monkeypatch, fail_on="the caller")
    with pytest.raises(RuntimeError, match="on the caller"):
        compare(_THREE_BATCHES, threads=3)
    monkeypatch.setattr(montecarlo, "_run_batch", run_batch)
    assert _document_bytes(compare(_THREE_BATCHES, threads=3)) == expected


def _record_stripes(monkeypatch, threads: int) -> dict[int, list[int]]:
    """Route ``_run_batch`` through a wrapper that records the blocks
    each thread runs.  The first batches of the threads - 1 helpers wait
    for each other, so no helper can run two stripes, and the caller's
    first batch waits until they have returned, so a helper that took
    batches from a shared queue would take the caller's next one."""
    ran: dict[int, list[int]] = defaultdict(list)
    helpers_met, helpers_done = threading.Barrier(threads - 1), threading.Semaphore(0)
    run_batch, caller = montecarlo._run_batch, threading.get_ident()

    def recorded(matrix, scenario, error, master_seed, blocks):
        thread = threading.get_ident()
        first = not ran[thread]
        ran[thread].extend(index for index, _ in blocks)
        if thread == caller:
            for _ in range(threads - 1 if first else 0):
                assert helpers_done.acquire(timeout=30), "a helper stripe never ran"
            return run_batch(matrix, scenario, error, master_seed, blocks)
        if first:
            helpers_met.wait(timeout=30)
        tally = run_batch(matrix, scenario, error, master_seed, blocks)
        helpers_done.release()
        return tally

    monkeypatch.setattr(montecarlo, "_run_batch", recorded)
    return ran


@pytest.mark.usefixtures("small_batches")
@pytest.mark.parametrize(
    "threads, caller_blocks, helper_blocks", [(2, [0, 2], [[1]]), (3, [0], [[1], [2]])]
)
def test_stripes_take_batch_s_on_stripe_s_mod_k_and_the_caller_takes_stripe_0(
    helpers, monkeypatch, threads, caller_blocks, helper_blocks
):
    expected = _document_bytes(compare(_THREE_BATCHES, threads=1))
    ran = _record_stripes(monkeypatch, threads)
    assert _document_bytes(compare(_THREE_BATCHES, threads=threads)) == expected
    assert ran.pop(threading.get_ident()) == caller_blocks
    assert sorted(ran.values()) == helper_blocks


@pytest.mark.usefixtures("small_batches")
def test_concurrent_calls_return_the_documents_of_sequential_calls(helpers):
    # Four user threads on two cores, two of them at threads = 2 and two
    # at threads = 3, so the pool grows while calls are using it; a short
    # switch interval makes the threads interleave often.
    expected = _document_bytes(compare(_THREE_BATCHES, threads=1))
    start = threading.Barrier(4)
    documents = {}

    def call(user: int, threads: int) -> None:
        start.wait(timeout=10)
        documents[user] = _document_bytes(compare(_THREE_BATCHES, threads=threads))

    users = [threading.Thread(target=call, args=(user, 2 + user % 2)) for user in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for user in users:
            user.start()
        for user in users:
            user.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(user.is_alive() for user in users)
    assert documents == dict.fromkeys(range(4), expected)


def _batch_plan(config: ExperimentConfig, threads: int, monkeypatch) -> list:
    """The blocks of every batch that ``compare`` runs, in sorted order."""
    plan, run_batch = [], montecarlo._run_batch

    def recorded(matrix, scenario, error, master_seed, blocks):
        plan.append(blocks)
        return run_batch(matrix, scenario, error, master_seed, blocks)

    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_run_batch", recorded)
        compare(config, threads=threads)
    return sorted(plan)


def test_the_batch_plan_is_the_same_at_every_thread_count(monkeypatch):
    # sim-sparse-large's (64, 8) at 448 trials is one batch by the budget;
    # _THREE_BATCHES under a 32 KiB budget is three.
    sparse = _config(**_GOLDEN_CONFIGS["sparse"], seed=1)
    plans = [_batch_plan(sparse, threads, monkeypatch) for threads in (1, 2, 4)]
    assert len(plans[0]) == 1
    assert plans[1] == plans[0] and plans[2] == plans[0]
    monkeypatch.setattr(montecarlo, "_BATCH_BYTES", 1 << 15)
    plans = [_batch_plan(_THREE_BATCHES, threads, monkeypatch) for threads in (1, 2, 4)]
    assert len(plans[0]) == 3
    assert plans[1] == plans[0] and plans[2] == plans[0]


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
    # Simulation takes only regular designs, and says which rule fails.
    for pools, uneven in (
        ([(0, 1, 2), (3, 4), (5,)], "pool sizes differ"),
        ([(0, 1, 2), (3, 4, 5), (0, 1, 3)], "item multiplicities differ"),
        ([(0, 1, 2), (), (2, 3, 4), (0, 4)], "pool sizes and item multiplicities differ"),
    ):
        with pytest.raises(DomainError, match=f"every pool to hold q items and every item to "
                                              f"sit in m pools; the design's {uneven}"):
            ExperimentConfig(scenario=ScenarioParams(rho=0.1, q=3, m=2, n=6),
                             design=PoolingMatrix.from_pools(6, pools), trials=10, master_seed=0)
    with pytest.raises(DomainError):
        run_experiment(_config(3, 2, rho=0.1, trials=100), threads=0)
    # Trial counts, seeds and thread counts are integers: a float or a
    # bool is refused before anything runs.
    for trials, seed in ((10.0, 0), (True, 0), (10, 1.5), (10, 2.0), (10, False)):
        with pytest.raises(DomainError, match="must be an integer"):
            ExperimentConfig(scenario=scenario, design=MultipoolParams(4, 3), trials=trials,
                             master_seed=seed)
    for threads in (2.0, True):
        with pytest.raises(DomainError, match="must be an integer"):
            run_experiment(_config(3, 2, rho=0.1, trials=100), threads=threads)
    # numpy integers are accepted and held as Python ints, so the report
    # serializes them as JSON numbers.
    config = ExperimentConfig(scenario=ScenarioParams(rho=0.1, q=3, m=2, n=9),
                              design=MultipoolParams(3, 2), trials=np.int64(100),
                              master_seed=np.uint64(5))
    document = json.loads(json.dumps(compare(config, threads=np.int64(2)).to_document()))
    assert (document["trials"], document["master_seed"]) == (100, 5)


def test_a_scenario_of_numpy_integers_reaches_the_report_as_json_numbers():
    # numpy floats too: the error rates are exact in float32, so the
    # scenario holds the same Python floats as the reference.
    noise = NoiseModel(np.float32(0.015625), np.float32(0.03125))
    scenario = ScenarioParams(rho=np.float64(0.1), q=np.int64(3), m=np.int64(2), nc=np.int64(1),
                              n=np.int64(9), noise=noise)
    config = ExperimentConfig(scenario=scenario, design=MultipoolParams(3, 2), trials=100,
                              master_seed=5)
    reference = _config(3, 2, 0.1, nc=1, noise=NoiseModel(0.015625, 0.03125), trials=100, seed=5)
    expected = _document_bytes(compare(reference))
    assert _document_bytes(compare(config)) == expected


def test_report_rows_for_outcomes_the_closed_forms_rule_out():
    seen = montecarlo.Estimate(value=0.5, se=0.1, observations=4)
    unseen = montecarlo.Estimate(value=None, se=None, observations=0)
    # A conditional whose closed form has zero mass, yet observed, fails.
    row = montecarlo._value_row("typeI", None, seen, null_se=None)
    assert (row.status, row.passed, row.empirical, row.observations) == ("undefined", False, 0.5, 4)
    # A bound with no sample variance to hold against it passes unchecked.
    row = montecarlo._bound_row("var_T", 10.0, unseen, exact=2.0)
    assert (row.status, row.passed, row.bound, row.exact) == ("unavailable", True, 10.0, 2.0)
    # With no infection ever expected, sensitivity's base has mean 0 and
    # its null standard error is 0.
    scenario = ScenarioParams(rho=0.0, q=3, m=2, n=9)
    moments = exact_moments(scenario)
    assert montecarlo._null_se("sens", 1.0, seen, scenario=scenario, moments=moments,
                               trials=10) == 0.0


def test_partial_final_block_keeps_exact_trial_count():
    stats = run_experiment(_config(4, 3, rho=0.1, trials=33))
    assert stats.trials == 33
    assert stats.mean_positives.observations == 33


# sha256 of json.dumps(compare(config).to_document(), indent=2), captured
# once the batched kernel tallied exactly like the dense per-block oracle
# (helpers.block_tally) on the sparse position draws, and the closed
# forms summed each decoder rate as its own tail and took beta through
# expm1.  A change that keeps every draw, tally and report field must
# match byte for byte.
_GOLDEN_REPORTS = {
    ("dense", 1): "16024e7cf4b1cdd494e6b2ed49db0067dddb75dc908a2ea47e3fabc70d64c594",
    ("dense", 2 ** 64 - 59): "030b5f9dd2f27c61886200ad12d725ae227f97545eb0553f0cd3247c43e82e09",
    ("sparse", 1): "4a5c59fef95cfe4598af087f3b67230f7d292cd553cb84871cc732006a8b9ee7",
    ("sparse", 2 ** 64 - 59): "921351011989b1e42594d7903bc79c619fc8db199ccfc07544299549a098ebae",
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


def _batch_peaks(config: ExperimentConfig, monkeypatch) -> list[int]:
    """The traced peak of every batch of a threads = 1 run, in bytes past
    what was live when the batch started.  An untraced run first does the
    one-time work of a process's first batch, a lazy import."""
    run_experiment(config)
    peaks, run_batch = [], montecarlo._run_batch

    def recorded(*args):
        tally, peak = traced_peak(lambda: run_batch(*args))
        peaks.append(peak)
        return tally

    monkeypatch.setattr(montecarlo, "_run_batch", recorded)
    run_experiment(config)
    return peaks


@pytest.mark.parametrize("name", sorted(_GOLDEN_CONFIGS))
def test_a_batch_holds_near_its_byte_budget(name, monkeypatch):
    # The event passes write into buffers they already hold: dense peaks
    # at about 1.49 MiB and sparse at 1.22 MiB, against a 1 MiB budget.
    peaks = _batch_peaks(_config(**_GOLDEN_CONFIGS[name], seed=1), monkeypatch)
    assert peaks and max(peaks) <= 1.75 * montecarlo._BATCH_BYTES, peaks


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
        "9dc60cbcd3ec664e22b12cc2aaffc47586e503bdadb466be75e5e9a573f67bc3"
    )


def test_a_large_external_design_reports_alike_at_every_thread_count_and_batch_size(
    monkeypatch,
):
    # Three random partitions of 2**16 items into pools of 64, far more
    # items than the q * q = 4096 of a built design.  Its 256 trials are
    # eight blocks of 32, which the byte budget groups into four batches,
    # and the small budget into eight.
    n, q, m = 1 << 16, 64, 3
    rng = np.random.default_rng(2026)
    pools = np.concatenate([rng.permutation(n).reshape(-1, q) for _ in range(m)])
    scenario = ScenarioParams(rho=0.01, q=q, m=m, nc=1, noise=NOISY, n=n)
    config = ExperimentConfig(scenario=scenario, design=PoolingMatrix.from_pools(n, pools),
                              trials=256, master_seed=17)
    baseline = _document_bytes(compare(config, threads=1))
    assert _document_bytes(compare(config, threads=3)) == baseline
    monkeypatch.setattr(montecarlo, "_BATCH_BYTES", 1 << 15)
    assert _document_bytes(compare(config, threads=1)) == baseline


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
                "ratio": ratio_sums(events, base)}

    def estimates(total):
        return (*montecarlo._count_estimates(total["count"]),
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


@settings(max_examples=100, deadline=None)
@given(n=st.one_of(st.integers(1, 40), st.integers(1, 1 << 27)), data=st.data())
def test_ratio_sums_from_the_gram_match_the_direct_sums(n, data):
    # Per trial: I infected, F_n of them missed, FP of the n - I healthy
    # items flagged, so F = I - F_n + FP.
    count = st.integers(0, n)
    infected = np.array(data.draw(st.lists(count, min_size=1, max_size=40)), dtype=np.int64)
    missed = np.array([data.draw(st.integers(0, i)) for i in infected.tolist()], dtype=np.int64)
    false_pos = np.array([data.draw(st.integers(0, n - i)) for i in infected.tolist()],
                         dtype=np.int64)
    flagged = infected - missed + false_pos
    assert montecarlo._ratio_sums(n, infected, flagged, missed) == {
        "sens": ratio_sums(infected - missed, infected),
        "spec": ratio_sums(n - infected - false_pos, n - infected),
        "type_one": ratio_sums(false_pos, flagged),
        "type_two": ratio_sums(missed, n - flagged),
    }


@st.composite
def _simulations(draw):
    """A design and a scenario on it: a built line design, or an external
    one of m random partitions of n = q k items into pools of q."""
    noise = draw(st.sampled_from([NOISELESS, NOISY, NoiseModel(0.3, 0.1)]))
    rho = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    if draw(st.booleans()):
        q, m = draw(st.sampled_from([(2, 1), (3, 4), (4, 2), (5, 3), (7, 2)]))
        matrix = build_multipool(MultipoolParams(q, m))
    else:
        q, k, m = draw(st.integers(2, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
        n = q * k
        orders = [draw(st.permutations(range(n))) for _ in range(m)]
        matrix = PoolingMatrix.from_pools(n, [order[lo : lo + q] for order in orders
                                              for lo in range(0, n, q)])
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
        patch.setattr(montecarlo, "_BATCH_BYTES", batch)
        tally = montecarlo._simulate(matrix, scenario, trials, seed, threads)
        expected = blockwise_tally(matrix, scenario, trials, seed)
    assert tally == expected


# Runs of one, seven and sixteen index rows: loads summed across the
# runs' boundaries, and a last run shorter than the others.
_GATHER_ROWS_CASES = pytest.mark.parametrize("gather_rows", [1, 7, 16])


@_GATHER_ROWS_CASES
@pytest.mark.parametrize(
    "pools,n",
    [
        ([range(300)], 300),  # a pool of 300 items: int32 loads
        ([(0, 1), (1, 2), (0, 2)] * 130, 3),  # items in 260 pools: int32 counts
    ],
)
def test_wide_ragged_designs_tally_like_the_per_block_pipeline(pools, n, gather_rows, monkeypatch):
    # Designs too wide for a byte, in pool size or in multiplicity.  Where
    # an item sits in more than one pool, nc = 1 makes the decode count.
    monkeypatch.setattr(montecarlo, "_GATHER_ROWS", gather_rows)
    matrix = PoolingMatrix.from_pools(n, pools)
    q, m = matrix.pool_size, matrix.multiplicity
    scenario = ScenarioParams(rho=0.5, q=q, m=m, nc=min(1, m - 1), noise=NOISY, n=n)
    tally = montecarlo._simulate(matrix, scenario, 70, 3, 2)
    assert tally == blockwise_tally(matrix, scenario, 70, 3)


@_GATHER_ROWS_CASES
def test_candidate_loads_past_255_are_counted_exactly(gather_rows, monkeypatch):
    monkeypatch.setattr(montecarlo, "_GATHER_ROWS", gather_rows)
    # Every item is infected, so each candidate error on the 300-item pool
    # reads load 300 and is kept at 0.99 * 0.99 ** 300, about 0.05.  A load
    # summed in a byte would wrap to 44 and keep it at about 0.64.  Each
    # kept error clears all 300 items of the one pool.
    matrix = PoolingMatrix.from_pools(300, [range(300)])
    scenario = ScenarioParams(rho=1.0, q=300, m=1, nc=0, noise=NoiseModel(0.01, 0.99), n=300)
    tally = montecarlo._simulate(matrix, scenario, 200, 11, 1)
    assert tally == blockwise_tally(matrix, scenario, 200, 11)


@pytest.mark.parametrize("trials", [64, 65, 300])
@pytest.mark.parametrize("n", [254, 255, 256, 511, 4097])
def test_flag_counts_fold_exactly_at_their_edges(n, trials):
    # At nc = m every item is flagged in every trial, so every byte lane of
    # the flag count holds as many rows as the fold gives it, and a lost or
    # double-counted row, or a padded one, moves the count.
    matrix = PoolingMatrix.from_pools(n, [range(n)])
    scenario = ScenarioParams(rho=0.3, q=n, m=1, nc=1, noise=NOISY, n=n)
    tally = montecarlo._simulate(matrix, scenario, trials, 13, 1)
    assert tally["positives"] == {n: trials}
    assert tally == blockwise_tally(matrix, scenario, trials, 13)


_DESIGNS = {
    "built": build_multipool(MultipoolParams(3, 2)),
    # Six items in two partitions into pools of three.
    "partitions": PoolingMatrix.from_pools(6, [(0, 1, 2), (3, 4, 5), (0, 3, 4), (1, 2, 5)]),
    # Six items: pool 1 is empty and item 5 sits in no pool.
    "ragged": PoolingMatrix.from_pools(6, [(0, 1, 2), (), (2, 3, 4), (0, 4)]),
}


@pytest.mark.parametrize("trials", [1, 63, 64, 65, 127, 128, 129])
@pytest.mark.parametrize("design", ["built", "partitions", "ragged"])
def test_no_bit_past_the_last_trial_and_no_pad_row_is_counted(design, trials):
    # Packed states hold whole 64-trial words: the last word's spare bits
    # must never reach a count, and the pad index of a ragged design, which
    # ExperimentConfig refuses, must never be read as a row.
    matrix = _DESIGNS[design]
    n = matrix.n
    if design == "ragged":
        with pytest.raises(IndexError):
            montecarlo._simulate(matrix, ScenarioParams(rho=0.3, q=3, m=2, n=n), trials, 7, 1)
        return
    # nc = m flags every item in every trial.
    flag_all = ScenarioParams(rho=0.3, q=3, m=2, nc=2, noise=NOISY, n=n)
    tally = montecarlo._simulate(matrix, flag_all, trials, 7, 1)
    assert tally["positives"] == {n: trials}
    assert tally == blockwise_tally(matrix, flag_all, trials, 7)
    # Every item infected, nc = 0: an item is flagged when both of its
    # pools are positive, which they all are.
    all_infected = ScenarioParams(rho=1.0, q=3, m=2, nc=0, noise=NOISELESS, n=n)
    tally = montecarlo._simulate(matrix, all_infected, trials, 7, 1)
    assert tally["positives"] == {n: trials}
    assert tally == blockwise_tally(matrix, all_infected, trials, 7)


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
    _, estimate = montecarlo._count_estimates(histogram)
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


def test_analytic_reports_are_computed_once_per_scenario():
    config = _config(4, 3, rho=0.07, nc=1, noise=NOISY, trials=500, seed=8)
    analytic_report.cache_clear()
    compare(config)
    compare(config, threads=2)
    assert analytic_report.cache_info().misses == 1


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
                              montecarlo._ratio_estimate(tally["sens"]), null_se),
        montecarlo._value_row("typeII", report.type_two,
                              montecarlo._ratio_estimate(tally["type_two"]), null_se),
        montecarlo._value_row("mean_Tfn", report.expected_false_negatives,
                              montecarlo._count_estimates(tally["false_negatives"])[0], null_se),
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
