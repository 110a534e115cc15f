"""Forward-model kernels: pool loads, noise, decode counts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipool.analytics import ScenarioParams
from multipool.design import MultipoolParams, PoolingMatrix, build_multipool
from multipool.errors import DomainError
from multipool.model import (
    NOISELESS,
    NoiseModel,
    SeedSpec,
    negative_probabilities,
    pool_loads,
    positive_pool_counts,
)

from helpers import dense_gather_sums, ncomp_flags


def test_noise_model_validation():
    assert NOISELESS.noiseless
    assert not NoiseModel(0.0, 0.5).noiseless
    with pytest.raises(DomainError):
        NoiseModel(-0.01, 0.0)
    with pytest.raises(DomainError):
        NoiseModel(0.0, 1.5)
    # A rate is a real number: a bool, a string or NaN is refused.
    for rate in (True, "0.1", float("nan"), None):
        with pytest.raises(DomainError):
            NoiseModel(rate, 0.0)
        with pytest.raises(DomainError):
            NoiseModel(0.0, rate)
    # A scenario's noise is a NoiseModel: a pair of rates, None or one
    # rate is refused when the scenario is built.
    for noise in ((0.02, 0.02), None, 0.02):
        with pytest.raises(DomainError, match="noise must be a NoiseModel"):
            ScenarioParams(rho=0.1, q=4, m=2, noise=noise)


def test_numpy_error_rates_are_held_as_python_floats():
    noise = NoiseModel(np.float32(0.015625), np.float64(0.25))
    assert (type(noise.p_fp), type(noise.p_fn)) == (float, float)
    assert noise == NoiseModel(0.015625, 0.25)
    assert hash(noise) == hash(NoiseModel(0.015625, 0.25))


def test_seed_spec_reproduces_streams():
    first = SeedSpec(7, stream_id=3).rng().random(16)
    second = SeedSpec(7, stream_id=3).rng().random(16)
    other = SeedSpec(7, stream_id=4).rng().random(16)
    assert np.array_equal(first, second)
    assert not np.array_equal(first, other)


def test_seed_spec_validation():
    with pytest.raises(DomainError):
        SeedSpec(-1)
    with pytest.raises(DomainError):
        SeedSpec(2 ** 64)
    with pytest.raises(DomainError):
        SeedSpec(0, stream_id=-1)
    # Seeds and stream ids are integers: a float or a bool is refused,
    # a numpy integer gives the stream of the equal Python int.
    for seed, stream in ((1.5, 0), (2.0, 0), (True, 0), (0, 1.5), (0, 3.0), (0, True)):
        with pytest.raises(DomainError, match="must be an integer"):
            SeedSpec(seed, stream_id=stream)
    assert SeedSpec(np.uint64(7), np.int64(3)).rng().random() == SeedSpec(7, 3).rng().random()
    spec = SeedSpec(np.uint64(2 ** 64 - 1), np.int64(3))
    assert (type(spec.master_seed), type(spec.stream_id)) == (int, int)


def test_pool_loads_hand_example():
    matrix = build_multipool(MultipoolParams(2, 2))
    x = np.array([1, 0, 0, 1], dtype=np.uint8)
    assert pool_loads(matrix, x).tolist() == [1, 1, 2, 0]


def test_pool_loads_stacked_states_match_single_rows():
    matrix = build_multipool(MultipoolParams(4, 3))
    rng = np.random.default_rng(5)
    batch = (rng.random((10, matrix.n)) < 0.3).astype(np.uint8)
    stacked = pool_loads(matrix, batch)
    assert stacked.shape == (10, matrix.t)
    for row, loads in zip(batch, stacked):
        assert np.array_equal(pool_loads(matrix, row), loads)


def test_pool_loads_rejects_wrong_width():
    matrix = build_multipool(MultipoolParams(2, 2))
    with pytest.raises(DomainError):
        pool_loads(matrix, np.zeros(5, dtype=np.uint8))


def test_negative_probabilities_closed_form():
    loads = np.array([0, 1, 2, 5])
    noiseless = negative_probabilities(loads, NOISELESS)
    assert noiseless.tolist() == [1.0, 0.0, 0.0, 0.0]
    certain_alarm = negative_probabilities(loads, NoiseModel(1.0, 0.3))
    assert certain_alarm.tolist() == [0.0, 0.0, 0.0, 0.0]
    noisy = negative_probabilities(loads, NoiseModel(0.05, 0.1))
    assert noisy[0] == pytest.approx(0.95)
    assert noisy[2] == pytest.approx(0.95 * 0.01)
    with pytest.raises(DomainError):
        negative_probabilities(np.array([-1]), NOISELESS)


def test_single_infected_item_is_recovered_exactly():
    matrix = build_multipool(MultipoolParams(3, 3))
    x = np.zeros(9, dtype=np.uint8)
    x[0] = 1
    y = (pool_loads(matrix, x) > 0).astype(np.uint8)
    assert ncomp_flags(matrix, y, m=3, nc=0).tolist() == x.tolist()


def test_decode_extremes():
    matrix = build_multipool(MultipoolParams(3, 3))
    silent = np.zeros(matrix.t, dtype=np.uint8)
    assert ncomp_flags(matrix, silent, m=3, nc=0).sum() == 0
    # nc = m drops the threshold to zero positive pools, flagging everyone.
    assert ncomp_flags(matrix, silent, m=3, nc=3).sum() == matrix.n


def test_decode_validation():
    matrix = build_multipool(MultipoolParams(3, 3))
    with pytest.raises(DomainError):
        positive_pool_counts(matrix, np.zeros(5, dtype=np.uint8))


def test_noiseless_comp_never_misses_an_infected_item():
    rng = np.random.default_rng(1234)
    for q, m in [(3, 2), (4, 3), (5, 4)]:
        matrix = build_multipool(MultipoolParams(q, m))
        for _ in range(50):
            x = (rng.random(matrix.n) < 0.2).astype(np.uint8)
            y = (pool_loads(matrix, x) > 0).astype(np.uint8)
            assert np.all(ncomp_flags(matrix, y, m, nc=0) >= x)


_DECODER_CASES = [(2, 2), (3, 2), (3, 4), (4, 5), (5, 3)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), params=st.sampled_from(_DECODER_CASES))
def test_decoder_is_monotone_in_nc_and_results(seed, params):
    q, m = params
    matrix = build_multipool(MultipoolParams(q, m))
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=matrix.t, dtype=np.uint8)
    flags = [ncomp_flags(matrix, y, m, nc) for nc in range(m + 1)]
    for narrow, wide in zip(flags, flags[1:]):
        assert np.all(narrow <= wide)
    negatives = np.flatnonzero(y == 0)
    if negatives.size:
        raised = y.copy()
        raised[negatives[rng.integers(negatives.size)]] = 1
        for nc in range(m + 1):
            assert np.all(ncomp_flags(matrix, y, m, nc) <= ncomp_flags(matrix, raised, m, nc))


# --- gather kernels against the dense reference -----------------------------


@st.composite
def _designs(draw):
    """A built line design, or a ragged external one whose pools may be
    empty and whose items may sit in no pool."""
    if draw(st.booleans()):
        q, m = draw(st.sampled_from([(2, 1), (3, 2), (4, 5), (5, 3)]))
        return build_multipool(MultipoolParams(q, m))
    n = draw(st.integers(1, 12))
    pools = draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=1, max_size=8))
    return PoolingMatrix.from_pools(n, pools)


def _states(draw, width: int) -> np.ndarray:
    dtype = draw(st.sampled_from([bool, np.uint8, np.int64]))
    shape = draw(st.sampled_from([(width,), (0, width), (3, width), (2, 3, width)]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return (np.random.default_rng(seed).random(shape) < 0.4).astype(dtype)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_gather_kernels_match_the_dense_reference(data):
    matrix = data.draw(_designs())
    x = _states(data.draw, matrix.n)
    loads = pool_loads(matrix, x)
    assert loads.shape == x.shape[:-1] + (matrix.t,)
    assert np.array_equal(loads, dense_gather_sums(x, matrix.pools))
    y = _states(data.draw, matrix.t)
    counts = positive_pool_counts(matrix, y)
    assert counts.shape == y.shape[:-1] + (matrix.n,)
    assert np.array_equal(counts, dense_gather_sums(y, matrix.item_membership))
    # A stack held as the transposed view of a C-contiguous (rows, trials)
    # array sums like its C-contiguous copy.
    for states, kernel, rows in [
        (x, pool_loads, matrix.pools),
        (y, positive_pool_counts, matrix.item_membership),
    ]:
        flat = states.reshape(-1, states.shape[-1])
        view = np.ascontiguousarray(flat.T).T
        assert np.array_equal(kernel(matrix, view), dense_gather_sums(flat, rows))


def test_ragged_design_with_an_empty_pool_and_an_uncovered_item():
    matrix = PoolingMatrix.from_pools(5, [(0, 1, 2), (), (2, 3)])
    assert matrix.pool_size is None
    assert matrix.multiplicity is None
    assert matrix.pools == ((0, 1, 2), (), (2, 3))
    assert matrix.item_membership == ((0,), (0,), (0, 2), (2,), ())
    x = np.ones((2, 5), dtype=np.uint8)
    assert pool_loads(matrix, x).tolist() == [[3, 0, 2]] * 2
    y = np.array([1, 1, 1], dtype=np.uint8)
    assert positive_pool_counts(matrix, y).tolist() == [1, 1, 2, 1, 0]
    assert np.array_equal(positive_pool_counts(matrix, y), dense_gather_sums(y, matrix.item_membership))


def test_sums_of_256_or_more_do_not_wrap():
    wide = PoolingMatrix.from_pools(300, [range(300), (0,)])
    loads = pool_loads(wide, np.ones((4, 300), dtype=bool))
    assert loads.tolist() == [[300, 1]] * 4
    # One item in 300 pools.
    deep = PoolingMatrix.from_pools(1, [(0,)] * 300)
    assert positive_pool_counts(deep, np.ones(300, dtype=np.uint8)).tolist() == [300]


def test_gathers_reject_non_binary_entries():
    matrix = build_multipool(MultipoolParams(2, 2))
    with pytest.raises(DomainError):
        pool_loads(matrix, np.array([0, 2, 0, 1]))
    with pytest.raises(DomainError):
        positive_pool_counts(matrix, np.array([0.5, 0, 0, 1]))


@pytest.mark.parametrize("dtype", [np.uint8, np.int32])
def test_negative_probabilities_equal_np_power_bit_for_bit(dtype):
    q = 64
    loads = np.arange(q + 1, dtype=dtype)
    stacked = np.random.default_rng(0).permutation(np.tile(loads, 3)).reshape(3, q + 1)
    for p_fp in (0.0, 0.02, 0.5, 1.0):
        for p_fn in (0.0, 0.02, 0.5, 1.0):
            noise = NoiseModel(p_fp, p_fn)
            for k in (loads, stacked):
                expected = (1.0 - p_fp) * np.power(p_fn, k, dtype=np.float64)
                got = negative_probabilities(k, noise)
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.uint8, np.int32])
def test_noiseless_pool_results_are_loads_above_zero(dtype):
    # Under exact tests a pool is negative with probability 1 at load 0
    # and 0 above it, so results drawn against uniforms are load > 0.
    loads = np.random.default_rng(2).permutation(np.tile(np.arange(65, dtype=dtype), 8))
    loads = loads.reshape(8, 65)
    u = SeedSpec(9, 4).rng().random(loads.shape)
    u[:2] = [[0.0], [np.nextafter(1.0, 0.0)]]  # both ends of [0, 1)
    drawn = u >= negative_probabilities(loads, NOISELESS)
    assert drawn.tobytes() == (loads > 0).tobytes()
