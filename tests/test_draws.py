"""The sparse Bernoulli draw: success positions by geometric skips."""

import math

import numpy as np
import pytest

from multipool import montecarlo
from multipool.model import SeedSpec

from helpers import reference_positions

RATES = (1e-4, 0.01, 0.1, 0.5, 0.9)
# Standard normal quantile of 0.9995 and of 0.999.
Z_TWO_SIDED = 3.2905
Z_UPPER = 3.0902


def _chi_square_limit(df: int) -> float:
    """Upper 99.9 % point of chi-square(df), Wilson-Hilferty."""
    return df * (1 - 2 / (9 * df) + Z_UPPER * math.sqrt(2 / (9 * df))) ** 3


def _gap_chi_square(gaps: np.ndarray, rate: float) -> tuple[float, int]:
    """Chi-square statistic and degrees of freedom of gaps against the
    geometric law P(g = k) = (1 - rate)**(k - 1) * rate, in about 20
    bins of equal probability."""
    cdf = lambda k: -math.expm1(k * math.log1p(-rate))  # noqa: E731
    edges = sorted({math.ceil(math.log1p(-j / 20) / math.log1p(-rate)) for j in range(1, 20)})
    edges = [e for e in edges if e >= 1]
    observed, expected, low = [], [], 0
    for edge in edges + [math.inf]:
        observed.append(int(((gaps > low) & (gaps <= edge)).sum()))
        expected.append(gaps.size * ((1.0 if edge == math.inf else cdf(edge)) - cdf(low)))
        low = edge
    # Fold bins expected below 5 into their left neighbour.
    bins = [[observed[0], expected[0]]]
    for o, e in zip(observed[1:], expected[1:]):
        if e < 5 or bins[-1][1] < 5:
            bins[-1][0] += o
            bins[-1][1] += e
        else:
            bins.append([o, e])
    statistic = sum((o - e) ** 2 / e for o, e in bins)
    return statistic, len(bins) - 1


def _draw(rate: float, size: int, seed: int = 1) -> np.ndarray:
    return montecarlo.positions(SeedSpec(seed, 0).rng(), size, rate)


@pytest.mark.parametrize("rate", RATES)
def test_success_count_and_gaps_follow_the_bernoulli_law(rate):
    size = math.ceil(5000 / rate)
    found = _draw(rate, size)
    assert found.dtype == np.int64
    assert found.size == 0 or (found[0] >= 0 and found[-1] < size)
    assert (np.diff(found) > 0).all()

    mean, sd = size * rate, math.sqrt(size * rate * (1 - rate))
    assert abs(found.size - mean) <= Z_TWO_SIDED * sd + 1

    gaps = np.diff(found, prepend=-1)
    statistic, df = _gap_chi_square(gaps, rate)
    assert df >= 1
    assert statistic <= _chi_square_limit(df), (statistic, df)


@pytest.mark.parametrize("rate", RATES)
@pytest.mark.parametrize("chunk", [1, 7])
def test_later_chunks_continue_the_same_positions(rate, chunk):
    # The chunk only decides how many exponentials are drawn at a time;
    # the stream gives the same ones however they are split, so small
    # chunks, which force many of them, must find the same positions.
    size = math.ceil(300 / rate)
    whole = _draw(rate, size, seed=3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_gap_chunk", lambda size, rate: chunk)
        chunked = _draw(rate, size, seed=3)
    np.testing.assert_array_equal(chunked, whole)
    assert whole.size > 7


def test_the_chunk_covers_four_standard_deviations():
    assert montecarlo._gap_chunk(10_000, 0.01) == 100 + int(4 * math.sqrt(99)) + 16
    assert montecarlo._gap_chunk(1, 1e-9) == 16


def test_edge_rates_and_sizes_draw_nothing():
    for rate, size, expected in [(0.0, 100, []), (1.0, 5, [0, 1, 2, 3, 4]), (0.3, 0, [])]:
        rng = SeedSpec(4, 0).rng()
        found = montecarlo.positions(rng, size, rate)
        assert found.dtype == np.int64
        assert found.tolist() == expected
        assert rng.random() == SeedSpec(4, 0).rng().random()


def test_tiny_rates_stay_inside_int64():
    for rate in (1e-300, 5e-324):
        found = _draw(rate, 1 << 40)
        assert found.size == 0


def _same_draw(rate: float, size: int, seed: int) -> np.ndarray:
    """The package's draw, after checking it bit for bit, and the stream
    state it leaves, against the reference's from the same stream."""
    rng, reference = SeedSpec(seed, 0).rng(), SeedSpec(seed, 0).rng()
    found = montecarlo.positions(rng, size, rate)
    expected = reference_positions(reference, size, rate)
    assert found.dtype == expected.dtype == np.int64
    np.testing.assert_array_equal(found, expected)
    assert rng.random() == reference.random()
    return found


@pytest.mark.parametrize("rate", RATES)
def test_positions_match_the_copying_cast_bit_for_bit(rate):
    # The capped gaps turn into int64 in the exponentials' own buffer;
    # the reference casts them by a copy.
    _same_draw(rate, math.ceil(3000 / rate), seed=5)


@pytest.mark.parametrize("rate", RATES)
def test_positions_match_the_copying_cast_across_many_chunks(rate, monkeypatch):
    monkeypatch.setattr(montecarlo, "_gap_chunk", lambda size, rate: 7)
    assert _same_draw(rate, math.ceil(300 / rate), seed=6).size > 7


def test_positions_match_the_copying_cast_where_the_cap_binds():
    # At rate 1e-6 nearly every gap passes size = 1000 and is capped at
    # it, so the cast reads the cap itself.
    for seed in range(8):
        assert _same_draw(1e-6, 1000, seed).size <= 1


def _streams(seed: int, count: int) -> list[np.random.Generator]:
    return [SeedSpec(seed, index).rng() for index in range(count)]


def _per_stream(seed: int, sizes: list[int], rates: list[float]) -> tuple[list, list]:
    """Reference for one batch's draws: each stream in turn takes its
    positions at every rate by :func:`reference_positions`, then one
    uniform per success at the last rate.  Returns, per rate, the
    positions shifted by the sizes of the streams before, end to end;
    then each stream's uniforms and its next draw."""
    found = [[] for _ in rates]
    uniforms, offset = [], 0
    for rng, size in zip(_streams(seed, len(sizes)), sizes):
        for parts, rate in zip(found, rates):
            last = reference_positions(rng, size, rate)
            parts.append(last + offset)
        uniforms.append((rng.random(last.size), rng.random()))
        offset += size
    return [np.concatenate(parts) for parts in found], uniforms


def _batched(seed: int, sizes: list[int], rates: list[float]) -> tuple[list, list]:
    """The same draws through montecarlo._positions, all streams at once."""
    rngs = _streams(seed, len(sizes))
    found = []
    for rate in rates:
        positions, counts = montecarlo._positions(rngs, sizes, rate)
        assert sum(counts) == positions.size
        found.append(positions)
    uniforms = [(rng.random(count), rng.random()) for rng, count in zip(rngs, counts)]
    return found, uniforms


def _assert_same_draws(seed: int, sizes: list[int], rates: list[float]) -> list:
    found, uniforms = _batched(seed, sizes, rates)
    expected, expected_uniforms = _per_stream(seed, sizes, rates)
    for got, want in zip(found, expected):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
    for (got, after), (want, expected_after) in zip(uniforms, expected_uniforms):
        np.testing.assert_array_equal(got, want)
        assert after == expected_after
    return found


@pytest.mark.parametrize("rate", RATES)
def test_a_batch_of_streams_draws_what_each_stream_draws_alone(rate):
    # A shorter last stream, as the last block of an experiment may be.
    sizes = [math.ceil(400 / rate)] * 4 + [math.ceil(90 / rate)]
    found = _assert_same_draws(7, sizes, [rate])[0]
    assert (np.diff(found) > 0).all() and found[-1] < sum(sizes)


@pytest.mark.parametrize("rate", [0.01, 0.3])
def test_a_middle_stream_that_needs_a_second_chunk_continues_on_its_own_stream(rate, monkeypatch):
    # The middle stream's chunk is too short for its size, so it draws
    # further chunks; the streams around it draw one chunk each.
    sizes = [math.ceil(300 / rate), math.ceil(500 / rate), math.ceil(300 / rate)]
    chunk = montecarlo._gap_chunk
    monkeypatch.setattr(montecarlo, "_gap_chunk",
                        lambda size, rate: 7 if size == sizes[1] else chunk(size, rate))
    _assert_same_draws(8, sizes, [rate])


def test_under_noise_each_stream_draws_its_candidates_and_uniforms_after_its_infections(
    monkeypatch,
):
    # Infections at 0.05, then candidate errors at 0.02, then one uniform
    # per candidate, from each of three streams; the middle stream's
    # infections need more than one chunk before its candidates start.
    sizes = [3000, 5000, 3000]
    chunk = montecarlo._gap_chunk
    monkeypatch.setattr(montecarlo, "_gap_chunk",
                        lambda size, rate: 9 if (size, rate) == (5000, 0.05) else chunk(size, rate))
    infections, candidates = _assert_same_draws(9, sizes, [0.05, 0.02])
    assert infections.size > 300 and candidates.size > 100


@pytest.mark.parametrize("rate,expected", [(0.0, []), (1.0, list(range(9)))])
def test_a_batch_at_rate_0_or_1_draws_nothing(rate, expected):
    rngs = _streams(4, 3)
    found, counts = montecarlo._positions(rngs, [2, 4, 3], rate)
    assert found.dtype == np.int64 and found.tolist() == expected
    assert counts == ([0, 0, 0] if rate == 0.0 else [2, 4, 3])
    assert [rng.random() for rng in rngs] == [rng.random() for rng in _streams(4, 3)]
