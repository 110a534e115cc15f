"""Monte Carlo estimation of screening statistics, and comparison of the
estimates against the closed forms.

Blocks fix the randomness: block b holds :func:`_block_size` trials and
draws their infections, then their pool errors, from the stream
(master_seed, b), each as the sorted positions of the rare events
(:func:`positions`).  Batches only group the compute: a batch is a run
of consecutive whole blocks, sized so that its packed states and event
positions take about ``_BATCH_BYTES`` (:func:`_simulate`), whose trials
go through the pool results, the decode and the tally together
(:func:`_run_batch`).  A batch holds only packed states: one row of
uint64 words per item or pool, one bit per trial, into which the
infection positions are set directly.  Each batch returns exact
integers: the Gram matrix of its per-trial counts and, for each
per-trial count (flagged, false positives, false negatives), how many
trials had each value.  Batches merge by integer addition, and the call
then forms its tally once: for each pooled ratio the integer sums of
its per-trial events and bases, their squares and their product, all
read from the merged Gram matrix, and for each count its histogram.
Every estimate is a function of the merged integers, so results are
bit-identical no matter how many threads process the batches, in which
order they finish, or how the blocks group into batches.  The grouping
depends on the design, the scenario and the trial count, never on the
thread count.  With k = min(threads, batches) > 1 the batches are dealt
out in turn to k stripes: the calling thread runs stripe 0 and helper
threads from one executor that lives as long as the process
(``_HELPERS``) run the others, so a call starts a thread only when no
helper is idle.

Conditional proportions (sensitivity and friends) pool item-level events
across trials.  Items within a trial share pools and are therefore
correlated, so next to the naive binomial standard error each estimate
carries a trial-level clustered standard error from the linearized ratio
estimator; the larger of the two is the estimate's standard error.
Comparisons divide by the larger of it and the standard error that the
closed form implies (:func:`compare`).
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, make_dataclass
from functools import lru_cache
from itertools import accumulate, chain
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .analytics import COUNTS, STATISTICS, Mean, Ratio, ScenarioParams, Statistic, Variance
from .analytics import analytic_report, exact_moments
from .design import MultipoolParams, PoolingMatrix, build_multipool
from .errors import DomainError, require_integer
# pool_loads and positive_pool_counts, the dense reference kernels, are
# not called here; bench/tracing.py wraps them under these names.
from .model import SeedSpec, negative_probabilities, pool_loads, positive_pool_counts  # noqa: F401

_BLOCK_TARGET_ELEMENTS = 1 << 24
_BLOCK_MAX = 4096
_BLOCK_MIN = 32
# Bytes per batch, about: a batch groups whole blocks, and a trial
# costs n / 8 bytes of packed item rows plus 8 for each int64 position
# of its expected infections and candidate errors (:func:`_simulate`).
# sim-sparse-large then runs in one batch and sim-dense-small in two, at
# every thread count.  A batch's traced peak stays near this
# (:func:`_run_batch`).
_BATCH_BYTES = 1 << 20
# Index rows per run of a batch's one gather pass, which ORs the pool
# rows and sums the candidate-error loads: _GATHER_ROWS, or fewer where
# a run's gathered rows, or its candidates counted at a word per row,
# would pass one batch's budget, so that a run does not raise the
# batch's peak memory much past what the batch is sized for.  A
# candidate's gather takes one byte per row.
_GATHER_ROWS = 16

# glibc's malloc serves each request at or above its mmap threshold
# (128 KiB at start) with a fresh mapping and unmaps it on free, so every
# batch would fault its arrays in anew.  Over 200 threads = 1 compare
# calls (getrusage; 2 vCPU, numpy 2.4.6) a call took 1204 minor faults
# on sim-dense-small and 208 on sim-sparse-large without this line, 0.1
# and 0 with it, and ran 13-39 % and up to 20 % slower.  Freeing one
# mapped block raises the threshold to that block's size, and batch
# arrays below it (under 0.7 MiB each on both workloads, whose batches
# peak at 1.43 and 0.99 MiB in all) then reuse heap memory.  Elsewhere
# this costs one allocation that is never touched.
np.empty(4 << 20, dtype=np.uint8)


def _block_size(n: int, m: int, q: int) -> int:
    """Trials per block.

    Blocks fix the random streams: block b draws from (master_seed, b),
    so this partition fixes every random draw of an experiment and the
    formula must stay as it is for reports to stay the same.  Batches
    only group whole blocks for the compute and move no draw.
    """
    per_trial = max(1, n * (m + q))
    return max(_BLOCK_MIN, min(_BLOCK_MAX, _BLOCK_TARGET_ELEMENTS // per_trial))


def _gap_chunk(size: int, rate: float) -> int:
    """Gaps drawn at a time by :func:`_positions`: the mean success count
    of ``size`` trials plus four standard deviations, plus 16."""
    mean = size * rate
    return int(mean + 4.0 * math.sqrt(mean * (1.0 - rate))) + 16


def _gaps(draws: np.ndarray, scale: float, cap: int) -> np.ndarray:
    """The gaps floor(min(E * scale, cap)) + 1 of the standard
    exponentials E in ``draws``, as int64 in their own buffer: element i
    is read before it is written, so no second array is allocated."""
    draws *= scale
    np.fmin(draws, cap, out=draws)
    gaps = draws.view(np.int64)
    gaps[...] = draws
    gaps += 1
    return gaps


def _positions(
    rngs: list[np.random.Generator], sizes: list[int], rate: float
) -> tuple[np.ndarray, list[int]]:
    """The sorted positions of the successes among sizes[b] Bernoulli(rate)
    trials drawn from each stream rngs[b], stream b's shifted by the sizes
    of the streams before it, and each stream's success count.  Every
    size is positive, or the sizes sum to 0.

    A stream's gaps to its next success are floor(E * -1 / log1p(-rate))
    + 1 for standard exponentials E (Devroye 1986, ch. X).  They come in
    chunks of :func:`_gap_chunk` exponentials, chunk after chunk while the
    stream's positions fall short of its size, and the rest of its last
    chunk is discarded.  The chunk rule fixes how much of a stream a call
    takes and so every later draw: like :func:`_block_size` it must stay
    as it is for reports to stay the same.  Rate 0 draws nothing, and
    rate 1 returns every position without drawing.

    Each stream fills its first chunk into one shared buffer, and the
    gaps and their cumulative sum run once over all of them.  Any gap
    past the end of its stream ends that stream's draw, so capping every
    gap at the largest size moves no position and keeps the sums in
    int64.  A stream whose first chunk falls short, which four standard
    deviations make rare, draws its further chunks from its own stream.
    """
    total = sum(sizes)
    if rate <= 0.0 or total <= 0:
        return np.empty(0, dtype=np.int64), [0] * len(sizes)
    if rate >= 1.0:
        return np.arange(total, dtype=np.int64), list(sizes)
    scale, cap = -1.0 / math.log1p(-rate), max(sizes)
    chunks = [_gap_chunk(size, rate) for size in sizes]
    starts = list(accumulate(chunks, initial=0))
    ends = list(accumulate(sizes))
    gaps = np.empty(starts[-1])
    for rng, lo, hi in zip(rngs, starts, starts[1:]):
        rng.standard_exponential(out=gaps[lo:hi])
    gaps = _gaps(gaps, scale, cap)
    if len(sizes) > 1:
        # Stream b's first gap adds the size of stream b - 1 less the sum
        # of its gaps, so that its positions count on from the end of
        # stream b - 1's.
        used = np.add.reduceat(gaps[: starts[-2]], starts[:-2])
        gaps[starts[1:-1]] += np.subtract(sizes[:-1], used)
    gaps[0] -= 1
    # Summed in place, and a lone stream's positions are not copied: they
    # are the largest arrays of a batch.
    found = np.cumsum(gaps, out=gaps)
    parts, counts = [], []
    for rng, lo, hi, chunk, end in zip(rngs, starts, starts[1:], chunks, ends):
        part = found[lo:hi]
        last = int(part[-1])
        if last < end - 1:
            part = [part]
            while last < end - 1:
                more = _gaps(rng.standard_exponential(chunk), scale, cap)
                more[0] += last
                part.append(np.cumsum(more, out=more))
                last = int(more[-1])
            part = np.concatenate(part)
        count = int(np.searchsorted(part, end))
        parts.append(part[:count])
        counts.append(count)
    return (parts[0] if len(parts) == 1 else np.concatenate(parts)), counts


def positions(rng: np.random.Generator, size: int, rate: float) -> np.ndarray:
    """Sorted positions of the successes among ``size`` Bernoulli(rate)
    trials drawn from ``rng``: :func:`_positions` of one stream."""
    return _positions([rng], [size], rate)[0]


@dataclass(frozen=True)
class Estimate:
    """One empirical quantity with its uncertainty.

    ``value`` is None when the conditioning class never occurred.  For
    pooled proportions ``se`` is the larger of the binomial and clustered
    standard errors and ``observations`` counts conditioning events; for
    means and variances ``se`` is the usual sampling error and
    ``observations`` counts trials.
    """

    value: float | None
    se: float | None
    observations: int
    se_binomial: float | None = None
    se_clustered: float | None = None
    effective_observations: float | None = None

    @property
    def available(self) -> bool:
        return self.value is not None


# The ratios of ``analytics.STATISTICS``, and the histogram that a call
# tallies for each per-trial count of its means, by the count's name and
# index in ``analytics.COUNTS``.
_KINDS = [statistic.kind for statistic in STATISTICS]
_RATIOS = [kind for kind in _KINDS if isinstance(kind, Ratio)]
_HISTOGRAMS = {COUNTS[kind.count]: kind.count for kind in _KINDS if isinstance(kind, Mean)}


def _gram(infected: np.ndarray, flagged: np.ndarray, missed: np.ndarray) -> np.ndarray:
    """The int64 4 x 4 Gram matrix of a batch's columns (1, I, T, T_fn),
    the trial and its infected, flagged and missed counts: one matrix
    product.  Every entry is at most n**2 per trial.  A trial costs at
    least n / 8 bytes of a batch's budget, so a batch holds at most
    8 * ``_BATCH_BYTES`` / n trials plus two blocks, and a block at most
    max(32, 2**24 / n) trials: the entries stay below
    2**23 n + 64 n**2 + 2**25 n, exact in int64 for any n below 2**28.
    Batches merge as Python ints (:func:`_tally`).
    """
    columns = np.stack((np.ones_like(infected), infected, flagged, missed), dtype=np.int64)
    return columns @ columns.T


def _ratio_sums(n: int, gram: list[list[int]]) -> dict[str, Counter]:
    """Exact integer sums for each pooled ratio  sum(a_i) / sum(b_i):
    sum(a), sum(b), sum(a**2), sum(a b), sum(b**2) and the trial count.

    Every event and base is a fixed combination of (n, I, T, T_fp, T_fn)
    (``_RATIOS``), and T_fp = T - I + T_fn, so all of them come from the
    Gram matrix of :func:`_gram`, here as Python ints: quadratic forms,
    which Python ints keep exact.
    """

    def form(u: tuple[int, ...], v: tuple[int, ...]) -> int:
        """u' G v, skipping zero coefficients."""
        return sum(a * b * gram[i][j] for i, a in enumerate(u) if a for j, b in enumerate(v) if b)

    tally, trial = {}, (1, 0, 0, 0)
    for key, *counts in _RATIOS:
        # On the Gram's columns: n is n times the trial column, and T_fp
        # is T - I + T_fn.
        events, base = ((n * c[0], c[1] - c[3], c[2] + c[3], c[4] + c[3]) for c in counts)
        tally[key] = Counter(
            events=form(events, trial),
            base=form(base, trial),
            events_sq=form(events, events),
            cross=form(events, base),
            base_sq=form(base, base),
            trials=gram[0][0],
        )
    return tally


def _histogram(counts: np.ndarray) -> Counter:
    """How many trials had each value of one per-trial count, from the
    count's ``np.bincount``."""
    keys = np.flatnonzero(counts)
    return Counter(dict(zip(keys.tolist(), counts[keys].tolist())))


def _tally(n: int, batches: Iterable[tuple[np.ndarray, list[np.ndarray]]]) -> dict[str, Counter]:
    """The tally of a call from what each of its batches returns
    (:func:`_run_batch`): a Gram matrix (:func:`_gram`) and the bincount
    of each ``_HISTOGRAMS`` count.

    The Gram matrices add as Python ints and the bincounts as int64
    arrays, the shorter into the longer in place; a lone batch adds
    nothing.  The
    ratio sums and the histograms are then formed once.  Every entry is
    an exact integer, so the tally does not depend on how the trials
    group into batches or in which order the batches come."""
    batches = iter(batches)
    gram, counts = next(batches)
    gram = gram.tolist()
    for more_gram, more_counts in batches:
        gram = [[a + b for a, b in zip(row, more)] for row, more in zip(gram, more_gram.tolist())]
        for index, more in enumerate(more_counts):
            total = counts[index]
            if total.size < more.size:
                total, more = more, total
            total[: more.size] += more
            counts[index] = total
    return {
        **_ratio_sums(n, gram),
        **{key: _histogram(total) for key, total in zip(_HISTOGRAMS, counts)},
    }


def _ratio_estimate(sums: Counter) -> Estimate:
    events, base, trials = sums["events"], sums["base"], sums["trials"]
    if base == 0:
        return Estimate(value=None, se=None, observations=0)
    p = events / base
    se_binomial = math.sqrt(max(0.0, p * (1.0 - p)) / base)
    # Linearized (cluster-robust) variance of the ratio, trials as clusters:
    # sum((a_i - p * b_i)^2) expanded from exact cross moments.
    residual_sq = sums["events_sq"] - 2.0 * p * sums["cross"] + p * p * sums["base_sq"]
    if trials > 1:
        residual_sq *= trials / (trials - 1)
    se_clustered = math.sqrt(max(0.0, residual_sq)) / base
    se = max(se_binomial, se_clustered)
    if se_clustered > 0.0:
        effective = base * (se_binomial / se_clustered) ** 2
    else:
        effective = float(base)
    return Estimate(
        value=p,
        se=se,
        observations=base,
        se_binomial=se_binomial,
        se_clustered=se_clustered,
        effective_observations=effective,
    )


def _count_estimates(histogram: Counter) -> tuple[Estimate, Estimate]:
    """The mean and variance estimates of one per-trial count, from one
    pass over its histogram.

    From the integer power sums s_k of the values over the n trials, the
    centred values (n v - s1) / n have the integer power sums
    d2 = n**2 s2 - n s1**2 and
    d4 = n**4 s4 - 4 n**3 s1 s3 + 6 n**2 s1**2 s2 - 3 n s1**4, over n**2
    and n**4.  Each estimate is one quotient of Python ints, and int / int
    rounds correctly, so every float is the exact rational rounded once.
    """
    n = s1 = s2 = s3 = s4 = 0
    for value, trials in histogram.items():
        n += trials
        term = trials * value
        s1 += term
        term *= value
        s2 += term
        term *= value
        s3 += term
        s4 += term * value
    d2 = n * (n * s2 - s1 * s1)
    d4 = n * (n * (n * (n * s4 - 4 * s1 * s3) + 6 * s1 * s1 * s2) - 3 * s1 ** 4)
    # The sample variance is d2 / (n**2 (n - 1)), and the mean's sampling
    # variance that over n.
    se = math.sqrt(d2 / (n ** 3 * (n - 1))) if n > 1 else 0.0
    mean_estimate = Estimate(value=s1 / n, se=se, observations=n)
    if n < 2:
        return mean_estimate, Estimate(value=None, se=None, observations=n)
    # Sampling variance of the sample variance via the plug-in fourth
    # central moment m4 = d4 / n**5:
    # (m4 - var**2 (n - 3) / (n - 1)) / n, over one common denominator.
    se_sq = d4 * (n - 1) ** 3 - n * (n - 3) * d2 * d2
    variance = Estimate(
        value=d2 / (n * n * (n - 1)),
        se=math.sqrt(max(0, se_sq) / (n ** 6 * (n - 1) ** 3)),
        observations=n,
    )
    return mean_estimate, variance


EmpiricalStats = make_dataclass(
    "EmpiricalStats",
    [*((statistic.estimate, Estimate) for statistic in STATISTICS),
     ("trials", int), ("max_false_negatives", int)],
    frozen=True,
    namespace={"__module__": __name__},
)
EmpiricalStats.__doc__ = """Pooled Monte Carlo estimates for one experiment: the ``estimate`` of
    each of ``analytics.STATISTICS``, the trial count and the most false
    negatives of any trial."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully specified simulation: scenario, design, size, seed."""

    scenario: ScenarioParams
    design: MultipoolParams | PoolingMatrix
    trials: int
    master_seed: int

    def __post_init__(self):
        # Held as Python ints, which the report serializes as JSON numbers.
        object.__setattr__(self, "trials", require_integer("trial count", self.trials, 1))
        object.__setattr__(self, "master_seed", SeedSpec(self.master_seed).master_seed)
        scenario = self.scenario
        if scenario.n is None:
            raise DomainError("simulation needs the item count n in the scenario")
        design = self.design
        if isinstance(design, MultipoolParams):
            shape = (design.q, design.m, design.n)
        else:
            shape = (design.pool_size, design.multiplicity, design.n)
            uneven = [what for what, common in zip(("pool sizes", "item multiplicities"), shape)
                      if common is None]
            if uneven:
                raise DomainError("simulation needs every pool to hold q items and every item to "
                                  f"sit in m pools; the design's {' and '.join(uneven)} differ")
        if shape != (scenario.q, scenario.m, scenario.n):
            raise DomainError(
                f"design has (q, m, n) = {shape}, scenario has "
                f"({scenario.q}, {scenario.m}, {scenario.n})"
            )

    def matrix(self) -> PoolingMatrix:
        if isinstance(self.design, PoolingMatrix):
            return self.design
        return build_multipool(self.design)


def _packed(rows: int, span: int, bit: np.ndarray) -> np.ndarray:
    """(rows, span / 64) uint64 rows with the distinct flat bits ``bit``
    set, bit b being bit b & 63 of word b >> 6.  One unbuffered add sets
    them all: distinct bits add without a carry.

    Consumes ``bit``: it is shifted in place into word indexes, and the
    one-hot words take the one scratch array of its size that the pass
    allocates."""
    words = np.zeros((rows, span // 64), dtype=np.uint64)
    one = np.bitwise_and(bit, 63).view(np.uint64)
    np.left_shift(1, one, out=one)
    bit >>= 6
    np.add.at(words.reshape(-1), bit, one)
    return words


def _slot_bits(positions: np.ndarray, rows: int, span: int) -> np.ndarray:
    """Bit (g % rows) * span + g // rows of the packed rows for each
    trial-major position g among ``rows`` slots per trial: slot g % rows
    of trial g // rows.  Formed in place, consuming ``positions``."""
    trial = positions // rows
    positions *= span
    trial *= rows * span - 1
    positions -= trial
    return positions


def _infections(
    rngs: list[np.random.Generator], counts: list[int], n: int, rho: float, span: int
) -> tuple[np.ndarray, np.ndarray]:
    """The packed item rows, (n, span / 64) uint64, and each trial's
    infected count, from the infections that each block's stream draws
    first: their positions among its count * n item-trials, trial-major.

    A binary search of the trials' bounds gives the counts, and
    :func:`_slot_bits` places the positions that :func:`_packed` sets."""
    bit = _positions(rngs, [count * n for count in counts], rho)[0]
    infected = np.diff(np.searchsorted(bit, np.arange(sum(counts) + 1) * n))
    return _packed(n, span, _slot_bits(bit, n, span)), infected


def _pool_results(
    xp: np.ndarray,
    pool_rows: np.ndarray,
    rngs: list[np.random.Generator],
    counts: list[int],
    error: np.ndarray,
) -> np.ndarray:
    """The packed pool results, (t, words) uint64, of the item rows
    ``xp``: a pool's result is (load > 0) XOR error, and ``error`` is its
    error rate by load k = 0..q, p_fp at 0 and (1 - p_fp) * p_fn ** k.

    Each block's stream then draws its candidate errors among its
    count * t pool-trials at the largest rate r*, and one uniform per
    candidate, which keeps it with probability (its error rate) / r*.
    One pass over runs of index rows gathers each run of item rows once:
    a pool's row is the OR of its items' rows, and each candidate's load
    the sum of its trial's bits in its pool's rows, each read from the
    one byte that holds it and summed in a byte while pools hold fewer
    than 256 items.  At r* = 0 no candidate is drawn or read.
    """
    t, words = pool_rows.shape[1], xp.shape[1]
    span = words * 64
    top = float(error.max())
    yp = np.zeros((t, words), dtype=np.uint64)
    row_bytes = yp.nbytes
    if top > 0.0:
        bit, kept = _positions(rngs, [count * t for count in counts], top)
        draws = np.empty(bit.size)
        for rng, lo, hi in zip(rngs, accumulate(kept, initial=0), accumulate(kept)):
            rng.random(out=draws[lo:hi])
        # Each candidate's bit b of the pool rows is bit b & 7 of byte
        # b >> 3 of each gathered slice of rows, read as little-endian
        # bytes.
        bit = _slot_bits(bit, t, span)
        byte = bit >> 3
        # The cast keeps the low byte, whose low three bits are b & 7.
        shift = bit.astype(np.uint8)
        shift &= 7
        load = np.zeros(bit.size, dtype=np.uint8 if pool_rows.shape[0] < 256 else np.intp)
        # Counted as a word per candidate and row, though a run gathers
        # one byte: a smaller count would lengthen the runs and let the
        # gathered rows raise the batch's peak.
        row_bytes = max(row_bytes, 8 * bit.size)
    step = min(_GATHER_ROWS, max(1, _BATCH_BYTES // row_bytes))
    for lo in range(0, pool_rows.shape[0], step):
        rows = xp.take(pool_rows[lo : lo + step], axis=0)
        yp |= np.bitwise_or.reduce(rows, axis=0)
        if top > 0.0:
            bits = rows.view(np.uint8).reshape(rows.shape[0], -1).take(byte, axis=1)
            bits >>= shift
            bits &= 1
            load += bits.sum(axis=0, dtype=load.dtype)
        # Freed so that the next run's gather reuses its memory: held, it
        # cost about 1 % of a (64, 8) batch on a 2-vCPU Xeon.
        del rows
    if top > 0.0:
        # The kept errors flip their pools' bits: distinct bits, set in
        # rows of their own and flipped by one XOR.
        draws *= top
        keep = draws < error.take(load)
        yp ^= _packed(t, span, bit[keep])
    return yp


def _decode(yp: np.ndarray, member_rows: np.ndarray, nc: int) -> np.ndarray:
    """The packed flags, (n, words) uint64, of the pool results: an item
    is flagged when at most nc of its m pools are negative, the rule of
    ``model.positive_pool_counts``.  With nc = m every item is flagged."""
    # A bit-sliced counter of negative rows, saturating one past nc.
    # below[k]: the trials in which at most k of the rows read so far
    # were negative.  Until k rows are read that is every trial, so level
    # k first forms after k rows, as below[k - 1] | positive.
    below = [yp.take(member_rows[0], axis=0)]
    for column in member_rows[1:]:
        positive = yp.take(column, axis=0)
        read = len(below)
        if read <= nc:
            below.append(below[-1] | positive)
        for k in range(read - 1, 0, -1):
            below[k] &= below[k - 1] | positive
        below[0] &= positive
    return below[nc] if nc < len(below) else np.full_like(below[0], ~np.uint64(0))


def _flag_counts(flags: np.ndarray, trials: int) -> np.ndarray:
    """Each trial's flagged count, int64, of the packed flags.

    Each unpacked byte is one item's bit of one trial, and adding
    unpacked rows as uint64 words adds eight byte lanes at once, exact
    while no lane passes 255.  Rows fold into super-rows of ``fold``
    rows, about 4 KiB, so that the adds run along long rows; a run of at
    most 255 super-rows, about 256 KiB, is unpacked at a time,
    zero-padded to whole super-rows, and its lanes fold back into trials
    as wider sums.  No bit past the last trial is counted."""
    span = flags.shape[1] * 64
    fold = max(1, 4096 // span)
    rows = min(255, max(1, (1 << 18) // (fold * span))) * fold
    flagged = np.zeros(span, dtype=np.int64)
    for lo in range(0, flags.shape[0], rows):
        run = flags[lo : lo + rows]
        bits = np.unpackbits(run.view(np.uint8), count=-(-len(run) // fold) * fold * span,
                             bitorder="little")
        lanes = bits.view(np.uint64).reshape(-1, fold * span // 8).sum(axis=0)
        flagged += lanes.view(np.uint8).reshape(fold, span).sum(axis=0, dtype=np.int64)
    return flagged[:trials]


def _missed(flags: np.ndarray, xp: np.ndarray, trials: int) -> np.ndarray:
    """Each trial's count of items infected in ``xp`` and left unflagged.
    Missed infections are rare, so only the words that hold one are
    unpacked.  Consumes ``flags``: the mask is formed over them."""
    missed = np.invert(flags, out=flags)
    missed &= xp
    missed = missed.reshape(-1)
    words = np.flatnonzero(missed)
    bits = np.unpackbits(missed[words].view(np.uint8), bitorder="little").reshape(-1, 64)
    held, bit = np.nonzero(bits)
    return np.bincount(words[held] % flags.shape[1] * 64 + bit, minlength=trials)


def _run_batch(
    matrix: PoolingMatrix,
    scenario: ScenarioParams,
    error: np.ndarray,
    master_seed: int,
    blocks: list[tuple[int, int]],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The Gram matrix (:func:`_gram`) and the ``np.bincount`` of each
    ``_HISTOGRAMS`` count of a run of consecutive whole (block index,
    trial count) blocks, which :func:`_tally` merges.

    Each block's stream is drawn first by :func:`_infections` and then by
    :func:`_pool_results`, whose results go through :func:`_decode`,
    :func:`_flag_counts` and :func:`_missed`.  Each stage runs once for
    the whole batch, on states packed along the trials: one row of whole
    64-trial uint64 words per item or pool, one bit per trial.  The design
    is regular, as ``ExperimentConfig`` requires: a ragged design fails
    the gathers on its pad index with ``IndexError``.

    Every pass over the event arrays writes into a buffer it already
    holds, and a stage's scratch goes when it returns.  Traced, a batch
    peaks at 1.43 MiB on sim-dense-small's (16, 4) and 0.99 MiB on
    sim-sparse-large's (64, 8), against a ``_BATCH_BYTES`` of 1 MiB, and
    at 3.05 MiB on (64, 65) under noise, where the gather run's rows,
    capped at the budget, and the candidates' bits, bytes and uniforms
    set the peak.
    """
    rngs = [SeedSpec(master_seed, index).rng() for index, _ in blocks]
    counts = [count for _, count in blocks]
    trials = sum(counts)
    xp, infected = _infections(rngs, counts, matrix.n, scenario.rho, -(-trials // 64) * 64)
    yp = _pool_results(xp, matrix.pool_rows, rngs, counts, error)
    flags = _decode(yp, matrix.member_rows, scenario.nc)
    flagged = _flag_counts(flags, trials)
    false_neg = _missed(flags, xp, trials)
    false_pos = flagged - infected + false_neg
    columns = (infected, flagged, false_pos, false_neg)
    return (
        _gram(infected, flagged, false_neg),
        [np.bincount(columns[index]) for index in _HISTOGRAMS.values()],
    )


# The helper threads that every multi-batch simulation shares.  The
# executor starts a thread only when a call submits a stripe and no
# thread is idle, so creating it starts none, and its threads live as
# long as the process: each keeps one malloc arena warm from call to
# call.  ``max_workers`` is a cap no call reaches: a call submits
# min(threads, batches) - 1 stripes.  It stays unbounded because a
# caller waits for each of its stripes, so a stripe queued behind other
# calls' work would hold the caller up.
_HELPERS = ThreadPoolExecutor(max_workers=sys.maxsize, thread_name_prefix="multipool")


def _simulate(
    matrix: PoolingMatrix,
    scenario: ScenarioParams,
    trials: int,
    master_seed: int,
    threads: int,
) -> dict[str, Counter]:
    """The merged tally of ``trials`` trials.

    Block b of :func:`_block_size` trials draws from the stream
    (master_seed, b).  Consecutive blocks are grouped into batches of
    about ``_BATCH_BYTES`` each, never more batches than blocks: a trial
    counts n / 8 bytes for its packed item rows and 8 for each infection
    and candidate error it is expected to draw.  The batches depend on
    the design, the scenario and the trial count only; ``threads`` only
    decides who runs them.  The error-rate table is built once per call.
    Batch s belongs to stripe s mod k, k = min(threads, batches).  The
    stripes 1..k-1 go to ``_HELPERS`` before the calling thread runs
    stripe 0, so the caller keeps its share of the work: a caller left
    idle while helpers ran every batch peaked higher in memory and ran
    fewer trials per second.
    A failure in any stripe reaches the caller; after one in stripe 0
    the helpers finish their stripes and their tallies are dropped.
    """
    block = _block_size(matrix.n, scenario.m, scenario.q)
    blocks = [
        (index, min(block, trials - start))
        for index, start in enumerate(range(0, trials, block))
    ]
    # Error rate by load, and r*, the largest.
    error = negative_probabilities(np.arange(scenario.q + 1), scenario.noise)
    error[0] = scenario.noise.p_fp
    top = float(error.max())
    # A trial's packed item rows, and its expected infections and
    # candidate errors as int64 positions.
    per_trial = matrix.n / 8 + 8 * (matrix.n * scenario.rho + matrix.t * top)
    count = min(len(blocks), math.ceil(trials * per_trial / _BATCH_BYTES))
    cuts = [len(blocks) * k // count for k in range(count + 1)]
    batches = [blocks[lo:hi] for lo, hi in zip(cuts, cuts[1:])]

    def stripe(first: int) -> list[tuple[np.ndarray, list[np.ndarray]]]:
        return [
            _run_batch(matrix, scenario, error, master_seed, batch)
            for batch in batches[first::stripes]
        ]

    stripes = min(threads, len(batches))
    helpers = _HELPERS.map(stripe, range(1, stripes))
    return _tally(matrix.n, chain(stripe(0), *helpers))


def run_experiment(config: ExperimentConfig, threads: int = 1) -> EmpiricalStats:
    """Simulate config.trials rounds and pool the tallies.

    ``threads`` only deals the batches of blocks out in turn to the
    calling thread and up to threads - 1 helper threads, which persist
    from call to call; the estimates are identical for every thread
    count because block seeding and the integer accumulations do not
    depend on scheduling.
    """
    threads = require_integer("thread count", threads, 1)
    tally = _simulate(config.matrix(), config.scenario, config.trials, config.master_seed, threads)
    counts = {key: _count_estimates(tally[key]) for key in _HISTOGRAMS}

    def estimate(kind: Ratio | Mean | Variance) -> Estimate:
        if isinstance(kind, Ratio):
            return _ratio_estimate(tally[kind.tally])
        mean, variance = counts[COUNTS[kind.count]]
        return variance if isinstance(kind, Variance) else mean

    return EmpiricalStats(
        **{statistic.estimate: estimate(statistic.kind) for statistic in STATISTICS},
        trials=config.trials,
        max_false_negatives=max(tally["false_negatives"]),
    )


@dataclass(frozen=True)
class ComparisonRow:
    """One statistic set side by side with its closed form.

    ``kind`` is "z" for value comparisons and "bound" for one-sided
    variance checks.  ``status`` is "ok" when both sides exist,
    "unavailable" when the empirical side has no observations,
    "undefined" when the analytic side does not exist, and
    "not_applicable" when the closed form has no claim to make.  A z row
    divides by ``se``, the larger of ``se_sample``, the standard error
    estimated from the trials, and ``se_null``, the one the closed form
    implies (see :func:`compare`).  ``exact`` is a var row's exact
    variance on a built design.
    """

    statistic: str
    kind: str
    status: str
    passed: bool
    analytic: float | None = None
    empirical: float | None = None
    se: float | None = None
    z: float | None = None
    bound: float | None = None
    slack: float | None = None
    observations: int = 0
    se_sample: float | None = None
    se_null: float | None = None
    exact: float | None = None


@dataclass(frozen=True)
class ComparisonReport:
    scenario: ScenarioParams
    trials: int
    master_seed: int
    rows: tuple[ComparisonRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_document(self) -> dict:
        scenario = self.scenario
        return {
            "q": scenario.q,
            "m": scenario.m,
            "nc": scenario.nc,
            "rho": scenario.rho,
            "p_fp": scenario.noise.p_fp,
            "p_fn": scenario.noise.p_fn,
            "n": scenario.n,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "passed": self.passed,
            "rows": [asdict(row) for row in self.rows],
        }


# A z row fails beyond this many standard errors.
_Z_GATE = 4.0


@lru_cache(maxsize=256)
def _null_variances(scenario: ScenarioParams) -> Mapping[str, tuple[float, float]]:
    """(Var0, E[B]) of each row whose closed form exists, on the design of
    ``analytics.exact_moments``: a mean or var row's Var0 is its count's
    variance, which a var row reports as ``exact``, and its E[B] is 1,
    and a ratio row's, for event and base counts A and B and closed form
    p0, are Var(A - p0 B) and E[B].  They depend on the scenario alone,
    so they are formed once per scenario, like the moments and the closed
    forms they come from, and every caller shares one read-only mapping."""
    moments, report = exact_moments(scenario), analytic_report(scenario)
    variances = {}
    for statistic in STATISTICS:
        kind, p0 = statistic.kind, getattr(report, statistic.field)
        if isinstance(kind, (Mean, Variance)):
            variances[statistic.row] = (moments.cov[kind.count][kind.count], 1.0)
        elif p0 is not None:
            events, base = kind.events, kind.base
            mean_base = base[0] * scenario.n + sum(c * mu for c, mu in zip(base[1:], moments.mean))
            # The n terms are constants, which add nothing to the variance.
            residual = [a - p0 * b for a, b in zip(events[1:], base[1:])]
            variance = sum(
                residual[i] * residual[j] * moments.cov[i][j] for i in range(4) for j in range(4)
            )
            variances[statistic.row] = (variance, mean_base)
    return MappingProxyType(variances)


def _null_se(
    statistic: Statistic,
    analytic: float,
    estimate: Estimate,
    variances: Mapping[str, tuple[float, float]] | None,
    config: ExperimentConfig,
) -> float:
    """Standard error of a z row's estimate when its closed form holds.

    With the ``variances`` of a built design (:func:`_null_variances`) it
    is sqrt(Var0 / trials) / E[B], which for a ratio row is the delta
    method's.  Without them (external designs) it is the binomial floor:
    sqrt(p0 (1 - p0) / base) and sqrt(mu0 (1 - mu0 / n) / trials).
    """
    if variances is None:
        if isinstance(statistic.kind, Mean):
            n = config.scenario.n
            return math.sqrt(max(0.0, analytic * (1.0 - analytic / n)) / config.trials)
        return math.sqrt(max(0.0, analytic * (1.0 - analytic)) / estimate.observations)
    variance, mean_base = variances[statistic.row]
    if mean_base <= 0.0:
        return 0.0
    return math.sqrt(max(0.0, variance) / config.trials) / mean_base


def _row(
    statistic: Statistic,
    analytic: float | None,
    estimate: Estimate,
    variances: Mapping[str, tuple[float, float]] | None,
    config: ExperimentConfig,
) -> ComparisonRow:
    """The report row of one statistic's closed form ``analytic`` and
    ``estimate``, given the :func:`_null_variances` of a built design or
    None for an external one.  A var row is a "bound" row, whose closed
    form is its bound; every other row is a "z" row (see :func:`compare`).
    """
    kind, value = statistic.kind, estimate.value
    bounded = isinstance(kind, Variance)
    if bounded:
        exact = None if variances is None else variances[statistic.row][0]
        fields = dict(kind="bound", bound=analytic, exact=exact)
    else:
        fields = dict(kind="z", analytic=analytic)
    if bounded and analytic is None:
        status, passed = "not_applicable", True
    elif value is None:
        status, passed = ("undefined" if analytic is None else "unavailable"), True
    else:
        fields.update(empirical=value, observations=estimate.observations)
        if analytic is None:
            # The conditional should never have occurred, yet it did.
            status, passed = "undefined", False
        elif bounded:
            slack = 5.0 * (estimate.se or 0.0)
            status, passed = "ok", value <= analytic + slack
            fields.update(slack=slack)
        else:
            diff = value - analytic
            se_null = _null_se(statistic, analytic, estimate, variances, config)
            se = max(estimate.se, se_null)
            if se > 0.0:
                z = diff / se
                passed = abs(z) <= _Z_GATE
            else:
                z = 0.0 if diff == 0.0 else None
                passed = diff == 0.0
            status = "ok"
            fields.update(se=se, z=z, se_sample=estimate.se, se_null=se_null)
    return ComparisonRow(statistic=statistic.row, status=status, passed=passed, **fields)


def compare(config: ExperimentConfig, threads: int = 1) -> ComparisonReport:
    """Run the experiment and gate every closed form against it.

    Value rows fail when |empirical - analytic| exceeds ``_Z_GATE`` = 4
    standard errors, where the standard error is the larger of the one
    estimated from the trials and the one the closed form implies
    (:func:`_null_se`): on a built design (``MultipoolParams``) from the
    exact moments of ``analytics.exact_moments``, on an external design
    from the binomial floor, since its pair structure is unknown.  The
    null side keeps a rare outcome that happens to be seen seldom from
    giving a tiny standard error and a large z.  Variance rows fail when
    the sample variance exceeds the bound by more than five of its own
    standard errors.
    """
    scenario = config.scenario
    report = analytic_report(scenario)
    variances = _null_variances(scenario) if isinstance(config.design, MultipoolParams) else None
    stats = run_experiment(config, threads=threads)
    return ComparisonReport(
        scenario=scenario,
        trials=config.trials,
        master_seed=config.master_seed,
        rows=tuple(
            _row(statistic, getattr(report, statistic.field), getattr(stats, statistic.estimate),
                 variances, config)
            for statistic in STATISTICS
        ),
    )
