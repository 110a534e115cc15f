"""Forward model for pooled screening.

Holds the noise model and the three kernels of one screening round:
:func:`pool_loads` counts the infected items of each pool,
:func:`negative_probabilities` gives each pool's chance of testing
negative under noise, and :func:`positive_pool_counts` counts each
item's positive pools, which the threshold decoder compares with
m - nc.  These are the dense reference for one round: ``montecarlo``
runs the same rules on trial states packed 64 to a word, and reads only
the error-rate table from :func:`negative_probabilities`.

States and results may be stacked, one trial per row.  Pool loads and
positive-pool counts share one trial-minor gather kernel: the trials are
copied to the innermost axis, so each index entry moves a contiguous run
of one byte per trial instead of a single byte.

Randomness is drawn from numpy Generators seeded through
:class:`SeedSpec`, which derives an independent stream from a master
seed and a stream id.  Equal (master_seed, stream_id) pairs reproduce
draws bit for bit regardless of what other streams ran before or
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import PoolingMatrix
from .errors import DomainError


@dataclass(frozen=True)
class NoiseModel:
    """Per-pool error rates: false positive p_fp, false negative p_fn.

    A pool carrying k infected samples tests negative with probability
    (1 - p_fp) * p_fn ** k, with 0 ** 0 = 1, and pools err independently
    given their loads.
    """

    p_fp: float
    p_fn: float

    def __post_init__(self):
        for name, value in (("p_fp", self.p_fp), ("p_fn", self.p_fn)):
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"{name} must lie in [0, 1], got {value}")

    @property
    def noiseless(self) -> bool:
        return self.p_fp == 0.0 and self.p_fn == 0.0


NOISELESS = NoiseModel(0.0, 0.0)


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one independent random stream under a master seed."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < 2 ** 64:
            raise DomainError("master_seed must be a 64-bit unsigned integer")
        if self.stream_id < 0:
            raise DomainError("stream_id must be non-negative")

    def rng(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(seq)


def _index_sums(values: np.ndarray, index: np.ndarray, what: str) -> np.ndarray:
    """``out[..., i] = values[..., index[i]].sum(-1)`` for 0/1 ``values``.

    The rows of ``values`` become the columns of a (width + 1, rows) copy
    whose last row is zero; an index entry equal to the width is padding
    and reads that row.  An index without padding gathers straight from
    a bool or uint8 ``values`` whose transpose is already C-contiguous,
    read as uint8 so that adding its rows casts nothing.
    Sums accumulate one index column at a time, in uint8 when no index
    row has 256 entries, which bounds every sum, and in int32 otherwise.
    """
    width = values.shape[-1]
    flat = values.reshape(-1, width)
    if flat.dtype != bool and ((flat != 0) & (flat != 1)).any():
        raise DomainError(f"{what} must be 0 or 1")
    dtype = np.uint8 if index.shape[1] < 256 else np.int32
    padded = index.shape[1] and (index[:, -1] == width).any()
    if not padded and flat.dtype in (bool, np.uint8) and flat.T.flags.c_contiguous:
        columns = flat.T.view(np.uint8)
    else:
        columns = np.zeros((width + 1, flat.shape[0]), dtype=dtype)
        columns[:width] = flat.T
    sums = np.zeros((index.shape[0], flat.shape[0]), dtype=dtype)
    for k in range(index.shape[1]):
        sums += columns.take(index[:, k], axis=0)
    return sums.T.reshape(values.shape[:-1] + (index.shape[0],))


def pool_loads(matrix: PoolingMatrix, x: np.ndarray) -> np.ndarray:
    """Number of infected items per pool; accepts (..., n) stacked 0/1 states.

    Computed trial-minor; uint8 when every pool has fewer than 256 items,
    int32 otherwise.
    """
    x = np.asarray(x)
    if x.shape[-1] != matrix.n:
        raise DomainError(f"state has {x.shape[-1]} items, matrix expects {matrix.n}")
    return _index_sums(x, matrix.pool_index, "infection states")


def negative_probabilities(loads: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """P(pool tests negative | load k) = (1 - p_fp) * p_fn ** k, read
    from a table over k = 0..max load."""
    loads = np.asarray(loads)
    if loads.dtype.kind not in "iu":
        raise DomainError("pool loads must be integers")
    if loads.min(initial=0) < 0:
        raise DomainError("pool loads must be non-negative")
    # numpy evaluates 0.0 ** 0 as 1.0, which is the convention wanted here.
    table = (1.0 - noise.p_fp) * np.power(noise.p_fn, np.arange(loads.max(initial=0) + 1))
    return table[loads]


def positive_pool_counts(matrix: PoolingMatrix, y: np.ndarray) -> np.ndarray:
    """Per item, how many of its pools tested positive; accepts (..., t)
    stacked 0/1 results.

    Computed trial-minor; uint8 when every item sits in fewer than 256
    pools, int32 otherwise.
    """
    y = np.asarray(y)
    if y.shape[-1] != matrix.t:
        raise DomainError(f"results cover {y.shape[-1]} pools, matrix has {matrix.t}")
    return _index_sums(y, matrix.member_index, "pool results")
