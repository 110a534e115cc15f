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
positive-pool counts share one gather kernel, which sums int32 rows of
a padded copy, one index row at a time.

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
from .errors import DomainError, require_binary, require_integer, require_probability


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
        object.__setattr__(self, "p_fp", require_probability("p_fp", self.p_fp))
        object.__setattr__(self, "p_fn", require_probability("p_fn", self.p_fn))

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
        seed = require_integer("master_seed", self.master_seed, 0, 2 ** 64 - 1)
        object.__setattr__(self, "master_seed", seed)
        object.__setattr__(self, "stream_id", require_integer("stream_id", self.stream_id, 0))

    def rng(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id,))
        # What default_rng(seq) builds, without its argument dispatch.
        return np.random.Generator(np.random.PCG64(seq))


def _index_sums(values: np.ndarray, index: np.ndarray, what: str) -> np.ndarray:
    """``out[..., i] = values[..., index[:, i]].sum(-1)`` in int32, for
    0/1 ``values``.

    The rows of ``values`` become the columns of a (width + 1, rows)
    int32 copy whose last row is zero; an index entry equal to the width
    is padding and reads that row.
    """
    width = values.shape[-1]
    flat = values.reshape(-1, width)
    require_binary(what, flat)
    columns = np.zeros((width + 1, flat.shape[0]), dtype=np.int32)
    columns[:width] = flat.T
    sums = np.zeros((index.shape[1], flat.shape[0]), dtype=np.int32)
    for row in index:
        sums += columns.take(row, axis=0)
    return sums.T.reshape(values.shape[:-1] + (index.shape[1],))


def pool_loads(matrix: PoolingMatrix, x: np.ndarray) -> np.ndarray:
    """Number of infected items per pool, in int32; accepts (..., n)
    stacked 0/1 states."""
    x = np.asarray(x)
    if x.shape[-1] != matrix.n:
        raise DomainError(f"state has {x.shape[-1]} items, matrix expects {matrix.n}")
    return _index_sums(x, matrix.pool_rows, "infection states")


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
    """Per item, how many of its pools tested positive, in int32; accepts
    (..., t) stacked 0/1 results."""
    y = np.asarray(y)
    if y.shape[-1] != matrix.t:
        raise DomainError(f"results cover {y.shape[-1]} pools, matrix has {matrix.t}")
    return _index_sums(y, matrix.member_rows, "pool results")
