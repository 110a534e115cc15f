"""Shared oracles for the test suite.

Everything in here is deliberately written against the raw definitions,
not against the package's closed forms, so tests can compare two
independent computational routes.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from multipool import model, montecarlo
from multipool.analytics import ScenarioParams
from multipool.design import PoolingMatrix
from multipool.errors import DomainError, MatrixFormatError


def independent_irreducibility(modulus: tuple[int, ...], p: int) -> bool:
    """Irreducibility by exhaustive factor pairing.

    A monic polynomial of degree a factors iff it equals g * h with
    1 <= deg g <= a // 2 and deg h = a - deg g, both monic.  Enumerates
    every such pair and multiplies with numpy's convolution, which shares
    no code with the package's trial-division test.
    """
    a = len(modulus) - 1
    if a == 1:
        return True
    target = np.asarray(modulus, dtype=np.int64)
    for d in range(1, a // 2 + 1):
        for g_low in itertools.product(range(p), repeat=d):
            g = np.asarray(list(g_low) + [1], dtype=np.int64)
            for h_low in itertools.product(range(p), repeat=a - d):
                h = np.asarray(list(h_low) + [1], dtype=np.int64)
                product = np.convolve(g, h) % p
                if np.array_equal(product, target):
                    return False
    return True


def all_states(n: int) -> np.ndarray:
    """Every binary infection vector of length n, as a (2**n, n) array."""
    states = np.array(list(itertools.product([0, 1], repeat=n)), dtype=np.uint8)
    return states


def state_weights(states: np.ndarray, rho: float) -> np.ndarray:
    infected = states.sum(axis=1)
    n = states.shape[1]
    return rho ** infected * (1.0 - rho) ** (n - infected)


def ncomp_flags(matrix: PoolingMatrix, y: np.ndarray, m: int, nc: int) -> np.ndarray:
    """Threshold decode of stacked 0/1 pool results: flag an item when at
    most nc of its m pools tested negative."""
    return (model.positive_pool_counts(matrix, y) >= m - nc).astype(np.uint8)


def decode_states(matrix: PoolingMatrix, states: np.ndarray, m: int, nc: int) -> np.ndarray:
    """Noiseless pipeline applied to a stack of states: loads, exact pool
    results, threshold decode."""
    y = (model.pool_loads(matrix, states) > 0).astype(np.uint8)
    return ncomp_flags(matrix, y, m, nc)


@dataclass(frozen=True)
class ExactStats:
    per_item_sensitivity: np.ndarray
    per_item_specificity: np.ndarray
    expected_positives: float
    expected_false_positives: float
    var_positives: float
    var_false_positives: float


def exact_noiseless_stats(matrix: PoolingMatrix, rho: float, m: int, nc: int = 0) -> ExactStats:
    """Exact statistics by probability-weighted enumeration of all 2**n
    infection states under exact tests."""
    states = all_states(matrix.n)
    weights = state_weights(states, rho)
    z = decode_states(matrix, states, m, nc)
    positives = z.sum(axis=1)
    false_positives = ((1 - states) * z).sum(axis=1)
    e_pos = float(weights @ positives)
    e_fp = float(weights @ false_positives)
    var_pos = float(weights @ (positives - e_pos) ** 2)
    var_fp = float(weights @ (false_positives - e_fp) ** 2)
    sens = (weights[:, None] * (states * z)).sum(axis=0) / rho
    spec = (weights[:, None] * ((1 - states) * (1 - z))).sum(axis=0) / (1.0 - rho)
    return ExactStats(
        per_item_sensitivity=sens,
        per_item_specificity=spec,
        expected_positives=e_pos,
        expected_false_positives=e_fp,
        var_positives=var_pos,
        var_false_positives=var_fp,
    )


def exact_pivotal_probability(
    matrix: PoolingMatrix, rho: float, m: int, item: int, other: int
) -> float:
    """P(raising ``other`` from healthy to infected flips ``item`` from a
    negative decode to a positive one), noiseless, nc = 0, by enumeration.

    The event depends only on the remaining items, so enumerating full
    states and toggling ``other`` marginalizes it out exactly.
    """
    states = all_states(matrix.n)
    weights = state_weights(states, rho)
    low = states.copy()
    low[:, other] = 0
    high = states.copy()
    high[:, other] = 1
    z_low = decode_states(matrix, low, m, nc=0)[:, item]
    z_high = decode_states(matrix, high, m, nc=0)[:, item]
    flipped = (z_low == 0) & (z_high == 1)
    return float(weights @ flipped)


FANO_POOLS = (
    (0, 1, 2),
    (0, 3, 4),
    (0, 5, 6),
    (1, 3, 5),
    (1, 4, 6),
    (2, 3, 6),
    (2, 4, 5),
)


def fano_matrix() -> PoolingMatrix:
    """The 7-point, 7-line plane: pool size 3, multiplicity 3, n = 7."""
    return PoolingMatrix.from_pools(7, FANO_POOLS)


def parse_matrix_csv_per_cell(text: str) -> PoolingMatrix:
    """Reference CSV reader for ``design.parse_matrix_csv``: it splits
    every line into cells and strips and checks each cell on its own."""
    rows: list[list[int]] = []
    width: int | None = None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for line_no, line in enumerate(lines, start=1):
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise MatrixFormatError(
                f"row has {len(cells)} columns, expected {width}", line=line_no, column=1
            )
        row = []
        for col_no, cell in enumerate(cells, start=1):
            value = cell.strip()
            if value not in ("0", "1"):
                raise MatrixFormatError(
                    f"non-binary entry {cell!r}", line=line_no, column=col_no
                )
            row.append(int(value))
        rows.append(row)
    if not rows:
        raise MatrixFormatError("empty design file", line=1, column=1)
    try:
        return PoolingMatrix.from_dense(np.asarray(rows, dtype=np.uint8))
    except DomainError as exc:
        raise MatrixFormatError(str(exc)) from exc


def dense_gather_sums(values: np.ndarray, rows) -> np.ndarray:
    """Reference for the package's gather kernel: ``out[..., i]`` is the
    sum of ``values[..., rows[i]]``, one fancy-index gather per row, in
    int64 so no sum can wrap."""
    values = np.asarray(values)
    columns = [values[..., list(row)].sum(axis=-1, dtype=np.int64) for row in rows]
    return np.stack(columns, axis=-1)


def block_tally(
    matrix: PoolingMatrix,
    scenario: ScenarioParams,
    master_seed: int,
    block_index: int,
    count: int,
) -> dict[str, Counter]:
    """Reference for the batched Monte Carlo kernel: one block through the
    per-block pipeline, trial-major, drawing its infections and then its
    pool results from the stream (master_seed, block_index), noiseless or
    not."""
    n = matrix.n
    rng = model.SeedSpec(master_seed, block_index).rng()
    x = rng.random((count, n)) < scenario.rho
    loads = model.pool_loads(matrix, x)
    p_negative = model.negative_probabilities(loads, scenario.noise)
    y = rng.random((count, matrix.t)) >= p_negative
    counts = model.positive_pool_counts(matrix, y)
    z = counts >= (scenario.m - scenario.nc)

    infected = x.sum(axis=1, dtype=np.int64)
    true_pos = (x & z).sum(axis=1, dtype=np.int64)
    flagged = z.sum(axis=1, dtype=np.int64)
    false_pos = flagged - true_pos
    false_neg = infected - true_pos
    healthy = n - infected
    true_neg = healthy - false_pos
    flagged_neg = n - flagged

    return {
        "sens": montecarlo._ratio_sums(true_pos, infected),
        "spec": montecarlo._ratio_sums(true_neg, healthy),
        "type_one": montecarlo._ratio_sums(false_pos, flagged),
        "type_two": montecarlo._ratio_sums(false_neg, flagged_neg),
        "positives": montecarlo._histogram(flagged),
        "false_positives": montecarlo._histogram(false_pos),
        "false_negatives": montecarlo._histogram(false_neg),
    }


def blockwise_tally(
    matrix: PoolingMatrix, scenario: ScenarioParams, trials: int, master_seed: int
) -> dict[str, Counter]:
    """The merged :func:`block_tally` of every block of an experiment."""
    block = montecarlo._block_size(matrix.n, scenario.m, scenario.q)
    return montecarlo._merge(
        block_tally(matrix, scenario, master_seed, index, min(block, trials - start))
        for index, start in enumerate(range(0, trials, block))
    )
