"""Multipool designs: constant pool size, constant item multiplicity,
and no two items sharing more than one pool.

The builder covers n = q*q items for a supported prime power q.  Items
are the cells of a q-by-q grid indexed by pairs of field elements, and
every pool is the cell set of a line: the pool with slope a and
intercept b collects the cells (x, a*x + b), and the vertical pool with
intercept c collects the cells (c, y).  All q pools of one slope
partition the grid, so a design that uses m slope layers puts every item
in exactly m pools, and two distinct lines meet in at most one cell.
With the vertical layer included there are q + 1 layers available, which
is the most any design on q*q items with pool size q can have.

Validation is independent of the builder and accepts arbitrary binary
incidence structures, so externally produced designs can be checked with
the same report.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import Collection, Sequence

import numpy as np

from . import gf
from .errors import DesignBoundError, DomainError, MatrixFormatError, require_binary, require_integer

FORMAT_VERSION = 1

# Slope marker for the vertical layer; also its spelling in design files.
INFINITY = "inf"
_MAX_ITEMS = 2**31 - 1  # the pad value n must fit in int32

# What the constructor finds wrong with a pool's column, in the order checked.
_FAULTS = ("contains an item index outside [0, {n})", "lists an item more than once",
           "does not list its items in increasing order")


@dataclass(frozen=True)
class PoolLabel:
    """The (slope, intercept) pair naming one builder pool."""

    slope: int | str
    intercept: int


@dataclass(frozen=True)
class MultipoolParams:
    """Parameters of a built design: pool size q and multiplicity m."""

    q: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "q", require_integer("pool size", self.q, 2))
        object.__setattr__(self, "m", require_integer("multiplicity", self.m, 1))
        if self.m > self.q + 1:
            raise DesignBoundError(
                f"multiplicity {self.m} exceeds the maximum {self.q + 1} "
                f"achievable with pool size {self.q} on {self.q * self.q} items"
            )

    @property
    def n(self) -> int:
        return self.q * self.q

    @property
    def t(self) -> int:
        return self.m * self.q


class PoolingMatrix:
    """A binary incidence structure held as two dual index arrays.

    Column i of ``pool_rows`` lists the items of pool i in increasing
    order, so row k holds the k-th item of every pool; column j of
    ``member_rows``, which the constructor derives, lists the pools
    containing item j, likewise.  Both are read-only, C-contiguous int32
    arrays, exactly as tall as their longest column; shorter columns,
    which only ragged external designs have, are padded at the end with
    one past the largest valid index (n in ``pool_rows``, t in
    ``member_rows``), so the gathers read the padding from an appended
    zero row; simulation takes no padded design.  The constructor checks
    the index it is given against this layout and keeps its own copy.
    ``pools`` and ``item_membership`` are the same lists as tuples,
    derived on first use.  Instances are immutable; threads share them.
    """

    def __init__(self, n: int, pool_rows: np.ndarray, labels: Sequence[PoolLabel] | None):
        n = require_integer("item count", n, 1, _MAX_ITEMS)
        rows = np.asarray(pool_rows)
        if rows.ndim != 2 or rows.dtype.kind not in "iu":
            raise DomainError("pool rows must be a 2-d integer array")
        if rows.shape[1] < 1:
            raise DomainError("a design needs at least one pool")
        if labels is not None and len(labels := tuple(labels)) != rows.shape[1]:
            raise DomainError("labels must match the number of pools")
        # Each column lists increasing items in [0, n), then only the pad
        # n.  Compared in the given dtype, in which no entry has wrapped.
        above, below = rows[1:], rows[:-1]
        faults = np.stack([((rows < 0) | (rows > n)).any(axis=0),
                           ((above == below) & (above < n)).any(axis=0),
                           (above < below).any(axis=0)])
        if faults.any():
            pool = int(faults.any(axis=0).argmax())
            raise DomainError(f"pool {pool} " + _FAULTS[faults[:, pool].argmax()].format(n=n))
        self.pool_rows = np.array(rows, dtype=np.int32, order="C")
        self.pool_rows.flags.writeable = False
        self.member_rows = _member_rows(self.pool_rows, n)
        self.member_rows.flags.writeable = False
        self.n = n
        self.t = rows.shape[1]
        self.labels = labels

    @classmethod
    def from_pools(cls, n: int, pools: Sequence[Collection[int]],
                   labels: Sequence[PoolLabel] | None = None) -> "PoolingMatrix":
        n = require_integer("item count", n, 1, _MAX_ITEMS)
        sizes = np.fromiter(map(len, pools), np.intp, len(pools))
        owners = np.repeat(np.arange(len(pools)), sizes)
        # operator.index takes Python and numpy integers and nothing else
        # but bools, which it reads as 0 and 1.
        try:
            items = np.fromiter(map(operator.index, chain.from_iterable(pools)), np.int64, owners.size)
        except (TypeError, OverflowError):
            items = None
        # An item n would read as padding, so the range comes first.
        if (items is None or bool in map(type, chain.from_iterable(pools))
                or ((items < 0) | (items >= n)).any()):
            raise _entry_error(n, pools)
        # A stable sort by (pool, item) sorts the items within each pool.
        items = items[np.argsort(owners * n + items, kind="stable")]
        return cls(n, _padded(owners, items, len(pools), n), labels)

    @classmethod
    def from_dense(cls, array: np.ndarray) -> "PoolingMatrix":
        arr = np.asarray(array)
        if arr.ndim != 2:
            raise DomainError("dense design must be a 2-d array")
        require_binary("dense design entries", arr)
        return cls(arr.shape[1], _padded(*np.nonzero(arr), *arr.shape), None)

    @cached_property
    def pool_size(self) -> int | None:
        """Common pool size, or None when pools differ in size."""
        return _common_length(self.pool_rows, self.n)

    @cached_property
    def multiplicity(self) -> int | None:
        """Common number of pools per item, or None when items differ."""
        return _common_length(self.member_rows, self.t)

    @cached_property
    def pools(self) -> tuple[tuple[int, ...], ...]:
        """Per pool, the sorted item indices it contains."""
        return _columns(self.pool_rows, self.n)

    @cached_property
    def item_membership(self) -> tuple[tuple[int, ...], ...]:
        """Per item, the sorted indices of the pools containing it."""
        return _columns(self.member_rows, self.t)

    def to_dense(self) -> np.ndarray:
        # Padding entries equal n and land in an extra last column.
        dense = np.zeros((self.t, self.n + 1), dtype=np.uint8)
        dense[np.arange(self.t), self.pool_rows] = 1
        return dense[:, : self.n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PoolingMatrix):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.pool_rows, other.pool_rows)
            and self.labels == other.labels
        )

    def __repr__(self) -> str:
        return f"PoolingMatrix(n={self.n}, t={self.t})"


def _entry_error(n: int, pools: Sequence[Collection[int]]) -> DomainError:
    """The error of the first pool with an entry other than an integer in [0, n)."""
    for i, pool in enumerate(pools):
        try:
            items = list(map(operator.index, pool))
        except TypeError:
            items = None
        if items is None or bool in map(type, pool):
            return DomainError(f"pool {i} contains a non-integer entry")
        if not all(0 <= j < n for j in items):
            return DomainError(f"pool {i} " + _FAULTS[0].format(n=n))
    raise AssertionError("no pool holds a bad entry")


def _member_rows(pool_rows: np.ndarray, n: int) -> np.ndarray:
    """The dual of padded pool rows: column j lists the pools holding
    item j in increasing order, padded with t."""
    width, t = pool_rows.shape
    # Pool order, so that owners run in increasing order; a stable sort
    # by item keeps it.  Each array is dropped once it is used, which
    # keeps a large build's peak memory down.
    items = pool_rows.T.ravel()
    owners = np.repeat(np.arange(t, dtype=np.int32), width)
    real = items < n
    items, owners = items[real], owners[real]
    del real
    order = np.argsort(items, kind="stable")
    items = items[order]
    owners = owners[order]
    del order
    return _padded(items, owners, n, t)


def _padded(columns: np.ndarray, values: np.ndarray, count: int, pad: int) -> np.ndarray:
    """The (longest column, count) int32 index whose column c lists, in
    order, the values of the pairs with column c, padded at the end with
    ``pad``; the (column, value) pairs come sorted by column, then value.

    Where every column has the same length, as in every built design,
    the values are the index's columns end to end, and one transposing
    copy forms it; otherwise each value is scattered to its place."""
    counts = np.bincount(columns, minlength=count)
    # With no columns or no values, the constructor reports the shape.
    longest = int(counts.max(initial=0))
    if counts.min(initial=longest) == longest:
        index = np.empty((longest, count), dtype=np.int32)
        index[...] = values.reshape(count, longest).T
        return index
    index = np.full((longest, count), pad, dtype=np.int32)
    # Each pair's place in its column, formed in the buffer of the repeat.
    rank = np.repeat(np.cumsum(counts) - counts, counts)
    np.subtract(np.arange(columns.size), rank, out=rank)
    index[rank, columns] = values
    return index


def _common_length(index: np.ndarray, pad: int) -> int | None:
    """Common column length of a padded index, or None when columns
    differ.  Padding sits at the end of a column, and any column that
    has some is shorter than the longest one."""
    if index.shape[0] and (index[-1] == pad).any():
        return None
    return index.shape[0]


def _columns(index: np.ndarray, pad: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(v for v in column if v != pad) for column in index.T.tolist())


@lru_cache(maxsize=8)
def build_multipool(params: MultipoolParams) -> PoolingMatrix:
    """Construct the line design for (q, m): q*q items, m*q pools.

    Item (x, y) gets index q*x + y.  Slope layers are the first m field
    elements in index order; when m = q + 1 the vertical layer comes
    last.  Within a layer, pools are ordered by intercept, so pool
    indices are layer*q + intercept.  The last few designs built are
    cached; a built design is immutable, so callers share it.
    """
    field = gf.field_for_order(params.q)
    q, m = params.q, params.m
    x = np.arange(q)
    slopes = np.arange(min(m, q))
    # Row x holds the item q*x + (s*x + b) of pool (s, b), one (x, slope,
    # intercept) broadcast.  The index is increasing in x, so every pool
    # comes out sorted without an explicit sort.
    lines = q * x[:, None, None] + field.add_table[field.mul_table[x[:, None], slopes][..., None], x]
    blocks = [lines.reshape(q, -1)]
    labels = [PoolLabel(int(slope), intercept) for slope in slopes for intercept in range(q)]
    if m == q + 1:
        blocks.append(q * x + x[:, None])
        labels += [PoolLabel(INFINITY, intercept) for intercept in range(q)]
    pool_rows = np.concatenate(blocks, axis=1, dtype=np.int32)
    del lines, blocks
    return PoolingMatrix(params.n, pool_rows, labels)


def max_pools_bound(q: int, n: int) -> int:
    """Largest number of size-q pools on n items with pairwise overlap <= 1.

    Every pool contains q*(q-1)/2 item pairs and no pair may repeat, so
    the count is at most n*(n-1) / (q*(q-1)), rounded down.
    """
    q = require_integer("pool size", q, 2)
    n = require_integer("item count", n, q)
    return (n * (n - 1)) // (q * (q - 1))


@dataclass(frozen=True)
class ValidationReport:
    """Result of checking the three multipool properties.

    ``violations`` holds (kind, indices) pairs: kind "row_sum" with a pool
    index, "col_sum" with an item index, or "overlap" with an item pair.
    """

    is_multipool: bool
    row_sums: tuple[int, ...]
    col_sums: tuple[int, ...]
    max_pairwise_overlap: int
    violations: tuple[tuple[str, tuple[int, ...]], ...]

    def summary(self) -> str:
        lines = [
            f"pools: {len(self.row_sums)}, items: {len(self.col_sums)}",
            f"max pairwise overlap: {self.max_pairwise_overlap}",
            f"multipool: {'yes' if self.is_multipool else 'no'}",
        ]
        for kind, indices in self.violations[:20]:
            lines.append(f"violation: {kind} at {indices}")
        if len(self.violations) > 20:
            lines.append(f"... and {len(self.violations) - 20} more violations")
        return "\n".join(lines)


def _pair_codes(pool_rows: np.ndarray, sizes: np.ndarray, n: int) -> np.ndarray:
    """Encode every within-pool item pair (j1 < j2) as j1*n + j2, one
    gather over the pools of each distinct size."""
    codes = [np.empty(0, dtype=np.int64)]
    for size in np.unique(sizes).tolist():
        rows = pool_rows[:size, sizes == size]
        left, right = np.triu_indices(size, k=1)
        codes.append((rows[left].astype(np.int64) * n + rows[right]).ravel())
    return np.concatenate(codes)


def validate_multipool(matrix: PoolingMatrix, q: int, m: int) -> ValidationReport:
    """Check that every pool has size q, every item sits in m pools, and
    no two items share more than one pool."""
    q = require_integer("pool size", q, 1)
    m = require_integer("multiplicity", m, 1)
    sizes = (matrix.pool_rows < matrix.n).sum(axis=0)
    counts = (matrix.member_rows < matrix.t).sum(axis=0)
    violations = [("row_sum", (i,)) for i in np.flatnonzero(sizes != q).tolist()]
    violations += [("col_sum", (j,)) for j in np.flatnonzero(counts != m).tolist()]
    codes, shared = np.unique(_pair_codes(matrix.pool_rows, sizes, matrix.n), return_counts=True)
    violations += [("overlap", divmod(code, matrix.n)) for code in codes[shared > 1].tolist()]
    return ValidationReport(
        is_multipool=not violations,
        row_sums=tuple(sizes.tolist()),
        col_sums=tuple(counts.tolist()),
        max_pairwise_overlap=int(shared.max(initial=0)),
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class MatrixFile:
    """A design together with the (q, m) it claims to satisfy; a CSV
    matrix claims none, and both are None."""

    matrix: PoolingMatrix
    q: int | None
    m: int | None


def matrix_document(matrix: PoolingMatrix, q: int, m: int) -> dict:
    labels = None
    if matrix.labels is not None:
        labels = [{"slope": lab.slope, "intercept": lab.intercept} for lab in matrix.labels]
    return {
        "format_version": FORMAT_VERSION,
        "q": q,
        "m": m,
        "n": matrix.n,
        "t": matrix.t,
        "pools": [list(pool) for pool in matrix.pools],
        "labels": labels,
    }


def _require(condition: bool, message: str):
    if not condition:
        raise MatrixFormatError(message)


def _is_int(value: object) -> bool:
    """A JSON integer; JSON booleans load as Python bools, which are ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def matrix_from_document(doc: object) -> MatrixFile:
    _require(isinstance(doc, dict), "design document must be a JSON object")
    version = doc.get("format_version")
    _require(_is_int(version) and version == FORMAT_VERSION, f"unsupported format_version {version!r}")
    for key in ("q", "m", "n", "t"):
        _require(_is_int(doc.get(key)), f"field {key!r} must be an integer")
    q, m, n, t = doc["q"], doc["m"], doc["n"], doc["t"]
    pools = doc.get("pools")
    _require(isinstance(pools, list), "field 'pools' must be an array")
    _require(len(pools) == t, f"expected {t} pools, found {len(pools)}")
    for i, pool in enumerate(pools):
        _require(isinstance(pool, list), f"pool {i} must be an array")
    labels_doc = doc.get("labels")
    labels: list[PoolLabel] | None = None
    if labels_doc is not None:
        _require(isinstance(labels_doc, list), "field 'labels' must be an array or null")
        labels = []
        for i, entry in enumerate(labels_doc):
            _require(isinstance(entry, dict), f"label {i} must be an object")
            slope = entry.get("slope")
            intercept = entry.get("intercept")
            _require(slope == INFINITY or (_is_int(slope) and 0 <= slope < q),
                     f"label {i} has invalid slope {slope!r}")
            _require(_is_int(intercept) and 0 <= intercept < q,
                     f"label {i} has invalid intercept {intercept!r}")
            labels.append(PoolLabel(slope, intercept))
    try:
        matrix = PoolingMatrix.from_pools(n, pools, labels=labels)
    except DomainError as exc:
        raise MatrixFormatError(str(exc)) from exc
    return MatrixFile(matrix=matrix, q=q, m=m)


def dump_matrix_json(matrix: PoolingMatrix, q: int, m: int) -> str:
    return json.dumps(matrix_document(matrix, q, m), indent=2) + "\n"


def load_matrix_json(text: str) -> MatrixFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    return matrix_from_document(doc)


def dump_matrix_csv(matrix: PoolingMatrix) -> str:
    # Row i is 2n bytes: the digits of pool i at the even offsets, each
    # followed by a comma, and a newline in place of the last comma.
    text = np.full((matrix.t, 2 * matrix.n), ord(","), dtype=np.uint8)
    text[:, 0::2] = matrix.to_dense() + ord("0")
    text[:, -1] = ord("\n")
    return text.tobytes().decode("ascii")


# Every character that ``str.strip()`` strips, except the newline, which
# separates rows.
_BLANKS = re.compile(r"[^\S\n]+")


def parse_matrix_csv(text: str) -> PoolingMatrix:
    """Read the dense 0/1 matrix that ``dump_matrix_csv`` writes, one row
    per line; cells may carry surrounding whitespace.

    With whitespace dropped, a valid row of width w is w digits with a
    comma after every digit but the last, so it is checked by slicing.
    A row failing that check is split into cells to locate the error.
    """
    rows = _BLANKS.sub("", text).split("\n")
    # A final newline ends the last row instead of starting an empty one.
    if text.endswith("\n") or not text:
        rows.pop()
    if not rows:
        raise MatrixFormatError("empty design file", line=1, column=1)
    width = rows[0].count(",") + 1
    commas = "," * (width - 1)
    digits = []
    for line_no, row in enumerate(rows, start=1):
        if len(row) != 2 * width - 1 or row[1::2] != commas or row[0::2].strip("01"):
            raise _row_error(text.split("\n")[line_no - 1], line_no, width)
        digits.append(row[0::2])
    dense = np.frombuffer("".join(digits).encode("ascii"), dtype=np.uint8) - ord("0")
    # Every digit is checked by now, and from_dense scans no bool array.
    return PoolingMatrix.from_dense(dense.reshape(len(rows), width).view(bool))


def _row_error(line: str, line_no: int, width: int) -> MatrixFormatError:
    """The error of a CSV line that fails the row check."""
    cells = line.split(",")
    if len(cells) != width:
        return MatrixFormatError(
            f"row has {len(cells)} columns, expected {width}", line=line_no, column=1
        )
    col_no, cell = next(
        (k, cell) for k, cell in enumerate(cells, start=1) if cell.strip() not in ("0", "1")
    )
    return MatrixFormatError(f"non-binary entry {cell!r}", line=line_no, column=col_no)


def load_design(text: str) -> MatrixFile:
    """Read a design file: JSON when its first non-whitespace character
    is ``{``, the CSV matrix otherwise, which carries no q or m."""
    if text.lstrip().startswith("{"):
        return load_matrix_json(text)
    return MatrixFile(matrix=parse_matrix_csv(text), q=None, m=None)
