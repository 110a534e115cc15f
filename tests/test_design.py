"""Design construction, validation, and the file formats."""

import itertools
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipool import design, gf
from multipool.analytics import threshold_info
from multipool.design import (
    INFINITY,
    MultipoolParams,
    PoolLabel,
    PoolingMatrix,
    build_multipool,
    max_pools_bound,
    validate_multipool,
)
from multipool.errors import (
    DesignBoundError,
    DomainError,
    MatrixFormatError,
    NoSolutionError,
    UnsupportedFieldError,
)

from helpers import fano_matrix, parse_matrix_csv_per_cell, traced_peak

QUICK_GRID = [2, 3, 4, 5, 7, 9]


def test_q2_m2_hand_enumeration():
    matrix = build_multipool(MultipoolParams(2, 2))
    assert matrix.pools == ((0, 2), (1, 3), (0, 3), (1, 2))
    assert matrix.labels == (
        PoolLabel(0, 0),
        PoolLabel(0, 1),
        PoolLabel(1, 0),
        PoolLabel(1, 1),
    )
    assert matrix.item_membership == ((0, 2), (1, 3), (0, 3), (1, 2))


def test_full_layer_design_appends_vertical_pools_last():
    matrix = build_multipool(MultipoolParams(3, 4))
    assert matrix.t == 12
    assert matrix.labels[-3:] == (
        PoolLabel(INFINITY, 0),
        PoolLabel(INFINITY, 1),
        PoolLabel(INFINITY, 2),
    )
    assert matrix.pools[-3:] == ((0, 1, 2), (3, 4, 5), (6, 7, 8))


@pytest.mark.parametrize("q", QUICK_GRID)
def test_quick_grid_builds_valid_multipools(q):
    for m in range(1, q + 2):
        matrix = build_multipool(MultipoolParams(q, m))
        assert matrix.n == q * q
        assert matrix.t == m * q
        report = validate_multipool(matrix, q, m)
        assert report.is_multipool, (q, m, report.violations[:5])
        assert report.max_pairwise_overlap <= 1


@pytest.mark.parametrize("q", QUICK_GRID)
def test_each_layer_partitions_the_items(q):
    matrix = build_multipool(MultipoolParams(q, q + 1))
    for layer in range(q + 1):
        covered = sorted(
            itertools.chain.from_iterable(matrix.pools[layer * q : (layer + 1) * q])
        )
        assert covered == list(range(q * q))


def test_build_is_deterministic():
    # Two real builds: the lru_cache would return one instance twice.
    a = build_multipool.__wrapped__(MultipoolParams(9, 5))
    b = build_multipool.__wrapped__(MultipoolParams(9, 5))
    assert a is not b
    assert np.array_equal(a.pool_rows, b.pool_rows)
    assert np.array_equal(a.member_rows, b.member_rows)
    assert a.labels == b.labels
    assert design.dump_matrix_json(a, 9, 5) == design.dump_matrix_json(b, 9, 5)


@pytest.mark.parametrize("q,m,limit_mib", [(64, 8, 1.1), (64, 65, 8.8)])
def test_a_large_build_drops_each_temporary_once_used(q, m, limit_mib):
    # Built once untraced, so the field tables and lazy imports are in
    # place; the traced build then holds about 0.93 and 7.54 MiB at its
    # peak under numpy 2.4, the returned index arrays included.  A build
    # that held an int64 copy of pool_rows through the PoolingMatrix
    # constructor read 1.18 and 9.57 MiB, and fails both bounds.
    build = lambda: build_multipool.__wrapped__(MultipoolParams(q, m))  # noqa: E731
    build()
    _, peak = traced_peak(build)
    assert peak <= limit_mib * 2**20, peak / 2**20


def test_parameter_errors_are_domain_errors():
    for error in (UnsupportedFieldError, DesignBoundError, NoSolutionError):
        assert issubclass(error, DomainError) and issubclass(error, ValueError)
    with pytest.raises(DomainError):
        build_multipool(MultipoolParams(6, 2))
    with pytest.raises(DomainError):
        MultipoolParams(7, 9)
    with pytest.raises(DomainError):
        threshold_info(2, 3)


@pytest.mark.parametrize("q, m", [(4, True), (4.0, 3), (4, 3.0)])
def test_design_parameters_must_be_integers(q, m):
    # A bool would build the m = 1 design, and a float would pass the
    # range checks and fail deep inside the builder.
    with pytest.raises(DomainError, match="must be an integer"):
        MultipoolParams(q, m)


def test_numpy_design_parameters_are_held_as_python_ints():
    params = MultipoolParams(np.int64(4), np.uint8(3))
    assert (type(params.q), type(params.m)) == (int, int)
    assert params == MultipoolParams(4, 3)


@pytest.mark.parametrize("q, m", [(4.0, 2), (4, True), (True, 2), (4, 2.5), (0, 2), (4, 0)])
def test_validation_takes_only_positive_integer_sizes(q, m):
    with pytest.raises(DomainError):
        validate_multipool(build_multipool(MultipoolParams(4, 2)), q, m)


@pytest.mark.parametrize("q, n", [(3, 9.5), (3.0, 9), (True, 9)])
def test_max_pools_bound_takes_only_integer_sizes(q, n):
    with pytest.raises(DomainError, match="must be an integer"):
        max_pools_bound(q, n)


def test_multiplicity_above_q_plus_one_is_rejected():
    for q in (2, 3, 7, 8):
        with pytest.raises(DesignBoundError):
            MultipoolParams(q, q + 2)


def test_unsupported_pool_size_is_rejected():
    with pytest.raises(UnsupportedFieldError):
        build_multipool(MultipoolParams(6, 2))


def test_max_pools_bound_values():
    assert max_pools_bound(7, 49) == 56
    assert max_pools_bound(2, 4) == 6
    assert max_pools_bound(16, 256) == 272


@pytest.mark.parametrize("q", QUICK_GRID)
def test_full_design_meets_the_pool_count_bound_with_equality(q):
    # A full q + 1 layer design uses every item pair exactly once, so it
    # exhausts the counting bound.
    matrix = build_multipool(MultipoolParams(q, q + 1))
    assert matrix.t == max_pools_bound(q, q * q) == q * q + q


def test_max_pools_bound_domain():
    with pytest.raises(DomainError):
        max_pools_bound(1, 10)
    with pytest.raises(DomainError):
        max_pools_bound(5, 3)


def test_fano_plane_validates_as_multipool():
    report = validate_multipool(fano_matrix(), 3, 3)
    assert report.is_multipool
    assert report.row_sums == (3,) * 7
    assert report.col_sums == (3,) * 7
    assert report.max_pairwise_overlap == 1


def test_duplicated_pool_is_flagged_as_overlap():
    pools = list(fano_matrix().pools)
    pools.append(pools[0])
    matrix = PoolingMatrix.from_pools(7, pools)
    report = validate_multipool(matrix, 3, 3)
    assert not report.is_multipool
    assert report.max_pairwise_overlap >= 2
    kinds = {kind for kind, _ in report.violations}
    assert "overlap" in kinds
    assert "col_sum" in kinds  # items of the doubled pool now sit in 4 pools


def test_wrong_row_and_column_sums_are_located():
    matrix = PoolingMatrix.from_pools(4, [(0, 1), (2, 3), (0, 2), (1,)])
    report = validate_multipool(matrix, 2, 2)
    assert ("row_sum", (3,)) in report.violations
    assert ("col_sum", (3,)) in report.violations


def test_from_pools_rejects_bad_input():
    with pytest.raises(DomainError):
        PoolingMatrix.from_pools(4, [(0, 4)])
    with pytest.raises(DomainError):
        PoolingMatrix.from_pools(4, [(1, 1)])
    with pytest.raises(DomainError):
        PoolingMatrix.from_pools(4, [])
    for n in (4.5, True):
        with pytest.raises(DomainError, match="item count must be an integer"):
            PoolingMatrix.from_pools(n, [(0,)])


def test_design_inputs_of_the_wrong_shape_are_rejected():
    with pytest.raises(DomainError, match="labels must match the number of pools"):
        PoolingMatrix.from_pools(4, [(0, 1), (2, 3)], labels=[PoolLabel(0, 0)])
    with pytest.raises(DomainError, match="must be a 2-d array"):
        PoolingMatrix.from_dense(np.ones(4, dtype=np.uint8))
    with pytest.raises(DomainError, match="item count must be positive, got 0"):
        PoolingMatrix.from_dense(np.ones((2, 0), dtype=np.uint8))
    with pytest.raises(DomainError, match="at least one pool"):
        PoolingMatrix.from_dense(np.ones((0, 4), dtype=np.uint8))


@pytest.mark.parametrize(
    "n,pool_rows,message",
    [
        # Items 5 and 6 of a 4-item design, with pool size and
        # multiplicity both reading 2.
        (4, np.array([[0, 2, 0, 1, 5], [1, 3, 2, 3, 6]]), r"pool 4 contains an item index outside \[0, 4\)"),
        (4, np.array([[0, -1], [1, 2]]), r"pool 1 contains an item index outside \[0, 4\)"),
        # An entry past int32 must not wrap into range: 2**32 + 1 reads 1.
        (4, np.array([[0], [2**32 + 1]], dtype=np.uint64), r"pool 0 contains an item index outside"),
        (4, np.array([[0, 1], [2, 1]]), "pool 1 lists an item more than once"),
        (4, np.array([[0, 3], [2, 1]]), "pool 1 does not list its items in increasing order"),
        # A pad before an item.
        (4, np.array([[0, 4], [2, 1]]), "pool 1 does not list its items in increasing order"),
        (4, np.array([[0.0, 1.0]]), "pool rows must be a 2-d integer array"),
        (4, np.array([[True, False]]), "pool rows must be a 2-d integer array"),
        (4, np.array([0, 1]), "pool rows must be a 2-d integer array"),
        (4, np.zeros((2, 0), dtype=np.int32), "a design needs at least one pool"),
        (2**31, np.array([[0]]), r"item count must lie in \[1, 2147483647\], got 2147483648"),
        (0, np.array([[0]]), "item count must be positive, got 0"),
    ],
)
def test_the_constructor_rejects_a_bad_padded_index(n, pool_rows, message):
    with pytest.raises(DomainError, match=message):
        PoolingMatrix(n, pool_rows, None)


def test_the_constructor_keeps_its_own_read_only_copy():
    given = np.array([[0, 2, 1], [3, 4, 4]], dtype=np.int64)
    matrix = PoolingMatrix(4, given, [PoolLabel(0, 0), PoolLabel(0, 1), PoolLabel(1, 0)])
    assert given.flags.writeable
    given[0, 0] = 1
    assert matrix.pools == ((0, 3), (2,), (1,))
    assert matrix.pool_rows.dtype == np.int32 and not matrix.pool_rows.flags.writeable
    assert isinstance(matrix.labels, tuple)
    with pytest.raises(DomainError, match="labels must match the number of pools"):
        PoolingMatrix(4, given, [PoolLabel(0, 0)])


@pytest.mark.parametrize(
    "pools,message",
    [
        # Item n would otherwise read as padding.
        ([(0, 1), (2, 4)], r"pool 1 contains an item index outside \[0, 4\)"),
        ([(0, 1), (2**70,)], r"pool 1 contains an item index outside \[0, 4\)"),
        ([(0, 1), (3, 2, 3)], "pool 1 lists an item more than once"),
        # The first bad pool is named, whatever is wrong with a later one.
        ([(0, 9), (1.5,)], r"pool 0 contains an item index outside \[0, 4\)"),
        ([(0, 1.5), (9,)], "pool 0 contains a non-integer entry"),
    ],
)
def test_from_pools_names_the_first_bad_pool(pools, message):
    with pytest.raises(DomainError, match=message):
        PoolingMatrix.from_pools(4, pools)


def test_from_pools_sorts_each_pool():
    matrix = PoolingMatrix.from_pools(5, [(4, 0, 2), (), {3, 1}, np.array([2, 1])])
    assert matrix.pools == ((0, 2, 4), (), (1, 3), (1, 2))


def test_validation_summary_lists_the_first_twenty_violations():
    # Checked as pools of 3 with one pool per item, every one of the 8
    # pools and 16 items of the (4, 2) design is a violation.
    report = validate_multipool(build_multipool(MultipoolParams(4, 2)), 3, 1)
    assert len(report.violations) == 24
    lines = report.summary().splitlines()
    kind, indices = report.violations[19]
    assert lines[-2:] == [f"violation: {kind} at {indices}", "... and 4 more violations"]
    assert sum(line.startswith("violation: ") for line in lines) == 20


@pytest.mark.parametrize("entry", [1.5, True, "2", np.float64(1.0)])
def test_from_pools_rejects_entries_that_are_not_integers(entry):
    with pytest.raises(DomainError, match="pool 1 contains a non-integer entry"):
        PoolingMatrix.from_pools(4, [(0, 3), (0, entry)])


def test_from_pools_takes_numpy_integers():
    pools = [np.array([3, 0]), (np.int32(1), np.uint64(2))]
    assert PoolingMatrix.from_pools(4, pools).pools == ((0, 3), (1, 2))


@pytest.mark.parametrize("entry", [-1, 0.5, 2])
def test_from_dense_rejects_entries_other_than_0_and_1(entry):
    dense = np.array([[1, 0, 1], [0, 1, 1]], dtype=type(entry))
    dense[1, 0] = entry
    with pytest.raises(DomainError, match="must be 0 or 1"):
        PoolingMatrix.from_dense(dense)


def test_membership_is_dual_to_pools():
    matrix = build_multipool(MultipoolParams(5, 4))
    rebuilt = [[] for _ in range(matrix.n)]
    for i, pool in enumerate(matrix.pools):
        for j in pool:
            rebuilt[j].append(i)
    assert matrix.item_membership == tuple(tuple(r) for r in rebuilt)


@pytest.mark.parametrize(
    "matrix",
    [build_multipool(MultipoolParams(5, 4)), PoolingMatrix.from_pools(4, [(0, 1, 2), (3,)])],
)
def test_index_rows_are_read_only_duals(matrix):
    for rows in (matrix.pool_rows, matrix.member_rows):
        assert rows.dtype == np.int32
        assert rows.flags.c_contiguous and not rows.flags.writeable
    # Column j of member_rows lists exactly the pools whose column of
    # pool_rows holds j, in increasing order, padded at the end with t.
    for j, column in enumerate(matrix.member_rows.T.tolist()):
        holders = np.flatnonzero((matrix.pool_rows == j).any(axis=0)).tolist()
        assert column == holders + [matrix.t] * (len(column) - len(holders))


def test_dense_view_matches_pools():
    matrix = build_multipool(MultipoolParams(4, 3))
    dense = matrix.to_dense()
    assert dense.shape == (matrix.t, matrix.n)
    assert dense.sum(axis=1).tolist() == [4] * matrix.t
    assert dense.sum(axis=0).tolist() == [3] * matrix.n
    assert PoolingMatrix.from_dense(dense).pools == matrix.pools


def test_json_round_trip_identity():
    matrix = build_multipool(MultipoolParams(8, 9))
    text = design.dump_matrix_json(matrix, 8, 9)
    loaded = design.load_matrix_json(text)
    assert loaded.q == 8 and loaded.m == 9
    assert loaded.matrix == matrix
    assert design.dump_matrix_json(loaded.matrix, loaded.q, loaded.m) == text


def test_json_keeps_infinity_labels(tmp_path):
    matrix = build_multipool(MultipoolParams(3, 4))
    text = design.dump_matrix_json(matrix, 3, 4)
    assert '"slope": "inf"' in text
    loaded = design.load_matrix_json(text)
    assert loaded.matrix.labels[-1] == PoolLabel(INFINITY, 2)


def test_csv_round_trip():
    matrix = build_multipool(MultipoolParams(4, 5))
    text = design.dump_matrix_csv(matrix)
    loaded = design.parse_matrix_csv(text)
    assert loaded.pools == matrix.pools
    assert design.dump_matrix_csv(loaded) == text


def test_csv_cells_are_checked_for_0_and_1_once(monkeypatch):
    # The row check has read every digit, so from_dense must not scan the
    # matrix again: it gets bools, on which require_binary returns at once.
    scanned, check = [], design.require_binary

    def spy(what, values):
        scanned.append(values.dtype)
        check(what, values)

    monkeypatch.setattr(design, "require_binary", spy)
    matrix = build_multipool(MultipoolParams(4, 5))
    assert design.parse_matrix_csv(design.dump_matrix_csv(matrix)).pools == matrix.pools
    assert scanned and all(dtype == bool for dtype in scanned)


def test_load_design_reads_json_after_leading_whitespace_and_csv_otherwise():
    matrix = build_multipool(MultipoolParams(3, 2))
    loaded = design.load_design(" \n\t" + design.dump_matrix_json(matrix, 3, 2))
    assert (loaded.matrix, loaded.q, loaded.m) == (matrix, 3, 2)
    loaded = design.load_design(design.dump_matrix_csv(matrix))
    assert loaded.matrix.pools == matrix.pools
    assert loaded.q is None and loaded.m is None


_CSV_TOKENS = ["0", "1", ",", "\n", "\r", " ", "\t", "\u00a0", "\u2003", "\x1c", "2", "x", "11", ""]


@st.composite
def _csv_texts(draw):
    """Any run of tokens, or a well-formed matrix with up to three tokens
    inserted or replaced; most runs of tokens fail in their first cell."""
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(_CSV_TOKENS), max_size=40)))
    rows, width = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    tokens = []
    for _ in range(rows):
        for col in range(width):
            tokens += [draw(st.sampled_from("01")), "," if col < width - 1 else "\n"]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(tokens)))
        tokens[at : at + draw(st.integers(0, 1))] = [draw(st.sampled_from(_CSV_TOKENS))]
    return "".join(tokens)


@settings(max_examples=500, deadline=None)
@given(_csv_texts())
def test_csv_reader_matches_the_per_cell_reader(text):
    try:
        expected = parse_matrix_csv_per_cell(text)
    except MatrixFormatError as exc:
        with pytest.raises(MatrixFormatError) as raised:
            design.parse_matrix_csv(text)
        assert (str(raised.value), raised.value.line, raised.value.column) == (
            str(exc), exc.line, exc.column
        )
    else:
        loaded = design.parse_matrix_csv(text)
        assert loaded.n == expected.n
        assert np.array_equal(loaded.pool_rows, expected.pool_rows)


def test_every_blank_around_a_csv_cell_is_dropped():
    # Every code point that str.strip() strips but the newline, which
    # ends a row.
    blanks = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace() and chr(c) != "\n"]
    assert {"\t", "\r", "\x1c", "\u00a0", "\u3000"} <= set(blanks)
    expected = design.parse_matrix_csv("1,0\n0,1\n")
    for blank in blanks:
        text = "1,0\n0,1\n".replace("1", f"{blank}1{blank}").replace("0", f"{blank}0{blank}")
        assert np.array_equal(design.parse_matrix_csv(text).pool_rows, expected.pool_rows), hex(ord(blank))


def test_a_zero_width_space_is_not_a_blank():
    # U+200B is not whitespace to Python, so the cell is not binary.
    with pytest.raises(MatrixFormatError, match="non-binary entry") as raised:
        design.parse_matrix_csv("1,0\n0,\u200b1\n")
    assert (raised.value.line, raised.value.column) == (2, 2)


def test_ragged_csv_round_trip():
    # Pool 1 is empty and item 2 sits in no pool.
    matrix = PoolingMatrix.from_pools(4, [[3, 0], [], [1, 3]])
    text = design.dump_matrix_csv(matrix)
    assert text == "1,0,0,1\n0,0,0,0\n0,1,0,1\n"
    assert np.array_equal(matrix.to_dense(), [[1, 0, 0, 1], [0, 0, 0, 0], [0, 1, 0, 1]])
    loaded = design.parse_matrix_csv(text)
    assert loaded.pools == ((0, 3), (), (1, 3))
    assert loaded.item_membership == ((0,), (2,), (), (0, 2))
    assert design.dump_matrix_csv(loaded) == text


def test_json_schema_violations_are_reported():
    with pytest.raises(MatrixFormatError):
        design.load_matrix_json('{"format_version": 2}')
    with pytest.raises(MatrixFormatError):
        design.load_matrix_json('{"format_version": 1, "q": 2, "m": 2, "n": 4, "t": 1, "pools": []}')
    broken = design.load_matrix_json  # malformed JSON carries a location
    try:
        broken("{\n  \"format_version\": 1,\n  oops\n}")
    except MatrixFormatError as exc:
        assert exc.line == 3
    else:
        pytest.fail("malformed JSON must raise")


def test_a_json_label_count_is_checked_by_the_constructor():
    doc = json.loads(json.dumps(_VALID_DOCUMENT))
    doc["labels"].append({"slope": 0, "intercept": 0})
    with pytest.raises(MatrixFormatError, match="labels must match the number of pools"):
        design.matrix_from_document(doc)


def test_csv_parse_errors_carry_location():
    try:
        design.parse_matrix_csv("0,1\n0,2\n")
    except MatrixFormatError as exc:
        assert exc.line == 2 and exc.column == 2
    else:
        pytest.fail("non-binary entries must raise")
    with pytest.raises(MatrixFormatError):
        design.parse_matrix_csv("0,1\n0\n")


@pytest.mark.parametrize("q", sorted(gf.SUPPORTED_ORDERS))
def test_built_membership_matches_the_sorted_dual(q):
    for m in sorted({1, 2, 3, q, q + 1}):
        matrix = build_multipool(MultipoolParams(q, m))
        expected = design._member_rows(matrix.pool_rows, matrix.n)
        assert matrix.member_rows.dtype == expected.dtype
        assert np.array_equal(matrix.member_rows, expected)


def _scattered(columns, values, count, pad):
    """Reference for design._padded: each value written one at a time to
    the next free slot of its column."""
    index = np.full((max(np.bincount(columns, minlength=count)), count), pad, dtype=np.int32)
    filled = [0] * count
    for column, value in zip(columns.tolist(), values.tolist()):
        index[filled[column], column] = value
        filled[column] += 1
    return index


@pytest.mark.parametrize("sizes", [(3, 3, 3, 3), (2, 0, 3, 1), (1,), (0, 0)])
def test_padded_index_copies_equal_columns_and_scatters_ragged_ones(sizes):
    # Equal column lengths take the one transposing copy, unequal ones
    # the scatter; both must give the scattered index.
    rng = np.random.default_rng(sum(sizes))
    columns = np.repeat(np.arange(len(sizes)), sizes)
    values = np.concatenate([np.sort(rng.choice(50, size, replace=False)) for size in sizes])
    expected = _scattered(columns, values, len(sizes), 50)
    index = design._padded(columns, values, len(sizes), 50)
    assert index.dtype == np.int32 and index.flags.c_contiguous
    assert np.array_equal(index, expected)


def test_built_designs_are_shared():
    params = MultipoolParams(8, 3)
    assert build_multipool(params) is build_multipool(MultipoolParams(8, 3))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 10), data=st.data())
def test_ragged_overlaps_match_a_brute_force_count(n, data):
    pools = data.draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=1, max_size=8))
    report = validate_multipool(PoolingMatrix.from_pools(n, pools), 2, 1)
    shared = {
        pair: sum(set(pair) <= pool for pool in pools)
        for pair in itertools.combinations(range(n), 2)
    }
    assert report.max_pairwise_overlap == max(shared.values(), default=0)
    overlaps = [indices for kind, indices in report.violations if kind == "overlap"]
    assert overlaps == [pair for pair, count in shared.items() if count > 1]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 10), data=st.data())
def test_dense_forms_match_per_pool_loops(n, data):
    pools = data.draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=1, max_size=8))
    matrix = PoolingMatrix.from_pools(n, pools)
    dense = np.zeros((len(pools), n), dtype=np.uint8)
    for i, pool in enumerate(pools):
        dense[i, sorted(pool)] = 1
    assert np.array_equal(matrix.to_dense(), dense)
    assert design.dump_matrix_csv(matrix) == "".join(
        ",".join(str(v) for v in row) + "\n" for row in dense.tolist()
    )
    rebuilt = PoolingMatrix.from_dense(dense)
    assert np.array_equal(rebuilt.pool_rows, matrix.pool_rows)
    assert np.array_equal(rebuilt.member_rows, matrix.member_rows)


_VALID_DOCUMENT = {
    "format_version": 1, "q": 1, "m": 1, "n": 1, "t": 1,
    "pools": [[0]], "labels": [{"slope": 0, "intercept": 0}],
}


@pytest.mark.parametrize(
    "path",
    [("format_version",), ("q",), ("m",), ("n",), ("t",),
     ("pools", 0, 0), ("labels", 0, "slope"), ("labels", 0, "intercept")],
    ids=lambda path: ".".join(map(str, path)),
)
def test_json_booleans_are_not_integers(path):
    # true == 1 and false == 0 in Python, and every value in the document
    # is 0 or 1, so each field gets the boolean equal to its valid value.
    doc = json.loads(json.dumps(_VALID_DOCUMENT))
    design.matrix_from_document(doc)
    *parents, key = path
    holder = doc
    for step in parents:
        holder = holder[step]
    holder[key] = bool(holder[key])
    with pytest.raises(MatrixFormatError):
        design.matrix_from_document(doc)
