import copy

import pytest
from hypothesis import given, settings, strategies as st

from pathideal.linalg import sparse_rank

from oracles import dense_rank

FIELDS = (None, 2, 3, 5)


def sparse(matrix):
    return [{c: v for c, v in enumerate(row) if v} for row in matrix]


def block_diag(*blocks):
    width = sum(len(b[0]) for b in blocks)
    out, offset = [], 0
    for b in blocks:
        for row in b:
            out.append([0] * offset + list(row) + [0] * (width - offset - len(row)))
        offset += len(b[0])
    return out


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


SMALL_INTEGERS = (-3, -2, -1, 0, 1, 2, 3)
# boundary-like: mostly units, so many draws need no Bareiss core over Q
MOSTLY_UNITS = (-1, 1, -1, 1, -1, 1, 2)


@st.composite
def integer_matrices(draw, values=SMALL_INTEGERS):
    # small shapes (at most 32 x 32) and large ones (at least 33 x 33); one
    # byte per entry (drawn at once, which keeps generation fast): below 128
    # it maps onto the values, otherwise to 0, so sparse matrices are common
    large = draw(st.booleans())
    nrows = draw(st.integers(33, 40) if large else st.integers(0, 32))
    ncols = draw(st.integers(33, 40) if large else st.integers(1, 32))
    cells = draw(st.binary(min_size=nrows * ncols, max_size=nrows * ncols))
    entries = [values[b % len(values)] if b < 128 else 0 for b in cells]
    return [entries[i * ncols:(i + 1) * ncols] for i in range(nrows)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(integer_matrices())
def test_sparse_rank_matches_dense_oracle(matrix):
    rows = sparse(matrix)
    before = copy.deepcopy(rows)
    for p in FIELDS:
        assert sparse_rank(rows, p)[0] == dense_rank(matrix, p), p
    assert rows == before


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(integer_matrices(), integer_matrices(MOSTLY_UNITS)))
def test_certified_rank_holds_over_every_field(matrix):
    rows = sparse(matrix)
    rank, certified = sparse_rank(rows)
    for p in (2, 3, 5):
        if certified:
            assert dense_rank(matrix, p) == rank, p
        assert sparse_rank(rows, p)[1] is False


FIXED = {
    "two_identity": [[2, 0], [0, 2]],
    "no_unit_rank_one": [[2, 4], [1, 2]],
    "zero_rows": [[0, 0, 0], [0, 0, 0]],
    "zero_row_among_others": [[0, 0], [1, 2], [0, 0], [2, 4]],
    # column 1 has no +-1 entry until column 0 is eliminated
    "deferred_retry": [[1, 2], [1, 3]],
    # in column order, column 0 has no +-1 entry until column 1 is
    # eliminated, so it is left to the second pass
    "deferred_retry_column_order": [[2, 1], [3, 1]],
    # only non-unit entries: the whole matrix is a Bareiss core over Q
    "bareiss_core": [[2, 3, 0], [3, 2, 2], [0, 2, 3]],
}


@pytest.mark.parametrize("p", FIELDS)
@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_cases(name, p):
    matrix = FIXED[name]
    assert sparse_rank(sparse(matrix), p)[0] == dense_rank(matrix, p)
    # the same block inside a larger, sparser matrix
    padded = block_diag(matrix, identity(40))
    assert sparse_rank(sparse(padded), p)[0] == dense_rank(padded, p)


@pytest.mark.parametrize("name", ["two_identity", "bareiss_core"])
def test_unit_free_blocks_are_not_certified(name):
    matrix = FIXED[name]
    padded = block_diag(matrix, identity(40))
    assert len(padded) == len(padded[0]) == 40 + len(matrix)
    for m in (matrix, padded):
        assert sparse_rank(sparse(m))[1] is False


def test_unit_pivots_alone_are_certified():
    # the 1 in row 1 is a unit pivot that clears row 0, so no core is left:
    # rank 1 over Q and over every GF(p)
    for m in (FIXED["no_unit_rank_one"], block_diag(FIXED["no_unit_rank_one"], identity(40))):
        assert sparse_rank(sparse(m)) == (len(m) - 1, True)
    assert sparse_rank(sparse(FIXED["deferred_retry"])) == (2, True)
    assert sparse_rank(sparse(FIXED["deferred_retry_column_order"])) == (2, True)
    assert sparse_rank(sparse(identity(5)), 2) == (5, False)


def test_two_identity_ranks_by_field():
    rows = sparse([[2, 0], [0, 2]])
    assert [sparse_rank(rows, p)[0] for p in FIELDS] == [2, 0, 2, 2]


def test_empty():
    assert sparse_rank([]) == (0, True)
    assert sparse_rank([{}, {}], 3) == (0, False)


def assert_pivot_rows_independent(matrix):
    # the reported input rows are independent over the field, and a Q
    # elimination's over every GF(p) too; they number the rank unless a
    # Bareiss core was left
    rows = sparse(matrix)
    for p in FIELDS:
        pivots = set()
        rank, certified = sparse_rank(rows, p, pivots)
        chosen = [matrix[i] for i in sorted(pivots)]
        for q in FIELDS if p is None else (p,):
            assert dense_rank(chosen, q) == len(pivots), (p, q)
        if certified or p is not None:
            assert len(pivots) == rank, p
        assert len(pivots) <= rank


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(integer_matrices(), integer_matrices(MOSTLY_UNITS)))
def test_pivot_rows_are_independent(matrix):
    assert_pivot_rows_independent(matrix)


@pytest.mark.parametrize("name", sorted(FIXED))
def test_pivot_rows_are_independent_on_fixed_cases(name):
    matrix = FIXED[name]
    assert_pivot_rows_independent(matrix)
    assert_pivot_rows_independent(block_diag(matrix, identity(40)))


def test_pivot_rows_leave_out_the_bareiss_core():
    # no unit entry at all: the whole matrix is the core, and no row is reported
    pivots = set()
    assert sparse_rank(sparse(FIXED["bareiss_core"]), None, pivots) == (3, False)
    assert pivots == set()
    pivots = set()
    assert sparse_rank(sparse(FIXED["bareiss_core"]), 5, pivots) == (3, False)
    assert len(pivots) == 3
