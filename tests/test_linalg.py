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


@st.composite
def integer_matrices(draw):
    # small shapes (at most 32 x 32) and large ones (at least 33 x 33); one
    # byte per entry (drawn at once, which keeps generation fast): below 128
    # it maps onto -3..3, otherwise to 0, so sparse boundary-like matrices
    # are common
    large = draw(st.booleans())
    nrows = draw(st.integers(33, 40) if large else st.integers(0, 32))
    ncols = draw(st.integers(33, 40) if large else st.integers(1, 32))
    cells = draw(st.binary(min_size=nrows * ncols, max_size=nrows * ncols))
    entries = [b % 7 - 3 if b < 128 else 0 for b in cells]
    return [entries[i * ncols:(i + 1) * ncols] for i in range(nrows)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(integer_matrices())
def test_sparse_rank_matches_dense_oracle(matrix):
    rows = sparse(matrix)
    before = copy.deepcopy(rows)
    for p in FIELDS:
        assert sparse_rank(rows, p) == dense_rank(matrix, p), p
    assert rows == before


FIXED = {
    "two_identity": [[2, 0], [0, 2]],
    "no_unit_rank_one": [[2, 4], [1, 2]],
    "zero_rows": [[0, 0, 0], [0, 0, 0]],
    "zero_row_among_others": [[0, 0], [1, 2], [0, 0], [2, 4]],
    # column 1 has no +-1 entry until column 0 is eliminated: deferred, then retried
    "deferred_retry": [[1, 2], [1, 3]],
    # only non-unit entries: the whole matrix is a Bareiss core over Q
    "bareiss_core": [[2, 3, 0], [3, 2, 2], [0, 2, 3]],
}


@pytest.mark.parametrize("p", FIELDS)
@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_cases(name, p):
    matrix = FIXED[name]
    assert sparse_rank(sparse(matrix), p) == dense_rank(matrix, p)
    # the same block inside a larger, sparser matrix
    padded = block_diag(matrix, identity(40))
    assert sparse_rank(sparse(padded), p) == dense_rank(padded, p)


def test_two_identity_ranks_by_field():
    rows = sparse([[2, 0], [0, 2]])
    assert [sparse_rank(rows, p) for p in FIELDS] == [2, 0, 2, 2]


def test_empty():
    assert sparse_rank([]) == 0
    assert sparse_rank([{}, {}], 3) == 0
