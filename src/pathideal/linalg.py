"""Exact matrix rank over the rationals and over prime fields.

Matrices arrive as sparse rows (dict column -> int).  One sparse
elimination in column order serves every field and every matrix size.
Most matrices the homology kernel hands over have a few rows, so the
elimination keeps its per-column cost to one pass over the rows of the
column, which picks the pivot (the rule is in ``sparse_rank``).
Over GF(p) it reduces entries mod p and divides by the pivot.  Over the
rationals it is fraction-free: it pivots on +-1 entries only (no
division), gives the columns without one another pass while passes still
find pivots, and hands any leftover core without unit entries to a dense
Bareiss elimination.  No floating point is used anywhere.

Certificate.  Over Q the elimination pivots only on +-1 entries and only
adds integer multiples of a pivot row to other rows, so it is a unimodular
row transform over Z, and such a transform stays invertible mod every
prime p.  When no core is left for ``bareiss_rank``, every row that did
not become a pivot is zero, and the r pivot rows, taken in pivot order,
form a triangular block on the pivot columns with +-1 on the diagonal
(each pivot column is cleared from all rows before the next pivot is
chosen).  Reduced mod p that block is still invertible and the other rows
are still zero, so the rank mod p equals the rank r over Q.
``sparse_rank`` reports this as ``certified``: the rank then holds over Q
and over every GF(p).

Pivot rows.  Each row of the current matrix is its input row plus a
combination of earlier pivot rows, so the input rows that became pivots
span the same space as their current forms, which are triangular on the
pivot columns.  The input pivot rows are therefore independent over the
field.  Over Q the triangular block has +-1 on its diagonal and the
combinations have integer coefficients, so they stay independent mod
every prime, with or without a leftover core.

Clearing (Chen-Kerber's twist).  Let P be a set of rows of d_{k+1} (they
are k-faces) that is independent over a field F.  Then d_{k+1} restricted
to the rows P has full row rank, so for each s in P some boundary
z = d_{k+1} w has z_s = 1 and z_t = 0 for the other t in P.  Since
d_k z = 0, column s of d_k is a combination of the columns outside P, and
rank d_k over F equals the rank of the columns of d_k outside P.  When P
holds the pivot rows of an elimination of d_{k+1} over Q, it is
independent over Q and over every GF(p), so the lemma holds over every
field at once, and a certified rank of the cleared d_k is still the rank
of d_k over every field.
"""
from __future__ import annotations


def bareiss_rank(matrix: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination on integer entries."""
    m = [row[:] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


def sparse_rank(
    rows: list[dict[int, int]], p: int | None = None, pivot_rows: set[int] | None = None
) -> tuple[int, bool]:
    """(rank, certified) of a sparse integer matrix over GF(p), or over Q
    when p is None.

    The columns are eliminated in ascending index order, each on its
    shortest usable row: any nonzero entry over GF(p), a +-1 entry over Q.
    Over Q a column with no +-1 entry is deferred, and the deferred columns
    get another pass for as long as the previous pass found a pivot;
    whatever is left goes to ``bareiss_rank``.  ``certified`` is true only
    over Q with no such leftover core, and then the rank is the same over
    every GF(p) (see the module docstring).  The input rows are copied, not
    changed.

    When ``pivot_rows`` is given, the index of every row that becomes a
    pivot of the sparse elimination is added to it.  Those rows of the
    input are linearly independent over the field, and over Q also mod
    every prime; there are as many as the rank unless a Bareiss core was
    left, whose rows are not reported.
    """
    rationals = p is None
    if rationals:
        # a row without zero entries, the usual one, is copied as it is
        rows = [
            row.copy() if 0 not in row.values() else {c: v for c, v in row.items() if v}
            for row in rows
        ]
    else:
        rows = [{c: v % p for c, v in row.items() if v % p} for row in rows]

    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            if c in col_rows:
                col_rows[c].add(i)
            else:
                col_rows[c] = {i}

    rank = 0
    pending = sorted(col_rows)
    while pending:
        pass_start = rank
        deferred: list[int] = []  # Q-mode columns without a unit entry
        for c in pending:
            rset = col_rows[c]
            # the shortest usable row, the first in set order on a tie
            r = -1
            shortest = 0
            for i in rset:
                row = rows[i]
                if rationals and row[c] not in (1, -1):
                    continue
                if r < 0 or len(row) < shortest:
                    r, shortest = i, len(row)
            if r < 0:
                if rset:
                    deferred.append(c)
                continue
            rank += 1
            if pivot_rows is not None:
                pivot_rows.add(r)
            pivot_row = rows[r]
            inv = pivot_row[c] if rationals else pow(pivot_row[c], -1, p)  # +-1 over Q
            for i in list(rset):
                if i == r:
                    continue
                target = rows[i]
                factor = target[c] * inv
                if not rationals:
                    factor %= p
                for cc, v in pivot_row.items():
                    cur = target.get(cc, 0)
                    nv = cur - factor * v
                    if not rationals:
                        nv %= p
                    if nv:
                        if not cur:
                            col_rows[cc].add(i)
                        target[cc] = nv
                    elif cur:
                        del target[cc]
                        col_rows[cc].discard(i)
            for cc in pivot_row:
                col_rows[cc].discard(r)
            rows[r] = {}
        pending = deferred if rank > pass_start else []

    if not rationals:
        return rank, False
    leftovers = [row for row in rows if row]
    if leftovers:
        cols = sorted({c for row in leftovers for c in row})
        cindex = {c: j for j, c in enumerate(cols)}
        dense = [[0] * len(cols) for _ in leftovers]
        for i, row in enumerate(leftovers):
            for c, v in row.items():
                dense[i][cindex[c]] = v
        rank += bareiss_rank(dense)
    return rank, not leftovers
