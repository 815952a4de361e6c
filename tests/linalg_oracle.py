"""The dense routines that the sparse ones in `exactlinalg` and `surgery`
replaced, kept as small-n oracles for the differential tests.

`eliminate` works on rows as lists: each round swaps a row and a column
physically, scans every row for the pivot column and runs each column
operation over every row.  `gf2_kernel_basis` sweeps every row for every
column.  Both cost O(n^2) on a lens chain, which is why they are no longer
the program's, but their results are the reference: the sparse routines
must give the same U, S and V and the same basis.  `principal_submatrix`
and `block_diagonal` cut and join matrices entry by entry, through
`IntMatrix.from_rows`, where the program now cuts and joins the sparse rows.
`dense_matrix` builds a matrix of any shape from dense rows.
"""

import operator

from z2index.exactlinalg import DimensionError, GF2Matrix, GF2Vector, IntMatrix


def dense_matrix(rows: int, cols: int, entries) -> IntMatrix:
    """The rows x cols matrix with the dense rows entries: `from_rows`,
    checked to give that shape, or for no rows the constructor, since
    `from_rows` reads the width off the first row."""
    entries = list(entries)
    b = IntMatrix.from_rows(entries) if entries else IntMatrix(0, cols, ())
    if (b.rows, b.cols) != (rows, cols):
        raise DimensionError(f"{b.rows}x{b.cols} rows for a {rows}x{cols} "
                             "matrix")
    return b


def eliminate(a: list[list[int]], m: int, n: int) -> list[list[int]]:
    """Bring the leading m x n block of the rows a to a diagonal form in
    place, and return a.  Row operations act on whole rows and column
    operations on every row, so rows [b | C] over rows [D] end as
    [U b V | U C] over [D V], with U b V = S diagonal, under the pivot
    policy that `exactlinalg.eliminate` documents: no divisor chain."""
    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                e = abs(a[i][j])
                if e and (best is None or e < best[0]):
                    best = e, i, j
                    if e == 1:
                        break
            else:
                continue
            break
        if best is None:
            break
        _, i, j = best
        a[t], a[i] = a[i], a[t]
        if j != t:
            for r in a[t:]:
                r[t], r[j] = r[j], r[t]
        # rows above t and columns left of t are clear off the diagonal
        at, p = a[t], a[t][t]
        pivot_row = [(k, e) for k, e in enumerate(at) if e]
        for ai in a[t + 1:m]:
            if ai[t] and (q := ai[t] // p):
                for k, e in pivot_row:
                    ai[k] -= q * e
        column_ops = [(j, q) for j in range(t + 1, n) if (q := at[j] // p)]
        if column_ops:
            for r in a[t:]:
                if rt := r[t]:
                    for j, q in column_ops:
                        r[j] -= q * rt
        if any(map(operator.itemgetter(t), a[t + 1:m])) or any(at[t + 1:n]):
            continue
        t += 1
    for i in range(min(m, n)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
    return a


def identity_rows(n: int) -> list[list[int]]:
    """The rows of I_n, as lists for `eliminate`."""
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def bordered_rows(b: IntMatrix, ys, with_v: bool) -> list[list[int]]:
    """`eliminate` of the rows of b bordered by the columns ys on the right
    and, when with_v, by I_n below: [S | U Y] over [V]."""
    return eliminate([list(row) + [y[i] for y in ys]
                      for i, row in enumerate(b.entries)]
                     + (identity_rows(b.cols) if with_v else []),
                     b.rows, b.cols)


def gf2_kernel_basis(bbar: GF2Matrix) -> list[GF2Vector]:
    """Basis of {x : bbar @ x == 0} over GF(2), read off the reduced row
    echelon form built one column at a time."""
    rows = list(bbar.row_words)
    n = bbar.cols
    pivots: list[int] = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, len(rows)):
            if (rows[i] >> c) & 1:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and (rows[i] >> c) & 1:
                rows[i] ^= rows[r]
        pivots.append(c)
        r += 1
    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        bits = 1 << f
        for ri, c in enumerate(pivots):
            if (rows[ri] >> f) & 1:
                bits |= 1 << c
        basis.append(GF2Vector(n, bits))
    return basis


def principal_submatrix(b: IntMatrix, index) -> IntMatrix:
    """The rows and columns of b at index, in that order, read from the
    dense rows."""
    return IntMatrix.from_rows([[b.entries[i][j] for j in index]
                                for i in index])


def block_diagonal(matrices) -> IntMatrix:
    """The square matrices joined block-diagonally, each dense row padded
    with zeros for the components of the other parts."""
    n = sum(b.rows for b in matrices)
    rows, before = [], 0
    for b in matrices:
        left, right = (0,) * before, (0,) * (n - before - b.rows)
        rows += [left + row + right for row in b.entries]
        before += b.rows
    return IntMatrix.from_rows(rows)
