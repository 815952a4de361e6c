"""Exact integer and GF(2) linear algebra.

Everything here is exact: integers are Python's arbitrary-precision ints
and GF(2) vectors are bit-packed ints.  Nothing ever rounds.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from math import gcd, lcm


class DimensionError(ValueError):
    """Operands have incompatible shapes."""


class InvariantViolation(RuntimeError):
    """An internal consistency check of the exact computation failed."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major.

    `sparse_rows`, made at construction or given to `from_sparse`, is the
    one place the nonzero entries are found: a dict per row from column to
    entry, read by every structural pass.  It is shared, so read-only:
    `eliminate` only ever gets copies.  `from_sparse` leaves `entries` to
    their first use, so a lens chain costs its nonzeros until then."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionError("negative dimensions")
        if len(self.entries) != self.rows:
            raise DimensionError(
                f"expected {self.rows} rows, got {len(self.entries)}"
            )
        for r in self.entries:
            if len(r) != self.cols:
                raise DimensionError(
                    f"ragged row: expected {self.cols} entries, got {len(r)}"
                )
        # a tuple, so that compress makes no int for a skipped column
        columns = tuple(range(self.cols))
        object.__setattr__(self, "sparse_rows", tuple(
            {j: row[j] for j in compress(columns, row)}
            for row in self.entries))

    @classmethod
    def from_sparse(cls, rows: int, cols: int, sparse_rows,
                    symmetric: bool | None = None) -> "IntMatrix":
        """The matrix with the rows sparse_rows, dicts from column to
        nonzero entry, taken unchecked, as is symmetric when given."""
        b = object.__new__(cls)
        b.__dict__.update(rows=rows, cols=cols, sparse_rows=tuple(sparse_rows))
        if symmetric is not None:
            b.__dict__["is_symmetric"] = symmetric
        return b

    def __getattr__(self, name):
        if name != "entries":  # only a matrix from `from_sparse` lacks them
            raise AttributeError(f"IntMatrix has no attribute {name!r}")
        return vars(self).setdefault(name, tuple(map(tuple, self.to_lists())))

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        entries = tuple(tuple(int(e) for e in r) for r in rows)
        return cls(len(entries), len(entries[0]) if entries else 0, entries)

    @classmethod
    def diagonal(cls, diag) -> "IntMatrix":
        rows = [{i: d} if d else {} for i, d in enumerate(map(int, diag))]
        return cls.from_sparse(len(rows), len(rows), rows)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @cached_property
    def is_symmetric(self) -> bool:
        # kept, so that every check of a matrix after the first is free; a
        # zero whose mirror is not is caught at that mirror
        return self.is_square and all(
            self.sparse_rows[j].get(i) == e
            for i, row in enumerate(self.sparse_rows) for j, e in row.items())

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(
            tuple(self.entries[i][j] for i in range(self.rows))
            for j in range(self.cols)
        ))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by "
                f"{other.rows}x{other.cols}"
            )
        ot = other.transpose().entries
        return IntMatrix(self.rows, other.cols, tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
            for row in self.entries
        ))

    def mul_vec(self, vec) -> tuple[int, ...]:
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise DimensionError(
                f"vector length {len(vec)} != column count {self.cols}"
            )
        mul, at = operator.mul, vec.__getitem__
        return tuple(sum(map(mul, row.values(), map(at, row)))
                     for row in self.sparse_rows)

    def to_lists(self) -> list[list[int]]:
        """The rows as lists, spliced from the sparse rows."""
        zero, rows = [0] * self.cols, []
        for row in self.sparse_rows:
            rows.append(dense := zero.copy())
            for j, e in row.items():
                dense[j] = e
        return rows

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if not self.is_square:
            raise DimensionError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithDecomposition:
    """Unimodular u, v and diagonal s with u @ b @ v == s."""

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix

    @cached_property
    def diagonal(self) -> tuple[int, ...]:
        """The diagonal of s, padded with zeros to one entry per row."""
        return tuple(row.get(i, 0) for i, row in enumerate(self.s.sparse_rows))

    def cokernel(self) -> "AbelianGroup":
        """Z^m / im(b) for the square matrix b that this decomposes."""
        return diagonal_cokernel(self.diagonal)

    def verify(self, b: IntMatrix) -> bool:
        if (self.u @ b @ self.v) != self.s:
            return False
        if abs(self.u.det()) != 1 or abs(self.v.det()) != 1:
            return False
        d = self.diagonal
        # a divisor chain of entries >= 0, zeros last, and nothing off it
        if any(x < 0 for x in d) or any(
                c % a if a else c for a, c in zip(d, d[1:])):
            return False
        return all(set(row) <= {i} for i, row in enumerate(self.s.sparse_rows))


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form."""

    invariant_factors: tuple[int, ...]
    free_rank: int

    def __post_init__(self):
        if any(f < 2 for f in self.invariant_factors):
            raise ValueError("invariant factors must be >= 2")
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisor chain")
        if self.free_rank < 0:
            raise ValueError("free rank must be >= 0")


def eliminate(rows: list[dict[int, int]], border: list[list[int]], n: int,
              columns: list[dict[int, int]]) -> list[int]:
    """Bring an m x n integer block b to a diagonal form S = U b V, and
    return the diagonal of S, one entry per row of b, positive entries
    first: not a divisor chain, which only `smith_normal_form` makes.

    rows holds the nonzero entries of each row of b, by column, and is
    worked on in place.  border, empty or one per row of b, holds the rows
    of a border C on the right, and row operations act on it in place;
    columns, empty or one per column of b, holds the nonzero entries of
    each column of a matrix D below b, by row, and column operations act on
    it in place.  They end as the rows of U C and the columns of D V; an
    entry of a column that cancelled stays there as a 0.

    Pivot policy (Kannan-Bachem): the pivot at (t, t) is the nonzero entry
    of least absolute value in the trailing block, scanned row by row in
    position order and stopping at the first unit, moved there by one row
    and one column swap.  It reduces every row below and every column to
    its right; a remainder left in row t or column t starts a new search.
    Re-picking the least entry of the whole block keeps the entries of U
    and V small on dense input.  Rows of negative pivots are negated last.

    The swaps permute positions, applied to border and columns once at the
    end, and an index from each column to the rows holding it finds the
    rows a pivot meets.  So a step costs the entries it changes and their
    fill, not the size of the block: a lens chain, tridiagonal, costs O(n).
    """
    m = len(rows)
    holders = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    order = list(range(m))          # the row at each position
    cols = list(range(n))           # the column at each position
    where = cols.copy()             # the position of each column
    t = 0
    while t < m and t < n:
        # the rows at positions t and on are zero left of position t
        least = 0
        for pos in range(t, m):
            if row := rows[order[pos]]:
                e = min(map(abs, row.values()))
                if e < least or not least:
                    least, at = e, pos
                    if e == 1:
                        break
        if not least:
            break
        pr = order[at]
        order[at], order[t] = order[t], pr
        prow = rows[pr]
        if len(prow) == 1:
            pc, = prow
            j = where[pc]
        else:
            _, j = min(zip(map(abs, prow.values()),
                           map(where.__getitem__, prow)))
            pc = cols[j]
        c = cols[t]
        cols[t], cols[j], where[c], where[pc] = pc, c, j, t
        p = prow[pc]
        # |p| is least in the trailing block, so no quotient below is 0
        below = holders[pc]
        if len(below) > 1:
            pivot_row = list(prow.items())
            pivot_border = ([(k, e) for k, e in enumerate(border[pr]) if e]
                            if border else ())
            for i in below - {pr}:
                q = rows[i][pc] // p
                _subtract(rows[i], holders, i, pivot_row, q)
                for k, e in pivot_border:
                    border[i][k] -= q * e
        if len(prow) > 1:
            ops = [(k, e // p) for k, e in prow.items() if k != pc]
            for i in below:
                _subtract(rows[i], holders, i, ops, rows[i][pc])
            if columns:
                source = columns[pc].items()
                for k, q in ops:
                    column = columns[k]
                    for r, e in source:
                        if r in column:
                            column[r] -= q * e
                        elif e:
                            column[r] = -q * e
        if len(below) == 1 and len(prow) == 1:
            t += 1
    diagonal = [rows[order[pos]][cols[pos]] for pos in range(t)]
    if border:
        border[:] = map(border.__getitem__, order)
        for pos, d in enumerate(diagonal):
            if d < 0:
                border[pos] = list(map(operator.neg, border[pos]))
    if columns:
        columns[:] = map(columns.__getitem__, cols)
    return list(map(abs, diagonal)) + [0] * (m - t)


def _subtract(row: dict[int, int], holders: list[set[int]], i: int, pairs,
              s: int) -> None:
    """row -= s * the sparse row pairs, (column, entry), on row i, keeping
    its nonzero entries and the index holders exact."""
    for k, e in pairs:
        if k in row:
            if x := row[k] - s * e:
                row[k] = x
            else:
                del row[k]
                holders[k].discard(i)
        else:
            row[k] = -s * e
            holders[k].add(i)


def bordered(b: IntMatrix, ys):
    """`eliminate` of copies of the rows of b.sparse_rows bordered by the
    columns ys on the right and, when there are any, by I_n below: (diagonal
    of S, rows of U Y, columns of V), with U b V = S; [] for both if no ys."""
    border = list(map(list, zip(*ys)))
    columns = [{j: 1} for j in range(b.cols)] if ys else []
    return (eliminate(list(map(dict.copy, b.sparse_rows)), border, b.cols,
                      columns), border, columns)


def smith_normal_form(b: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms, u @ b @ v == s, not memoized: the
    diagonal form of `eliminate` of b bordered by I_m on the right and by
    I_n below, made a divisor chain d_1 | d_2 | ... pair by pair.  Entries
    a before c, a not dividing c, become g = gcd(a, c) = s a + t c before
    ac/g (Cohen, Alg. 2.4.14): rows i and j of u take [[s, t], [-c/g, a/g]]
    and columns i and j of v [[1, -t c/g], [1, s a/g]], both unimodular,
    and a zero a before a nonzero c moves after it."""
    m, n = b.rows, b.cols
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    columns = [{j: 1} for j in range(n)]
    d = eliminate(list(map(dict.copy, b.sparse_rows)), u, n, columns)
    v = [[column.get(r, 0) for r in range(n)] for column in columns]
    for i in range(min(m, n)):
        for j in range(i + 1, min(m, n)):
            a, c = d[i], d[j]
            if a == 1:
                break
            if c % a if a else c:
                g = gcd(a, c)
                a, c = a // g, c // g
                s = pow(a, -1, c)
                t = (1 - s * a) // c
                u[i], u[j] = ([s * x + t * y for x, y in zip(u[i], u[j])],
                              [a * y - c * x for x, y in zip(u[i], u[j])])
                v[i], v[j] = ([x + y for x, y in zip(v[i], v[j])], [
                    s * a * y - t * c * x for x, y in zip(v[i], v[j])])
                d[i], d[j] = g, a * d[j]
    return SmithDecomposition(
        u=IntMatrix(m, m, tuple(map(tuple, u))),
        s=IntMatrix(m, n, tuple(tuple(e if j == i else 0 for j in range(n))
                                for i, e in enumerate(d))),
        v=IntMatrix(n, n, tuple(zip(*v))),
    )


def checked_solution(b: IntMatrix, y, eliminated, col: int):
    """(n, z) with n the least n >= 1 with n*y in im(b) and z = V c an
    integer solution of b z == n*y, checked exactly, from
    `bordered(b, ys)` with y the border column col; None when y has
    infinite order in coker(b).  With w = U y and d the diagonal of S,
    c_i = n*w_i/d_i, and 0 where d_i = 0."""
    diagonal, border, columns = eliminated
    w = [row[col] for row in border]
    n = 1
    for wi, di in zip(w, diagonal):
        if di == 0:
            if wi:
                return None
        elif wi % di:
            n = lcm(n, di // gcd(di, wi))
    # z = V c, a sum over the columns of V at the nonzero c_i
    z = [0] * b.cols
    for wi, di, column in zip(w, diagonal, columns):
        if wi and di:
            ci = n * wi // di
            for r, e in column.items():
                z[r] += ci * e
    z = tuple(z)
    if b.mul_vec(z) != tuple(n * e for e in y):
        raise InvariantViolation(
            "the solution z = V c does not solve b z = n y"
        )
    return n, z


def diagonal_cokernel(diagonal) -> AbelianGroup:
    """Z^m / im(diag(d_1, ..., d_m)), the direct sum of the Z/d_i.

    The entries need not form a divisor chain: zeros add to the free rank,
    units vanish, and one gcd/lcm sweep turns the rest into invariant
    factors, since Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b).  So the diagonals
    that `eliminate` gives for the blocks of a block-diagonal matrix give
    its cokernel.
    """
    factors = [abs(d) for d in diagonal if d not in (0, 1, -1)]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, c = factors[i], factors[j]
            g = gcd(a, c)
            factors[i], factors[j] = g, a // g * c
    return AbelianGroup(
        invariant_factors=tuple(f for f in factors if f != 1),
        free_rank=sum(1 for d in diagonal if d == 0),
    )


def connected_blocks(b: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """The connected blocks of a square matrix b: i and j share a block
    when b[i][j] is in b.sparse_rows, and a block holds whatever that
    joins.  So b is block-diagonal on them, up to a permutation.

    Each block lists its indices in ascending order; blocks come in the
    order of their least index.  A zero row is a block of its own.
    """
    if not b.is_square:
        raise DimensionError("connected_blocks needs a square matrix")
    parent = list(range(b.rows))

    def root(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, row in enumerate(b.sparse_rows):
        for j in row:
            ri, rj = root(i), root(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    blocks: dict[int, list[int]] = {}
    for i in range(b.rows):
        blocks.setdefault(root(i), []).append(i)
    return tuple(map(tuple, blocks.values()))


def principal_submatrix(b: IntMatrix, index) -> IntMatrix:
    """The rows and columns of b at the distinct indices in index, in that
    order; b itself, not a copy, when index is every index of b in order."""
    index = tuple(index)
    if index == tuple(range(b.rows)) and b.is_square:
        return b
    at = {j: pos for pos, j in enumerate(index)}
    return IntMatrix.from_sparse(len(index), len(index), (
        {at[j]: e for j, e in b.sparse_rows[i].items() if j in at}
        for i in index))


def cokernel_structure(b: IntMatrix) -> AbelianGroup:
    """Z^m / im(b) for a square presentation matrix b, from the diagonal of
    one bare `eliminate`."""
    if not b.is_square:
        raise DimensionError("cokernel_structure needs a square matrix")
    return diagonal_cokernel(bordered(b, ())[0])


def _int_vector(y, rows: int) -> tuple[int, ...]:
    """y as a tuple of ints, checked to have one entry per row."""
    y = tuple(int(e) for e in y)
    if len(y) != rows:
        raise DimensionError(f"vector length {len(y)} != row count {rows}")
    return y


def _solve(b: IntMatrix, y):
    """`checked_solution` of b z = n y, with y as the one border column."""
    y = _int_vector(y, b.rows)
    return checked_solution(b, y, bordered(b, [y]), 0)


def order_in_cokernel(b: IntMatrix, y):
    """Least n >= 1 with n*y in im(b), or None when y has infinite order."""
    solved = _solve(b, y)
    return solved[0] if solved else None


def is_in_integral_image(b: IntMatrix, y) -> bool:
    """True iff b @ z == y has an integer solution z."""
    return order_in_cokernel(b, y) == 1


def solve_integral(b: IntMatrix, y):
    """An integer z with b @ z == y, or None when no such z exists."""
    solved = _solve(b, y)
    return solved[1] if solved and solved[0] == 1 else None


def congruence_transform(b: IntMatrix, p: IntMatrix) -> IntMatrix:
    """p^T @ b @ p for unimodular p; preserves symmetry and cokernel."""
    if not p.is_square or p.rows != b.rows or not b.is_square:
        raise DimensionError("congruence transform needs matching square shapes")
    if abs(p.det()) != 1:
        raise ValueError("transform matrix is not unimodular")
    return p.transpose() @ b @ p


# ---------------------------------------------------------------------------
# GF(2)


_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def word_bits(word: int, length: int) -> tuple[int, ...]:
    """The bits 0 .. length - 1 of word as a tuple of 0s and 1s, bit 0
    first."""
    # the binary digits below a 1 set at place `length`, bit 0 first,
    # each turned from the character "0" or "1" into the byte 0 or 1
    return tuple(bin(word | 1 << length)[:2:-1].encode()
                 .translate(_DIGIT_BYTES))


@dataclass(frozen=True)
class GF2Vector:
    """Vector over the two-element field, bit-packed (bit i = coordinate i)."""

    length: int
    bits: int

    def __post_init__(self):
        if self.length < 0:
            raise DimensionError("negative length")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits outside declared length")

    @classmethod
    def from_bits(cls, coords) -> "GF2Vector":
        coords = [int(c) % 2 for c in coords]
        bits = 0
        for i, c in enumerate(coords):
            if c:
                bits |= 1 << i
        return cls(len(coords), bits)

    def bit(self, i: int) -> int:
        return (self.bits >> i) & 1

    def to_bits(self) -> tuple[int, ...]:
        return word_bits(self.bits, self.length)

    @property
    def is_zero(self) -> bool:
        return self.bits == 0


@dataclass(frozen=True)
class GF2Matrix:
    """Matrix over GF(2) with bit-packed rows (bit j of row i = entry ij)."""

    rows: int
    cols: int
    row_words: tuple[int, ...]

    def __post_init__(self):
        if len(self.row_words) != self.rows:
            raise DimensionError("row count mismatch")
        for w in self.row_words:
            if w < 0 or w >> self.cols:
                raise ValueError("row word outside declared width")

    @classmethod
    def from_int_matrix(cls, b: IntMatrix) -> "GF2Matrix":
        # the odd entries of each row of b.sparse_rows
        return cls(b.rows, b.cols, tuple(
            sum(1 << j for j, e in row.items() if e & 1)
            for row in b.sparse_rows))


def gf2_kernel_basis(bbar: GF2Matrix) -> list[GF2Vector]:
    """Basis of {x : bbar @ x == 0} over GF(2); empty iff the kernel is 0.

    The vectors are those of the reduced row echelon form: one per free
    column f, in ascending order of f, with bit f and the bit of each pivot
    whose reduced row holds f.  Each row word goes into an echelon keyed by
    its lowest set bit; back-substitution, highest pivot first, clears the
    other pivot bits from each row.  So the work follows the set bits of
    the rows and their fill, not n^2: a lens chain costs O(n) operations on
    its words.
    """
    # keys are bit lengths, 1 + the index of a bit, which cost less to
    # hash than the bit itself on a wide word
    echelon: dict[int, int] = {}
    pivots = 0
    for word in bbar.row_words:
        while word:
            low = word & -word
            c = low.bit_length()
            if c not in echelon:
                echelon[c] = word
                pivots |= low
                break
            word ^= echelon[c]
    vectors: dict[int, int] = {}
    for c in sorted(echelon, reverse=True):
        word = echelon[c]
        low = 1 << c - 1
        # the rows of the pivots above are reduced, so each XOR clears one
        # pivot bit of word and sets no other
        above = word & pivots ^ low
        while above:
            bit = above & -above
            word ^= echelon[bit.bit_length()]
            above ^= bit
        echelon[c] = word
        free = word ^ low
        while free:
            bit = free & -free
            f = bit.bit_length()
            vectors[f] = vectors.get(f, bit) | low
            free ^= bit
    n = bbar.cols
    free = ((1 << n) - 1) ^ pivots
    basis = []
    while free:
        bit = free & -free
        basis.append(GF2Vector(n, vectors.get(bit.bit_length(), bit)))
        free ^= bit
    return basis
