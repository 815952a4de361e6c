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
    """Immutable integer matrix, row-major."""

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

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        entries = tuple(tuple(int(e) for e in r) for r in rows)
        nrows = len(entries)
        ncols = len(entries[0]) if entries else 0
        return cls(nrows, ncols, entries)

    @classmethod
    def diagonal(cls, diag) -> "IntMatrix":
        diag = [int(d) for d in diag]
        n = len(diag)
        return cls(n, n, tuple(
            tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n)
        ))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @cached_property
    def is_symmetric(self) -> bool:
        # kept on the matrix, so that every check of one matrix after the
        # first, such as a presentation's and then its analysis's, is free
        return self.is_square and tuple(zip(*self.entries)) == self.entries

    @cached_property
    def _sparse_rows(self):
        """(columns, values) of the nonzero entries of each row."""
        columns = range(self.cols)
        return tuple((tuple(compress(columns, row)), tuple(compress(row, row)))
                     for row in self.entries)

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
        # a sum over the nonzero entries of each row, so a sparse matrix,
        # such as the chain of a lens space, costs its nonzeros, not n^2
        mul, at = operator.mul, vec.__getitem__
        return tuple(sum(map(mul, values, map(at, columns)))
                     for columns, values in self._sparse_rows)

    def diagonal_entries(self) -> tuple[int, ...]:
        return tuple(
            self.entries[i][i] for i in range(min(self.rows, self.cols))
        )

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

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
        d = self.s.diagonal_entries()
        return d + (0,) * (self.s.rows - len(d))

    def cokernel(self) -> "AbelianGroup":
        """Z^m / im(b) for the square matrix b that this decomposes."""
        return diagonal_cokernel(self.diagonal)

    def verify(self, b: IntMatrix) -> bool:
        if (self.u @ b @ self.v) != self.s:
            return False
        if abs(self.u.det()) != 1 or abs(self.v.det()) != 1:
            return False
        d = self.s.diagonal_entries()
        # a divisor chain of entries >= 0, zeros last, and nothing off it
        if any(x < 0 for x in d) or any(
                c % a if a else c for a, c in zip(d, d[1:])):
            return False
        return not any(e for i, row in enumerate(self.s.entries)
                       for j, e in enumerate(row) if i != j)


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


def eliminate(a: list[list[int]], m: int, n: int) -> list[list[int]]:
    """Bring the leading m x n block of the rows a to Smith normal form in
    place, and return a.  Row operations act on whole rows and column
    operations on every row, so rows [b | C] over rows [D] end as
    [U b V | U C] over [D V], with U b V = S.

    Pivot policy (Kannan-Bachem): the pivot at (t, t) is the nonzero entry
    of least absolute value in the trailing block a[t:m, t:n], the search
    stopping at the first unit, moved there by one row and one column swap.
    It reduces every row below and every column to its right; a remainder
    left in row t or column t starts a new search.  Once both are clear, a
    pivot other than +-1 that fails to divide a trailing row takes that row
    into row t and searches again.  Re-picking the least entry of the whole
    block keeps the entries of U and V small on dense input.  Rows with a
    negative diagonal entry are negated last.
    """
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
        if p not in (1, -1):
            # the pivot must divide the trailing block, or the divisor
            # chain fails later; add an offending row to row t
            off = next((i for i in range(t + 1, m)
                        if any(e % p for e in a[i][t + 1:n])), None)
            if off is not None:
                a[t] = [x + y for x, y in zip(at, a[off])]
                continue
        t += 1
    for i in range(min(m, n)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
    return a


def identity_rows(n: int) -> list[list[int]]:
    """The rows of I_n, as lists for `eliminate`."""
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def bordered(b: IntMatrix, ys) -> list[list[int]]:
    """`eliminate` of b bordered by the columns ys on the right and, when
    there are any, by I_n below: the rows [S | U Y] over [V], with
    U b V = S, or S alone when ys is empty."""
    return eliminate([list(row) + [y[i] for y in ys]
                      for i, row in enumerate(b.entries)]
                     + (identity_rows(b.cols) if ys else []), b.rows, b.cols)


def smith_normal_form(b: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms, u @ b @ v == s: b `bordered` by
    the columns of I_m.  Nothing is memoized."""
    m, n = b.rows, b.cols
    a = bordered(b, identity_rows(m))
    return SmithDecomposition(
        u=IntMatrix(m, m, tuple(tuple(row[n:]) for row in a[:m])),
        s=IntMatrix(m, n, tuple(tuple(row[:n]) for row in a[:m])),
        # with m = 0 there are no border columns, so `bordered` adds no V rows
        v=IntMatrix(n, n, tuple(map(tuple, a[m:] or identity_rows(n)))),
    )


def checked_solution(b: IntMatrix, y, rows, col: int):
    """(n, z) with n the least n >= 1 with n*y in im(b) and z = V c an
    integer solution of b z == n*y, checked exactly, from the rows of
    `bordered(b, ys)` with y the border column col; None when y has
    infinite order in coker(b).  With w = U y and d the diagonal of S,
    c_i = n*w_i/d_i, and 0 where d_i = 0."""
    m, cols = b.rows, b.cols
    w = [row[col] for row in rows[:m]]
    diagonal = [row[i] if i < cols else 0 for i, row in enumerate(rows[:m])]
    n = 1
    for wi, di in zip(w, diagonal):
        if di == 0:
            if wi:
                return None
        elif wi % di:
            n = lcm(n, di // gcd(di, wi))
    c = [n * wi // di if di else 0 for wi, di in zip(w, diagonal)]
    # z = V c, a sum over the columns of V at the nonzero c_i
    support = list(map(bool, c))
    nonzero = list(compress(c, support))
    z = tuple(sum(map(operator.mul, compress(row, support), nonzero))
              for row in rows[m:])
    if b.mul_vec(z) != tuple(n * e for e in y):
        raise InvariantViolation(
            "the Smith-form solution z does not solve b z = n y"
        )
    return n, z


def diagonal_cokernel(diagonal) -> AbelianGroup:
    """Z^m / im(diag(d_1, ..., d_m)), the direct sum of the Z/d_i.

    The entries need not form a divisor chain: zeros add to the free rank,
    units vanish, and one gcd/lcm sweep turns the rest into invariant
    factors, since Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b).  So the diagonals
    of the Smith forms of the blocks of a block-diagonal matrix give its
    cokernel.
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
    when b[i][j] != 0, and a block holds whatever that joins.  So b is
    block-diagonal on them, up to a permutation.

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

    columns = range(b.cols)
    for i, row in enumerate(b.entries):
        for j in compress(columns, row):
            ri, rj = root(i), root(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    blocks: dict[int, list[int]] = {}
    for i in range(b.rows):
        blocks.setdefault(root(i), []).append(i)
    return tuple(map(tuple, blocks.values()))


def principal_submatrix(b: IntMatrix, index) -> IntMatrix:
    """The rows and columns of b at the indices in index, in that order;
    b itself, not a copy, when index is every index of b in order."""
    index = tuple(index)
    if index == tuple(range(b.rows)) and b.is_square:
        return b
    rows = b.entries
    return IntMatrix(len(index), len(index), tuple(
        tuple(rows[i][j] for j in index) for i in index))


def cokernel_structure(b: IntMatrix) -> AbelianGroup:
    """Z^m / im(b) for a square presentation matrix b, from the diagonal of
    one bare `eliminate`."""
    if not b.is_square:
        raise DimensionError("cokernel_structure needs a square matrix")
    rows = bordered(b, ())
    return diagonal_cokernel([rows[i][i] for i in range(b.rows)])


def _int_vector(y, rows: int) -> tuple[int, ...]:
    """y as a tuple of ints, checked to have one entry per row."""
    y = tuple(int(e) for e in y)
    if len(y) != rows:
        raise DimensionError(f"vector length {len(y)} != row count {rows}")
    return y


def _solve(b: IntMatrix, y):
    """`checked_solution` of b z = n y, with y as the one border column."""
    y = _int_vector(y, b.rows)
    return checked_solution(b, y, bordered(b, [y]), b.cols)


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
        # only the nonzero entries of a row are looked at one by one
        columns = range(b.cols)
        return cls(b.rows, b.cols, tuple(
            sum(1 << j for j in compress(columns, row) if row[j] & 1)
            for row in b.entries))


def gf2_kernel_basis(bbar: GF2Matrix) -> list[GF2Vector]:
    """Basis of {x : bbar @ x == 0} over GF(2); empty iff the kernel is 0."""
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
