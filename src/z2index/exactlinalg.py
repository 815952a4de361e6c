"""Exact integer, rational, and GF(2) linear algebra.

Everything here is exact: integers are Python's arbitrary-precision ints,
rationals are ``fractions.Fraction`` (always reduced, positive denominator),
and GF(2) vectors are bit-packed ints.  Nothing ever rounds.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
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
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n)
        ))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

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

    @property
    def is_symmetric(self) -> bool:
        return self.is_square and tuple(zip(*self.entries)) == self.entries

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
        mul = operator.mul
        return tuple(sum(map(mul, row, vec)) for row in self.entries)

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

    def reduce(self, y) -> tuple[int | None, tuple[int, ...]]:
        """Transform y by u and walk the diagonal of s, in one pass.

        Returns (n, c).  n is the least n >= 1 with n*y in im(b), or None
        when y has infinite order in coker(b).  For finite n, c holds the
        coefficients n*w_i/d_i (0 where d_i = 0), so that v @ c is an
        integer z with b @ z == n*y; for infinite order c is empty.  y must
        be a tuple of ints of length b.rows.
        """
        w = self.u.mul_vec(y)
        n = 1
        for wi, di in zip(w, self.diagonal):
            if di == 0:
                if wi:
                    return None, ()
            elif wi % di:
                n = lcm(n, di // gcd(di, wi))
        c = [n * wi // di if di else 0 for wi, di in zip(w, self.diagonal)]
        cols = self.v.rows
        return n, tuple(c[:cols] + [0] * (cols - len(c)))

    def cokernel(self) -> "AbelianGroup":
        """Z^m / im(b) for the square matrix b that this decomposes."""
        d = self.s.diagonal_entries()
        return AbelianGroup(
            invariant_factors=tuple(f for f in d if f >= 2),
            free_rank=sum(1 for f in d if f == 0),
        )

    def verify(self, b: IntMatrix) -> bool:
        if (self.u @ b @ self.v) != self.s:
            return False
        if abs(self.u.det()) != 1 or abs(self.v.det()) != 1:
            return False
        d = self.s.diagonal_entries()
        if any(x < 0 for x in d):
            return False
        for i in range(len(d) - 1):
            if d[i] == 0 and d[i + 1] != 0:
                return False
            if d[i] != 0 and d[i + 1] % d[i] != 0:
                return False
        # off-diagonal of s must vanish
        for i, row in enumerate(self.s.entries):
            for j, e in enumerate(row):
                if i != j and e != 0:
                    return False
        return True


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

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors and self.free_rank == 0


def smith_normal_form(b: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms: u @ b @ v == s.

    Pivots are chosen with minimal absolute value (with an early exit on
    units) to limit coefficient growth; entries stay exact throughout.
    Nothing is memoized: each call eliminates b.
    """
    m, n = b.rows, b.cols
    a = b.to_lists()
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_sub(i, j, q):
        # row_i -= q * row_j
        ai, aj = a[i], a[j]
        for k in range(n):
            ai[k] -= q * aj[k]
        ui, uj = u[i], u[j]
        for k in range(m):
            ui[k] -= q * uj[k]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_sub(j, i, q):
        # col_j -= q * col_i
        for r in a:
            r[j] -= q * r[i]
        for r in v:
            r[j] -= q * r[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    limit = min(m, n)
    for t in range(limit):
        best = None
        for i in range(t, m):
            ai = a[i]
            for j in range(t, n):
                e = ai[j]
                if e and (best is None or abs(e) < best[0]):
                    best = (abs(e), i, j)
                    if best[0] == 1:
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        while True:
            restart = False
            for i in range(m):
                if i != t and a[i][t]:
                    row_sub(i, t, a[i][t] // a[t][t])
                    if a[i][t]:
                        row_swap(i, t)
                        restart = True
                        break
            if restart:
                continue
            for j in range(n):
                if j != t and a[t][j]:
                    col_sub(j, t, a[t][j] // a[t][t])
                    if a[t][j]:
                        col_swap(j, t)
                        restart = True
                        break
            if restart:
                continue
            piv = a[t][t]
            if piv in (1, -1):
                break
            # the pivot must divide the trailing submatrix, or the
            # divisor chain fails later; pull an offending row up
            off = None
            for i in range(t + 1, m):
                ai = a[i]
                for j in range(t + 1, n):
                    if ai[j] % piv:
                        off = i
                        break
                if off is not None:
                    break
            if off is None:
                break
            row_sub(t, off, -1)
    for i in range(limit):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return SmithDecomposition(
        u=IntMatrix(m, m, tuple(map(tuple, u))),
        s=IntMatrix(m, n, tuple(map(tuple, a))),
        v=IntMatrix(n, n, tuple(map(tuple, v))),
    )


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
    """Z^m / im(b) for a square presentation matrix b."""
    if not b.is_square:
        raise DimensionError("cokernel_structure needs a square matrix")
    return smith_normal_form(b).cokernel()


def _reduce(b: IntMatrix, y):
    """(dec, y, n, c): b's Smith form, y as a tuple of ints checked against
    b, and (n, c) = dec.reduce(y)."""
    y = tuple(int(e) for e in y)
    if len(y) != b.rows:
        raise DimensionError(
            f"vector length {len(y)} != row count {b.rows}"
        )
    dec = smith_normal_form(b)
    return (dec, y, *dec.reduce(y))


def checked_solution(b: IntMatrix, dec: SmithDecomposition, y, n: int,
                     c) -> tuple[int, ...]:
    """z = dec.v @ c for (n, c) = dec.reduce(y), checked to solve
    b @ z == n*y exactly."""
    z = dec.v.mul_vec(c)
    if b.mul_vec(z) != tuple(n * e for e in y):
        raise InvariantViolation(
            "the Smith-form solution z does not solve b z = n y"
        )
    return z


def solve_scaled(b: IntMatrix, y):
    """(n, z) with n the order of y in coker(b) and z an integer solution
    of b @ z == n*y, or None when y has infinite order."""
    dec, y, n, c = _reduce(b, y)
    if n is None:
        return None
    return n, checked_solution(b, dec, y, n, c)


def order_in_cokernel(b: IntMatrix, y):
    """Least n >= 1 with n*y in im(b), or None when y has infinite order."""
    return _reduce(b, y)[2]


def is_in_integral_image(b: IntMatrix, y) -> bool:
    """True iff b @ z == y has an integer solution z."""
    return order_in_cokernel(b, y) == 1


def solve_integral(b: IntMatrix, y):
    """An integer z with b @ z == y, or None when no such z exists."""
    solved = solve_scaled(b, y)
    return solved[1] if solved and solved[0] == 1 else None


def solve_rational(b: IntMatrix, y):
    """An exact rational z with b @ z == y, or None if y is outside the
    rational column span."""
    solved = solve_scaled(b, y)
    if solved is None:
        return None
    n, z = solved
    return tuple(Fraction(e, n) for e in z)


def congruence_transform(b: IntMatrix, p: IntMatrix) -> IntMatrix:
    """p^T @ b @ p for unimodular p; preserves symmetry and cokernel."""
    if not p.is_square or p.rows != b.rows or not b.is_square:
        raise DimensionError("congruence transform needs matching square shapes")
    if abs(p.det()) != 1:
        raise ValueError("transform matrix is not unimodular")
    return p.transpose() @ b @ p


# ---------------------------------------------------------------------------
# GF(2)


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
        return tuple((self.bits >> i) & 1 for i in range(self.length))

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def __xor__(self, other: "GF2Vector") -> "GF2Vector":
        if self.length != other.length:
            raise DimensionError("length mismatch")
        return GF2Vector(self.length, self.bits ^ other.bits)


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
        words = []
        for row in b.entries:
            w = 0
            for j, e in enumerate(row):
                if e & 1:
                    w |= 1 << j
            words.append(w)
        return cls(b.rows, b.cols, tuple(words))

    def mul_vec(self, x: GF2Vector) -> GF2Vector:
        if x.length != self.cols:
            raise DimensionError("length mismatch")
        bits = 0
        for i, w in enumerate(self.row_words):
            if (w & x.bits).bit_count() & 1:
                bits |= 1 << i
        return GF2Vector(self.rows, bits)


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
