"""The Z2-index classifier for free involutions given by surgery data.

For each connected-double-cover class x of the quotient manifold the
index is decided by two exact criteria on an integral lift X of x:

* index 3  iff  (1/2) X^T B X is odd (triple cup product);
* index 1  iff  Y = (1/2) B X vanishes in coker(B) (Bockstein);
* index 2  otherwise.

The self-linking value of Y under the torsion linking form is computed as
an independent cross-check.  With n the order of Y in coker(B), which is 1
or 2, and B z = nY, it is lk(Y, Y) = (z . Y)/n mod 1.  It must equal the
quarter form (1/4) X^T B X = (X . Y)/2 mod 1, whose numerator X . Y mod 2
is the triple cup, so the whole check is one integer identity:
(n = 2 and z . Y odd) iff the triple cup is 1.

On the mod-2 kernel K = ker(B mod 2) all three are GF(2)-linear in x.  The
triple cup is, because X^T B X' is even when B X' is even.  The
self-linking is, because 2 lk(a, b) = lk(2a, b) = 0 for a and b of order
2.  The Bockstein vanishes exactly on K1, the reduction mod 2 of ker_Z(B)
(Bockstein sequence; Hatcher, Algebraic Topology, 3.E).  So an `Analysis`
classifies the k basis classes of K once: one B X each, which gives Y and
the triple cup X . Y mod 2, and, with the cross-check, the order n of Y,
an exact solution z of B z = nY and that identity; it keeps these as
bitmasks over the basis, and K1 as a GF(2) echelon of masks.

B is block-diagonal up to a permutation, with one block per connected
component of the graph in which i and j are joined when B_ij != 0.  H_1,
K, K1 and the linking form split as direct sums over the blocks.  So each
block gets one mod-2 elimination, whose kernel vectors, embedded in B, are
the basis of K, and one `eliminate`, through `bordered`.  A block with no
mod-2 kernel vector has odd determinant and runs bare: its diagonal is
all H_1 needs.  Any other block is bordered by the Y of its basis classes
and by I below: `checked_solution` reads U Y, the diagonal and V from its
rows for the cross-check, and the columns of V at the zero
diagonal entries span ker_Z, saturated since V is unimodular.  Each is
checked to solve B Z = 0 exactly, and dim K1 to be b1.  An `Analysis`
checks that its blocks partition the indices of B and hold every nonzero
entry of B, so that a split cannot lose kernel vectors.  Nothing is kept
from one presentation to the next.

A class is then its lift X, the tuple of its bits, with its mask over the
basis: `kernel_span` hands on the pair, and the report keeps the lift, so
no vector object is built for a class.  It costs one B X, the sum of the
rows of B at the support of X, which gives the reported Y and
X . Y = (1/2) X^T B X, plus a few popcounts: its verdict is the parity
of the basis masks and the reduction of its mask against K1.  The class
checks that B X is even, so that a block matrix that adds kernel vectors
shows, that the trichotomy holds, and that the linearly extended triple
cup and self-linking equal its own X . Y mod 2, which keeps the
cross-check off the path of the verdict it checks.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress

from .exactlinalg import (
    AbelianGroup,
    DimensionError,
    GF2Matrix,
    GF2Vector,
    IntMatrix,
    InvariantViolation,
    bordered,
    checked_solution,
    connected_blocks,
    diagonal_cokernel,
    gf2_kernel_basis,
    is_in_integral_image,
    principal_submatrix,
)
from .homology import CoverClass, QmodZ, kernel_span

_ZERO = QmodZ(Fraction(0))
_HALF = QmodZ(Fraction(1, 2))


@dataclass(frozen=True)
class IndexReport:
    """Verdict for one double-cover class, given by its lift: the class
    is the reduction mod 2 of the 0/1 vector lift."""

    lift: tuple[int, ...]
    bockstein_rep: tuple[int, ...]
    beta_vanishes: bool
    triple_cup: int
    self_linking: QmodZ | None
    index: int


@dataclass(frozen=True)
class ClassificationResult:
    """Reports for all double-cover classes of one presentation.

    `analysis` is the presentation's `Analysis` when the result comes from
    `classify_all`, so that a report can be built without analysing the
    presentation again."""

    reports: tuple[IndexReport, ...]
    truncated: bool
    note: str | None = None
    analysis: Analysis | None = field(default=None, compare=False, repr=False)


def bockstein_representative(b: IntMatrix, lift) -> tuple[int, ...]:
    """Y with 2Y = B X, exactly; represents the integral Bockstein of the
    class in coker(B)."""
    w = b.mul_vec(lift)
    if any(e & 1 for e in w):
        raise ValueError("B X is not even: the lift does not reduce to a "
                         "mod-2 kernel class")
    return tuple(e // 2 for e in w)


def beta_vanishes(b: IntMatrix, lift) -> bool:
    """True iff the integral Bockstein vanishes: Y in im_Z(B)."""
    return is_in_integral_image(b, bockstein_representative(b, lift))


def triple_cup(b: IntMatrix, lift) -> int:
    """(1/2) X^T B X mod 2; nonzero exactly in the index-3 case."""
    q = _dot(lift, b.mul_vec(lift))
    if q & 1:
        raise ValueError("X^T B X is odd: the lift does not reduce to a "
                         "mod-2 kernel class")
    return (q // 2) % 2


def _dot(u, v) -> int:
    return sum(map(operator.mul, u, v))


def _row_sum(b: IntMatrix, lift) -> tuple[int, ...]:
    """The sum of the rows of b at the support of the 0/1 vector X, which
    is B X for a symmetric b; zeros for the empty support."""
    return tuple(map(sum, zip(*compress(b.entries, lift)))) or (0,) * b.cols


def _nonzero_count(b: IntMatrix) -> int:
    return sum(b.cols - row.count(0) for row in b.entries)


def _parity(word: int) -> int:
    return word.bit_count() & 1


def _reduce(mask: int, echelon) -> int:
    """mask reduced by an echelon sorted by distinct lowest bits; 0 exactly
    on its span."""
    for row in echelon:
        if mask & row & -row:
            mask ^= row
    return mask


@dataclass(frozen=True)
class Block:
    """One connected block of a linking matrix: its indices in ascending
    order and the principal submatrix b on them."""

    index: tuple[int, ...]
    b: IntMatrix


@dataclass(frozen=True)
class Analysis:
    """What the classification needs of one presentation, computed once.

    It holds the connected blocks of b, the mod-2 kernel basis, taken
    block by block, one `eliminate` of each block, and, as bitmasks over
    that basis, the verdict data: `cup_mask`, the echelon of the integral
    kernel mod 2 and `linking_mask`."""

    b: IntMatrix
    blocks: tuple[Block, ...]

    def __post_init__(self):
        # a split that misses an index or an entry of b would lose mod-2
        # kernel vectors, and no later check would see them missing
        if sorted(i for block in self.blocks for i in block.index) != list(
                range(self.b.rows)):
            raise InvariantViolation(
                "the blocks do not partition the indices of b")
        if _nonzero_count(self.b) != sum(
                _nonzero_count(block.b) for block in self.blocks):
            raise InvariantViolation(
                "the blocks do not hold every nonzero entry of b")

    @classmethod
    def of(cls, b: IntMatrix) -> "Analysis":
        if not b.is_symmetric:
            raise DimensionError("linking matrix must be symmetric")
        return cls(b, tuple(Block(index, principal_submatrix(b, index))
                            for index in connected_blocks(b)))

    @cached_property
    def _block_kernels(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """(f, t, lift) of each mod-2 kernel basis vector, ordered by its free
        column f in b: lift is a vector of `gf2_kernel_basis` of block t.  b
        is block-diagonal up to a permutation that keeps each block's order,
        so its reduced row echelon form mod 2 is that of the blocks, and
        these are the vectors `gf2_kernel_basis` gives for b."""
        return tuple(sorted(
            (block.index[v.bits.bit_length() - 1], t, v.to_bits())
            for t, block in enumerate(self.blocks)
            for v in gf2_kernel_basis(GF2Matrix.from_int_matrix(block.b))))

    @cached_property
    def basis(self) -> tuple[GF2Vector, ...]:
        """A basis of the mod-2 kernel of b."""
        return tuple(
            GF2Vector(self.b.rows, sum(
                1 << i for i in compress(self.blocks[t].index, lift)))
            for _, t, lift in self._block_kernels)

    @cached_property
    def _basis_classes(self) -> tuple[tuple, ...]:
        """(t, lift, Y, triple cup) of each basis class, from one B X.

        The class lies in block t, and lift and Y are restricted to that
        block, where B X vanishes outside it.  The triple cup is X . Y mod
        2, since X . Y = (1/2) X^T B X."""
        rows = []
        for _, t, lift in self._block_kernels:
            block = self.blocks[t]
            try:
                y = bockstein_representative(block.b, lift)
            except ValueError as exc:
                # the basis comes from the mod-2 kernel: an odd B X is a
                # fault of this program, not of its input
                raise InvariantViolation(
                    f"mod-2 kernel basis class {list(lift)} of block "
                    f"{list(block.index)}: {exc}"
                ) from exc
            rows.append((t, lift, y, _dot(lift, y) & 1))
        return tuple(rows)

    @cached_property
    def _eliminated(self) -> tuple[list[list[int]], ...]:
        """The rows of each block `bordered` by the Y of its basis classes,
        in basis order: [U b V | U Y] over V, or U b V alone for a block
        with no basis class."""
        borders = [[] for _ in self.blocks]
        for t, _, y, _ in self._basis_classes:
            borders[t].append(y)
        return tuple(bordered(block.b, ys)
                     for block, ys in zip(self.blocks, borders))

    @cached_property
    def homology(self) -> AbelianGroup:
        """H_1 of the surgered manifold: the direct sum of the cokernels of
        the blocks, from the diagonals of their Smith forms."""
        return diagonal_cokernel([
            rows[i][i] for block, rows in zip(self.blocks, self._eliminated)
            for i in range(block.b.rows)])

    @cached_property
    def _integral_kernel(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(t, Z) for each column Z of the V of block t at a zero diagonal
        entry: a basis of ker_Z(b).  A bare block has no V, so Z = ()."""
        return tuple(
            (t, tuple(row[j] for row in rows[block.b.rows:]))
            for t, (block, rows) in enumerate(zip(self.blocks,
                                                  self._eliminated))
            for j in range(block.b.rows) if rows[j][j] == 0)

    @cached_property
    def _kernel_echelon(self) -> tuple[int, ...]:
        """K1 as a GF(2) echelon of masks over the basis: beta(x) = 0
        exactly when the mask of x reduces to 0.  Each Z is checked to solve
        b Z = 0, so that it reduces into the span of the basis, where its
        coordinate on the vector of free column f is Z_f; and dim K1 = b1."""
        echelon = []
        for t, z in self._integral_kernel:
            block = self.blocks[t]
            if len(z) != block.b.rows or any(block.b.mul_vec(z)):
                raise InvariantViolation("a kernel column of V does not solve "
                                         f"B Z = 0 on block {list(block.index)}")
            if mask := _reduce(sum(
                    (z[bisect_left(block.index, f)] & 1) << i
                    for i, (f, s, _) in enumerate(self._block_kernels)
                    if s == t), echelon):
                echelon = sorted((*echelon, mask), key=lambda row: row & -row)
        if len(echelon) != self.homology.free_rank:
            raise InvariantViolation(f"dim K1 = {len(echelon)} != b1 = "
                                     f"{self.homology.free_rank}")
        return tuple(echelon)

    @cached_property
    def cup_mask(self) -> int:
        """Bit i: the triple cup of basis class i."""
        return sum(cup << i
                   for i, (*_, cup) in enumerate(self._basis_classes))

    @cached_property
    def linking_mask(self) -> int:
        """Bit i: the self-linking of basis class i is 1/2.

        Each value is lk(Y, Y) = (z . Y)/n, with the order n of Y and an
        exact solution z of B z = nY in the block, both from the border
        column U Y of the block's elimination.  2Y = B X lies in im(B), so
        n is 1 or 2, and lk(Y, Y) is 1/2 exactly when n = 2 and z . Y is
        odd.  The quarter form (1/4) X^T B X = (X . Y)/2 mod 1 is 1/2
        exactly when the triple cup X . Y mod 2 is 1, so the value must
        equal the quarter form and the cup in one integer identity."""
        mask = 0
        # the border column of the next class of each block, which is U Y
        column = [block.b.rows for block in self.blocks]
        for i, (t, _, y, cup) in enumerate(self._basis_classes):
            # infinite order, None, fails the order check below
            n, z = checked_solution(self.blocks[t].b, y, self._eliminated[t],
                                    column[t]) or (None, ())
            column[t] += 1
            if n not in (1, 2):
                raise InvariantViolation(
                    f"Bockstein representative has order {n} in "
                    "coker(B), not 1 or 2"
                )
            half = _dot(z, y) & 1 if n == 2 else 0
            if half != cup:
                raise InvariantViolation(
                    f"self-linking {Fraction(half, 2)} != quarter-form "
                    f"value {Fraction(cup, 2)}"
                )
            mask |= half << i
        return mask

    def _report(self, mask: int, lift: tuple[int, ...],
                crosscheck: bool) -> IndexReport:
        """Classify the class with bits lift, which is the sum of the basis
        classes in mask, from the basis masks and one B X."""
        # b is symmetric, which `of` checked, so its rows are its columns
        w = _row_sum(self.b, lift)
        if any(map((1).__and__, w)):
            raise InvariantViolation(
                f"B X is odd for the mod-2 kernel class {list(lift)}")
        y = tuple(map((1).__rrshift__, w))  # e >> 1, which is e // 2
        # X . Y = (1/2) X^T B X, computed from this class alone
        direct = sum(compress(y, lift)) & 1
        cup = _parity(mask & self.cup_mask)
        if cup != direct:
            raise InvariantViolation(
                f"triple cup {cup} from the basis != (1/2) X^T B X mod 2 = "
                f"{direct} for class {list(lift)}"
            )
        vanishes = _reduce(mask, self._kernel_echelon) == 0
        if cup == 1 and vanishes:
            raise InvariantViolation(
                "triple cup nonzero but Bockstein vanishes: trichotomy broken"
            )
        self_linking = None
        if crosscheck:
            if _parity(mask & self.linking_mask) != direct:
                raise InvariantViolation(
                    f"self-linking from the basis != quarter-form value "
                    f"{direct}/2 for class {list(lift)}"
                )
            self_linking = _HALF if direct else _ZERO
        index = 3 if cup == 1 else (1 if vanishes else 2)
        return IndexReport(
            lift=lift,
            bockstein_rep=y,
            beta_vanishes=vanishes,
            triple_cup=cup,
            self_linking=self_linking,
            index=index,
        )

    def classify(self, x: CoverClass, *, crosscheck: bool = True) -> IndexReport:
        """Classify one double-cover class of the presentation."""
        v = x.vector
        if v.length != self.b.cols:
            raise DimensionError(
                f"class length {v.length} != column count {self.b.cols}")
        # the basis vector of free column f has the bit f and otherwise only
        # pivot columns, so the bit f of x is its coordinate on that vector
        mask = sum(v.bit(f) << i
                   for i, (f, _, _) in enumerate(self._block_kernels))
        span = 0
        for i, u in enumerate(self.basis):
            span ^= u.bits if mask >> i & 1 else 0
        if span != v.bits:
            raise ValueError("class is not in the mod-2 kernel of the "
                             "linking matrix")
        return self._report(mask, x.bits(), crosscheck)

    def classify_all(self, cap: int = 1024, *,
                     crosscheck: bool = True) -> ClassificationResult:
        """Classify every double-cover class; see `classify_all`."""
        if self.b.rows == 0:
            return ClassificationResult(
                reports=(),
                truncated=False,
                note="simply connected: no free involutions with connected "
                     "quotient data in this framework",
                analysis=self,
            )
        span, truncated = kernel_span(self.basis, cap)
        reports = tuple(self._report(mask, lift, crosscheck)
                        for lift, mask in span)
        note = None
        if not reports:
            note = "no connected double cover"
        elif truncated:
            note = (f"kernel has {2 ** len(self.basis) - 1} nonzero classes; "
                    "only a basis is classified (cap exceeded)")
        return ClassificationResult(reports=reports, truncated=truncated,
                                    note=note, analysis=self)


def classify_class(b: IntMatrix, x: CoverClass, *, crosscheck: bool = True) -> IndexReport:
    """Classify one double-cover class of the presentation b."""
    return Analysis.of(b).classify(x, crosscheck=crosscheck)


def classify_all(b: IntMatrix, cap: int = 1024, *, crosscheck: bool = True) -> ClassificationResult:
    """Classify every double-cover class of b, in lexicographic bit order.

    Subject to the cap policy of cover_classes: past the cap only the
    kernel basis is classified and the result is marked truncated.
    """
    return Analysis.of(b).classify_all(cap, crosscheck=crosscheck)


def diagonal_index(diagonal, x: CoverClass) -> int:
    """Closed-form index for a diagonal linking matrix.

    The mod-2 kernel forces zero coordinates at odd diagonal entries; with
    s the sum of the even nonzero entries selected by x: index 3 iff
    s is not divisible by 4, else 2 iff x selects any even nonzero entry,
    else 1.
    """
    diagonal = [int(d) for d in diagonal]
    bits = x.bits()
    if len(bits) != len(diagonal):
        raise ValueError("class length does not match the diagonal")
    if any(bit and d % 2 for bit, d in zip(bits, diagonal)):
        raise ValueError("class is not in the mod-2 kernel of the diagonal "
                         "matrix")
    selected = [d for bit, d in zip(bits, diagonal) if bit and d != 0]
    s = sum(selected)
    if s % 4:
        return 3
    if selected:
        return 2
    return 1


def lens_rule_index(p: int):
    """Expected index for the double cover of L(p, q), any valid q.

    None for odd p (no connected double cover); otherwise 3 iff
    p = 2 mod 4, else 2.  Independent of q.
    """
    if p % 2:
        return None
    return 3 if p % 4 == 2 else 2
