"""The Z2-index classifier for free involutions given by surgery data.

For each connected-double-cover class x of the quotient manifold the
index is decided by two exact criteria on an integral lift X of x:

* index 3  iff  (1/2) X^T B X is odd (triple cup product);
* index 1  iff  Y = (1/2) B X vanishes in coker(B) (Bockstein);
* index 2  otherwise.

The self-linking value of Y under the torsion linking form is computed as
an independent cross-check: it must equal (1/4) X^T B X mod 1 and be 1/2
exactly in the index-3 case.

On the mod-2 kernel K = ker(B mod 2) all three are GF(2)-linear in x.  The
triple cup is, because X^T B X' is even when B X' is even.  The Bockstein
is a linear map K -> coker(B)[2].  The self-linking is, because
2 lk(a, b) = lk(2a, b) = 0 for a and b of order 2.  So an `Analysis`
classifies the k basis classes of K once, through the exact path: B X,
the Smith-form reduction of Y with its order check, the public
`triple_cup` and, with the cross-check, an exact solution z of B z = 2Y
and the quarter-form comparison.  It keeps the results as bitmasks over
the basis.  Everything else that belongs to the presentation (the
symmetry check, the mod-2 reduction, the Smith forms, the kernel basis) is
computed there once, too.

B is block-diagonal up to a permutation, with one block per connected
component of the graph in which i and j are joined when B_ij != 0; a
connected sum of lens spaces has one block per summand.  Everything above
splits as a direct sum over the blocks: H_1, K (each kernel basis vector
lies in the block of its free column), the Bockstein into coker(B)[2] and
the linking form.  So the elimination, which costs about m^3 on an m x m
matrix, runs once per block, on blocks of sizes m_1, ..., m_r, for the sum
of the m_i^3 in place of n^3; one mod-2 elimination of the whole B, which
is cheap, gives K.  A basis class is reduced by the Smith form of its own
block, and H_1 is merged from the blocks' invariant factors.  Nothing is
kept from one presentation to the next.

A class is then a mask over the basis, and costs one B X, which gives the
reported Y and X . Y = (1/2) X^T B X, plus a few popcounts: its verdict is
the XOR and the parity of the basis masks.  The class checks that B X is
even, that the trichotomy holds, and that the linearly extended triple
cup and self-linking equal its own X . Y mod 2, which keeps the
cross-check off the path of the verdict it checks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

from .exactlinalg import (
    AbelianGroup,
    DimensionError,
    GF2Matrix,
    GF2Vector,
    IntMatrix,
    InvariantViolation,
    SmithDecomposition,
    checked_solution,
    connected_blocks,
    diagonal_cokernel,
    gf2_kernel_basis,
    is_in_integral_image,
    principal_submatrix,
    smith_normal_form,
)
from .homology import CoverClass, QmodZ, kernel_span

_ZERO = QmodZ(Fraction(0))
_HALF = QmodZ(Fraction(1, 2))


@dataclass(frozen=True)
class IndexReport:
    """Verdict for one double-cover class."""

    cover_class: CoverClass
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
    q = sum(xi * e for xi, e in zip(lift, b.mul_vec(lift)))
    if q & 1:
        raise ValueError("X^T B X is odd: the lift does not reduce to a "
                         "mod-2 kernel class")
    return (q // 2) % 2


def _dot(u, v) -> int:
    return sum(map(operator.mul, u, v))


def _parity(word: int) -> int:
    return word.bit_count() & 1


def _xor_selected(mask: int, words) -> int:
    """The sum over GF(2) of the words whose position is a bit of mask."""
    total = 0
    for i, word in enumerate(words):
        if mask >> i & 1:
            total ^= word
    return total


@dataclass(frozen=True)
class Block:
    """One connected block of a linking matrix: its indices in ascending
    order, the principal submatrix b on them, and the Smith form of b."""

    index: tuple[int, ...]
    b: IntMatrix
    smith: SmithDecomposition


@dataclass(frozen=True)
class Analysis:
    """What the classification needs of one presentation, computed once.

    Besides the mod-2 reduction it holds the connected blocks of b, each
    with its Smith form, the mod-2 kernel basis and, as bitmasks over that
    basis, the verdict data of each basis class: `cup_mask`, `beta_rows`
    and `linking_mask`."""

    b: IntMatrix
    bbar: GF2Matrix
    blocks: tuple[Block, ...]

    @classmethod
    def of(cls, b: IntMatrix) -> "Analysis":
        if not b.is_symmetric:
            raise DimensionError("linking matrix must be symmetric")
        blocks = []
        for index in connected_blocks(b):
            sub = principal_submatrix(b, index)
            blocks.append(Block(index, sub, smith_normal_form(sub)))
        return cls(b, GF2Matrix.from_int_matrix(b), tuple(blocks))

    @cached_property
    def basis(self) -> tuple[GF2Vector, ...]:
        """A basis of the mod-2 kernel of b."""
        return tuple(gf2_kernel_basis(self.bbar))

    @cached_property
    def free_columns(self) -> tuple[int, ...]:
        """The free column of each basis vector: its highest set bit.

        `gf2_kernel_basis` gives the vector of free column f the bit f and,
        beside it, only pivot columns left of f, so bit f of a kernel class
        is its coordinate on that basis vector."""
        return tuple(v.bits.bit_length() - 1 for v in self.basis)

    @cached_property
    def homology(self) -> AbelianGroup:
        """H_1 of the surgered manifold: the direct sum of the cokernels of
        the blocks, from the diagonals of their Smith forms."""
        return diagonal_cokernel(
            [d for block in self.blocks for d in block.smith.diagonal])

    @cached_property
    def _basis_classes(self) -> tuple[tuple, ...]:
        """(t, lift, Y, order of Y, c, triple cup) of each basis class.

        The class lies in block t, the block of its free column, since
        elimination mod 2 never mixes rows of two blocks.  lift and Y are
        restricted to that block, where B X vanishes outside it, and
        (order, c) = blocks[t].smith.reduce(Y)."""
        owner = [0] * self.b.rows
        for t, block in enumerate(self.blocks):
            for i in block.index:
                owner[i] = t
        rows = []
        for v, f in zip(self.basis, self.free_columns):
            t = owner[f]
            block = self.blocks[t]
            lift = tuple(v.bits >> i & 1 for i in block.index)
            if sum(lift) != v.bits.bit_count():
                raise InvariantViolation(
                    f"mod-2 kernel basis class {list(v.to_bits())} leaves "
                    f"the block of its free column {f}")
            try:
                y = bockstein_representative(block.b, lift)
                cup = triple_cup(block.b, lift)
            except ValueError as exc:
                # the basis comes from the mod-2 kernel: an odd B X or
                # X^T B X is a fault of this program, not of its input
                raise InvariantViolation(
                    f"mod-2 kernel basis class {list(v.to_bits())}: {exc}"
                ) from exc
            # 2Y = B X lies in im(B), so Y has order 1 or 2 in coker(B)
            order, coeffs = block.smith.reduce(y)
            if order not in (1, 2):
                raise InvariantViolation(
                    f"Bockstein representative has order {order} in "
                    "coker(B), not 1 or 2"
                )
            rows.append((t, lift, y, order, coeffs, cup))
        return tuple(rows)

    @cached_property
    def cup_mask(self) -> int:
        """Bit i: the triple cup of basis class i."""
        return sum(cup << i
                   for i, (*_, cup) in enumerate(self._basis_classes))

    @cached_property
    def beta_rows(self) -> tuple[int, ...]:
        """Entry i: the Bockstein image of basis class i in coker(B)[2], the
        direct sum of the blocks' coker[2].  Block t's Smith coordinates
        start at bit offsets[t]; bit offsets[t] + j is set when the order
        is 2 and c_j is odd."""
        offsets = tuple(accumulate(
            (len(block.index) for block in self.blocks), initial=0))
        return tuple(
            sum((cj & 1) << j for j, cj in enumerate(coeffs)) << offsets[t]
            if order == 2 else 0
            for t, _, _, order, coeffs, _ in self._basis_classes
        )

    @cached_property
    def linking_mask(self) -> int:
        """Bit i: the self-linking of basis class i is 1/2.

        Each value is lk(Y, Y) = (z . Y)/n for an exact solution z of
        B z = nY in the block of the class, checked against the quarter form
        (1/4) X^T B X and the triple cup of the class."""
        mask = 0
        for i, (t, lift, y, order, coeffs, cup) in enumerate(
                self._basis_classes):
            block = self.blocks[t]
            z = checked_solution(block.b, block.smith, y, order, coeffs)
            linking = QmodZ.from_fraction(Fraction(_dot(z, y), order))
            expected = QmodZ.from_fraction(Fraction(2 * _dot(lift, y), 4))
            if linking != expected:
                raise InvariantViolation(
                    f"self-linking {linking} != quarter-form value "
                    f"{expected}"
                )
            if linking not in (_ZERO, _HALF):
                raise InvariantViolation(
                    f"self-linking of a 2-torsion class must be 0 or 1/2, "
                    f"got {linking}"
                )
            if (linking == _HALF) != (cup == 1):
                raise InvariantViolation(
                    "linking-form verdict disagrees with the triple cup"
                )
            mask |= (linking == _HALF) << i
        return mask

    def _report(self, mask: int, x: CoverClass, crosscheck: bool) -> IndexReport:
        """Classify the class x, which is the sum of the basis classes in
        mask, from the basis masks and one B X."""
        lift = x.bits()
        w = self.b.mul_vec(lift)
        if any(e & 1 for e in w):
            raise InvariantViolation(
                f"B X is odd for the mod-2 kernel class {list(lift)}")
        y = tuple(e // 2 for e in w)
        # X . Y = (1/2) X^T B X, computed from this class alone
        direct = _dot(lift, y) & 1
        cup = _parity(mask & self.cup_mask)
        if cup != direct:
            raise InvariantViolation(
                f"triple cup {cup} from the basis != (1/2) X^T B X mod 2 = "
                f"{direct} for class {list(lift)}"
            )
        vanishes = _xor_selected(mask, self.beta_rows) == 0
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
            cover_class=x,
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
        # the coordinates of x on the basis are its bits at the free columns
        mask = 0
        for i, f in enumerate(self.free_columns):
            mask |= v.bit(f) << i
        if _xor_selected(mask, (u.bits for u in self.basis)) != v.bits:
            raise ValueError("class is not in the mod-2 kernel of the "
                             "linking matrix")
        return self._report(mask, x, crosscheck)

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
        reports = tuple(self._report(mask, CoverClass(v), crosscheck)
                        for mask, v in span)
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
