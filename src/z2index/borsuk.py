"""The Z2-index classifier for free involutions given by surgery data.

For each connected-double-cover class x of the quotient manifold the
index is decided by two exact criteria on an integral lift X of x:

* index 3  iff  (1/2) X^T B X is odd (triple cup product);
* index 1  iff  Y = (1/2) B X vanishes in coker(B) (Bockstein);
* index 2  otherwise.

The self-linking value of Y under the torsion linking form is computed as
an independent cross-check: it must equal (1/4) X^T B X mod 1 and be 1/2
exactly in the index-3 case.

Everything that belongs to the presentation rather than to one class (the
symmetry check, the mod-2 reduction and the Smith form) is computed once,
in an `Analysis`.  Each class then costs one B X, which gives Y and
X^T B X; one U Y, which decides the Bockstein test and gives the order of
Y; one more B X inside the public `triple_cup`, so that the verdict is the
one its tests check; and, with the cross-check, one V c and one exact B z.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactlinalg import (
    DimensionError,
    GF2Matrix,
    IntMatrix,
    InvariantViolation,
    SmithDecomposition,
    checked_solution,
    gf2_kernel_basis,
    is_in_integral_image,
    smith_normal_form,
)
from .homology import CoverClass, QmodZ, classes_from_kernel


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
    bu_holds_for: tuple[int, ...]


@dataclass(frozen=True)
class ClassificationResult:
    """Reports for all double-cover classes of one presentation."""

    reports: tuple[IndexReport, ...]
    truncated: bool
    note: str | None = None


def lift_class(x: CoverClass) -> tuple[int, ...]:
    """The canonical {0,1}-entry integral lift of a mod-2 class."""
    return x.bits()


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


@dataclass(frozen=True)
class Analysis:
    """What the classification needs of one presentation, computed once."""

    b: IntMatrix
    bbar: GF2Matrix
    smith: SmithDecomposition

    @classmethod
    def of(cls, b: IntMatrix) -> "Analysis":
        if not b.is_symmetric:
            raise DimensionError("linking matrix must be symmetric")
        return cls(b, GF2Matrix.from_int_matrix(b), smith_normal_form(b))

    def classify(self, x: CoverClass, *, crosscheck: bool = True) -> IndexReport:
        """Classify one double-cover class of the presentation."""
        b = self.b
        if not self.bbar.mul_vec(x.vector).is_zero:
            raise ValueError("class is not in the mod-2 kernel of the "
                             "linking matrix")
        lift = lift_class(x)
        y = bockstein_representative(b, lift)
        # X^T B X from the same B X: 2Y = B X
        quad = 2 * sum(xi * yi for xi, yi in zip(lift, y))
        # 2Y = B X lies in im(B), so Y has order 1 or 2 in coker(B)
        order, coeffs = self.smith.reduce(y)
        if order not in (1, 2):
            raise InvariantViolation(
                f"Bockstein representative has order {order} in coker(B), "
                "not 1 or 2"
            )
        vanishes = order == 1
        cup = triple_cup(b, lift)
        if cup == 1 and vanishes:
            raise InvariantViolation(
                "triple cup nonzero but Bockstein vanishes: trichotomy broken"
            )
        index = 3 if cup == 1 else (1 if vanishes else 2)
        self_linking = None
        if crosscheck:
            # torsion linking lk(Y, Y) = (z . Y)/n for an exact solution z of
            # B z = nY, checked against the quarter form computed from X
            z = checked_solution(b, self.smith, y, order, coeffs)
            self_linking = QmodZ.from_fraction(
                Fraction(sum(zi * yi for zi, yi in zip(z, y)), order))
            expected = QmodZ.from_fraction(Fraction(quad, 4))
            if self_linking != expected:
                raise InvariantViolation(
                    f"self-linking {self_linking} != quarter-form value "
                    f"{expected}"
                )
            if self_linking.value not in (Fraction(0), Fraction(1, 2)):
                raise InvariantViolation(
                    f"self-linking of a 2-torsion class must be 0 or 1/2, "
                    f"got {self_linking}"
                )
            if (self_linking.value == Fraction(1, 2)) != (cup == 1):
                raise InvariantViolation(
                    "linking-form verdict disagrees with the triple cup"
                )
        return IndexReport(
            cover_class=x,
            lift=lift,
            bockstein_rep=y,
            beta_vanishes=vanishes,
            triple_cup=cup,
            self_linking=self_linking,
            index=index,
            bu_holds_for=tuple(range(1, index + 1)),
        )


def classify_class(b: IntMatrix, x: CoverClass, *, crosscheck: bool = True) -> IndexReport:
    """Classify one double-cover class of the presentation b."""
    return Analysis.of(b).classify(x, crosscheck=crosscheck)


def classify_all(b: IntMatrix, cap: int = 1024, *, crosscheck: bool = True) -> ClassificationResult:
    """Classify every double-cover class of b, in lexicographic bit order.

    Subject to the cap policy of cover_classes: past the cap only the
    kernel basis is classified and the result is marked truncated.
    """
    if b.rows == 0:
        return ClassificationResult(
            reports=(),
            truncated=False,
            note="simply connected: no free involutions with connected "
                 "quotient data in this framework",
        )
    analysis = Analysis.of(b)
    classes, truncated = classes_from_kernel(
        gf2_kernel_basis(analysis.bbar), b.cols, cap)
    reports = tuple(
        analysis.classify(x, crosscheck=crosscheck) for x in classes
    )
    note = None
    if not reports:
        note = "no connected double cover"
    elif truncated:
        note = (f"kernel has {2 ** len(classes) - 1} nonzero classes; "
                "only a basis is classified (cap exceeded)")
    return ClassificationResult(reports=reports, truncated=truncated, note=note)


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
