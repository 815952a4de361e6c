"""Homological data derived from a linking matrix.

First homology of the surgered manifold is the cokernel of the linking
matrix; its double covers are classified by the nonzero kernel vectors of
the mod-2 reduction; the torsion linking form is computed from the
presentation matrix by an order-scaled integral solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactlinalg import (
    AbelianGroup,
    DimensionError,
    GF2Matrix,
    GF2Vector,
    IntMatrix,
    cokernel_structure,
    gf2_kernel_basis,
    order_in_cokernel,
    solve_scaled,
)


class NonTorsionError(ValueError):
    """A class fed to the linking form has infinite order."""


@dataclass(frozen=True)
class QmodZ:
    """Exact rational reduced mod 1 into [0, 1)."""

    value: Fraction

    def __post_init__(self):
        if not (0 <= self.value < 1):
            raise ValueError("value must lie in [0, 1)")

    @classmethod
    def from_fraction(cls, f) -> "QmodZ":
        return cls(Fraction(f) % 1)

    def __add__(self, other: "QmodZ") -> "QmodZ":
        return QmodZ((self.value + other.value) % 1)

    def __neg__(self) -> "QmodZ":
        return QmodZ(-self.value % 1)

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class CoverClass:
    """A nonzero mod-2 kernel vector of the linking matrix: the class of a
    connected double cover of the surgered manifold."""

    vector: GF2Vector

    def __post_init__(self):
        if self.vector.is_zero:
            raise ValueError(
                "the zero class gives a disconnected double cover"
            )

    @classmethod
    def from_bits(cls, coords) -> "CoverClass":
        return cls(GF2Vector.from_bits(coords))

    def bits(self) -> tuple[int, ...]:
        return self.vector.to_bits()


def _require_symmetric(b: IntMatrix):
    if not b.is_symmetric:
        raise DimensionError("linking matrix must be symmetric")


def first_homology(b: IntMatrix) -> AbelianGroup:
    """H_1 of the surgered manifold: the cokernel of its linking matrix."""
    _require_symmetric(b)
    return cokernel_structure(b)


def cover_classes(b: IntMatrix, cap: int = 1024) -> tuple[list[CoverClass], bool]:
    """All connected-double-cover classes of b, lexicographic on bit
    patterns.

    Returns (classes, truncated).  When the kernel has 2^k - 1 > cap
    nonzero elements only a basis is returned and truncated is True.
    """
    _require_symmetric(b)
    return classes_from_kernel(
        gf2_kernel_basis(GF2Matrix.from_int_matrix(b)), b.cols, cap)


def classes_from_kernel(basis: list[GF2Vector], length: int,
                        cap: int = 1024) -> tuple[list[CoverClass], bool]:
    """cover_classes from an already computed mod-2 kernel basis of a
    linking matrix with `length` columns."""
    k = len(basis)
    if k and 2 ** k - 1 > cap:
        chosen = [CoverClass(v) for v in basis]
        truncated = True
    else:
        vectors = []
        for mask in range(1, 2 ** k):
            bits = 0
            for i in range(k):
                if (mask >> i) & 1:
                    bits ^= basis[i].bits
            vectors.append(GF2Vector(length, bits))
        chosen = [CoverClass(v) for v in vectors]
        truncated = False
    chosen.sort(key=lambda c: c.bits())
    return chosen, truncated


def torsion_linking(b: IntMatrix, a, c) -> QmodZ:
    """Torsion linking form of the surgered manifold on torsion classes of
    coker(b): with n the order of a and b @ z == n*a, the value is
    (z . c)/n mod 1.

    Independent of the chosen solution z and of the representatives of a
    and c modulo im(b).
    """
    a = tuple(int(e) for e in a)
    c = tuple(int(e) for e in c)
    solved = solve_scaled(b, a)
    if solved is None:
        raise NonTorsionError("first class has infinite order in coker(b)")
    if order_in_cokernel(b, c) is None:
        raise NonTorsionError("second class has infinite order in coker(b)")
    n, z = solved
    return QmodZ.from_fraction(
        Fraction(sum(zi * ci for zi, ci in zip(z, c)), n)
    )
