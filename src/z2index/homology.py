"""Homological data derived from a linking matrix.

First homology of the surgered manifold is the cokernel of the linking
matrix; its double covers are classified by the nonzero kernel vectors of
the mod-2 reduction; the torsion linking form is computed from the
presentation matrix by an order-scaled integral solve.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .exactlinalg import (
    AbelianGroup,
    DimensionError,
    GF2Matrix,
    GF2Vector,
    IntMatrix,
    _int_vector,
    bordered,
    checked_solution,
    cokernel_structure,
    gf2_kernel_basis,
    word_bits,
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
    span, truncated = kernel_span(
        gf2_kernel_basis(GF2Matrix.from_int_matrix(b)), cap)
    return [CoverClass.from_bits(lift) for lift, _ in span], truncated


def kernel_span(basis: Sequence[GF2Vector], cap: int = 1024) -> tuple[
        list[tuple[tuple[int, ...], int]], bool]:
    """The nonzero vectors spanned by a mod-2 kernel basis, each as the
    pair (lift, mask), in lexicographic order of lift: lift is the
    vector's tuple of bits, and bit i of mask is set when basis[i] is a
    summand of it.  The classes are sorted as the integers of `lex_span`,
    not as tuples, and no vector object is built for a class.

    Returns (span, truncated).  Under the cap policy of cover_classes, past
    the cap only the basis vectors themselves are returned.
    """
    words, masks, truncated = lex_span(basis, cap)
    return [(word_bits(word, basis[0].length)[::-1], mask)
            for word, mask in zip(words, masks)], truncated


def lex_word(v: GF2Vector) -> int:
    """The bits of v reversed, bit i at bit v.length - 1 - i, so that the
    integer order of these words is the lexicographic order of the lifts."""
    return int(bin(v.bits | 1 << v.length)[:2:-1], 2)


def lex_span(basis: Sequence[GF2Vector], cap: int = 1024) -> tuple[
        list[int], list[int], bool]:
    """(words, masks, truncated): the `lex_word` and the mask of each class
    of `kernel_span(basis, cap)`, in its order, sorted as integers."""
    k = len(basis)
    truncated = k > 0 and 2 ** k - 1 > cap
    if truncated:
        table = {1 << i: lex_word(v) for i, v in enumerate(basis)}
        masks = sorted(table, key=table.__getitem__)
    else:
        table = xor_span(list(map(lex_word, basis)))
        masks = sorted(range(1, len(table)), key=table.__getitem__)
    return list(map(table.__getitem__, masks)), masks, truncated


def xor_span(words: Sequence[int]) -> list[int]:
    """Entry mask: the XOR of the words at the set bits of mask, for every
    mask below 2^len(words)."""
    table = [0] * 2 ** len(words)
    for mask in range(1, len(table)):
        # each mask adds its lowest word to a mask already summed
        low = mask & -mask
        table[mask] = table[mask ^ low] ^ words[low.bit_length() - 1]
    return table


def torsion_linking(b: IntMatrix, a, c) -> QmodZ:
    """Torsion linking form of the surgered manifold on torsion classes of
    coker(b): with n the order of a and b @ z == n*a, the value is
    (z . c)/n mod 1.

    Independent of the chosen solution z and of the representatives of a
    and c modulo im(b).
    """
    a, c = _int_vector(a, b.rows), _int_vector(c, b.rows)
    # one elimination, bordered by both classes, serves both
    eliminated = bordered(b, [a, c])
    solved = checked_solution(b, a, eliminated, 0)
    if solved is None:
        raise NonTorsionError("first class has infinite order in coker(b)")
    if checked_solution(b, c, eliminated, 1) is None:
        raise NonTorsionError("second class has infinite order in coker(b)")
    n, z = solved
    return QmodZ.from_fraction(
        Fraction(sum(zi * ci for zi, ci in zip(z, c)), n)
    )
