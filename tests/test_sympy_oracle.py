"""H_1 and the Smith form against sympy's invariant factors, an oracle
written apart from this package.  sympy is not a runtime dependency, only
a test extra: the tests are skipped without it.

`invariant_factors` returns one entry per row; its zeros count the free
rank and its entries >= 2, up to sign, are the torsion.  H_1 is checked on
seeded symmetric matrices with n <= 20: random, all-even, singular and
block-diagonal.  The divisor chain that `smith_normal_form` makes from
`eliminate`'s diagonal is checked, entry by entry, on seeded square,
singular and non-square matrices with at most 12 rows and columns.
"""

import random

import pytest

from z2index.borsuk import Analysis
from z2index.exactlinalg import IntMatrix, smith_normal_form
from z2index.homology import first_homology
from z2index.selftest import (
    random_symmetric_matrix,
    random_unimodular_matrix,
)

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors  # noqa: E402


def _random(rng, n):
    return random_symmetric_matrix(rng, n, 9)


def _all_even(rng, n):
    return IntMatrix.from_rows(
        [[2 * e for e in row] for row in _random(rng, n).entries])


def _singular(rng, n):
    # the last row and column repeat the first
    rows = [list(row) for row in _random(rng, n - 1).entries] if n > 1 else []
    rows = [row + row[:1] for row in rows]
    rows.append(rows[0][:] if rows else [0])
    return IntMatrix.from_rows(rows)


def _block_diagonal(rng, n):
    m = rng.randint(1, n - 1) if n > 1 else 0
    a, c = _random(rng, m), _random(rng, n - m)
    return IntMatrix.from_rows(
        [list(row) + [0] * (n - m) for row in a.entries]
        + [[0] * m + list(row) for row in c.entries])


@pytest.mark.parametrize("kind", [_random, _all_even, _singular,
                                  _block_diagonal])
def test_homology_matches_sympy(kind):
    rng = random.Random(f"sympy-{kind.__name__}")
    for _ in range(15):
        b = kind(rng, rng.randint(1, 20))
        assert b.is_symmetric
        factors = [abs(int(f)) for f in invariant_factors(
            sympy.Matrix(b.to_lists()), domain=sympy.ZZ)]
        torsion = tuple(sorted(f for f in factors if f >= 2))
        free = factors.count(0)
        for group in (Analysis.of(b).homology, first_homology(b)):
            assert (group.invariant_factors, group.free_rank) == \
                (torsion, free), b.to_lists()


def _scrambled(rng, m, n, zeros=0):
    # P D Q for unimodular P and Q and a diagonal m x n D with `zeros` zero
    # entries, so that elimination meets pivots that do not divide one
    # another
    diagonal = [rng.choice((1, 2, 3, 4, 6, 9, 10, -15))
                for _ in range(min(m, n))]
    for i in rng.sample(range(len(diagonal)), zeros):
        diagonal[i] = 0
    d = IntMatrix.from_rows([[diagonal[i] if i == j else 0
                              for j in range(n)] for i in range(m)])
    return (random_unimodular_matrix(rng, m) @ d
            @ random_unimodular_matrix(rng, n))


def _square(rng):
    n = rng.randint(1, 12)
    return _scrambled(rng, n, n)


def _singular(rng):
    n = rng.randint(1, 12)
    return _scrambled(rng, n, n, rng.randint(1, n))


def _non_square(rng):
    m, n = rng.sample(range(1, 13), 2)
    return _scrambled(rng, m, n, rng.randint(0, min(m, n)))


@pytest.mark.parametrize("kind", [_square, _singular, _non_square])
def test_smith_normal_form_matches_sympy(kind):
    rng = random.Random(f"sympy-snf-{kind.__name__}")
    for _ in range(15):
        b = kind(rng)
        factors = [abs(int(f)) for f in invariant_factors(
            sympy.Matrix(b.to_lists()), domain=sympy.ZZ)]
        dec = smith_normal_form(b)
        assert [d for d in dec.diagonal if d] == [f for f in factors if f], \
            b.to_lists()
        assert dec.verify(b)
