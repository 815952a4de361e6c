"""The lexicographic sweep of `Analysis.classify_all` against its oracles.

`lex_span` lists the classes by the integer order of their bits reversed,
and the sweep sums the B X of each class from the sparse rows of B,
keeping the sums at set bits of the last lift where a later lift can
branch.  Here every class's B X is compared with `IntMatrix.mul_vec` of
its lift, and the listing with the plain sort of the `(lift, mask)`
tuples, on the block families of `test_blocks`, on congruent matrices
P^T D P, whose kernel basis is not the unit vectors, and on entries of
2**70.  The one-class path of `Analysis.classify` runs the same sweep on a
listing of one and must give the same report.
"""

import random

import pytest

from z2index.borsuk import Analysis
from z2index.exactlinalg import IntMatrix, word_bits
from z2index.homology import CoverClass, lex_span

from test_blocks import (
    CAP,
    block_sum,
    even_matrices,
    matrices,
    one_block_matrices,
)

BIG = 2 ** 70


def sorted_listing(basis, cap):
    """(lift, mask) of each class listed, by a sort of the tuples."""
    k = len(basis)
    if k and 2 ** k - 1 > cap:
        return sorted((v.to_bits(), 1 << i) for i, v in enumerate(basis))
    pairs = []
    for mask in range(1, 2 ** k):
        bits = 0
        for i, v in enumerate(basis):
            if mask >> i & 1:
                bits ^= v.bits
        pairs.append((word_bits(bits, basis[0].length), mask))
    return sorted(pairs)


def check_sweep(b, cap):
    """The listing order and each B X of `classify_all(b, cap)` against the
    oracles; returns the number of classes."""
    analysis = Analysis.of(b)
    expected = sorted_listing(analysis.basis, cap)
    words, masks, _ = lex_span(analysis.basis, cap)
    assert masks == [mask for _, mask in expected]
    assert [(word_bits(word, b.rows)[::-1], mask)
            for word, mask in zip(words, masks)] == expected
    reports = analysis.classify_all(cap=cap).reports
    assert [r.lift for r in reports] == [lift for lift, _ in expected]
    for r in reports:
        assert tuple(2 * e for e in r.bockstein_rep) == b.mul_vec(r.lift)
        assert analysis.classify(CoverClass.from_bits(r.lift)) == r
    return len(reports)


def congruent(rng, n, diagonal, big=False):
    """P^T D P for a random unimodular P and D with entries drawn from
    diagonal: k is the number of even entries of D, and the kernel basis
    mixes coordinates.  With big, 2**70 is added to every entry, which
    leaves B symmetric and B mod 2 as it was."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        for row in p:
            row[j] += rng.choice((-1, 1)) * row[i]
    d = [rng.choice(diagonal) for _ in range(n)]
    return IntMatrix.from_rows(
        [[sum(p[a][r] * d[a] * p[a][c] for a in range(n)) + BIG * big
          for c in range(n)] for r in range(n)])


def congruent_matrices(count=40):
    rng = random.Random("sweep:congruent")
    for trial in range(count):
        n = rng.randint(2, 9)
        yield congruent(rng, n, (-3, -2, -1, 0, 1, 2, 4, 6),
                        big=trial % 3 == 0)


def odd_blocks(count=20):
    """Block sums of all-odd blocks, whose mod-2 kernel vectors are
    e_0 + e_j, not unit vectors, each with a corner entry past 2**70, and
    of a 1x1 block of 0 or 2**71."""
    rng = random.Random("sweep:odd")
    for _ in range(count):
        blocks = []
        for _ in range(rng.randint(1, 3)):
            m = rng.randint(1, 5)
            blocks.append(IntMatrix.from_rows(
                [[2 * rng.randint(-3, 3) + 1 + BIG * (i == j == 0)
                  for j in range(m)] for i in range(m)]))
        symmetric = [IntMatrix.from_rows(
            [[m.entries[min(i, j)][max(i, j)] for j in range(m.rows)]
             for i in range(m.rows)]) for m in blocks]
        symmetric.append(IntMatrix.from_rows([[rng.choice((0, 2 * BIG))]]))
        yield block_sum(symmetric, rng)


FAMILIES = {
    "mixed": lambda: matrices("mixed"),
    "diagonal": lambda: matrices("diagonal"),
    "zero_rows": lambda: matrices("zero_rows"),
    "lens_sums": lambda: matrices("lens_sums"),
    "one_block": one_block_matrices,
    "even": even_matrices,
    "congruent": congruent_matrices,
    "odd_blocks": odd_blocks,
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("cap", [CAP, 1024])
def test_sweep_matches_mul_vec_and_tuple_sort(family, cap):
    classified = 0
    for b in FAMILIES[family]():
        classified += check_sweep(b, cap)
    assert classified > 0


def test_the_families_have_non_unit_bases_and_big_entries():
    found = {"non-unit": 0, "big": 0, "truncated": 0}
    for family in ("congruent", "odd_blocks"):
        for b in FAMILIES[family]():
            basis = Analysis.of(b).basis
            found["non-unit"] += any(v.bits & v.bits - 1 for v in basis)
            found["big"] += any(abs(e) >= BIG for row in b.entries
                                for e in row)
            found["truncated"] += 2 ** len(basis) - 1 > CAP
    assert all(found.values()), found
