"""The bordered solves against the transform-carrying Smith form.

`order_in_cokernel`, `solve_integral`, `torsion_linking` and
`cokernel_structure` each run one `eliminate` of b bordered by what they
solve for, and read U y, the diagonal and V from its rows.  The oracle here
takes `smith_normal_form(b)` instead and solves through its transforms:
w = u y, c_i = n w_i / d_i with n the least order that makes every c_i
whole, and z = v c.  Seeded square, singular, all-even and non-square
matrices with at most 12 rows and columns.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from z2index.exactlinalg import (
    IntMatrix,
    cokernel_structure,
    order_in_cokernel,
    smith_normal_form,
    solve_integral,
)
from z2index.homology import NonTorsionError, torsion_linking
from z2index.selftest import (
    random_matrix,
    random_symmetric_matrix,
    random_unimodular_matrix,
)


def oracle_solve(b, y):
    """(n, z) with n the order of y in coker(b) and b z = n y, through the
    u, s and v of `smith_normal_form(b)`; None for infinite order."""
    dec = smith_normal_form(b)
    w = dec.u.mul_vec(y)
    n = 1
    for wi, di in zip(w, dec.diagonal):
        if di == 0:
            if wi:
                return None
        else:
            n = lcm(n, di // gcd(di, wi))
    c = [n * wi // di if di else 0 for wi, di in zip(w, dec.diagonal)]
    z = dec.v.mul_vec((c + [0] * b.cols)[:b.cols])
    assert b.mul_vec(z) == tuple(n * e for e in y)
    return n, z


def matrices(kind, seed, count=40):
    rng = random.Random(f"{kind}:{seed}")
    for _ in range(count):
        n = rng.randint(1, 12)
        if kind == "square":
            yield random_matrix(rng, n, n, 6)
        elif kind == "singular":
            # P^T D P with zeros on D
            diag = [rng.choice((0, 0, 2, -4, 1, 6, 12)) for _ in range(n)]
            p = random_unimodular_matrix(rng, n)
            yield p.transpose() @ IntMatrix.diagonal(diag) @ p
        elif kind == "even":
            yield IntMatrix.from_rows(
                [[2 * e for e in row]
                 for row in random_symmetric_matrix(rng, n, 5).entries])
        elif kind == "wide":
            n = max(n, 2)
            yield random_matrix(rng, rng.randint(1, n - 1), n, 6)
        else:
            n = max(n, 2)
            yield random_matrix(rng, n, rng.randint(1, n - 1), 6)


def vectors(rng, b):
    """Right-hand sides with every kind of order: random vectors, vectors
    of the image, and image vectors divided by what divides them."""
    for _ in range(4):
        yield tuple(rng.randint(-6, 6) for _ in range(b.rows))
        image = b.mul_vec([rng.randint(-3, 3) for _ in range(b.cols)])
        yield image
        g = gcd(*image)
        yield tuple(e // g for e in image) if g else image


@pytest.mark.parametrize("kind",
                         ["square", "singular", "even", "wide", "tall"])
def test_solvers_match_the_smith_form_oracle(kind):
    rng = random.Random(f"vectors:{kind}")
    orders = set()
    for b in matrices(kind, seed=20261101):
        for y in vectors(rng, b):
            expected = oracle_solve(b, y)
            orders.add(expected[0] if expected else None)
            assert order_in_cokernel(b, y) == (
                expected[0] if expected else None)
            assert solve_integral(b, y) == (
                expected[1] if expected and expected[0] == 1 else None)
    # the seeded vectors reach order 1 and higher orders, and infinite
    # order where coker(b) has a free part
    assert 1 in orders and max(orders - {None}) > 1
    assert None in orders or kind not in ("singular", "tall")


@pytest.mark.parametrize("kind", ["square", "singular", "even"])
def test_torsion_linking_and_cokernel_match_the_smith_form_oracle(kind):
    rng = random.Random(f"linking:{kind}")
    values = 0
    for b in matrices(kind, seed=20261102):
        assert cokernel_structure(b) == smith_normal_form(b).cokernel()
        ys = list(vectors(rng, b))
        for a, c in zip(ys, ys[1:] + ys[:1]):
            solved_a, solved_c = oracle_solve(b, a), oracle_solve(b, c)
            if solved_a is None or solved_c is None:
                with pytest.raises(NonTorsionError):
                    torsion_linking(b, a, c)
                continue
            n, z = solved_a
            expected = Fraction(sum(zi * ci for zi, ci in zip(z, c)), n) % 1
            assert torsion_linking(b, a, c).value == expected
            values += expected != 0
    assert values > 0
