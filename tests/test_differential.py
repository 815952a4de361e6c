"""The per-presentation classifier against the standalone public functions.

`classify_all` shares one Smith form and one transformed right-hand side
per class; the report it returns must equal the one assembled class by
class from `bockstein_representative`, `is_in_integral_image`,
`triple_cup` and `torsion_linking(b, y, y)`, which each start from the
matrix alone.  Seeded random symmetric matrices with n <= 7, singular and
all-even ones included.
"""

import random

import pytest

from z2index.borsuk import (
    IndexReport,
    bockstein_representative,
    classify_all,
    triple_cup,
)
from z2index.exactlinalg import IntMatrix, is_in_integral_image
from z2index.homology import cover_classes, torsion_linking
from z2index.selftest import random_symmetric_matrix, random_unimodular_matrix


def oracle_report(b, lift, crosscheck):
    y = bockstein_representative(b, lift)
    vanishes = is_in_integral_image(b, y)
    cup = triple_cup(b, lift)
    index = 3 if cup == 1 else (1 if vanishes else 2)
    return IndexReport(
        lift=lift,
        bockstein_rep=y,
        beta_vanishes=vanishes,
        triple_cup=cup,
        self_linking=torsion_linking(b, y, y) if crosscheck else None,
        index=index,
    )


def matrices(kind, seed, count=80):
    rng = random.Random(f"{kind}:{seed}")
    for _ in range(count):
        n = rng.randint(1, 7)
        if kind == "dense":
            yield random_symmetric_matrix(rng, n, 3)
        elif kind == "even":
            yield IntMatrix.from_rows(
                [[2 * e for e in row]
                 for row in random_symmetric_matrix(rng, n, 5).entries])
        else:
            # P^T D P with zeros on D: singular, congruent to a diagonal
            diag = [rng.choice((0, 0, 2, -4, 1, 6)) for _ in range(n)]
            p = random_unimodular_matrix(rng, n)
            yield p.transpose() @ IntMatrix.diagonal(diag) @ p


@pytest.mark.parametrize("kind", ["dense", "even", "singular"])
@pytest.mark.parametrize("crosscheck", [True, False])
def test_classify_all_matches_standalone_functions(kind, crosscheck):
    classified = 0
    for b in matrices(kind, seed=20261018):
        classes, truncated = cover_classes(b, cap=1 << b.rows)
        assert not truncated
        result = classify_all(b, cap=1 << b.rows, crosscheck=crosscheck)
        assert result.reports == tuple(
            oracle_report(b, x.bits(), crosscheck) for x in classes)
        classified += len(classes)
    assert classified > 0
