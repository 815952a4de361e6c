"""The Bockstein verdict from the integral kernel, against the Smith-form
oracle.

beta(x) = 0 exactly when x is the reduction mod 2 of an integral kernel
vector of B.  `Analysis` reads that kernel off one bordered `eliminate` per
block; `is_in_integral_image(b, Y)` instead reduces Y = (1/2) B X through
the transforms of the Smith form of the whole matrix.  These tests compare
the two on every class of seeded random, all-even, singular, sparse and
block-diagonal matrices with n <= 12, and pin sha256 digests, taken from
the per-block Smith-form classifier that came before, of every report, and
of `smith_normal_form`'s s and, apart, its (u, v) over a seeded dense,
singular and lens corpus.
"""

import hashlib
import json
import random
from math import gcd

import pytest

from z2index.borsuk import classify_all
from z2index.exactlinalg import IntMatrix, is_in_integral_image, smith_normal_form
from z2index.selftest import (
    random_matrix,
    random_symmetric_matrix,
    random_unimodular_matrix,
)
from z2index.surgery import lens_presentation

KINDS = ("random", "even", "singular", "sparse", "block_diagonal")


def symmetric(rng, n, kind):
    if kind == "random":
        return random_symmetric_matrix(rng, n, 4)
    if kind == "even":
        return IntMatrix.from_rows(
            [[2 * e for e in row]
             for row in random_symmetric_matrix(rng, n, 3).entries])
    if kind == "singular":
        # P^T D P with zeros on D: congruent to a singular diagonal
        diag = [rng.choice((0, 0, 2, -4, 1, 6, 3)) for _ in range(n)]
        p = random_unimodular_matrix(rng, n)
        return p.transpose() @ IntMatrix.diagonal(diag) @ p
    if kind == "sparse":
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.25:
                    rows[i][j] = rows[j][i] = rng.randint(-4, 4)
        return IntMatrix.from_rows(rows)
    # two random blocks, their indices interleaved by a random permutation
    m = rng.randint(1, n - 1) if n > 1 else 1
    first, second = (symmetric(rng, size, rng.choice(KINDS[:4]))
                     for size in (m, n - m))
    rows = [[0] * n for _ in range(n)]
    order = rng.sample(range(n), n)
    for part, index in ((first, order[:m]), (second, order[m:])):
        for a, i in enumerate(index):
            for c, j in enumerate(index):
                rows[i][j] = part.entries[a][c]
    return IntMatrix.from_rows(rows)


def corpus(kind, count=14):
    rng = random.Random(f"bockstein-kernel:{kind}")
    return [symmetric(rng, rng.randint(1, 12), kind) for _ in range(count)]


def _report_record(r):
    return [r.lift, r.bockstein_rep, r.beta_vanishes, r.triple_cup,
            str(r.self_linking), r.index]


# sha256 of every report of classify_all(b, cap=2^n) and of H_1 over
# corpus(kind), as the Smith-form classifier gave them
VERDICT_DIGESTS = {
    "random":
        "3a2ad69b135374308318b87ac2c7e4041e3f271cc06e9837fcf7ad1218c12cf9",
    "even":
        "f5654b4ebaee0340c647665df01e9cc732cfe0381d52e8fda4e34b7e21a0a919",
    "singular":
        "920a302bfe1bd0850d5d0fe29b8210df8d00f459920ad20e22ad3cf63b5ff3dc",
    "sparse":
        "e9c0c9119f74b0e4f449bfa68adf1b1e21811a8fbad75a57e09aad0be9c24b64",
    "block_diagonal":
        "e7e3b72be96000a7b4dbce32db8449db1100f233f2a2dc1dcdc25a0047ae29f1",
}


@pytest.mark.parametrize("kind", KINDS)
def test_kernel_criterion_matches_the_image_oracle(kind):
    rng = random.Random(f"oracle-sample:{kind}")
    digest = hashlib.sha256()
    checked = vanishing = 0
    for b in corpus(kind):
        result = classify_all(b, cap=1 << b.rows)
        homology = result.analysis.homology
        digest.update(json.dumps(
            [b.to_lists(), list(homology.invariant_factors),
             homology.free_rank,
             [_report_record(r) for r in result.reports]]).encode())
        # the image oracle reduces Y through a whole Smith form: sample it
        reports = result.reports
        if len(reports) > 48:
            reports = rng.sample(reports, 48)
        for r in reports:
            oracle = is_in_integral_image(b, r.bockstein_rep)
            assert r.beta_vanishes == oracle
            assert r.index == (3 if r.triple_cup else (1 if oracle else 2))
            checked += 1
            vanishing += oracle
    assert checked > 0
    if kind in ("singular", "sparse", "block_diagonal"):
        assert vanishing > 0
    assert digest.hexdigest() == VERDICT_DIGESTS[kind]


def snf_corpus():
    rng = random.Random("snf-digest")
    for _ in range(60):
        yield random_matrix(rng, rng.randint(1, 9), rng.randint(1, 9), 30)
    for _ in range(60):
        n = rng.randint(1, 9)
        diag = [rng.choice((0, 0, 1, 2, -3, 4, 12)) for _ in range(n)]
        p, q = random_unimodular_matrix(rng, n), random_unimodular_matrix(rng, n)
        yield p @ IntMatrix.diagonal(diag) @ q
    for p in (2, 3, 7, 12, 30, 61, 97):
        for q in range(1, p, max(1, p // 5)):
            if gcd(p, q) == 1:
                yield lens_presentation(p, q).matrix


# S is unique, so its digest holds under any pivot policy; U and V are not
# unique, and their digest pins the policy and the pair steps of the chain
S_DIGEST = (
    "84f111581123b4c7904e77f0b9ab92f90f4a2bd092a34b83baabb42c5633c18b")
UV_DIGEST = (
    "b8bdbe6f78ab12fed0212198c9edfdaa2eb2ef88b5f1cdd02400fd6baefbf3cd")


def test_smith_normal_form_output_is_pinned():
    s_digest, uv_digest = hashlib.sha256(), hashlib.sha256()
    for b in snf_corpus():
        dec = smith_normal_form(b)
        assert dec.verify(b), b.to_lists()
        s_digest.update(json.dumps(dec.s.to_lists()).encode())
        uv_digest.update(json.dumps(
            [dec.u.to_lists(), dec.v.to_lists()]).encode())
    assert s_digest.hexdigest() == S_DIGEST
    assert uv_digest.hexdigest() == UV_DIGEST

