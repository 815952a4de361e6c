"""Block-by-block analysis against the whole-matrix oracle.

`Analysis` eliminates each connected block of a linking matrix on its own
and assembles H_1, the Bockstein images and the self-linking as direct
sums over the blocks.  Here seeded block-diagonal matrices, their blocks
interleaved by a random permutation, are classified and compared with
what the whole matrix gives: `smith_normal_form(b).cokernel()` for H_1,
`is_in_integral_image` for the Bockstein and `torsion_linking` for the
self-linking.  The blocks are zero rows (so b1 > 0), diagonal entries (an
algebraically split link), lens chains and small random symmetric
matrices; one-block matrices are the case with nothing to split.  The
mod-2 kernel basis, taken block by block, is compared with
`gf2_kernel_basis` of the whole matrix, and the B X of each class, a sum
of rows, with `IntMatrix.mul_vec`.
"""

import importlib
import pkgutil
import random
import sys
from math import gcd

import pytest

import z2index
from z2index.borsuk import (
    Analysis,
    bockstein_representative,
    classify_all,
    triple_cup,
)
from z2index.exactlinalg import (
    GF2Matrix,
    IntMatrix,
    connected_blocks,
    diagonal_cokernel,
    gf2_kernel_basis,
    is_in_integral_image,
    principal_submatrix,
    smith_normal_form,
)
from z2index.homology import cover_classes, torsion_linking
from z2index.selftest import random_symmetric_matrix
from z2index.surgery import lens_presentation, linking_matrix

CAP = 63
SEED = 20261018


def lens_block(rng):
    p = rng.randint(2, 24)
    q = rng.choice([q for q in range(1, p) if gcd(p, q) == 1] or [1])
    return linking_matrix(lens_presentation(p, q))


def random_block(rng, kind):
    if kind == "zero":
        return IntMatrix.from_rows([[0]])
    if kind == "diagonal":
        return IntMatrix.diagonal([rng.choice((1, -1, 2, -2, 3, 4, -4, 6,
                                               8, -12))])
    if kind == "lens":
        return lens_block(rng)
    if kind == "even":
        m = random_symmetric_matrix(rng, rng.randint(1, 3), 3)
        return IntMatrix.from_rows([[2 * e for e in row] for row in m.entries])
    return random_symmetric_matrix(rng, rng.randint(1, 3), 4)


def block_sum(blocks, rng):
    """The direct sum of the square blocks, rows and columns permuted by one
    random permutation."""
    n = sum(m.rows for m in blocks)
    dense = [[0] * n for _ in range(n)]
    at = 0
    for m in blocks:
        for i, row in enumerate(m.entries):
            dense[at + i][at:at + m.rows] = row
        at += m.rows
    perm = list(range(n))
    rng.shuffle(perm)
    return IntMatrix.from_rows([[dense[i][j] for j in perm] for i in perm])


def matrices(family, count=60):
    rng = random.Random(f"{family}:{SEED}")
    for _ in range(count):
        if family == "mixed":
            kinds = [rng.choice(("zero", "diagonal", "lens", "even", "dense"))
                     for _ in range(rng.randint(2, 5))]
        elif family == "diagonal":
            kinds = ["diagonal"] * rng.randint(1, 8)
        elif family == "zero_rows":
            kinds = ["zero"] * rng.randint(1, 2) + [
                rng.choice(("diagonal", "lens", "even"))
                for _ in range(rng.randint(1, 3))]
        else:  # lens_sums
            kinds = ["lens"] * rng.randint(1, 4)
        yield block_sum([random_block(rng, kind) for kind in kinds], rng)


def components(b):
    """The connected components of the graph of nonzero entries, found by
    a search from each unvisited index."""
    n = b.rows
    seen = [False] * n
    found = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack, part = [start], []
        while stack:
            i = stack.pop()
            part.append(i)
            for j in range(n):
                if b.entries[i][j] and not seen[j]:
                    seen[j] = True
                    stack.append(j)
        found.append(tuple(sorted(part)))
    return tuple(found)


def check_against_whole_matrix(b, crosscheck):
    """Compare `classify_all(b)` and H_1 with the whole-matrix oracle;
    returns the number of classes compared."""
    assert Analysis.of(b).homology == smith_normal_form(b).cokernel()
    result = classify_all(b, cap=CAP, crosscheck=crosscheck)
    assert result.analysis.homology == smith_normal_form(b).cokernel()
    classes, truncated = cover_classes(b, cap=CAP)
    assert result.truncated == truncated
    assert [r.lift for r in result.reports] == [x.bits() for x in classes]
    for r in result.reports:
        y = bockstein_representative(b, r.lift)
        assert r.bockstein_rep == y
        assert r.beta_vanishes == is_in_integral_image(b, y)
        assert r.triple_cup == triple_cup(b, r.lift)
        assert r.index == (3 if r.triple_cup else 1 if r.beta_vanishes else 2)
        if crosscheck:
            assert r.self_linking == torsion_linking(b, y, y)
        else:
            assert r.self_linking is None
    return len(result.reports)


@pytest.mark.parametrize("family",
                         ["mixed", "diagonal", "zero_rows", "lens_sums"])
def test_blocks_partition_the_matrix(family):
    for b in matrices(family):
        blocks = connected_blocks(b)
        assert blocks == components(b)
        assert sorted(i for block in blocks for i in block) == list(range(b.rows))
        owner = {i: t for t, block in enumerate(blocks) for i in block}
        assert all(owner[i] == owner[j] for i in range(b.rows)
                   for j in range(b.rows) if b.entries[i][j])
        analysis = Analysis.of(b)
        assert [block.index for block in analysis.blocks] == list(blocks)
        for block in analysis.blocks:
            assert block.b == principal_submatrix(b, block.index)


@pytest.mark.parametrize("family",
                         ["mixed", "diagonal", "zero_rows", "lens_sums"])
@pytest.mark.parametrize("crosscheck", [True, False])
def test_block_analysis_matches_whole_matrix(family, crosscheck):
    classified = free = split = 0
    for b in matrices(family):
        classified += check_against_whole_matrix(b, crosscheck)
        free += smith_normal_form(b).cokernel().free_rank > 0
        split += len(connected_blocks(b)) > 1
    assert classified > 0 and split > 0
    if family == "zero_rows":
        assert free == 60


def one_block_matrices(count=60):
    rng = random.Random(f"one_block:{SEED}")
    for trial in range(count):
        if trial % 2:
            yield lens_block(rng)
        else:
            n = rng.randint(1, 6)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.choice((-3, -2, -1, 1, 2, 4))
            yield IntMatrix.from_rows(rows)


def test_one_block_matrices_use_the_matrix_itself():
    for b in one_block_matrices():
        analysis = Analysis.of(b)
        assert len(analysis.blocks) == 1
        assert analysis.blocks[0].b is b
        check_against_whole_matrix(b, crosscheck=True)


def even_matrices():
    """All-even symmetric matrices, n = 1..10, three of each size; zero
    entries split some of them into blocks."""
    rng = random.Random(f"even:{SEED}")
    for n in range(1, 11):
        for _ in range(3):
            m = random_symmetric_matrix(rng, n, 3)
            yield IntMatrix.from_rows([[2 * e for e in row]
                                       for row in m.entries])


def check_kernel_and_row_sums(b, cap):
    """The block-by-block kernel basis against `gf2_kernel_basis` of the
    whole matrix, vector for vector, and, for every class reported, its
    lift as a 0/1 vector with 2Y = B X by `mul_vec`; returns the number of
    classes."""
    analysis = Analysis.of(b)
    whole = gf2_kernel_basis(GF2Matrix.from_int_matrix(b))
    assert list(analysis.basis) == whole
    reports = analysis.classify_all(cap=cap).reports
    for r in reports:
        assert len(r.lift) == b.rows and set(r.lift) <= {0, 1}
        assert tuple(2 * e for e in r.bockstein_rep) == b.mul_vec(r.lift)
    return len(reports)


@pytest.mark.parametrize("family", ["mixed", "diagonal", "zero_rows",
                                    "lens_sums", "one_block", "even"])
def test_block_kernels_and_row_sums_match_whole_matrix(family):
    if family == "one_block":
        found = one_block_matrices()
    elif family == "even":
        found = even_matrices()
    else:
        found = matrices(family)
    classified = 0
    for b in found:
        classified += check_kernel_and_row_sums(
            b, cap=1 << b.rows if family == "even" else CAP)
    assert classified > 0


@pytest.mark.parametrize("diagonal, factors, free", [
    ((), (), 0),
    ((1, -1, 1), (), 0),
    ((0,), (), 1),
    ((2, 3), (6,), 0),
    ((4, 6), (2, 12), 0),
    ((0, 1, 4, 0, -2), (2, 4), 2),
    ((8, 4, 2, 2), (2, 2, 4, 8), 0),
])
def test_diagonal_cokernel_examples(diagonal, factors, free):
    group = diagonal_cokernel(diagonal)
    assert (group.invariant_factors, group.free_rank) == (factors, free)


def test_diagonal_cokernel_matches_smith_form_of_the_diagonal():
    rng = random.Random(f"merge:{SEED}")
    values = (0, 1, -1, 2, -2, 3, 4, 5, 6, 8, 9, 12, 16, 18, 30, 36)
    for _ in range(400):
        diagonal = [rng.choice(values) for _ in range(rng.randint(0, 8))]
        assert diagonal_cokernel(diagonal) == smith_normal_form(
            IntMatrix.diagonal(diagonal)).cokernel(), diagonal


def test_no_functools_cache_in_z2index():
    # the scan that `perfbench/worker.py` uses to empty caches between passes
    for info in pkgutil.iter_modules(z2index.__path__):
        importlib.import_module(f"z2index.{info.name}")
    caches = [f"{name}.{attr}"
              for name, module in list(sys.modules.items())
              if name.startswith("z2index")
              for attr, obj in vars(module).items()
              if hasattr(obj, "cache_clear")]
    assert caches == []
