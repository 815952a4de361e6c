"""The elimination routines of `exactlinalg` against the dense ones they
replaced, which `linalg_oracle` keeps: the same diagonal, U C and V, and the
same mod-2 kernel basis, exactly.  Plus the scaling that the bookkeeping on
nonzero entries buys: a lens chain costs O(n), not O(n^2).
"""

import gc
import random
import time
from math import gcd

import pytest

import linalg_oracle as oracle
from z2index.borsuk import Analysis, bockstein_representative
from z2index.exactlinalg import (
    GF2Matrix,
    IntMatrix,
    bordered,
    cokernel_structure,
    eliminate,
    gf2_kernel_basis,
    smith_normal_form,
    solve_integral,
)
from z2index.homology import torsion_linking
from z2index.surgery import connected_sum, lens_presentation


def sparse_rows(b: IntMatrix) -> list[dict[int, int]]:
    return [{j: e for j, e in enumerate(row) if e} for row in b.entries]


def sparse_eliminated(b: IntMatrix, ys, with_v: bool):
    """`eliminate` of b bordered by the columns ys and, with with_v, by
    I_n below, in the dense layout of the oracle: [S | U Y] over [V]."""
    rows = sparse_rows(b)
    border = [list(row) for row in zip(*ys)] if ys else []
    columns = [{j: 1} for j in range(b.cols)] if with_v else []
    diagonal = eliminate(rows, border, b.cols, columns)
    top = [[d if j == i else 0 for j in range(b.cols)]
           + (border[i] if border else [])
           for i, d in enumerate(diagonal)]
    return top + [[column.get(r, 0) for column in columns]
                  for r in range(b.cols)] if columns else top


def assert_matches_oracle(b: IntMatrix, ys, with_v: bool):
    assert sparse_eliminated(b, ys, with_v) == oracle.bordered_rows(
        b, ys, with_v), b.entries


def random_block(rng: random.Random, m: int, n: int) -> IntMatrix:
    density = rng.random()
    size = rng.choice((1, 2, 3, 9, 30))
    return oracle.dense_matrix(m, n, (
        [rng.randint(-size, size) if rng.random() < density else 0
         for _ in range(n)]
        for _ in range(m)))


def test_random_blocks_match_the_dense_oracle():
    # square and non-square blocks, empty ones included, bordered by 0-3
    # columns, with and without V below
    rng = random.Random(20261019)
    for _ in range(800):
        m, n = rng.randint(0, 9), rng.randint(0, 9)
        ys = [[rng.randint(-5, 5) for _ in range(m)]
              for _ in range(rng.randint(0, 3))]
        assert_matches_oracle(random_block(rng, m, n), ys,
                              rng.random() < 0.7)


def test_lens_chains_match_the_dense_oracle():
    # every chain with p <= 60, bare and bordered by the Y of its basis
    # classes, as `Analysis` borders it, and by I below
    chains = 0
    for p in range(2, 61):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            b = lens_presentation(p, q).matrix
            ys = [y for _, _, y, _ in Analysis.of(b)._basis_classes]
            assert_matches_oracle(b, (), False)
            assert_matches_oracle(b, ys, True)
            chains += 1
    assert chains == 1101


def test_nested_connected_sum_matches_the_dense_oracle():
    # the whole block-diagonal matrix in one elimination, bordered by the Y
    # of its basis classes, so that the search crosses between the parts
    inner = connected_sum(lens_presentation(12, 5), lens_presentation(7, 2))
    pres = connected_sum(lens_presentation(30, 11), inner,
                         lens_presentation(16, 15))
    b = pres.matrix
    ys = [bockstein_representative(b, v.to_bits())
          for v in Analysis.of(b).basis]
    assert b.rows == 23 and len(ys) == 3
    assert_matches_oracle(b, ys, True)
    assert_matches_oracle(b, (), False)


def test_bordered_gives_the_oracle_transforms():
    b = lens_presentation(30, 11).matrix
    y = (1,) + (0,) * (b.rows - 1)
    diagonal, border, columns = bordered(b, [y])
    dense = oracle.bordered_rows(b, [y], True)
    assert diagonal == [dense[i][i] for i in range(b.rows)]
    assert border == [row[b.cols:] for row in dense[:b.rows]]
    assert [[column.get(r, 0) for column in columns]
            for r in range(b.cols)] == dense[b.rows:]


def test_passes_leave_the_shared_view_unchanged():
    """`IntMatrix.sparse_rows` is made once and read by every pass over the
    matrix, and `eliminate` works on its rows in place: after each pass the
    view must still be the nonzero entries of b.entries, in column order,
    and `mul_vec`, which reads it, must still give the dense product."""
    b = connected_sum(lens_presentation(12, 5), lens_presentation(8, 3),
                      lens_presentation(7, 2)).matrix
    rng = random.Random(20261020)
    a, c = ([rng.randint(-3, 3) for _ in range(b.rows)] for _ in range(2))

    def assert_intact(m):
        assert [list(row.items()) for row in m.sparse_rows] == [
            [(j, e) for j, e in enumerate(row) if e] for row in m.entries]
        x = [rng.randint(-9, 9) for _ in range(m.cols)]
        assert m.mul_vec(x) == tuple(
            sum(e * xi for e, xi in zip(row, x)) for row in m.entries)

    assert_intact(b)
    for run in (lambda: bordered(b, ()), lambda: bordered(b, [a, c]),
                lambda: smith_normal_form(b), lambda: cokernel_structure(b),
                lambda: solve_integral(b, a),
                lambda: torsion_linking(b, a, c)):
        run()
        assert_intact(b)
    analysis = Analysis.of(b)
    assert analysis.classify_all().reports
    assert len(analysis.blocks) == 3
    for m in (b, *(block.b for block in analysis.blocks)):
        assert_intact(m)


def test_gf2_kernel_matches_the_column_sweep():
    rng = random.Random(20261019)
    for _ in range(3000):
        rows, cols = rng.randint(0, 14), rng.randint(0, 14)
        density = rng.random()
        words = tuple(sum(1 << j for j in range(cols)
                          if rng.random() < density) for _ in range(rows))
        bbar = GF2Matrix(rows, cols, words)
        assert gf2_kernel_basis(bbar) == oracle.gf2_kernel_basis(bbar), (
            rows, cols, words)


def _least_time(run, prepare, repeats=5):
    """The least time of run(*prepare()) over repeats runs; prepare, and a
    garbage collection, happen before each clock starts."""
    best = float("inf")
    for _ in range(repeats):
        args = prepare()
        gc.collect()
        start = time.perf_counter()
        run(*args)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("routine", ["eliminate", "gf2_kernel_basis"])
def test_lens_chain_cost_is_linear(routine):
    """Four times the chain, at most eight times the time: O(n) gives about
    4, and an O(n^2) sweep about 16.  `eliminate` is bordered by one column
    and by I below, and gets fresh rows for each run."""
    chains = [lens_presentation(p, p - 1).matrix for p in (251, 1001)]
    times = []
    for b in chains:
        n = b.cols
        if routine == "eliminate":
            times.append(_least_time(eliminate, lambda: (
                sparse_rows(b), [[1]] + [[0] for _ in range(n - 1)], n,
                [{j: 1} for j in range(n)])))
        else:
            bbar = GF2Matrix.from_int_matrix(b)
            times.append(_least_time(gf2_kernel_basis, lambda: (bbar,)))
    assert times[1] < 8 * times[0], times
