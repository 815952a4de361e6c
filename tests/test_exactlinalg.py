import io
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2index.borsuk import diagonal_index
from z2index.cli import main
from z2index.exactlinalg import (
    AbelianGroup,
    DimensionError,
    GF2Matrix,
    GF2Vector,
    IntMatrix,
    bordered,
    cokernel_structure,
    congruence_transform,
    gf2_kernel_basis,
    is_in_integral_image,
    order_in_cokernel,
    smith_normal_form,
    solve_integral,
    word_bits,
)
from z2index.homology import CoverClass, torsion_linking
from z2index.selftest import random_symmetric_matrix, random_unimodular_matrix

from linalg_oracle import dense_matrix


def mat(rows):
    return IntMatrix.from_rows(rows)


@st.composite
def int_matrices(draw, max_dim=6, bound=30, square=False):
    rows = draw(st.integers(1, max_dim))
    cols = rows if square else draw(st.integers(1, max_dim))
    entry = st.integers(-bound, bound)
    return mat(draw(st.lists(
        st.lists(entry, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    )))


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form(mat([[1, 0], [0, 1]])).s.to_lists() == \
            [[1, 0], [0, 1]]

    def test_already_diagonal(self):
        assert smith_normal_form(mat([[2, 0], [0, 2]])).s.to_lists() == \
            [[2, 0], [0, 2]]

    def test_coupled(self):
        # gcd of entries 1, |det| = 3, so invariants are (1, 3)
        assert smith_normal_form(mat([[2, 1], [1, 2]])).s.to_lists() == \
            [[1, 0], [0, 3]]

    def test_empty(self):
        dec = smith_normal_form(IntMatrix(0, 0, ()))
        assert dec.s.rows == 0 and dec.verify(IntMatrix(0, 0, ()))

    def test_zero_matrix(self):
        dec = smith_normal_form(mat([[0, 0]] * 3))
        assert dec.s.to_lists() == [[0, 0], [0, 0], [0, 0]]

    @given(int_matrices())
    @settings(max_examples=150, deadline=None)
    def test_decomposition_invariants(self, b):
        dec = smith_normal_form(b)
        assert dec.verify(b)

    def test_random_large_entries(self):
        rng = random.Random(7)
        for _ in range(20):
            rows = rng.randint(1, 12)
            cols = rng.randint(1, 12)
            b = mat([[rng.randint(-100, 100) for _ in range(cols)]
                     for _ in range(rows)])
            assert smith_normal_form(b).verify(b)

    def test_awkward_shapes(self):
        for rows in ([[6]], [[4, 6], [6, 4]], [[0, 0, 5]], [[2], [4], [6]]):
            b = mat(rows)
            assert smith_normal_form(b).verify(b)

    def test_dense_input_keeps_the_transforms_small(self):
        # dense symmetric input, entries in [-9, 9]: every entry stays under
        # 3.3k bits here, where keeping a pivot through a run of remainders
        # reaches 269k bits on the first matrix
        for n in (28, 36):
            b = random_symmetric_matrix(random.Random(1), n, 9)
            dec = smith_normal_form(b)
            assert max(abs(e).bit_length() for m in (dec.u, dec.s, dec.v)
                       for row in m.entries for e in row) < 8192
            assert dec.verify(b)


class TestDiagonalForm:
    """`eliminate` gives a diagonal form whose entries need not divide one
    another; `smith_normal_form` alone makes the divisor chain."""

    @pytest.mark.parametrize("b, diagonal, factor", [
        (IntMatrix.diagonal([2, 3]), [2, 3], 6),
        # dense, with a pivot 2 that does not divide the trailing 5
        (mat([[2, 2], [2, -3]]), [2, 5], 10),
    ])
    def test_no_divisor_chain(self, b, diagonal, factor):
        assert bordered(b, ())[0] == diagonal
        assert bordered(b, [(1, 0)])[0] == diagonal
        assert cokernel_structure(b) == AbelianGroup((factor,), 0)
        dec = smith_normal_form(b)
        assert dec.diagonal == (1, factor)
        assert dec.verify(b)


class TestCokernel:
    def test_examples(self):
        g = cokernel_structure(mat([[-4]]))
        assert g.invariant_factors == (4,) and g.free_rank == 0
        g = cokernel_structure(mat([[0]]))
        assert g.invariant_factors == () and g.free_rank == 1
        g = cokernel_structure(mat([[2, 0], [0, 2]]))
        assert g.invariant_factors == (2, 2) and g.free_rank == 0

    def test_empty_presentation_is_trivial(self):
        assert cokernel_structure(IntMatrix(0, 0, ())) == AbelianGroup((), 0)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            cokernel_structure(mat([[0, 0, 0]] * 2))

    @given(int_matrices(max_dim=4, bound=8, square=True), st.randoms())
    @settings(max_examples=80, deadline=None)
    def test_invariant_under_congruence(self, b, rnd):
        p = random_unimodular_matrix(
            random.Random(rnd.randint(0, 10**6)), b.rows
        )
        assert cokernel_structure(congruence_transform(b, p)) == \
            cokernel_structure(b)


class TestIntegralSolve:
    def test_image_membership_examples(self):
        assert not is_in_integral_image(mat([[-4]]), (-2,))
        assert is_in_integral_image(mat([[0]]), (0,))
        assert not is_in_integral_image(mat([[2, 0], [0, 2]]), (1, 1))

    def test_solve_examples(self):
        assert solve_integral(mat([[2]]), (4,)) == (2,)
        assert solve_integral(mat([[2]]), (3,)) is None
        z = solve_integral(mat([[2, 1], [1, 2]]), (0, 3))
        assert mat([[2, 1], [1, 2]]).mul_vec(z) == (0, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_integral(mat([[2]]), (1, 2))
        with pytest.raises(DimensionError):
            is_in_integral_image(mat([[2]]), (1, 2))

    def test_agrees_with_enumeration(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 2)
            b = mat([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            y = tuple(rng.randint(-5, 5) for _ in range(n))
            brute = any(
                b.mul_vec(z) == y
                for z in itertools.product(range(-5, 6), repeat=n)
            )
            if brute:
                assert is_in_integral_image(b, y)
            z = solve_integral(b, y)
            assert (z is not None) == is_in_integral_image(b, y)
            if z is not None:
                assert b.mul_vec(z) == y


class TestProducts:
    def test_mul_vec_matches_the_dense_sum(self):
        # a sum over the nonzeros, on dense, sparse, all-zero and non-square
        # matrices and zero dimensions
        rng = random.Random(20261020)
        for _ in range(300):
            rows, cols = rng.randint(0, 9), rng.randint(0, 9)
            weights = rng.choice(((1, 0, 0, 0), (1, 1), (0,)))
            b = dense_matrix(rows, cols, (
                [rng.choice(weights) * rng.randint(-2 ** 70, 2 ** 70)
                 for _ in range(cols)] for _ in range(rows)))
            x = [rng.randint(-9, 9) for _ in range(cols)]
            assert b.mul_vec(x) == tuple(
                sum(e * xi for e, xi in zip(row, x)) for row in b.entries)
            with pytest.raises(DimensionError):
                b.mul_vec(x + [1])


class TestSymmetry:
    """`is_symmetric`, which compares each nonzero entry of `sparse_rows`
    with its mirror, against the transpose it replaced."""

    @staticmethod
    def transpose_oracle(b):
        return b.rows == b.cols and tuple(zip(*b.entries)) == b.entries

    def test_matches_the_transpose(self):
        rng = random.Random(20261020)
        cases = [
            IntMatrix(0, 0, ()), mat([[0]]), mat([[-7]]),
            mat([[1, 0, 2], [0, 1, 0], [0, 0, 1]]),  # a nonzero facing a 0
            mat([[0, 0, 0], [0, 0, 0], [5, 0, 0]]),
            mat([[1, 3], [4, 1]]),                   # unequal nonzero mirrors
            mat([[1, 2, 3]]), mat([[1], [2]]),       # not square
            IntMatrix(0, 3, ()), mat([[], []]),
        ]
        for _ in range(400):
            n = rng.randint(0, 7)
            rows = [[0] * n for _ in range(n)]
            density = rng.random()
            for i in range(n):
                for j in range(i, n):
                    if rng.random() < density:
                        rows[i][j] = rows[j][i] = rng.randint(-9, 9)
            if n > 1 and rng.random() < 0.6:
                i, j = rng.sample(range(n), 2)
                rows[i][j] = rng.choice((0, rng.randint(-9, 9)))
            cases.append(mat(rows))
        for b in cases:
            assert b.is_symmetric == self.transpose_oracle(b), b
        assert sum(b.is_symmetric for b in cases) not in (0, len(cases))


class TestGF2:
    def test_kernel_examples(self):
        assert [v.to_bits() for v in gf2_kernel_basis(
            GF2Matrix.from_int_matrix(mat([[0]])))] == [(1,)]
        assert gf2_kernel_basis(
            GF2Matrix.from_int_matrix(mat([[-3]]))) == []
        assert [v.to_bits() for v in gf2_kernel_basis(
            GF2Matrix.from_int_matrix(mat([[2, 0], [0, 3]])))] == [(1, 0)]

    @given(int_matrices(max_dim=5, bound=5))
    @settings(max_examples=100, deadline=None)
    def test_kernel_is_correct_and_spanning(self, b):
        bbar = GF2Matrix.from_int_matrix(b)
        basis = gf2_kernel_basis(bbar)

        def in_kernel(bits):
            # each row of bbar meets the vector in an even number of ones
            return not any((w & bits).bit_count() & 1 for w in bbar.row_words)

        assert all(in_kernel(v.bits) for v in basis)
        # enumerate the whole kernel and compare with the span
        kernel = set(filter(in_kernel, range(2 ** b.cols)))
        span = {0}
        for v in basis:
            span |= {s ^ v.bits for s in span}
        assert span == kernel

    def test_row_words_match_the_per_entry_construction(self):
        # sparse, dense, negative and all-even rows, and zero columns
        rng = random.Random(20261103)
        for _ in range(200):
            rows, cols = rng.randint(0, 12), rng.randint(0, 40)
            weights = rng.choice(((1, 0, 0, 0, 0), (1, 1), (2, 0, 0)))
            b = dense_matrix(rows, cols, (
                [rng.choice(weights) * rng.randint(-9, 9)
                 for _ in range(cols)] for _ in range(rows)))
            words = tuple(
                sum(1 << j for j, e in enumerate(row) if e % 2)
                for row in b.entries)
            assert GF2Matrix.from_int_matrix(b) == GF2Matrix(rows, cols, words)

    def test_vector_roundtrip(self):
        v = GF2Vector.from_bits((1, 0, 1, 1))
        assert v.to_bits() == (1, 0, 1, 1)

    def test_bits_match_the_per_coordinate_shifts(self):
        # lengths 0 and 1, byte boundaries, long vectors, 0 and all ones
        rng = random.Random(20261019)
        lengths = [0, 1, 2, 7, 8, 9, 15, 16, 17, 159, 1000]
        for length in lengths + [rng.randint(0, 300) for _ in range(200)]:
            for bits in {0, (1 << length) - 1, rng.getrandbits(length)}:
                assert word_bits(bits, length) == GF2Vector(
                    length, bits).to_bits() == tuple(
                    (bits >> i) & 1 for i in range(length)), (length, bits)


class TestCongruence:
    def test_examples(self):
        b = mat([[2, 0], [0, 2]])
        assert congruence_transform(b, mat([[1, 0], [0, 1]])) == b
        assert congruence_transform(mat([[-4]]), mat([[-1]])).to_lists() == \
            [[-4]]
        assert congruence_transform(b, mat([[1, 1], [0, 1]])).to_lists() == \
            [[2, 2], [2, 4]]

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            congruence_transform(mat([[2, 0], [0, 2]]), mat([[2, 0], [0, 1]]))

    def test_preserves_symmetry(self):
        b = mat([[2, 1], [1, -4]])
        p = mat([[1, 2], [1, 3]])
        assert congruence_transform(b, p).is_symmetric


class TestNonIntegersRefused:
    """Every entrance to the exact code admits integers by `operator.index`
    and refuses a float or a Fraction with TypeError, where `int` rounded
    it toward zero and the code went on with another input."""

    @pytest.mark.parametrize("entrance", [
        lambda: mat([[2.7]]),
        lambda: IntMatrix.diagonal([2.9]),
        lambda: solve_integral(mat([[2]]), [Fraction(5, 2)]),
        lambda: order_in_cokernel(mat([[4]]), [0.5]),
        lambda: is_in_integral_image(mat([[2]]), [Fraction(5, 2)]),
        lambda: torsion_linking(mat([[4]]), [0.5], [0.5]),
        lambda: GF2Vector.from_bits([1, 0.5]),
        lambda: CoverClass.from_bits([1.0]),
        lambda: diagonal_index([2.5], CoverClass.from_bits([1])),
    ], ids=["from_rows", "diagonal", "solve_integral", "order_in_cokernel",
            "is_in_integral_image", "torsion_linking", "GF2Vector.from_bits",
            "CoverClass.from_bits", "diagonal_index"])
    def test_refused(self, entrance):
        with pytest.raises(TypeError):
            entrance()

    def test_cli_exit_code_is_unchanged(self, tmp_path):
        # the parser refuses it first, as a presentation error
        path = tmp_path / "float.json"
        path.write_text('{"matrix": [[2.7]]}')
        assert main(["analyze", str(path)], out=io.StringIO()) == 2
