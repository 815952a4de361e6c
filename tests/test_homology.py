import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2index.exactlinalg import (
    AbelianGroup,
    DimensionError,
    IntMatrix,
    order_in_cokernel,
)
from z2index.homology import (
    CoverClass,
    NonTorsionError,
    QmodZ,
    cover_classes,
    first_homology,
    torsion_linking,
)
from z2index.selftest import random_symmetric_matrix


def mat(rows):
    return IntMatrix.from_rows(rows)


@st.composite
def symmetric_matrices(draw, max_dim=5, bound=8):
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    return random_symmetric_matrix(rng, draw(st.integers(1, max_dim)), bound)


def torsion_vectors(rng, b, count=2):
    """Random vectors that are torsion in coker(b), by scaling away any
    free part: n*v with n the order when finite, else retry."""
    out = []
    while len(out) < count:
        v = tuple(rng.randint(-4, 4) for _ in range(b.rows))
        if order_in_cokernel(b, v) is not None:
            out.append(v)
        else:
            # project onto a torsion class by zeroing; cheap fallback
            out.append(tuple(0 for _ in range(b.rows)))
    return out


class TestFirstHomology:
    def test_examples(self):
        assert first_homology(mat([[-4]])).invariant_factors == (4,)
        g = first_homology(mat([[0]]))
        assert g.free_rank == 1 and not g.invariant_factors
        assert first_homology(IntMatrix(0, 0, ())) == AbelianGroup((), 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(DimensionError):
            first_homology(mat([[0, 1], [0, 0]]))


class TestCoverClasses:
    def test_no_cover_for_odd_order(self):
        classes, truncated = cover_classes(mat([[-3]]))
        assert classes == [] and not truncated

    def test_unique_cover(self):
        classes, _ = cover_classes(mat([[-4]]))
        assert [c.bits() for c in classes] == [(1,)]

    def test_three_covers(self):
        classes, _ = cover_classes(mat([[2, 0], [0, 2]]))
        assert [c.bits() for c in classes] == [(0, 1), (1, 0), (1, 1)]

    def test_count_is_two_to_k_minus_one(self):
        b = IntMatrix.diagonal([2, 4, 6, 0])
        classes, truncated = cover_classes(b, cap=100)
        assert len(classes) == 2 ** 4 - 1 and not truncated

    def test_cap_truncates_to_basis(self):
        b = IntMatrix.diagonal([2, 2, 2, 2, 2])
        classes, truncated = cover_classes(b, cap=10)
        assert truncated and len(classes) == 5

    def test_zero_class_rejected(self):
        with pytest.raises(ValueError):
            CoverClass.from_bits((0, 0))


class TestOrderInCokernel:
    def test_examples(self):
        assert order_in_cokernel(mat([[-4]]), (2,)) == 2
        assert order_in_cokernel(mat([[0]]), (1,)) is None
        assert order_in_cokernel(mat([[0]]), (0,)) == 1
        assert order_in_cokernel(mat([[-4]]), (0,)) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            order_in_cokernel(mat([[2]]), (1, 2))

    @given(symmetric_matrices(max_dim=4, bound=6),
           st.lists(st.integers(-5, 5), min_size=4, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_divides_largest_invariant_factor(self, b, y):
        y = tuple(y[:b.rows])
        n = order_in_cokernel(b, y)
        if n is None:
            return
        factors = first_homology(b).invariant_factors
        largest = factors[-1] if factors else 1
        assert largest % n == 0


class TestTorsionLinking:
    def test_half(self):
        assert torsion_linking(mat([[-2]]), (1,), (1,)) == \
            QmodZ(Fraction(1, 2))

    def test_zero_on_even_class(self):
        assert torsion_linking(mat([[-4]]), (2,), (2,)).value == 0

    def test_zero_class(self):
        assert torsion_linking(mat([[-4]]), (0,), (1,)).value == 0

    def test_lens_value_q_over_p(self):
        # generator self-linking of the (p) presentation is -1/p mod 1
        b = mat([[-5]])
        assert torsion_linking(b, (1,), (1,)) == QmodZ(Fraction(4, 5))

    def test_rejects_non_torsion(self):
        with pytest.raises(NonTorsionError):
            torsion_linking(mat([[0]]), (1,), (0,))
        with pytest.raises(NonTorsionError):
            torsion_linking(mat([[0]]), (0,), (1,))

    def _random_case(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        b = random_symmetric_matrix(rng, n, 6)
        return rng, b

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_symmetric(self, seed):
        rng, b = self._random_case(seed)
        a, c = torsion_vectors(rng, b)
        assert torsion_linking(b, a, c) == torsion_linking(b, c, a)

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_bilinear(self, seed):
        rng, b = self._random_case(seed)
        a, a2, c = torsion_vectors(rng, b, count=3)
        lhs = torsion_linking(b, tuple(x + y for x, y in zip(a, a2)), c)
        rhs = QmodZ.from_fraction(torsion_linking(b, a, c).value
                                  + torsion_linking(b, a2, c).value)
        assert lhs == rhs

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_image_shift(self, seed):
        rng, b = self._random_case(seed)
        a, c = torsion_vectors(rng, b)
        w = tuple(rng.randint(-3, 3) for _ in range(b.rows))
        shift = b.mul_vec(w)
        shifted = tuple(x + s for x, s in zip(a, shift))
        assert torsion_linking(b, shifted, c) == torsion_linking(b, a, c)
        shifted_c = tuple(x + s for x, s in zip(c, shift))
        assert torsion_linking(b, a, shifted_c) == torsion_linking(b, a, c)


class TestQmodZ:
    def test_normalization(self):
        assert QmodZ.from_fraction(Fraction(-1, 2)).value == Fraction(1, 2)
        assert QmodZ.from_fraction(Fraction(7, 3)).value == Fraction(1, 3)

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            QmodZ(Fraction(3, 2))
