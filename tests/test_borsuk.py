import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2index.borsuk import (
    beta_vanishes,
    bockstein_representative,
    classify_all,
    classify_class,
    diagonal_index,
    triple_cup,
)
from z2index.cli import _class_doc
from z2index.exactlinalg import IntMatrix, congruence_transform
from z2index.homology import CoverClass, cover_classes
from z2index.selftest import (
    random_symmetric_matrix,
    random_unimodular_matrix,
)
from z2index.surgery import connected_sum, lens_presentation, linking_matrix


def mat(rows):
    return IntMatrix.from_rows(rows)


class TestLiftAndBockstein:
    def test_lift_is_bits(self):
        assert CoverClass.from_bits((1,)).bits() == (1,)
        assert CoverClass.from_bits((1, 0, 1)).bits() == (1, 0, 1)
        x = CoverClass.from_bits((1, 0, 1))
        assert classify_class(mat([[2, 0, 0], [0, 1, 0], [0, 0, 2]]),
                              x).lift == (1, 0, 1)

    def test_bockstein_examples(self):
        assert bockstein_representative(mat([[-4]]), (1,)) == (-2,)
        assert bockstein_representative(mat([[0]]), (1,)) == (0,)
        assert bockstein_representative(mat([[2, 0], [0, 2]]), (1, 1)) == \
            (1, 1)

    def test_parity_violation(self):
        with pytest.raises(ValueError):
            bockstein_representative(mat([[-3]]), (1,))

    def test_beta_vanishes_examples(self):
        assert beta_vanishes(mat([[0]]), (1,))
        assert not beta_vanishes(mat([[-4]]), (1,))
        assert not beta_vanishes(mat([[2, 0], [0, 2]]), (1, 1))

    def test_triple_cup_examples(self):
        assert triple_cup(mat([[-2]]), (1,)) == 1
        assert triple_cup(mat([[-4]]), (1,)) == 0
        assert triple_cup(mat([[2, 0], [0, 2]]), (1, 1)) == 0


class TestClassify:
    def test_sphere(self):
        report = classify_class(mat([[-2]]), CoverClass.from_bits((1,)))
        assert report.index == 3
        assert report.self_linking.value == Fraction(1, 2)
        assert _class_doc(report)["bu_holds_for"] == (1, 2, 3)

    def test_stolz(self):
        report = classify_class(mat([[-4]]), CoverClass.from_bits((1,)))
        assert report.index == 2
        assert report.bockstein_rep == (-2,)
        assert not report.beta_vanishes
        assert report.triple_cup == 0
        assert report.self_linking.value == 0

    def test_s1xs2_quotients(self):
        assert classify_class(mat([[0]]),
                              CoverClass.from_bits((1,))).index == 1
        b = mat([[2, 0], [0, 2]])
        assert classify_class(b, CoverClass.from_bits((1, 1))).index == 2
        assert classify_class(b, CoverClass.from_bits((1, 0))).index == 3

    def test_rejects_non_kernel_class(self):
        with pytest.raises(ValueError):
            classify_class(mat([[-3]]), CoverClass.from_bits((1,)))

    def test_no_crosscheck_skips_linking(self):
        report = classify_class(mat([[-4]]), CoverClass.from_bits((1,)),
                                crosscheck=False)
        assert report.self_linking is None and report.index == 2

    def test_classify_all_examples(self):
        assert classify_all(mat([[-3]])).reports == ()
        reports = classify_all(mat([[-4]])).reports
        assert [r.index for r in reports] == [2]
        reports = classify_all(mat([[2, 0], [0, 2]])).reports
        assert [(r.lift, r.index) for r in reports] == \
            [((0, 1), 3), ((1, 0), 3), ((1, 1), 2)]

    def test_classify_all_empty_presentation(self):
        result = classify_all(IntMatrix(0, 0, ()))
        assert result.reports == () and "simply connected" in result.note

    def test_classify_all_cap(self):
        b = IntMatrix.diagonal([2] * 6)
        result = classify_all(b, cap=10)
        assert result.truncated and len(result.reports) == 6


class TestDiagonalOracle:
    def test_examples(self):
        assert diagonal_index([-2], CoverClass.from_bits((1,))) == 3
        assert diagonal_index([-4], CoverClass.from_bits((1,))) == 2
        assert diagonal_index([0], CoverClass.from_bits((1,))) == 1

    def test_rejects_class_outside_kernel(self):
        with pytest.raises(ValueError):
            diagonal_index([3], CoverClass.from_bits((1,)))

    @given(st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_classifier(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        diag = [rng.randint(-10, 10) for _ in range(n)]
        b = IntMatrix.diagonal(diag)
        classes, _ = cover_classes(b, cap=1 << n)
        for x in classes:
            assert classify_class(b, x).index == diagonal_index(diag, x)


class TestLiftIndependence:
    @given(st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_shift_by_two_z(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        b = random_symmetric_matrix(rng, n, 8)
        classes, _ = cover_classes(b, cap=1 << n)
        if not classes:
            return
        x = rng.choice(classes)
        report = classify_class(b, x)
        z = [rng.randint(-4, 4) for _ in range(n)]
        shifted = tuple(xi + 2 * zi for xi, zi in zip(report.lift, z))
        assert beta_vanishes(b, shifted) == report.beta_vanishes
        assert triple_cup(b, shifted) == report.triple_cup


class TestPresentationInvariance:
    def _multiset(self, b):
        return sorted(
            r.index for r in classify_all(b, cap=1 << b.rows).reports
        )

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_congruence_and_stabilization(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        b = random_symmetric_matrix(rng, n, 6)
        base = self._multiset(b)
        p = random_unimodular_matrix(rng, n)
        assert self._multiset(congruence_transform(b, p)) == base
        for eps in (1, -1):
            stabilized = IntMatrix.from_rows(
                [list(row) + [0] for row in b.entries] + [[0] * n + [eps]]
            )
            assert self._multiset(stabilized) == base


class TestConnectedSumLocality:
    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_left_factor_class(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        a = random_symmetric_matrix(rng, n, 6)
        classes, _ = cover_classes(a, cap=1 << n)
        if not classes:
            return
        x1 = rng.choice(classes)
        m = rng.randint(1, 3)
        b = random_symmetric_matrix(rng, m, 6)
        block = IntMatrix.from_rows(
            [list(row) + [0] * m for row in a.entries]
            + [[0] * n + list(row) for row in b.entries]
        )
        joint = CoverClass.from_bits(x1.bits() + (0,) * m)
        assert classify_class(block, joint).index == \
            classify_class(a, x1).index

    def test_lens_block(self):
        s = connected_sum(lens_presentation(2, 1), lens_presentation(8, 1))
        b = linking_matrix(s)
        # class supported on the first factor keeps the S^3 verdict
        report = classify_class(b, CoverClass.from_bits((1, 0)))
        assert report.index == 3
