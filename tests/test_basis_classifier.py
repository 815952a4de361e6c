"""The classifier through the kernel basis.

`Analysis` classifies the k mod-2 kernel basis classes through the exact
path and derives every other verdict by GF(2) linearity.  These tests
compare it with the per-class oracle of `test_differential` at sizes that
oracle was not run at, on truncated runs, and on single classes, check
that corrupted basis data is caught, and count the work done per class.
"""

import random

import pytest

import z2index.borsuk as borsuk
import z2index.exactlinalg as exactlinalg
import z2index.homology as homology
from z2index.borsuk import Analysis, classify_all, classify_class
from z2index.exactlinalg import GF2Vector, IntMatrix, InvariantViolation
from z2index.homology import CoverClass, cover_classes
from z2index.selftest import random_symmetric_matrix

from test_differential import matrices, oracle_report


def even_matrix(rng, n):
    return IntMatrix.from_rows(
        [[2 * e for e in row]
         for row in random_symmetric_matrix(rng, n, 5).entries])


@pytest.mark.parametrize("n", [8, 9, 10])
@pytest.mark.parametrize("crosscheck", [True, False])
def test_all_even_sample_matches_oracle(n, crosscheck):
    rng = random.Random(f"even:{n}")
    for _ in range(2):
        b = even_matrix(rng, n)
        result = classify_all(b, cap=1 << n, crosscheck=crosscheck)
        assert len(result.reports) == 2 ** n - 1 and not result.truncated
        for report in rng.sample(result.reports, 25):
            assert report == oracle_report(b, report.lift, crosscheck)


@pytest.mark.parametrize("kind", ["dense", "even", "singular"])
def test_truncated_basis_reports_match_oracle(kind):
    truncated = 0
    for b in matrices(kind, seed=20261019, count=60):
        classes, _ = cover_classes(b, cap=1 << b.rows)
        if len(classes) < 3:
            continue
        result = classify_all(b, cap=len(classes) - 1)
        assert result.truncated
        assert len(result.reports) == len(Analysis.of(b).basis)
        assert result.reports == tuple(
            oracle_report(b, r.lift, True) for r in result.reports)
        truncated += 1
    assert truncated > 0


@pytest.mark.parametrize("kind", ["dense", "even", "singular"])
def test_single_classes_match_classify_all(kind):
    rng = random.Random(20261020)
    for b in matrices(kind, seed=20261020, count=40):
        reports = {CoverClass.from_bits(r.lift): r
                   for r in classify_all(b).reports}
        for x in reports:
            assert classify_class(b, x) == reports[x]
        n = b.rows
        for _ in range(10):
            x = CoverClass(GF2Vector(n, rng.randrange(1, 1 << n)))
            if x not in reports:
                with pytest.raises(ValueError):
                    classify_class(b, x)


def test_class_outside_kernel_raises_value_error():
    b = IntMatrix.from_rows([[2, 1, 0], [1, 2, 0], [0, 0, 4]])
    for bits in ((1, 0, 0), (0, 1, 1), (1, 0, 1)):
        with pytest.raises(ValueError):
            classify_class(b, CoverClass.from_bits(bits))
    assert classify_class(b, CoverClass.from_bits((0, 0, 1))).index == 2


def analysed(b):
    """An Analysis of b with its basis data computed."""
    analysis = Analysis.of(b)
    analysis.cup_mask, analysis._kernel_echelon, analysis.linking_mask
    return analysis


@pytest.mark.parametrize("name", ["cup_mask", "linking_mask"])
def test_flipped_cup_or_linking_bit_is_caught(name):
    flips = 0
    for b in matrices("even", seed=20261021, count=30):
        analysis = analysed(b)
        for i in range(len(analysis.basis)):
            flipped = analysed(b)
            vars(flipped)[name] = getattr(analysis, name) ^ (1 << i)
            with pytest.raises(InvariantViolation):
                flipped.classify_all(cap=1 << b.rows)
            flips += 1
    assert flips > 0


def test_flipped_beta_bit_is_caught():
    # the Bockstein verdict reads K1, the integral kernel mod 2.  A flipped
    # echelon bit, above the row's lowest one, at a basis class of triple
    # cup 1 puts a class of triple cup 1 into K1, against the trichotomy,
    # since every class of K1 has triple cup 0.  A kernel vector with one
    # coordinate moved by 1 fails B Z = 0 or reduces to 0 mod 2, and a
    # dropped one leaves dim K1 below b1
    caught = {"echelon": 0, "moved": 0, "dropped": 0}
    for kind in ("dense", "even", "singular"):
        for b in matrices(kind, seed=20261022, count=40):
            analysis = analysed(b)
            echelon = analysis._kernel_echelon
            for r, row in enumerate(echelon):
                for i in range((row & -row).bit_length(),
                               len(analysis.basis)):
                    if not analysis.cup_mask >> i & 1:
                        continue
                    flipped = analysed(b)
                    vars(flipped)["_kernel_echelon"] = (
                        echelon[:r] + (row ^ 1 << i,) + echelon[r + 1:])
                    with pytest.raises(InvariantViolation,
                                       match="trichotomy"):
                        flipped.classify_all(cap=1 << b.rows)
                    caught["echelon"] += 1
            kernel = analysis._integral_kernel
            for v, (t, z) in enumerate(kernel):
                for j in range(len(z)):
                    moved = Analysis.of(b)
                    vars(moved)["_integral_kernel"] = (
                        kernel[:v]
                        + ((t, z[:j] + (z[j] + 1,) + z[j + 1:]),)
                        + kernel[v + 1:])
                    with pytest.raises(InvariantViolation):
                        moved.classify_all(cap=1 << b.rows)
                    caught["moved"] += 1
                dropped = Analysis.of(b)
                vars(dropped)["_integral_kernel"] = (
                    kernel[:v] + kernel[v + 1:])
                with pytest.raises(InvariantViolation, match="b1"):
                    dropped.classify_all(cap=1 << b.rows)
                caught["dropped"] += 1
    assert all(caught.values()), caught


def test_odd_class_in_span_is_caught():
    b = IntMatrix.diagonal([1, 2])
    analysis = analysed(b)
    # the masks of e_2 are kept, but the span now holds e_1 + e_2
    vars(analysis)["basis"] = (GF2Vector.from_bits((1, 1)),)
    with pytest.raises(InvariantViolation, match="odd"):
        analysis.classify_all()


def test_per_class_work(monkeypatch):
    rng = random.Random(20261023)
    b = even_matrix(rng, 8)
    counts = {"mul_vec": 0, "eliminate": 0, "smith": 0, "Fraction": 0,
              "row_add": 0, "GF2Vector": 0, "CoverClass": 0}

    def counted(name, original):
        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(IntMatrix, "mul_vec",
                        counted("mul_vec", IntMatrix.mul_vec))
    monkeypatch.setattr(exactlinalg, "eliminate",
                        counted("eliminate", exactlinalg.eliminate))
    monkeypatch.setattr(exactlinalg, "smith_normal_form",
                        counted("smith", exactlinalg.smith_normal_form))
    for module in (borsuk, homology):
        monkeypatch.setattr(module, "Fraction",
                            counted("Fraction", module.Fraction))
    # every construction of either runs its __post_init__
    for cls in (GF2Vector, CoverClass):
        monkeypatch.setattr(cls, "__post_init__",
                            counted(cls.__name__, cls.__post_init__))

    # the basis classes, once per presentation: one B X each, one
    # elimination per block, B Z for each of the b1 integral kernel
    # vectors, and the cross-check's checked B z; no transform-carrying
    # Smith form
    analysis = analysed(b)
    k = len(analysis.basis)
    b1 = analysis.homology.free_rank
    assert k == 8
    assert (counts["mul_vec"], counts["eliminate"], counts["smith"]) == (
        2 * k + b1, len(analysis.blocks), 0)

    class CountedRows(tuple):
        """The sparse rows of b, counting each row the sweep adds."""

        def __getitem__(self, i):
            counts["row_add"] += 1
            return tuple.__getitem__(self, i)

    vars(b)["sparse_rows"] = CountedRows(b.sparse_rows)
    # each class: one row of B added to the sum of the class before it in
    # the listing, since the basis of an all-even block is the unit vectors
    # and each lift in lexicographic order is the last with its trailing
    # ones cleared and the zero above them set; and no product of a whole
    # matrix with a vector, elimination, rational arithmetic or object for
    # the class other than its lift and its report
    for key in counts:
        counts[key] = 0
    result = analysis.classify_all(cap=1 << k)
    assert len(result.reports) == 2 ** k - 1
    assert counts == {"mul_vec": 0, "eliminate": 0, "smith": 0,
                      "Fraction": 0, "row_add": 2 ** k - 1, "GF2Vector": 0,
                      "CoverClass": 0}
    assert [tuple(2 * e for e in r.bockstein_rep) for r in result.reports] \
        == [b.mul_vec(r.lift) for r in result.reports]
