"""Internal checks raise InvariantViolation, not assert, so that they hold
under `python -O`; nested input is parsed without recursion."""

import ast
from pathlib import Path

import pytest

import z2index
import z2index.borsuk as borsuk
import z2index.exactlinalg as exactlinalg
import z2index.surgery as surgery
from z2index.borsuk import Analysis, Block, classify_class
from z2index.exactlinalg import IntMatrix, InvariantViolation, solve_integral
from z2index.homology import CoverClass, torsion_linking
from z2index.surgery import (
    PresentationError,
    SurgeryPresentation,
    connected_sum,
    lens_presentation,
    parse_presentation,
)


def mat(rows):
    return IntMatrix.from_rows(rows)


def test_no_assert_statement_in_z2index():
    # `python -O` strips assert statements, so none may guard an invariant
    found = []
    for path in sorted(Path(z2index.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def wrong_decomposition(monkeypatch, v):
    """Make `exactlinalg.eliminate` of [[-4]] end with the right U and S
    but with V = [[v]]."""
    original = exactlinalg.eliminate

    def wrong(rows, border, n, columns):
        diagonal = original(rows, border, n, columns)
        columns[:] = [{0: v}]
        return diagonal

    monkeypatch.setattr(exactlinalg, "eliminate", wrong)


def test_one_class_everywhere():
    assert borsuk.InvariantViolation is InvariantViolation
    assert z2index.InvariantViolation is InvariantViolation


def test_wrong_decomposition_fails_solve_integral(monkeypatch):
    wrong_decomposition(monkeypatch, 3)
    with pytest.raises(InvariantViolation):
        solve_integral(mat([[-4]]), (8,))


def test_wrong_decomposition_fails_torsion_linking(monkeypatch):
    wrong_decomposition(monkeypatch, 3)
    with pytest.raises(InvariantViolation):
        torsion_linking(mat([[-4]]), (2,), (2,))


def wrong_diagonal(monkeypatch, block, d):
    """Make `exactlinalg.eliminate` end with d at (0, 0) when it eliminates
    the rows block, bordered or not."""
    original = exactlinalg.eliminate

    def wrong(rows, border, n, columns):
        is_block = [[row.get(j, 0) for j in range(n)] for row in rows
                    ] == block
        diagonal = original(rows, border, n, columns)
        if is_block:
            diagonal[0] = d
        return diagonal

    monkeypatch.setattr(exactlinalg, "eliminate", wrong)


def test_wrong_decomposition_fails_classifier(monkeypatch):
    # [[-4]] with the class 1: Y = -2, and eliminate gives U = -1, S = 4
    # and V = 1, so U Y = 2
    x = CoverClass.from_bits((1,))
    for d, crosscheck, message in (
            # a zero claims a kernel vector: its column of V fails B Z = 0,
            # on the verdict path itself
            (0, False, "B Z = 0"),
            # S = 2 makes Y of order 1: z = V c = 1 fails B z = nY
            (2, True, "b z = n y"),
            # S = 8 makes Y of order 4: z = V c = 1 fails B z = nY
            (8, True, "b z = n y")):
        with monkeypatch.context() as patch:
            wrong_diagonal(patch, [[-4]], d)
            with pytest.raises(InvariantViolation, match=message):
                classify_class(mat([[-4]]), x, crosscheck=crosscheck)
            if d:
                # without the cross-check nothing looks at U Y or at z
                assert classify_class(mat([[-4]]), x,
                                      crosscheck=False).index == 2


def test_analysis_rejects_wrong_order(monkeypatch):
    # S = 1 claims the block [[-4]] has cokernel 0: Y = -2 would vanish, and
    # the exact check of z = V c = 2 against B z = Y catches it
    b = mat([[-4, 0], [0, 2]])
    wrong_diagonal(monkeypatch, [[-4]], 1)
    with pytest.raises(InvariantViolation, match="b z = n y"):
        Analysis.of(b).classify(CoverClass.from_bits((1, 0)))
    # the class in the other block meets only that block's elimination
    assert not Analysis.of(b).classify(CoverClass.from_bits((0, 1)),
                                       crosscheck=False).beta_vanishes


def test_analysis_rejects_a_class_that_leaves_its_block():
    # b is one block and invertible mod 2, so it has no cover class.  Blocks
    # claimed as {0} and {1}, each [[0]], would each have the kernel vector
    # 1, so that (1, 0) and (0, 1) would look like classes of b.  The split
    # leaves out both entries of b, and Analysis rejects it before any class
    # is classified
    b = mat([[0, 1], [1, 0]])
    split = tuple(Block((i,), mat([[0]])) for i in range(2))
    with pytest.raises(InvariantViolation, match="every nonzero entry"):
        Analysis(b, split)


def test_analysis_rejects_a_split_that_loses_kernel_vectors():
    # (1, 1) is a class of b, but the blocks {0} and {1}, each [[1]], have
    # no mod-2 kernel: the split would report no connected double cover
    b = mat([[1, 1], [1, 1]])
    split = tuple(Block((i,), mat([[1]])) for i in range(2))
    with pytest.raises(InvariantViolation, match="every nonzero entry"):
        Analysis(b, split)
    assert [x.to_bits() for x in Analysis.of(b).basis] == [(1, 1)]


def test_analysis_rejects_blocks_that_do_not_partition_b():
    b = IntMatrix.diagonal([2, 2])
    first, second = Analysis.of(b).blocks
    outside = Block((2,), mat([[2]]))
    for blocks in ((first,), (first, first), (first, outside),
                   (first, second, outside)):
        with pytest.raises(InvariantViolation, match="partition"):
            Analysis(b, blocks)
    assert Analysis(b, (second, first)).homology == Analysis.of(b).homology


def test_lens_determinant_check(monkeypatch):
    monkeypatch.setattr(surgery, "negative_continued_fraction",
                        lambda p, q: [2, 2])
    with pytest.raises(InvariantViolation):
        lens_presentation(5, 2)


def nested_sum(depth, leaf):
    doc = leaf
    for _ in range(depth):
        doc = {"preset": "connected_sum", "parts": [{"preset": "s3"}, doc]}
    return doc


def test_deep_nesting_is_parsed_without_recursion():
    pres = surgery._presentation_from_doc(
        nested_sum(3000, {"preset": "lens", "p": 6, "q": 1}))
    assert pres.matrix == mat([[-6]])
    assert pres.label == "S^3 # " * 3000 + "L(6,1)"


def test_too_deep_json_is_an_input_error():
    # json.dumps itself recurses, so the text is written out directly
    text = ('{"preset": "connected_sum", "parts": [' * 3000
            + '{"matrix": [[2]]}' + "]}" * 3000)
    with pytest.raises(PresentationError):
        parse_presentation(text)


def test_unhashable_preset_is_an_input_error():
    with pytest.raises(PresentationError):
        parse_presentation('{"preset": []}')


def test_connected_sum_entries():
    a = SurgeryPresentation(mat([[1, 4, 5], [4, 2, 6], [5, 6, 3]]), "a")
    b = SurgeryPresentation(mat([[7, 9], [9, 8]]), "b")
    s = connected_sum(a, b)
    for i in range(5):
        for j in range(5):
            if i < 3 and j < 3:
                want = a.matrix.entries[i][j]
            elif i >= 3 and j >= 3:
                want = b.matrix.entries[i - 3][j - 3]
            else:
                want = 0
            assert s.matrix.entries[i][j] == want
