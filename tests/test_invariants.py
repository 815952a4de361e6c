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
from z2index.exactlinalg import (
    IntMatrix,
    InvariantViolation,
    SmithDecomposition,
    smith_normal_form,
    solve_integral,
)
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


def wrong_decomposition(v):
    """A decomposition of [[-4]] with the right u and s but a wrong v."""
    return SmithDecomposition(u=mat([[-1]]), s=mat([[4]]), v=mat([[v]]))


def test_one_class_everywhere():
    assert borsuk.InvariantViolation is InvariantViolation
    assert z2index.InvariantViolation is InvariantViolation


def test_wrong_decomposition_fails_solve_integral(monkeypatch):
    monkeypatch.setattr(exactlinalg, "smith_normal_form",
                        lambda b: wrong_decomposition(3))
    with pytest.raises(InvariantViolation):
        solve_integral(mat([[-4]]), (8,))


def test_wrong_decomposition_fails_torsion_linking(monkeypatch):
    monkeypatch.setattr(exactlinalg, "smith_normal_form",
                        lambda b: wrong_decomposition(3))
    with pytest.raises(InvariantViolation):
        torsion_linking(mat([[-4]]), (2,), (2,))


def test_wrong_decomposition_fails_classifier(monkeypatch):
    monkeypatch.setattr(borsuk, "smith_normal_form",
                        lambda b: wrong_decomposition(-1))
    x = CoverClass.from_bits((1,))
    with pytest.raises(InvariantViolation):
        classify_class(mat([[-4]]), x)
    # without the cross-check nothing looks at z
    assert classify_class(mat([[-4]]), x, crosscheck=False).index == 2


def test_analysis_rejects_wrong_order():
    # u = [[1]] with s = [[1]] claims the block [[-4]] has cokernel 0: Y = -2
    # would vanish, and the exact check of z against B z = Y catches it
    b = mat([[-4, 0], [0, 2]])
    good = Analysis.of(b)
    wrong = Block((0,), mat([[-4]]),
                  SmithDecomposition(u=mat([[1]]), s=mat([[1]]),
                                     v=mat([[1]])))
    bad = Analysis(b, good.bbar, (wrong, good.blocks[1]))
    with pytest.raises(InvariantViolation):
        bad.classify(CoverClass.from_bits((1, 0)))
    # the class in the other block meets only that block's Smith form
    assert not bad.classify(CoverClass.from_bits((0, 1)),
                            crosscheck=False).beta_vanishes


def test_analysis_rejects_a_class_that_leaves_its_block():
    # b is one block, and its mod-2 kernel class (1, 1) spans both indices;
    # blocks claimed as {0} and {1} would split it
    b = mat([[1, 1], [1, 1]])
    split = tuple(Block((i,), mat([[1]]), smith_normal_form(mat([[1]])))
                  for i in range(2))
    bad = Analysis(b, Analysis.of(b).bbar, split)
    with pytest.raises(InvariantViolation, match="leaves the block"):
        bad.classify(CoverClass.from_bits((1, 1)), crosscheck=False)


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
