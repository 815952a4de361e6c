import json
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import z2index.surgery as surgery
from z2index.exactlinalg import IntMatrix, cokernel_structure
from z2index.surgery import (
    MAX_COMPONENTS,
    PresentationError,
    SurgeryPresentation,
    connected_sum,
    empty_presentation,
    lens_presentation,
    linking_matrix,
    negative_continued_fraction,
    parse_presentation,
)


def mat(rows):
    return IntMatrix.from_rows(rows)


@st.composite
def presentations(draw, max_components=5, bound=9):
    m = draw(st.integers(0, max_components))
    upper = iter(draw(st.lists(
        st.integers(-bound, bound),
        min_size=m * (m + 1) // 2, max_size=m * (m + 1) // 2)))
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            rows[i][j] = rows[j][i] = next(upper)
    label = draw(st.one_of(st.none(), st.text(max_size=8)))
    return SurgeryPresentation(mat(rows), label)


class TestLinkingMatrix:
    def test_empty(self):
        b = linking_matrix(empty_presentation())
        assert b.rows == 0 and b.cols == 0

    def test_single_unknot(self):
        pres = SurgeryPresentation(mat([[-4]]), None)
        assert linking_matrix(pres).to_lists() == [[-4]]

    def test_unlink(self):
        pres = SurgeryPresentation(mat([[2, 0], [0, 2]]), None)
        assert linking_matrix(pres).to_lists() == [[2, 0], [0, 2]]

    @given(presentations())
    @settings(max_examples=80, deadline=None)
    def test_always_symmetric(self, pres):
        b = linking_matrix(pres)
        assert b.is_symmetric
        assert b is pres.matrix


class TestValidation:
    """SurgeryPresentation checks its matrix: the one validation point for
    the parser, the presets and library callers."""

    def test_rejects_non_square(self):
        with pytest.raises(PresentationError,
                           match=r"not square: 1 rows but a row of length 2"):
            SurgeryPresentation(mat([[1, 2]]))
        with pytest.raises(PresentationError, match="not square"):
            SurgeryPresentation(mat([[], []]), "x")

    def test_rejects_asymmetric(self):
        with pytest.raises(PresentationError,
                           match=r"^matrix is not symmetric at \(0,1\)$"):
            SurgeryPresentation(mat([[1, 2], [3, 4]]))

    def test_names_the_first_asymmetric_entry(self):
        b = mat([[0, 0, 0], [0, 0, 5], [0, 4, 0]])
        with pytest.raises(PresentationError, match=r"at \(1,2\)$"):
            SurgeryPresentation(b)
        b = mat([[0, 1, 7], [1, 0, 5], [0, 4, 0]])
        with pytest.raises(PresentationError, match=r"at \(0,2\)$"):
            SurgeryPresentation(b)
        # a nonzero entry facing a 0, the first in row-major order
        b = mat([[1, 0, 2], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(PresentationError, match=r"at \(0,2\)$"):
            SurgeryPresentation(b)

    @given(presentations(max_components=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rejects_every_asymmetric_change(self, pres, data):
        m = pres.matrix.rows
        if m < 2:
            return
        i = data.draw(st.integers(0, m - 2))
        j = data.draw(st.integers(i + 1, m - 1))
        rows = pres.matrix.to_lists()
        rows[i][j] += data.draw(st.sampled_from((-3, -1, 1, 2)))
        with pytest.raises(PresentationError, match="not symmetric"):
            SurgeryPresentation(mat(rows), pres.label)


class TestLensPresentation:
    def test_paper_fixtures(self):
        assert linking_matrix(lens_presentation(4, 1)).to_lists() == [[-4]]
        assert linking_matrix(lens_presentation(2, 1)).to_lists() == [[-2]]
        assert linking_matrix(lens_presentation(7, 2)).to_lists() == \
            [[-4, 1], [1, -2]]

    def test_continued_fraction(self):
        assert negative_continued_fraction(7, 2) == [4, 2]
        assert negative_continued_fraction(5, 4) == [2, 2, 2, 2]

    def test_invalid_parameters(self):
        for p, q in ((1, 1), (4, 2), (5, 5), (5, 0), (3, -1)):
            with pytest.raises(PresentationError):
                lens_presentation(p, q)

    def test_determinant_and_cokernel(self):
        for p in range(2, 60):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                b = linking_matrix(lens_presentation(p, q))
                assert abs(b.det()) == p
                g = cokernel_structure(b)
                assert g.free_rank == 0
                assert g.invariant_factors == ((p,) if p > 1 else ())

    def test_determinant_larger_p(self):
        rng = random.Random(3)
        for _ in range(25):
            p = rng.randint(2, 500)
            q = rng.choice([q for q in range(1, p) if gcd(p, q) == 1])
            b = linking_matrix(lens_presentation(p, q))
            g = cokernel_structure(b)
            assert g.invariant_factors == (p,) and g.free_rank == 0


class TestConnectedSum:
    def test_block_sum(self):
        s = connected_sum(lens_presentation(2, 1), lens_presentation(2, 1))
        assert linking_matrix(s).to_lists() == [[-2, 0], [0, -2]]
        g = cokernel_structure(linking_matrix(s))
        assert g.invariant_factors == (2, 2)

    def test_identity(self):
        pres = SurgeryPresentation(mat([[2, 1], [1, 2]]), "x")
        summed = connected_sum(pres, empty_presentation(label=None))
        assert summed.matrix == pres.matrix

    def test_diag_two_two(self):
        a = SurgeryPresentation(mat([[2]]), None)
        assert linking_matrix(connected_sum(a, a)).to_lists() == \
            [[2, 0], [0, 2]]

    @given(presentations(max_components=3), presentations(max_components=3))
    @settings(max_examples=60, deadline=None)
    def test_cokernel_is_direct_sum(self, a, b):
        merged = cokernel_structure(linking_matrix(connected_sum(a, b)))
        ga = cokernel_structure(linking_matrix(a))
        gb = cokernel_structure(linking_matrix(b))
        # canonical invariant factors of the direct sum, via a diagonal
        # presentation of the two groups side by side
        diag = (ga.invariant_factors + gb.invariant_factors
                + (0,) * (ga.free_rank + gb.free_rank))
        expected = cokernel_structure(IntMatrix.diagonal(diag))
        assert merged == expected


class TestParse:
    def test_matrix_document(self):
        pres = parse_presentation('{"matrix": [[-4]]}')
        assert pres.matrix == mat([[-4]])

    def test_linked_pair(self):
        pres = parse_presentation('{"matrix": [[2, 1], [1, 2]]}')
        assert pres.matrix.rows == 2
        assert pres.matrix.entries[0][1] == pres.matrix.entries[1][0] == 1

    def test_label(self):
        pres = parse_presentation('{"matrix": [[0]], "label": "zero"}')
        assert pres.label == "zero"

    def test_rejects_asymmetric(self):
        with pytest.raises(PresentationError, match="symmetric"):
            parse_presentation('{"matrix": [[0, 1], [0, 0]]}')
        with pytest.raises(PresentationError,
                           match=r"^matrix is not symmetric at \(0,1\)$"):
            parse_presentation('{"matrix": [[1, 2], [3, 4]]}')

    def test_rejects_malformed_json(self):
        with pytest.raises(PresentationError, match="malformed"):
            parse_presentation("{nope")

    def test_rejects_non_integer(self):
        with pytest.raises(PresentationError, match="non-integer"):
            parse_presentation('{"matrix": [[1.5]]}')
        with pytest.raises(PresentationError, match="non-integer"):
            parse_presentation('{"matrix": [[true]]}')

    def test_rejects_non_square(self):
        with pytest.raises(PresentationError, match="square"):
            parse_presentation('{"matrix": [[1, 2]]}')

    def test_rejects_unknown_keys(self):
        with pytest.raises(PresentationError, match="unknown"):
            parse_presentation('{"matrix": [[1]], "frob": 2}')

    def test_rejects_both_matrix_and_preset(self):
        with pytest.raises(PresentationError, match="exactly one"):
            parse_presentation('{"matrix": [[1]], "preset": "s3"}')

    def test_preset_s3(self):
        pres = parse_presentation('{"preset": "s3"}')
        assert pres.matrix.rows == 0

    def test_preset_lens(self):
        pres = parse_presentation('{"preset": "lens", "p": 7, "q": 2}')
        assert linking_matrix(pres).to_lists() == [[-4, 1], [1, -2]]

    def test_preset_connected_sum(self):
        doc = json.dumps({
            "preset": "connected_sum",
            "parts": [
                {"preset": "lens", "p": 2, "q": 1},
                {"matrix": [[2]]},
            ],
        })
        pres = parse_presentation(doc)
        assert linking_matrix(pres).to_lists() == [[-2, 0], [0, 2]]

    def test_preset_unknown(self):
        with pytest.raises(PresentationError, match="unknown preset"):
            parse_presentation('{"preset": "torus"}')

    @given(presentations())
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, pres):
        doc = {"matrix": pres.matrix.to_lists()}
        if pres.label is not None:
            doc["label"] = pres.label
        assert parse_presentation(json.dumps(doc)) == pres


def _pairwise_fold(doc):
    """(matrix, label) of a parsed document, with every connected sum folded
    two parts at a time: the reference for the one-pass join."""
    if "matrix" in doc:
        return doc["matrix"], doc.get("label")
    if doc["preset"] == "s3":
        return [], doc.get("label", "S^3")
    if doc["preset"] == "lens":
        pres = lens_presentation(doc["p"], doc["q"])
        return linking_matrix(pres).to_lists(), doc.get("label", pres.label)
    rows, label = [], None
    for part in doc["parts"]:
        part_rows, part_label = _pairwise_fold(part)
        n, m = len(rows), len(part_rows)
        rows = ([r + [0] * m for r in rows]
                + [[0] * n + r for r in part_rows])
        label = (f"{label} # {part_label}" if label and part_label
                 else label or part_label)
    return rows, doc.get("label", label)


def _random_document(rng, depth):
    label = rng.choice([None, None, "", "a", "b c"])
    kind = rng.choice(["matrix", "lens", "s3", "sum", "sum"] if depth
                      else ["matrix", "lens", "s3"])
    if kind == "matrix":
        n = rng.randint(0, 3)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-5, 5)
        doc = {"matrix": rows}
    elif kind == "lens":
        p = rng.randint(2, 30)
        q = rng.choice([q for q in range(1, p) if gcd(p, q) == 1])
        doc = {"preset": "lens", "p": p, "q": q}
    elif kind == "s3":
        doc = {"preset": "s3"}
    else:
        doc = {"preset": "connected_sum", "parts": [
            _random_document(rng, depth - 1)
            for _ in range(rng.randint(0, 5))]}
    if label is not None:
        doc["label"] = label
    return doc


class TestNestedSums:
    def test_one_pass_join_equals_pairwise_fold(self):
        rng = random.Random(20261019)
        for _ in range(400):
            doc = _random_document(rng, depth=4)
            pres = parse_presentation(json.dumps(doc))
            rows, label = _pairwise_fold(doc)
            assert linking_matrix(pres).to_lists() == rows
            assert pres.label == label

    def test_many_parts(self):
        parts = [{"matrix": [[2]]}, {"preset": "lens", "p": 6, "q": 1}] * 200
        pres = parse_presentation(json.dumps(
            {"preset": "connected_sum", "parts": parts}))
        rows, label = _pairwise_fold(
            {"preset": "connected_sum", "parts": parts})
        assert linking_matrix(pres).to_lists() == rows
        assert pres.label == label


    def test_depth_50_nesting_is_joined_once(self, monkeypatch):
        # every level holds leaves of every kind, labelled or not, and an
        # empty sum; one level is labelled, so its parts' labels drop out
        rng = random.Random(20261024)
        doc = {"matrix": [[2, 1], [1, -2]], "label": "core"}
        for depth in range(50):
            parts = [_random_document(rng, 0) for _ in range(rng.randint(0, 3))]
            parts.insert(rng.randint(0, len(parts)), doc)
            parts.append({"preset": "connected_sum", "parts": []})
            doc = {"preset": "connected_sum", "parts": parts}
            if depth == 30:
                doc["label"] = "level 30"
        joins = []
        join = surgery._block_diagonal
        monkeypatch.setattr(surgery, "_block_diagonal",
                            lambda matrices: joins.append(1) or join(matrices))
        pres = parse_presentation(json.dumps(doc))
        rows, label = _pairwise_fold(doc)
        assert linking_matrix(pres).to_lists() == rows
        assert pres.label == label
        assert "level 30" in label and "core" not in label
        assert len(rows) > 50 and joins == [1]


class TestComponentLimit:
    """Presentations past MAX_COMPONENTS link components are rejected before
    their matrix is built."""

    limit = f"more than {MAX_COMPONENTS} link components"

    def test_lens_chain(self):
        # L(p, p - 1) is a chain of p - 1 components
        with pytest.raises(PresentationError, match=self.limit):
            lens_presentation(MAX_COMPONENTS + 2, MAX_COMPONENTS + 1)
        with pytest.raises(PresentationError, match=self.limit):
            lens_presentation(10 ** 12, 10 ** 12 - 1)

    def test_connected_sum(self):
        half = SurgeryPresentation(
            IntMatrix.diagonal([2] * (MAX_COMPONENTS // 2)))
        assert connected_sum(half, half).matrix.rows == MAX_COMPONENTS
        with pytest.raises(PresentationError, match=self.limit):
            connected_sum(half, half, SurgeryPresentation(mat([[2]])))

    def test_matrix_rows(self):
        # the row count is checked before the rows are read
        with pytest.raises(PresentationError, match=self.limit):
            parse_presentation(json.dumps(
                {"matrix": [[]] * (MAX_COMPONENTS + 1)}))

    def test_document(self):
        # two parts under the limit, whose sum is over it, are not both kept
        chain = {"preset": "lens", "p": 601, "q": 600}
        with pytest.raises(PresentationError,
                           match="the document has " + self.limit):
            parse_presentation(json.dumps(
                {"preset": "connected_sum", "parts": [chain, chain]}))
