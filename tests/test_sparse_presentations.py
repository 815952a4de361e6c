"""Presentations built, cut, joined and written from their sparse rows,
against the dense routines they replaced.

An `IntMatrix` is its shape and sparse rows: the constructor takes the rows
as they are, `from_rows` is the one checked way in from dense rows, and
the dense `entries` are made only when they are read.  Dense rows that go
in by `from_rows` come back out of `entries` and `transpose`, and a matrix
equals and hashes as its sparse rows, whatever their order.
`principal_submatrix` cuts a block from the sparse rows, and a connected
sum joins its parts' sparse rows; the dense cut and join kept in
`linalg_oracle` are the reference.  `render_json` writes the matrix of a
report from its sparse rows; the oracle is the stdlib encoder on the dense
rows.  Last, `lens 1001 1000`, `lens 1000 999` and a connected sum of even
chains are built, analysed, classified and written as JSON with no call of
`from_rows` and no read of `entries`, and a dense "matrix" document with
one call and no read.
"""

import io
import json
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_oracle as oracle
from z2index import cli
from z2index.cli import MatrixRows, main, render_json
from z2index.exactlinalg import DimensionError, IntMatrix, principal_submatrix
from z2index.selftest import random_symmetric_matrix
from z2index.surgery import (
    SurgeryPresentation,
    _block_diagonal,
    connected_sum,
    lens_presentation,
    parse_presentation,
)

PADS = ("\n", "\n  ", "\n" + " " * 9)


def stdlib(value):
    return json.dumps(value, indent=2, ensure_ascii=False)


def tridiagonal(rng: random.Random, n: int, bound: int) -> IntMatrix:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(-bound, bound)
        if i:
            rows[i][i - 1] = rows[i - 1][i] = rng.randint(-bound, bound)
    return IntMatrix.from_rows(rows)


def transpose_symmetric(b: IntMatrix) -> bool:
    """Symmetry read from the dense rows alone."""
    return b.rows == b.cols and b.entries == tuple(zip(*b.entries))


def seeded_matrices(seed: int) -> list[IntMatrix]:
    """0x0, all-zero, tridiagonal, dense and block-diagonal square
    matrices, with negative entries and entries past 2^64, built both from
    dense rows and from sparse ones."""
    rng = random.Random(seed)
    big = 2 ** 64 + rng.randrange(2 ** 70)
    cases = [IntMatrix(0, 0, ()), IntMatrix.from_rows([[0]]),
             IntMatrix.from_rows([[0] * 4] * 4)]
    for n in (1, 2, 5, 12):
        cases += [tridiagonal(rng, n, 9), tridiagonal(rng, n, big),
                  random_symmetric_matrix(rng, n, 9),
                  random_symmetric_matrix(rng, n, big)]
    cases.append(oracle.block_diagonal(cases[3:11]))
    cases += [lens_presentation(64, 27).matrix, IntMatrix.diagonal([0, -3, 0]),
              connected_sum(lens_presentation(12, 5),
                            SurgeryPresentation(cases[-2]),
                            lens_presentation(9, 2)).matrix]
    # sparse rows whose columns do not come in ascending order
    cases.append(IntMatrix(3, 3, [{2: -big, 0: 1}, {}, {1: 7, 0: -2}]))
    return cases


@pytest.mark.parametrize("seed", range(5))
def test_matrix_writer_equals_stdlib(seed):
    for b in seeded_matrices(seed):
        rows = MatrixRows(b)
        # the dense rows are the list itself, for every reader but the writer
        assert rows == b.to_lists() and str(rows) == str(b.to_lists())
        assert json.dumps(rows) == json.dumps(b.to_lists())
        for pad in PADS:
            assert render_json(rows, pad) == stdlib(b.to_lists()).replace(
                "\n", pad), (b, pad)


def test_matrix_writer_on_rows_of_no_columns():
    b = IntMatrix.from_rows([[], []])
    for pad in PADS:
        assert render_json(MatrixRows(b), pad) == stdlib([[], []]).replace(
            "\n", pad)


def test_entries_are_made_on_first_read():
    rows = [{0: 2, 2: -1}, {}, {0: 1, 2: 2 ** 70}]
    dense = [[2, 0, -1], [0, 0, 0], [1, 0, 2 ** 70]]
    for b in (IntMatrix(3, 3, rows), IntMatrix.from_rows(dense)):
        assert "entries" not in vars(b)
        assert b.entries == tuple(map(tuple, dense))
        assert vars(b)["entries"] is b.entries
    b = IntMatrix(3, 3, rows)
    assert b == IntMatrix.from_rows(dense) and b.sparse_rows == tuple(rows)
    assert b.is_symmetric == transpose_symmetric(b) is False
    assert IntMatrix(1, 1, [{0: 1}], symmetric=True).is_symmetric
    with pytest.raises(AttributeError):
        b.no_such_attribute


@st.composite
def dense_rows(draw):
    """Dense integer rows of any shape up to 6 x 6, m x 0 included, mostly
    zeros, with entries past 2^64."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.integers(-9, 9),
                      st.integers(-2 ** 70, 2 ** 70))
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=m, max_size=m))


@given(dense_rows(), st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_from_rows_entries_equality_hash_and_transpose(rows, width):
    """`from_rows(r).entries` is r, a copy whose row dicts were built in
    reversed order is equal and hashes equal, and `transpose` is the dense
    transpose; a matrix of no rows and `width` columns, which `from_rows`
    cannot give, is made by the constructor."""
    b = IntMatrix.from_rows(rows) if rows else IntMatrix(0, width, ())
    assert b.entries == tuple(map(tuple, rows))
    reverse = IntMatrix(b.rows, b.cols, [dict(reversed(row.items()))
                                         for row in b.sparse_rows])
    assert reverse == b and hash(reverse) == hash(b)
    t = b.transpose()
    assert (t.rows, t.cols) == (b.cols, b.rows)
    assert t.entries == (tuple(zip(*rows)) if rows else ((),) * width)
    assert t.transpose() == b and t == reverse.transpose()


def test_from_rows_refuses_ragged_rows():
    with pytest.raises(DimensionError, match="ragged row"):
        IntMatrix.from_rows([[1, 2], [3]])


@pytest.mark.parametrize("seed", range(5))
def test_cut_from_the_sparse_rows_equals_the_dense_cut(seed):
    rng = random.Random(seed)
    for b in seeded_matrices(seed):
        n = b.rows
        indices = [list(range(n)), list(range(n))[::-1],
                   sorted(rng.sample(range(n), n // 2)),
                   rng.sample(range(n), rng.randint(0, n))]
        for index in indices:
            cut = principal_submatrix(b, index)
            dense = oracle.principal_submatrix(b, index)
            assert cut == dense, (b, index)
            assert cut.sparse_rows == dense.sparse_rows, (b, index)
            assert cut.is_symmetric == transpose_symmetric(dense)


@pytest.mark.parametrize("seed", range(5))
def test_join_of_sparse_rows_equals_the_dense_join(seed):
    rng = random.Random(seed)
    for _ in range(20):
        parts = []
        for _ in range(rng.randint(0, 5)):
            if rng.random() < 0.5:
                p = rng.randint(2, 80)
                q = rng.choice([q for q in range(1, p) if gcd(p, q) == 1])
                parts.append(lens_presentation(p, q))
            else:
                parts.append(SurgeryPresentation(random_symmetric_matrix(
                    rng, rng.randint(0, 4), 2 ** 66)))
        joined = connected_sum(*parts).matrix
        dense = oracle.block_diagonal([p.matrix for p in parts])
        assert joined == dense and joined.sparse_rows == dense.sparse_rows
        assert joined.is_symmetric and transpose_symmetric(dense)


def test_join_of_an_asymmetric_part_is_not_symmetric():
    asymmetric = IntMatrix.from_rows([[1, 2], [0, 1]])
    joined = _block_diagonal([lens_presentation(5, 2).matrix, asymmetric])
    assert joined == oracle.block_diagonal(
        [lens_presentation(5, 2).matrix, asymmetric])
    assert not joined.is_symmetric and not transpose_symmetric(joined)


def test_nested_document_equals_the_dense_join_of_its_leaves():
    leaves = [{"preset": "lens", "p": 12, "q": 5},
              {"matrix": [[2, 1], [1, -2]]},
              {"preset": "lens", "p": 8, "q": 3},
              {"matrix": [[0]]},
              {"preset": "s3"},
              {"preset": "lens", "p": 2, "q": 1}]
    doc = {"preset": "connected_sum", "parts": [
        leaves[0], {"preset": "connected_sum", "parts": leaves[1:4]},
        {"preset": "connected_sum", "parts": leaves[4:]}]}
    pres = parse_presentation(json.dumps(doc))
    dense = oracle.block_diagonal(
        [parse_presentation(json.dumps(leaf)).matrix for leaf in leaves])
    assert pres.matrix == dense
    assert pres.matrix.sparse_rows == dense.sparse_rows


def run(argv) -> str:
    out = io.StringIO()
    assert main(argv, out=out) == 0
    return out.getvalue()


def dense_run(monkeypatch, argv) -> tuple[str, list[tuple[str, int]]]:
    """The output of `main(argv)` and its dense touches: each call of
    `IntMatrix.from_rows` and each read of `entries`, as its name and the
    matrix's row count.  The output is checked to be the same while the
    report's dense lists, kept for `json.dumps`, are junk, so that the
    writer must read the sparse rows."""
    expected = run(argv)
    dense = []
    from_rows, make = IntMatrix.from_rows.__func__, IntMatrix.entries.func

    def counted(cls, rows):
        b = from_rows(cls, rows)
        dense.append(("from_rows", b.rows))
        return b

    def read(self):
        dense.append(("entries", self.rows))
        return make(self)

    build_report = cli.build_report

    def junk_rows(*args, **kwargs):
        doc = build_report(*args, **kwargs)
        doc["matrix"][:] = [[None]] * len(doc["matrix"])
        return doc

    with monkeypatch.context() as patch:
        patch.setattr(IntMatrix, "from_rows", classmethod(counted))
        # a property, not cached, so that every read is recorded
        patch.setattr(IntMatrix, "entries", property(read))
        patch.setattr(cli, "build_report", junk_rows)
        assert run(argv) == expected
    return expected, dense


def sparse_only_run(monkeypatch, argv) -> str:
    """The output of `main(argv)`, checked to make no matrix from dense
    rows and to read no dense `entries`."""
    expected, dense = dense_run(monkeypatch, argv)
    assert dense == []
    return expected


def test_lens_report_reads_only_the_sparse_rows(monkeypatch):
    """The chain of L(1001,1000) is built, analysed and written with no
    `from_rows` and no dense `entries`.  So the path touches the
    3n - 2 nonzeros, and n^2 entries only in the copies of one zero row and
    its text."""
    expected = sparse_only_run(
        monkeypatch, ["lens", "1001", "1000", "--format", "json"])
    matrix = json.loads(expected)["matrix"]
    assert matrix == [[-2 if j == i else int(abs(i - j) == 1)
                       for j in range(1000)] for i in range(1000)]


# a connected sum of even lens chains: k = 3, so 7 classes, most of whose
# lifts span parts
EVEN_SUM = json.dumps({"preset": "connected_sum", "parts": [
    {"preset": "lens", "p": 12, "q": 5}, {"preset": "lens", "p": 40, "q": 11},
    {"preset": "connected_sum", "parts": [
        {"preset": "lens", "p": 6, "q": 1}]}]})


@pytest.mark.parametrize("argv, k", [
    (["lens", "1000", "999", "--format", "json"], 1),
    (["analyze", "{sum}", "--format", "json"], 3),
    (["analyze", "{sum}", "--format", "json", "--no-crosscheck"], 3),
], ids=["even chain", "even sum", "even sum, no cross-check"])
def test_classified_reports_read_only_the_sparse_rows(monkeypatch, tmp_path,
                                                      argv, k):
    """Classes too, with or without the cross-check, are classified with
    no dense `entries`: their B X comes from the sparse rows."""
    path = tmp_path / "sum.json"
    path.write_text(EVEN_SUM)
    argv = [str(path) if a == "{sum}" else a for a in argv]
    report = json.loads(sparse_only_run(monkeypatch, argv))
    assert report["k"] == k and len(report["classes"]) == 2 ** k - 1


def test_dense_document_goes_in_by_one_from_rows(monkeypatch, tmp_path):
    """A "matrix" document makes its matrix by one `from_rows` call, and is
    then analysed, classified, cross-checked and written from the sparse
    rows, with no read of `entries`."""
    path = tmp_path / "even.json"
    path.write_text(json.dumps({"matrix": [
        [2, 0, 0, 0], [0, 4, 2, 0], [0, 2, -2, 0], [0, 0, 0, 0]]}))
    output, dense = dense_run(monkeypatch, ["analyze", str(path), "--format",
                                            "json"])
    assert dense == [("from_rows", 4)] and json.loads(output)["k"] == 4
