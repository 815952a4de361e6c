"""The class entries of a report and the order they are listed in.

`render_json` writes each `ClassEntry` by one template; the oracle is
`json.dumps(value, indent=2, ensure_ascii=False)`, which writes the same
entry as a plain dict.  `kernel_span` orders the classes by their lift
tuples; the oracle is the order of the bit string read from bit 0 up,
which is how the span was sorted before.
"""

import json
import random

import pytest

from z2index.borsuk import classify_all
from z2index.cli import ClassEntry, build_report, render_json
from z2index.exactlinalg import GF2Vector, IntMatrix
from z2index.homology import kernel_span, xor_span
from z2index.surgery import SurgeryPresentation


def stdlib(value):
    return json.dumps(value, indent=2, ensure_ascii=False)


def report(rows, **kwargs):
    """The report `analyze` builds for the matrix rows, with the keyword
    arguments of `classify_all`."""
    pres = SurgeryPresentation(IntMatrix.from_rows(rows), "case")
    result = classify_all(pres.matrix, **kwargs)
    return build_report(pres, result, pres.matrix, [])


CASES = {
    # B = [[0]]: the one class has a vanishing Bockstein, index 1
    "index 1, lift of length 1": ([[0]], {}),
    # L(2,1) and L(4,1): self-linking 1/2 with index 3, 0 with index 2
    "index 3, self-linking 1/2": ([[-2]], {}),
    "index 2, self-linking 0": ([[-4]], {}),
    "no cross-check, self-linking null": ([[-2]], {"crosscheck": False}),
    "indices 1, 2 and 3 in one report": (
        [[0, 0, 0], [0, 2, 0], [0, 0, -4]], {}),
    "negative and long Bockstein entries": (
        [[4, -6, 2 ** 70], [-6, 8, 0], [2 ** 70, 0, -2]], {}),
    "truncated listing": ([[2, 0, 0], [0, 4, 0], [0, 0, 0]], {"cap": 2}),
    "empty class list": ([[1, 1], [1, -2]], {}),
}


@pytest.mark.parametrize("name", CASES)
def test_class_entries_equal_stdlib(name):
    rows, kwargs = CASES[name]
    doc = report(rows, **kwargs)
    assert all(type(c) is ClassEntry for c in doc["classes"])
    assert render_json(doc) == stdlib(doc), name
    for entry in doc["classes"]:
        # at any depth, and the entry alone
        for pad in ("\n", "\n    ", "\n" + " " * 9):
            assert render_json(entry, pad) == stdlib(entry).replace(
                "\n", pad), (name, pad)


def test_the_cases_cover_every_kind_of_entry():
    entries = [c for rows, kwargs in CASES.values()
               for c in report(rows, **kwargs)["classes"]]
    assert {c["index"] for c in entries} == {1, 2, 3}
    assert {c["self_linking"] for c in entries} == {None, "0", "1/2"}
    assert {len(c["lift"]) for c in entries} >= {1, 3}
    rows, kwargs = CASES["truncated listing"]
    assert report(rows, **kwargs)["truncated"]
    rows, kwargs = CASES["empty class list"]
    assert report(rows, **kwargs)["classes"] == []


def test_seeded_reports_equal_stdlib():
    rng = random.Random(20261019)
    for _ in range(200):
        n = rng.randint(1, 7)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = 2 * rng.randint(-6, 6)
        crosscheck = rng.random() < 0.7
        doc = report(rows, cap=rng.choice((3, 1024)), crosscheck=crosscheck)
        assert render_json(doc) == stdlib(doc), rows


def test_every_entry_has_the_eight_keys_and_class_is_lift():
    # the template writes these keys in this order, and the `lift` text
    # for `class` too
    keys = ["class", "lift", "bockstein_rep", "beta_vanishes", "triple_cup",
            "self_linking", "index", "bu_holds_for"]
    for rows, kwargs in CASES.values():
        for entry in report(rows, **kwargs)["classes"]:
            assert list(entry) == keys
            assert entry["class"] is entry["lift"]


def _string_key_span(basis, cap):
    """`kernel_span` as it was: (mask, vector) sorted by the bit string of
    the vector read from bit 0 up."""
    k = len(basis)
    width = basis[0].length if basis else 0
    if k > 0 and 2 ** k - 1 > cap:
        span = [(1 << i, v) for i, v in enumerate(basis)]
    else:
        bits = xor_span([v.bits for v in basis])
        span = [(mask, GF2Vector(width, bits[mask]))
                for mask in range(1, 2 ** k)]
    span.sort(key=lambda item: format(item[1].bits, f"0{width}b")[::-1])
    return span


def _random_basis(rng, k, width):
    """k vectors of the given width, independent mod 2."""
    basis, span = [], {0}
    while len(basis) < k:
        bits = rng.getrandbits(width)
        if bits not in span:
            basis.append(GF2Vector(width, bits))
            span |= {s ^ bits for s in span}
    return basis


def test_kernel_span_order_equals_the_string_key_order():
    rng = random.Random(20261021)
    for _ in range(300):
        width = rng.randint(1, 12)
        k = rng.randint(0, min(width, 7))
        basis = _random_basis(rng, k, width)
        cap = rng.choice((0, 1, 2 ** k - 2, 1024))
        span, truncated = kernel_span(basis, cap)
        assert truncated == (k > 0 and 2 ** k - 1 > cap)
        assert span == [(v.to_bits(), mask) for mask, v in _string_key_span(
            basis, cap)], (basis, cap)
