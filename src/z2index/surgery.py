"""Framed-link surgery presentations and their linking matrices.

A `SurgeryPresentation(matrix, label)` is the symmetric linking matrix of
a framed link, framings on the diagonal and pairwise linking numbers off
it, with an optional label; the surgered 3-manifold only enters through
that matrix.  Input is the matrix itself or a named preset; link diagrams
are out of scope.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from math import gcd

from .exactlinalg import IntMatrix, InvariantViolation


class PresentationError(ValueError):
    """Invalid surgery presentation input."""


# the most link components a presentation may have; a dense matrix costs
# n^2 memory and its elimination n^3, a chain O(n) where no dense row is read
MAX_COMPONENTS = 1000


def _check_components(n: int, what: str) -> None:
    if n > MAX_COMPONENTS:
        raise PresentationError(f"{what} has more than {MAX_COMPONENTS} "
                                "link components, the limit")


@dataclass(frozen=True)
class SurgeryPresentation:
    """Framed link data as its linking matrix: framings a_ii on the
    diagonal, linking numbers a_ij = a_ji off it.

    The matrix is checked to be square and symmetric here, once."""

    matrix: IntMatrix
    label: str | None = None

    def __post_init__(self):
        b = self.matrix
        if not b.is_square:
            raise PresentationError(f"matrix is not square: {b.rows} rows "
                                    f"but a row of length {b.cols}")
        if not b.is_symmetric:
            # the asymmetric pairs come both ways round: name the first
            rows = b.sparse_rows
            i, j = min((min(i, j), max(i, j)) for i, row in enumerate(rows)
                       for j, e in row.items() if rows[j].get(i) != e)
            raise PresentationError(f"matrix is not symmetric at ({i},{j})")


def linking_matrix(pres: SurgeryPresentation) -> IntMatrix:
    """The symmetric linking matrix of pres, which is `pres.matrix`; kept
    for the benchmark worker, `perfbench/worker.py`, which imports it."""
    return pres.matrix


def negative_continued_fraction(p: int, q: int) -> list[int]:
    """Coefficients a_i >= 2 with p/q = a_1 - 1/(a_2 - 1/(...)).

    They are the components of the chain of L(p, q), so the expansion stops
    with a PresentationError past MAX_COMPONENTS of them."""
    coeffs = []
    what = f"the chain of L({p},{q})"
    while q:
        a = -((-p) // q)  # ceil(p / q)
        coeffs.append(a)
        _check_components(len(coeffs), what)
        p, q = q, a * q - p
    return coeffs


def lens_presentation(p: int, q: int) -> SurgeryPresentation:
    """Chain presentation of the lens space L(p, q).

    The chain is the negative continued fraction of p/q: a tridiagonal
    linking matrix with diagonal (-a_1, ..., -a_n) and off-diagonal 1.
    |det| = p is checked at construction.
    """
    if p < 2 or not (0 < q < p) or gcd(p, q) != 1:
        raise PresentationError(
            f"invalid lens parameters ({p}, {q}): need p >= 2, 0 < q < p, "
            "gcd(p, q) = 1"
        )
    coeffs = negative_continued_fraction(p, q)
    # |det| of the chain by the continuant recurrence for tridiagonal
    # matrices: d_k = a_k d_{k-1} - d_{k-2}
    d_prev, d = 1, coeffs[0]
    for a in coeffs[1:]:
        d_prev, d = d, a * d - d_prev
    if d != p:
        raise InvariantViolation(
            f"chain for L({p},{q}) has determinant {d}, not {p}"
        )
    # the band 1, -a_i, 1 of each row i, cut to the columns of the chain
    rows = [{i - 1: 1, i: -a, i + 1: 1} for i, a in enumerate(coeffs)]
    del rows[0][-1], rows[-1][len(rows)]
    b = IntMatrix(len(rows), len(rows), rows, True)
    return SurgeryPresentation(b, f"L({p},{q})")


def empty_presentation(label: str | None = "S^3") -> SurgeryPresentation:
    """The empty link: surgery gives the 3-sphere."""
    return SurgeryPresentation(IntMatrix(0, 0, ()), label)


def _block_diagonal(matrices) -> IntMatrix:
    """The square matrices joined block-diagonally, in order, in one pass."""
    n = sum(b.rows for b in matrices)
    _check_components(n, "the connected sum")
    rows = []
    before = 0
    for b in matrices:
        rows += ({j + before: e for j, e in row.items()}
                 for row in b.sparse_rows)
        before += b.rows
    return IntMatrix(n, n, rows, all(b.is_symmetric for b in matrices))


def _sum_label(labels) -> str | None:
    """The labels that are not empty joined by " # "; when there is none,
    the last label (None for no labels)."""
    return " # ".join(filter(None, labels)) or (labels[-1] if labels else None)


def connected_sum(*parts: SurgeryPresentation) -> SurgeryPresentation:
    """Block-diagonal union, in one pass; presents the connected sum of the
    surgered manifolds.

    Equal to the pairwise fold, label included: the labels of the parts
    that have one are joined by " # ", and when none has one the label is
    that of the last part (None for no parts).
    """
    return SurgeryPresentation(_block_diagonal([p.matrix for p in parts]),
                               _sum_label([p.label for p in parts]))


# each preset with the keys, besides "label", that its document may have
_PRESETS = {"s3": {"preset"}, "lens": {"preset", "p", "q"},
            "connected_sum": {"preset", "parts"}}


def parse_presentation(text: str) -> SurgeryPresentation:
    """Parse the JSON input document.

    The document is an object with exactly one of "matrix" (square,
    symmetric, integer) or "preset" ("s3" | "lens" with p, q |
    "connected_sum" with parts), plus an optional "label".  Unknown keys
    are rejected.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PresentationError(f"malformed JSON: {exc}") from None
    except RecursionError:
        raise PresentationError("input nested too deeply to parse") from None
    except ValueError as exc:
        # an integer literal longer than the interpreter converts
        reason = str(exc).partition(";")[0]
        raise PresentationError(f"{reason}; {_LIFT_LIMIT}") from None
    return _presentation_from_doc(doc)


_END = object()


def _presentation_from_doc(doc) -> SurgeryPresentation:
    # Nested connected sums are read with an explicit stack, so that their
    # depth is bounded by memory and not by the recursion limit.  Each open
    # sum is (label, iterator over the parts still to read, labels of the
    # parts read).  The leaves, in document order, are joined once, when the
    # outermost sum closes; an inner sum only works out its label.
    stack = []
    leaves = []
    components = 0
    while True:
        pres = _read_level(doc, stack)
        if pres is not None:
            if not stack:
                return pres
            # the document presents the sum of its leaves: count them as read
            components += pres.matrix.rows
            _check_components(components, "the document")
            leaves.append(pres.matrix)
            stack[-1][2].append(pres.label)
        # close the open sums that have no part left to read, each handing
        # its label to the sum it is a part of
        while (doc := next(stack[-1][1], _END)) is _END:
            label, _, labels = stack.pop()
            if label is None:
                label = _sum_label(labels)
            if not stack:
                return SurgeryPresentation(_block_diagonal(leaves), label)
            stack[-1][2].append(label)


def _read_level(doc, stack: list):
    """The presentation of a document other than a connected sum.  A
    connected sum is pushed on `stack` unread, and None returned."""
    if not isinstance(doc, dict):
        raise PresentationError("input document must be a JSON object")
    label = None
    if "label" in doc:
        label = doc["label"]
        if not isinstance(label, str):
            raise PresentationError('"label" must be a string')
    keys = set(doc) - {"label"}
    if "matrix" in keys and "preset" in keys:
        raise PresentationError('give exactly one of "matrix" or "preset"')
    if "matrix" in doc:
        extra = keys - {"matrix"}
        if extra:
            raise PresentationError(f"unknown keys: {sorted(extra)}")
        return _read_matrix(doc["matrix"], label)
    if "preset" in doc:
        return _presentation_from_preset(doc, keys, label, stack)
    raise PresentationError('missing "matrix" or "preset"')


def _check_int(e):
    # bool is an int subclass; reject it explicitly
    if not isinstance(e, int) or isinstance(e, bool):
        raise PresentationError(f"non-integer entry: {e!r}")
    return e


_LIFT_LIMIT = "set PYTHONINTMAXSTRDIGITS=0 to lift the limit"


def check_printable(bound: int, what: str) -> None:
    """Reject input when bound has more digits than the interpreter converts
    between an integer and text (none before Python 3.10.7)."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    # 2^(3 limit) < 10^limit, so 3 limit bits have at most limit digits
    if limit and bound.bit_length() > 3 * limit and bound >= 10 ** limit:
        raise PresentationError(f"{what} has more than {limit} digits, the "
                                f"limit for writing an integer; {_LIFT_LIMIT}")


def _read_matrix(matrix, label) -> SurgeryPresentation:
    if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
        raise PresentationError('"matrix" must be an array of arrays')
    m = len(matrix)
    _check_components(m, '"matrix"')
    big = 0
    for r in matrix:
        if len(r) != m:
            raise PresentationError(
                f"matrix is not square: {m} rows but a row of length {len(r)}"
            )
        for e in r:
            _check_int(e)
        big = max(big, max(r), -min(r))
    # n max|b_ij| bounds every entry of B X, so of every Y reported
    check_printable(m * big, "n * max|b_ij| of the matrix")
    return SurgeryPresentation(IntMatrix.from_rows(matrix), label)


def _presentation_from_preset(doc, keys, label, stack: list):
    preset = doc["preset"]
    if not isinstance(preset, str) or preset not in _PRESETS:
        raise PresentationError(
            f"unknown preset {preset!r}; expected one of {sorted(_PRESETS)}"
        )
    extra = keys - _PRESETS[preset]
    if extra:
        raise PresentationError(f"unknown keys: {sorted(extra)}")
    if preset == "s3":
        pres = empty_presentation()
    elif preset == "lens":
        if "p" not in doc or "q" not in doc:
            raise PresentationError('preset "lens" needs "p" and "q"')
        pres = lens_presentation(_check_int(doc["p"]), _check_int(doc["q"]))
    else:
        parts = doc.get("parts")
        if not isinstance(parts, list):
            raise PresentationError('preset "connected_sum" needs a "parts" list')
        stack.append((label, iter(parts), []))
        return None
    if label is not None:
        pres = replace(pres, label=label)
    return pres

