"""Framed-link surgery presentations and their linking matrices.

A presentation records framings (diagonal) and pairwise linking numbers
(off-diagonal) of a framed link; the surgered 3-manifold only enters
through the resulting symmetric linking matrix.  Input is the matrix
itself or a named preset; link diagrams are out of scope.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from math import gcd

from .exactlinalg import IntMatrix, InvariantViolation


class PresentationError(ValueError):
    """Invalid surgery presentation input."""


@dataclass(frozen=True)
class SurgeryPresentation:
    """Framed link data: framings a_ii and linking numbers a_ij = a_ji.

    Off-diagonal linking numbers are stored as the upper triangle in
    row-major order, length m*(m-1)/2.
    """

    framings: tuple[int, ...]
    linkings: tuple[int, ...] = ()
    label: str | None = None

    def __post_init__(self):
        m = len(self.framings)
        if len(self.linkings) != m * (m - 1) // 2:
            raise PresentationError(
                f"expected {m * (m - 1) // 2} linking numbers for "
                f"{m} components, got {len(self.linkings)}"
            )

    @property
    def component_count(self) -> int:
        return len(self.framings)

    def linking(self, i: int, j: int) -> int:
        """lk(L_i, L_j) for i != j; the framing for i == j."""
        m = self.component_count
        if not (0 <= i < m and 0 <= j < m):
            raise IndexError("component index out of range")
        if i == j:
            return self.framings[i]
        if i > j:
            i, j = j, i
        # offset of (i, j) in the row-major upper triangle
        return self.linkings[i * (2 * m - i - 1) // 2 + (j - i - 1)]

    @classmethod
    def from_matrix(cls, matrix, label: str | None = None) -> "SurgeryPresentation":
        rows = [list(r) for r in matrix]
        m = len(rows)
        for r in rows:
            if len(r) != m:
                raise PresentationError(
                    f"matrix is not square: {m} rows but a row of length {len(r)}"
                )
        for i in range(m):
            for j in range(m):
                if rows[i][j] != rows[j][i]:
                    raise PresentationError(
                        f"matrix is not symmetric at ({i},{j})"
                    )
        framings = tuple(rows[i][i] for i in range(m))
        linkings = tuple(
            rows[i][j] for i in range(m) for j in range(i + 1, m)
        )
        return cls(framings, linkings, label)


def linking_matrix(pres: SurgeryPresentation) -> IntMatrix:
    """The symmetric linking matrix: framings on the diagonal, linking
    numbers off it."""
    m = pres.component_count
    rows = [[0] * m for _ in range(m)]
    pos = 0
    for i in range(m):
        rows[i][i] = pres.framings[i]
        for j in range(i + 1, m):
            rows[i][j] = rows[j][i] = pres.linkings[pos]
            pos += 1
    return IntMatrix(m, m, tuple(tuple(r) for r in rows))


def negative_continued_fraction(p: int, q: int) -> list[int]:
    """Coefficients a_i >= 2 with p/q = a_1 - 1/(a_2 - 1/(...))."""
    coeffs = []
    while q:
        a = -((-p) // q)  # ceil(p / q)
        coeffs.append(a)
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
    n = len(coeffs)
    framings = tuple(-a for a in coeffs)
    linkings = tuple(
        1 if j == i + 1 else 0
        for i in range(n) for j in range(i + 1, n)
    )
    pres = SurgeryPresentation(framings, linkings, label=f"L({p},{q})")
    # |det| of the chain by the continuant recurrence for tridiagonal
    # matrices: d_k = a_k d_{k-1} - d_{k-2}
    d_prev, d = 1, coeffs[0]
    for a in coeffs[1:]:
        d_prev, d = d, a * d - d_prev
    if d != p:
        raise InvariantViolation(
            f"chain for L({p},{q}) has determinant {d}, not {p}"
        )
    return pres


def empty_presentation(label: str | None = "S^3") -> SurgeryPresentation:
    """The empty link: surgery gives the 3-sphere."""
    return SurgeryPresentation((), (), label)


def connected_sum(*parts: SurgeryPresentation) -> SurgeryPresentation:
    """Block-diagonal union, in one pass; presents the connected sum of the
    surgered manifolds.

    Equal to the pairwise fold, label included: the labels of the parts
    that have one are joined by " # ", and when none has one the label is
    that of the last part (None for no parts).
    """
    after = sum(p.component_count for p in parts)
    linkings = []
    for p in parts:
        m = p.component_count
        after -= m
        # row i of p's upper triangle, then zeros for the components of the
        # later parts
        zeros = (0,) * after
        start = 0
        for i in range(m):
            end = start + m - i - 1
            linkings += p.linkings[start:end]
            linkings += zeros
            start = end
    labels = [p.label for p in parts if p.label]
    if labels:
        label = " # ".join(labels)
    else:
        label = parts[-1].label if parts else None
    framings = tuple(f for p in parts for f in p.framings)
    return SurgeryPresentation(framings, tuple(linkings), label)


_PRESETS = {"s3", "lens", "connected_sum"}


def parse_presentation(text: str, *, strict: bool = True) -> SurgeryPresentation:
    """Parse the JSON input document.

    The document is an object with exactly one of "matrix" (square,
    symmetric, integer) or "preset" ("s3" | "lens" with p, q |
    "connected_sum" with parts), plus an optional "label".  Unknown keys
    are rejected.  With strict=False an asymmetric matrix is symmetrized
    from its upper triangle instead of rejected.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PresentationError(f"malformed JSON: {exc}") from None
    except RecursionError:
        raise PresentationError("input nested too deeply to parse") from None
    return _presentation_from_doc(doc, strict=strict)


_END = object()


def _presentation_from_doc(doc, *, strict: bool) -> SurgeryPresentation:
    # Nested connected sums are read with an explicit stack, so that their
    # depth is bounded by memory and not by the recursion limit.  Each open
    # sum is (label, iterator over the parts still to read, parts read), and
    # its parts are joined in one pass when the last one has been read.
    stack = []
    while True:
        pres = _read_level(doc, stack, strict=strict)
        # hand finished presentations to the open sums until one of them
        # has a part left to read
        while True:
            if pres is not None:
                if not stack:
                    return pres
                stack[-1][2].append(pres)
            label, parts, done = stack[-1]
            doc = next(parts, _END)
            if doc is not _END:
                break
            stack.pop()
            pres = connected_sum(*done)
            if label is not None:
                pres = replace(pres, label=label)


def _read_level(doc, stack: list, *, strict: bool):
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
        return _presentation_from_matrix(doc["matrix"], label, strict=strict)
    if "preset" in doc:
        return _presentation_from_preset(doc, keys, label, stack)
    raise PresentationError('missing "matrix" or "preset"')


def _check_int(e):
    # bool is an int subclass; reject it explicitly
    if not isinstance(e, int) or isinstance(e, bool):
        raise PresentationError(f"non-integer entry: {e!r}")
    return e


def _presentation_from_matrix(matrix, label, *, strict: bool) -> SurgeryPresentation:
    if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
        raise PresentationError('"matrix" must be an array of arrays')
    m = len(matrix)
    for r in matrix:
        if len(r) != m:
            raise PresentationError(
                f"matrix is not square: {m} rows but a row of length {len(r)}"
            )
        for e in r:
            _check_int(e)
    if not strict:
        matrix = [
            [matrix[min(i, j)][max(i, j)] for j in range(m)] for i in range(m)
        ]
    return SurgeryPresentation.from_matrix(matrix, label)


def _presentation_from_preset(doc, keys, label, stack: list):
    preset = doc["preset"]
    if not isinstance(preset, str) or preset not in _PRESETS:
        raise PresentationError(
            f"unknown preset {preset!r}; expected one of {sorted(_PRESETS)}"
        )
    if preset == "s3":
        extra = keys - {"preset"}
        if extra:
            raise PresentationError(f"unknown keys: {sorted(extra)}")
        pres = empty_presentation()
    elif preset == "lens":
        extra = keys - {"preset", "p", "q"}
        if extra:
            raise PresentationError(f"unknown keys: {sorted(extra)}")
        if "p" not in doc or "q" not in doc:
            raise PresentationError('preset "lens" needs "p" and "q"')
        pres = lens_presentation(_check_int(doc["p"]), _check_int(doc["q"]))
    else:
        extra = keys - {"preset", "parts"}
        if extra:
            raise PresentationError(f"unknown keys: {sorted(extra)}")
        parts = doc.get("parts")
        if not isinstance(parts, list):
            raise PresentationError('preset "connected_sum" needs a "parts" list')
        stack.append((label, iter(parts), []))
        return None
    if label is not None:
        pres = replace(pres, label=label)
    return pres


def serialize_presentation(pres: SurgeryPresentation) -> str:
    """Canonical JSON form; parse_presentation inverts it exactly."""
    doc: dict = {"matrix": linking_matrix(pres).to_lists()}
    if pres.label is not None:
        doc["label"] = pres.label
    return json.dumps(doc)
