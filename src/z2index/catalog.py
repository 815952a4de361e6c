"""Static catalog of fully worked Z2-index classifications.

Covers the classical fixtures (S^3, RP^3, lens spaces, the four free
involutions on S^1 x S^2, the 3-dimensional Klein bottle).  Entries whose
quotient admits an orientable surgery presentation carry one and are
re-verified against the classifier in tests; the nonorientable quotients
(K^3, S^1 x RP^2) are recorded as cited literature results since the
surgery pipeline only reaches orientable quotients.

The lens family rule `lens_rule_index` lives in `borsuk`, next to
`diagonal_index`, and is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .borsuk import lens_rule_index  # noqa: F401  re-exported
from .exactlinalg import IntMatrix
from .surgery import SurgeryPresentation


@dataclass(frozen=True)
class CatalogEntry:
    cover_manifold: str
    quotient_manifold: str
    involution_note: str
    index: int
    source: str
    computable_by_surgery: bool
    surgery_presentation: SurgeryPresentation | None = None
    cover_class_bits: tuple[int, ...] | None = None


ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        cover_manifold="S^3",
        quotient_manifold="RP^3",
        involution_note="antipodal map; quotient RP^3 = L(2,1), surgery on "
                        "a (-2)-framed unknot",
        index=3,
        source="Borsuk (1933), the classical Borsuk-Ulam theorem",
        computable_by_surgery=True,
        surgery_presentation=SurgeryPresentation(
            IntMatrix.from_rows([[-2]]), "L(2,1)"),
        cover_class_bits=(1,),
    ),
    CatalogEntry(
        cover_manifold="RP^3",
        quotient_manifold="L(4,1)",
        involution_note="induced by multiplication by i on S^3; quotient "
                        "L(4,1), surgery on a (-4)-framed unknot",
        index=2,
        source="Stolz (1989), level of real projective spaces",
        computable_by_surgery=True,
        surgery_presentation=SurgeryPresentation(
            IntMatrix.from_rows([[-4]]), "L(4,1)"),
        cover_class_bits=(1,),
    ),
    CatalogEntry(
        cover_manifold="S^1xS^2",
        quotient_manifold="S^1xS^2",
        involution_note="free involution with orientable quotient "
                        "S^1 x S^2; 0-framed unknot surgery",
        index=1,
        source="Tao (1962), free involutions on S^1 x S^2",
        computable_by_surgery=True,
        surgery_presentation=SurgeryPresentation(
            IntMatrix.from_rows([[0]]), "S^1xS^2"),
        cover_class_bits=(1,),
    ),
    CatalogEntry(
        cover_manifold="S^1xS^2",
        quotient_manifold="K^3",
        involution_note="free involution with quotient the 3-dimensional "
                        "Klein bottle (nonorientable)",
        index=1,
        source="Tao (1962), free involutions on S^1 x S^2; vanishing "
               "integral Bockstein since H^2(K^3, Z) = 0",
        computable_by_surgery=False,
    ),
    CatalogEntry(
        cover_manifold="S^1xS^2",
        quotient_manifold="S^1xRP^2",
        involution_note="free involution with quotient S^1 x RP^2 "
                        "(nonorientable)",
        index=2,
        source="Tao (1962); cup-product computation in "
               "H^*(S^1 x RP^2, Z_2) via the Kunneth formula",
        computable_by_surgery=False,
    ),
    CatalogEntry(
        cover_manifold="S^1xS^2",
        quotient_manifold="RP^3#RP^3",
        involution_note="free involution with quotient RP^3 # RP^3; "
                        "surgery on a 2-component 2-framed unlink, "
                        "cover class (1,1)",
        index=2,
        source="Tao (1962); linking-matrix computation with B = diag(2,2)",
        computable_by_surgery=True,
        surgery_presentation=SurgeryPresentation(
            IntMatrix.from_rows([[2, 0], [0, 2]]), "RP^3#RP^3"),
        cover_class_bits=(1, 1),
    ),
    CatalogEntry(
        cover_manifold="K^3",
        quotient_manifold="S^1xRP^2",
        involution_note="K^3 = [0,1] x S^2 / (1,x)~(0,-x) with involution "
                        "[t,x] -> [t,-x]; double cover of S^1 x RP^2 with "
                        "class (1,1)",
        index=3,
        source="cross-product computation: x^3 = u_1 x v_1^2 != 0 in "
               "H^3(S^1 x RP^2, Z_2)",
        computable_by_surgery=False,
    ),
)


_ALIASES = {
    "s3": "s^3",
    "s^3": "s^3",
    "rp3": "rp^3",
    "rp^3": "rp^3",
    "l(2,1)": "rp^3",
    "l(4,1)": "l(4,1)",
    "s1xs2": "s^1xs^2",
    "s^1xs^2": "s^1xs^2",
    "k3": "k^3",
    "k^3": "k^3",
    "s1xrp2": "s^1xrp^2",
    "s^1xrp^2": "s^1xrp^2",
    "rp3#rp3": "rp^3#rp^3",
    "rp^3#rp^3": "rp^3#rp^3",
}


def _canonical(name: str) -> str:
    key = name.strip().lower().replace(" ", "").replace("*", "x")
    return _ALIASES.get(key, key)


def lookup(name: str) -> list[CatalogEntry]:
    """All entries whose cover or quotient matches the (normalized) name;
    empty when unknown."""
    target = _canonical(name)
    return [
        e for e in ENTRIES
        if _canonical(e.cover_manifold) == target
        or _canonical(e.quotient_manifold) == target
    ]

