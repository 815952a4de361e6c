"""Borsuk-Ulam Z2-index classification for free involutions on closed
oriented 3-manifolds given by surgery presentations."""

__version__ = "0.1.0"

from .borsuk import (
    ClassificationResult,
    IndexReport,
    InvariantViolation,
    classify_all,
    classify_class,
    diagonal_index,
)
from .catalog import CatalogEntry, lens_rule_index, lookup
from .exactlinalg import (
    AbelianGroup,
    DimensionError,
    GF2Matrix,
    GF2Vector,
    IntMatrix,
    SmithDecomposition,
    cokernel_structure,
    congruence_transform,
    gf2_kernel_basis,
    is_in_integral_image,
    order_in_cokernel,
    smith_normal_form,
    solve_integral,
)
from .homology import (
    CoverClass,
    QmodZ,
    cover_classes,
    first_homology,
    torsion_linking,
)
from .surgery import (
    PresentationError,
    SurgeryPresentation,
    connected_sum,
    empty_presentation,
    lens_presentation,
    parse_presentation,
)

__all__ = [
    "AbelianGroup",
    "CatalogEntry",
    "ClassificationResult",
    "CoverClass",
    "DimensionError",
    "GF2Matrix",
    "GF2Vector",
    "IndexReport",
    "IntMatrix",
    "InvariantViolation",
    "PresentationError",
    "QmodZ",
    "SmithDecomposition",
    "SurgeryPresentation",
    "classify_all",
    "classify_class",
    "cokernel_structure",
    "congruence_transform",
    "connected_sum",
    "cover_classes",
    "diagonal_index",
    "empty_presentation",
    "first_homology",
    "gf2_kernel_basis",
    "is_in_integral_image",
    "lens_presentation",
    "lens_rule_index",
    "lookup",
    "order_in_cokernel",
    "parse_presentation",
    "smith_normal_form",
    "solve_integral",
    "torsion_linking",
]
