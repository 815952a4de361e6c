"""Borsuk-Ulam Z2-index classification for free involutions on closed
oriented 3-manifolds given by surgery presentations.

The public names load with their module on first access (PEP 562), so
that importing one submodule, such as `z2index.cli`, loads no other.
"""

import importlib

__version__ = "0.1.0"

# each public name and the submodule that defines it
_MODULE_OF = {
    "AbelianGroup": "exactlinalg",
    "CatalogEntry": "catalog",
    "ClassificationResult": "borsuk",
    "CoverClass": "homology",
    "DimensionError": "exactlinalg",
    "GF2Matrix": "exactlinalg",
    "GF2Vector": "exactlinalg",
    "IndexReport": "borsuk",
    "IntMatrix": "exactlinalg",
    "InvariantViolation": "exactlinalg",
    "PresentationError": "surgery",
    "QmodZ": "homology",
    "SmithDecomposition": "exactlinalg",
    "SurgeryPresentation": "surgery",
    "classify_all": "borsuk",
    "classify_class": "borsuk",
    "cokernel_structure": "exactlinalg",
    "congruence_transform": "exactlinalg",
    "connected_sum": "surgery",
    "cover_classes": "homology",
    "diagonal_index": "borsuk",
    "empty_presentation": "surgery",
    "first_homology": "homology",
    "gf2_kernel_basis": "exactlinalg",
    "is_in_integral_image": "exactlinalg",
    "lens_presentation": "surgery",
    "lens_rule_index": "borsuk",
    "lookup": "catalog",
    "order_in_cokernel": "exactlinalg",
    "parse_presentation": "surgery",
    "smith_normal_form": "exactlinalg",
    "solve_integral": "exactlinalg",
    "torsion_linking": "homology",
}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
