"""gcgeo: exact linear and differential algebra of T + T*.

Spinors, the Mukai pairing, maximal isotropics, twisted Courant brackets on
polynomial charts, generalized complex structures and their branes, all over
exact gaussian-rational scalars.

The exports below, and the submodules, load on first use (PEP 562): importing
the package, or `gcgeo.cli` for one command, loads only the layers it reads.
"""

import sys

__version__ = "0.1.0"

_EXPORTS = {  # defining module -> the names the package exports from it
    "scalars": ("GaussRat", "Poly", "NoExactSquareRoot", "MismatchedVariables"),
    "forms": ("MixedForm", "CapacityError", "mukai_coeff", "mukai_pair"),
    "clifford": ("GenVector", "SoElement", "BlockTransform"),
    "charts": ("Chart",),
    "isotropics": ("MaxIsotropic", "NotIsotropic", "NotPure", "canonical_form",
                   "pure_spinor_line", "null_space", "graph_over_cotangent", "transform",
                   "tensor_product"),
    "gcs": ("GCStructure", "InvalidStructure", "validate_gc", "eigenbundle", "gc_type",
            "type_and_canonical_spinor", "grading_project", "poisson_of", "darboux_point"),
    "fields": ("ClosedThreeForm", "DiracFrame", "courant_bracket", "d_twisted",
               "involutivity_tensor", "schouten"),
    "integrability": ("check_spinor_integrability", "nijenhuis_field", "deform_by_bivector",
                      "modular_vector_field", "hamiltonian_section"),
    "algebroid": ("LiePair", "complex_pair", "maurer_cartan"),
    "branes": ("SubmanifoldData", "generalized_tangent", "pullback_dirac", "brane_check"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    """An export from its defining module, or a submodule not yet imported."""
    module = f"{__name__}.{_HOME.get(name, name)}"
    try:
        __import__(module)
    except ModuleNotFoundError as e:
        if e.name != module:
            raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(sys.modules[module], name) if name in _HOME else sys.modules[module]
