"""leafkit: numerical operator theory at matrix scale.

Ideal norms from symmetric norming functions, density-matrix state
decompositions, coadjoint-orbit symplectic geometry, and the explicit
local cross-section of the unitary orbit map through a Hermitian
reference operator.

The public names below are imported from their modules on first access
(PEP 562), so ``import leafkit`` and the one-shot CLI load only the
modules they use.
"""

import importlib

_EXPORTS = {
    "errors": (
        "ClusterAmbiguity",
        "CornerSingular",
        "LeafkitError",
        "NearSingular",
        "NotCommuting",
        "NotHermitian",
        "NotPositive",
        "NotSkewHermitian",
        "NotUnitary",
        "NotUnitVector",
        "ParseError",
        "PreconditionError",
        "RankTooHigh",
        "ShapeError",
        "SingleCluster",
        "SizeMismatch",
        "SpectrumOutOfRange",
        "UnsupportedKind",
    ),
    "opcore": (
        "PolarFactors",
        "SpectralData",
        "function_calculus",
        "matrix_exp",
        "polar_decompose",
        "singular_values",
        "spectral_decompose",
    ),
    "norming": (
        "NormingFunctionSpec",
        "PiSequence",
        "adjoint_defect",
        "adjoint_snf",
        "calculus_monotonicity_check",
        "duality_gap",
        "eval_snf",
        "lorentz",
        "lorentz_dual",
        "max_norm",
        "op_norm",
        "pi_regularity",
        "rank_sandwich_check",
        "schatten",
        "sum_norm",
    ),
    "states": (
        "DensityFunctional",
        "JordanPair",
        "centralizer_basis",
        "centralizer_block_check",
        "is_faithful",
        "jordan_decompose",
        "jordan_intersection_check",
        "support_equivariance_check",
        "support_projection",
    ),
    "orbits": (
        "LeafSignature",
        "characteristic_tangent",
        "isotropy_dimension",
        "kernel_range_split",
        "leaf_signature",
        "orbit_sample",
        "pinching",
        "same_leaf",
    ),
    "symplectic": (
        "PolarizationMask",
        "kaehler_check",
        "omega",
        "polarization",
        "projective_form_compare",
        "radical_check",
    ),
    "cross_section": (
        "CrossSectionResult",
        "ReferenceOperator",
        "build_reference",
        "continuity_modulus",
        "cross_section_phi",
        "generated_algebra_dimension",
        "minimal_polynomial",
        "neighborhood_check",
        "offdiag_bound_check",
        "well_definedness_check",
    ),
    "matrixio": ("emit_matrix", "parse_matrix", "write_matrix"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
