"""leafkit: numerical operator theory at matrix scale.

Ideal norms from symmetric norming functions, density-matrix state
decompositions, coadjoint-orbit symplectic geometry, and the explicit
local cross-section of the unitary orbit map through a Hermitian
reference operator.
"""

from .errors import (
    ClusterAmbiguity,
    CornerSingular,
    LeafkitError,
    NearSingular,
    NotCommuting,
    NotHermitian,
    NotPositive,
    NotSkewHermitian,
    NotUnitary,
    NotUnitVector,
    ParseError,
    PreconditionError,
    RankTooHigh,
    ShapeError,
    SingleCluster,
    SizeMismatch,
    SpectrumOutOfRange,
    UnsupportedKind,
)
from .opcore import (
    PolarFactors,
    SpectralData,
    function_calculus,
    matrix_exp,
    polar_decompose,
    singular_values,
    spectral_decompose,
)
from .norming import (
    NormingFunctionSpec,
    PiSequence,
    adjoint_defect,
    adjoint_snf,
    calculus_monotonicity_check,
    duality_gap,
    eval_snf,
    lorentz,
    lorentz_dual,
    max_norm,
    op_norm,
    pi_regularity,
    rank_sandwich_check,
    schatten,
    sum_norm,
)
from .states import (
    DensityFunctional,
    JordanPair,
    centralizer_basis,
    centralizer_block_check,
    is_faithful,
    jordan_decompose,
    jordan_intersection_check,
    support_equivariance_check,
    support_projection,
)
from .orbits import (
    LeafSignature,
    characteristic_tangent,
    isotropy_dimension,
    kernel_range_split,
    leaf_signature,
    orbit_sample,
    pinching,
    same_leaf,
)
from .symplectic import (
    PolarizationMask,
    kaehler_check,
    omega,
    polarization,
    projective_form_compare,
    radical_check,
)
from .cross_section import (
    CrossSectionResult,
    ReferenceOperator,
    build_reference,
    continuity_modulus,
    cross_section_phi,
    delta_map,
    generated_algebra_dimension,
    minimal_polynomial,
    neighborhood_check,
    offdiag_bound_check,
    psi_map,
    well_definedness_check,
)
from .matrixio import emit_matrix, parse_matrix, write_matrix

__version__ = "0.1.0"
