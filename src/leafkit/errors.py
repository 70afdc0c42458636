"""Exception hierarchy for leafkit.

Numerical precondition failures get their own classes so callers (and the
CLI exit-code logic) can tell "your input is outside the contract" apart
from ordinary usage errors.
"""


class LeafkitError(Exception):
    """Base class for all leafkit errors."""


class PreconditionError(LeafkitError):
    """Base class for inputs outside a numerical contract; the CLI exits 3
    on these."""


class ShapeError(LeafkitError):
    """Matrix has the wrong shape, or shapes are inconsistent."""


class SizeMismatch(PreconditionError):
    """Two operands do not have compatible dimensions."""


class NotHermitian(PreconditionError):
    """Symmetry residual of a would-be Hermitian matrix exceeds tolerance."""


class NotSkewHermitian(PreconditionError):
    """Anti-symmetry residual of a would-be skew-Hermitian matrix exceeds tolerance."""


class NotPositive(PreconditionError):
    """Matrix required to be positive semidefinite has a negative eigenvalue."""


class NotUnitary(PreconditionError):
    """Unitarity residual exceeds tolerance."""


class NotUnitVector(PreconditionError):
    """Vector required to have unit norm does not."""


class NotCommuting(PreconditionError):
    """Operator required to commute with the reference does not."""


class ClusterAmbiguity(PreconditionError):
    """Eigenvalue gaps straddle the clustering tolerance; grouping is ill-posed."""


class NearSingular(PreconditionError):
    """Smallest singular value is below the invertibility threshold."""


class CornerSingular(PreconditionError):
    """A spectral-block compression is too close to singular for the
    block-wise polar construction (the input is outside the cross-section
    neighborhood)."""


class SpectrumOutOfRange(PreconditionError):
    """Eigenvalues fall outside the interval the scalar function requires."""


class UnsupportedKind(LeafkitError):
    """The requested operation is not available for this norming-function kind."""


class RankTooHigh(PreconditionError):
    """Matrix rank exceeds the bound the inequality is stated for."""


class SingleCluster(PreconditionError):
    """The reference operator has only one eigenvalue cluster, so there are
    no off-diagonal spectral gaps to test."""


class ParseError(LeafkitError):
    """Matrix file is not valid (malformed JSON, bad field, or non-finite entry)."""
