"""Self-adjoint normal functionals on the full matrix algebra.

A functional phi(x) = Tr(rho x) is represented by its Hermitian density
rho.  This module provides the support projection, the Jordan split into
positive parts with orthogonal supports, faithfulness, and the centralizer
{a : a rho = rho a} together with the block-structure checks that describe
which unitaries fix phi under Ad(u)* conjugation.

All of them read one eigensystem per density, which DensityFunctional
takes once, on first use; ||rho|| is its largest |eigenvalue|.  Only the
centralizer basis clusters the eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NotPositive
from .opcore import (
    FrameUnits,
    SpectralData,
    defect_exceeds,
    is_unitary,
    require_hermitian,
    require_unitary,
    spectral_norm,
)

SUPPORT_REL_TOL = 1e-10
COMMUTATOR_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DensityFunctional:
    """Self-adjoint functional x -> Tr(rho x), carried by its density."""

    rho: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rho", require_hermitian(self.rho, name="rho"))

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvector columns of rho, shared by all callers."""
        return np.linalg.eigh(self.rho)

    @property
    def norm(self) -> float:
        """||rho||, the largest |eigenvalue|."""
        return float(np.abs(self.eigensystem[0]).max(initial=0.0))


@dataclass(frozen=True, eq=False)
class JordanPair:
    """rho = positive_part - negative_part with PSD parts whose support
    projections are orthogonal."""

    positive_part: np.ndarray = field(repr=False)
    negative_part: np.ndarray = field(repr=False)
    support_pos: np.ndarray = field(repr=False)
    support_neg: np.ndarray = field(repr=False)


def _psd_eigensystem(phi: DensityFunctional) -> tuple[np.ndarray, np.ndarray]:
    w, v = phi.eigensystem
    if len(w) and w[0] < -SUPPORT_REL_TOL * max(1.0, phi.norm):
        raise NotPositive(f"density has eigenvalue {w[0]:.3e} < 0")
    return w, v


def _support_columns(phi: DensityFunctional) -> np.ndarray:
    """Orthonormal eigenvector columns spanning the range of a PSD density."""
    w, v = _psd_eigensystem(phi)
    return v[:, w > SUPPORT_REL_TOL * phi.norm]


def support_projection(phi: DensityFunctional) -> np.ndarray:
    """Orthogonal projection onto the range of a PSD density: the smallest
    projection p with Tr(rho x) = Tr(rho p x p) for every x."""
    cols = _support_columns(phi)
    return cols @ cols.conj().T


def jordan_decompose(phi: DensityFunctional) -> JordanPair:
    """Split the density into its positive and negative spectral parts.

    Among all decompositions rho = rho1 - rho2 with both parts PSD, the
    spectral split is the unique one whose supports are orthogonal.  The
    parts keep every eigenvalue of their sign; the supports leave out
    those within SUPPORT_REL_TOL ||rho|| of 0, the roundoff of a kernel.
    """
    w, v = phi.eigensystem
    cut = SUPPORT_REL_TOL * phi.norm

    def split(sign: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cols = v[:, sign]
        part = (cols * np.abs(w[sign])) @ cols.conj().T
        if not np.array_equal(keep, sign):
            cols = v[:, keep]
        return 0.5 * (part + part.conj().T), cols @ cols.conj().T

    positive_part, support_pos = split(w > 0, w > cut)
    negative_part, support_neg = split(w < 0, w < -cut)
    return JordanPair(positive_part, negative_part, support_pos, support_neg)


def is_faithful(phi: DensityFunctional, tol: float) -> bool:
    """True iff the PSD density is bounded below by tol, i.e. the support
    projection is the identity."""
    w, _ = _psd_eigensystem(phi)
    return bool(len(w) and w[0] > tol)


def centralizer_basis(phi: DensityFunctional) -> FrameUnits:
    """Basis of the commutant {a : a rho = rho a}.

    In the eigenbasis of rho the commutant consists of the block-diagonal
    matrices along eigenvalue clusters, so the basis is the set of matrix
    units within each block, mapped back; its complex dimension is the sum
    of the squared multiplicities.  The units form a read-only sequence
    over the eigenframe, each built on access.
    """
    sd = SpectralData.from_eigh(*phi.eigensystem)
    return FrameUnits(sd.frame, [(b, b) for b in sd.blocks], skew=False)


@dataclass(frozen=True)
class CentralizerBlockCheck:
    in_centralizer: bool
    commutes_with_support: bool
    corner_in_corner_centralizer: bool


def centralizer_block_check(phi: DensityFunctional, u) -> CentralizerBlockCheck:
    """Block structure of centralizer unitaries over a PSD density.

    A unitary commutes with rho iff it commutes with the support projection p
    and its compression to the support subspace commutes with the (faithful)
    restriction of rho there; off the support it is unconstrained.  Commutators
    with rho are held to COMMUTATOR_TOL max(1, ||rho||), with p to COMMUTATOR_TOL.
    """
    um = require_unitary(u, name="u")
    cols = _support_columns(phi)
    p = cols @ cols.conj().T
    tol = COMMUTATOR_TOL * max(1.0, phi.norm)

    in_centralizer = not defect_exceeds(um @ phi.rho - phi.rho @ um, tol)
    commutes_with_support = not defect_exceeds(um @ p - p @ um, COMMUTATOR_TOL)

    u_corner = cols.conj().T @ um @ cols
    rho_corner = cols.conj().T @ phi.rho @ cols
    corner_unitary = is_unitary(u_corner)
    corner_commutes = not defect_exceeds(u_corner @ rho_corner - rho_corner @ u_corner, tol)
    return CentralizerBlockCheck(
        in_centralizer=in_centralizer,
        commutes_with_support=commutes_with_support,
        corner_in_corner_centralizer=corner_unitary and corner_commutes,
    )


@dataclass(frozen=True)
class JordanIntersectionCheck:
    fixes_phi: bool
    fixes_pos: bool
    fixes_neg: bool


def jordan_intersection_check(phi: DensityFunctional, u) -> JordanIntersectionCheck:
    """A unitary fixes phi under conjugation iff it fixes both pieces of
    the Jordan split; the three conjugation residuals are reported as
    booleans at the threshold COMMUTATOR_TOL max(1, ||rho||)."""
    um = require_unitary(u, name="u")
    pair = jordan_decompose(phi)
    tol = COMMUTATOR_TOL * max(1.0, phi.norm)

    def fixes(mat: np.ndarray) -> bool:
        return not defect_exceeds(um.conj().T @ mat @ um - mat, tol)

    return JordanIntersectionCheck(
        fixes_phi=fixes(phi.rho),
        fixes_pos=fixes(pair.positive_part),
        fixes_neg=fixes(pair.negative_part),
    )


def support_equivariance_check(phi: DensityFunctional, u) -> float:
    """Residual of s(Ad(u)* phi) = u^{-1} s(phi) u for a PSD density:
    the support of the conjugated density against the conjugated support."""
    um = require_unitary(u, name="u")
    conj = DensityFunctional(um.conj().T @ phi.rho @ um)
    lhs = support_projection(conj)
    rhs = um.conj().T @ support_projection(phi) @ um
    return spectral_norm(lhs - rhs)
