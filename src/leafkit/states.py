"""Self-adjoint normal functionals on the full matrix algebra.

A functional phi(x) = Tr(rho x) is represented by its Hermitian density
rho.  This module provides the support projection, the Jordan split into
positive parts with orthogonal supports, faithfulness, and the centralizer
{a : a rho = rho a} together with the block-structure checks that describe
which unitaries fix phi under Ad(u)* conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotHermitian, NotPositive
from .opcore import (
    as_matrix,
    clustered_eigh,
    default_cluster_tol,
    hermitian_defect,
    is_hermitian,
    require_unitary,
    spectral_norm,
)

SUPPORT_REL_TOL = 1e-10
COMMUTATOR_TOL = 1e-9


@dataclass(frozen=True)
class DensityFunctional:
    """Self-adjoint functional x -> Tr(rho x), carried by its density."""

    rho: np.ndarray = field(repr=False)
    herm_tol: float = 1e-10

    def __post_init__(self):
        m = as_matrix(self.rho, "rho")
        if not is_hermitian(m, self.herm_tol):
            raise NotHermitian(f"density defect {hermitian_defect(m):.3e} exceeds herm_tol")
        object.__setattr__(self, "rho", 0.5 * (m + m.conj().T))

    @property
    def size(self) -> int:
        return self.rho.shape[0]

    def value(self, x) -> complex:
        return complex(np.trace(self.rho @ as_matrix(x, "x")))


@dataclass(frozen=True)
class JordanPair:
    """rho = positive_part - negative_part with PSD parts whose support
    projections are orthogonal."""

    positive_part: np.ndarray = field(repr=False)
    negative_part: np.ndarray = field(repr=False)
    support_pos: np.ndarray = field(repr=False)
    support_neg: np.ndarray = field(repr=False)


def _psd_eigensystem(phi: DensityFunctional) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(phi.rho)
    floor = -SUPPORT_REL_TOL * max(1.0, spectral_norm(phi.rho))
    if len(w) and w[0] < floor:
        raise NotPositive(f"density has eigenvalue {w[0]:.3e} < 0")
    return w, v


def support_projection(phi: DensityFunctional) -> np.ndarray:
    """Orthogonal projection onto the range of a PSD density: the smallest
    projection p with Tr(rho x) = Tr(rho p x p) for every x."""
    w, v = _psd_eigensystem(phi)
    thr = SUPPORT_REL_TOL * spectral_norm(phi.rho)
    cols = v[:, w > thr]
    return cols @ cols.conj().T


def jordan_decompose(phi: DensityFunctional) -> JordanPair:
    """Split the density into its positive and negative spectral parts.

    Among all decompositions rho = rho1 - rho2 with both parts PSD, the
    spectral split is the unique one whose supports are orthogonal.
    """
    w, v = np.linalg.eigh(phi.rho)
    pos_cols = v[:, w > 0]
    neg_cols = v[:, w < 0]
    pos = (pos_cols * w[w > 0]) @ pos_cols.conj().T
    neg = (neg_cols * (-w[w < 0])) @ neg_cols.conj().T
    return JordanPair(
        positive_part=0.5 * (pos + pos.conj().T),
        negative_part=0.5 * (neg + neg.conj().T),
        support_pos=pos_cols @ pos_cols.conj().T,
        support_neg=neg_cols @ neg_cols.conj().T,
    )


def is_faithful(phi: DensityFunctional, tol: float) -> bool:
    """True iff the PSD density is bounded below by tol, i.e. the support
    projection is the identity."""
    w, _ = _psd_eigensystem(phi)
    return bool(len(w) and w[0] > tol)


def centralizer_basis(phi: DensityFunctional, cluster_tol: float | None = None) -> list[np.ndarray]:
    """Basis of the commutant {a : a rho = rho a}.

    In the eigenbasis of rho the commutant consists of the block-diagonal
    matrices along eigenvalue clusters, so the basis is the set of matrix
    units within each block, mapped back; its complex dimension is the sum
    of the squared multiplicities.
    """
    if cluster_tol is None:
        cluster_tol = default_cluster_tol(phi.rho)
    _, v, groups = clustered_eigh(phi.rho, cluster_tol)
    basis = []
    for g in groups:
        cols = v[:, g]
        for a in range(len(g)):
            for b in range(len(g)):
                basis.append(np.outer(cols[:, a], cols[:, b].conj()))
    return basis


@dataclass(frozen=True)
class CentralizerBlockCheck:
    in_centralizer: bool
    commutes_with_support: bool
    corner_in_corner_centralizer: bool


def centralizer_block_check(phi: DensityFunctional, u) -> CentralizerBlockCheck:
    """Block structure of centralizer unitaries over a PSD density.

    A unitary commutes with rho iff it commutes with the support
    projection p and its compression to the support subspace commutes
    with the (faithful) restriction of rho there; off the support it is
    unconstrained.
    """
    um = require_unitary(u, name="u")
    w, v = _psd_eigensystem(phi)
    thr = SUPPORT_REL_TOL * spectral_norm(phi.rho)
    cols = v[:, w > thr]
    p = cols @ cols.conj().T

    in_centralizer = spectral_norm(um @ phi.rho - phi.rho @ um) <= COMMUTATOR_TOL
    commutes_with_support = spectral_norm(um @ p - p @ um) <= COMMUTATOR_TOL

    u_corner = cols.conj().T @ um @ cols
    rho_corner = cols.conj().T @ phi.rho @ cols
    r = u_corner.shape[0]
    corner_unitary = spectral_norm(u_corner.conj().T @ u_corner - np.eye(r)) <= COMMUTATOR_TOL
    corner_commutes = spectral_norm(u_corner @ rho_corner - rho_corner @ u_corner) <= COMMUTATOR_TOL
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
    booleans at the 1e-9 threshold."""
    um = require_unitary(u, name="u")
    pair = jordan_decompose(phi)

    def fixes(mat: np.ndarray) -> bool:
        return spectral_norm(um.conj().T @ mat @ um - mat) <= COMMUTATOR_TOL

    return JordanIntersectionCheck(
        fixes_phi=fixes(phi.rho),
        fixes_pos=fixes(pair.positive_part),
        fixes_neg=fixes(pair.negative_part),
    )


def support_equivariance_check(phi: DensityFunctional, u) -> float:
    """Residual of s(Ad(u)* phi) = u^{-1} s(phi) u for a PSD density:
    the support of the conjugated density against the conjugated support."""
    um = require_unitary(u, name="u")
    conj = DensityFunctional(um.conj().T @ phi.rho @ um, herm_tol=max(phi.herm_tol, 1e-9))
    lhs = support_projection(conj)
    rhs = um.conj().T @ support_projection(phi) @ um
    return spectral_norm(lhs - rhs)
