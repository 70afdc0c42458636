"""Local cross-section of the unitary orbit map through a Hermitian
reference operator.

Given T with spectral projections E_1, ..., E_p, a unitary V close enough
to commuting with T has invertible block compressions E_i V E_i.  Polar
decomposing each block, E_i V E_i = X_i Q_i, the block-diagonal unitary
psi(V) = sum_i X_i* commutes with T, and phi = psi(V) V conjugates T to
V* T V while depending only on the orbit point V* T V, not on V itself.
The map V* T V -> phi is therefore a continuous local section of the
orbit map, canonical up to nothing: it is exactly reproduced when applied
to its own output.

Interpolation polynomials e_i with e_i(lambda_j) = delta_ij express the
projections as e_i(T) and give a computable neighborhood criterion
max_i ||e_i(R) - e_i(T)|| < 1 for the construction to apply at R.

The cross-section, delta, the off-diagonal bound and the on-orbit
neighborhood criterion are computed on the orthonormal bases B_i
(n x m_i) of the eigenspaces, E_i = B_i B_i*.  The n x n projections are
still built, for SpectralData and the off-orbit neighborhood criterion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.polynomial import Polynomial

from .errors import CornerSingular, NotCommuting, SingleCluster
from .opcore import (
    SpectralData,
    clustered_eigh,
    default_cluster_tol,
    defect_exceeds,
    require_hermitian,
    require_same_size,
    require_unitary,
    spectral_norm,
)
from .norming import NormingFunctionSpec, op_norm

CORNER_TOL = 1e-8


@dataclass(frozen=True)
class ReferenceOperator:
    """Hermitian reference with clustered spectral data and orthonormal
    bases of the eigenspaces; interp_scalar evaluates the Lagrange
    interpolation polynomials of its distinct eigenvalues."""

    T: np.ndarray = field(repr=False)
    spectral: SpectralData
    block_bases: list[np.ndarray] = field(repr=False)

    @property
    def size(self) -> int:
        return self.T.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectral.eigenvalues

    def interp_scalar(self, i: int, x) -> np.ndarray:
        """Evaluate e_i at scalars by the Lagrange product form (stable
        for the handful of nodes that occur at matrix scale)."""
        nodes = self.eigenvalues
        x = np.asarray(x, dtype=float)
        out = np.ones_like(x)
        for j, lam in enumerate(nodes):
            if j == i:
                continue
            out = out * (x - lam) / (nodes[i] - lam)
        return out

    def interp_on_hermitian(self, i: int, eig: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """e_i(R) for Hermitian R with eigensystem eig = (w, U), evaluated
        eigenvalue-wise."""
        w, v = eig
        return (v * self.interp_scalar(i, w)) @ v.conj().T


@dataclass(frozen=True)
class CrossSectionResult:
    """Output of the block-polar construction at a unitary V."""

    phi: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)
    delta: np.ndarray = field(repr=False)
    corner_min_sv: float
    residual: float


def build_reference(t, cluster_tol: float | None = None) -> ReferenceOperator:
    """Clustered spectral data and eigenspace bases of a Hermitian
    reference; e_i(T) reproduces the projection E_i."""
    tm = require_hermitian(t, name="T")
    if cluster_tol is None:
        cluster_tol = default_cluster_tol(tm)
    w, v, groups = clustered_eigh(tm, cluster_tol)
    reps = np.array([w[g].mean() for g in groups])
    mults = np.array([len(g) for g in groups], dtype=int)
    bases = [np.ascontiguousarray(v[:, g]) for g in groups]
    projections = [b @ b.conj().T for b in bases]
    spectral = SpectralData(reps, mults, projections, float(cluster_tol))
    return ReferenceOperator(T=tm, spectral=spectral, block_bases=bases)


@dataclass(frozen=True)
class NeighborhoodCheck:
    max_dev: float
    inside: bool


def neighborhood_check(ref: ReferenceOperator, r) -> NeighborhoodCheck:
    """Deviation max_i ||e_i(R) - e_i(T)|| and whether it is below 1, the
    criterion for R to lie in the cross-section neighborhood.

    One eigendecomposition R = U diag(w) U* serves every cluster.  When
    each eigenvalue lies within the reference's cluster tolerance of a
    node (as on the orbit of T), e_i(R) is the spectral projection
    U_i U_i* of R for the eigenvalues at lambda_i, and its distance to
    E_i = B_i B_i* is the sine of the largest principal angle,
    ||U_i - B_i B_i* U_i||, or 1 when the ranks differ.  Otherwise the
    Lagrange products are evaluated at w and compared densely.
    """
    rm = require_hermitian(r, name="R")
    require_same_size(ref.T, rm)
    w, u = np.linalg.eigh(rm)
    # the tolerance windows of distinct nodes are disjoint: cluster_indices
    # leaves gaps above twice the tolerance between clusters
    near = np.abs(w[None, :] - ref.eigenvalues[:, None]) <= ref.spectral.cluster_tol
    if np.all(near.any(axis=0)):
        dev = 0.0
        for b, at_node in zip(ref.block_bases, near):
            ui = u[:, at_node]
            if ui.shape[1] != b.shape[1]:
                dev = max(dev, 1.0)
            else:
                dev = max(dev, spectral_norm(ui - b @ (b.conj().T @ ui)))
    else:
        dev = max(
            spectral_norm(ref.interp_on_hermitian(i, (w, u)) - e)
            for i, e in enumerate(ref.spectral.projections)
        )
    return NeighborhoodCheck(max_dev=dev, inside=dev < 1.0)


def delta_map(ref: ReferenceOperator, v) -> np.ndarray:
    """Block-diagonal compression sum_i E_i V E_i of a unitary along the
    spectral blocks of the reference."""
    vm = require_unitary(v, name="V")
    require_same_size(ref.T, vm)
    out = np.zeros_like(vm)
    for b in ref.block_bases:
        out += b @ (b.conj().T @ vm @ b) @ b.conj().T
    return out


def _block_polars(ref: ReferenceOperator, vm: np.ndarray, corner_tol: float):
    """Per-block polar factors of the compressions, plus the smallest
    corner singular value; raises CornerSingular outside the neighborhood."""
    factors = []
    min_sv = np.inf
    for b in ref.block_bases:
        m = b.conj().T @ vm @ b
        u, s, wh = np.linalg.svd(m)
        min_sv = min(min_sv, float(s[-1]))
        if s[-1] <= corner_tol:
            raise CornerSingular(
                f"spectral-block compression has smallest singular value {s[-1]:.3e}"
            )
        x = u @ wh
        q = wh.conj().T @ np.diag(s) @ wh
        factors.append((b, x, q))
    return factors, min_sv


def psi_map(ref: ReferenceOperator, v, corner_tol: float = CORNER_TOL) -> np.ndarray:
    """Block-diagonal unitary psi(V) = sum_i X_i* built from the polar
    factors E_i V E_i = X_i Q_i; psi(V) commutes with the reference and
    psi(V)* (sum_i Q_i) is the polar decomposition of the compression
    delta(V)."""
    vm = require_unitary(v, name="V")
    require_same_size(ref.T, vm)
    factors, _ = _block_polars(ref, vm, corner_tol)
    psi = np.zeros_like(vm)
    for b, x, _ in factors:
        psi += b @ x.conj().T @ b.conj().T
    return psi


def cross_section_phi(ref: ReferenceOperator, v, corner_tol: float = CORNER_TOL) -> CrossSectionResult:
    """Canonical unitary phi = psi(V) V with phi* T phi = V* T V.

    phi depends only on the orbit point V* T V: multiplying V on the left
    by any unitary commuting with T leaves phi unchanged.
    """
    vm = require_unitary(v, name="V")
    require_same_size(ref.T, vm)
    factors, min_sv = _block_polars(ref, vm, corner_tol)
    psi = np.zeros_like(vm)
    delta = np.zeros_like(vm)
    for b, x, q in factors:
        psi += b @ x.conj().T @ b.conj().T
        delta += b @ (x @ q) @ b.conj().T
    phi = psi @ vm
    residual = spectral_norm(phi.conj().T @ ref.T @ phi - vm.conj().T @ ref.T @ vm)
    return CrossSectionResult(
        phi=phi, psi=psi, delta=delta, corner_min_sv=min_sv, residual=residual
    )


def well_definedness_check(ref: ReferenceOperator, v, g) -> float:
    """||phi(GV) - phi(V)|| for a unitary G commuting with the reference;
    both products represent the same orbit point, so the deviation is
    roundoff only."""
    vm = require_unitary(v, name="V")
    gm = require_unitary(g, name="V")
    require_same_size(vm, gm)
    comm = gm @ ref.T - ref.T @ gm
    if defect_exceeds(comm, 1e-10, ref.T):
        residual = spectral_norm(comm)
        raise NotCommuting(f"G does not commute with the reference (residual {residual:.3e})")
    phi_v = cross_section_phi(ref, vm).phi
    phi_gv = cross_section_phi(ref, gm @ vm).phi
    return spectral_norm(phi_gv - phi_v)


@dataclass(frozen=True)
class ContinuityRecord:
    op_dist: float
    phi_dist: float


def continuity_modulus(
    ref: ReferenceOperator,
    phi_norm: NormingFunctionSpec,
    v_sequence: Sequence,
) -> list[ContinuityRecord]:
    """Distances along a sequence of unitaries whose conjugates approach
    the reference: op_dist = ||V* T V - T|| against
    phi_dist = ||phi(V* T V) - 1|| in the ideal norm.  phi_dist goes to
    zero together with op_dist."""
    records = []
    n = ref.size
    eye = np.eye(n)
    for v in v_sequence:
        vm = require_unitary(v, name="V")
        op_dist = spectral_norm(vm.conj().T @ ref.T @ vm - ref.T)
        phi = cross_section_phi(ref, vm).phi
        records.append(
            ContinuityRecord(op_dist=op_dist, phi_dist=op_norm(phi_norm, phi - eye))
        )
    return records


@dataclass(frozen=True)
class OffdiagBound:
    max_violation: float


def offdiag_bound_check(ref: ReferenceOperator, phi_norm: NormingFunctionSpec, w) -> OffdiagBound:
    """Spectral-gap-weighted bound on off-diagonal compressions:
    ||E_i W E_j||_phi |lambda_i - lambda_j| <= ||TW - WT||_phi for i != j.
    Returns the largest left-minus-right difference over the pairs.

    E_i W E_j = B_i (B_i* W B_j) B_j* has the nonzero singular values of
    its m_i x m_j core B_i* W B_j, so each norm is taken on the core."""
    wm = require_unitary(w, name="V")
    require_same_size(ref.T, wm)
    lams = ref.eigenvalues
    if len(lams) < 2:
        raise SingleCluster("the reference has a single eigenvalue cluster")
    comm_norm = op_norm(phi_norm, ref.T @ wm - wm @ ref.T)
    frame = np.hstack(ref.block_bases)
    cores = frame.conj().T @ wm @ frame
    edges = np.cumsum([0, *ref.spectral.multiplicities])
    blocks = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
    worst = -np.inf
    for i in range(len(lams)):
        for j in range(len(lams)):
            if i == j:
                continue
            lhs = op_norm(phi_norm, cores[blocks[i], blocks[j]]) * abs(lams[i] - lams[j])
            worst = max(worst, lhs - comm_norm)
    return OffdiagBound(max_violation=float(worst))


def minimal_polynomial(t, tol: float | None = None) -> Polynomial:
    """Monic polynomial whose roots are the distinct eigenvalue clusters
    of a Hermitian matrix; it annihilates the matrix up to
    tol (1 + ||T||)^degree."""
    tm = require_hermitian(t, name="T")
    if tol is None:
        tol = default_cluster_tol(tm)
    w, _, groups = clustered_eigh(tm, tol)
    reps = [w[g].mean() for g in groups]
    return Polynomial.fromroots(reps) if reps else Polynomial([0.0, 1.0])


def generated_algebra_dimension(t, tol: float | None = None) -> int:
    """Complex dimension of the (non-unital) *-algebra generated by a
    Hermitian matrix: the number of distinct nonzero eigenvalue clusters,
    i.e. of independent nonzero spectral projections."""
    tm = require_hermitian(t, name="T")
    if tol is None:
        tol = default_cluster_tol(tm)
    w, _, groups = clustered_eigh(tm, tol)
    reps = np.array([w[g].mean() for g in groups])
    return int(np.count_nonzero(np.abs(reps) > max(tol, 0.0)))
