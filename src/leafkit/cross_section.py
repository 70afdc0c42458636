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

The cross-section, the off-diagonal bound and the on-orbit
neighborhood criterion work on the orthonormal eigenspace bases B_i
(n x m_i) of the reference's eigenframe F = [B_1 ... B_p], E_i = B_i B_i*.
Only the off-orbit neighborhood criterion forms the n x n projections.
In the frame, every corner B_i* V B_i is a diagonal block of F* V F, so
psi(V) = F blockdiag(X_1*, ..., X_p*) F* and phi = psi(V) V take one
product G = F* V per unitary: the corner i is G[b_i] B_i, Y = F
blockdiag(X_i*), psi = Y F* and phi = Y G.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.polynomial import Polynomial

from .errors import CornerSingular, NotCommuting, SingleCluster
from .opcore import (
    CORNER_TOL,
    SpectralData,
    defect_exceeds,
    hermitian_norm,
    require_hermitian,
    require_same_size,
    require_unitary,
    spectral_norm,
)
from .norming import NormingFunctionSpec, eval_snf_many, op_norm


@dataclass(frozen=True, eq=False)
class ReferenceOperator:
    """Hermitian reference with its clustered eigenframe; interp_scalar
    evaluates the Lagrange interpolation polynomials of its distinct
    eigenvalues."""

    T: np.ndarray = field(repr=False)
    spectral: SpectralData

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


@dataclass(frozen=True, eq=False)
class CrossSectionResult:
    """Output of the block-polar construction at a unitary V."""

    phi: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)
    corner_min_sv: float
    residual: float


def build_reference(t) -> ReferenceOperator:
    """Clustered eigenframe of a Hermitian reference; e_i(T) reproduces
    the projection E_i."""
    tm = require_hermitian(t, name="T")
    return ReferenceOperator(T=tm, spectral=SpectralData.from_hermitian(tm))


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
        for b, at_node in zip(ref.spectral.bases, near):
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


def _section(ref: ReferenceOperator, vm: np.ndarray, corner_tol: float = CORNER_TOL):
    """(Y, G, min_sv) with G = F* V, Y = F blockdiag(X_i*) from the polar
    factors X_i of the corners B_i* V B_i, and the smallest corner
    singular value, so that psi(V) = Y F* and phi = psi(V) V = Y G.  The
    corners of one width share one stacked SVD.  Raises CornerSingular,
    for the first cluster whose corner is singular, outside the
    neighborhood.  V is not validated."""
    f = ref.spectral.frame
    g = f.conj().T @ vm
    y = np.empty_like(g)
    blocks = ref.spectral.blocks
    by_width: dict[int, list[int]] = {}
    for i, m in enumerate(ref.spectral.multiplicities):
        by_width.setdefault(int(m), []).append(i)
    smallest = np.empty(len(blocks))
    for idx in by_width.values():
        u, s, wh = np.linalg.svd(np.stack([g[blocks[i]] @ f[:, blocks[i]] for i in idx]))
        smallest[idx] = s[:, -1]
        for i, x_adj in zip(idx, (u @ wh).conj().transpose(0, 2, 1)):
            y[:, blocks[i]] = f[:, blocks[i]] @ x_adj
    singular = np.flatnonzero(smallest <= corner_tol)
    if len(singular):
        raise CornerSingular(
            f"spectral-block compression has smallest singular value {smallest[singular[0]]:.3e}"
        )
    return y, g, float(smallest.min(initial=np.inf))


def cross_section_phi(ref: ReferenceOperator, v, corner_tol: float = CORNER_TOL) -> CrossSectionResult:
    """Canonical unitary phi = psi(V) V with phi* T phi = V* T V.

    phi depends only on the orbit point V* T V: multiplying V on the left
    by any unitary commuting with T leaves phi unchanged.
    """
    vm = require_unitary(v, name="V")
    require_same_size(ref.T, vm)
    y, g, min_sv = _section(ref, vm, corner_tol)
    psi = y @ ref.spectral.frame.conj().T
    phi = y @ g
    residual = hermitian_norm(phi.conj().T @ ref.T @ phi - vm.conj().T @ ref.T @ vm)
    return CrossSectionResult(phi=phi, psi=psi, corner_min_sv=min_sv, residual=residual)


def _phi(ref: ReferenceOperator, vm: np.ndarray) -> np.ndarray:
    """phi = Y G of _section, without forming psi."""
    y, g, _ = _section(ref, vm)
    return y @ g


def well_definedness_check(ref: ReferenceOperator, v, g) -> float:
    """||phi(GV) - phi(V)|| for a unitary G commuting with the reference;
    both products represent the same orbit point, so the deviation is
    roundoff only."""
    vm = require_unitary(v, name="V")
    require_same_size(ref.T, vm)
    gm = require_unitary(g, name="G")
    require_same_size(vm, gm)
    comm = gm @ ref.T - ref.T @ gm
    if defect_exceeds(comm, 1e-10, ref.T):
        residual = spectral_norm(comm)
        raise NotCommuting(f"G does not commute with the reference (residual {residual:.3e})")
    phi_v = _phi(ref, vm)
    return spectral_norm(_phi(ref, gm @ vm) - phi_v)


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
        require_same_size(ref.T, vm)
        op_dist = hermitian_norm(vm.conj().T @ ref.T @ vm - ref.T)
        phi = _phi(ref, vm)
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
    its m_i x m_j core B_i* W B_j, so each norm is taken on the core; the
    cores of one shape share one stacked SVD and one evaluation of phi."""
    wm = require_unitary(w, name="W")
    require_same_size(ref.T, wm)
    lams = ref.eigenvalues
    if len(lams) < 2:
        raise SingleCluster("the reference has a single eigenvalue cluster")
    comm_norm = op_norm(phi_norm, ref.T @ wm - wm @ ref.T)
    frame = ref.spectral.frame
    cores = frame.conj().T @ wm @ frame
    blocks = ref.spectral.blocks
    mults = ref.spectral.multiplicities
    by_shape: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i in range(len(lams)):
        for j in range(len(lams)):
            if i != j:
                by_shape.setdefault((int(mults[i]), int(mults[j])), []).append((i, j))
    worst = -np.inf
    for pairs in by_shape.values():
        sv = np.linalg.svd(np.stack([cores[blocks[i], blocks[j]] for i, j in pairs]), compute_uv=False)
        i, j = np.array(pairs).T
        lhs = eval_snf_many(phi_norm, sv) * np.abs(lams[i] - lams[j])
        worst = max(worst, float(lhs.max()) - comm_norm)
    return OffdiagBound(max_violation=float(worst))


def minimal_polynomial(t, tol: float | None = None) -> Polynomial:
    """Monic polynomial whose roots are the distinct eigenvalue clusters
    of a Hermitian matrix; it annihilates the matrix up to
    tol (1 + ||T||)^degree, tol the cluster tolerance applied."""
    return cluster_polynomial(SpectralData.from_hermitian(require_hermitian(t, name="T"), tol))


def cluster_polynomial(sd: SpectralData) -> Polynomial:
    """Monic polynomial whose roots are the cluster means of sd."""
    reps = sd.eigenvalues
    return Polynomial.fromroots(reps) if len(reps) else Polynomial([0.0, 1.0])


def generated_algebra_dimension(t, tol: float | None = None) -> int:
    """Complex dimension of the (non-unital) *-algebra generated by a
    Hermitian matrix: the number of distinct nonzero eigenvalue clusters,
    i.e. of independent nonzero spectral projections."""
    sd = SpectralData.from_hermitian(require_hermitian(t, name="T"), tol)
    return int(np.count_nonzero(np.abs(sd.eigenvalues) > sd.cluster_tol))
