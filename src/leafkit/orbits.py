"""Coadjoint orbits of the unitary group at matrix scale.

A unitary orbit {V* T V} is an isospectral set; its complete invariant is
the eigenvalue multiset.  This module provides tangent vectors
(commutators), orbit sampling, the pinching projector onto the commutant
along the spectral blocks of the reference, and the induced splitting of
the skew-Hermitian matrices into kernel and range of ad T.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotHermitian
from .opcore import (
    as_matrix,
    clustered_eigh,
    default_cluster_tol,
    is_hermitian,
    is_skew_hermitian,
    matrix_exp,
    random_skew_hermitian,
    require_hermitian,
    require_same_size,
    require_skew_hermitian,
    require_square,
)

SPLIT_SEED = 1618


def normal_eigensystem(t, cluster_tol: float | None = None) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Clustered eigensystem of a Hermitian or skew-Hermitian matrix.

    Skew-Hermitian input is rotated to its Hermitian companion -iT, so the
    returned eigenvalues are the real numbers theta with spectrum
    {i theta} in the skew case and {theta} in the Hermitian case.
    """
    m = require_square(t)
    if is_hermitian(m):
        h = 0.5 * (m + m.conj().T)
    elif is_skew_hermitian(m):
        h = -1j * m
        h = 0.5 * (h + h.conj().T)
    else:
        raise NotHermitian("expected a Hermitian or skew-Hermitian matrix")
    if cluster_tol is None:
        cluster_tol = default_cluster_tol(h)
    return clustered_eigh(h, cluster_tol)


def characteristic_tangent(rho, a) -> np.ndarray:
    """Tangent vector [a, rho] to the orbit through a Hermitian rho in the
    direction of a skew-Hermitian a; the result is Hermitian."""
    rm = require_hermitian(rho, name="rho")
    am = require_skew_hermitian(a, name="a")
    require_same_size(rm, am)
    c = am @ rm - rm @ am
    return 0.5 * (c + c.conj().T)


@dataclass(frozen=True)
class LeafSignature:
    """Eigenvalue multiset (ascending cluster representatives with
    multiplicities) identifying an orbit."""

    eigenvalues: tuple[float, ...]
    multiplicities: tuple[int, ...]
    tol: float


def leaf_signature(rho, tol: float) -> LeafSignature:
    w, _, groups = normal_eigensystem(rho, tol)
    return LeafSignature(
        eigenvalues=tuple(float(w[g].mean()) for g in groups),
        multiplicities=tuple(len(g) for g in groups),
        tol=float(tol),
    )


def same_leaf(rho1, rho2, tol: float) -> bool:
    """True iff the two matrices are unitarily equivalent up to tol:
    sorted eigenvalues agree pairwise within tol."""
    w1, _, _ = normal_eigensystem(rho1, 0.0)
    w2, _, _ = normal_eigensystem(rho2, 0.0)
    if len(w1) != len(w2):
        return False
    return bool(np.all(np.abs(w1 - w2) <= tol))


def orbit_sample(t, count: int, scale: float, seed: int) -> list[np.ndarray]:
    """Conjugates V_k* T V_k for V_k = exp(scale * random skew), drawn
    deterministically from the seed."""
    tm = require_square(t)
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    n = tm.shape[0]
    out = []
    for _ in range(count):
        v = matrix_exp(scale * random_skew_hermitian(n, rng))
        out.append(v.conj().T @ tm @ v)
    return out


def pinching(t, s, cluster_tol: float | None = None) -> np.ndarray:
    """Block-diagonal compression sum_i E_i S E_i along the spectral
    projections of T.

    This is the exact value of the invariant-mean average of
    exp(-aT) S exp(aT) over a: in the eigenbasis the (i,j) block picks up
    the oscillation exp(a(mu_j - mu_i)), whose mean is 1 on diagonal
    blocks and 0 elsewhere.  The map is idempotent, commutes with T, and
    contracts every ideal norm.
    """
    tm = require_square(t, "T")
    sm = as_matrix(s, "S")
    require_same_size(tm, sm)
    _, v, groups = normal_eigensystem(tm, cluster_tol)
    w_in = v.conj().T @ sm @ v
    mask = np.zeros(tm.shape, dtype=bool)
    for g in groups:
        mask[np.ix_(g, g)] = True
    return v @ (w_in * mask) @ v.conj().T


def _block_skew_units(cols_a: np.ndarray, cols_b: np.ndarray, same_block: bool) -> list[np.ndarray]:
    """Real basis of the skew-Hermitian matrices supported on the block
    pair (a, b) of an orthonormal frame; for a diagonal block this is the
    full skew-Hermitian algebra of the block."""
    out = []
    ma, mb = cols_a.shape[1], cols_b.shape[1]
    if same_block:
        for i in range(ma):
            out.append(1j * np.outer(cols_a[:, i], cols_a[:, i].conj()))
        for i in range(ma):
            for j in range(i + 1, ma):
                e = np.outer(cols_a[:, i], cols_a[:, j].conj())
                out.append(e - e.conj().T)
                out.append(1j * (e + e.conj().T))
    else:
        for i in range(ma):
            for j in range(mb):
                e = np.outer(cols_a[:, i], cols_b[:, j].conj())
                out.append(e - e.conj().T)
                out.append(1j * (e + e.conj().T))
    return out


@dataclass(frozen=True)
class KernelRangeSplit:
    """Direct-sum decomposition of the skew-Hermitian matrices into
    Ker(ad T) (block-diagonal part) and Ran(ad T) (off-diagonal part) in
    the eigenbasis of T."""

    kernel_basis: list[np.ndarray] = field(repr=False)
    range_basis: list[np.ndarray] = field(repr=False)
    residual: float


def _real_coords(mats: list[np.ndarray]) -> np.ndarray:
    rows = [np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in mats]
    return np.array(rows)


def kernel_range_split(t, cluster_tol: float | None = None) -> KernelRangeSplit:
    """Split the real Lie algebra of skew-Hermitian matrices along ad T.

    The reported residual is the error of reconstructing a random
    skew-Hermitian matrix from the combined basis by real least squares;
    the two real dimensions add up to n^2.
    """
    tm = require_square(t)
    _, v, groups = normal_eigensystem(tm, cluster_tol)
    kernel: list[np.ndarray] = []
    rangeb: list[np.ndarray] = []
    for gi, g in enumerate(groups):
        kernel.extend(_block_skew_units(v[:, g], v[:, g], True))
        for h in groups[gi + 1 :]:
            rangeb.extend(_block_skew_units(v[:, g], v[:, h], False))

    rng = np.random.default_rng(SPLIT_SEED)
    s = random_skew_hermitian(tm.shape[0], rng)
    basis = kernel + rangeb
    a = _real_coords(basis).T
    b = np.concatenate([s.real.ravel(), s.imag.ravel()])
    coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    recon = sum(c * m for c, m in zip(coef, basis))
    return KernelRangeSplit(
        kernel_basis=kernel,
        range_basis=rangeb,
        residual=float(np.linalg.norm(recon - s)),
    )


def isotropy_dimension(t, cluster_tol: float | None = None) -> int:
    """Real dimension of Ker(ad T) inside the skew-Hermitian matrices:
    the sum of the squared cluster multiplicities."""
    _, _, groups = normal_eigensystem(t, cluster_tol)
    return int(sum(len(g) ** 2 for g in groups))


def skew_hermitian_basis(n: int) -> list[np.ndarray]:
    """Standard real basis of the n x n skew-Hermitian matrices
    (dimension n^2)."""
    return _block_skew_units(np.eye(n, dtype=np.complex128), np.eye(n, dtype=np.complex128), True)
