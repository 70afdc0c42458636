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

from .opcore import (
    FrameUnits,
    SpectralData,
    certify_frame,
    hermitian_companion,
    matrix_exp,
    random_skew_hermitian,
    require_hermitian,
    require_same_size,
    require_skew_hermitian,
    require_square,
)

SPLIT_SEED = 1618


def normal_frame(t, cluster_tol: float | None = None, name: str = "matrix") -> SpectralData:
    """Clustered eigenframe of a Hermitian or skew-Hermitian matrix.

    Skew-Hermitian input is rotated to its Hermitian companion -iT, so the
    eigenvalues are the real numbers theta with spectrum {i theta} in the
    skew case and {theta} in the Hermitian case.  T is classified once.
    """
    return SpectralData.from_hermitian(hermitian_companion(t, name), cluster_tol)


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
    sd = normal_frame(rho, tol)
    return LeafSignature(
        eigenvalues=tuple(float(lam) for lam in sd.eigenvalues),
        multiplicities=tuple(int(m) for m in sd.multiplicities),
        tol=float(tol),
    )


def spectrum(t, name: str = "matrix") -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or the theta of the
    spectrum {i theta} of a skew-Hermitian one."""
    return normal_frame(t, 0.0, name).values


def spectrum_deviation(w1: np.ndarray, w2: np.ndarray) -> float:
    """Largest distance between two ascending spectra; inf when their
    lengths differ."""
    if len(w1) != len(w2):
        return float("inf")
    return float(np.max(np.abs(w1 - w2), initial=0.0))


def leaf_bound(tol: float, *spectra: np.ndarray) -> float:
    """The relative bound tol * max(1, ||A||, ||B||, ...) on a spectrum
    deviation, each norm the largest |eigenvalue| of a spectrum."""
    return tol * max(1.0, *(float(np.abs(w).max(initial=0.0)) for w in spectra))


def same_leaf(rho1, rho2, tol: float) -> bool:
    """True iff the two matrices are unitarily equivalent up to tol:
    sorted eigenvalues agree pairwise within tol * max(1, ||rho1||, ||rho2||)."""
    w1, w2 = spectrum(rho1, "rho1"), spectrum(rho2, "rho2")
    return bool(spectrum_deviation(w1, w2) <= leaf_bound(tol, w1, w2))


def orbit_sample(t, count: int, scale: float, seed: int) -> list[np.ndarray]:
    """Conjugates V_k* T V_k for V_k = exp(scale * random skew), drawn
    deterministically from the seed."""
    tm = require_square(t, "T")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    n = tm.shape[0]
    out = []
    for _ in range(count):
        v = matrix_exp(scale * random_skew_hermitian(n, rng))
        out.append(v.conj().T @ tm @ v)
    return out


def pinching(t, s) -> np.ndarray:
    """Block-diagonal compression sum_i E_i S E_i along the spectral
    projections of T.

    This is the exact value of the invariant-mean average of
    exp(-aT) S exp(aT) over a: in the eigenbasis the (i,j) block picks up
    the oscillation exp(a(mu_j - mu_i)), whose mean is 1 on diagonal
    blocks and 0 elsewhere.  The map is idempotent, commutes with T, and
    contracts every ideal norm.
    """
    tm = require_square(t, "T")
    sm = require_square(s, "S")
    require_same_size(tm, sm)
    return normal_frame(tm).pinch(sm)


@dataclass(frozen=True)
class KernelRangeSplit:
    """Direct-sum decomposition of the skew-Hermitian matrices into
    Ker(ad T) (block-diagonal part) and Ran(ad T) (off-diagonal part) in
    the eigenbasis of T: the kernel units of each cluster, then the range
    units of each cluster pair (i, j), i < j, in order."""

    kernel_basis: FrameUnits = field(repr=False)
    range_basis: FrameUnits = field(repr=False)
    residual: float


def kernel_range_split(t) -> KernelRangeSplit:
    """Split the real Lie algebra of skew-Hermitian matrices along ad T.

    The eigenframe F of T passes certify_frame, so the coefficients of a
    skew-Hermitian S over the combined basis are the entries of F* S F.
    The reported residual is the error of reconstructing a random
    skew-Hermitian S from them, ||F (F* S F) F* - S||_F; the two real
    dimensions add up to n^2.
    """
    h = hermitian_companion(t, "T")
    sd = SpectralData.from_hermitian(h)
    certify_frame(h, sd)
    f, blocks = sd.frame, sd.blocks

    rng = np.random.default_rng(SPLIT_SEED)
    s = random_skew_hermitian(sd.size, rng)
    fh = f.conj().T
    recon = f @ (fh @ s @ f) @ fh
    return KernelRangeSplit(
        kernel_basis=FrameUnits(f, [(a, a) for a in blocks], skew=True),
        range_basis=FrameUnits(f, [(a, b) for i, a in enumerate(blocks) for b in blocks[i + 1 :]], skew=True),
        residual=float(np.linalg.norm(recon - s)),
    )


def isotropy_dimension(t) -> int:
    """Real dimension of Ker(ad T) inside the skew-Hermitian matrices:
    the sum of the squared cluster multiplicities."""
    return int(np.sum(normal_frame(t).multiplicities ** 2))
