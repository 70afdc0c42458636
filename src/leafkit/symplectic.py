"""Orbit symplectic form, its radical, and the compatible polarization.

The 2-form on the skew-Hermitian matrices attached to a reference T is
omega_T(X, Y) = Tr(T [X, Y]).  Its radical is exactly Ker(ad T); on a
complement it is nondegenerate.  Ordering the eigenvalue clusters of T
decreasingly, the span of the upper-triangular blocks (diagonal included)
is a complex polarization: omega_T vanishes on it, it meets its own
adjoint span in the complexified isotropy subalgebra, together they span
everything, and -i omega_T(Z, Z*) >= 0 on it.  That sign picks the
orientation of the half-space; this module fixes it once and verifies it
numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotHermitian, NotSkewHermitian, NotUnitVector, SizeMismatch
from .opcore import (
    SpectralData,
    as_matrix,
    hermitian_companion,
    is_skew_hermitian,
    random_skew_hermitian,
    require_same_size,
    require_square,
    spectral_norm,
)
from .orbits import normal_frame, skew_hermitian_basis

RADICAL_REL_TOL = 1e-9


def _as_skew(t, name: str = "T") -> np.ndarray:
    """Return the skew-Hermitian representative: skew input unchanged,
    Hermitian input multiplied by i."""
    try:
        return 1j * hermitian_companion(t, name)
    except NotHermitian:
        raise NotSkewHermitian(f"{name}: expected a skew-Hermitian (or Hermitian) matrix") from None


def _trace_form(tm: np.ndarray, z: np.ndarray, w: np.ndarray) -> complex:
    return complex(np.trace(tm @ (z @ w - w @ z)))


def omega_complexified(t, z, w) -> complex:
    """Complex-bilinear trace form Tr(T [Z, W]) on arbitrary complex
    matrices (the extension of the orbit 2-form to the complexification)."""
    tm = _as_skew(t)
    zm = as_matrix(z, "Z")
    wm = as_matrix(w, "W")
    require_same_size(tm, zm)
    require_same_size(tm, wm)
    return _trace_form(tm, zm, wm)


def omega(t, x, y) -> float:
    """Orbit 2-form omega_T(X, Y) = Tr(T [X, Y]) on skew-Hermitian
    arguments; the value is real.

    A Hermitian reference is accepted and read as its skew partner iT;
    X and Y must be genuinely skew-Hermitian."""
    tm = _as_skew(t)
    xm = as_matrix(x, "X")
    ym = as_matrix(y, "Y")
    for name, m in (("X", xm), ("Y", ym)):
        if not is_skew_hermitian(m):
            raise NotSkewHermitian(f"{name}: expected a skew-Hermitian matrix")
    return float(omega_complexified(tm, xm, ym).real)


@dataclass(frozen=True)
class RadicalCheck:
    radical_dim: int
    isotropy_dim: int
    match: bool
    sampled_pairing_max: float


def radical_check(t, sample_count: int = 100, seed: int = 0) -> RadicalCheck:
    """Nullity of the Gram matrix of omega_T on a real basis of the
    skew-Hermitian matrices, compared with the isotropy dimension
    sum_i m_i^2.

    Also reports the largest sampled pairing |omega_T(K, S)| over random
    K in Ker(ad T) and random skew S (zero up to roundoff when the match
    holds).  A Hermitian reference is read as its skew partner iT.
    """
    tm = _as_skew(t)
    n = tm.shape[0]
    basis = skew_hermitian_basis(n)
    b = np.array(basis)
    c = np.einsum("ij,ajk->aik", tm, b) - np.einsum("aij,jk->aik", b, tm)
    gram = np.einsum("aij,bji->ab", c, b).real
    sv = np.linalg.svd(gram, compute_uv=False)
    top = sv[0] if len(sv) else 0.0
    # gram entries scale like ||T||, so a numerically zero gram (scalar T)
    # must count as all-radical: floor the cutoff at the scale of omega_T
    cutoff = RADICAL_REL_TOL * max(top, 1.0, spectral_norm(tm))
    radical_dim = int(np.count_nonzero(sv <= cutoff))
    sd = normal_frame(tm)
    iso = int(np.sum(sd.multiplicities ** 2))

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(sample_count):
        k = sd.pinch(random_skew_hermitian(n, rng))
        s = random_skew_hermitian(n, rng)
        worst = max(worst, abs(_trace_form(tm, k, s)))
    return RadicalCheck(
        radical_dim=radical_dim,
        isotropy_dim=iso,
        match=radical_dim == iso,
        sampled_pairing_max=worst,
    )


@dataclass(frozen=True)
class PolarizationMask:
    """Half-space polarization attached to T.

    Clusters are indexed after sorting decreasingly by theta (the
    eigenvalues of T are i theta): sorted cluster i is cluster
    block_order[i] of the ascending eigenframe spectral.  The mask holds
    the sorted cluster pairs (i, j) whose blocks belong to the
    polarization, i.e. all pairs with theta_i >= theta_j.  basis spans
    the polarization by matrix units of the eigenframe.
    """

    block_order: tuple[int, ...]
    mask: tuple[tuple[int, int], ...]
    basis: list[np.ndarray] = field(repr=False)
    thetas: tuple[float, ...] = ()
    multiplicities: tuple[int, ...] = ()
    spectral: SpectralData | None = field(default=None, repr=False)

    @property
    def complex_dim(self) -> int:
        m = np.array(self.multiplicities)
        return int(sum(m[i] * m[j] for i, j in self.mask))

    def support(self) -> np.ndarray:
        """Boolean n x n entry mask of the polarization in the coordinates
        of the eigenframe."""
        n = self.spectral.size
        blocks = [self.spectral.blocks[k] for k in self.block_order]
        sup = np.zeros((n, n), dtype=bool)
        for i, j in self.mask:
            sup[blocks[i], blocks[j]] = True
        return sup


def polarization(t) -> PolarizationMask:
    """Construct the positivity-oriented polarization for a reference T.

    The orientation (which of the two half-space choices is taken) is the
    one making -i omega_T(Z, Z*) >= 0 on the basis matrix units:
    row-cluster theta >= column-cluster theta.  A Hermitian reference is
    read as its skew partner iT.
    """
    sd = normal_frame(_as_skew(t))
    order = tuple(int(i) for i in np.argsort(-sd.eigenvalues, kind="stable"))
    bases = sd.bases
    k = len(order)
    mask = tuple((i, j) for i in range(k) for j in range(k) if i <= j)
    basis = []
    for i, j in mask:
        for a in bases[order[i]].T:
            for b in bases[order[j]].T:
                basis.append(np.outer(a, b.conj()))
    return PolarizationMask(
        block_order=order,
        mask=mask,
        basis=basis,
        thetas=tuple(float(sd.eigenvalues[i]) for i in order),
        multiplicities=tuple(int(sd.multiplicities[i]) for i in order),
        spectral=sd,
    )


@dataclass(frozen=True)
class PolarizationProperties:
    commutation_residual: float
    dim_p: int
    dim_intersection: int
    dim_intersection_expected: int
    dim_sum: int
    dim_ambient: int
    complemented: bool


def _span_rank(mats: list[np.ndarray], rel_tol: float = 1e-9) -> int:
    rows = np.array([m.ravel() for m in mats])
    sv = np.linalg.svd(rows, compute_uv=False)
    if len(sv) == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > rel_tol * sv[0]))


def polarization_properties(t, mask: PolarizationMask | None = None,
                            sample_count: int = 50, seed: int = 0) -> PolarizationProperties:
    """Numerical verification of the four polarization properties of
    mask, the polarization of T (built when not given): stability under
    the isotropy subalgebra, intersection with the adjoint span equal to
    the complexified isotropy, joint spanning of the full matrix space,
    and complementedness (dimension bookkeeping).
    """
    tm = _as_skew(t)
    n = tm.shape[0]
    if mask is None:
        mask = polarization(t)
    sd = mask.spectral
    sup = mask.support()

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(sample_count):
        k = sd.pinch(random_skew_hermitian(n, rng))
        coeff = rng.standard_normal(len(mask.basis)) + 1j * rng.standard_normal(len(mask.basis))
        z = sum(c * b for c, b in zip(coeff, mask.basis))
        z /= np.linalg.norm(z)
        c = k @ z - z @ k
        c_frame = sd.frame.conj().T @ c @ sd.frame
        off = np.linalg.norm(c_frame[~sup])
        worst = max(worst, off / max(1.0, np.linalg.norm(c)))

    conj_basis = [b.conj().T for b in mask.basis]
    dim_p = _span_rank(mask.basis)
    dim_sum = _span_rank(mask.basis + conj_basis)
    dim_intersection = 2 * dim_p - dim_sum
    iso_complex_dim = int(sum(m * m for m in mask.multiplicities))
    return PolarizationProperties(
        commutation_residual=worst,
        dim_p=dim_p,
        dim_intersection=dim_intersection,
        dim_intersection_expected=iso_complex_dim,
        dim_sum=dim_sum,
        dim_ambient=n * n,
        complemented=dim_p + (n * n - dim_p) == n * n,
    )


@dataclass(frozen=True)
class KaehlerCheck:
    isotropy_max_abs: float
    positivity_min: float
    scale: float


def kaehler_check(t, sample_count: int = 200, seed: int = 0) -> KaehlerCheck:
    """Sampled isotropy and positivity of the polarization.

    For Z1, Z2 random in the polarization (unit Frobenius norm) the
    complex-bilinear form vanishes; for Z in the polarization
    -i omega_T(Z, Z*) is nonnegative.  Both contracts are relative to
    scale = max(1, ||T||).  A Hermitian reference is read as its skew
    partner iT."""
    tm = _as_skew(t)
    mask = polarization(t)
    rng = np.random.default_rng(seed)

    def draw() -> np.ndarray:
        c = rng.standard_normal(len(mask.basis)) + 1j * rng.standard_normal(len(mask.basis))
        z = sum(ci * b for ci, b in zip(c, mask.basis))
        nz = np.linalg.norm(z)
        return z / nz if nz > 0 else z

    iso_max = 0.0
    pos_min = np.inf
    for _ in range(sample_count):
        z1 = draw()
        z2 = draw()
        iso_max = max(iso_max, abs(_trace_form(tm, z1, z2)))
        val = (-1j * _trace_form(tm, z1, z1.conj().T)).real
        pos_min = min(pos_min, val)
    return KaehlerCheck(
        isotropy_max_abs=iso_max,
        positivity_min=float(pos_min),
        scale=max(1.0, spectral_norm(tm)),
    )


@dataclass(frozen=True)
class ProjectiveCompare:
    orbit_form: float
    geometric_form: float
    abs_match: bool


def projective_form_compare(x0, a1, a2) -> ProjectiveCompare:
    """Compare the orbit form i Tr(p_x [a1, a2]) on the rank-one
    projection p_x against the geometric form 2 Im <a1 x, a2 x> of the
    projective space, for a unit vector x and skew-Hermitian directions.

    The two agree in absolute value; the relative sign depends on
    orientation conventions, so both signed values are reported.
    The inner product is linear in its first argument.
    """
    x = np.asarray(x0, dtype=np.complex128).ravel()
    if abs(np.linalg.norm(x) - 1.0) > 1e-10:
        raise NotUnitVector(f"|x0| = {np.linalg.norm(x):.12f} differs from 1")
    a1m = require_square(a1, "a1")
    a2m = require_square(a2, "a2")
    for name, m in (("a1", a1m), ("a2", a2m)):
        if not is_skew_hermitian(m):
            raise NotSkewHermitian(f"{name}: expected a skew-Hermitian matrix")
    require_same_size(a1m, a2m)
    if a1m.shape[0] != len(x):
        raise SizeMismatch(f"vector length {len(x)} vs matrix size {a1m.shape[0]}")

    p = np.outer(x, x.conj())
    comm = a1m @ a2m - a2m @ a1m
    orbit = (1j * np.trace(p @ comm)).real
    geom = 2.0 * np.vdot(a2m @ x, a1m @ x).imag
    return ProjectiveCompare(
        orbit_form=float(orbit),
        geometric_form=float(geom),
        abs_match=abs(abs(orbit) - abs(geom)) <= 1e-9,
    )
