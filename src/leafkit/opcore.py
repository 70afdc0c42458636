"""Dense complex-matrix kernel.

Hermitian spectral decompositions with eigenvalue clustering, singular
values, polar decomposition, the exponential of skew-Hermitian matrices,
and functional calculus on positive contractions.  Everything else in the
package is built on these five operations.

All functions are pure: inputs are never mutated, outputs are fresh
arrays, and there is no hidden state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ClusterAmbiguity,
    NearSingular,
    NotHermitian,
    NotSkewHermitian,
    NotUnitary,
    ShapeError,
    SizeMismatch,
    SpectrumOutOfRange,
)

HERM_TOL = 1e-10
UNITARY_TOL = 1e-9
DEFAULT_CLUSTER_REL_TOL = 1e-8


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex128 array with finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"{name}: expected a 2-D array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ShapeError(f"{name}: entries must be finite (no NaN/Inf)")
    return m


def require_square(a, name: str = "matrix") -> np.ndarray:
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"{name}: expected a square matrix, got shape {m.shape}")
    return m


def require_same_size(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise SizeMismatch(f"operand shapes differ: {a.shape} vs {b.shape}")


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    if min(a.shape, default=0) == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def _scale(a: np.ndarray) -> float:
    return max(1.0, spectral_norm(a))


def defect_exceeds(d: np.ndarray, tol: float, m: np.ndarray | None = None) -> bool:
    """Whether ||d|| > tol * max(1, ||m||), or ||d|| > tol without m.

    Since ||d|| <= ||d||_F and the scale is at least 1, a Frobenius norm
    below tol / 2 accepts without a singular value decomposition; the
    factor 2 keeps that shortcut clear of roundoff at the boundary.  Every
    other defect gets the exact spectral-norm test, so the decision is the
    one the spectral rule makes.
    """
    if np.linalg.norm(d) < 0.5 * tol:
        return False
    return spectral_norm(d) > tol * (1.0 if m is None else _scale(m))


def hermitian_defect(a: np.ndarray) -> float:
    return spectral_norm(a - a.conj().T)


def is_hermitian(m: np.ndarray, tol: float = HERM_TOL) -> bool:
    return not defect_exceeds(m - m.conj().T, tol, m)


def is_skew_hermitian(m: np.ndarray, tol: float = HERM_TOL) -> bool:
    return not defect_exceeds(m + m.conj().T, tol, m)


def require_hermitian(a, tol: float = HERM_TOL, name: str = "matrix") -> np.ndarray:
    m = require_square(a, name)
    if not is_hermitian(m, tol):
        raise NotHermitian(f"{name}: Hermitian defect {hermitian_defect(m):.3e} exceeds tolerance")
    return 0.5 * (m + m.conj().T)


def require_skew_hermitian(a, tol: float = HERM_TOL, name: str = "matrix") -> np.ndarray:
    m = require_square(a, name)
    if not is_skew_hermitian(m, tol):
        d = spectral_norm(m + m.conj().T)
        raise NotSkewHermitian(f"{name}: skew-Hermitian defect {d:.3e} exceeds tolerance")
    return 0.5 * (m - m.conj().T)


def is_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    n = u.shape[0]
    return n == u.shape[1] and not defect_exceeds(u.conj().T @ u - np.eye(n), tol)


def require_unitary(u, name: str = "matrix") -> np.ndarray:
    m = as_matrix(u, name)
    if not is_unitary(m):
        raise NotUnitary("matrix is not unitary within tolerance")
    return m


def cluster_indices(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Group ascending real values into clusters separated by more than tol.

    Raises ClusterAmbiguity when a gap falls within a factor of 2 of tol
    (the grouping would flip under a small perturbation of tol), or when
    chained merging produces a cluster wider than tol.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n == 0:
        return []
    gaps = np.diff(values)
    if tol > 0 and np.any((gaps >= 0.5 * tol) & (gaps <= 2.0 * tol)):
        raise ClusterAmbiguity(
            f"eigenvalue gap within a factor of 2 of cluster tolerance {tol:.3e}"
        )
    groups: list[np.ndarray] = []
    start = 0
    for k in range(1, n + 1):
        if k == n or gaps[k - 1] > tol:
            groups.append(np.arange(start, k))
            start = k
    for g in groups:
        if values[g[-1]] - values[g[0]] > max(tol, 0.0):
            raise ClusterAmbiguity(
                "chained eigenvalue merging produced a cluster wider than the tolerance"
            )
    return groups


def clustered_eigh(a: np.ndarray, cluster_tol: float) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """eigh plus clustering: eigenvalues ascending, eigenvector columns,
    and the list of index groups (one per eigenvalue cluster)."""
    w, v = np.linalg.eigh(a)
    return w, v, cluster_indices(w, cluster_tol)


@dataclass(frozen=True)
class SpectralData:
    """Spectral decomposition of a Hermitian matrix, one entry per
    eigenvalue cluster, eigenvalues ascending."""

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    projections: list[np.ndarray] = field(repr=False)
    cluster_tol: float = 0.0

    @property
    def size(self) -> int:
        return int(self.multiplicities.sum())

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.size, self.size), dtype=np.complex128)
        for lam, e in zip(self.eigenvalues, self.projections):
            out += lam * e
        return out


@dataclass(frozen=True)
class PolarFactors:
    """A = unitary_part @ positive_part."""

    unitary_part: np.ndarray
    positive_part: np.ndarray


def default_cluster_tol(a: np.ndarray) -> float:
    return DEFAULT_CLUSTER_REL_TOL * spectral_norm(a)


def spectral_decompose(a, cluster_tol: float | None = None) -> SpectralData:
    """Hermitian eigendecomposition with clustered spectral projections.

    Eigenvalues within cluster_tol of each other merge into a single
    projection; the reported eigenvalue of a cluster is the mean of its
    members.  cluster_tol defaults to 1e-8 times the spectral norm.
    """
    m = require_hermitian(a)
    if cluster_tol is None:
        cluster_tol = default_cluster_tol(m)
    if cluster_tol < 0:
        raise ValueError("cluster_tol must be nonnegative")
    w, v, groups = clustered_eigh(m, cluster_tol)
    eigenvalues = np.array([w[g].mean() for g in groups])
    multiplicities = np.array([len(g) for g in groups], dtype=int)
    projections = []
    for g in groups:
        cols = v[:, g]
        projections.append(cols @ cols.conj().T)
    return SpectralData(eigenvalues, multiplicities, projections, float(cluster_tol))


def singular_values(a) -> np.ndarray:
    """Singular values in descending order; length min(rows, cols)."""
    m = as_matrix(a)
    if min(m.shape) == 0:
        return np.zeros(0)
    return np.linalg.svd(m, compute_uv=False)


def polar_decompose(a, invertibility_tol: float = 1e-12) -> PolarFactors:
    """Right polar decomposition A = X Q with X unitary and Q = (A*A)^{1/2}.

    Requires the smallest singular value to exceed invertibility_tol;
    otherwise the unitary factor is not determined by A and NearSingular
    is raised.
    """
    m = require_square(a)
    u, s, vh = np.linalg.svd(m)
    if len(s) == 0 or s[-1] <= invertibility_tol:
        smin = float(s[-1]) if len(s) else 0.0
        raise NearSingular(
            f"smallest singular value {smin:.3e} <= tolerance {invertibility_tol:.3e}"
        )
    x = u @ vh
    q = vh.conj().T @ np.diag(s) @ vh
    q = 0.5 * (q + q.conj().T)
    return PolarFactors(unitary_part=x, positive_part=q)


def matrix_exp(a) -> np.ndarray:
    """Exponential of a skew-Hermitian matrix via the eigendecomposition
    of its Hermitian companion -iA; the result is unitary."""
    m = require_skew_hermitian(a)
    h = -1j * m
    h = 0.5 * (h + h.conj().T)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def function_calculus(a, f: Callable[[float], float]) -> np.ndarray:
    """Apply a scalar function on [0, 1] to a positive contraction,
    eigenvalue-wise: f(A) = sum_i f(lambda_i) E_i.

    The spectrum must lie in [0, 1] up to 1e-10; eigenvalues are clipped
    to the interval before f is evaluated.
    """
    m = require_hermitian(a)
    w, v = np.linalg.eigh(m)
    slack = 1e-10 * _scale(m)
    if len(w) and (w[0] < -slack or w[-1] > 1.0 + slack):
        raise SpectrumOutOfRange(
            f"spectrum [{w[0]:.3e}, {w[-1]:.3e}] not contained in [0, 1]"
        )
    fw = np.array([float(f(t)) for t in np.clip(w, 0.0, 1.0)])
    out = (v * fw) @ v.conj().T
    return 0.5 * (out + out.conj().T)


def random_skew_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Skew-Hermitian matrix with independent standard-normal real and
    imaginary parts, antisymmetrized."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g - g.conj().T)


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def random_unitary(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Unitary near the identity for small scale: exp(scale * skew)."""
    return matrix_exp(scale * random_skew_hermitian(n, rng))


def hermitian_from_spectrum(values: Sequence[float], rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix with the prescribed eigenvalue multiset."""
    values = np.asarray(values, dtype=float)
    u = random_unitary(len(values), rng)
    return u @ np.diag(values).astype(np.complex128) @ u.conj().T
