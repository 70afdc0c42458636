"""Dense complex-matrix kernel.

Hermitian spectral decompositions with eigenvalue clustering, singular
values, polar decomposition, the exponential of skew-Hermitian matrices,
and functional calculus on positive contractions.  Everything else in the
package is built on these five operations.  The clustered eigenframe,
SpectralData, is the one spectral object the other modules read,
certify_frame is the one place its float frame is certified, and
FrameUnits, a read-only sequence of rank-one units on its frame, is the
one form in which they hand out a basis.

All functions are pure: inputs are never mutated, outputs are fresh
arrays, and there is no hidden state.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property

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
# smallest singular value a spectral-block corner may have in the cross-section
CORNER_TOL = 1e-8
# smallest singular value polar_decompose accepts
POLAR_TOL = 1e-12


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


def hermitian_norm(a: np.ndarray) -> float:
    """Spectral norm of the Hermitian part of a, the largest |eigenvalue|:
    the norm of a matrix that is Hermitian by construction, without an
    SVD."""
    return float(np.abs(np.linalg.eigvalsh(0.5 * (a + a.conj().T))).max(initial=0.0))


def within(value: float, tol: float, m: np.ndarray | None = None) -> bool:
    """Whether value <= tol * max(1, ||m||), or value <= tol without m; the
    norm of m, an SVD, is taken only when value > tol."""
    return value <= tol or (m is not None and value <= tol * spectral_norm(m))


def defect_exceeds(d: np.ndarray, tol: float, m: np.ndarray | None = None) -> bool:
    """Whether ||d|| > tol * max(1, ||m||), or ||d|| > tol without m.

    Since ||d|| <= ||d||_F and the scale is at least 1, a Frobenius norm
    below tol / 2 accepts without a singular value decomposition.  Since
    ||d|| >= ||d||_F / sqrt(min(shape)) and ||m|| <= ||m||_F, a Frobenius
    norm above 2 sqrt(min(shape)) tol max(1, ||m||_F) rejects without one.
    The factors 2 keep both shortcuts clear of roundoff at the boundary.
    Every other defect gets the exact spectral-norm test, within, so the
    decision is the one the spectral rule makes.
    """
    fro = np.linalg.norm(d)
    if fro < 0.5 * tol:
        return False
    if fro > 2.0 * np.sqrt(min(d.shape)) * tol * (1.0 if m is None else max(1.0, np.linalg.norm(m))):
        return True
    return not within(spectral_norm(d), tol, m)


def is_hermitian(m: np.ndarray) -> bool:
    return not defect_exceeds(m - m.conj().T, HERM_TOL, m)


def is_skew_hermitian(m: np.ndarray) -> bool:
    return not defect_exceeds(m + m.conj().T, HERM_TOL, m)


def require_hermitian(a, name: str = "matrix") -> np.ndarray:
    m = require_square(a, name)
    if not is_hermitian(m):
        d = spectral_norm(m - m.conj().T)
        raise NotHermitian(f"{name}: Hermitian defect {d:.3e} exceeds tolerance")
    return 0.5 * (m + m.conj().T)


def hermitian_companion(t, name: str = "matrix") -> np.ndarray:
    """The Hermitian H with T = H for Hermitian T, or T = iH for
    skew-Hermitian T.  Hermitian is tested first, so a matrix within
    tolerance of both classes is read as Hermitian."""
    m = require_square(t, name)
    if is_hermitian(m):
        return 0.5 * (m + m.conj().T)
    if is_skew_hermitian(m):
        h = -1j * m
        return 0.5 * (h + h.conj().T)
    raise NotHermitian(f"{name}: expected a Hermitian or skew-Hermitian matrix")


def require_skew_hermitian(a, name: str = "matrix") -> np.ndarray:
    m = require_square(a, name)
    if not is_skew_hermitian(m):
        d = spectral_norm(m + m.conj().T)
        raise NotSkewHermitian(f"{name}: skew-Hermitian defect {d:.3e} exceeds tolerance")
    return 0.5 * (m - m.conj().T)


def is_unitary(u: np.ndarray) -> bool:
    n = u.shape[0]
    return n == u.shape[1] and not defect_exceeds(u.conj().T @ u - np.eye(n), UNITARY_TOL)


def require_unitary(u, name: str = "matrix") -> np.ndarray:
    m = require_square(u, name)
    if not is_unitary(m):
        raise NotUnitary(f"{name} is not unitary within tolerance")
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
            if values[k - 1] - values[start] > max(tol, 0.0):
                raise ClusterAmbiguity(
                    "chained eigenvalue merging produced a cluster wider than the tolerance"
                )
            groups.append(np.arange(start, k))
            start = k
    return groups


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Clustered eigenframe of a Hermitian matrix.

    frame holds orthonormal eigenvector columns in the order of the raw
    ascending eigenvalues in values.  Eigenvalues within cluster_tol of
    their neighbours form one cluster: a contiguous column range of the
    frame, multiplicities[i] wide.  Everything else, the cluster means in
    eigenvalues included, is derived from these on access.
    """

    frame: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    multiplicities: np.ndarray
    cluster_tol: float = 0.0

    @classmethod
    def from_hermitian(cls, h: np.ndarray, cluster_tol: float | None = None) -> SpectralData:
        """Eigenframe of a matrix the caller has already validated and
        symmetrized.  cluster_tol defaults to 1e-8 times the spectral norm,
        which for Hermitian H is the largest |eigenvalue|."""
        return cls.from_eigh(*np.linalg.eigh(h), cluster_tol)

    @classmethod
    def from_eigh(cls, w: np.ndarray, v: np.ndarray, cluster_tol: float | None = None) -> SpectralData:
        """Eigenframe from eigh's output w, v, clustered as in from_hermitian; cluster_tol >= 0."""
        if cluster_tol is None:
            cluster_tol = DEFAULT_CLUSTER_REL_TOL * float(np.abs(w).max(initial=0.0))
        elif cluster_tol < 0:
            raise ValueError("cluster_tol must be nonnegative")
        groups = cluster_indices(w, cluster_tol)
        return cls(
            frame=v,
            values=w,
            multiplicities=np.array([len(g) for g in groups], dtype=int),
            cluster_tol=float(cluster_tol),
        )

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The mean of each cluster, ascending."""
        return np.array([self.values[b].mean() for b in self.blocks])

    @property
    def size(self) -> int:
        return int(self.multiplicities.sum())

    @property
    def blocks(self) -> list[slice]:
        """Column range of each cluster in the frame."""
        edges = np.cumsum([0, *self.multiplicities])
        return [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]

    @property
    def bases(self) -> list[np.ndarray]:
        """Orthonormal basis B_i (n x m_i) of each eigenspace: the frame
        columns of cluster i, so that E_i = B_i B_i*."""
        return [self.frame[:, b] for b in self.blocks]

    @property
    def projections(self) -> list[np.ndarray]:
        """The n x n spectral projections E_i, built on each access."""
        return [b @ b.conj().T for b in self.bases]

    def mask(self) -> np.ndarray:
        """Boolean n x n mask of the diagonal cluster blocks in frame
        coordinates."""
        out = np.zeros((self.size, self.size), dtype=bool)
        for b in self.blocks:
            out[b, b] = True
        return out

    def pinch(self, s: np.ndarray) -> np.ndarray:
        """Block-diagonal compression sum_i E_i S E_i of an n x n matrix."""
        v = self.frame
        return v @ ((v.conj().T @ s @ v) * self.mask()) @ v.conj().T


@dataclass(frozen=True, eq=False)
class FrameCertificate:
    """Certificate of an eigenframe F of H: D = F* H F and the Frobenius
    norms of offdiag(D), of F*F - I (eta) and of H F - F diag(values)."""

    d: np.ndarray = field(repr=False)
    offdiag: float
    eta: float
    residual: float


def certify_frame(h: np.ndarray, sd: SpectralData) -> FrameCertificate:
    """The certificate of the frame F of sd against the Hermitian h, from
    one F*F and one H F product.  NotUnitary is raised when F*F - I fails
    is_unitary's rule, so a reader may take X -> F X F* as an isometry."""
    f = sd.frame
    require_same_size(h, f)
    gram = f.conj().T @ f - np.eye(sd.size)
    if defect_exceeds(gram, UNITARY_TOL):
        raise NotUnitary("eigenframe is not unitary within tolerance")
    hf = h @ f
    d = f.conj().T @ hf
    offdiag = np.linalg.norm(d - np.diag(np.diagonal(d)))
    residual = np.linalg.norm(hf - f * sd.values)
    return FrameCertificate(d, float(offdiag), float(np.linalg.norm(gram)), float(residual))


class FrameUnits(Sequence):
    """Read-only sequence of the frame units a_k f_r f_s* + b_k f_s f_r*
    (b_k is 0 or +-a_k) on the columns of an orthonormal frame F (frame), for a
    list of block pairs.  The length is counted from the block widths;
    the layout (index and coefficient arrays) is built on its first use,
    and each unit on its own access.

    A pair is two column ranges a and b of F, of widths m_a and m_b, as
    slices like SpectralData.blocks.  It gives the matrix units f_k f_l*
    for each column k of a and l of b, row-major; with skew, the real
    units spanning the skew-Hermitian matrices it supports instead: on a
    diagonal pair (a == b) the m_a^2 units i f_k f_k*, then
    f_k f_l* - f_l f_k* and i (f_k f_l* + f_l f_k*) for each k < l, and
    on an off-diagonal pair those last two for each k of a and l of b.
    """

    def __init__(self, frame: np.ndarray, pairs: list[tuple[slice, slice]], skew: bool):
        self.frame = frame
        self._pairs = [((a.start, a.stop - a.start), (b.start, b.stop - b.start)) for a, b in pairs]
        self._skew = skew
        self._len = sum(ma * mb if a == b or not skew else 2 * ma * mb for (a, ma), (b, mb) in self._pairs)

    def __len__(self) -> int:
        return self._len

    @cached_property
    def layout(self) -> list[np.ndarray]:
        """Columns r, s and coefficients a, b of every unit, in order."""
        parts = []
        for (a, ma), (b, mb) in self._pairs:
            if self._skew and a == b:
                d = a + np.arange(ma)
                parts.append((d, d, np.full(ma, 1j), np.zeros(ma)))
                k, l = np.triu_indices(ma, 1)
            else:
                k, l = np.divmod(np.arange(ma * mb), mb)
            k, l = a + k, b + l
            if self._skew:
                parts.append((k.repeat(2), l.repeat(2), np.tile([1, 1j], len(k)), np.tile([-1, 1j], len(k))))
            else:
                parts.append((k, l, np.ones(len(k)), np.zeros(len(k))))
        return [np.concatenate(p) for p in zip(*parts)]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("unit index out of range")
        r, s, a, b = (x[i] for x in self.layout)
        e = np.outer(self.frame[:, r], self.frame[:, s].conj())
        if b == a:
            e = e + e.conj().T
        elif b == -a:
            e = e - e.conj().T
        return e if a == 1 else a * e


@dataclass(frozen=True, eq=False)
class PolarFactors:
    """A = unitary_part @ positive_part."""

    unitary_part: np.ndarray
    positive_part: np.ndarray


def spectral_decompose(a, cluster_tol: float | None = None) -> SpectralData:
    """SpectralData.from_hermitian of a after the Hermitian gate: eigenvalues
    within cluster_tol (default 1e-8 times the spectral norm) of each other
    merge into one cluster, whose eigenvalue is the mean of its members."""
    return SpectralData.from_hermitian(require_hermitian(a), cluster_tol)


def singular_values(a) -> np.ndarray:
    """Singular values in descending order; length min(rows, cols)."""
    m = as_matrix(a)
    if min(m.shape) == 0:
        return np.zeros(0)
    return np.linalg.svd(m, compute_uv=False)


def polar_decompose(a) -> PolarFactors:
    """Right polar decomposition A = X Q with X unitary and Q = (A*A)^{1/2}.

    Requires the smallest singular value to exceed POLAR_TOL;
    otherwise the unitary factor is not determined by A and NearSingular
    is raised.
    """
    m = require_square(a)
    u, s, vh = np.linalg.svd(m)
    if len(s) == 0 or s[-1] <= POLAR_TOL:
        smin = float(s[-1]) if len(s) else 0.0
        raise NearSingular(
            f"smallest singular value {smin:.3e} <= tolerance {POLAR_TOL:.3e}"
        )
    x = u @ vh
    q = (vh.conj().T * s) @ vh
    q = 0.5 * (q + q.conj().T)
    return PolarFactors(unitary_part=x, positive_part=q)


def matrix_exp(a, name: str = "matrix") -> np.ndarray:
    """Exponential of a skew-Hermitian matrix via the eigendecomposition
    of its Hermitian companion -iA; the result is unitary."""
    m = require_skew_hermitian(a, name=name)
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
    # the norm of Hermitian m is its largest |eigenvalue|
    slack = 1e-10 * max(1.0, float(np.abs(w).max(initial=0.0)))
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
