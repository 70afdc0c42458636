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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ClusterAmbiguity, NotHermitian, NotSkewHermitian, NotUnitVector, PreconditionError, SizeMismatch,
)
from .opcore import (
    HERM_TOL,
    FrameCertificate,
    FrameUnits,
    SpectralData,
    certify_frame,
    hermitian_companion,
    require_same_size,
    require_skew_hermitian,
    spectral_norm,
)

# matrix entries in one stack of sampled draws: bounds the working set
_STACK_ENTRIES = 8192


def _companion(t, name: str = "T") -> np.ndarray:
    """The Hermitian H of the skew-Hermitian representative iH of T:
    T = iH for skew input, T = H for Hermitian input."""
    try:
        return hermitian_companion(t, name)
    except NotHermitian:
        raise NotSkewHermitian(f"{name}: expected a skew-Hermitian (or Hermitian) matrix") from None


def _reference(t) -> tuple[np.ndarray, SpectralData, FrameCertificate]:
    """iH for the Hermitian companion H of T, the clustered eigenframe F of
    H and its certificate: T is classified and F certified once, so every
    count and residual can be read off in frame coordinates."""
    h = _companion(t)
    sd = SpectralData.from_hermitian(h)
    return 1j * h, sd, certify_frame(h, sd)


def _trace_form(tm: np.ndarray, z: np.ndarray, w: np.ndarray):
    """Tr(T [Z, W]); one value per pair for stacks of Z and W."""
    return np.trace(tm @ (z @ w - w @ z), axis1=-2, axis2=-1)


def omega(t, x, y) -> float:
    """Orbit 2-form omega_T(X, Y) = Tr(T [X, Y]) on skew-Hermitian
    arguments; the value is real.

    A Hermitian reference is accepted and read as its skew partner iT;
    X and Y must be genuinely skew-Hermitian.  T is classified once."""
    tm = 1j * _companion(t)
    xm = require_skew_hermitian(x, name="X")
    ym = require_skew_hermitian(y, name="Y")
    require_same_size(tm, xm)
    require_same_size(tm, ym)
    return float(_trace_form(tm, xm, ym).real)


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

    The basis is the frame basis {i f_a f_a*, f_a f_b* - f_b f_a*,
    i (f_a f_b* + f_b f_a*)} of the eigenframe F of T, and the Gram is
    evaluated on F* T F = i D, D = F* H F of the frame certificate.  Pairs
    (a, b) couple through 2 |D_aa - D_bb|; every other entry involves an
    off-diagonal entry of D.  Since |Tr(R [X, Y])| <= 2 ||R|| ||X||_F ||Y||_F
    and the basis elements have Frobenius norm 1 or sqrt(2), those dropped
    couplings have spectral norm at most 4 ||offdiag(D)||_F.  By Weyl's
    inequality each singular value of the full Gram lies within that
    bound of one of the kept 2x2 blocks, so the count is certified when
    no kept value lies within the bound of the cutoff 3 cluster_tol;
    otherwise ClusterAmbiguity is raised.  The cutoff is the equality rule
    of the cluster partition: cluster_indices keeps one cluster within
    cluster_tol and distinct clusters more than 2 cluster_tol apart, so
    a pair value 2 |theta_a - theta_b| is at most 2 cluster_tol inside a
    cluster and above 4 cluster_tol across clusters, and the certified
    count is the isotropy dimension.  T = 0 counts as all radical.

    Also reports the largest sampled pairing |omega_T(K, S)| over random
    K in Ker(ad T) and random skew S (zero up to roundoff when the match
    holds), drawn in stacks of K, S pairs.  A Hermitian reference is read
    as its skew partner iT.
    """
    _require_samples(sample_count)
    tm, sd, cert = _reference(t)
    n = sd.size
    theta = np.diagonal(cert.d).real
    a, b = np.triu_indices(n, 1)
    pair = 2.0 * np.abs(theta[a] - theta[b])
    # singular values of the kept Gram: 0 for each i f_a f_a*, |g| twice per pair block
    kept = np.concatenate([np.zeros(n), pair, pair])
    drop = 4.0 * cert.offdiag
    cut = 3.0 * sd.cluster_tol
    if np.any((kept > cut - drop) & (kept <= cut + drop)):
        raise ClusterAmbiguity(
            f"radical count not certified: a Gram singular value lies within the dropped-coupling "
            f"bound {drop:.3e} of the cutoff {cut:.3e}"
        )
    radical_dim = int(np.count_nonzero(kept <= cut - drop))
    iso = int(np.sum(sd.multiplicities ** 2))

    rng = np.random.default_rng(seed)
    worst = 0.0
    for m in _stacks(sample_count, n):
        # per sample: Re and Im of K, then of S, as random_skew_hermitian
        # draws them one matrix at a time
        x = rng.standard_normal((m, 2, 2, n, n))
        g = x[:, :, 0] + 1j * x[:, :, 1]
        ks = 0.5 * (g - g.conj().swapaxes(-2, -1))
        p = _trace_form(tm, sd.pinch(ks[:, 0]), ks[:, 1])
        # hypot is the modulus abs(complex) takes; np.abs can differ in the last bit
        worst = max(worst, float(np.hypot(p.real, p.imag).max()))
    return RadicalCheck(
        radical_dim=radical_dim,
        isotropy_dim=iso,
        match=radical_dim == iso,
        sampled_pairing_max=worst,
    )


@dataclass(frozen=True, eq=False)
class PolarizationMask:
    """Half-space polarization attached to T, derived from one field: the
    clustered eigenframe spectral of T's Hermitian companion.

    Clusters are indexed after sorting decreasingly by theta (the
    eigenvalues of T are i theta): sorted cluster i is cluster
    block_order[i] of the ascending eigenframe.  The mask holds the
    sorted cluster pairs (i, j) whose blocks belong to the polarization,
    i.e. all pairs with theta_i >= theta_j.  In the polarization-ordered
    frame G (the eigenframe columns with the clusters in sorted order) the
    polarization is G C G* for C supported on the upper block triangle.
    """

    spectral: SpectralData

    @property
    def block_order(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.argsort(-self.spectral.eigenvalues, kind="stable"))

    @property
    def mask(self) -> tuple[tuple[int, int], ...]:
        k = len(self.spectral.multiplicities)
        return tuple((i, j) for i in range(k) for j in range(i, k))

    @property
    def thetas(self) -> tuple[float, ...]:
        return tuple(float(self.spectral.eigenvalues[i]) for i in self.block_order)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(int(self.spectral.multiplicities[i]) for i in self.block_order)

    @property
    def complex_dim(self) -> int:
        return len(self.units[0])

    def support(self) -> np.ndarray:
        """Boolean n x n entry mask of the polarization in the coordinates
        of the eigenframe."""
        n = self.spectral.size
        blocks = [self.spectral.blocks[k] for k in self.block_order]
        sup = np.zeros((n, n), dtype=bool)
        for i, j in self.mask:
            sup[blocks[i], blocks[j]] = True
        return sup

    @cached_property
    def ordered_frame(self) -> np.ndarray:
        """The polarization-ordered frame G: the eigenframe columns, cluster
        block_order[0] first."""
        sd = self.spectral
        return np.concatenate([sd.frame[:, sd.blocks[k]] for k in self.block_order], axis=1)

    @cached_property
    def units(self) -> tuple[np.ndarray, np.ndarray]:
        """Row a and column b in G of each matrix unit g_a g_b* spanning
        the polarization, block by block in mask order, row-major in a
        block."""
        edges = np.cumsum([0, *self.multiplicities])
        blocks = [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]
        pairs = [(blocks[i], blocks[j]) for i, j in self.mask]
        rows, cols, _, _ = FrameUnits(self.ordered_frame, pairs, skew=False).layout
        return rows, cols

    def element(self, coeff: np.ndarray) -> np.ndarray:
        """sum_k coeff[k] g_a g_b* over the units (a, b) in order, formed
        as G C G* with coefficient k placed where unit k sits in C.
        Leading axes of coeff give a stack of elements."""
        g = self.ordered_frame
        n = g.shape[0]
        c = np.zeros(coeff.shape[:-1] + (n, n), dtype=np.complex128)
        c[(..., *self.units)] = coeff
        return g @ c @ g.conj().T


def polarization(t) -> PolarizationMask:
    """Construct the positivity-oriented polarization for a reference T.

    The orientation (which of the two half-space choices is taken) is the
    one making -i omega_T(Z, Z*) >= 0 on the basis matrix units:
    row-cluster theta >= column-cluster theta.  A Hermitian reference is
    read as its skew partner iT.  The frame is not certified here:
    polarization_properties certifies the mask it is given.
    """
    return PolarizationMask(SpectralData.from_hermitian(_companion(t)))


def _require_samples(count: int) -> None:
    """A sampled contract over no samples tests nothing."""
    if count < 1:
        raise ValueError("sample_count must be >= 1")


def _stacks(count: int, n: int):
    """Sizes of the stacks that split count draws of n x n matrices, each
    stack at most _STACK_ENTRIES matrix entries (one draw at least)."""
    step = max(1, _STACK_ENTRIES // max(1, n * n))
    for start in range(0, count, step):
        yield min(step, count - start)


@dataclass(frozen=True)
class PolarizationProperties:
    commutation_residual: float
    dim_p: int
    dim_intersection: int
    dim_intersection_expected: int
    dim_sum: int
    dim_ambient: int
    complemented: bool


def polarization_properties(t, mask: PolarizationMask | None = None,
                            sample_count: int = 50, seed: int = 0) -> PolarizationProperties:
    """Numerical verification of the four polarization properties of
    mask, the polarization of T (built when not given): stability under
    the isotropy subalgebra, intersection with the adjoint span equal to
    the complexified isotropy, joint spanning of the full matrix space,
    and complementedness (dimension bookkeeping).

    The eigenframe F of mask, given or built from T's companion H, passes
    certify_frame (NotUnitary otherwise), so X -> F X F* is an isometry,
    and must diagonalize H, ||H F - F diag(values)||_F <= HERM_TOL ||H||_F,
    or PreconditionError is raised.  So the polarization, its adjoint span
    and their sum have the complex dimensions of their entry supports sup,
    sup.T and sup | sup.T in frame coordinates.
    """
    _require_samples(sample_count)
    h = _companion(t)
    if mask is None:
        mask = PolarizationMask(SpectralData.from_hermitian(h))
    sd = mask.spectral
    if certify_frame(h, sd).residual > HERM_TOL * np.linalg.norm(h):
        raise PreconditionError("mask: its eigenframe does not diagonalize T")
    n = sd.size
    sup = mask.support()

    f = sd.frame
    n2 = n * n
    size = mask.complex_dim
    rng = np.random.default_rng(seed)
    worst = 0.0
    for m in _stacks(sample_count, n):
        # per sample: the normals of random_skew_hermitian(n), then Re and
        # Im of the coefficients of Z
        x = rng.standard_normal((m, 2 * n2 + 2 * size))
        g = (x[:, :n2] + 1j * x[:, n2 : 2 * n2]).reshape(m, n, n)
        k = sd.pinch(0.5 * (g - g.conj().swapaxes(-2, -1)))
        z = mask.element(x[:, 2 * n2 : 2 * n2 + size] + 1j * x[:, 2 * n2 + size :])
        z /= np.linalg.norm(z, axis=(-2, -1), keepdims=True)
        c = k @ z - z @ k
        off = np.linalg.norm((f.conj().T @ c @ f)[:, ~sup], axis=-1)
        worst = max(worst, float((off / np.maximum(1.0, np.linalg.norm(c, axis=(-2, -1)))).max()))

    dim_p = int(sup.sum())
    dim_sum = int((sup | sup.T).sum())
    iso_complex_dim = int(sum(m * m for m in mask.multiplicities))
    return PolarizationProperties(
        commutation_residual=worst,
        dim_p=dim_p,
        dim_intersection=2 * dim_p - dim_sum,
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
    frame_remainder: float


# c of the frame remainder 2 ||E||_F + c eta ||T||: the exact constant is
# 2 (1 + ||G*G - I||_2), and certify_frame holds ||G*G - I||_2 <= UNITARY_TOL = 1e-9
_FRAME_C = 3.0


def kaehler_check(t, sample_count: int = 200, seed: int = 0) -> KaehlerCheck:
    """Sampled isotropy and positivity of the polarization, evaluated
    entrywise in the polarization-ordered frame G.

    For Z1, Z2 random in the polarization the complex-bilinear form
    Tr(T [Z1, Z2]) vanishes; for Z in the polarization -i omega_T(Z, Z*)
    is nonnegative.  Each draw is Z = G C G* with the coefficients C
    normalized to ||C||_F = 1, and no Z is formed: with D = G* T G, which
    is i F* H F of the frame certificate permuted into block order,
    delta = diag(D) and E = D - diag(delta), a frame with G*G = I gives

        Tr(T [Z1, Z2]) = sum_ab (delta_a - delta_b) C1_ab C2_ba + Tr(E [C1, C2]),

    the sum running over the in-block units (a, b) whose transpose is a
    unit too, and for Z2 = Z1* the positivity value
    Re(-i sum_ab (delta_a - delta_b) |C1_ab|^2) over every unit.  For
    eta = ||G*G - I||_F each value lies within

        frame_remainder = 2 ||E||_F + 3 eta ||T||

    of the trace form at Z = G C G*: |Tr(E [C1, C2])| <= 2 ||E||_F, and
    each of the two terms of G*G - I between C1 and C2 contributes at
    most ||D|| eta <= (1 + 1e-9) ||T|| eta, since the frame passed
    certify_frame.  The bound is of exact arithmetic; the sums
    themselves carry roundoff of order n u ||T||.

    ||T|| is read off the frame's eigenvalues, the largest |eigenvalue|.
    Both contracts are relative to scale = max(1, ||T||) and applied with
    the remainder against them: isotropy_max_abs + frame_remainder and
    positivity_min - frame_remainder.  A Hermitian reference is read as
    its skew partner iT."""
    _require_samples(sample_count)
    _, sd, cert = _reference(t)
    mask = PolarizationMask(sd)
    n = sd.size
    delta = 1j * np.concatenate([np.diagonal(cert.d)[sd.blocks[k]] for k in mask.block_order])
    norm_t = float(np.abs(sd.values).max())
    remainder = 2.0 * cert.offdiag + _FRAME_C * cert.eta * norm_t

    rows, cols = mask.units
    size = len(rows)
    weight = delta[rows] - delta[cols]
    # the units (a, b) whose transpose (b, a) is a unit too: the in-block
    # units, diagonal ones included with their weight 0
    index = np.full((n, n), -1)
    index[rows, cols] = np.arange(size)
    partner = index[cols, rows]
    pair = np.flatnonzero(partner >= 0)
    partner = partner[pair]
    iso_weight = weight[pair]
    # a draw's row holds Re C1, Im C1, Re C2, Im C2: gather (Re, Im) of C1
    # at pair and of C2 at partner side by side, read as complex
    gather = np.concatenate([np.stack([pair, size + pair], axis=1).ravel(),
                             np.stack([2 * size + partner, 3 * size + partner], axis=1).ravel()])
    # per row of squares: the sum, and the positivity sum Re(-i w) = Im(w)
    sums = np.stack([np.ones(size), weight.imag], axis=1)

    rng = np.random.default_rng(seed)
    iso_max = 0.0
    pos_min = np.inf
    for m in _stacks(sample_count, n):
        # per sample: Re and Im of the coefficients of Z1, then of Z2
        x = rng.standard_normal((m, 2, 2, size))
        sq = (np.square(x).reshape(4 * m, size) @ sums).reshape(m, 2, 2, 2)
        norm2 = sq[..., 0].sum(axis=2)
        c = np.take(x.reshape(m, 4 * size), gather, axis=1).view(np.complex128)
        iso = (c[:, : len(pair)] * c[:, len(pair) :]) @ iso_weight
        iso_max = max(iso_max, float((np.abs(iso) / np.sqrt(norm2[:, 0] * norm2[:, 1])).max()))
        pos_min = min(pos_min, float((sq[:, 0, :, 1].sum(axis=1) / norm2[:, 0]).min()))
    return KaehlerCheck(
        isotropy_max_abs=iso_max,
        positivity_min=float(pos_min),
        scale=max(1.0, norm_t),
        frame_remainder=float(remainder),
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

    The two agree in absolute value, to 1e-9 max(1, ||a1|| ||a2||); the
    relative sign depends on orientation conventions, so both signed values
    are reported.  The inner product is linear in its first argument.
    """
    x = np.asarray(x0, dtype=np.complex128).ravel()
    if abs(np.linalg.norm(x) - 1.0) > 1e-10:
        raise NotUnitVector(f"|x0| = {np.linalg.norm(x):.12f} differs from 1")
    a1m = require_skew_hermitian(a1, name="a1")
    a2m = require_skew_hermitian(a2, name="a2")
    require_same_size(a1m, a2m)
    if a1m.shape[0] != len(x):
        raise SizeMismatch(f"vector length {len(x)} vs matrix size {a1m.shape[0]}")

    p = np.outer(x, x.conj())
    comm = a1m @ a2m - a2m @ a1m
    orbit = (1j * np.trace(p @ comm)).real
    geom = 2.0 * np.vdot(a2m @ x, a1m @ x).imag
    bound = 1e-9 * max(1.0, spectral_norm(a1m) * spectral_norm(a2m))
    return ProjectiveCompare(
        orbit_form=float(orbit),
        geometric_form=float(geom),
        abs_match=abs(abs(orbit) - abs(geom)) <= bound,
    )
