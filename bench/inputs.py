"""Seeded inputs for the leafkit benchmark and the independent reference
values its checks compare against.

Every matrix is built from a known eigenframe or singular frame, so the
expected answer of each program call is known in closed form: spectra,
multiplicities, spectral projections, block masks, singular values and
norm values.  Only phi_spec touches leafkit, to build its norming-function
objects; the checks never compare against a stored copy of the program's
output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """The program returned a result that contradicts the known answer."""


class OpFailed(Exception):
    """The operation did not complete as its contract promises (for a CLI
    call: an exit code other than the expected one)."""


@dataclass
class Op:
    """One call into the program.

    name is the traced layer, ``<module>.<function>``; call runs the
    operation and returns its result; check raises CheckFailed when the
    result is wrong and OpFailed when the operation itself failed.
    peak marks calls whose tracemalloc peak the traced run records.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    peak: bool = False


@dataclass
class Workload:
    """The operations of one workload: a small and a large tier, each a
    list of input shapes with one list of operations per shape.  One
    round runs the small tier small_repeats times, then the large tier
    large_repeats times, so every round attempts the same operations.

    A run of S seconds makes S / round_s rounds.  The warm-up calls each
    operation kind (each traced layer) once, on the first small shape.
    layer_pass, when given, runs in the traced run only: it takes the
    tracer and a list for wrong outputs, and returns extra per-layer
    figures as {layer: (busy_s, calls)}.

    large_scaled says whether the large tier's throughput is scaled by
    the calibration factor (see bench/run.py).  It is false where the
    large tier is LAPACK-bound, which the host's slow phases, the ones
    the interpreter-bound kernel sees, barely reach.
    """

    small_shapes: list[list[Op]]
    large_shapes: list[list[Op]]
    small_repeats: int
    round_s: float  # wall time of one round at the commit that defined the benchmark
    large_repeats: int = 1
    large_scaled: bool = True
    layer_pass: Callable[[object, list], dict] | None = None

    @property
    def small(self) -> list[Op]:
        return [op for shape in self.small_shapes for op in shape]

    @property
    def large(self) -> list[Op]:
        return [op for shape in self.large_shapes for op in shape]

    def warm_up(self) -> None:
        seen = set()
        for op in self.small_shapes[0]:
            if op.name in seen:
                continue
            seen.add(op.name)
            try:
                op.check(op.call())
            except Exception:  # the rounds count and report every failure
                pass


def expect(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def expect_close(a, b, tol: float, what: str) -> None:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise CheckFailed(f"{what}: shape {a.shape} != {b.shape}")
    dev = float(np.max(np.abs(a - b))) if a.size else 0.0
    if not dev <= tol:
        raise CheckFailed(f"{what}: deviation {dev:.3e} > {tol:.3e}")


def spec_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


# ------------------------------------------------------------ matrices


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def skew(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g - g.conj().T)


def hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def expm_skew(k: np.ndarray) -> np.ndarray:
    """exp(K) for skew-Hermitian K through the eigensystem of -iK."""
    h = -1j * k
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    return (v * np.exp(1j * w)) @ v.conj().T


def near_identity_unitary(n: int, rng: np.random.Generator, angle: float) -> np.ndarray:
    """exp(K) with K skew-Hermitian of spectral norm exactly angle, so
    ||V - 1|| = 2 sin(angle / 2) whatever the seed."""
    k = skew(n, rng)
    return expm_skew(k * (angle / spec_norm(k)))


def cluster_values(rng: np.random.Generator, p: int, gap: float) -> np.ndarray:
    """p ascending cluster values, symmetric about 0 up to a jitter of
    0.2 gap, none within 0.3 gap of 0, consecutive gaps at least 0.6 gap."""
    offsets = np.arange(p) - p // 2 + 0.5
    return gap * (offsets + rng.uniform(-0.2, 0.2, size=p))


@dataclass
class Spectral:
    """A Hermitian matrix U diag(values repeated by mults) U* with known
    frame U, cluster values and multiplicities."""

    frame: np.ndarray = field(repr=False)
    values: np.ndarray
    mults: tuple[int, ...]

    @property
    def n(self) -> int:
        return int(sum(self.mults))

    @property
    def blocks(self) -> list[np.ndarray]:
        edges = np.cumsum((0,) + tuple(self.mults))
        return [np.arange(edges[i], edges[i + 1]) for i in range(len(self.mults))]

    @property
    def diag(self) -> np.ndarray:
        return np.repeat(self.values, self.mults)

    @property
    def isotropy_dim(self) -> int:
        """sum of m_i^2: the dimension of the commutant, of Ker(ad T) and
        of the radical of the orbit form."""
        return int(sum(m * m for m in self.mults))

    @property
    def polarization_dim(self) -> int:
        """sum of m_i m_j over cluster pairs i <= j, (n^2 + sum m_i^2) / 2."""
        return (self.n * self.n + self.isotropy_dim) // 2

    def with_values(self, values) -> np.ndarray:
        d = np.repeat(np.asarray(values, dtype=float), self.mults)
        return (self.frame * d) @ self.frame.conj().T

    @property
    def matrix(self) -> np.ndarray:
        return self.with_values(self.values)

    def mask(self) -> np.ndarray:
        m = np.zeros((self.n, self.n), dtype=bool)
        for b in self.blocks:
            m[np.ix_(b, b)] = True
        return m

    def basis(self, i: int) -> np.ndarray:
        return self.frame[:, self.blocks[i]]

    def projection(self, i: int) -> np.ndarray:
        b = self.basis(i)
        return b @ b.conj().T

    def pinch(self, s: np.ndarray) -> np.ndarray:
        """Block mask applied to S in the known eigenframe."""
        u = self.frame
        return u @ ((u.conj().T @ s @ u) * self.mask()) @ u.conj().T

    def block_unitary(self, rng: np.random.Generator) -> np.ndarray:
        """A unitary commuting with the matrix: Haar blocks on each
        eigenspace, in the known frame."""
        g = np.zeros((self.n, self.n), dtype=np.complex128)
        for b in self.blocks:
            g[np.ix_(b, b)] = haar_unitary(len(b), rng)
        return self.frame @ g @ self.frame.conj().T

    def off_block(self, z: np.ndarray) -> float:
        """Largest entry of Z outside the block mask, in the frame."""
        u = self.frame
        return float(np.max(np.abs((u.conj().T @ z @ u)[~self.mask()]), initial=0.0))


def check_section(ref: Spectral, phi: np.ndarray, v: np.ndarray) -> None:
    """phi is unitary, phi* T phi = V* T V relative to n ||T||, and phi is
    the canonical point of its fibre: each corner B_i* phi B_i is the
    positive factor Q_i of the polar decomposition of B_i* V B_i, so it is
    Hermitian positive definite (phi = V itself fails this)."""
    n = ref.n
    scale = n * max(1.0, float(np.max(np.abs(ref.values))))
    t = ref.matrix
    expect_close(phi.conj().T @ phi, np.eye(n), 1e-10 * n, "phi not unitary")
    expect_close(phi.conj().T @ t @ phi, v.conj().T @ t @ v, 1e-12 * scale, "phi* T phi != V* T V")
    for i in range(len(ref.mults)):
        b = ref.basis(i)
        corner = b.conj().T @ phi @ b
        expect_close(corner, corner.conj().T, 1e-10 * n, f"corner {i} of phi not Hermitian")
        expect(np.linalg.eigvalsh(0.5 * (corner + corner.conj().T))[0] > 0, f"corner {i} of phi not positive")


def offdiag_violation(ref: Spectral, w: np.ndarray, label: str) -> tuple[float, float]:
    """The gap-weighted off-diagonal bound from the m_i x m_j cores
    B_i* W B_j, which carry the singular values of E_i W E_j: returns
    (max over i != j of ||E_i W E_j|| |lambda_i - lambda_j| - ||[T, W]||,
    ||[T, W]||) in the norm of label."""
    t = ref.matrix
    comm = phi_value(label, np.linalg.svd(t @ w - w @ t, compute_uv=False))
    p = len(ref.mults)
    worst = max(
        phi_value(label, np.linalg.svd(ref.basis(i).conj().T @ w @ ref.basis(j), compute_uv=False))
        * abs(ref.values[i] - ref.values[j]) - comm
        for i in range(p) for j in range(p) if i != j
    )
    return worst, comm


def spectral(rng: np.random.Generator, mults, gap: float = 1.0) -> Spectral:
    return Spectral(haar_unitary(sum(mults), rng), cluster_values(rng, len(mults), gap), tuple(mults))


def with_singular_values(rng: np.random.Generator, sv: np.ndarray, n: int):
    """A = W diag(sv) X* with Haar W, X; returns (A, W, X)."""
    w = haar_unitary(n, rng)
    x = haar_unitary(n, rng)
    d = np.zeros(n)
    d[: len(sv)] = sv
    return (w * d) @ x.conj().T, w, x


def singular_spectrum(rng: np.random.Generator, n: int) -> np.ndarray:
    """n distinct descending singular values in [0.5, 2]."""
    return np.sort(rng.uniform(0.5, 2.0, size=n))[::-1]


# ------------------------------------------------- norming functions


# The norming functions the benchmark uses, by CLI spelling.  Their
# values on a descending nonnegative sequence are computed here in
# closed form, independently of leafkit.norming.
PHIS = ("schatten:1", "schatten:2", "max", "lorentz:power:0.5", "lorentz-dual:power:0.5")
ADJOINT = {
    "schatten:1": "max",
    "schatten:2": "schatten:2",
    "max": "schatten:1",
    "lorentz:power:0.5": "lorentz-dual:power:0.5",
    "lorentz-dual:power:0.5": "lorentz:power:0.5",
}


def phi_value(label: str, sv) -> float:
    s = np.sort(np.abs(np.asarray(sv, dtype=float)))[::-1]
    if label == "schatten:1":
        return float(s.sum())
    if label == "schatten:2":
        return float(np.sqrt(np.sum(s * s)))
    if label == "max":
        return float(s[0])
    w = np.arange(1, len(s) + 1, dtype=float) ** -0.5
    if label == "lorentz:power:0.5":
        return float(s @ w)
    if label == "lorentz-dual:power:0.5":
        return float(np.max(np.cumsum(s) / np.cumsum(w)))
    raise ValueError(label)


def phi_spec(label: str):
    """The leafkit spec object for a label (imports leafkit lazily)."""
    from leafkit import norming

    if label == "max":
        return norming.max_norm()
    kind, _, arg = label.partition(":")
    if kind == "schatten":
        return norming.schatten(float(arg))
    pi = norming.PiSequence("power", alpha=float(arg.split(":")[1]))
    return norming.lorentz(pi) if kind == "lorentz" else norming.lorentz_dual(pi)
