"""Symmetric norming functions and the ideal norms they induce.

A symmetric norming function Phi is a permutation-invariant norm on
finitely supported real sequences with Phi((1,0,...)) = 1.  Supported
closed forms:

* ``schatten(p)``          -- the l^p gauge, p in [1, inf]; ``sum_norm()``
  and ``max_norm()`` are the p = 1 and p = inf aliases;
* ``lorentz(pi)``          -- weighted sum  sum_j pi_j xi^down_j;
* ``lorentz_dual(pi)``     -- sup_n (xi^down_1 + ... + xi^down_n)/(pi_1 + ... + pi_n),

where pi is a normalized nonincreasing positive weight sequence whose
series diverges.  Applied to the singular values of a matrix these gauges
give the Schatten / Lorentz ideal norms; adjoint gauges pair under the
trace form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import RankTooHigh, UnsupportedKind
from .opcore import (
    as_matrix,
    function_calculus,
    require_same_size,
    require_square,
    singular_values,
)

RANK_REL_TOL = 1e-10
# largest step of the regularity ratios that pi_regularity counts as stable
TAIL_SLACK = 1e-6


@dataclass(frozen=True)
class PiSequence:
    """Weight sequence pi_1 = 1 >= pi_2 >= ... > 0 with divergent sum.

    rule is one of:

    * ``"power"``         -- pi_j = j**(-alpha) with 0 <= alpha < 1
      (alpha < 1 keeps the series divergent; alpha = 0 is pi_j = 1);
    * ``"prefix_power"``  -- an explicit nonincreasing prefix, then the
      power tail continuing from the prefix length.

    horizon bounds the index range used when a supremum over all n has to
    be evaluated numerically.
    """

    rule: str = "power"
    alpha: float = 0.0
    prefix: tuple[float, ...] = ()
    horizon: int = 100_000

    def __post_init__(self):
        if self.rule not in ("power", "prefix_power"):
            raise ValueError(f"unknown pi rule {self.rule!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be a positive integer")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("power exponent must satisfy 0 <= alpha < 1")
        if self.rule == "prefix_power":
            p = np.asarray(self.prefix, dtype=float)
            if len(p) == 0:
                raise ValueError("prefix_power requires a nonempty prefix")
            if p[0] != 1.0:
                raise ValueError("pi_1 must equal 1")
            if np.any(p <= 0) or np.any(np.diff(p) > 0):
                raise ValueError("prefix must be positive and nonincreasing")
            tail_start = float(len(p) + 1) ** (-self.alpha)
            if tail_start > p[-1]:
                raise ValueError("power tail must continue nonincreasingly from the prefix")

    def values(self, m: int) -> np.ndarray:
        """First m weights."""
        out = np.arange(1, m + 1, dtype=float) ** (-self.alpha)
        if self.rule == "prefix_power":
            k = min(len(self.prefix), m)
            out[:k] = self.prefix[:k]
        return out


@dataclass(frozen=True)
class NormingFunctionSpec:
    """A symmetric norming function in closed form.

    kind is ``"schatten"`` (with p), ``"lorentz_pi"`` or ``"lorentz_dual"``
    (with pi).  The ``sum`` / ``max`` aliases normalize to schatten(1) /
    schatten(inf) at construction, so structural equality identifies them.
    """

    kind: str
    p: float | None = None
    pi: PiSequence | None = None

    def __post_init__(self):
        if self.kind == "schatten":
            if self.p is None or not (self.p >= 1.0):
                raise ValueError("schatten requires p in [1, inf]")
        elif self.kind in ("lorentz_pi", "lorentz_dual"):
            if self.pi is None:
                raise ValueError(f"{self.kind} requires a pi sequence")
        else:
            raise ValueError(f"unknown norming-function kind {self.kind!r}")

    def label(self) -> str:
        if self.kind == "schatten":
            return "schatten:inf" if np.isinf(self.p) else f"schatten:{self.p:g}"
        tag = "lorentz" if self.kind == "lorentz_pi" else "lorentz-dual"
        rule = "power" if self.pi.rule == "power" else "prefix-power"
        return f"{tag}:{rule}:{self.pi.alpha:g}"


def schatten(p: float) -> NormingFunctionSpec:
    return NormingFunctionSpec("schatten", p=float(p))


def sum_norm() -> NormingFunctionSpec:
    """Trace-class gauge: alias for schatten(1)."""
    return schatten(1.0)


def max_norm() -> NormingFunctionSpec:
    """Operator-norm gauge: alias for schatten(inf)."""
    return schatten(np.inf)


def lorentz(pi: PiSequence) -> NormingFunctionSpec:
    return NormingFunctionSpec("lorentz_pi", pi=pi)


def lorentz_dual(pi: PiSequence) -> NormingFunctionSpec:
    return NormingFunctionSpec("lorentz_dual", pi=pi)


def _sorted_desc_abs(xi) -> np.ndarray:
    # contiguous, so a power takes the path it takes on a row of a stack
    return -np.sort(-np.abs(np.asarray(xi, dtype=float).ravel()))


def eval_snf_many(phi: NormingFunctionSpec, rows: np.ndarray) -> np.ndarray:
    """Evaluate phi on each row of a 2-D array whose rows are already
    sorted by descending absolute value (entries nonnegative)."""
    rows = np.asarray(rows, dtype=float)
    m = rows.shape[1]
    if m == 0:
        return np.zeros(rows.shape[0])
    if phi.kind == "schatten":
        if np.isinf(phi.p):
            return rows[:, 0].copy()
        if phi.p == 1.0:
            return rows.sum(axis=1)
        return (rows ** phi.p).sum(axis=1) ** (1.0 / phi.p)
    w = phi.pi.values(m)
    if phi.kind == "lorentz_pi":
        # summed in order, so that a row's value does not depend on the
        # rows stacked with it (a BLAS matrix-vector product may change the
        # order with the row count)
        return np.cumsum(rows * w, axis=1)[:, -1]
    ratios = np.cumsum(rows, axis=1) / np.cumsum(w)
    return ratios.max(axis=1)


def eval_snf(phi: NormingFunctionSpec, xi) -> float:
    """Value of the symmetric norming function on a finite real sequence.

    The input is sorted internally by descending absolute value, so the
    order and signs of the entries never matter.
    """
    x = _sorted_desc_abs(xi)
    if len(x) == 0:
        return 0.0
    return float(eval_snf_many(phi, x[None, :])[0])


def op_norm(phi: NormingFunctionSpec, a) -> float:
    """Ideal norm: phi evaluated on the singular values."""
    return eval_snf(phi, singular_values(a))


def adjoint_snf(phi: NormingFunctionSpec) -> NormingFunctionSpec:
    """Closed-form adjoint gauge: schatten(p) <-> schatten(q) with
    1/p + 1/q = 1, and lorentz_pi(pi) <-> lorentz_dual(pi).  The map is an
    involution."""
    if phi.kind == "schatten":
        p = phi.p
        if np.isinf(p):
            return schatten(1.0)
        if p == 1.0:
            return schatten(np.inf)
        return schatten(p / (p - 1.0))
    if phi.kind == "lorentz_pi":
        return lorentz_dual(phi.pi)
    if phi.kind == "lorentz_dual":
        return lorentz(phi.pi)
    raise UnsupportedKind(f"no closed-form adjoint for kind {phi.kind!r}")


def adjoint_defect(phi: NormingFunctionSpec, eta) -> float:
    """One-sided check of the adjoint gauge.

    The adjoint value at eta is a supremum of pairing ratios
    sum_j xi_j eta_j / phi(xi) over nonincreasing nonnegative xi; the
    closed form must dominate every candidate ratio, so the returned
    defect (closed form minus best candidate ratio) is >= -1e-9.  The
    candidates are the extremizers that attain the supremum (Gohberg-Krein,
    ch. III): eta itself, the indicator prefixes, the Hoelder-conjugate
    power of eta and the pi prefixes, each one row of one array.
    """
    eta = _sorted_desc_abs(eta)
    target = eval_snf(adjoint_snf(phi), eta)
    m = len(eta)
    prefixes = np.tri(m)  # row k - 1: the indicator of the first k places
    rows = [eta[None, :], prefixes]
    if phi.kind == "schatten" and not np.isinf(phi.p) and phi.p > 1.0:
        q = phi.p / (phi.p - 1.0)
        rows.append(eta[None, :] ** (q - 1.0))
    if phi.kind in ("lorentz_pi", "lorentz_dual"):
        rows.append(prefixes * phi.pi.values(m))
    rows = np.concatenate(rows)
    denom = eval_snf_many(phi, rows)
    live = denom > 0.0
    best = float((rows[live] @ eta / denom[live]).max(initial=0.0))
    return target - best


@dataclass(frozen=True)
class DualityGap:
    pairing: complex
    bound: float
    gap: float


def duality_gap(phi: NormingFunctionSpec, t, s) -> DualityGap:
    """Trace-pairing bound |Tr(TS)| <= ||T||_{phi*} ||S||_phi.

    gap = bound - |pairing| is nonnegative up to roundoff, which grows
    with the bound.
    """
    tm = require_square(t, "T")
    sm = require_square(s, "S")
    require_same_size(tm, sm)
    pairing = complex(np.einsum("ij,ji->", tm, sm))
    bound = op_norm(adjoint_snf(phi), tm) * op_norm(phi, sm)
    return DualityGap(pairing=pairing, bound=bound, gap=bound - abs(pairing))


def numerical_rank(a: np.ndarray) -> int:
    s = singular_values(a)
    if len(s) == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_REL_TOL * s[0]))


@dataclass(frozen=True)
class SandwichResult:
    lower_ok: bool
    upper_ok: bool
    operator_dist: float
    ideal_dist: float


def rank_sandwich_check(phi: NormingFunctionSpec, k: int, f1, f2) -> SandwichResult:
    """Two-sided equivalence of the operator and ideal norms on rank-<=k
    differences:  ||F1-F2|| <= ||F1-F2||_phi <= 2k ||F1-F2||."""
    f1 = as_matrix(f1, "F1")
    f2 = as_matrix(f2, "F2")
    require_same_size(f1, f2)
    if k < 1:
        raise ValueError("k must be a positive integer")
    for name, f in (("F1", f1), ("F2", f2)):
        r = numerical_rank(f)
        if r > k:
            raise RankTooHigh(f"rank({name}) = {r} exceeds k = {k}")
    s = singular_values(f1 - f2)
    a = float(s.max(initial=0.0))
    b = eval_snf(phi, s)
    return SandwichResult(
        lower_ok=a <= b + 1e-9,
        upper_ok=b <= 2 * k * a + 1e-9,
        operator_dist=a,
        ideal_dist=b,
    )


def calculus_monotonicity_check(phi: NormingFunctionSpec, a, f: Callable[[float], float]) -> bool:
    """True iff ||f(A)||_phi <= ||A||_phi + 1e-9 for the given scalar map
    (nondecreasing with 0 <= f(t) <= t on [0, 1]) applied to a positive
    contraction."""
    fa = function_calculus(a, f)
    return op_norm(phi, fa) <= op_norm(phi, a) + 1e-9


@dataclass(frozen=True, eq=False)
class PiRegularity:
    ratios: np.ndarray = field(repr=False)
    sup_over_horizon: float
    monotone_tail: bool


def pi_regularity(pi: PiSequence) -> PiRegularity:
    """Finite-horizon report on the regularity ratios
    (pi_1 + ... + pi_n) / (n pi_n).

    Regularity proper is a supremum over all n and is not decidable from
    a finite prefix, so only the horizon sup is reported, together with a
    stabilization heuristic: whether the ratios have stopped growing
    (each step increases by at most TAIL_SLACK) over the last half of the
    horizon.
    """
    m = pi.horizon
    w = pi.values(m)
    n = np.arange(1, m + 1, dtype=float)
    ratios = np.cumsum(w) / (n * w)
    tail = ratios[m // 2 :]
    monotone_tail = bool(np.all(np.diff(tail) <= TAIL_SLACK))
    return PiRegularity(
        ratios=ratios,
        sup_over_horizon=float(ratios.max()),
        monotone_tail=monotone_tail,
    )
