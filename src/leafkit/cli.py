"""Command-line front end.

Every module contract is reachable from a subcommand.  Matrices come from
JSON matrix files; each invocation prints exactly one JSON report on
stdout (keys sorted, so equal inputs give byte-identical output) and uses
the exit code to classify the outcome:

* 0 -- the command ran and every contract it checks holds ("pass": true);
* 1 -- the command ran but a contract failed;
* 2 -- usage error (bad arguments or unreadable/malformed input files);
* 3 -- numerical precondition violated (e.g. a spectral-block compression
  too close to singular for the cross-section construction).

The default RNG seed is 0, overridden by the LEAFKIT_SEED environment
variable, overridden by --seed; a seed that is not an integer >= 0 is a
usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import cross_section as cs
from . import norming, orbits, states, symplectic
from .errors import ParseError, PreconditionError, ShapeError
from .matrixio import matrix_to_obj, parse_matrix, write_matrix
from .opcore import default_cluster_tol, matrix_exp, singular_values, spectral_norm

PRECONDITION_EXIT = 3
CONTRACT_EXIT = 1
USAGE_EXIT = 2

DEFAULT_PHI_SET = (
    "schatten:1",
    "schatten:2",
    "max",
    "lorentz:power:0.5",
    "lorentz-dual:power:0.5",
)


@dataclass
class Report:
    command: str
    inputs: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    ok: bool = True


def _json_default(value):
    """json.dumps hook for the numpy and complex values in reports."""
    if isinstance(value, np.ndarray):
        return matrix_to_obj(value) if value.ndim == 2 else value.tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.generic):  # np.bool_, np.integer, np.floating, ...
        return value.item()
    raise TypeError(f"cannot serialize {type(value)!r}")


def emit_report(report: Report) -> str:
    obj = {
        "command": report.command,
        "inputs": report.inputs,
        "results": report.results,
        "tolerances": report.tolerances,
        "pass": bool(report.ok),
    }
    return json.dumps(obj, sort_keys=True, indent=2, default=_json_default)


def parse_phi_spec(spec: str) -> norming.NormingFunctionSpec:
    """Parse a norming-function spec string: schatten:p (p a number or
    'inf'), lorentz:power:alpha, lorentz-dual:power:alpha, sum, max."""
    if spec == "sum":
        return norming.sum_norm()
    if spec == "max":
        return norming.max_norm()
    parts = spec.split(":")
    try:
        if parts[0] == "schatten" and len(parts) == 2:
            p = np.inf if parts[1] in ("inf", "infinity") else float(parts[1])
            return norming.schatten(p)
        if parts[0] in ("lorentz", "lorentz-dual") and len(parts) == 3 and parts[1] == "power":
            pi = norming.PiSequence("power", alpha=float(parts[2]))
            make = norming.lorentz if parts[0] == "lorentz" else norming.lorentz_dual
            return make(pi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad norming-function spec {spec!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(
        f"bad norming-function spec {spec!r} (expected schatten:p, "
        "lorentz:power:alpha, lorentz-dual:power:alpha, sum, or max)"
    )


def _ranged(kind, name: str, accept, rule: str):
    """An argparse type: kind(text), kept only when accept(value) holds."""

    def parse(text: str):
        value = kind(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"expected {rule}, got {text!r}")
        return value

    parse.__name__ = name
    return parse


positive_int = _ranged(int, "positive_int", lambda v: v >= 1, "an integer >= 1")
seed_int = _ranged(int, "seed_int", lambda v: v >= 0, "an integer >= 0")
nonnegative_float = _ranged(float, "nonnegative_float", lambda v: v >= 0.0, "a number >= 0")
power_alpha = _ranged(float, "power_alpha", lambda v: 0.0 <= v < 1.0, "a number in [0, 1)")


def _phi_set():
    return [parse_phi_spec(s) for s in DEFAULT_PHI_SET]


# ---------------------------------------------------------------- handlers


def cmd_norm(args) -> Report:
    a = parse_matrix(args.matrix)
    phi = args.phi
    value = norming.op_norm(phi, a)
    return Report(
        command="norm",
        inputs={"matrix": args.matrix, "phi": phi.label()},
        results={"norm": value, "singular_values": singular_values(a)},
    )


def cmd_dual_check(args) -> Report:
    t = parse_matrix(args.T)
    s = parse_matrix(args.S)
    res = norming.duality_gap(args.phi, t, s)
    ok = res.gap >= -1e-9
    return Report(
        command="dual-check",
        inputs={"T": args.T, "S": args.S, "phi": args.phi.label()},
        results={"pairing": res.pairing, "bound": res.bound, "gap": res.gap},
        tolerances={"gap_floor": -1e-9},
        ok=ok,
    )


def cmd_adjoint(args) -> Report:
    adj = norming.adjoint_snf(args.phi)
    involution_ok = norming.adjoint_snf(adj) == args.phi
    return Report(
        command="adjoint",
        inputs={"phi": args.phi.label()},
        results={"adjoint": adj.label(), "involution_ok": involution_ok},
        ok=involution_ok,
    )


def cmd_sandwich(args) -> Report:
    f1 = parse_matrix(args.F1)
    f2 = parse_matrix(args.F2)
    res = norming.rank_sandwich_check(args.phi, args.k, f1, f2)
    return Report(
        command="sandwich",
        inputs={"F1": args.F1, "F2": args.F2, "phi": args.phi.label(), "k": args.k},
        results={
            "lower_ok": res.lower_ok,
            "upper_ok": res.upper_ok,
            "operator_dist": res.operator_dist,
            "ideal_dist": res.ideal_dist,
        },
        tolerances={"slack": 1e-9},
        ok=res.lower_ok and res.upper_ok,
    )


def cmd_pi_regularity(args) -> Report:
    pi = norming.PiSequence("power", alpha=args.alpha, horizon=args.horizon)
    res = norming.pi_regularity(pi)
    return Report(
        command="pi-regularity",
        inputs={"alpha": args.alpha, "horizon": args.horizon},
        results={
            "sup_over_horizon": res.sup_over_horizon,
            "monotone_tail": res.monotone_tail,
            "final_ratio": float(res.ratios[-1]),
        },
    )


def cmd_support(args) -> Report:
    rho = parse_matrix(args.rho)
    phi = states.DensityFunctional(rho)
    p = states.support_projection(phi)
    rng = np.random.default_rng(args.seed)
    n = p.shape[0]
    worst = 0.0
    for _ in range(args.samples):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        worst = max(worst, abs(np.trace(rho @ x) - np.trace(rho @ p @ x @ p)))
    idem = spectral_norm(p @ p - p)
    ok = worst <= 1e-8 * max(1.0, spectral_norm(rho)) and idem <= 1e-10
    return Report(
        command="support",
        inputs={"rho": args.rho, "samples": args.samples, "seed": args.seed},
        results={
            "rank": int(round(np.trace(p).real)),
            "idempotency_residual": idem,
            "reproduction_residual": worst,
        },
        tolerances={"reproduction": 1e-8, "idempotency": 1e-10},
        ok=ok,
    )


def cmd_jordan(args) -> Report:
    rho = parse_matrix(args.rho)
    phi = states.DensityFunctional(rho)
    pair = states.jordan_decompose(phi)
    recon = spectral_norm(pair.positive_part - pair.negative_part - phi.rho)
    orth = spectral_norm(pair.support_pos @ pair.support_neg)
    ok = recon <= 1e-10 and orth <= 1e-10
    return Report(
        command="jordan",
        inputs={"rho": args.rho},
        results={
            "reconstruction_residual": recon,
            "support_orthogonality": orth,
            "positive_rank": int(round(np.trace(pair.support_pos).real)),
            "negative_rank": int(round(np.trace(pair.support_neg).real)),
        },
        tolerances={"reconstruction": 1e-10, "orthogonality": 1e-10},
        ok=ok,
    )


def cmd_centralizer(args) -> Report:
    rho = parse_matrix(args.rho)
    phi = states.DensityFunctional(rho)
    basis = states.centralizer_basis(phi)
    worst = max(
        (spectral_norm(b @ phi.rho - phi.rho @ b) for b in basis), default=0.0
    )
    expected = orbits.isotropy_dimension(phi.rho)
    ok = len(basis) == expected and worst <= 1e-10 * max(1.0, spectral_norm(rho))
    return Report(
        command="centralizer",
        inputs={"rho": args.rho},
        results={
            "dimension": len(basis),
            "expected_dimension": expected,
            "max_commutator": worst,
        },
        tolerances={"commutator": 1e-10},
        ok=ok,
    )


def cmd_faithful(args) -> Report:
    rho = parse_matrix(args.rho)
    phi = states.DensityFunctional(rho)
    w = np.linalg.eigvalsh(phi.rho)
    return Report(
        command="faithful",
        inputs={"rho": args.rho, "tol": args.tol},
        results={
            "faithful": states.is_faithful(phi, args.tol),
            "min_eigenvalue": float(w[0]),
        },
        tolerances={"tol": args.tol},
    )


def cmd_pinch(args) -> Report:
    t = parse_matrix(args.T)
    s = parse_matrix(args.S)
    e = orbits.pinching(t, s)
    idem = spectral_norm(orbits.pinching(t, e) - e)
    comm = spectral_norm(t @ e - e @ t)
    excess = max(
        norming.op_norm(phi, e) - norming.op_norm(phi, s) for phi in _phi_set()
    )
    ok = idem <= 1e-10 and comm <= 1e-9 * max(1.0, spectral_norm(t)) and excess <= 1e-9
    return Report(
        command="pinch",
        inputs={"T": args.T, "S": args.S},
        results={
            "idempotency_residual": idem,
            "commutation_residual": comm,
            "contraction_max_excess": excess,
        },
        tolerances={"idempotency": 1e-10, "commutation": 1e-9, "contraction": 1e-9},
        ok=ok,
    )


def cmd_split(args) -> Report:
    t = parse_matrix(args.T)
    res = orbits.kernel_range_split(t)
    n = t.shape[0]
    kd, rd = len(res.kernel_basis), len(res.range_basis)
    ok = res.residual <= 1e-9 and kd + rd == n * n
    return Report(
        command="split",
        inputs={"T": args.T},
        results={
            "kernel_dim": kd,
            "range_dim": rd,
            "total_dim": kd + rd,
            "ambient_dim": n * n,
            "residual": res.residual,
        },
        tolerances={"residual": 1e-9},
        ok=ok,
    )


def cmd_omega(args) -> Report:
    t = parse_matrix(args.T)
    x = parse_matrix(args.X)
    y = parse_matrix(args.Y)
    return Report(
        command="omega",
        inputs={"T": args.T, "X": args.X, "Y": args.Y},
        results={"value": symplectic.omega(t, x, y)},
    )


def cmd_radical(args) -> Report:
    t = parse_matrix(args.T)
    res = symplectic.radical_check(t, sample_count=args.samples, seed=args.seed)
    return Report(
        command="radical",
        inputs={"T": args.T, "samples": args.samples, "seed": args.seed},
        results={
            "radical_dim": res.radical_dim,
            "isotropy_dim": res.isotropy_dim,
            "match": res.match,
            "sampled_pairing_max": res.sampled_pairing_max,
        },
        ok=res.match,
    )


def cmd_polarization(args) -> Report:
    t = parse_matrix(args.T)
    mask = symplectic.polarization(t)
    props = symplectic.polarization_properties(t, mask, seed=args.seed)
    ok = (
        props.commutation_residual <= 1e-9
        and props.dim_intersection == props.dim_intersection_expected
        and props.dim_sum == props.dim_ambient
        and props.complemented
    )
    return Report(
        command="polarization",
        inputs={"T": args.T, "seed": args.seed},
        results={
            "mask": [list(p) for p in mask.mask],
            "block_thetas": list(mask.thetas),
            "multiplicities": list(mask.multiplicities),
            "dim_p": props.dim_p,
            "dim_intersection": props.dim_intersection,
            "dim_intersection_expected": props.dim_intersection_expected,
            "dim_sum": props.dim_sum,
            "dim_ambient": props.dim_ambient,
            "commutation_residual": props.commutation_residual,
        },
        tolerances={"span_containment": 1e-9},
        ok=ok,
    )


def cmd_kahler_check(args) -> Report:
    t = parse_matrix(args.T)
    res = symplectic.kaehler_check(t, sample_count=args.samples, seed=args.seed)
    ok = res.isotropy_max_abs <= 1e-9 * res.scale and res.positivity_min >= -1e-9 * res.scale
    return Report(
        command="kahler-check",
        inputs={"T": args.T, "samples": args.samples, "seed": args.seed},
        results={
            "isotropy_max_abs": res.isotropy_max_abs,
            "positivity_min": res.positivity_min,
            "scale": res.scale,
        },
        tolerances={"isotropy": 1e-9, "positivity_floor": -1e-9},
        ok=ok,
    )


def cmd_projective_compare(args) -> Report:
    x0 = parse_matrix(args.x0).ravel()
    a1 = parse_matrix(args.a1)
    a2 = parse_matrix(args.a2)
    res = symplectic.projective_form_compare(x0, a1, a2)
    return Report(
        command="projective-compare",
        inputs={"x0": args.x0, "a1": args.a1, "a2": args.a2},
        results={
            "orbit_form": res.orbit_form,
            "geometric_form": res.geometric_form,
            "abs_match": res.abs_match,
        },
        tolerances={"abs_match": 1e-9},
        ok=res.abs_match,
    )


def cmd_orbit_sample(args) -> Report:
    t = parse_matrix(args.T)
    samples = orbits.orbit_sample(t, args.count, args.scale, args.seed)
    dev = 0.0
    w0 = orbits.normal_frame(t, 0.0).values
    for s in samples:
        ws = orbits.normal_frame(s, 0.0).values
        dev = max(dev, float(np.max(np.abs(ws - w0))))
    ok = dev <= 1e-9 * max(1.0, spectral_norm(t))
    if args.out:
        for k, s in enumerate(samples):
            write_matrix(s, f"{args.out}{k}.json")
    return Report(
        command="orbit-sample",
        inputs={"T": args.T, "count": args.count, "scale": args.scale, "seed": args.seed},
        results={"count": len(samples), "max_signature_deviation": dev, "leaf_preserved": ok},
        tolerances={"signature": 1e-9},
        ok=ok,
    )


def cmd_leaf_compare(args) -> Report:
    a = parse_matrix(args.A)
    b = parse_matrix(args.B)
    dev = orbits.eigenvalue_deviation(a, b)
    same = dev <= args.tol
    return Report(
        command="leaf-compare",
        inputs={"A": args.A, "B": args.B, "tol": args.tol},
        results={"same_leaf": same, "max_eigenvalue_deviation": dev},
        tolerances={"tol": args.tol},
        ok=same,
    )


def cmd_cross_section(args) -> Report:
    t = parse_matrix(args.T)
    v = parse_matrix(args.V)
    ref = cs.build_reference(t)
    res = cs.cross_section_phi(ref, v, corner_tol=args.corner_tol)
    n = t.shape[0]
    unitary_defect = spectral_norm(res.phi.conj().T @ res.phi - np.eye(n))
    psi_comm = spectral_norm(res.psi @ ref.T - ref.T @ res.psi)
    ok = (
        res.residual <= args.tol
        and unitary_defect <= 1e-9
        and psi_comm <= 1e-9 * max(1.0, spectral_norm(t))
    )
    return Report(
        command="cross-section",
        inputs={"T": args.T, "V": args.V},
        results={
            "residual": res.residual,
            "corner_min_sv": res.corner_min_sv,
            "phi": res.phi,
            "phi_unitary_defect": unitary_defect,
            "psi_commutation": psi_comm,
        },
        tolerances={"residual": args.tol, "corner": args.corner_tol, "unitary": 1e-9},
        ok=ok,
    )


def cmd_well_defined(args) -> Report:
    t = parse_matrix(args.T)
    v = parse_matrix(args.V)
    g = parse_matrix(args.G)
    ref = cs.build_reference(t)
    dev = cs.well_definedness_check(ref, v, g)
    ok = dev <= 1e-8
    return Report(
        command="well-defined",
        inputs={"T": args.T, "V": args.V, "G": args.G},
        results={"deviation": dev},
        tolerances={"deviation": 1e-8},
        ok=ok,
    )


def cmd_continuity(args) -> Report:
    t = parse_matrix(args.T)
    a = parse_matrix(args.A)
    ref = cs.build_reference(t)
    vs = [matrix_exp(2.0 ** (-k) * a) for k in range(1, args.steps + 1)]
    records = cs.continuity_modulus(ref, args.phi, vs)
    ops = [r.op_dist for r in records]
    phis = [r.phi_dist for r in records]
    pairs = violations = 0
    for k in range(len(records)):
        for j in range(len(records)):
            if ops[k] <= ops[j] / 2.0:
                pairs += 1
                if phis[k] > phis[j] + 1e-9:
                    violations += 1
    trend_ok = violations <= 0.05 * pairs if pairs else True
    limit_ok = (ops[-1] > 1e-8) or (phis[-1] <= 1e-6)
    return Report(
        command="continuity",
        inputs={"T": args.T, "A": args.A, "phi": args.phi.label(), "steps": args.steps},
        results={
            "op_dists": ops,
            "phi_dists": phis,
            "final_op_dist": ops[-1],
            "final_phi_dist": phis[-1],
            "trend_violation_fraction": (violations / pairs) if pairs else 0.0,
        },
        tolerances={"trend_fraction": 0.05, "final_phi": 1e-6, "final_op": 1e-8},
        ok=trend_ok and limit_ok,
    )


def cmd_offdiag_bound(args) -> Report:
    t = parse_matrix(args.T)
    w = parse_matrix(args.W)
    ref = cs.build_reference(t)
    res = cs.offdiag_bound_check(ref, args.phi, w)
    ok = res.max_violation <= 1e-9
    return Report(
        command="offdiag-bound",
        inputs={"T": args.T, "W": args.W, "phi": args.phi.label()},
        results={"max_violation": res.max_violation},
        tolerances={"violation": 1e-9},
        ok=ok,
    )


def cmd_minpoly(args) -> Report:
    t = parse_matrix(args.T)
    poly = cs.minimal_polynomial(t, args.tol)
    roots = poly.roots()
    n = t.shape[0]
    value = np.eye(n, dtype=np.complex128)
    for r in np.sort(roots.real):
        value = value @ (t - r * np.eye(n))
    tol = args.tol if args.tol is not None else default_cluster_tol(t)
    bound = tol * (1.0 + spectral_norm(t)) ** poly.degree()
    residual = spectral_norm(value)
    ok = residual <= bound
    return Report(
        command="minpoly",
        inputs={"T": args.T, "tol": args.tol},
        results={
            "coefficients": [float(c) for c in poly.coef],
            "degree": int(poly.degree()),
            "annihilation_residual": residual,
            "bound": bound,
        },
        tolerances={"annihilation": bound},
        ok=ok,
    )


def cmd_algebra_dim(args) -> Report:
    t = parse_matrix(args.T)
    dim = cs.generated_algebra_dimension(t, args.tol)
    return Report(
        command="algebra-dim",
        inputs={"T": args.T, "tol": args.tol},
        results={"dimension": dim},
    )


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="leafkit",
        description="Operator-theory toolkit: ideal norms, density-matrix geometry, "
        "coadjoint orbits, and local cross-sections of unitary orbit maps.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, handler, help_):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(handler=handler)
        return sp

    sp = add("norm", cmd_norm, "ideal norm of a matrix")
    sp.add_argument("--phi", type=parse_phi_spec, required=True)
    sp.add_argument("matrix")

    sp = add("dual-check", cmd_dual_check, "trace-pairing duality bound")
    sp.add_argument("--phi", type=parse_phi_spec, required=True)
    sp.add_argument("T")
    sp.add_argument("S")

    sp = add("adjoint", cmd_adjoint, "closed-form adjoint gauge")
    sp.add_argument("--phi", type=parse_phi_spec, required=True)

    sp = add("sandwich", cmd_sandwich, "rank-k norm equivalence bounds")
    sp.add_argument("--phi", type=parse_phi_spec, required=True)
    sp.add_argument("--k", type=positive_int, required=True)
    sp.add_argument("F1")
    sp.add_argument("F2")

    sp = add("pi-regularity", cmd_pi_regularity, "regularity ratios of a power weight sequence")
    sp.add_argument("--alpha", type=power_alpha, default=0.5)
    sp.add_argument("--horizon", type=positive_int, default=100_000)

    sp = add("support", cmd_support, "support projection of a PSD density")
    sp.add_argument("rho")
    sp.add_argument("--samples", type=positive_int, default=20)
    sp.add_argument("--seed", type=seed_int)

    sp = add("jordan", cmd_jordan, "orthogonal-support positive split of a density")
    sp.add_argument("rho")

    sp = add("centralizer", cmd_centralizer, "commutant basis of a density")
    sp.add_argument("rho")

    sp = add("faithful", cmd_faithful, "strict positivity of a density")
    sp.add_argument("rho")
    sp.add_argument("--tol", type=nonnegative_float, default=1e-12)

    sp = add("pinch", cmd_pinch, "block-diagonal compression along spectral blocks")
    sp.add_argument("T")
    sp.add_argument("S")

    sp = add("split", cmd_split, "kernel/range splitting of ad T on skew matrices")
    sp.add_argument("T")

    sp = add("omega", cmd_omega, "orbit 2-form Tr(T[X,Y])")
    sp.add_argument("T")
    sp.add_argument("X")
    sp.add_argument("Y")

    sp = add("radical", cmd_radical, "radical of the orbit form vs isotropy dimension")
    sp.add_argument("T")
    sp.add_argument("--samples", type=positive_int, default=100)
    sp.add_argument("--seed", type=seed_int)

    sp = add("polarization", cmd_polarization, "half-space polarization and its properties")
    sp.add_argument("T")
    sp.add_argument("--seed", type=seed_int)

    sp = add("kahler-check", cmd_kahler_check, "isotropy and positivity of the polarization")
    sp.add_argument("T")
    sp.add_argument("--samples", type=positive_int, default=200)
    sp.add_argument("--seed", type=seed_int)

    sp = add("projective-compare", cmd_projective_compare, "orbit form vs projective-space form")
    sp.add_argument("x0")
    sp.add_argument("a1")
    sp.add_argument("a2")

    sp = add("orbit-sample", cmd_orbit_sample, "random unitary conjugates of a reference")
    sp.add_argument("T")
    sp.add_argument("--count", type=positive_int, default=5)
    sp.add_argument("--scale", type=float, default=0.2)
    sp.add_argument("--seed", type=seed_int)
    sp.add_argument("--out", help="write samples to OUT<k>.json")

    sp = add("leaf-compare", cmd_leaf_compare, "are two matrices on the same orbit")
    sp.add_argument("A")
    sp.add_argument("B")
    sp.add_argument("--tol", type=nonnegative_float, default=1e-9)

    sp = add("cross-section", cmd_cross_section, "canonical unitary over an orbit point")
    sp.add_argument("T")
    sp.add_argument("V")
    sp.add_argument("--tol", type=nonnegative_float, default=1e-8)
    sp.add_argument("--corner-tol", type=float, default=cs.CORNER_TOL)

    sp = add("well-defined", cmd_well_defined, "section independence of the unitary representative")
    sp.add_argument("T")
    sp.add_argument("V")
    sp.add_argument("G")

    sp = add("continuity", cmd_continuity, "section continuity along a shrinking path")
    sp.add_argument("T")
    sp.add_argument("A")
    sp.add_argument("--phi", type=parse_phi_spec, default="schatten:1")
    sp.add_argument("--steps", type=positive_int, default=20)

    sp = add("offdiag-bound", cmd_offdiag_bound, "gap-weighted bound on off-diagonal compressions")
    sp.add_argument("T")
    sp.add_argument("W")
    sp.add_argument("--phi", type=parse_phi_spec, required=True)

    sp = add("minpoly", cmd_minpoly, "monic annihilating polynomial of the clustered spectrum")
    sp.add_argument("T")
    sp.add_argument("--tol", type=nonnegative_float, default=None)

    sp = add("algebra-dim", cmd_algebra_dim, "dimension of the algebra generated by T")
    sp.add_argument("T")
    sp.add_argument("--tol", type=nonnegative_float, default=None)

    return p


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else USAGE_EXIT
    if isinstance(getattr(args, "phi", None), str):
        args.phi = parse_phi_spec(args.phi)
    if getattr(args, "seed", 0) is None:
        env = os.environ.get("LEAFKIT_SEED", "0")
        try:
            args.seed = seed_int(env)
        except (ValueError, argparse.ArgumentTypeError):
            print(f"leafkit: LEAFKIT_SEED: expected an integer >= 0, got {env!r}", file=sys.stderr)
            return USAGE_EXIT
    try:
        report = args.handler(args)
    except (ParseError, ShapeError) as exc:
        print(f"leafkit: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except PreconditionError as exc:
        report = Report(
            command=args.command,
            inputs={},
            results={"error": type(exc).__name__, "message": str(exc)},
            ok=False,
        )
        print(emit_report(report))
        print(f"leafkit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return PRECONDITION_EXIT
    print(emit_report(report))
    return 0 if report.ok else CONTRACT_EXIT


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
