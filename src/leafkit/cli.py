"""Command-line front end.

Every module contract is reachable from a subcommand.  Matrices come from
JSON matrix files; each invocation prints exactly one JSON report on
stdout (keys sorted, so equal inputs give byte-identical output) and uses
the exit code to classify the outcome:

* 0 -- the command ran and every contract it checks holds ("pass": true);
* 1 -- the command ran but a contract failed;
* 2 -- usage error (bad arguments, unreadable/malformed input files, or
  an output file that cannot be written); nothing is printed on stdout;
* 3 -- numerical precondition violated (e.g. a spectral-block compression
  too close to singular for the cross-section construction).

The default RNG seed is 0, overridden by the LEAFKIT_SEED environment
variable, overridden by --seed; a seed that is not an integer >= 0 is a
usage error.

Each subcommand is one handler under a ``@command(name, help, files,
**options)`` decorator, which enters it in ``COMMANDS``.  Every positional
argument is a matrix file; ``files`` names them in order, and each option
``--<name>`` is given by its argparse keyword spec.  ``run_command`` parses
the files, calls ``handler(args, *matrices)`` for ``(results, tolerances,
ok)``, and echoes the file paths and options as the report's ``inputs``
(norming functions by label); an option spec with ``report=False`` is
left out of them.  A handler imports the leafkit modules it calls when
it runs, so one process loads only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ParseError, PreconditionError, ShapeError
from .matrixio import indented_matrix_text, matrix_to_obj, parse_matrix, write_matrix
from .opcore import (
    CORNER_TOL,
    SpectralData,
    hermitian_norm,
    matrix_exp,
    require_hermitian,
    require_same_size,
    require_square,
    singular_values,
    spectral_norm,
    within,
)

if TYPE_CHECKING:
    from .norming import NormingFunctionSpec

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


# stands in for each matrix while json.dumps lays out the rest of a report;
# no report string can hold it, since a NUL reaches none through argv
_MATRIX_SLOT = "\0matrix\0"


def emit_report(report: Report) -> str:
    """The report as json.dumps(..., sort_keys=True, indent=2) writes it.

    json.dumps lays out the skeleton with a slot for each nonempty matrix,
    and indented_matrix_text fills the slots.  With an indent, json.dumps
    runs its pure-Python encoder, which would visit every matrix entry in
    Python."""
    obj = {
        "command": report.command,
        "inputs": report.inputs,
        "results": report.results,
        "tolerances": report.tolerances,
        "pass": bool(report.ok),
    }
    matrices = []

    def default(value):
        if isinstance(value, np.ndarray) and value.ndim == 2 and value.size:
            matrices.append(value)
            return _MATRIX_SLOT
        return _json_default(value)

    parts = json.dumps(obj, sort_keys=True, indent=2, default=default).split(json.dumps(_MATRIX_SLOT))
    out = []
    for part, a in zip(parts, matrices):
        line = part[part.rfind("\n") + 1 :]
        out += [part, indented_matrix_text(a, " " * (len(line) - len(line.lstrip(" "))))]
    out.append(parts[-1])
    return "".join(out)


def parse_phi_spec(spec: str) -> NormingFunctionSpec:
    """Parse a norming-function spec string: schatten:p (p a number or
    'inf'), lorentz:power:alpha, lorentz-dual:power:alpha, sum, max."""
    from . import norming
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
finite_float = _ranged(float, "finite_float", math.isfinite, "a finite number")
nonnegative_float = _ranged(float, "nonnegative_float", lambda v: 0.0 <= v < math.inf, "a finite number >= 0")
power_alpha = _ranged(float, "power_alpha", lambda v: 0.0 <= v < 1.0, "a number in [0, 1)")


def _phi_set():
    return [parse_phi_spec(s) for s in DEFAULT_PHI_SET]


# ---------------------------------------------------------------- command table


@dataclass
class Command:
    handler: Callable
    help: str
    files: tuple[str, ...]
    options: dict[str, dict]


COMMANDS: dict[str, Command] = {}

PHI = dict(type=parse_phi_spec, required=True)
SEED = dict(type=seed_int)
TOL = dict(type=nonnegative_float, default=None)


def command(name: str, help: str, files=(), **options):
    """Enter the decorated handler in COMMANDS as subcommand `name`."""

    def register(handler):
        COMMANDS[name] = Command(handler, help, tuple(files), options)
        return handler

    return register


def _inputs(cmd: Command, args) -> dict:
    inputs = {name: getattr(args, name) for name in cmd.files}
    for dest, spec in cmd.options.items():
        if spec.get("report", True):
            value = getattr(args, dest)
            inputs[dest] = value.label() if spec.get("type") is parse_phi_spec else value
    return inputs


# ---------------------------------------------------------------- handlers


@command("norm", "ideal norm of a matrix", ["matrix"], phi=PHI)
def cmd_norm(args, a):
    from . import norming
    sv = singular_values(a)
    return {"norm": norming.eval_snf(args.phi, sv), "singular_values": sv}, {}, True


@command("dual-check", "trace-pairing duality bound", ["T", "S"], phi=PHI)
def cmd_dual_check(args, t, s):
    from . import norming
    res = norming.duality_gap(args.phi, t, s)
    # relative to the bound: the roundoff of a pairing that attains it grows with it
    return asdict(res), {"gap_floor": -1e-9}, res.gap >= -1e-9 * max(1.0, res.bound)


@command("adjoint", "closed-form adjoint gauge", phi=PHI)
def cmd_adjoint(args):
    from . import norming
    adj = norming.adjoint_snf(args.phi)
    involution_ok = norming.adjoint_snf(adj) == args.phi
    return {"adjoint": adj.label(), "involution_ok": involution_ok}, {}, involution_ok


@command("sandwich", "rank-k norm equivalence bounds", ["F1", "F2"],
         phi=PHI, k=dict(type=positive_int, required=True))
def cmd_sandwich(args, f1, f2):
    from . import norming
    res = norming.rank_sandwich_check(args.phi, args.k, f1, f2)
    return asdict(res), {"slack": 1e-9}, res.lower_ok and res.upper_ok


@command("pi-regularity", "regularity ratios of a power weight sequence",
         alpha=dict(type=power_alpha, default=0.5),
         horizon=dict(type=positive_int, default=100_000))
def cmd_pi_regularity(args):
    from . import norming
    res = norming.pi_regularity(norming.PiSequence("power", alpha=args.alpha, horizon=args.horizon))
    results = {
        "sup_over_horizon": res.sup_over_horizon,
        "monotone_tail": res.monotone_tail,
        "final_ratio": float(res.ratios[-1]),
    }
    return results, {}, True


@command("support", "support projection of a PSD density", ["rho"],
         samples=dict(type=positive_int, default=20), seed=SEED)
def cmd_support(args, rho):
    from . import states
    p = states.support_projection(states.DensityFunctional(rho))
    rng = np.random.default_rng(args.seed)
    n = p.shape[0]
    worst = 0.0
    for _ in range(args.samples):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        worst = max(worst, abs(np.trace(rho @ x) - np.trace(rho @ p @ x @ p)))
    idem = spectral_norm(p @ p - p)
    ok = within(worst, 1e-8, rho) and idem <= 1e-10
    results = {
        "rank": int(round(np.trace(p).real)),
        "idempotency_residual": idem,
        "reproduction_residual": worst,
    }
    return results, {"reproduction": 1e-8, "idempotency": 1e-10}, ok


@command("jordan", "orthogonal-support positive split of a density", ["rho"])
def cmd_jordan(args, rho):
    from . import states
    phi = states.DensityFunctional(rho)
    pair = states.jordan_decompose(phi)
    recon = spectral_norm(pair.positive_part - pair.negative_part - phi.rho)
    orth = spectral_norm(pair.support_pos @ pair.support_neg)
    results = {
        "reconstruction_residual": recon,
        "support_orthogonality": orth,
        "positive_rank": int(round(np.trace(pair.support_pos).real)),
        "negative_rank": int(round(np.trace(pair.support_neg).real)),
    }
    tolerances = {"reconstruction": 1e-10, "orthogonality": 1e-10}
    return results, tolerances, recon <= 1e-10 and orth <= 1e-10


@command("centralizer", "commutant basis of a density", ["rho"])
def cmd_centralizer(args, rho):
    from . import orbits, states
    phi = states.DensityFunctional(rho)
    basis = states.centralizer_basis(phi)
    # the unit f_r f_s* has the rank-2 commutator A B* with A = [f_r, y_r]
    # and B = [y_s, -f_s], where y = rho f comes from rho, not from the
    # eigenvalues; after A = QR, its norm is that of the n x 2 matrix B R*,
    # taken in stacks of at most 2^15 entries
    f = basis.frame
    y = phi.rho @ f
    r, s = basis.layout[:2]
    step = max(1, 2**14 // len(f))
    worst = 0.0
    for k in range(0, len(basis), step):
        rk, sk = r[k : k + step], s[k : k + step]
        left = np.stack([f[:, rk].T, y[:, rk].T], axis=2)
        right = np.stack([y[:, sk].T, -f[:, sk].T], axis=2)
        rr = np.linalg.qr(left, mode="r")
        sv = np.linalg.svd(right @ rr.conj().swapaxes(1, 2), compute_uv=False)
        worst = max(worst, float(sv[:, 0].max()))
    expected = orbits.isotropy_dimension(phi.rho)
    ok = len(basis) == expected and within(worst, 1e-10, rho)
    results = {"dimension": len(basis), "expected_dimension": expected, "max_commutator": worst}
    return results, {"commutator": 1e-10}, ok


@command("faithful", "strict positivity of a density", ["rho"],
         tol=dict(type=nonnegative_float, default=1e-12))
def cmd_faithful(args, rho):
    from . import states
    phi = states.DensityFunctional(rho)
    results = {"faithful": states.is_faithful(phi, args.tol), "min_eigenvalue": float(phi.eigensystem[0][0])}
    return results, {"tol": args.tol}, True


@command("pinch", "block-diagonal compression along spectral blocks", ["T", "S"])
def cmd_pinch(args, t, s):
    from . import norming, orbits
    require_same_size(require_square(t, "T"), require_square(s, "S"))
    frame = orbits.normal_frame(t, name="T")
    e = frame.pinch(s)
    idem = spectral_norm(frame.pinch(e) - e)
    comm = spectral_norm(t @ e - e @ t)
    sv_e, sv_s = singular_values(e), singular_values(s)
    norms = [(norming.eval_snf(phi, sv_e), norming.eval_snf(phi, sv_s)) for phi in _phi_set()]
    excess = max(ne - ns for ne, ns in norms)
    # E(S) is linear in S and [T, E(S)] bilinear in T and S, so their
    # roundoff grows with ||S||; each bound is relative to its scale
    s_scale = max(1.0, sv_s[0])
    ok = (
        idem <= 1e-10 * s_scale
        and within(comm, 1e-9, s_scale * t)
        and all(ne - ns <= 1e-9 * max(1.0, ns) for ne, ns in norms)
    )
    results = {
        "idempotency_residual": idem,
        "commutation_residual": comm,
        "contraction_max_excess": excess,
    }
    return results, {"idempotency": 1e-10, "commutation": 1e-9, "contraction": 1e-9}, ok


@command("split", "kernel/range splitting of ad T on skew matrices", ["T"])
def cmd_split(args, t):
    from . import orbits
    res = orbits.kernel_range_split(t)
    n = t.shape[0]
    kd, rd = len(res.kernel_basis), len(res.range_basis)
    results = {
        "kernel_dim": kd,
        "range_dim": rd,
        "total_dim": kd + rd,
        "ambient_dim": n * n,
        "residual": res.residual,
    }
    return results, {"residual": 1e-9}, res.residual <= 1e-9 and kd + rd == n * n


@command("omega", "orbit 2-form Tr(T[X,Y])", ["T", "X", "Y"])
def cmd_omega(args, t, x, y):
    from . import symplectic
    return {"value": symplectic.omega(t, x, y)}, {}, True


@command("radical", "radical of the orbit form vs isotropy dimension", ["T"],
         samples=dict(type=positive_int, default=100), seed=SEED)
def cmd_radical(args, t):
    from . import symplectic
    res = symplectic.radical_check(t, sample_count=args.samples, seed=args.seed)
    return asdict(res), {}, res.match


@command("polarization", "half-space polarization and its properties", ["T"], seed=SEED)
def cmd_polarization(args, t):
    from . import symplectic
    mask = symplectic.polarization(t)
    props = symplectic.polarization_properties(t, mask, seed=args.seed)
    ok = (
        props.commutation_residual <= 1e-9
        and props.dim_intersection == props.dim_intersection_expected
        and props.dim_sum == props.dim_ambient
        and props.complemented
    )
    results = {
        "mask": [list(p) for p in mask.mask],
        "block_thetas": list(mask.thetas),
        "multiplicities": list(mask.multiplicities),
        "dim_p": props.dim_p,
        "dim_intersection": props.dim_intersection,
        "dim_intersection_expected": props.dim_intersection_expected,
        "dim_sum": props.dim_sum,
        "dim_ambient": props.dim_ambient,
        "commutation_residual": props.commutation_residual,
    }
    return results, {"span_containment": 1e-9}, ok


@command("kahler-check", "isotropy and positivity of the polarization", ["T"],
         samples=dict(type=positive_int, default=200), seed=SEED)
def cmd_kahler_check(args, t):
    from . import symplectic
    res = symplectic.kaehler_check(t, sample_count=args.samples, seed=args.seed)
    # the frame remainder is applied against each contract, never in its favour
    rem = res.frame_remainder
    ok = res.isotropy_max_abs + rem <= 1e-9 * res.scale and res.positivity_min - rem >= -1e-9 * res.scale
    return asdict(res), {"isotropy": 1e-9, "positivity_floor": -1e-9}, ok


@command("projective-compare", "orbit form vs projective-space form", ["x0", "a1", "a2"])
def cmd_projective_compare(args, x0, a1, a2):
    from . import symplectic
    if min(x0.shape) != 1:
        raise ShapeError(f"x0: expected a row or column vector, got shape {x0.shape}")
    res = symplectic.projective_form_compare(x0.ravel(), a1, a2)
    return asdict(res), {"abs_match": 1e-9}, res.abs_match


@command("orbit-sample", "random unitary conjugates of a reference", ["T"],
         count=dict(type=positive_int, default=5), scale=dict(type=finite_float, default=0.2), seed=SEED,
         out=dict(help="write samples to OUT<k>.json", report=False))
def cmd_orbit_sample(args, t):
    from . import orbits
    samples = orbits.orbit_sample(t, args.count, args.scale, args.seed)
    w = orbits.spectrum(t, "T")
    dev = max((orbits.spectrum_deviation(w, orbits.spectrum(s, "sample")) for s in samples), default=0.0)
    ok = within(dev, 1e-9, t)
    if args.out:
        for k, s in enumerate(samples):
            write_matrix(s, f"{args.out}{k}.json")
    results = {"count": len(samples), "max_signature_deviation": dev, "leaf_preserved": ok}
    return results, {"signature": 1e-9}, ok


@command("leaf-compare", "are two matrices on the same orbit", ["A", "B"],
         tol=dict(type=nonnegative_float, default=1e-9))
def cmd_leaf_compare(args, a, b):
    from . import orbits
    w_a, w_b = orbits.spectrum(a, "A"), orbits.spectrum(b, "B")
    require_same_size(a, b)
    dev = orbits.spectrum_deviation(w_a, w_b)
    same = dev <= orbits.leaf_bound(args.tol, w_a, w_b)
    return {"same_leaf": same, "max_eigenvalue_deviation": dev}, {"tol": args.tol}, same


@command("cross-section", "canonical unitary over an orbit point", ["T", "V"],
         tol=dict(type=nonnegative_float, default=1e-8, report=False),
         corner_tol=dict(type=nonnegative_float, default=CORNER_TOL, report=False))
def cmd_cross_section(args, t, v):
    from . import cross_section as cs
    ref = cs.build_reference(t)
    res = cs.cross_section_phi(ref, v, corner_tol=args.corner_tol)
    n = t.shape[0]
    unitary_defect = hermitian_norm(res.phi.conj().T @ res.phi - np.eye(n))
    psi_comm = spectral_norm(res.psi @ ref.T - ref.T @ res.psi)
    ok = (
        within(res.residual, args.tol, t)
        and unitary_defect <= 1e-9
        and within(psi_comm, 1e-9, t)
    )
    results = {
        "residual": res.residual,
        "corner_min_sv": res.corner_min_sv,
        "phi": res.phi,
        "phi_unitary_defect": unitary_defect,
        "psi_commutation": psi_comm,
    }
    return results, {"residual": args.tol, "corner": args.corner_tol, "unitary": 1e-9}, ok


@command("well-defined", "section independence of the unitary representative", ["T", "V", "G"])
def cmd_well_defined(args, t, v, g):
    from . import cross_section as cs
    dev = cs.well_definedness_check(cs.build_reference(t), v, g)
    return {"deviation": dev}, {"deviation": 1e-8}, dev <= 1e-8


@command("continuity", "section continuity along a shrinking path", ["T", "A"],
         phi=dict(type=parse_phi_spec, default="schatten:1"),
         steps=dict(type=positive_int, default=20))
def cmd_continuity(args, t, a):
    from . import cross_section as cs
    ref = cs.build_reference(t)
    vs = [matrix_exp(2.0 ** (-k) * a, "A") for k in range(1, args.steps + 1)]
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
    results = {
        "op_dists": ops,
        "phi_dists": phis,
        "final_op_dist": ops[-1],
        "final_phi_dist": phis[-1],
        "trend_violation_fraction": (violations / pairs) if pairs else 0.0,
    }
    tolerances = {"trend_fraction": 0.05, "final_phi": 1e-6, "final_op": 1e-8}
    return results, tolerances, trend_ok and limit_ok


@command("offdiag-bound", "gap-weighted bound on off-diagonal compressions", ["T", "W"], phi=PHI)
def cmd_offdiag_bound(args, t, w):
    from . import cross_section as cs
    res = cs.offdiag_bound_check(cs.build_reference(t), args.phi, w)
    return {"max_violation": res.max_violation}, {"violation": 1e-9}, res.max_violation <= 1e-9


@command("minpoly", "monic annihilating polynomial of the clustered spectrum", ["T"], tol=TOL)
def cmd_minpoly(args, t):
    from . import cross_section as cs
    sd = SpectralData.from_hermitian(require_hermitian(t, name="T"), args.tol)
    poly = cs.cluster_polynomial(sd)
    roots = poly.roots()
    n = t.shape[0]
    value = np.eye(n, dtype=np.complex128)
    for r in np.sort(roots.real):
        value = value @ (t - r * np.eye(n))
    bound = sd.cluster_tol * (1.0 + spectral_norm(t)) ** poly.degree()
    residual = spectral_norm(value)
    results = {
        "coefficients": [float(c) for c in poly.coef],
        "degree": int(poly.degree()),
        "annihilation_residual": residual,
        "bound": bound,
    }
    return results, {"annihilation": bound}, residual <= bound


@command("algebra-dim", "dimension of the algebra generated by T", ["T"], tol=TOL)
def cmd_algebra_dim(args, t):
    from . import cross_section as cs
    return {"dimension": cs.generated_algebra_dimension(t, args.tol)}, {}, True


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="leafkit",
        description="Operator-theory toolkit: ideal norms, density-matrix geometry, "
        "coadjoint orbits, and local cross-sections of unitary orbit maps.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        for file in cmd.files:
            sp.add_argument(file)
        for dest, spec in cmd.options.items():
            spec = {key: value for key, value in spec.items() if key != "report"}
            sp.add_argument("--" + dest.replace("_", "-"), **spec)
    return p


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else USAGE_EXIT
    if getattr(args, "seed", 0) is None:
        env = os.environ.get("LEAFKIT_SEED", "0")
        try:
            args.seed = seed_int(env)
        except (ValueError, argparse.ArgumentTypeError):
            print(f"leafkit: LEAFKIT_SEED: expected an integer >= 0, got {env!r}", file=sys.stderr)
            return USAGE_EXIT
    cmd = COMMANDS[args.command]
    report = Report(command=args.command, inputs=_inputs(cmd, args))
    try:
        matrices = [parse_matrix(getattr(args, name)) for name in cmd.files]
        report.results, report.tolerances, report.ok = cmd.handler(args, *matrices)
    except (ParseError, ShapeError, OSError) as exc:  # OSError: an --out file cannot be written
        print(f"leafkit: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except PreconditionError as exc:
        report.results = {"error": type(exc).__name__, "message": str(exc)}
        report.ok = False
        print(emit_report(report))
        print(f"leafkit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return PRECONDITION_EXIT
    print(emit_report(report))
    return 0 if report.ok else CONTRACT_EXIT


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
