"""section-large: the local cross-section V* T V -> phi, its neighbourhood
and bounds, the norming layer and the opcore kernels at n up to 256.

This workload is LAPACK-bound and symplectic does nothing here.  Each
tier runs two spectral shapes: many small clusters (n/4 clusters of
multiplicity 4) and few large ones (4 clusters).  Some costs grow with
the number of clusters (the interpolation in build_reference and
neighborhood_check, the p^2 full-size norms in offdiag_bound_check),
others with the block size (the block SVDs), so a change that helps one
shape and costs the other shows.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import Polynomial

from leafkit import cross_section as cs
from leafkit import norming, opcore, orbits

from inputs import (
    ADJOINT,
    PHIS,
    Op,
    OpFailed,
    Workload,
    check_section,
    expect,
    expect_close,
    expm_skew,
    hermitian,
    near_identity_unitary,
    offdiag_violation,
    phi_spec,
    phi_value,
    singular_spectrum,
    skew,
    spec_norm,
    spectral,
    with_singular_values,
)

# (n, clusters, operations left out).  On the many-cluster shape at
# n=256 (64 clusters) two operations are left out of the seeded input:
# - offdiag_bound_check takes p^2 full-size norms, ~4000 SVDs of 256 x 256
#   matrices, over a minute per call;
# - neighborhood_check evaluates the degree-63 Lagrange products at the
#   eigenvalues of R and returns max_dev ~1e3 where the exact value is
#   ~0.12.  It runs on the same shape drawn from FAULT_SEED instead (see
#   _fault_ops), where it fails on every run.
# The small tier runs both on both shapes.
SIZES = {
    "full": {
        "small": [(32, 8, ()), (32, 4, ())],
        "large": [(256, 64, ("cross_section.offdiag_bound_check", "cross_section.neighborhood_check")),
                  (256, 4, ())],
        "fault": (256, 64),
        "repeats": 20,
    },
    "smoke": {"small": [(8, 2, ())], "large": [(16, 4, ())], "fault": None, "repeats": 1},
}
FAULT_SEED = 2718
V_ANGLE = 0.2  # ||V - 1|| = 2 sin(0.1) for every V given to the section
W_ANGLE = 1.0
CONTINUITY_STEPS = 4
CONTINUITY_PHI = "schatten:1"
OFFDIAG_PHI = "schatten:1"
SANDWICH_PHI = "lorentz:power:0.5"
SANDWICH_RANK = 2


def principal_angle_sine(ref, v: np.ndarray) -> float:
    """The exact max_dev of neighborhood_check at R = V* T V: e_i(R) =
    V* E_i V, whose distance to E_i is the sine of the largest principal
    angle between the ranges of B_i and V* B_i."""
    cosines = [np.linalg.svd(ref.basis(i).conj().T @ v.conj().T @ ref.basis(i), compute_uv=False)[-1]
               for i in range(len(ref.mults))]
    return max(np.sqrt(max(0.0, 1.0 - c * c)) for c in cosines)


def _ops(n: int, p: int, left_out: tuple[str, ...], rng: np.random.Generator) -> list[Op]:
    ref = spectral(rng, [n // p] * p, gap=6.0 / p)
    t = ref.matrix
    norm_t = float(np.max(np.abs(ref.values)))
    scale = n * max(1.0, norm_t)
    v = near_identity_unitary(n, rng, V_ANGLE)
    g = ref.block_unitary(rng)
    gv = g @ v
    r = v.conj().T @ t @ v
    w = near_identity_unitary(n, rng, W_ANGLE)
    a = skew(n, rng)
    a *= 0.5 / spec_norm(a)
    vs = [expm_skew(2.0 ** (-k) * a) for k in range(1, CONTINUITY_STEPS + 1)]
    s_herm = hermitian(n, rng)
    sv_a = singular_spectrum(rng, n)
    sv_b = singular_spectrum(rng, n)
    mat_a, wa, xa = with_singular_values(rng, sv_a, n)
    mat_b, _, _ = with_singular_values(rng, sv_b, n)
    f1, wf, xf = with_singular_values(rng, np.ones(SANDWICH_RANK), n)
    low_rank = np.zeros(n)
    low_rank[SANDWICH_RANK : 2 * SANDWICH_RANK] = sv_a[:SANDWICH_RANK]
    f2 = -(wf * low_rank) @ xf.conj().T  # F1 - F2 has singular values 1, 1, sv_a[:2]
    sandwich_sv = np.concatenate([np.ones(SANDWICH_RANK), sv_a[:SANDWICH_RANK]])
    it = 1j * t
    positive = ref.with_values((ref.values - ref.values[0]) / (ref.values[-1] - ref.values[0]))
    unit_diag = (ref.diag - ref.values[0]) / (ref.values[-1] - ref.values[0])
    continuity_spec = phi_spec(CONTINUITY_PHI)
    offdiag_spec = phi_spec(OFFDIAG_PHI)
    sandwich_spec = phi_spec(SANDWICH_PHI)
    state: dict = {}

    def check_spectral_data(sd):
        expect_close(sd.eigenvalues, ref.values, 1e-10 * scale, "cluster eigenvalues")
        expect(tuple(int(k) for k in sd.multiplicities) == ref.mults, "cluster multiplicities")
        for i, e in enumerate(sd.projections):
            expect_close(e, ref.projection(i), 1e-9, f"spectral projection {i}")

    def check_reference(rf):
        state["ref"] = rf
        check_spectral_data(rf.spectral)

    def check_phi(res):
        state["phi"] = res.phi
        check_section(ref, res.phi, v)
        expect(ref.off_block(res.psi) <= 1e-10 * n, "psi does not commute with T")

    def check_phi_gv(res):
        expect_close(res.phi, state["phi"], 1e-9 * n, "phi(GV) != phi(V)")

    def check_neighborhood(res):
        dev = principal_angle_sine(ref, v)
        expect(res.inside, "V* T V reported outside the neighbourhood")
        expect(abs(res.max_dev - dev) <= 1e-8, f"max_dev {res.max_dev:.6e} != principal-angle sine {dev:.6e}")

    def check_continuity(records):
        expect(len(records) == CONTINUITY_STEPS, "continuity record count")
        ops = [rec.op_dist for rec in records]
        phis = [rec.phi_dist for rec in records]
        for vk, op in zip(vs, ops):
            expect(abs(op - spec_norm(vk.conj().T @ t @ vk - t)) <= 1e-10 * scale, "continuity op_dist")
        expect(all(x > y for x, y in zip(ops, ops[1:])), "op_dist not decreasing")
        expect(all(x > y for x, y in zip(phis, phis[1:])), "phi_dist not decreasing")

    def check_offdiag(res):
        worst, comm = offdiag_violation(ref, w, OFFDIAG_PHI)
        expect(abs(res.max_violation - worst) <= 1e-9 * (1.0 + comm), "offdiag max_violation")
        expect(res.max_violation <= 1e-9 * (1.0 + comm), "offdiag bound violated")

    def check_minpoly(poly):
        expected = Polynomial.fromroots(ref.values)
        size = np.max(np.abs(Polynomial.fromroots(np.abs(ref.values)).coef))
        expect(poly.degree() == p, f"minimal polynomial degree {poly.degree()} != {p}")
        expect_close(poly.coef, expected.coef, 1e-9 * size, "minimal polynomial coefficients")

    def check_polar(f):
        expect_close(f.unitary_part, wa @ xa.conj().T, 1e-9, "polar unitary part")
        expect_close(f.positive_part, (xa * sv_a) @ xa.conj().T, 1e-9 * n, "polar positive part")

    def check_sandwich(res):
        expect(res.lower_ok and res.upper_ok, "rank sandwich failed")
        expect(abs(res.operator_dist - sandwich_sv.max()) <= 1e-10 * n, "sandwich operator_dist")
        expect(abs(res.ideal_dist - phi_value(SANDWICH_PHI, sandwich_sv)) <= 1e-9 * n, "sandwich ideal_dist")

    def norm_op(label):
        spec = phi_spec(label)
        want = phi_value(label, sv_a)
        return Op("norming.op_norm", lambda: norming.op_norm(spec, mat_a),
                  lambda val: expect(abs(val - want) <= 1e-10 * n * want, f"{label} norm {val} != {want}"))

    def gap_op(label):
        spec = phi_spec(label)
        pairing = complex(np.einsum("ij,ji->", mat_a, mat_b))
        bound = phi_value(ADJOINT[label], sv_a) * phi_value(label, sv_b)

        def check(res):
            expect(abs(res.pairing - pairing) <= 1e-10 * n * n, f"{label} pairing")
            expect(abs(res.bound - bound) <= 1e-9 * n * bound, f"{label} duality bound")
            expect(res.gap >= -1e-9, f"{label} duality gap negative")

        return Op("norming.duality_gap", lambda: norming.duality_gap(spec, mat_a, mat_b), check)

    def adjoint_op(label):
        spec = phi_spec(label)
        return Op("norming.adjoint_defect", lambda: norming.adjoint_defect(spec, sv_a),
                  lambda d: expect(d >= -1e-9, f"{label} adjoint defect {d}"))

    ops = [
        Op("cross_section.build_reference", lambda: cs.build_reference(t), check_reference, peak=True),
        Op("cross_section.cross_section_phi", lambda: cs.cross_section_phi(state["ref"], v), check_phi, peak=True),
        Op("cross_section.cross_section_phi", lambda: cs.cross_section_phi(state["ref"], gv), check_phi_gv,
           peak=True),
        Op("cross_section.well_definedness_check", lambda: cs.well_definedness_check(state["ref"], v, g),
           lambda dev: expect(dev <= 1e-9 * n, f"well-definedness deviation {dev}")),
        Op("cross_section.neighborhood_check", lambda: cs.neighborhood_check(state["ref"], r), check_neighborhood),
        Op("cross_section.continuity_modulus",
           lambda: cs.continuity_modulus(state["ref"], continuity_spec, vs), check_continuity),
        Op("cross_section.offdiag_bound_check",
           lambda: cs.offdiag_bound_check(state["ref"], offdiag_spec, w), check_offdiag, peak=True),
        Op("cross_section.minimal_polynomial", lambda: cs.minimal_polynomial(t), check_minpoly),
        Op("orbits.pinching", lambda: orbits.pinching(t, s_herm),
           lambda e: expect_close(e, ref.pinch(s_herm), 1e-10 * n * n, "pinching")),
        *[norm_op(label) for label in PHIS],
        *[gap_op(label) for label in PHIS],
        *[adjoint_op(label) for label in PHIS],
        Op("norming.rank_sandwich_check",
           lambda: norming.rank_sandwich_check(sandwich_spec, SANDWICH_RANK, f1, f2), check_sandwich),
        Op("opcore.spectral_decompose", lambda: opcore.spectral_decompose(t), check_spectral_data),
        Op("opcore.singular_values", lambda: opcore.singular_values(mat_a),
           lambda s: expect_close(s, sv_a, 1e-12 * n, "singular values")),
        Op("opcore.polar_decompose", lambda: opcore.polar_decompose(mat_a), check_polar),
        Op("opcore.matrix_exp", lambda: opcore.matrix_exp(it),
           lambda e: expect_close(e, (ref.frame * np.exp(1j * ref.diag)) @ ref.frame.conj().T, 1e-10 * scale,
                                  "matrix_exp")),
        Op("opcore.function_calculus", lambda: opcore.function_calculus(positive, lambda x: x * x),
           lambda e: expect_close(e, (ref.frame * unit_diag**2) @ ref.frame.conj().T, 1e-10 * n,
                                  "function_calculus")),
    ]
    return [op for op in ops if op.name not in left_out]


def _fault_ops(n: int, p: int) -> list[Op]:
    """build_reference and neighborhood_check on the many-cluster shape,
    drawn from FAULT_SEED whatever --seed.  neighborhood_check returns a
    wrong max_dev there, so it counts as failed, once per pass; a fix
    shows in failed and in large_ops_per_s."""
    rng = np.random.default_rng(FAULT_SEED)
    ref = spectral(rng, [n // p] * p, gap=6.0 / p)
    t = ref.matrix
    v = near_identity_unitary(n, rng, V_ANGLE)
    r = v.conj().T @ t @ v
    dev = principal_angle_sine(ref, v)
    state: dict = {}

    def check_reference(rf):
        state["ref"] = rf
        expect_close(rf.spectral.eigenvalues, ref.values, 1e-10 * n * max(1.0, float(np.max(np.abs(ref.values)))),
                     "cluster eigenvalues")
        expect(tuple(int(k) for k in rf.spectral.multiplicities) == ref.mults, "cluster multiplicities")

    def check_neighborhood(res):
        if not (res.inside and abs(res.max_dev - dev) <= 1e-8):
            raise OpFailed(f"max_dev {res.max_dev:.6e} (inside={res.inside}) != principal-angle sine {dev:.6e}")

    return [
        Op("cross_section.build_reference", lambda: cs.build_reference(t), check_reference),
        Op("cross_section.neighborhood_check", lambda: cs.neighborhood_check(state["ref"], r), check_neighborhood),
    ]


def build(seed: int, size: str, workdir) -> Workload:
    sizes = SIZES[size]
    rng = np.random.default_rng(seed)
    small = [_ops(*shape, rng) for shape in sizes["small"]]
    large = [_ops(*shape, rng) for shape in sizes["large"]]
    if sizes["fault"]:
        large.append(_fault_ops(*sizes["fault"]))
    return Workload(
        small_shapes=small,
        large_shapes=large,
        small_repeats=sizes["repeats"],
        round_s=13.0,
        large_scaled=False,
    )
