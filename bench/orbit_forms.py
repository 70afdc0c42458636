"""orbit-forms: the orbit 2-form, its radical, the polarization and the
state layer on Hermitian references with prescribed degenerate
multiplicities.

The symplectic, orbit and state layers do nearly all their work here:
the n^4-entry Gram in radical_check and the Python sums over lists of
n^2 basis matrices in polarization_properties and kaehler_check.
cross_section and matrixio do none.
"""

from __future__ import annotations

import numpy as np

from leafkit import orbits, states, symplectic

from inputs import Op, Spectral, Workload, expect, expect_close, hermitian, spectral

SIZES = {
    # multiplicity patterns per tier; the seed draws frames and values only
    "full": {"small": [(3, 3, 2), (4, 2, 1, 1), (2, 2, 2, 2)], "large": [(12, 8, 8, 4)], "repeats": 6},
    "smoke": {"small": [(2, 1, 1)], "large": [(3, 2, 1)], "repeats": 1},
}
SAMPLE_SCALE = 0.2
SAMPLE_COUNT = 4


def _ops(ref: Spectral, rng: np.random.Generator) -> list[Op]:
    n = ref.n
    t = ref.matrix
    norm_t = float(np.max(np.abs(ref.values)))
    m = np.array(ref.mults)
    iso = ref.isotropy_dim
    pol_dim = ref.polarization_dim
    order = np.argsort(-ref.values, kind="stable")
    seed = int(rng.integers(2**31))

    # densities in the same frame: a PSD one whose lowest cluster is the
    # kernel, and the signed reference itself for the Jordan split
    psd_values = ref.values - ref.values[0]
    rho_psd = states.DensityFunctional(ref.with_values(psd_values))
    rho_t = states.DensityFunctional(t)
    u_comm = ref.block_unitary(rng)
    s_herm = hermitian(n, rng)
    spectrum = np.sort(ref.diag)
    off_leaf = t + 0.25 * np.eye(n)
    coeffs = rng.standard_normal(iso) + 1j * rng.standard_normal(iso)
    state: dict = {}

    def check_radical(r):
        expect(r.radical_dim == iso and r.isotropy_dim == iso and r.match,
               f"radical {r.radical_dim}, isotropy {r.isotropy_dim}, expected {iso}")
        expect(r.sampled_pairing_max <= 1e-9 * max(1.0, norm_t) * n, "radical pairing not ~0")

    def check_polarization(mask):
        state["mask"] = mask
        expect(mask.multiplicities == tuple(int(m[i]) for i in order), "polarization multiplicities")
        expect_close(mask.thetas, ref.values[order], 1e-9 * norm_t, "polarization thetas")
        expect(mask.complex_dim == pol_dim, f"polarization dim {mask.complex_dim} != {pol_dim}")

    def check_properties(p):
        expect(p.dim_p == pol_dim and p.dim_intersection == iso and p.dim_intersection_expected == iso,
               f"polarization dims {p.dim_p}/{p.dim_intersection}, expected {pol_dim}/{iso}")
        expect(p.dim_sum == n * n and p.dim_ambient == n * n and p.complemented, "polarization span")
        expect(p.commutation_residual <= 1e-9, "polarization not stable under isotropy")

    def check_kaehler(k):
        expect(abs(k.scale - max(1.0, norm_t)) <= 1e-9 * k.scale, "kaehler scale")
        expect(k.isotropy_max_abs <= 1e-9 * k.scale, "kaehler isotropy")
        expect(k.positivity_min >= -1e-9 * k.scale, "kaehler positivity")

    def check_split(s):
        expect(len(s.kernel_basis) == iso and len(s.range_basis) == n * n - iso,
               f"split dims {len(s.kernel_basis)}+{len(s.range_basis)}, kernel expected {iso}")
        expect(s.residual <= 1e-9, "split residual")

    def check_centralizer(basis):
        expect(len(basis) == iso, f"centralizer dim {len(basis)} != {iso}")
        z = np.tensordot(coeffs, np.array(basis), axes=1)
        expect(ref.off_block(z) <= 1e-10 * max(1.0, np.abs(z).max()), "centralizer leaves the blocks")

    def check_block(r):
        expect(r.in_centralizer and r.commutes_with_support and r.corner_in_corner_centralizer,
               f"block-diagonal unitary rejected: {r}")

    def check_jordan(pair):
        pos = ref.with_values(np.maximum(ref.values, 0.0))
        neg = ref.with_values(np.maximum(-ref.values, 0.0))
        tol = 1e-10 * n * max(1.0, norm_t)
        expect_close(pair.positive_part, pos, tol, "jordan positive part")
        expect_close(pair.negative_part, neg, tol, "jordan negative part")
        expect_close(pair.support_pos, ref.with_values(ref.values > 0), 1e-9 * n, "jordan positive support")
        expect_close(pair.support_neg, ref.with_values(ref.values < 0), 1e-9 * n, "jordan negative support")

    def check_support(p):
        expect_close(p, ref.with_values(psd_values > 0), 1e-9 * n, "support projection")

    def check_pinching(e):
        expect_close(e, ref.pinch(s_herm), 1e-10 * n * max(1.0, np.abs(s_herm).max()), "pinching")

    def check_sample(samples):
        state["sample"] = samples[0]
        expect(len(samples) == SAMPLE_COUNT, "orbit sample count")
        for x in samples:
            expect_close(x, x.conj().T, 1e-10 * n * norm_t, "orbit sample not Hermitian")
            expect_close(np.linalg.eigvalsh(x), spectrum, 1e-9 * n * norm_t, "orbit sample spectrum")

    return [
        Op("symplectic.radical_check", lambda: symplectic.radical_check(t, seed=seed), check_radical, peak=True),
        Op("symplectic.polarization", lambda: symplectic.polarization(t), check_polarization, peak=True),
        Op("symplectic.polarization_properties",
           lambda: symplectic.polarization_properties(t, state["mask"], seed=seed), check_properties, peak=True),
        Op("symplectic.kaehler_check", lambda: symplectic.kaehler_check(t, seed=seed), check_kaehler, peak=True),
        Op("orbits.kernel_range_split", lambda: orbits.kernel_range_split(t), check_split, peak=True),
        Op("states.centralizer_basis", lambda: states.centralizer_basis(rho_t), check_centralizer, peak=True),
        Op("states.centralizer_block_check", lambda: states.centralizer_block_check(rho_psd, u_comm), check_block),
        Op("states.jordan_decompose", lambda: states.jordan_decompose(rho_t), check_jordan),
        Op("states.support_projection", lambda: states.support_projection(rho_psd), check_support),
        Op("orbits.pinching", lambda: orbits.pinching(t, s_herm), check_pinching),
        Op("orbits.orbit_sample", lambda: orbits.orbit_sample(t, SAMPLE_COUNT, SAMPLE_SCALE, seed), check_sample),
        Op("orbits.same_leaf", lambda: orbits.same_leaf(t, state["sample"], 1e-8 * n * max(1.0, norm_t)),
           lambda same: expect(same is True, "orbit sample not on the leaf of T")),
        Op("orbits.same_leaf", lambda: orbits.same_leaf(t, off_leaf, 1e-8 * n * max(1.0, norm_t)),
           lambda same: expect(same is False, "shifted spectrum reported on the same leaf")),
    ]


def build(seed: int, size: str, workdir) -> Workload:
    sizes = SIZES[size]
    rng = np.random.default_rng(seed)
    return Workload(
        small_shapes=[_ops(spectral(rng, mults), rng) for mults in sizes["small"]],
        large_shapes=[_ops(spectral(rng, mults), rng) for mults in sizes["large"]],
        small_repeats=sizes["repeats"],
        round_s=13.0,
        large_scaled=False,
    )
