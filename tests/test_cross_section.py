import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles

from leafkit.cross_section import (
    build_reference,
    continuity_modulus,
    cross_section_phi,
    generated_algebra_dimension,
    minimal_polynomial,
    neighborhood_check,
    offdiag_bound_check,
    well_definedness_check,
)
from leafkit.errors import CornerSingular, NotCommuting, SingleCluster
from leafkit.norming import lorentz_dual, op_norm, schatten
from leafkit.opcore import matrix_exp, spectral_norm
from leafkit.orbits import pinching

from conftest import (
    PHI_SET,
    SQRT_PI,
    hermitian_with_spectrum,
    random_hermitian,
    random_skew,
    random_unitary,
    separated_values,
)


def commuting_unitary(t, rng, scale=0.5):
    """exp of a pinched skew direction: a unitary commuting with t."""
    s = pinching(t, random_skew(t.shape[0], rng))
    return matrix_exp(scale * s)


def assert_lagrange_basis(ref):
    """e_i(lambda_j) = delta_ij at every node, and e_i(T) = E_i."""
    nodes = ref.eigenvalues
    eye = np.eye(len(nodes))
    for i, e in enumerate(ref.spectral.projections):
        np.testing.assert_allclose(ref.interp_scalar(i, nodes), eye[i], atol=1e-12)
        np.testing.assert_allclose(ref.interp_on_hermitian(i, np.linalg.eigh(ref.T)), e, atol=1e-12)


OFF_NODE = np.linspace(-2.0, 3.0, 11)


class TestBuildReference:
    # A polynomial of degree below p is fixed by its values at the p nodes,
    # so delta_ij at the nodes determines the coefficients; the closed
    # forms at off-node points check the degree as well.
    def test_two_point_lagrange(self):
        ref = build_reference(np.diag([1.0, 0.0]).astype(complex))
        # clusters ascending: index 0 <-> eigenvalue 0, index 1 <-> eigenvalue 1
        assert_lagrange_basis(ref)
        np.testing.assert_allclose(ref.interp_scalar(0, OFF_NODE), 1.0 - OFF_NODE, atol=1e-12)
        np.testing.assert_allclose(ref.interp_scalar(1, OFF_NODE), OFF_NODE, atol=1e-12)

    def test_three_point_lagrange(self):
        ref = build_reference(np.diag([1.0, -1.0, 0.0]).astype(complex))
        assert_lagrange_basis(ref)
        i = int(np.argmax(ref.eigenvalues))  # the lambda = 1 node
        np.testing.assert_allclose(
            ref.interp_scalar(i, OFF_NODE), 0.5 * OFF_NODE * (OFF_NODE + 1.0), atol=1e-12
        )

    def test_scalar_reference(self):
        ref = build_reference(2.5 * np.eye(3))
        assert len(ref.eigenvalues) == 1
        assert_lagrange_basis(ref)
        np.testing.assert_allclose(ref.interp_scalar(0, OFF_NODE), np.ones_like(OFF_NODE), atol=1e-12)

    def test_polys_reproduce_projections(self, rng):
        t = hermitian_with_spectrum([1.0, 1.0, -2.0, 0.5], rng)
        ref = build_reference(t)
        for i, e in enumerate(ref.spectral.projections):
            assert spectral_norm(ref.interp_on_hermitian(i, np.linalg.eigh(t)) - e) <= 1e-9

    def test_peak_memory_many_clusters(self, rng):
        # the reference keeps its n x n eigenframe, not p dense projections
        # (64 MiB at this size)
        t = hermitian_with_spectrum(np.repeat(np.arange(64.0), 4), rng)
        tracemalloc.start()
        try:
            ref = build_reference(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ref.spectral.multiplicities.tolist() == [4] * 64
        assert peak <= 8 * 2**20


def spectrum_with_frame(values, mults, rng):
    """T = Q diag Q* with a known unitary Q; returns T, Q and the column
    groups of the eigenspaces."""
    diag = np.repeat(np.asarray(values, dtype=float), mults)
    q = random_unitary(len(diag), rng)
    edges = np.cumsum([0, *mults])
    groups = [np.arange(a, b) for a, b in zip(edges[:-1], edges[1:])]
    return (q * diag) @ q.conj().T, q, groups


def dense_lagrange_deviation(values, projections, r):
    """max_i ||e_i(R) - E_i|| with e_i(R) the product of the factors
    (R - lambda_j)/(lambda_i - lambda_j), multiplied out densely."""
    eye = np.eye(r.shape[0])
    dev = 0.0
    for i, (lam, e) in enumerate(zip(values, projections)):
        ei = eye.astype(complex)
        for j, mu in enumerate(values):
            if j != i:
                ei = ei @ (r - mu * eye) / (lam - mu)
        dev = max(dev, spectral_norm(ei - e))
    return dev


class TestNeighborhoodCheck:
    def test_reference_itself(self, rng):
        ref = build_reference(hermitian_with_spectrum([1.0, 2.0, 3.0], rng))
        res = neighborhood_check(ref, ref.T)
        assert res.max_dev <= 1e-12
        assert res.inside

    def test_monotone_along_shrinking_path(self, rng):
        t = hermitian_with_spectrum([1.0, -1.0, 0.0], rng)
        ref = build_reference(t)
        a = random_skew(3, rng)
        devs = []
        for scale in (0.4, 0.2, 0.1, 0.05):
            v = matrix_exp(scale * a)
            devs.append(neighborhood_check(ref, v.conj().T @ t @ v).max_dev)
        assert all(d1 >= d2 - 1e-12 for d1, d2 in zip(devs, devs[1:]))
        assert neighborhood_check(ref, matrix_exp(0.05 * a).conj().T @ t @ matrix_exp(0.05 * a)).inside

    def test_many_simple_clusters_give_principal_angle_sine(self, rng):
        # 64 simple clusters: the degree-63 Lagrange products evaluated at
        # the computed eigenvalues of R amplify their roundoff past 1
        n = 64
        values = (6.0 / n) * np.arange(n)
        t, q, _ = spectrum_with_frame(values, [1] * n, rng)
        a = random_skew(n, rng)
        v = matrix_exp(0.2 * a / spectral_norm(a))
        res = neighborhood_check(build_reference(t), v.conj().T @ t @ v)
        # e_i(R) = V* E_i V: the cosine of the angle between q_i and V* q_i
        cosines = np.abs(np.einsum("ki,kl,li->i", q.conj(), v.conj().T, q))
        sine = np.sqrt(np.max(1.0 - np.minimum(cosines, 1.0) ** 2))
        assert abs(res.max_dev - sine) <= 1e-8
        assert res.inside

    def test_off_orbit_against_dense_lagrange(self, rng):
        for values, mults in (([-1.0, 1.0], [2, 1]), ([-1.0, 0.5, 2.0], [1, 2, 2]),
                              ([-2.0, -0.5, 1.0, 2.5], [1, 1, 2, 1])):
            t, q, groups = spectrum_with_frame(values, mults, rng)
            ref = build_reference(t)
            projections = [q[:, g] @ q[:, g].conj().T for g in groups]
            for size in (0.05, 0.5, 2.0):
                h = random_hermitian(t.shape[0], rng)
                r = t + size * h / spectral_norm(h)
                expected = dense_lagrange_deviation(values, projections, r)
                res = neighborhood_check(ref, r)
                assert abs(res.max_dev - expected) <= 1e-10 * max(1.0, expected)
                assert res.inside == (expected < 1.0)

    def test_eigenvalues_at_nodes_with_other_multiplicities(self, rng):
        # every eigenvalue of R sits at a node, but R is not on the orbit
        values = [1.0, 2.0]
        t, q, groups = spectrum_with_frame(values, [2, 1], rng)
        r = (q * np.array([1.0, 2.0, 2.0])) @ q.conj().T
        projections = [q[:, g] @ q[:, g].conj().T for g in groups]
        res = neighborhood_check(build_reference(t), r)
        assert res.max_dev == pytest.approx(dense_lagrange_deviation(values, projections, r), abs=1e-12)
        assert res.max_dev == pytest.approx(1.0, abs=1e-12)
        assert not res.inside

    def test_negated_reference_is_outside(self):
        t = np.diag([1.0, -1.0, 0.0]).astype(complex)
        ref = build_reference(t)
        res = neighborhood_check(ref, -t)
        assert res.max_dev >= 1.0 - 1e-12
        assert not res.inside


class TestDeltaPsi:
    """delta(V) = sum_i E_i V E_i is the pinching of V along the reference,
    and psi(V) the field psi of cross_section_phi."""

    def test_delta_of_commuting_unitary(self, rng):
        t = hermitian_with_spectrum([1.0, 1.0, 2.0], rng)
        g = commuting_unitary(t, rng)
        np.testing.assert_allclose(pinching(t, g), g, atol=1e-10)

    def test_delta_of_swap_vanishes(self):
        t = np.diag([1.0, 2.0]).astype(complex)
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        assert spectral_norm(pinching(t, swap)) <= 1e-12

    def test_delta_near_identity(self, rng):
        t = hermitian_with_spectrum([1.0, 2.0, 3.0], rng)
        v = matrix_exp(0.05 * random_skew(3, rng))
        d = pinching(t, v)
        assert spectral_norm(d - v) <= 0.2
        assert np.linalg.svd(d, compute_uv=False)[-1] > 0.5

    def test_delta_is_the_pinching(self, rng):
        # the pinching is the sum of the corners B_i* V B_i placed back
        t = hermitian_with_spectrum([1.0, 1.0, -2.0], rng)
        ref = build_reference(t)
        v = matrix_exp(0.3 * random_skew(3, rng))
        delta = sum(b @ (b.conj().T @ v @ b) @ b.conj().T for b in ref.spectral.bases)
        np.testing.assert_allclose(pinching(t, v), delta, atol=1e-10)

    def test_psi_of_block_unitary_is_adjoint(self, rng):
        t = hermitian_with_spectrum([1.0, 1.0, 2.0], rng)
        ref = build_reference(t)
        g = commuting_unitary(t, rng)
        np.testing.assert_allclose(cross_section_phi(ref, g).psi, g.conj().T, atol=1e-10)

    def test_psi_identity(self, rng):
        ref = build_reference(hermitian_with_spectrum([1.0, 2.0], rng))
        np.testing.assert_allclose(cross_section_phi(ref, np.eye(2)).psi, np.eye(2), atol=1e-12)

    def test_psi_worked_example(self):
        c, s, alpha = 0.8, 0.6, 0.9
        t = np.diag([1.0, -1.0]).astype(complex)
        ref = build_reference(t)
        v = np.array(
            [[c * np.exp(1j * alpha), s], [-s * np.exp(1j * alpha), c]], dtype=complex
        )
        psi = cross_section_phi(ref, v).psi
        np.testing.assert_allclose(psi, np.diag([np.exp(-1j * alpha), 1.0]), atol=1e-12)

    def test_corner_singular(self):
        ref = build_reference(np.diag([1.0, 2.0]).astype(complex))
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        with pytest.raises(CornerSingular):
            cross_section_phi(ref, swap)


class TestCrossSectionPhi:
    def test_identity(self, rng):
        ref = build_reference(hermitian_with_spectrum([1.0, 2.0, 3.0], rng))
        res = cross_section_phi(ref, np.eye(3))
        np.testing.assert_allclose(res.phi, np.eye(3), atol=1e-12)
        assert res.residual <= 1e-12

    def test_commuting_unitary_collapses_to_identity(self, rng):
        t = hermitian_with_spectrum([1.0, 1.0, -2.0], rng)
        ref = build_reference(t)
        g = commuting_unitary(t, rng)
        res = cross_section_phi(ref, g)
        np.testing.assert_allclose(res.phi, np.eye(3), atol=1e-9)

    def test_worked_example(self):
        c, s = 0.8, 0.6
        alpha = np.pi / 2
        t = np.diag([1.0, -1.0]).astype(complex)
        ref = build_reference(t)
        v = np.array(
            [[c * np.exp(1j * alpha), s], [-s * np.exp(1j * alpha), c]], dtype=complex
        )
        res = cross_section_phi(ref, v)
        expected = np.array([[0.8, -0.6j], [-0.6j, 0.8]])
        np.testing.assert_allclose(res.phi, expected, atol=1e-12)
        assert res.residual <= 1e-12

    def test_section_property_random(self, rng):
        for _ in range(25):
            vals = separated_values(rng, int(rng.integers(2, 5)))
            mult = [int(rng.integers(1, 3)) for _ in vals]
            spectrum = [v for v, m in zip(vals, mult) for _ in range(m)]
            t = hermitian_with_spectrum(spectrum, rng)
            ref = build_reference(t)
            v = matrix_exp(0.2 * random_skew(len(spectrum), rng))
            res = cross_section_phi(ref, v)
            assert res.residual <= 1e-8
            n = len(spectrum)
            assert spectral_norm(res.phi.conj().T @ res.phi - np.eye(n)) <= 1e-9
            assert spectral_norm(res.psi @ t - t @ res.psi) <= 1e-9 * max(1.0, spectral_norm(t))

    def test_polar_consistency(self, rng):
        t = hermitian_with_spectrum([1.0, -1.0, 0.0, 0.0], rng)
        ref = build_reference(t)
        v = matrix_exp(0.3 * random_skew(4, rng))
        res = cross_section_phi(ref, v)
        delta = pinching(t, v)
        q = res.psi @ delta  # positive factor of delta = psi* q
        assert spectral_norm(q - q.conj().T) <= 1e-10
        assert np.linalg.eigvalsh(0.5 * (q + q.conj().T))[0] >= -1e-10
        np.testing.assert_allclose(res.psi.conj().T @ q, delta, atol=1e-9)

    def test_idempotence_of_the_construction(self, rng):
        for _ in range(10):
            t = hermitian_with_spectrum([2.0, 2.0, -1.0], rng)
            ref = build_reference(t)
            v = matrix_exp(0.25 * random_skew(3, rng))
            phi1 = cross_section_phi(ref, v).phi
            phi2 = cross_section_phi(ref, phi1).phi
            assert spectral_norm(phi2 - phi1) <= 1e-8


class TestAgainstPerClusterLoop:
    """cross_section_phi against the per-cluster construction of psi in
    oracles.psi_per_cluster, on mixed corner widths."""

    @staticmethod
    def assert_is_the_per_cluster_loop(t, v):
        """Returns whether both raised CornerSingular."""
        ref = build_reference(t)
        n = ref.size
        try:
            psi, min_sv = oracles.psi_per_cluster(ref, v)
        except CornerSingular:
            with pytest.raises(CornerSingular, match="spectral-block compression has smallest singular value"):
                cross_section_phi(ref, v)
            return True
        res = cross_section_phi(ref, v)
        np.testing.assert_allclose(res.psi, psi, rtol=0, atol=1e-13 * n)
        np.testing.assert_allclose(res.phi, psi @ v, rtol=0, atol=1e-13 * n)
        assert abs(res.corner_min_sv - min_sv) <= 1e-15
        return False

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.integers(1, 6), min_size=2, max_size=6).filter(lambda m: sum(m) <= 24),
        st.integers(0, 2**32 - 1),
        st.floats(0.05, 1.5),
        st.booleans(),
    )
    @example([5, 3, 3, 1], 21, 0.4, False)
    @example([4, 4, 1], 22, 0.4, False)
    @example([5, 3, 3, 1], 23, 0.4, True)
    @example([4, 4, 1], 24, 0.4, True)
    def test_is_the_per_cluster_loop(self, mults, seed, angle, swap):
        # with swap, V sends one frame vector of cluster 0 into cluster 1,
        # so corner 0 is singular, and a unitary commuting with T keeps it so
        rng = np.random.default_rng(seed)
        t, q, groups = spectrum_with_frame(separated_values(rng, len(mults)), mults, rng)
        n = len(q)
        if swap:
            perm = np.arange(n)
            perm[[groups[0][0], groups[1][0]]] = perm[[groups[1][0], groups[0][0]]]
            v = commuting_unitary(t, rng) @ q[:, perm] @ q.conj().T
        else:
            v = random_unitary(n, rng, angle / np.sqrt(n))
        assert self.assert_is_the_per_cluster_loop(t, v) == swap

    def test_swap_example(self):
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        assert self.assert_is_the_per_cluster_loop(np.diag([1.0, 2.0]).astype(complex), swap)


class TestWellDefinedness:
    def test_identity_stabilizer(self, rng):
        t = hermitian_with_spectrum([1.0, 2.0, 3.0], rng)
        ref = build_reference(t)
        v = matrix_exp(0.2 * random_skew(3, rng))
        assert well_definedness_check(ref, v, np.eye(3)) <= 1e-12

    def test_global_phase(self, rng):
        t = hermitian_with_spectrum([1.0, -1.0], rng)
        ref = build_reference(t)
        v = matrix_exp(0.2 * random_skew(2, rng))
        assert well_definedness_check(ref, v, np.exp(1.3j) * np.eye(2)) <= 1e-12

    def test_random_stabilizer(self, rng):
        for _ in range(10):
            t = hermitian_with_spectrum([1.0, 1.0, -2.0, 0.0], rng)
            ref = build_reference(t)
            v = matrix_exp(0.2 * random_skew(4, rng))
            g = commuting_unitary(t, rng)
            assert well_definedness_check(ref, v, g) <= 1e-8

    def test_rejects_non_commuting(self, rng):
        t = hermitian_with_spectrum([1.0, 2.0], rng)
        ref = build_reference(t)
        with pytest.raises(NotCommuting):
            well_definedness_check(ref, np.eye(2), matrix_exp(random_skew(2, rng)))


class TestContinuity:
    def test_constant_identity_sequence(self, rng):
        ref = build_reference(hermitian_with_spectrum([1.0, 2.0], rng))
        records = continuity_modulus(ref, schatten(1), [np.eye(2)] * 4)
        assert all(r.op_dist == 0.0 and r.phi_dist <= 1e-12 for r in records)

    def test_geometric_decay(self, rng):
        t = hermitian_with_spectrum([1.0, -1.0, 0.0], rng)
        ref = build_reference(t)
        a = random_skew(3, rng)
        a *= 0.25 / op_norm(schatten(1), a)
        vs = [matrix_exp(2.0 ** (-k) * a) for k in range(1, 21)]
        for phi_norm in PHI_SET:
            records = continuity_modulus(ref, phi_norm, vs)
            assert records[-1].phi_dist <= 1e-6
            # halving op_dist does not increase phi_dist (up to slack)
            for r1, r2 in zip(records, records[1:]):
                assert r2.phi_dist <= r1.phi_dist + 1e-9

    def test_stabilizer_noise_is_invisible(self, rng):
        t = hermitian_with_spectrum([1.0, 1.0, -1.0], rng)
        ref = build_reference(t)
        a = 0.3 * random_skew(3, rng)
        vs = [matrix_exp(2.0 ** (-k) * a) for k in range(1, 8)]
        noisy = [v @ commuting_unitary(t, rng) for v in vs]
        clean = continuity_modulus(ref, schatten(1), vs)
        dirty = continuity_modulus(ref, schatten(1), noisy)
        for r1, r2 in zip(clean, dirty):
            assert r2.phi_dist == pytest.approx(r1.phi_dist, abs=1e-8)


class TestOffdiagBound:
    def test_commuting_unitary_slack(self, rng):
        t = hermitian_with_spectrum([1.0, 1.0, 2.0], rng)
        ref = build_reference(t)
        g = commuting_unitary(t, rng)
        res = offdiag_bound_check(ref, schatten(1), g)
        assert res.max_violation <= 1e-9

    def test_swap_equality_case(self):
        t = np.diag([1.0, -1.0]).astype(complex)
        ref = build_reference(t)
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        res = offdiag_bound_check(ref, schatten(np.inf), swap)
        assert res.max_violation == pytest.approx(0.0, abs=1e-12)

    def test_random_every_phi(self, rng):
        phi_norm = lorentz_dual(SQRT_PI)
        for _ in range(25):
            vals = separated_values(rng, 3, min_gap=0.1)
            t = hermitian_with_spectrum(vals, rng)
            ref = build_reference(t)
            w = random_unitary(3, rng)
            assert offdiag_bound_check(ref, phi_norm, w).max_violation <= 1e-9

    def test_against_dense_compressions(self, rng):
        for values, mults in (([-1.0, 2.0], [3, 1]), ([0.0, 1.0, 3.0], [1, 2, 3]),
                              ([-2.0, -1.0, 0.5, 1.5, 4.0], [2, 1, 3, 1, 5])):
            t, q, groups = spectrum_with_frame(values, mults, rng)
            ref = build_reference(t)
            projections = [q[:, g] @ q[:, g].conj().T for g in groups]
            w = random_unitary(t.shape[0], rng)
            for phi_norm in PHI_SET:
                comm = op_norm(phi_norm, t @ w - w @ t)
                expected = max(
                    op_norm(phi_norm, ei @ w @ ej) * abs(li - lj) - comm
                    for i, (li, ei) in enumerate(zip(values, projections))
                    for j, (lj, ej) in enumerate(zip(values, projections))
                    if i != j
                )
                res = offdiag_bound_check(ref, phi_norm, w)
                assert abs(res.max_violation - expected) <= 1e-12 * comm

    def test_single_cluster(self):
        ref = build_reference(np.eye(3))
        with pytest.raises(SingleCluster):
            offdiag_bound_check(ref, schatten(1), np.eye(3))

    @staticmethod
    def assert_is_the_per_pair_loop(t, w):
        ref = build_reference(t)
        for phi_norm in PHI_SET:
            got = offdiag_bound_check(ref, phi_norm, w).max_violation
            expected = oracles.offdiag_max_violation(ref, phi_norm, w)
            if phi_norm.kind == "schatten" and phi_norm.p not in (1.0, 2.0, np.inf):
                # numpy's vectorized pow on a stack of rows may differ in the
                # last bit from the scalar pow a lone row gets
                assert abs(got - expected) <= 16 * np.finfo(float).eps * max(1.0, spectral_norm(t))
            else:
                assert got == expected, phi_norm.label()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.integers(1, 4), min_size=2, max_size=8).filter(lambda m: sum(m) <= 8),
        st.integers(0, 2**32 - 1),
        st.floats(0.05, 3.0),
    )
    def test_is_the_per_pair_loop(self, mults, seed, angle):
        rng = np.random.default_rng(seed)
        t = hermitian_with_spectrum(np.repeat(separated_values(rng, len(mults)), mults), rng)
        self.assert_is_the_per_pair_loop(0.5 * (t + t.conj().T), random_unitary(t.shape[0], rng, angle))

    def test_is_the_per_pair_loop_at_n32(self):
        rng = np.random.default_rng(3208)
        mults = (8, 6, 5, 4, 4, 2, 2, 1)
        t = hermitian_with_spectrum(np.repeat(separated_values(rng, len(mults)), mults), rng)
        self.assert_is_the_per_pair_loop(0.5 * (t + t.conj().T), random_unitary(32, rng, 0.3))


class TestMinimalPolynomial:
    def test_projection(self):
        p = minimal_polynomial(np.diag([1.0, 1.0, 0.0]).astype(complex), tol=1e-10)
        np.testing.assert_allclose(p.coef, [0.0, -1.0, 1.0], atol=1e-12)

    def test_zero(self):
        p = minimal_polynomial(np.zeros((2, 2)), tol=1e-10)
        np.testing.assert_allclose(p.coef, [0.0, 1.0], atol=1e-14)

    def test_expanded_product(self):
        p = minimal_polynomial(np.diag([3.0, 3.0, 5.0, 0.0]).astype(complex), tol=1e-10)
        np.testing.assert_allclose(p.coef, [0.0, 15.0, -8.0, 1.0], atol=1e-12)

    def test_annihilation_bound(self, rng):
        t = hermitian_with_spectrum([1.0, 1.0, -2.0, 0.5], rng)
        tol = 1e-10
        p = minimal_polynomial(t, tol)
        n = t.shape[0]
        value = np.eye(n, dtype=complex)
        for r in np.sort(p.roots().real):
            value = value @ (t - r * np.eye(n))
        assert spectral_norm(value) <= tol * (1 + spectral_norm(t)) ** p.degree()

    def test_degree_equals_cluster_count(self, rng):
        t = hermitian_with_spectrum([1.0, 1.0, 2.0, 3.0], rng)
        assert minimal_polynomial(t, 1e-8).degree() == 3


class TestGeneratedAlgebraDimension:
    def test_two_nonzero_clusters_against_power_span_oracle(self):
        t = np.diag([3.0, 3.0, 5.0, 0.0]).astype(complex)
        # oracle: rank of the span of {T, T^2, T^3, ...}
        powers = [np.linalg.matrix_power(t, k).ravel() for k in range(1, 5)]
        rank = np.linalg.matrix_rank(np.array(powers), tol=1e-9)
        assert generated_algebra_dimension(t, 1e-10) == rank == 2

    def test_zero(self):
        assert generated_algebra_dimension(np.zeros((3, 3)), 1e-10) == 0

    def test_distinct_nonzero(self, rng):
        t = hermitian_with_spectrum([1.0, 2.0, 3.0], rng)
        assert generated_algebra_dimension(t, 1e-8) == 3


class TestCrossSectionEdgeCases:
    def test_build_reference_rejects_non_hermitian(self, rng):
        from leafkit.errors import NotHermitian

        with pytest.raises(NotHermitian):
            build_reference(random_skew(3, rng) + np.eye(3))

    def test_psi_rejects_non_unitary(self, rng):
        from leafkit.errors import NotUnitary

        ref = build_reference(np.diag([1.0, 2.0]).astype(complex))
        with pytest.raises(NotUnitary):
            cross_section_phi(ref, np.diag([2.0, 1.0]))

    def test_gates_name_their_operand(self):
        from leafkit.errors import ShapeError

        ref = build_reference(np.diag([1.0, 2.0]).astype(complex))
        with pytest.raises(ShapeError, match="^G: expected a 2-D array, got ndim=1$"):
            well_definedness_check(ref, np.eye(2), np.ones(2))
        with pytest.raises(ShapeError, match="^W: expected a 2-D array, got ndim=1$"):
            offdiag_bound_check(ref, schatten(1), np.ones(2))

    def test_wrong_size_unitary_is_a_precondition(self):
        from leafkit.errors import SizeMismatch

        ref = build_reference(np.diag([1.0, 2.0]).astype(complex))
        with pytest.raises(SizeMismatch):
            well_definedness_check(ref, np.eye(3), np.eye(3))
        with pytest.raises(SizeMismatch):
            continuity_modulus(ref, schatten(1), [np.eye(3)])

    def test_scalar_reference_section_is_trivial(self, rng):
        ref = build_reference(1.5 * np.eye(3))
        v = matrix_exp(0.4 * random_skew(3, rng))
        res = cross_section_phi(ref, v)
        # single block: psi = V*, so phi collapses to the identity
        np.testing.assert_allclose(res.phi, np.eye(3), atol=1e-10)
        assert res.residual <= 1e-10
