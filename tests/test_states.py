import itertools

import numpy as np
import pytest

from leafkit.errors import ClusterAmbiguity, NotHermitian, NotPositive, NotUnitary
from leafkit.opcore import spectral_norm
from leafkit.states import (
    DensityFunctional,
    centralizer_basis,
    centralizer_block_check,
    is_faithful,
    jordan_decompose,
    jordan_intersection_check,
    support_equivariance_check,
    support_projection,
)

from conftest import hermitian_with_spectrum, random_hermitian, random_psd, random_skew, random_unitary


def density(mat):
    return DensityFunctional(np.asarray(mat, dtype=complex))


def signed_permutations(n):
    """All n x n matrices with one +-1 entry per row/column."""
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product([1.0, -1.0], repeat=n):
            u = np.zeros((n, n), dtype=complex)
            for i, (j, s) in enumerate(zip(perm, signs)):
                u[j, i] = s
            yield u


class TestSupport:
    def test_diagonal(self):
        p = support_projection(density(np.diag([1.0, 0.0, 2.0])))
        np.testing.assert_allclose(p, np.diag([1.0, 0.0, 1.0]), atol=1e-12)

    def test_faithful_case(self, rng):
        p = support_projection(density(random_psd(4, rng) + np.eye(4)))
        np.testing.assert_allclose(p, np.eye(4), atol=1e-10)

    def test_rank_one_against_gram_schmidt(self, rng):
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        p = support_projection(density(np.outer(x, x.conj())))
        q = np.outer(x, x.conj()) / np.vdot(x, x)  # normalized range basis
        np.testing.assert_allclose(p, q, atol=1e-10)

    def test_reproduces_functional(self, rng):
        rho = random_psd(5, rng)
        rho = rho @ np.diag([1, 1, 1, 0, 0]) @ rho.conj().T  # force rank deficiency
        phi = density(rho)
        p = support_projection(phi)
        for _ in range(20):
            x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            assert abs(np.trace(rho @ x) - np.trace(rho @ p @ x @ p)) <= 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositive):
            support_projection(density(np.diag([1.0, -1.0])))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian, match="rho: Hermitian defect"):
            density(np.array([[0, 1], [0, 0]]))

    def test_support_and_split_need_no_clustering(self):
        # a gap of 1e-8 ||rho|| sits on the cluster tolerance: only the
        # centralizer basis, which clusters, may refuse it
        phi = density(np.diag([0.0, 1.0, 1.0 + 1e-8]))
        np.testing.assert_allclose(support_projection(phi), np.diag([0.0, 1.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(jordan_decompose(phi).support_pos, np.diag([0.0, 1.0, 1.0]), atol=1e-12)
        assert not is_faithful(phi, tol=1e-12)
        with pytest.raises(ClusterAmbiguity):
            centralizer_basis(phi)


class TestJordan:
    def test_diagonal_split(self):
        pair = jordan_decompose(density(np.diag([2.0, -3.0])))
        np.testing.assert_allclose(pair.positive_part, np.diag([2.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(pair.negative_part, np.diag([0.0, 3.0]), atol=1e-12)
        np.testing.assert_allclose(pair.support_pos, np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(pair.support_neg, np.diag([0.0, 1.0]), atol=1e-12)

    def test_psd_input_has_zero_negative_part(self, rng):
        pair = jordan_decompose(density(random_psd(4, rng)))
        assert spectral_norm(pair.negative_part) <= 1e-12

    def test_random_reconstruction_and_orthogonality(self, rng):
        for _ in range(25):
            rho = random_hermitian(5, rng)
            pair = jordan_decompose(density(rho))
            assert spectral_norm(pair.positive_part - pair.negative_part - rho) <= 1e-10
            assert spectral_norm(pair.support_pos @ pair.support_neg) <= 1e-10
            assert np.linalg.eigvalsh(pair.positive_part)[0] >= -1e-10
            assert np.linalg.eigvalsh(pair.negative_part)[0] >= -1e-10

    def test_supports_leave_out_the_kernel(self, rng):
        # the kernel's roundoff eigenvalues (~1e-16) join neither support
        for _ in range(200):
            pair = jordan_decompose(density(hermitian_with_spectrum([2.0, 1.0, 0.0, 0.0, -1.5], rng)))
            ranks = [int(round(np.trace(s).real)) for s in (pair.support_pos, pair.support_neg)]
            assert ranks == [2, 1]

    def test_perturbed_split_loses_orthogonality(self):
        # rho = diag(2,-3) also splits as diag(3,0) - diag(1,3), but then
        # the supports overlap: the spectral split is the unique orthogonal one
        rho1 = np.diag([3.0, 0.0])
        rho2 = np.diag([1.0, 3.0])
        np.testing.assert_allclose(rho1 - rho2, np.diag([2.0, -3.0]))
        s1 = support_projection(density(rho1))
        s2 = support_projection(density(rho2))
        assert spectral_norm(s1 @ s2) > 0.5


class TestFaithful:
    def test_normalized_identity(self):
        assert is_faithful(density(np.eye(3) / 3), tol=1e-12)

    def test_rank_deficient(self):
        assert not is_faithful(density(np.diag([1.0, 0.0])), tol=1e-12)

    def test_threshold(self):
        assert not is_faithful(density(np.diag([1.0, 1e-14])), tol=1e-12)
        assert is_faithful(density(np.diag([1.0, 1e-10])), tol=1e-12)


class TestCentralizer:
    def test_forced_block_dimension(self):
        basis = centralizer_basis(density(np.diag([1.0, 1.0, 2.0])))
        assert len(basis) == 5

    def test_scalar_density(self):
        basis = centralizer_basis(density(0.7 * np.eye(3)))
        assert len(basis) == 9

    def test_distinct_spectrum_matches_commutant_solver(self, rng):
        rho = random_hermitian(4, rng)
        basis = centralizer_basis(density(rho))
        # oracle: nullity of a |-> a rho - rho a as a complex-linear map
        n = 4
        op = np.kron(np.eye(n), rho.T) - np.kron(rho, np.eye(n))
        nullity = int(np.sum(np.linalg.svd(op, compute_uv=False) < 1e-10))
        assert len(basis) == nullity == n

    def test_elements_commute_with_density(self, rng):
        rho = random_hermitian(5, rng)
        for b in centralizer_basis(density(rho)):
            assert spectral_norm(b @ rho - rho @ b) <= 1e-10

    def test_abelian_for_faithful_distinct(self, rng):
        rho = random_psd(4, rng) + np.diag([1.0, 2.0, 3.0, 4.0])
        basis = centralizer_basis(density(rho))
        for b1 in basis:
            for b2 in basis:
                assert spectral_norm(b1 @ b2 - b2 @ b1) <= 1e-9


class TestCentralizerBlockCheck:
    def test_identity(self, rng):
        res = centralizer_block_check(density(random_psd(3, rng)), np.eye(3))
        assert res.in_centralizer and res.commutes_with_support
        assert res.corner_in_corner_centralizer

    def test_free_unitary_off_support(self):
        rho = density(np.diag([1.0, 0.0]))
        u = np.diag([1.0, np.exp(0.7j)])
        res = centralizer_block_check(rho, u)
        assert res.in_centralizer and res.commutes_with_support
        assert res.corner_in_corner_centralizer

    def test_swap_inside_support(self):
        rho = density(np.diag([1.0, 2.0, 0.0]))
        u = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
        res = centralizer_block_check(rho, u)
        assert not res.in_centralizer
        assert res.commutes_with_support
        assert not res.corner_in_corner_centralizer

    def test_equivalence_random(self, rng):
        from leafkit.orbits import pinching

        rho = density(np.diag([2.0, 2.0, 1.0, 0.0]))
        for k in range(60):
            if k % 2 == 0:
                u = random_unitary(4, rng)
            else:
                # commuting candidate: exponential of a pinched skew direction
                s = pinching(rho.rho, random_skew(4, rng))
                w, v = np.linalg.eigh(1j * s)
                u = (v * np.exp(-1j * w)) @ v.conj().T
            res = centralizer_block_check(rho, u)
            assert res.in_centralizer == (
                res.commutes_with_support and res.corner_in_corner_centralizer
            )

    def test_rejects_non_unitary(self, rng):
        with pytest.raises(NotUnitary):
            centralizer_block_check(density(random_psd(3, rng)), np.diag([2.0, 1.0, 1.0]))


class TestJordanIntersection:
    def test_commuting_unitary(self, rng):
        rho = density(np.diag([1.0, -1.0, 0.0]))
        u = np.diag(np.exp(1j * rng.standard_normal(3)))
        res = jordan_intersection_check(rho, u)
        assert res.fixes_phi and res.fixes_pos and res.fixes_neg

    def test_sign_swap(self):
        rho = density(np.diag([1.0, -1.0]))
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        res = jordan_intersection_check(rho, u)
        assert not res.fixes_phi
        assert not res.fixes_pos

    def test_global_phase(self):
        rho = density(np.diag([1.0, -2.0]))
        res = jordan_intersection_check(rho, np.exp(0.3j) * np.eye(2))
        assert res.fixes_phi and res.fixes_pos and res.fixes_neg

    def test_equivalence_exhaustive_signed_permutations(self):
        for rho_diag in ([1.0, -1.0], [2.0, -3.0, 0.0], [1.0, 1.0, -2.0]):
            rho = density(np.diag(rho_diag))
            for u in signed_permutations(len(rho_diag)):
                res = jordan_intersection_check(rho, u)
                assert res.fixes_phi == (res.fixes_pos and res.fixes_neg)

    def test_equivalence_random(self, rng):
        rho = density(np.diag([1.5, -0.5, -0.5, 0.0]))
        for _ in range(50):
            u = random_unitary(4, rng)
            res = jordan_intersection_check(rho, u)
            assert res.fixes_phi == (res.fixes_pos and res.fixes_neg)


class TestCommutatorScale:
    def test_commuting_unitary_at_scale(self, rng):
        # at ||rho|| = 3e6 the roundoff of a true commutator is far above an
        # absolute 1e-9 and far below 1e-9 ||rho||
        q = random_unitary(3, rng)
        rho = density(q @ np.diag([3e6, 1.0, 0.0]) @ q.conj().T)
        u = q @ np.diag([1.0, 1j, -1.0]) @ q.conj().T
        jordan = jordan_intersection_check(rho, u)
        assert jordan.fixes_phi and jordan.fixes_pos and jordan.fixes_neg
        block = centralizer_block_check(rho, u)
        assert block.in_centralizer and block.commutes_with_support and block.corner_in_corner_centralizer

    def test_swap_at_scale_is_refused(self, rng):
        q = random_unitary(3, rng)
        rho = density(q @ np.diag([3e6, 1.0, 0.0]) @ q.conj().T)
        u = q @ np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) @ q.conj().T
        assert not jordan_intersection_check(rho, u).fixes_phi
        block = centralizer_block_check(rho, u)
        assert not block.in_centralizer and not block.corner_in_corner_centralizer


class TestSupportEquivariance:
    def test_identity(self, rng):
        assert support_equivariance_check(density(random_psd(3, rng)), np.eye(3)) <= 1e-12

    def test_swap_explicit(self):
        rho = density(np.diag([1.0, 0.0]))
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        assert support_equivariance_check(rho, u) <= 1e-12

    def test_random(self, rng):
        for _ in range(25):
            rho = random_psd(5, rng)
            rho = rho @ np.diag([1, 1, 1, 1, 0]) @ rho.conj().T
            u = random_unitary(5, rng)
            assert support_equivariance_check(density(rho), u) <= 1e-8
