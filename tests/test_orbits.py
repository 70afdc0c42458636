import numpy as np
import pytest

from leafkit.errors import SizeMismatch
from leafkit.norming import op_norm
from leafkit.opcore import spectral_norm
from leafkit.orbits import (
    characteristic_tangent,
    isotropy_dimension,
    kernel_range_split,
    leaf_signature,
    orbit_sample,
    pinching,
    same_leaf,
)

from conftest import (
    PHI_SET,
    hermitian_with_spectrum,
    random_hermitian,
    random_skew,
    random_unitary,
)
from oracles import skew_hermitian_basis


def real_span_residual(mats, target):
    """Distance from target to the real span of mats."""
    a = np.array([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in mats]).T
    b = np.concatenate([target.real.ravel(), target.imag.ravel()])
    coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    return np.linalg.norm(a @ coef - b)


class TestCharacteristicTangent:
    def test_center_is_fixed(self, rng):
        a = random_skew(4, rng)
        out = characteristic_tangent(0.7 * np.eye(4), a)
        assert spectral_norm(out) <= 1e-12

    def test_worked_example(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        a = np.array([[0, 1], [-1, 0]], dtype=complex)
        np.testing.assert_allclose(
            characteristic_tangent(rho, a), np.array([[0, -1], [-1, 0]]), atol=1e-12
        )

    def test_traceless_and_hermitian(self, rng):
        for _ in range(10):
            rho = random_hermitian(5, rng)
            a = random_skew(5, rng)
            t = characteristic_tangent(rho, a)
            assert abs(np.trace(t)) <= 1e-10
            assert spectral_norm(t - t.conj().T) <= 1e-10

    def test_size_mismatch(self, rng):
        with pytest.raises(SizeMismatch):
            characteristic_tangent(random_hermitian(3, rng), random_skew(4, rng))


class TestLeafSignature:
    def test_diagonal(self):
        sig = leaf_signature(np.diag([1.0, 2.0]), tol=1e-9)
        assert sig.eigenvalues == (1.0, 2.0)
        assert sig.multiplicities == (1, 1)

    def test_conjugation_invariance(self, rng):
        u = random_unitary(2, rng)
        rho = u.conj().T @ np.diag([1.0, 2.0]).astype(complex) @ u
        sig = leaf_signature(rho, tol=1e-8)
        np.testing.assert_allclose(sig.eigenvalues, (1.0, 2.0), atol=1e-10)

    def test_distinct_signatures(self):
        a = leaf_signature(np.diag([1.0, 1.0]), tol=1e-9)
        b = leaf_signature(np.diag([1.0, 2.0]), tol=1e-9)
        assert a != b


class TestSameLeaf:
    def test_conjugate(self, rng):
        rho = random_hermitian(4, rng)
        u = random_unitary(4, rng)
        assert same_leaf(rho, u.conj().T @ rho @ u, tol=1e-9)

    def test_different_multiplicity(self):
        assert not same_leaf(np.diag([1.0, 2.0]), np.diag([1.0, 1.0]), tol=1e-9)

    def test_epsilon_tolerance(self):
        eps = 1e-6
        assert same_leaf(np.diag([1.0, 1.0 + eps]), np.diag([1.0 + eps, 1.0]), tol=10 * eps)


    def test_tolerance_scales_with_the_operands(self, rng):
        # at ||A|| = 9e7 the eigensolver roundoff is far above an absolute
        # 1e-9 and far below 1e-9 ||A||; a moved eigenvalue is still seen
        a = np.diag([9e7, 3e7, 1.0, -2e7, 5e6, 0.0])
        q = random_unitary(6, rng)
        assert same_leaf(a, q @ a @ q.conj().T, 1e-9)
        assert not same_leaf(a, q @ np.diag([9e7, 3e7, 2.0, -2e7, 5e6, 0.0]) @ q.conj().T, 1e-9)


class TestOrbitSample:
    def test_zero_scale(self, rng):
        t = random_hermitian(3, rng)
        samples = orbit_sample(t, count=1, scale=0.0, seed=5)
        np.testing.assert_allclose(samples[0], t, atol=1e-12)

    def test_leaf_preserved(self, rng):
        t = random_hermitian(5, rng)
        for s in orbit_sample(t, count=10, scale=0.5, seed=11):
            assert same_leaf(t, s, tol=1e-9)

    def test_seed_repeatability(self, rng):
        t = random_hermitian(4, rng)
        a = orbit_sample(t, count=3, scale=0.3, seed=42)
        b = orbit_sample(t, count=3, scale=0.3, seed=42)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_skew_input(self, rng):
        t = random_skew(4, rng)
        for s in orbit_sample(t, count=3, scale=0.2, seed=1):
            assert same_leaf(t, s, tol=1e-9)


class TestPinching:
    def test_diagonal_reference_masks_to_diagonal(self, rng):
        t = np.diag([1.0, 2.0, 3.0]).astype(complex)
        s = random_hermitian(3, rng)
        np.testing.assert_allclose(pinching(t, s), np.diag(np.diag(s)), atol=1e-12)

    def test_commuting_fixed_point(self, rng):
        t = hermitian_with_spectrum([1.0, 1.0, 2.0], rng)
        s = 1.5 * t + 0.3 * t @ t
        np.testing.assert_allclose(pinching(t, s), s, atol=1e-10)

    def test_idempotent_and_commutes(self, rng):
        for _ in range(10):
            t = random_hermitian(5, rng)
            s = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            e = pinching(t, s)
            assert spectral_norm(pinching(t, e) - e) <= 1e-10
            assert spectral_norm(t @ e - e @ t) <= 1e-9 * max(1.0, spectral_norm(t))

    def test_norm_contractive_every_phi(self, rng):
        for _ in range(10):
            t = random_hermitian(5, rng)
            s = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            e = pinching(t, s)
            for phi in PHI_SET:
                assert op_norm(phi, e) <= op_norm(phi, s) + 1e-9


class TestKernelRangeSplit:
    def test_two_point_spectrum(self):
        res = kernel_range_split(np.diag([1j, -1j]))
        assert len(res.kernel_basis) == 2
        assert len(res.range_basis) == 2
        assert res.residual <= 1e-9

    def test_zero_reference(self):
        res = kernel_range_split(np.zeros((3, 3)))
        assert len(res.kernel_basis) == 9
        assert len(res.range_basis) == 0

    def test_pinching_realizes_the_split(self, rng):
        for _ in range(5):
            t = random_skew(4, rng)
            s = random_skew(4, rng)
            res = kernel_range_split(t)
            assert len(res.kernel_basis) + len(res.range_basis) == 16
            assert res.residual <= 1e-9
            e = pinching(t, s)
            assert real_span_residual(res.kernel_basis, e) <= 1e-9
            assert real_span_residual(res.range_basis, s - e) <= 1e-9

    def test_bases_frobenius_orthogonal(self, rng):
        t = random_skew(4, rng)
        res = kernel_range_split(t)
        for k in res.kernel_basis:
            for r in res.range_basis:
                assert abs(np.trace(k.conj().T @ r).real) <= 1e-10


class TestIsotropyDimension:
    def test_distinct(self, rng):
        t = hermitian_with_spectrum([1.0, 2.0, 3.0, 4.0], rng)
        assert isotropy_dimension(t) == 4

    def test_scalar(self):
        assert isotropy_dimension(1j * np.eye(4)) == 16

    def test_multiplicity_pattern_against_nullity_oracle(self, rng):
        t = hermitian_with_spectrum([1.0, 1.0, 2.0], rng)
        # oracle: real nullity of X -> [T, X] on the skew-Hermitian basis
        basis = skew_hermitian_basis(3)
        cols = []
        for b in basis:
            c = t @ b - b @ t
            cols.append(np.concatenate([c.real.ravel(), c.imag.ravel()]))
        rank = np.linalg.matrix_rank(np.array(cols).T, tol=1e-9)
        assert isotropy_dimension(t) == len(basis) - rank == 5

    def test_tangent_map_rank_complements_isotropy(self, rng):
        from leafkit.orbits import characteristic_tangent

        t = hermitian_with_spectrum([1.0, 1.0, 3.0], rng)
        basis = skew_hermitian_basis(3)
        cols = []
        for b in basis:
            c = characteristic_tangent(t, b)
            cols.append(np.concatenate([c.real.ravel(), c.imag.ravel()]))
        rank = np.linalg.matrix_rank(np.array(cols).T, tol=1e-9)
        assert rank == 9 - isotropy_dimension(t)


class TestOrbitEdgeCases:
    def test_orbit_sample_rejects_zero_count(self, rng):
        with pytest.raises(ValueError):
            orbit_sample(random_hermitian(2, rng), count=0, scale=0.1, seed=0)

    def test_pinching_size_mismatch(self, rng):
        with pytest.raises(SizeMismatch):
            pinching(random_hermitian(3, rng), random_hermitian(4, rng))

    def test_pinching_rejects_general_matrix(self, rng):
        from leafkit.errors import NotHermitian

        bad = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        bad = bad + bad.conj().T + 1j * np.eye(3)
        with pytest.raises(NotHermitian):
            pinching(bad, random_hermitian(3, rng))
