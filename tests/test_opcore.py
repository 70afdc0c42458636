import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles

from leafkit import opcore

from leafkit.errors import (
    ClusterAmbiguity,
    NearSingular,
    NotHermitian,
    NotSkewHermitian,
    NotUnitary,
    ShapeError,
    SpectrumOutOfRange,
)
from leafkit.opcore import (
    HERM_TOL,
    UNITARY_TOL,
    SpectralData,
    defect_exceeds,
    function_calculus,
    hermitian_companion,
    is_hermitian,
    is_skew_hermitian,
    is_unitary,
    matrix_exp,
    polar_decompose,
    require_hermitian,
    require_skew_hermitian,
    require_unitary,
    singular_values,
    spectral_decompose,
    spectral_norm,
)
from leafkit.cross_section import build_reference, cross_section_phi, generated_algebra_dimension, minimal_polynomial
from leafkit.norming import PiSequence, adjoint_snf, lorentz, pi_regularity, schatten
from leafkit.orbits import leaf_signature, normal_frame
from leafkit.states import DensityFunctional, jordan_decompose
from leafkit.symplectic import polarization

from conftest import PHI_SET, random_hermitian, random_psd, random_skew, random_unitary, separated_values


class TestSpectralDecompose:
    def test_diagonal_with_multiplicity(self):
        sd = spectral_decompose(np.diag([1.0, 1.0, 0.0]).astype(complex), cluster_tol=1e-8)
        np.testing.assert_allclose(sd.eigenvalues, [0.0, 1.0])
        assert sd.multiplicities.tolist() == [1, 2]
        np.testing.assert_allclose(sd.projections[0], np.diag([0, 0, 1]), atol=1e-12)
        np.testing.assert_allclose(sd.projections[1], np.diag([1, 1, 0]), atol=1e-12)

    def test_symmetry_forced_projections(self):
        sd = spectral_decompose(np.array([[0, 1], [1, 0]], dtype=complex), cluster_tol=1e-8)
        np.testing.assert_allclose(sd.eigenvalues, [-1.0, 1.0])
        half = 0.5 * np.array([[1, -1], [-1, 1]])
        np.testing.assert_allclose(sd.projections[0], half, atol=1e-12)
        np.testing.assert_allclose(sd.projections[1], 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_reconstruction_random(self, rng):
        for _ in range(20):
            a = random_hermitian(6, rng)
            sd = spectral_decompose(a)
            assert spectral_norm(oracles.reconstruct(sd) - a) <= 1e-9 * max(1.0, spectral_norm(a))

    def test_resolution_of_identity(self, rng):
        a = random_hermitian(5, rng)
        sd = spectral_decompose(a)
        total = sum(sd.projections)
        assert spectral_norm(total - np.eye(5)) <= 1e-10
        for i, e in enumerate(sd.projections):
            assert spectral_norm(e - e.conj().T) <= 1e-12
            for j, f in enumerate(sd.projections):
                expected = e if i == j else 0.0
                assert spectral_norm(e @ f - expected) <= 1e-10

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            spectral_decompose(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_cluster_ambiguity(self):
        with pytest.raises(ClusterAmbiguity):
            spectral_decompose(np.diag([0.0, 1e-8]).astype(complex), cluster_tol=1e-8)

    @pytest.mark.parametrize("call", [
        spectral_decompose,
        minimal_polynomial,
        generated_algebra_dimension,
        leaf_signature,
        pytest.param(SpectralData.from_hermitian, id="from_hermitian"),
        pytest.param(lambda t, tol: SpectralData.from_eigh(*np.linalg.eigh(t), tol), id="from_eigh"),
    ])
    def test_negative_cluster_tolerance_is_rejected(self, call):
        # every frame is built by SpectralData.from_eigh, so each entry
        # point refuses the tolerance the same way
        with pytest.raises(ValueError, match="^cluster_tol must be nonnegative$"):
            call(np.diag([0.0, 1e-12, 1.0]).astype(complex), -1.0)

    def test_only_from_eigh_refuses_a_negative_tolerance(self):
        sources = [p.read_text() for p in Path(opcore.__file__).parent.glob("*.py")]
        assert sum(s.count("cluster_tol must be nonnegative") for s in sources) == 1
        assert "cluster_tol must be nonnegative" in inspect.getsource(SpectralData.from_eigh)


@st.composite
def clustered_hermitian(draw):
    """(T, cluster values, multiplicities, per-cluster projections) for a
    random Hermitian T with n <= 8 built from a known unitary, so the
    projections are an oracle that does not come from an eigensolver."""
    mults = draw(st.lists(st.integers(1, 4), min_size=1, max_size=8).filter(lambda m: sum(m) <= 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = separated_values(rng, len(mults))
    u = random_unitary(sum(mults), rng)
    edges = np.cumsum([0, *mults])
    projections = [u[:, a:b] @ u[:, a:b].conj().T for a, b in zip(edges[:-1], edges[1:])]
    t = sum(lam * e for lam, e in zip(values, projections))
    return 0.5 * (t + t.conj().T), values, mults, projections


FRAME_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestSpectralFrame:
    @FRAME_SETTINGS
    @given(clustered_hermitian(), st.integers(0, 2**32 - 1))
    def test_against_dense_cluster_oracles(self, case, seed):
        t, values, mults, projections = case
        n = t.shape[0]
        sd = spectral_decompose(t)
        np.testing.assert_allclose(sd.eigenvalues, values, atol=1e-10)
        assert sd.multiplicities.tolist() == mults
        assert len(sd.projections) == len(mults)
        for e, oracle, b in zip(sd.projections, projections, sd.bases):
            np.testing.assert_allclose(e, oracle, atol=1e-10)
            np.testing.assert_allclose(b @ b.conj().T, oracle, atol=1e-10)
            np.testing.assert_allclose(b.conj().T @ b, np.eye(b.shape[1]), atol=1e-10)
        labels = np.repeat(np.arange(len(mults)), mults)
        np.testing.assert_array_equal(sd.mask(), labels[:, None] == labels[None, :])
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        np.testing.assert_allclose(sd.pinch(s), sum(e @ s @ e for e in projections), atol=1e-9)
        np.testing.assert_allclose(oracles.reconstruct(sd), t, atol=1e-9)

    @FRAME_SETTINGS
    @given(clustered_hermitian())
    def test_skew_input_has_the_frame_of_its_hermitian_companion(self, case):
        t, _, mults, _ = case
        skew = normal_frame(1j * t)
        herm = normal_frame(t)
        np.testing.assert_allclose(skew.eigenvalues, herm.eigenvalues, atol=1e-12)
        assert skew.multiplicities.tolist() == herm.multiplicities.tolist() == mults
        for a, b in zip(skew.projections, herm.projections):
            np.testing.assert_allclose(a, b, atol=1e-10)


class TestSingularValues:
    def test_diagonal(self):
        np.testing.assert_allclose(singular_values(np.diag([3.0, -1.0])), [3.0, 1.0])

    def test_zero(self):
        np.testing.assert_allclose(singular_values(np.zeros((3, 4))), np.zeros(3))

    def test_rank_one_against_gram_oracle(self, rng):
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u *= 2.0 / np.linalg.norm(u)
        v *= 3.0 / np.linalg.norm(v)
        a = np.outer(u, v.conj())
        s = singular_values(a)
        gram = np.sqrt(np.maximum(np.linalg.eigvalsh(a.conj().T @ a), 0.0))[::-1]
        # the squared-matrix oracle only resolves down to sqrt(eps) * s_1
        np.testing.assert_allclose(s, gram, atol=1e-7)
        np.testing.assert_allclose(s, [6.0, 0, 0, 0], atol=1e-10)

    def test_adjoint_invariance(self, rng):
        for _ in range(10):
            a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            assert np.max(np.abs(singular_values(a) - singular_values(a.conj().T))) <= 1e-10

    def test_rejects_nonfinite(self):
        with pytest.raises(ShapeError):
            singular_values(np.array([[np.nan, 0], [0, 1]]))


class TestPolarDecompose:
    def test_unitary_input(self, rng):
        u = random_unitary(4, rng)
        pf = polar_decompose(u)
        np.testing.assert_allclose(pf.unitary_part, u, atol=1e-9)
        np.testing.assert_allclose(pf.positive_part, np.eye(4), atol=1e-9)

    def test_positive_definite_input(self, rng):
        p = random_psd(4, rng) + np.eye(4)
        pf = polar_decompose(p)
        np.testing.assert_allclose(pf.unitary_part, np.eye(4), atol=1e-9)
        np.testing.assert_allclose(pf.positive_part, p, atol=1e-9)

    def test_worked_example_against_eigh_oracle(self):
        a = np.array([[0, -2], [1, 0]], dtype=complex)
        w, v = np.linalg.eigh(a.conj().T @ a)
        q_oracle = (v * np.sqrt(w)) @ v.conj().T
        x_oracle = a @ np.linalg.inv(q_oracle)
        pf = polar_decompose(a)
        np.testing.assert_allclose(pf.positive_part, q_oracle, atol=1e-12)
        np.testing.assert_allclose(pf.unitary_part, x_oracle, atol=1e-12)
        np.testing.assert_allclose(pf.positive_part, np.diag([1.0, 2.0]), atol=1e-12)
        np.testing.assert_allclose(pf.unitary_part, np.array([[0, -1], [1, 0]]), atol=1e-12)

    def test_remultiply(self, rng):
        for _ in range(10):
            a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            pf = polar_decompose(a)
            assert spectral_norm(pf.unitary_part @ pf.positive_part - a) <= 1e-9 * max(
                1.0, spectral_norm(a)
            )

    def test_near_singular(self):
        with pytest.raises(NearSingular):
            polar_decompose(np.diag([1.0, 0.0]).astype(complex))


class TestMatrixExp:
    def test_zero(self):
        np.testing.assert_allclose(matrix_exp(np.zeros((3, 3))), np.eye(3), atol=1e-12)

    def test_diagonal_phases(self):
        out = matrix_exp(np.diag([1j * np.pi, 0.0]))
        np.testing.assert_allclose(out, np.diag([-1.0, 1.0]), atol=1e-12)

    def test_rotation_against_power_series(self):
        theta = 0.7
        a = np.array([[0, theta], [-theta, 0]], dtype=complex)
        series = np.zeros((2, 2), dtype=complex)
        term = np.eye(2, dtype=complex)
        for k in range(1, 40):
            series += term
            term = term @ a / k
        out = matrix_exp(a)
        np.testing.assert_allclose(out, series, atol=1e-13)
        rot = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
        np.testing.assert_allclose(out, rot, atol=1e-13)

    def test_unitarity_and_inverse(self, rng):
        from conftest import random_skew

        for _ in range(10):
            a = random_skew(5, rng)
            u = matrix_exp(a)
            assert spectral_norm(u.conj().T @ u - np.eye(5)) <= 1e-9
            assert spectral_norm(u @ matrix_exp(-a) - np.eye(5)) <= 1e-9

    def test_rejects_hermitian(self):
        with pytest.raises(NotSkewHermitian):
            matrix_exp(np.diag([1.0, 2.0]).astype(complex))


class TestFunctionCalculus:
    def test_identity_map(self, rng):
        a = random_psd(4, rng)
        a /= spectral_norm(a) + 0.1
        np.testing.assert_allclose(function_calculus(a, lambda t: t), a, atol=1e-12)

    def test_diagonal_square(self):
        out = function_calculus(np.diag([0.25, 1.0]).astype(complex), lambda t: t * t)
        np.testing.assert_allclose(out, np.diag([0.0625, 1.0]), atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(SpectrumOutOfRange):
            function_calculus(np.diag([0.5, 1.5]).astype(complex), lambda t: t)
        with pytest.raises(SpectrumOutOfRange):
            function_calculus(np.diag([-0.5, 0.5]).astype(complex), lambda t: t)

    def test_concave_root_map_is_norm_contractive(self, rng):
        from leafkit.norming import op_norm

        f = lambda t: 1.0 - np.sqrt(max(1.0 - t, 0.0))
        for _ in range(5):
            a = random_psd(5, rng)
            a /= spectral_norm(a) * 1.05
            fa = function_calculus(a, f)
            w, v = np.linalg.eigh(a)
            oracle = (v * np.array([f(t) for t in np.clip(w, 0, 1)])) @ v.conj().T
            np.testing.assert_allclose(fa, oracle, atol=1e-12)
            for phi in PHI_SET:
                assert op_norm(phi, fa) <= op_norm(phi, a) + 1e-9


class TestEdgeCases:
    def test_polar_rejects_non_square(self, rng):
        with pytest.raises(ShapeError):
            polar_decompose(rng.standard_normal((2, 3)))

    def test_cluster_merging_below_tolerance(self):
        sd = spectral_decompose(np.diag([0.0, 1e-10]).astype(complex), cluster_tol=1e-8)
        assert sd.multiplicities.tolist() == [2]
        assert abs(sd.eigenvalues[0] - 5e-11) <= 1e-12

    def test_matrix_exp_one_by_one(self):
        np.testing.assert_allclose(matrix_exp(np.array([[0.5j]])), [[np.exp(0.5j)]], atol=1e-14)

    def test_spectral_decompose_scalar_matrix(self):
        sd = spectral_decompose(2.0 * np.eye(3))
        assert sd.multiplicities.tolist() == [3]
        np.testing.assert_allclose(sd.projections[0], np.eye(3), atol=1e-12)


def spectral_rule_rejects(d, tol, m=None):
    """The reference gate: reject when ||D|| > tol * max(1, ||M||)."""
    scale = 1.0 if m is None else max(1.0, spectral_norm(m))
    return spectral_norm(d) > tol * scale


def with_defect(base, direction, tol, factor):
    """base + s * direction with ||s * direction|| = factor * tol * max(1, ||M||)
    for the result M (direction has unit spectral norm)."""
    s = 0.0
    for _ in range(3):
        s = factor * tol * max(1.0, spectral_norm(base + s * direction))
    return base + s * direction


BOUNDARY = [1.0 - 1e-3, 1.0 + 1e-3]


class TestValidationGates:
    """Each gate makes the decision and raises the message of the
    spectral-norm rule.  At ||M|| >> 1 and a defect of (1 +- 1e-3) tol
    ||M||, the Frobenius norm of the defect is above tol, so the exact
    test decides."""

    @pytest.mark.parametrize("factor", BOUNDARY)
    def test_require_hermitian(self, rng, factor):
        n = 6
        k = random_skew(n, rng)
        h = random_hermitian(n, rng)
        m = with_defect(1e4 * h / spectral_norm(h), k / spectral_norm(k), 0.5 * HERM_TOL, factor)
        d = m - m.conj().T
        assert np.linalg.norm(d) > HERM_TOL
        rejects = spectral_rule_rejects(d, HERM_TOL, m)
        assert rejects == (factor > 1.0)
        if rejects:
            with pytest.raises(NotHermitian) as err:
                require_hermitian(m, name="M")
            assert str(err.value) == f"M: Hermitian defect {spectral_norm(d):.3e} exceeds tolerance"
        else:
            np.testing.assert_array_equal(require_hermitian(m), 0.5 * (m + m.conj().T))

    @pytest.mark.parametrize("factor", BOUNDARY)
    def test_require_skew_hermitian(self, rng, factor):
        n = 6
        k = random_skew(n, rng)
        h = random_hermitian(n, rng)
        m = with_defect(1e4 * k / spectral_norm(k), h / spectral_norm(h), 0.5 * HERM_TOL, factor)
        d = m + m.conj().T
        assert np.linalg.norm(d) > HERM_TOL
        rejects = spectral_rule_rejects(d, HERM_TOL, m)
        assert rejects == (factor > 1.0)
        if rejects:
            with pytest.raises(NotSkewHermitian) as err:
                require_skew_hermitian(m, name="M")
            assert str(err.value) == f"M: skew-Hermitian defect {spectral_norm(d):.3e} exceeds tolerance"
        else:
            np.testing.assert_array_equal(require_skew_hermitian(m), 0.5 * (m - m.conj().T))

    @pytest.mark.parametrize("factor", BOUNDARY)
    def test_is_unitary(self, rng, factor):
        # U* U - 1 = diag(delta): every singular value of the defect at the boundary
        n = 6
        delta = factor * UNITARY_TOL * np.ones(n)
        u = random_unitary(n, rng) * np.sqrt(1.0 + delta)
        d = u.conj().T @ u - np.eye(n)
        assert np.linalg.norm(d) > UNITARY_TOL
        rejects = spectral_rule_rejects(d, UNITARY_TOL)
        assert rejects == (factor > 1.0)
        assert is_unitary(u) is not rejects
        if rejects:
            with pytest.raises(NotUnitary) as err:
                require_unitary(u)
            assert str(err.value) == "matrix is not unitary within tolerance"
        else:
            np.testing.assert_array_equal(require_unitary(u), u)

    def test_spread_defect_below_unit_scale(self, rng):
        # ||M|| < 1 and a defect with equal singular values: the Frobenius
        # norm is sqrt(n) times the spectral norm, so the exact test runs
        n = 16
        h = random_hermitian(n, rng)
        q = random_unitary(n, rng)
        flat = (q * 1j) @ q.conj().T  # skew with every singular value 1
        for factor in BOUNDARY:
            m = 0.1 * h / spectral_norm(h) + 0.5 * factor * HERM_TOL * flat
            d = m - m.conj().T
            assert spectral_norm(m) < 1.0 and np.linalg.norm(d) > HERM_TOL
            rejects = spectral_rule_rejects(d, HERM_TOL, m)
            assert rejects == (factor > 1.0)
            if rejects:
                with pytest.raises(NotHermitian):
                    require_hermitian(m)
            else:
                require_hermitian(m)

    @pytest.mark.parametrize("factor", BOUNDARY + [3.0, 1e3])
    @pytest.mark.parametrize("norm_m", [1e-3, 1.0, 1e4])
    def test_defect_exceeds_decides_as_the_spectral_rule(self, rng, factor, norm_m):
        # defects of spectral norm factor * tol * max(1, ||M||), concentrated
        # (rank one), spread (equal singular values) and generic: every
        # path of the gate (Frobenius accept, Frobenius reject, exact test)
        # must make the spectral rule's decision
        for n in (1, 2, 6, 16):
            h = random_hermitian(n, rng)
            m = norm_m * h / spectral_norm(h)
            u = random_unitary(n, rng)
            directions = [
                np.outer(u[:, 0], u[:, -1].conj()),
                u @ random_unitary(n, rng),
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
            ]
            for tol in (HERM_TOL, UNITARY_TOL):
                for direction in directions:
                    direction = direction / spectral_norm(direction)
                    d = factor * tol * max(1.0, spectral_norm(m)) * direction
                    assert defect_exceeds(d, tol, m) == spectral_rule_rejects(d, tol, m) == (factor > 1.0)
                    d = factor * tol * direction
                    assert defect_exceeds(d, tol) == spectral_rule_rejects(d, tol) == (factor > 1.0)

    @pytest.mark.parametrize("norm_m", [1e-12, 1e-10, 1e-8, 1e-4, 1.0, 1e4])
    def test_skew_input_is_classified_by_the_spectral_rule(self, rng, norm_m):
        # the Hermitian test of a skew M sees the defect 2M: the rule reads
        # M as Hermitian only when 2 ||M|| <= tol, and the Frobenius reject
        # takes the other cases once ||M||_F is well above sqrt(n) tol
        n = 8
        k = random_skew(n, rng)
        m = norm_m * k / spectral_norm(k)
        hermitian = not spectral_rule_rejects(m - m.conj().T, HERM_TOL, m)
        assert hermitian == (norm_m < 0.5 * HERM_TOL)
        assert is_hermitian(m) is hermitian
        assert is_skew_hermitian(m)
        h = m if hermitian else -1j * m
        np.testing.assert_array_equal(hermitian_companion(m), 0.5 * (h + h.conj().T))


# builders of the frozen records that hold arrays
ARRAY_RECORDS = {
    "SpectralData": lambda: spectral_decompose(np.diag([2.0, 1.0, 1.0]).astype(complex)),
    "PolarizationMask": lambda: polarization(np.diag([2j, 1j, 0])),
    "ReferenceOperator": lambda: build_reference(np.diag([2.0, 1.0, 1.0])),
    "CrossSectionResult": lambda: cross_section_phi(build_reference(np.diag([2.0, 1.0, 1.0])), np.eye(3)),
    "DensityFunctional": lambda: DensityFunctional(np.eye(2)),
    "JordanPair": lambda: jordan_decompose(DensityFunctional(np.diag([1.0, -1.0]))),
    "PolarFactors": lambda: polar_decompose(np.diag([2.0, 1.0])),
    "PiRegularity": lambda: pi_regularity(PiSequence("power", alpha=0.5, horizon=100)),
}


@pytest.mark.parametrize("name", list(ARRAY_RECORDS))
def test_array_records_compare_by_identity(name):
    # a generated == would compare the arrays and raise; these records are
    # equal only to themselves and hash by identity
    x, y = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
    assert type(x).__name__ == name
    assert x == x and x != y
    assert hash(x) == hash(x)
    assert len({x, y}) == 2


def test_value_records_keep_generated_equality():
    pi = PiSequence("power", alpha=0.5)
    assert pi == PiSequence("power", alpha=0.5) and hash(pi) == hash(PiSequence("power", alpha=0.5))
    for phi in (schatten(1.5), lorentz(pi)):
        assert adjoint_snf(adjoint_snf(phi)) == phi
