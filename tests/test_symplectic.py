import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from leafkit.cli import run_command
from leafkit.errors import (
    ClusterAmbiguity, NotSkewHermitian, NotUnitary, NotUnitVector, PreconditionError, SizeMismatch,
)
from leafkit.matrixio import write_matrix
from leafkit.orbits import SPLIT_SEED, isotropy_dimension, kernel_range_split, pinching
from leafkit.opcore import SpectralData, matrix_exp, random_skew_hermitian
from leafkit.states import DensityFunctional, centralizer_basis
from leafkit.symplectic import (
    PolarizationMask,
    _reference,
    kaehler_check,
    omega,
    polarization,
    polarization_properties,
    projective_form_compare,
    radical_check,
)

from conftest import hermitian_with_spectrum, random_skew, random_unitary, recorded_generators, separated_values
from oracles import skew_hermitian_basis


class TestOmega:
    def test_antisymmetry_diagonal(self, rng):
        t = random_skew(3, rng)
        x = random_skew(3, rng)
        assert omega(t, x, x) == 0.0

    def test_worked_example(self):
        t = np.diag([1j, -1j])
        x = np.array([[0, 1], [-1, 0]], dtype=complex)
        y = np.array([[0, 1j], [1j, 0]], dtype=complex)
        assert omega(t, x, y) == pytest.approx(-4.0, abs=1e-12)

    def test_zero_reference(self, rng):
        assert omega(np.zeros((3, 3)), random_skew(3, rng), random_skew(3, rng)) == 0.0

    def test_real_valued_and_antisymmetric(self, rng):
        for _ in range(20):
            t, x, y = (random_skew(4, rng) for _ in range(3))
            val = np.trace(t @ (x @ y - y @ x))
            assert abs(val.imag) <= 1e-12 * max(1.0, abs(val))
            assert omega(t, x, y) == pytest.approx(-omega(t, y, x), abs=1e-12)

    def test_ad_invariance(self, rng):
        for _ in range(10):
            t, x, y = (random_skew(4, rng) for _ in range(3))
            u = random_unitary(4, rng)
            conj = lambda m: u @ m @ u.conj().T
            assert omega(t, x, y) == pytest.approx(omega(conj(t), conj(x), conj(y)), abs=1e-9)

    def test_hermitian_reference_promoted(self, rng):
        # a Hermitian reference is accepted and read as its skew partner iT
        t = np.diag([1.0, -1.0]).astype(complex)
        x, y = random_skew(2, rng), random_skew(2, rng)
        assert omega(t, x, y) == pytest.approx(omega(1j * t, x, y), abs=1e-12)

    def test_tiny_reference_is_classified_once(self, rng):
        # iT of a Hermitian T below the gate tolerance must not be re-read
        # as the Hermitian 0, so the form scales with T
        t = np.diag([3.0, 1.0, -2.0]).astype(complex)
        x, y = random_skew(3, rng), random_skew(3, rng)
        assert omega(1e-12 * t, x, y) == pytest.approx(1e-12 * omega(t, x, y), rel=1e-12)
        assert omega(1e-12 * t, x, y) != 0.0

    def test_rejects_general_matrix(self, rng):
        bad = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        bad = bad + bad.conj().T + 1j * np.eye(3)  # neither Hermitian nor skew
        with pytest.raises(NotSkewHermitian):
            omega(bad, random_skew(3, rng), random_skew(3, rng))


def gram_nullity_oracle(t, tol=1e-9):
    """Independent radical dimension: explicit Gram matrix over the
    standard skew basis, nullity by SVD."""
    n = t.shape[0]
    basis = skew_hermitian_basis(n)
    g = np.zeros((len(basis), len(basis)))
    for a, x in enumerate(basis):
        for b, y in enumerate(basis):
            g[a, b] = np.trace(t @ (x @ y - y @ x)).real
    sv = np.linalg.svd(g, compute_uv=False)
    if sv[0] == 0.0:
        return len(basis)
    return int(np.sum(sv <= tol * sv[0]))


class TestRadical:
    def test_scalar_reference(self):
        res = radical_check(0.5j * np.eye(3), sample_count=10, seed=0)
        assert res.radical_dim == 9
        assert res.isotropy_dim == 9
        assert res.match

    def test_two_point_against_oracle(self):
        t = np.diag([1j, -1j])
        res = radical_check(t, sample_count=10, seed=0)
        assert res.radical_dim == gram_nullity_oracle(t) == 2
        assert res.match

    def test_multiplicity_pattern(self, rng):
        u = random_unitary(3, rng)
        t = u @ np.diag([2j, 2j, 1j]) @ u.conj().T
        res = radical_check(t, sample_count=10, seed=0)
        assert res.radical_dim == gram_nullity_oracle(t) == 5
        assert res.match
        assert res.sampled_pairing_max <= 1e-9

    def test_nondegenerate_on_complement(self, rng):
        # omega restricted to the range basis has full rank for generic T
        t = random_skew(4, rng)
        res = kernel_range_split(t)
        rb = res.range_basis
        g = np.zeros((len(rb), len(rb)))
        for a, x in enumerate(rb):
            for b, y in enumerate(rb):
                g[a, b] = np.trace(t @ (x @ y - y @ x)).real
        sv = np.linalg.svd(g, compute_uv=False)
        assert sv[-1] > 1e-6 * sv[0]


class TestPolarization:
    def test_two_distinct_clusters(self):
        mask = polarization(np.diag([2j, 1j]))
        assert mask.mask == ((0, 0), (0, 1), (1, 1))
        assert mask.complex_dim == 3
        assert mask.thetas == (2.0, 1.0)

    def test_scalar_everything(self):
        mask = polarization(1j * np.eye(3))
        assert mask.mask == ((0, 0),)
        assert mask.complex_dim == 9

    def test_three_clusters_dimensions(self):
        t = np.diag([2j, 1j, 0.0])
        props = polarization_properties(t)
        assert props.dim_p == 6
        assert props.dim_intersection == 3
        assert props.dim_intersection_expected == 3
        assert props.dim_sum == 9

    def test_properties_random(self, rng):
        for _ in range(5):
            u = random_unitary(4, rng)
            t = u @ np.diag([3j, 2j, 2j, 0.0]) @ u.conj().T
            props = polarization_properties(t, seed=7)
            assert props.commutation_residual <= 1e-9
            assert props.dim_intersection == props.dim_intersection_expected == 6
            assert props.dim_sum == 16
            assert props.complemented

    def test_mask_of_another_size_is_rejected(self):
        with pytest.raises(SizeMismatch):
            polarization_properties(np.diag([2j, 1j, 0.0]), polarization(np.diag([2j, 1j])))

    def test_mask_of_another_reference_is_rejected(self):
        # the mask of diag(5, 5, 5, 0) has a cluster of 3, so it would
        # report the isotropy 3^2 + 1 = 10 where T's is 2^2 + 1 + 1 = 6
        t = np.diag([3.0, 1.0, 1.0, 0.0])
        with pytest.raises(PreconditionError, match="does not diagonalize T"):
            polarization_properties(t, polarization(np.diag([5.0, 5.0, 5.0, 0.0])))
        props = polarization_properties(t, polarization(1j * t))
        assert props.dim_intersection == props.dim_intersection_expected == isotropy_dimension(t) == 6

    @pytest.mark.parametrize("factor", [1e-6, 0.0])
    def test_mask_with_a_non_orthonormal_frame_is_refused(self, factor):
        # a scaled frame still diagonalizes T within the residual test, so
        # only the certificate of its frame can refuse it
        t = np.diag([3.0, 1.0, 1.0, 0.0])
        sd = polarization(t).spectral
        with pytest.raises(NotUnitary):
            polarization_properties(t, PolarizationMask(replace(sd, frame=factor * sd.frame)))

    def test_positivity_on_matrix_units(self):
        # -i omega(Z, Z*) on an included off-diagonal unit equals the
        # theta gap of its block pair, hence is nonnegative
        t = np.diag([2j, 1j])
        mask = polarization(t)
        offdiag = [b for b in oracles.polarization_basis(mask) if abs(b[0, 1]) > 0.5]
        assert len(offdiag) == 1
        z = offdiag[0]
        val = (-1j * np.trace(t @ (z @ z.conj().T - z.conj().T @ z))).real
        assert val == pytest.approx(2.0 - 1.0, abs=1e-12)


class TestKaehler:
    def test_two_cluster_contracts(self):
        res = kaehler_check(np.diag([2j, 1j]), sample_count=100, seed=7)
        assert res.isotropy_max_abs <= 1e-9 * res.scale
        assert res.positivity_min >= -1e-9 * res.scale

    def test_scalar_reference_everything_is_radical(self):
        res = kaehler_check(1j * np.eye(3), sample_count=50, seed=1)
        assert abs(res.positivity_min) <= 1e-12
        assert res.isotropy_max_abs <= 1e-12

    def test_positivity_scales_linearly(self):
        t = np.diag([3j, 1j, 0.0])
        r1 = kaehler_check(t, sample_count=50, seed=3)
        r2 = kaehler_check(2.0 * t, sample_count=50, seed=3)
        assert r2.positivity_min == pytest.approx(2.0 * r1.positivity_min, rel=1e-9)

    def test_random_references(self, rng):
        for _ in range(5):
            u = random_unitary(4, rng)
            t = u @ np.diag([3j, 1j, 1j, -1j]) @ u.conj().T
            res = kaehler_check(t, sample_count=100, seed=5)
            assert res.isotropy_max_abs <= 1e-9 * res.scale
            assert res.positivity_min >= -1e-9 * res.scale

    def test_flipped_orientation_fails_every_draw(self, monkeypatch, tmp_path, capsys):
        # with the clusters in ascending theta order the mask holds the lower
        # block triangle, where -i omega_T(Z, Z*) = sum (theta_a - theta_b) |C_ab|^2
        # is negative on every draw with a nonzero cross-block coefficient
        rng = np.random.default_rng(2525)
        t = hermitian_with_spectrum(np.repeat([2.0, 0.5, -1.0], (2, 3, 1)), rng)
        t = 0.5 * (t + t.conj().T)
        write_matrix(t, tmp_path / "t.json")
        assert run_command(["kahler-check", str(tmp_path / "t.json"), "--samples", "20"]) == 0
        capsys.readouterr()

        ascending = lambda self: tuple(int(i) for i in np.argsort(self.spectral.eigenvalues, kind="stable"))
        monkeypatch.setattr(PolarizationMask, "block_order", property(ascending))
        res = kaehler_check(t, sample_count=20, seed=4)
        assert res.positivity_min + res.frame_remainder < -1e-9 * res.scale
        assert run_command(["kahler-check", str(tmp_path / "t.json"), "--samples", "20"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False
        assert report["results"]["positivity_min"] < 0.0


class TestProjectiveCompare:
    def test_equal_directions_vanish(self, rng):
        a = random_skew(3, rng)
        x0 = np.zeros(3, dtype=complex)
        x0[0] = 1.0
        res = projective_form_compare(x0, a, a)
        assert res.orbit_form == pytest.approx(0.0, abs=1e-12)
        assert res.geometric_form == pytest.approx(0.0, abs=1e-12)

    def test_worked_example(self):
        x0 = np.array([1.0, 0.0], dtype=complex)
        a1 = np.array([[0, 1], [-1, 0]], dtype=complex)
        a2 = np.array([[0, 1j], [1j, 0]], dtype=complex)
        res = projective_form_compare(x0, a1, a2)
        assert res.orbit_form == pytest.approx(-2.0, abs=1e-12)
        assert res.geometric_form == pytest.approx(2.0, abs=1e-12)
        assert res.abs_match

    def test_phase_stabilizer_invariance(self, rng):
        x0 = np.zeros(4, dtype=complex)
        x0[0] = 1.0
        a1, a2 = random_skew(4, rng), random_skew(4, rng)
        base = projective_form_compare(x0, a1, a2)
        # unitary fixing x0 up to phase: block diag(phase, anything)
        u = np.zeros((4, 4), dtype=complex)
        u[0, 0] = np.exp(0.9j)
        u[1:, 1:] = random_unitary(3, rng)
        rot = projective_form_compare(x0, u @ a1 @ u.conj().T, u @ a2 @ u.conj().T)
        assert abs(rot.orbit_form) == pytest.approx(abs(base.orbit_form), abs=1e-9)
        assert abs(rot.geometric_form) == pytest.approx(abs(base.geometric_form), abs=1e-9)

    def test_signs_always_opposite(self, rng):
        for _ in range(50):
            x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            x /= np.linalg.norm(x)
            a1, a2 = random_skew(5, rng), random_skew(5, rng)
            res = projective_form_compare(x, a1, a2)
            assert res.abs_match
            assert res.orbit_form == pytest.approx(-res.geometric_form, abs=1e-9)

    @pytest.mark.parametrize("k", range(-8, 9))
    def test_match_is_relative_to_the_directions(self, k):
        # the forms scale as ||a1|| ||a2||, and so does their roundoff
        rng = np.random.default_rng(2600 + k)
        for _ in range(50):
            x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            x /= np.linalg.norm(x)
            a1, a2 = 10.0**k * random_skew(5, rng), 10.0**k * random_skew(5, rng)
            assert projective_form_compare(x, a1, a2).abs_match

    def test_rejects_non_unit_vector(self, rng):
        with pytest.raises(NotUnitVector):
            projective_form_compare(np.array([1.0, 1.0]), random_skew(2, rng), random_skew(2, rng))


@st.composite
def clustered_reference(draw):
    """(T, multiplicities, skew representative) for a random Hermitian or
    skew-Hermitian T with n <= 8 and a random multiplicity pattern."""
    mults = draw(st.lists(st.integers(1, 4), min_size=1, max_size=8).filter(lambda m: sum(m) <= 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = hermitian_with_spectrum(np.repeat(separated_values(rng, len(mults)), mults), rng)
    h = 0.5 * (h + h.conj().T)
    skew = draw(st.booleans())
    return (1j * h if skew else h), mults, 1j * h


ORACLE_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class TestAgainstDenseOracles:
    """The eigenframe paths against the dense constructions of
    tests/oracles.py on random multiplicity patterns, n <= 8."""

    @ORACLE_SETTINGS
    @given(clustered_reference(), st.integers(0, 2**31 - 1))
    def test_counts_and_samples(self, case, seed):
        t, mults, tm = case
        iso = sum(m * m for m in mults)
        scale = max(1.0, np.linalg.norm(tm, 2))

        rad = radical_check(t, sample_count=5, seed=seed)
        assert rad.radical_dim == oracles.radical_dim(tm) == iso
        assert rad.match

        mask = polarization(t)
        props = polarization_properties(t, mask, sample_count=10, seed=seed)
        basis = oracles.polarization_basis(mask)
        rng = np.random.default_rng(seed)
        coeff = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        np.testing.assert_allclose(mask.element(coeff), sum(c * b for c, b in zip(coeff, basis)), atol=1e-12)
        adjoints = [b.conj().T for b in basis]
        assert props.dim_p == oracles.span_rank(basis) == len(basis)
        assert props.dim_sum == oracles.span_rank(basis + adjoints)
        assert props.dim_intersection == 2 * props.dim_p - props.dim_sum == iso
        assert abs(props.commutation_residual - oracles.commutation_residual(mask, 10, seed)) <= 1e-12

        kc = kaehler_check(t, sample_count=10, seed=seed)
        iso_max, pos_min = oracles.kaehler_samples(tm, mask, 10, seed)
        assert abs(kc.isotropy_max_abs - iso_max) <= 1e-12 * scale
        assert abs(kc.positivity_min - pos_min) <= 1e-12 * scale
        # the frame remainder covers the dense values from the side each
        # contract is applied on
        assert iso_max <= kc.isotropy_max_abs + kc.frame_remainder + 1e-15 * scale
        assert kc.positivity_min - kc.frame_remainder <= pos_min + 1e-15 * scale

    @ORACLE_SETTINGS
    @given(clustered_reference(), st.integers(0, 2**31 - 1))
    def test_kernel_range_split_spans(self, case, seed):
        t, mults, _ = case
        n = sum(mults)
        split = kernel_range_split(t)
        assert len(split.kernel_basis) == sum(m * m for m in mults)
        assert len(split.kernel_basis) + len(split.range_basis) == n * n
        s = random_skew_hermitian(n, np.random.default_rng(SPLIT_SEED))
        _, residual = oracles.lstsq_split([*split.kernel_basis, *split.range_basis], s)
        assert residual <= 1e-12 and split.residual <= 1e-12
        # the kernel span is the pinching image and the range span its complement
        s = random_skew_hermitian(n, np.random.default_rng(seed))
        coef, residual = oracles.lstsq_split([*split.kernel_basis, *split.range_basis], s)
        assert residual <= 1e-12
        kd = len(split.kernel_basis)
        kernel_part = sum((c * b for c, b in zip(coef[:kd], split.kernel_basis)), np.zeros((n, n)))
        np.testing.assert_allclose(kernel_part, pinching(t, s), atol=1e-12)

    @staticmethod
    def assert_pairing_is_the_per_sample_loop(t, sample_count, seed):
        with recorded_generators() as made:
            res = radical_check(t, sample_count=sample_count, seed=seed)
        rng = np.random.default_rng(seed)
        tm, sd, _ = _reference(t)
        assert res.sampled_pairing_max == oracles.radical_pairing_max(tm, sd, sample_count, rng)
        assert [g.bit_generator.state for g in made] == [rng.bit_generator.state]

    @ORACLE_SETTINGS
    @given(clustered_reference(), st.integers(1, 300), st.integers(0, 2**31 - 1))
    def test_sampled_pairing_is_the_per_sample_loop(self, case, sample_count, seed):
        self.assert_pairing_is_the_per_sample_loop(case[0], sample_count, seed)

    def test_sampled_pairing_at_n32(self):
        rng = np.random.default_rng(3232)
        t = hermitian_with_spectrum(np.repeat([3.0, 1.0, -0.5, -2.0], (12, 8, 8, 4)), rng)
        for ref in (t, 1j * t):
            self.assert_pairing_is_the_per_sample_loop(ref, 100, 5)

    @ORACLE_SETTINGS
    @given(clustered_reference())
    def test_split_views_are_the_eager_lists(self, case):
        # the kernel/range split and the centralizer of the density -iT
        t, _, tm = case
        split = kernel_range_split(t)
        kernel, rangeb = oracles.split_lists(_reference(t)[1])
        phi = DensityFunctional(-1j * tm)
        views = ((split.kernel_basis, kernel), (split.range_basis, rangeb),
                 (centralizer_basis(phi), oracles.centralizer_list(phi)))
        for view, eager in views:
            assert len(view) == len(eager)
            for u, e in zip(view, eager):
                assert u.dtype == e.dtype and u.shape == e.shape and u.tobytes() == e.tobytes()
            if eager:
                np.testing.assert_array_equal(view[-1], eager[-1])
                np.testing.assert_array_equal(view[np.int64(0)], eager[0])
            assert len(view[1::2]) == len(eager[1::2])
            with pytest.raises(IndexError):
                view[len(eager)]
            with pytest.raises(IndexError):
                view[-len(eager) - 1]


class TestScaleCovariance:
    def test_tiny_reference_is_classified_once(self):
        # read as Hermitian, T has two clusters; iT must not be re-read as
        # the Hermitian 0, which would give one cluster of 2
        t = np.diag([1e-12, -1e-12]).astype(complex)
        rad = radical_check(t, sample_count=5, seed=0)
        assert rad.radical_dim == rad.isotropy_dim == isotropy_dimension(t) == 2
        assert rad.match
        assert polarization(t).multiplicities == (1, 1)

    @pytest.mark.parametrize("k", range(-8, 9))
    def test_scaled_reference(self, k):
        rng = np.random.default_rng(1000 + k)
        mults = (2, 1, 3)
        h = hermitian_with_spectrum(np.repeat([1.5, -0.5, -2.0], mults), rng)
        for t in (10.0**k * h, 10.0**k * 1j * h):
            rad = radical_check(t, sample_count=5, seed=k + 8)
            assert rad.radical_dim == rad.isotropy_dim == isotropy_dimension(t) == 14
            assert polarization(t).multiplicities == mults
            kc = kaehler_check(t, sample_count=20, seed=k + 8)
            assert kc.isotropy_max_abs <= 1e-9 * kc.scale
            assert kc.positivity_min >= -1e-9 * kc.scale

    def test_radical_count_applies_the_cluster_partition(self, tmp_path, capsys):
        # theta = (0, 3e-9, 1): the gap 3e-9 is below half the cluster
        # tolerance 1e-8, so 0 and 3e-9 form one cluster, and the pair is
        # radical although its Gram value 6e-9 exceeds 1e-9 ||T||
        t = np.diag([0.0, 3e-9, 1.0]).astype(complex)
        rad = radical_check(t, sample_count=5)
        assert rad.radical_dim == rad.isotropy_dim == isotropy_dimension(t) == 5
        assert rad.match
        write_matrix(t, tmp_path / "t.json")
        assert run_command(["radical", str(tmp_path / "t.json")]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["radical_dim"] == 5

    def test_uncertified_frame_is_refused(self, monkeypatch):
        # a frame rotated by 1e-6 couples the basis far above the cutoff
        # 3 cluster_tol = 6e-8, so no count is certified
        exact = SpectralData.from_hermitian
        rng = np.random.default_rng(77)

        def rotated(h, cluster_tol=None):
            sd = exact(h, cluster_tol)
            return replace(sd, frame=sd.frame @ matrix_exp(1e-6 * random_skew_hermitian(sd.size, rng)))

        monkeypatch.setattr(SpectralData, "from_hermitian", rotated)
        with pytest.raises(ClusterAmbiguity, match="not certified"):
            radical_check(np.diag([0.0, 1.0, 2.0]), sample_count=1)

    @pytest.mark.parametrize("call", [
        lambda t, k: radical_check(t, sample_count=k),
        lambda t, k: polarization_properties(t, sample_count=k),
        lambda t, k: kaehler_check(t, sample_count=k),
    ])
    @pytest.mark.parametrize("count", [0, -3])
    def test_no_samples_is_rejected(self, call, count):
        # a sampled contract over no samples would report a vacuous pass
        with pytest.raises(ValueError, match="sample_count"):
            call(np.diag([2j, 1j]), count)

    def test_zero_reference_is_all_radical(self):
        res = radical_check(np.zeros((3, 3)), sample_count=3)
        assert res.radical_dim == res.isotropy_dim == 9
        assert res.sampled_pairing_max == 0.0


def traced_peak_mib(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestMemoryBudgets:
    """tracemalloc peaks at n = 32 with multiplicities (12, 8, 8, 4); the
    dense paths took 64.3, 41.5, 10.5 and 48.3 MiB, the eager split
    lists 16.2 MiB and the eager centralizer list 4.6 MiB."""

    @pytest.fixture(scope="class")
    def reference(self):
        rng = np.random.default_rng(3232)
        return hermitian_with_spectrum(np.repeat([3.0, 1.0, -0.5, -2.0], (12, 8, 8, 4)), rng)

    @pytest.mark.parametrize("name, call, budget_mib", [
        ("radical_check", radical_check, 4),
        ("polarization_properties", polarization_properties, 4),
        ("kaehler_check", kaehler_check, 4),
        ("kernel_range_split", kernel_range_split, 4),
        ("centralizer_basis", lambda t: centralizer_basis(DensityFunctional(t)), 4),
    ])
    def test_peak(self, reference, name, call, budget_mib):
        assert traced_peak_mib(lambda: call(reference)) <= budget_mib, name

    def test_split_at_n48(self):
        # the eager lists of 48^2 dense 48 x 48 units peaked at 81.5 MiB
        rng = np.random.default_rng(4848)
        t = hermitian_with_spectrum(separated_values(rng, 48), rng)
        assert traced_peak_mib(lambda: kernel_range_split(t)) <= 4

    def test_centralizer_at_n48(self):
        # the eager list of 648 dense 48 x 48 units peaked at 23.0 MiB
        rng = np.random.default_rng(4848)
        t = hermitian_with_spectrum(np.repeat([3.0, 1.0, -0.5, -2.0], (18, 12, 12, 6)), rng)
        assert traced_peak_mib(lambda: centralizer_basis(DensityFunctional(t))) <= 4
