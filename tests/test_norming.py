import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles

from leafkit.errors import RankTooHigh
from leafkit.norming import (
    PiSequence,
    adjoint_defect,
    adjoint_snf,
    calculus_monotonicity_check,
    duality_gap,
    eval_snf,
    eval_snf_many,
    lorentz,
    lorentz_dual,
    max_norm,
    op_norm,
    pi_regularity,
    rank_sandwich_check,
    schatten,
    sum_norm,
)
from leafkit.opcore import spectral_norm

from conftest import PHI_SET, SQRT_PI, random_psd, recorded_generators


# every kind of gauge: the Schatten gauges, and both Lorentz gauges over
# power, constant (power 0) and prefix weights
DEFECT_PHIS = PHI_SET + [
    lorentz(PiSequence("power", alpha=0.0)),
    lorentz_dual(PiSequence("power", alpha=0.0)),
    lorentz(PiSequence("prefix_power", alpha=0.5, prefix=(1.0, 0.8, 0.5))),
    lorentz_dual(PiSequence("prefix_power", alpha=0.5, prefix=(1.0, 0.8, 0.5))),
]


def lorentz_dual_oracle(pi, xi):
    """Explicit sup of partial-sum ratios."""
    x = np.sort(np.abs(np.asarray(xi, dtype=float)))[::-1]
    w = pi.values(len(x))
    return max(x[: n + 1].sum() / w[: n + 1].sum() for n in range(len(x)))


class TestEval:
    def test_sum_and_max(self):
        assert eval_snf(schatten(1), [3, 1]) == 4.0
        assert eval_snf(schatten(np.inf), [3, 1]) == 3.0
        assert sum_norm() == schatten(1)
        assert max_norm() == schatten(np.inf)

    def test_lorentz_dual_constant(self):
        phi = lorentz_dual(PiSequence("power", alpha=0.0))
        assert eval_snf(phi, [3, 1]) == 3.0
        assert eval_snf(phi, [3, 1]) == lorentz_dual_oracle(PiSequence("power", alpha=0.0), [3, 1])

    def test_lorentz_dual_against_oracle(self, rng):
        phi = lorentz_dual(SQRT_PI)
        for _ in range(50):
            xi = rng.standard_normal(rng.integers(1, 10))
            assert eval_snf(phi, xi) == pytest.approx(lorentz_dual_oracle(SQRT_PI, xi), abs=1e-12)

    def test_signs_and_order_irrelevant(self):
        for phi in PHI_SET:
            assert eval_snf(phi, [-2, 5, 0, 1]) == eval_snf(phi, [5, 2, 1, 0])

    def test_normalization(self):
        for phi in PHI_SET:
            assert eval_snf(phi, [1, 0, 0, 0]) == 1.0

    def test_empty_and_zero(self):
        for phi in PHI_SET:
            assert eval_snf(phi, []) == 0.0
            assert eval_snf(phi, [0.0, 0.0]) == 0.0


class TestAxioms:
    def test_axioms_sampled(self, rng):
        xs = rng.standard_normal((200, 8)) * rng.uniform(0.1, 10, size=(200, 1))
        for phi in PHI_SET:
            vals = np.array([eval_snf(phi, x) for x in xs])
            assert np.all(vals > 0)
            alpha = rng.standard_normal(200)
            for x, a, v in zip(xs, alpha, vals):
                hom = eval_snf(phi, a * x)
                assert hom == pytest.approx(abs(a) * v, rel=1e-12, abs=1e-300)
            ys = rng.permutation(xs)
            for x, y in zip(xs, ys):
                assert eval_snf(phi, x + y) <= eval_snf(phi, x) + eval_snf(phi, y) + 1e-9
            for x, v in zip(xs, vals):
                assert eval_snf(phi, rng.permutation(x)) == v

    def test_sandwich_between_max_and_sum(self, rng):
        for phi in PHI_SET:
            for _ in range(100):
                x = np.sort(np.abs(rng.standard_normal(7)))[::-1]
                v = eval_snf(phi, x)
                assert x[0] <= v + 1e-9
                assert v <= x.sum() + 1e-9

    def test_batch_matches_single(self, rng):
        # batched reductions may reassociate sums, so allow a few ulp
        rows = np.sort(np.abs(rng.standard_normal((40, 6))), axis=1)[:, ::-1]
        for phi in PHI_SET:
            batch = eval_snf_many(phi, rows)
            singles = np.array([eval_snf(phi, r) for r in rows])
            np.testing.assert_allclose(batch, singles, rtol=1e-14)

    @pytest.mark.parametrize("p", [1.5, 3.0, 7.3])
    def test_single_is_the_stacked_row_bit_for_bit(self, p):
        # eval_snf sorts into a contiguous row, so numpy raises it to the
        # power p on the same path as each row of a stack
        rng = np.random.default_rng(26)
        rows = -np.sort(-np.abs(rng.standard_normal((40, 6))), axis=1)
        batch = eval_snf_many(schatten(p), rows)
        for row, value in zip(rows, batch):
            assert eval_snf(schatten(p), rng.permutation(row)) == value


class TestOpNorm:
    def test_identity_trace_norm(self):
        assert op_norm(schatten(1), np.eye(2)) == pytest.approx(2.0, abs=1e-12)

    def test_frobenius_diagonal(self):
        assert op_norm(schatten(2), np.diag([3.0, -1.0])) == pytest.approx(np.sqrt(10), abs=1e-12)

    def test_dominates_operator_norm(self, rng):
        for _ in range(20):
            a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            base = spectral_norm(a)
            for phi in PHI_SET:
                assert base <= op_norm(phi, a) + 1e-9

    def test_ideal_axiom_three_factor(self, rng):
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            for phi in PHI_SET:
                lhs = op_norm(phi, a @ t @ b)
                rhs = spectral_norm(a) * op_norm(phi, t) * spectral_norm(b)
                assert lhs <= rhs + 1e-9


class TestAdjoint:
    def test_schatten_pairs(self):
        assert adjoint_snf(schatten(2)) == schatten(2)
        assert adjoint_snf(schatten(1)) == schatten(np.inf)
        assert adjoint_snf(schatten(np.inf)) == schatten(1)
        assert adjoint_snf(schatten(1.5)) == schatten(3)

    def test_lorentz_pair(self):
        assert adjoint_snf(lorentz(SQRT_PI)) == lorentz_dual(SQRT_PI)
        assert adjoint_snf(lorentz_dual(SQRT_PI)) == lorentz(SQRT_PI)

    def test_involution(self):
        for phi in PHI_SET:
            assert adjoint_snf(adjoint_snf(phi)) == phi

    def test_defect_cauchy_schwarz_case(self):
        d = adjoint_defect(schatten(2), [1.0, 0.0])
        assert -1e-9 <= d <= 1e-6

    def test_defect_trace_norm_case(self):
        d = adjoint_defect(schatten(1), [5.0, 3.0])
        assert -1e-9 <= d <= 1e-9
        assert eval_snf(adjoint_snf(schatten(1)), [5.0, 3.0]) == 5.0

    def test_defect_zero_sequence(self):
        for phi in PHI_SET:
            assert adjoint_defect(phi, [0.0]) == 0.0

    def test_defect_nonnegative_random(self, rng):
        for phi in PHI_SET:
            for _ in range(5):
                eta = np.sort(np.abs(rng.standard_normal(6)))[::-1]
                assert adjoint_defect(phi, eta) >= -1e-9

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(DEFECT_PHIS),
        st.sampled_from([0, 1, 5, 40]),
        st.integers(0, 2**32 - 1),
    )
    def test_defect_is_the_per_candidate_loop(self, phi, m, draw_seed):
        # signed, unsorted entries, some of them zero
        rng = np.random.default_rng(draw_seed)
        eta = rng.standard_normal(m) * 10.0 ** rng.integers(-3, 4)
        eta[rng.random(m) < 0.2] = 0.0
        with recorded_generators() as made:
            defect = adjoint_defect(phi, eta)
        assert made == []
        # the extremizers alone attain the supremum: 200 random candidates
        # on top of them move the defect by roundoff at most
        expected = oracles.adjoint_defect(phi, eta, 200, rng)
        target = eval_snf(adjoint_snf(phi), eta)
        assert abs(defect - expected) <= 8 * np.finfo(float).eps * max(1.0, target)
        assert defect >= -1e-9


class TestDuality:
    def test_identity_equality_case(self):
        res = duality_gap(schatten(2), np.eye(2), np.eye(2))
        assert res.pairing == pytest.approx(2.0)
        assert res.bound == pytest.approx(2.0, abs=1e-12)
        assert abs(res.gap) <= 1e-9

    def test_orthogonal_projections(self):
        t = np.diag([1.0, 0.0]).astype(complex)
        s = np.diag([0.0, 1.0]).astype(complex)
        for phi in PHI_SET:
            res = duality_gap(phi, t, s)
            assert res.pairing == 0
            assert res.gap == pytest.approx(res.bound)
            assert res.gap >= 0

    def test_gap_nonnegative_random(self, rng):
        for _ in range(100):
            t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            s = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert duality_gap(schatten(3), t, s).gap >= -1e-9
            assert duality_gap(schatten(1.5), t, s).gap >= -1e-9


class TestRankSandwich:
    def test_equal_inputs(self):
        f = np.diag([1.0, 0.0]).astype(complex)
        res = rank_sandwich_check(schatten(1), 1, f, f)
        assert res.lower_ok and res.upper_ok

    def test_rank_one_trace_norm(self, rng):
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f1 = np.outer(u, u.conj())
        res = rank_sandwich_check(schatten(1), 1, f1, np.zeros((4, 4)))
        assert res.lower_ok and res.upper_ok
        assert res.ideal_dist == pytest.approx(res.operator_dist, rel=1e-10)

    def test_random_rank_three(self, rng):
        phi = lorentz_dual(SQRT_PI)
        for _ in range(50):
            f1 = sum(
                np.outer(rng.standard_normal(6) + 1j * rng.standard_normal(6),
                         rng.standard_normal(6) + 1j * rng.standard_normal(6))
                for _ in range(3)
            )
            f2 = sum(
                np.outer(rng.standard_normal(6) + 1j * rng.standard_normal(6),
                         rng.standard_normal(6) + 1j * rng.standard_normal(6))
                for _ in range(3)
            )
            res = rank_sandwich_check(phi, 3, f1, f2)
            assert res.lower_ok and res.upper_ok

    def test_rank_too_high(self, rng):
        f = random_psd(4, rng) + np.eye(4)
        with pytest.raises(RankTooHigh):
            rank_sandwich_check(schatten(1), 2, f, np.zeros((4, 4)))


class TestCalculusMonotonicity:
    def test_zero_and_identity_maps(self, rng):
        a = random_psd(4, rng)
        a /= spectral_norm(a) * 1.1
        for phi in PHI_SET:
            assert calculus_monotonicity_check(phi, a, lambda t: 0.0)
            assert calculus_monotonicity_check(phi, a, lambda t: t)

    def test_clipped_root_map(self, rng):
        grid = np.linspace(0, 1, 1001)
        assert np.all(1 - np.sqrt(1 - grid) <= grid + 1e-12)  # clipping is a no-op
        f = lambda t: min(t, 1.0 - np.sqrt(max(1.0 - t, 0.0)))
        for _ in range(5):
            a = random_psd(5, rng)
            a /= spectral_norm(a) * 1.05
            for phi in PHI_SET:
                assert calculus_monotonicity_check(phi, a, f)


class TestPiRegularity:
    def test_constant(self):
        res = pi_regularity(PiSequence("power", alpha=0.0, horizon=1000))
        np.testing.assert_allclose(res.ratios, 1.0)
        assert res.sup_over_horizon == 1.0
        assert res.monotone_tail

    def test_inverse_sqrt(self):
        pi = PiSequence("power", alpha=0.5, horizon=100_000)
        res = pi_regularity(pi)
        assert res.sup_over_horizon <= 2.01
        assert res.monotone_tail
        # partial-sum oracle: sum_{j<=n} j^{-1/2} <= 2 sqrt(n), so ratios <= 2
        n = np.arange(1, pi.horizon + 1)
        assert np.all(res.ratios <= 2 * np.sqrt(n) / (n * n ** -0.5) + 1e-12)

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            PiSequence("power", alpha=1.0)

    def test_prefix_validation(self):
        PiSequence("prefix_power", alpha=0.5, prefix=(1.0, 0.9, 0.8))
        with pytest.raises(ValueError):
            PiSequence("prefix_power", alpha=0.5, prefix=(0.9,))
        with pytest.raises(ValueError):
            PiSequence("prefix_power", alpha=0.5, prefix=(1.0, 1.1))


class TestNormingEdgeCases:
    def test_single_entry_sequences(self):
        for phi in PHI_SET:
            assert eval_snf(phi, [2.5]) == pytest.approx(2.5, rel=1e-14)
            assert eval_snf(phi, [-2.5]) == pytest.approx(2.5, rel=1e-14)

    def test_schatten_requires_p_at_least_one(self):
        with pytest.raises(ValueError):
            schatten(0.5)

    def test_lorentz_prefix_power_evaluation(self):
        pi = PiSequence("prefix_power", alpha=0.5, prefix=(1.0, 0.9))
        w = pi.values(4)
        np.testing.assert_allclose(w, [1.0, 0.9, 3 ** -0.5, 0.5])
        phi = lorentz(pi)
        assert eval_snf(phi, [1.0, 1.0]) == pytest.approx(1.9, abs=1e-12)

    def test_duality_gap_size_mismatch(self, rng):
        from leafkit.errors import SizeMismatch

        with pytest.raises(SizeMismatch):
            duality_gap(schatten(2), np.eye(2), np.eye(3))
