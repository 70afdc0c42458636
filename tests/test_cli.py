import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from leafkit import cli, orbits
from leafkit.cli import run_command
from leafkit.errors import ParseError, PreconditionError, ShapeError
from leafkit.matrixio import emit_matrix, parse_matrix, parse_matrix_text, write_matrix
from leafkit.opcore import SpectralData, matrix_exp, polar_decompose, spectral_norm

from conftest import hermitian_with_spectrum, random_skew, random_unitary


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    return code, report


@pytest.fixture
def workdir(tmp_path, rng):
    def put(name, matrix):
        path = tmp_path / name
        write_matrix(np.asarray(matrix, dtype=complex), path)
        return str(path)

    return tmp_path, put


class TestMatrixIO:
    def test_scalar_file(self, tmp_path):
        p = tmp_path / "one.json"
        p.write_text('{"rows":1,"cols":1,"data":[[[1.0,0.0]]]}')
        np.testing.assert_array_equal(parse_matrix(p), np.eye(1, dtype=complex))

    def test_bit_level_round_trip(self, rng):
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        a[0, 0] = 1 / 3
        a[1, 2] = -0.0
        b = parse_matrix_text(emit_matrix(a))
        np.testing.assert_array_equal(a, b)

    def test_emit_parse_emit_stable(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        text = emit_matrix(a)
        assert emit_matrix(parse_matrix_text(text)) == text

    def test_nan_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix_text('{"rows":1,"cols":1,"data":[[[NaN,0.0]]]}')

    def test_shape_mismatch_rejected(self):
        with pytest.raises(Exception):
            parse_matrix_text('{"rows":2,"cols":1,"data":[[[1.0,0.0]]]}')

    def test_bad_entry_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix_text('{"rows":1,"cols":1,"data":[[[1.0]]]}')


MALFORMED = [
    ('[1, 2]', ParseError, "m.json: top level must be a JSON object"),
    ('{"rows": 1, "cols": 1}', ParseError, "m.json: missing field 'data'"),
    ('{"rows": 0, "cols": 1, "data": []}', ParseError, "m.json: rows/cols must be positive integers"),
    ('{"rows": 1.0, "cols": 1, "data": [[[1, 0]]]}', ParseError, "m.json: rows/cols must be positive integers"),
    ('{"rows": 2, "cols": 1, "data": [[[1, 0]]]}', ShapeError, "m.json: data must be a list of 2 rows"),
    ('{"rows": 2, "cols": 2, "data": [[[1, 0], [2, 0]], [[1, 0]]]}', ShapeError,
     "m.json: row 1 must be a list of 2 entries"),
    ('{"rows": 2, "cols": 2, "data": [[[1, 0], [2, 0]], 5]}', ShapeError, "m.json: row 1 must be a list of 2 entries"),
    ('{"rows": 2, "cols": 2, "data": [[[1, 0], [2, 0]], [[1, 0], [1]]]}', ParseError,
     "m.json: entry (1, 1) must be a [re, im] pair of numbers"),
    ('{"rows": 1, "cols": 2, "data": [[[1, 0], [true, 0]]]}', ParseError,
     "m.json: entry (0, 1) must be a [re, im] pair of numbers"),
    ('{"rows": 1, "cols": 2, "data": [[[1, 0], ["1", 0]]]}', ParseError,
     "m.json: entry (0, 1) must be a [re, im] pair of numbers"),
    ('{"rows": 1, "cols": 1, "data": [[{"re": 1}]]}', ParseError,
     "m.json: entry (0, 0) must be a [re, im] pair of numbers"),
    ('{"rows": 1, "cols": 2, "data": [[[1, 0], [-1e400, 0]]]}', ParseError, "m.json: entry (0, 1) is not finite"),
    # the first fault in row-major order is named, whatever kind comes later
    ('{"rows": 2, "cols": 2, "data": [[[1, 1e400], [2, 0]], [[1], [0, 0]]]}', ParseError,
     "m.json: entry (0, 0) is not finite"),
    ('{"rows": 2, "cols": 2, "data": [[[1, 0], [2, 0]], [[1, 0], [NaN, 0]]]}', ParseError,
     "non-finite JSON token 'NaN' is not a valid matrix entry"),
    ('{"rows": 1, "cols": 1, "data": [[[1, 0]]]', ParseError,
     "m.json: invalid JSON at line 1, column 42: Expecting ',' delimiter"),
    # not accepted before: a bool size read as 1, an integer too large for a double
    ('{"rows": true, "cols": 1, "data": [[[1, 0]]]}', ParseError, "m.json: rows/cols must be positive integers"),
    ('{"rows": 1, "cols": false, "data": [[]]}', ParseError, "m.json: rows/cols must be positive integers"),
    ('{"rows": 1, "cols": 2, "data": [[[1, 0], [2, 1%s]]]}' % ("0" * 400), ParseError,
     "m.json: entry (0, 1) is too large for a double"),
]


def loop_parse(text):
    """The entry-by-entry conversion matrix files had before whole-array
    parsing: one complex(float(re), float(im)) per entry."""
    obj = json.loads(text)
    out = np.zeros((obj["rows"], obj["cols"]), dtype=np.complex128)
    for r, row in enumerate(obj["data"]):
        for c, (re, im) in enumerate(row):
            out[r, c] = complex(float(re), float(im))
    return out


class TestMatrixParse:
    def test_equals_the_entry_loop(self, rng):
        specials = [0, -0.0, 7, -3, 2**53 + 1, 10**20 + 12345, -(10**300), 5e-324, 1.5]
        for _ in range(50):
            r, c = (int(k) for k in rng.integers(1, 9, size=2))
            obj = json.loads(emit_matrix(rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))))
            for _ in range(4):
                i, j, k = int(rng.integers(r)), int(rng.integers(c)), int(rng.integers(2))
                obj["data"][i][j][k] = specials[int(rng.integers(len(specials)))]
            text = json.dumps(obj)
            a, b = parse_matrix_text(text), loop_parse(text)
            assert a.shape == b.shape and a.dtype == b.dtype
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
            assert emit_matrix(a) == json.dumps(
                {"rows": r, "cols": c, "data": [[[float(z.real), float(z.imag)] for z in row] for row in b]},
                sort_keys=True,
            )

    @pytest.mark.parametrize("text, kind, message", MALFORMED)
    def test_malformed_message(self, text, kind, message):
        with pytest.raises(kind) as err:
            parse_matrix_text(text, "m.json")
        assert type(err.value) is kind
        assert str(err.value) == message

    @pytest.mark.parametrize("text", [
        '{"rows": true, "cols": 1, "data": [[[1, 0]]]}',
        '{"rows": 1, "cols": 1, "data": [[[1%s, 0]]]}' % ("0" * 400),
    ])
    def test_overflow_and_bool_sizes_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        assert run_command(["norm", "--phi", "sum", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err and err.startswith("leafkit: ")


BAD_ARGUMENTS = [
    ["orbit-sample", "T", "--count", "0"],
    ["continuity", "T", "T", "--steps", "0"],
    ["support", "T", "--samples", "0"],
    ["radical", "T", "--samples", "-1"],
    ["kahler-check", "T", "--samples", "0"],
    ["pi-regularity", "--horizon", "0"],
    ["sandwich", "--phi", "max", "--k", "0", "T", "T"],
    ["faithful", "T", "--tol", "-1e-12"],
    ["leaf-compare", "T", "T", "--tol", "nan"],
    ["cross-section", "T", "T", "--tol", "-1"],
    ["minpoly", "T", "--tol", "-0.5"],
    ["algebra-dim", "T", "--tol", "-1e-9"],
    ["pi-regularity", "--alpha", "1.0"],
    ["pi-regularity", "--alpha", "-0.1"],
    ["radical", "T", "--seed", "-1"],
    ["radical", "T", "--samples", "two"],
    ["leaf-compare", "T", "T", "--tol", "inf"],
    ["minpoly", "T", "--tol", "inf"],
    ["cross-section", "T", "T", "--corner-tol", "nan"],
    ["cross-section", "T", "T", "--corner-tol", "-1"],
    ["orbit-sample", "T", "--scale", "nan"],
    ["orbit-sample", "T", "--scale", "inf"],
]


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_ARGV = {c["name"]: c["argv"] for c in json.loads((GOLDEN / "calls.json").read_text())}
NON_SQUARE_CASES = [(name, k) for name, cmd in cli.COMMANDS.items() for k in range(len(cmd.files))]
# operands that may be rectangular: the exit code and stderr a 2x3 file gives
# (the sandwich operands must have each other's shape)
RECTANGULAR_OK = {
    ("norm", "matrix"): (0, ""),
    ("sandwich", "F1"): (3, "leafkit: SizeMismatch: "),
    ("sandwich", "F2"): (3, "leafkit: SizeMismatch: "),
}


class TestArgumentRanges:
    @pytest.mark.parametrize("argv", BAD_ARGUMENTS, ids=lambda a: " ".join(a[0:1] + a[-2:]))
    def test_out_of_range_value_exits_2(self, capsys, workdir, argv):
        _, put = workdir
        t = put("t.json", np.diag([2.0, 1.0]))
        code = run_command([t if a == "T" else a for a in argv])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and "Traceback" not in err and "error: argument" in err
        # the message names the option: the last one in each argv
        assert f"argument {[a for a in argv if a.startswith('--')][-1]}: " in err

    @pytest.mark.parametrize("value", ["seven", "1.5", "", "-3"])
    def test_malformed_env_seed_exits_2(self, capsys, workdir, monkeypatch, value):
        _, put = workdir
        t = put("t.json", np.diag([2.0, 1.0]))
        monkeypatch.setenv("LEAFKIT_SEED", value)
        assert run_command(["radical", t]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err and "LEAFKIT_SEED" in err
        # an explicit --seed takes precedence, and a command without a seed ignores it
        assert run_command(["radical", t, "--seed", "3"]) == 0
        assert run_command(["norm", "--phi", "max", t]) == 0
        capsys.readouterr()

    def test_range_boundaries_are_accepted(self, capsys, workdir):
        _, put = workdir
        t = put("t.json", np.diag([2.0, 1.0]))
        assert run_command(["pi-regularity", "--alpha", "0", "--horizon", "1"]) == 0
        assert run_command(["faithful", t, "--tol", "0"]) == 0
        assert run_command(["orbit-sample", t, "--count", "1", "--seed", "0"]) == 0
        capsys.readouterr()


class TestSubcommands:
    def test_norm_trace_example(self, capsys, workdir):
        _, put = workdir
        path = put("t.json", np.diag([3.0, -1.0]))
        code, report = run(capsys, "norm", "--phi", "schatten:1", path)
        assert code == 0
        assert report["pass"] is True
        assert report["results"]["norm"] == 4.0

    def test_dual_check(self, capsys, workdir):
        _, put = workdir
        t = put("t.json", np.eye(2))
        code, report = run(capsys, "dual-check", "--phi", "schatten:2", t, t)
        assert code == 0
        assert report["results"]["pairing"] == [2.0, 0.0]
        assert abs(report["results"]["gap"]) <= 1e-9

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e8])
    def test_dual_check_gap_floor_scales_with_the_bound(self, capsys, workdir, rng, scale):
        # pairs that attain the bound: S = T* for schatten:2, and S = X* with
        # T = X Q the polar decomposition for max (adjoint schatten:1); the
        # gap is roundoff of the bound, far below an absolute -1e-9 at scale
        _, put = workdir
        for _ in range(10):
            t = scale * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            for phi, s in (("schatten:2", t.conj().T), ("max", polar_decompose(t).unitary_part.conj().T)):
                code, report = run(capsys, "dual-check", "--phi", phi, put("t.json", t), put("s.json", s))
                assert code == 0, (phi, report["results"])
                assert report["tolerances"]["gap_floor"] == -1e-9

    def test_adjoint(self, capsys):
        code, report = run(capsys, "adjoint", "--phi", "schatten:1.5")
        assert code == 0
        assert report["results"]["adjoint"] == "schatten:3"

    def test_sandwich(self, capsys, workdir, rng):
        _, put = workdir
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f1 = put("f1.json", np.outer(u, u.conj()))
        f2 = put("f2.json", np.zeros((4, 4)))
        code, report = run(capsys, "sandwich", "--phi", "lorentz:power:0.5", "--k", "1", f1, f2)
        assert code == 0
        assert report["results"]["lower_ok"] and report["results"]["upper_ok"]

    def test_pi_regularity(self, capsys):
        code, report = run(capsys, "pi-regularity", "--alpha", "0.5", "--horizon", "100000")
        assert code == 0
        assert report["results"]["sup_over_horizon"] <= 2.01
        assert report["results"]["monotone_tail"] is True

    def test_support_jordan_centralizer_faithful(self, capsys, workdir):
        _, put = workdir
        rho = put("rho.json", np.diag([1.0, 0.0, 2.0]))
        for cmd in (
            ["support", rho, "--seed", "1"],
            ["jordan", rho],
            ["centralizer", rho],
            ["faithful", rho, "--tol", "1e-12"],
        ):
            code, report = run(capsys, *cmd)
            assert code == 0, cmd
        code, report = run(capsys, "faithful", rho)
        assert report["results"]["faithful"] is False

    def test_centralizer_measures_the_units_it_is_given(self, capsys, workdir, monkeypatch, rng):
        # units over a frame that does not diagonalize rho: the report's
        # stacked rank-2 norms match one dense commutator norm per unit
        from leafkit import states
        from leafkit.opcore import FrameUnits

        _, put = workdir
        rho = hermitian_with_spectrum(np.repeat([2.0, 1.0, -1.0], (3, 2, 2)), rng)
        rho = 0.5 * (rho + rho.conj().T)
        blocks = [slice(0, 3), slice(3, 5), slice(5, 7)]
        units = FrameUnits(random_unitary(7, rng), [(b, b) for b in blocks], skew=False)
        monkeypatch.setattr(states, "centralizer_basis", lambda phi: units)
        code, report = run(capsys, "centralizer", put("rho.json", rho))
        worst = max(spectral_norm(u @ rho - rho @ u) for u in units)
        assert code == 1 and worst > 0.1
        assert report["results"]["max_commutator"] == pytest.approx(worst, rel=1e-12)

    def test_faithful_reports_the_eigenvalue_it_compares(self, capsys, workdir, rng):
        # --tol at the reported minimum fails the strict test w_min > tol;
        # one ulp below it passes
        _, put = workdir
        rho = put("rho.json", hermitian_with_spectrum([0.3, 1.0, 2.0, 1e-3], rng))
        w = run(capsys, "faithful", rho)[1]["results"]["min_eigenvalue"]
        for tol, faithful in ((w, False), (np.nextafter(w, 0.0), True)):
            code, report = run(capsys, "faithful", rho, "--tol", repr(float(tol)))
            assert code == 0 and report["results"] == {"faithful": faithful, "min_eigenvalue": w}

    def test_pinch_split_omega(self, capsys, workdir, rng):
        _, put = workdir
        t = put("t.json", np.diag([1.0, 2.0, 3.0]))
        s = put("s.json", hermitian_with_spectrum([1.0, -1.0, 0.5], rng))
        x = put("x.json", random_skew(3, rng))
        y = put("y.json", random_skew(3, rng))
        tsk = put("tsk.json", random_skew(3, rng))
        assert run(capsys, "pinch", t, s)[0] == 0
        assert run(capsys, "split", tsk)[0] == 0
        code, report = run(capsys, "omega", tsk, x, y)
        assert code == 0
        assert isinstance(report["results"]["value"], float)

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e8])
    def test_pinch_bounds_scale_with_s(self, capsys, workdir, rng, scale):
        # over a clustered T, a general S and one already block diagonal
        # (E(S) = S): the residuals and the contraction excess are roundoff
        # of ||S||, far above an absolute 1e-10 or 1e-9 at scale 1e8
        _, put = workdir
        sizes = (3, 3, 2)
        for _ in range(10):
            f = random_unitary(8, rng)
            t = put("t.json", f @ np.diag(np.repeat([1.0, 2.0, 3.0], sizes)) @ f.conj().T)
            general = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            blocks = np.zeros((8, 8), dtype=complex)
            for start, size in zip((0, 3, 6), sizes):
                blocks[start:start + size, start:start + size] = general[start:start + size, start:start + size]
            for s in (general, f @ blocks @ f.conj().T):
                code, report = run(capsys, "pinch", t, put("s.json", scale * s))
                assert code == 0, report["results"]
                assert report["tolerances"] == {"idempotency": 1e-10, "commutation": 1e-9, "contraction": 1e-9}

    def test_radical_polarization_kahler(self, capsys, workdir):
        _, put = workdir
        t = put("t.json", np.diag([2j, 1j, 0.0]))
        code, report = run(capsys, "radical", t, "--samples", "20", "--seed", "3")
        assert code == 0 and report["results"]["match"] is True
        code, report = run(capsys, "polarization", t)
        assert code == 0
        assert report["results"]["dim_p"] == 6
        code, report = run(capsys, "kahler-check", t, "--samples", "200", "--seed", "7")
        assert code == 0
        assert report["results"]["positivity_min"] >= -1e-9

    def test_projective_compare(self, capsys, workdir):
        _, put = workdir
        x0 = put("x0.json", np.array([[1.0], [0.0]]))
        a1 = put("a1.json", np.array([[0, 1], [-1, 0]]))
        a2 = put("a2.json", np.array([[0, 1j], [1j, 0]]))
        code, report = run(capsys, "projective-compare", x0, a1, a2)
        assert code == 0
        assert report["results"]["orbit_form"] == pytest.approx(-2.0)
        assert report["results"]["geometric_form"] == pytest.approx(2.0)

    def test_orbit_sample_and_leaf_compare(self, capsys, workdir, rng):
        tmp, put = workdir
        t = put("t.json", np.diag([1.0, 2.0]))
        out_prefix = str(tmp / "sample_")
        code, report = run(
            capsys, "orbit-sample", t, "--count", "2", "--seed", "9", "--out", out_prefix
        )
        assert code == 0
        sample = f"{out_prefix}0.json"
        code, report = run(capsys, "leaf-compare", t, sample, "--tol", "1e-8")
        assert code == 0 and report["results"]["same_leaf"] is True

    def test_leaf_compare_verdict_at_the_deviation(self, capsys, workdir):
        _, put = workdir
        a = put("a.json", np.diag([1.0, 2.0, 3.0]))
        b = put("b.json", np.diag([1.0, 2.0 + 3e-7, 3.0 - 1e-7]))
        _, report = run(capsys, "leaf-compare", a, b)
        dev = report["results"]["max_eigenvalue_deviation"]
        assert dev > 0
        # the verdict flips at the smallest tol with dev <= tol * max(1, ||A||, ||B||) = 3 tol
        edge = dev / 3.0
        while edge * 3.0 < dev:
            edge = np.nextafter(edge, 1.0)
        while np.nextafter(edge, 0.0) * 3.0 >= dev:
            edge = np.nextafter(edge, 0.0)
        for tol, same in ((edge, True), (np.nextafter(edge, 0.0), False)):
            code, report = run(capsys, "leaf-compare", a, b, "--tol", repr(float(tol)))
            assert report["results"]["same_leaf"] is same
            assert orbits.same_leaf(parse_matrix(a), parse_matrix(b), tol) is same
            assert code == (0 if same else 1)

    def test_leaf_compare_tolerance_scales_with_the_operands(self, capsys, workdir, rng):
        # at ||A|| = 9e7 the roundoff of two eigensolvers is far above an
        # absolute 1e-9 and far below 1e-9 ||A||; the printed tol stays relative
        _, put = workdir
        a = np.diag([9e7, 3e7, 1.0, -2e7, 5e6, 0.0])
        q = random_unitary(6, rng)
        path_a, path_b = put("a.json", a), put("b.json", q @ a @ q.conj().T)
        code, report = run(capsys, "leaf-compare", path_a, path_b)
        assert code == 0 and report["results"]["same_leaf"] is True
        assert report["results"]["max_eigenvalue_deviation"] > 1e-9
        assert report["tolerances"] == {"tol": 1e-9}
        moved = put("moved.json", q @ np.diag([9e7, 3e7, 2.0, -2e7, 5e6, 0.0]) @ q.conj().T)
        code, report = run(capsys, "leaf-compare", path_a, moved)
        assert code == 1 and report["results"]["same_leaf"] is False

    def test_cross_section_identity(self, capsys, workdir):
        _, put = workdir
        t = put("t.json", np.diag([1.0, -1.0]))
        v = put("v.json", np.eye(2))
        code, report = run(capsys, "cross-section", t, v, "--tol", "1e-8")
        assert code == 0
        assert report["results"]["residual"] <= 1e-12
        phi = report["results"]["phi"]
        assert phi["data"][0][0] == [1.0, 0.0] and phi["data"][1][1] == [1.0, 0.0]

    def test_cross_section_residual_scales_with_the_reference(self, capsys, workdir, rng):
        # at ||T|| = 3e8 the roundoff residual is far above an absolute
        # 1e-8 and far below 1e-8 ||T||
        _, put = workdir
        t = 3e8 * hermitian_with_spectrum(np.repeat([1.0, 0.25, -0.5], (2, 3, 1)), rng)
        t = put("t.json", 0.5 * (t + t.conj().T))
        v = put("v.json", matrix_exp(0.2 * random_skew(6, rng)))
        code, report = run(capsys, "cross-section", t, v)
        assert code == 0
        assert 1e-8 < report["results"]["residual"] <= 1e-8 * 3e8
        code, report = run(capsys, "cross-section", t, v, "--tol", "1e-17")
        assert code == 1 and report["tolerances"]["residual"] == 1e-17

    def test_well_defined_continuity_offdiag(self, capsys, workdir, rng):
        _, put = workdir
        from leafkit.orbits import pinching

        tm = hermitian_with_spectrum([1.0, -1.0, 0.0], rng)
        t = put("t.json", tm)
        v = put("v.json", matrix_exp(0.2 * random_skew(3, rng)))
        # G must commute with T: exponential of a pinched skew direction
        g = put("g.json", matrix_exp(pinching(tm, random_skew(3, rng))))
        assert run(capsys, "well-defined", t, v, g)[0] == 0
        a = put("a.json", 0.25 * random_skew(3, rng))
        code, report = run(capsys, "continuity", t, a, "--phi", "schatten:1", "--steps", "12")
        assert code == 0
        w = put("w.json", matrix_exp(0.5 * random_skew(3, rng)))
        code, report = run(capsys, "offdiag-bound", t, w, "--phi", "max")
        assert code == 0
        assert report["results"]["max_violation"] <= 1e-9

    def test_minpoly_algebra_dim(self, capsys, workdir):
        _, put = workdir
        t = put("t.json", np.diag([3.0, 3.0, 5.0, 0.0]))
        code, report = run(capsys, "minpoly", t)
        assert code == 0
        assert report["results"]["coefficients"] == [0.0, 15.0, -8.0, 1.0]
        code, report = run(capsys, "algebra-dim", t)
        assert code == 0
        assert report["results"]["dimension"] == 2

    def test_minpoly_bound_uses_the_applied_cluster_tolerance(self, capsys):
        # on the golden T, 1e-8 ||T|| from an SVD and 1e-8 max |eigenvalue|
        # from eigh, which the clustering applies, differ in the last bit
        path = str(Path(__file__).parent / "golden" / "inputs" / "T.json")
        t = parse_matrix(path)
        code, report = run(capsys, "minpoly", path)
        assert code == 0
        tol = SpectralData.from_hermitian(0.5 * (t + t.conj().T)).cluster_tol
        bound = tol * (1.0 + spectral_norm(t)) ** report["results"]["degree"]
        assert report["results"]["bound"] == report["tolerances"]["annihilation"] == bound


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run_command(["no-such-command"]) == 2
        capsys.readouterr()

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rows":1,"cols":1,"data":[[[NaN,0.0]]]}')
        assert run_command(["norm", "--phi", "sum", str(bad)]) == 2
        capsys.readouterr()

    def test_contract_failure(self, capsys, workdir):
        _, put = workdir
        a = put("a.json", np.diag([1.0, 2.0]))
        b = put("b.json", np.diag([1.0, 1.0]))
        code, report = run(capsys, "leaf-compare", a, b)
        assert code == 1
        assert report["pass"] is False

    def test_precondition_error(self, capsys, workdir):
        _, put = workdir
        t = put("t.json", np.diag([1.0, 2.0]))
        v = put("v.json", np.array([[0, 1], [1, 0]]))
        code, report = run(capsys, "cross-section", t, v)
        assert code == 3
        assert report["pass"] is False
        assert report["results"]["error"] == "CornerSingular"
        assert report["inputs"] == {"T": t, "V": v}

    def test_unwritable_out_exits_2(self, capsys, workdir):
        tmp, put = workdir
        t = put("t.json", np.diag([1.0, 2.0]))
        prefix = str(tmp / "missing_dir" / "x_")
        code = run_command(["orbit-sample", t, "--count", "2", "--out", prefix])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("leafkit: ") and err.count("\n") == 1
        assert prefix + "0.json" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["support", "R"], ["jordan", "R"], ["centralizer", "R"], ["faithful", "R"],
        ["omega", "T", "R", "T"], ["dual-check", "--phi", "max", "R", "R"],
    ], ids=lambda a: a[0])
    def test_non_square_file_exits_2(self, capsys, workdir, argv):
        _, put = workdir
        paths = {"R": put("r.json", np.arange(6.0).reshape(2, 3)), "T": put("t.json", np.diag([1.0, 2.0]))}
        code = run_command([paths.get(a, a) for a in argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "expected a square matrix, got shape (2, 3)" in err and "Traceback" not in err

    @pytest.mark.parametrize("name, position", NON_SQUARE_CASES, ids=lambda c: str(c))
    def test_non_square_operand_is_named(self, capsys, monkeypatch, tmp_path, name, position):
        # the golden call of the command with its position-th file replaced
        rect = tmp_path / "rect.json"
        write_matrix(np.arange(6.0).reshape(2, 3).astype(complex), rect)
        files = [i for i, a in enumerate(GOLDEN_ARGV[name]) if a.startswith("inputs/")]
        argv = list(GOLDEN_ARGV[name])
        argv[files[position]] = str(rect)
        operand = cli.COMMANDS[name].files[position]
        monkeypatch.chdir(GOLDEN)
        code = run_command(argv)
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        expected = RECTANGULAR_OK.get((name, operand))
        if expected is None:
            assert code == 2 and out == ""
            assert err.startswith(f"leafkit: {operand}: expected a ") and err.endswith("got shape (2, 3)\n")
        else:
            assert code == expected[0] and err.startswith(expected[1])

    @pytest.mark.parametrize("argv, error, message", [
        (["pinch", "N", "I"], "NotHermitian", "T: expected a Hermitian or skew-Hermitian matrix"),
        (["split", "N"], "NotHermitian", "T: expected a Hermitian or skew-Hermitian matrix"),
        (["orbit-sample", "N"], "NotHermitian", "T: expected a Hermitian or skew-Hermitian matrix"),
        (["leaf-compare", "N", "I"], "NotHermitian", "A: expected a Hermitian or skew-Hermitian matrix"),
        (["radical", "N"], "NotSkewHermitian", "T: expected a skew-Hermitian (or Hermitian) matrix"),
        (["polarization", "N"], "NotSkewHermitian", "T: expected a skew-Hermitian (or Hermitian) matrix"),
        (["kahler-check", "N"], "NotSkewHermitian", "T: expected a skew-Hermitian (or Hermitian) matrix"),
        (["omega", "N", "K", "K"], "NotSkewHermitian", "T: expected a skew-Hermitian (or Hermitian) matrix"),
        (["cross-section", "N", "I"], "NotHermitian", "T: Hermitian defect 1.000e+00 exceeds tolerance"),
        (["well-defined", "N", "I", "I"], "NotHermitian", "T: Hermitian defect 1.000e+00 exceeds tolerance"),
        (["continuity", "N", "K"], "NotHermitian", "T: Hermitian defect 1.000e+00 exceeds tolerance"),
        (["offdiag-bound", "--phi", "max", "N", "I"], "NotHermitian",
         "T: Hermitian defect 1.000e+00 exceeds tolerance"),
        (["minpoly", "N"], "NotHermitian", "T: Hermitian defect 1.000e+00 exceeds tolerance"),
        (["algebra-dim", "N"], "NotHermitian", "T: Hermitian defect 1.000e+00 exceeds tolerance"),
        (["centralizer", "N"], "NotHermitian", "rho: Hermitian defect 1.000e+00 exceeds tolerance"),
        (["support", "N"], "NotHermitian", "rho: Hermitian defect 1.000e+00 exceeds tolerance"),
        (["jordan", "N"], "NotHermitian", "rho: Hermitian defect 1.000e+00 exceeds tolerance"),
        (["faithful", "N"], "NotHermitian", "rho: Hermitian defect 1.000e+00 exceeds tolerance"),
    ], ids=lambda a: a[0] if isinstance(a, list) else None)
    def test_non_hermitian_operand_report(self, capsys, workdir, argv, error, message):
        # each reader gates T or rho once; the gate names the operand
        _, put = workdir
        paths = {
            "N": put("n.json", [[0, 1], [0, 0]]),
            "I": put("i.json", np.eye(2)),
            "K": put("k.json", np.diag([1j, -1j])),
        }
        code, report = run(capsys, *[paths.get(a, a) for a in argv])
        assert code == 3 and report["pass"] is False
        assert report["results"] == {"error": error, "message": message}

    @staticmethod
    def _raise_from_handler(monkeypatch, kind):
        def handler(args):
            raise kind("input outside the contract")

        monkeypatch.setattr(cli.COMMANDS["adjoint"], "handler", handler)

    def test_every_precondition_error_exits_3(self, capsys, monkeypatch):
        kinds, todo = [], [PreconditionError]
        while todo:
            subs = todo.pop().__subclasses__()
            kinds.extend(subs)
            todo.extend(subs)
        assert len(kinds) >= 13
        for kind in kinds:
            self._raise_from_handler(monkeypatch, kind)
            code, report = run(capsys, "adjoint", "--phi", "sum")
            assert code == 3, kind
            assert report["pass"] is False
            assert report["results"] == {"error": kind.__name__, "message": "input outside the contract"}

    def test_parse_and_shape_errors_exit_2(self, capsys, monkeypatch):
        for kind in (ParseError, ShapeError):
            assert not issubclass(kind, PreconditionError)
            self._raise_from_handler(monkeypatch, kind)
            code, report = run(capsys, "adjoint", "--phi", "sum")
            assert code == 2 and report is None


class TestDeterminism:
    def _invoke(self, args, env=None):
        full_env = dict(os.environ)
        if env:
            full_env.update(env)
        return subprocess.run(
            [sys.executable, "-m", "leafkit.cli", *args],
            capture_output=True,
            text=True,
            env=full_env,
        )

    def test_byte_identical_reports(self, tmp_path, rng):
        path = tmp_path / "t.json"
        write_matrix(np.diag([2j, 1j, 0j]), path)
        args = ["kahler-check", str(path), "--samples", "50", "--seed", "7"]
        r1 = self._invoke(args)
        r2 = self._invoke(args)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout

    def test_seed_changes_results_not_schema(self, tmp_path):
        path = tmp_path / "t.json"
        write_matrix(np.diag([2j, 1j, 0j]), path)
        r1 = json.loads(self._invoke(["radical", str(path), "--seed", "1"]).stdout)
        r2 = json.loads(self._invoke(["radical", str(path), "--seed", "2"]).stdout)
        assert set(r1) == set(r2)
        assert set(r1["results"]) == set(r2["results"])

    def test_env_seed_fallback(self, tmp_path):
        path = tmp_path / "t.json"
        write_matrix(np.diag([1.0 + 0j, 0j]), path)
        r = json.loads(
            self._invoke(["support", str(path)], env={"LEAFKIT_SEED": "31"}).stdout
        )
        assert r["inputs"]["seed"] == 31


class TestMoreCLI:
    def test_report_serializes_numpy_values(self):
        report = cli.Report(
            command="x",
            results={"b": np.bool_(True), "i": np.int32(3), "f": np.float32(0.5), "c": np.complex64(1 - 2j),
                     "z": 0.5 + 1j, "v": np.array([1.0, 2.0]), "m": np.eye(1)},
        )
        assert json.loads(cli.emit_report(report))["results"] == {
            "b": True, "i": 3, "f": 0.5, "c": [1.0, -2.0], "z": [0.5, 1.0], "v": [1.0, 2.0],
            "m": {"rows": 1, "cols": 1, "data": [[[1.0, 0.0]]]},
        }
        with pytest.raises(TypeError):
            cli.emit_report(cli.Report(command="x", results={"o": object()}))

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        assert run_command(["norm", "--phi", "sum", str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()

    def test_adjoint_lorentz_labels(self, capsys):
        code, report = run(capsys, "adjoint", "--phi", "lorentz:power:0.5")
        assert code == 0
        assert report["results"]["adjoint"] == "lorentz-dual:power:0.5"

    def test_bad_phi_spec_is_usage_error(self, capsys, workdir):
        _, put = workdir
        path = put("t.json", np.eye(2))
        assert run_command(["norm", "--phi", "schatten", path]) == 2
        capsys.readouterr()

    def test_support_faithful_density_has_full_rank(self, capsys, workdir):
        _, put = workdir
        rho = put("rho.json", np.diag([0.5, 0.5]))
        code, report = run(capsys, "support", rho, "--seed", "0")
        assert code == 0
        assert report["results"]["rank"] == 2

    def test_readme_handler_examples_are_in_cli(self):
        # every handler README quotes must read as it does in cli.py
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        source = Path(cli.__file__).read_text()
        blocks = [b.split("\n```", 1)[0] for b in readme.split("```python\n")[1:]]
        handlers = [b for b in blocks if b.startswith("@command(")]
        assert handlers
        for block in handlers:
            assert block in source, block.splitlines()[0]

    def test_report_key_order_is_sorted(self, capsys, workdir):
        _, put = workdir
        path = put("t.json", np.diag([1.0, 2.0]))
        run_command(["norm", "--phi", "max", path])
        out = capsys.readouterr().out
        keys = list(json.loads(out))
        assert keys == sorted(keys)
