"""Every subcommand of cli.COMMANDS on drawn argv: valid, non-square,
wrong-sized and malformed matrix files, missing paths, an --out into a
missing directory, bad norming-function specs and out-of-range numbers.

Whatever the argv, run_command returns an exit code in {0, 1, 2, 3} and
raises nothing; stdout holds one JSON report exactly when the code is not
2, and the report holds no NaN or Infinity, which are not JSON (RFC 8259).
Drawn counts stay small, since --horizon, --steps, --count and --samples
each cost time in proportion.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from leafkit import cli
from leafkit.matrixio import write_matrix
from leafkit.opcore import matrix_exp

GOLDEN_CALLS = json.loads((Path(__file__).parent / "golden" / "calls.json").read_text())

SKEW3 = np.array([[0, 1, 0], [-1, 0, 2], [0, -2, 0]], dtype=complex)
MATRICES = {
    "T2": np.diag([1.0, -1.0]),
    "T3": np.diag([1.0, 2.0, 3.0]),
    "T4": np.diag([1.0, 1.0, 2.0, -3.0]),
    "rho3": np.diag([0.5, 0.5, 0.0]),
    "skew3": 1j * np.diag([1.0, 2.0, 3.0]) + 0.1 * SKEW3,
    "I3": np.eye(3),
    "V3": matrix_exp(0.1 * SKEW3),
    "V4": matrix_exp(0.2j * np.diag([1.0, -1.0, 0.5, 0.0])),
    "row13": np.array([[1.0, 2.0, 3.0]]),
    "rect23": np.arange(6.0).reshape(2, 3),
}
MALFORMED = {
    "garbage": "not json",
    "nan": '{"rows":1,"cols":1,"data":[[[NaN,0.0]]]}',
    "nodata": '{"rows":1,"cols":1}',
}
NOT_SQUARE = ("row13", "rect23")
SQUARE_FILES = [f"{{dir}}/{name}.json" for name in MATRICES if name not in NOT_SQUARE]
OTHER_FILES = [f"{{dir}}/{name}.json" for name in [*NOT_SQUARE, *MALFORMED, "missing"]]
FILES = st.sampled_from(SQUARE_FILES) | st.sampled_from(OTHER_FILES)

# out-of-range numbers, drawn for every numeric option at one draw in four
# (most argv then get past argparse); --out stays in the test directory, so
# it draws only its own values
BAD = ["0", "-1", "nan", "inf", "-inf", "text"]
VALUES = {
    "phi": ["schatten:1", "schatten:2.5", "schatten:inf", "max", "sum", "lorentz:power:0.5",
            "lorentz-dual:power:0.3", "schatten", "schatten:0", "schatten:-1", "schatten:nan",
            "lorentz:power:2", "lorentz:power", "bogus", ""],
    "k": ["1", "2", "5"],
    "alpha": ["0", "0.5", "0.99", "1", "-0.1"],
    "horizon": ["1", "10", "50"],
    "samples": ["1", "3"],
    "seed": ["0", "7"],
    "tol": ["1e-12", "1e-8", "0.5"],
    "count": ["1", "2"],
    "scale": ["0.2", "1.5"],
    "out": ["{dir}/sample_", "{dir}/absent/sample_"],
    "corner_tol": ["1e-8", "0.9"],
    "steps": ["1", "3"],
}
FUZZ_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    cmd = cli.COMMANDS[name]
    # now and then one file too few or too many
    count = len(cmd.files) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    argv = [name, *(draw(FILES) for _ in range(count))]
    for dest in cmd.options:
        if draw(st.booleans()):
            values = VALUES[dest] if dest == "out" else 3 * VALUES[dest] + BAD
            argv += ["--" + dest.replace("_", "-"), draw(st.sampled_from(values))]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for name, m in MATRICES.items():
        write_matrix(np.asarray(m, dtype=complex), d / f"{name}.json")
    for name, text in MALFORMED.items():
        (d / f"{name}.json").write_text(text)
    return d


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in a report")


def test_every_option_has_fuzz_values():
    assert {dest for cmd in cli.COMMANDS.values() for dest in cmd.options} == set(VALUES)


def test_every_command_has_a_golden():
    assert set(cli.COMMANDS) == {call["name"] for call in GOLDEN_CALLS}


@FUZZ_SETTINGS
@given(argvs())
# non-square files and an unwritable --out once ended in a traceback
@example(["support", "{dir}/rect23.json"])
@example(["omega", "{dir}/T2.json", "{dir}/rect23.json", "{dir}/T2.json"])
@example(["dual-check", "--phi", "max", "{dir}/rect23.json", "{dir}/rect23.json"])
@example(["orbit-sample", "{dir}/T2.json", "--out", "{dir}/absent/sample_"])
# non-finite options and operands of two sizes once printed NaN or Infinity
@example(["leaf-compare", "{dir}/T2.json", "{dir}/T2.json", "--tol", "inf"])
@example(["cross-section", "{dir}/T3.json", "{dir}/V3.json", "--corner-tol", "nan"])
@example(["leaf-compare", "{dir}/T2.json", "{dir}/T3.json"])
def test_drawn_argv_exits_cleanly(fuzz_dir, argv):
    argv = [a.format(dir=fuzz_dir) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_command(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "", argv
    else:
        report = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert report["command"] == argv[0]
        assert report["pass"] is (code == 0)
