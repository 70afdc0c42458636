"""cli-oneshot: a closed loop with one client that runs one leafkit
process at a time.

The small tier runs every one of the 24 subcommands on fixtures with
n <= 8, plus the two calls of the known faults; the large tier runs norm,
cross-section, pinch, leaf-compare and orbit-sample --out on n=256 matrix
files.  Interpreter start, imports, argparse and matrixio dominate here
and the numerical layers do little.  Reads (parsing the input files) sit
beside writes (phi inside the cross-section report, the sample files).
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import leafkit
from leafkit import cli, matrixio

from fixtures import make_calls, read
from inputs import CheckFailed, Op, OpFailed, Workload

# what the installed `leafkit` console script runs
ENTRY = "import sys; from leafkit.cli import main; sys.exit(main())"
CALL_TIMEOUT_S = 120
IMPORT_SAMPLES = 3


def child_env() -> dict:
    src = str(Path(leafkit.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)


def _op(call, env: dict) -> Op:
    def run():
        try:
            return subprocess.run([sys.executable, "-c", ENTRY, *call.argv], capture_output=True, text=True,
                                  env=env, timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
            raise OpFailed(f"timed out after {CALL_TIMEOUT_S} s: {call.argv}") from exc

    return Op("cli.process", run, lambda proc: call.check(proc.returncode, proc.stdout, proc.stderr))


def _timed_child(code: str, env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=CALL_TIMEOUT_S)
    return time.perf_counter() - t0


def build(seed: int, size: str, workdir: Path) -> Workload:
    calls = make_calls(seed, size, workdir)
    env = child_env()
    small = [_op(c, env) for c in calls if c.tier == "small"]
    large = [_op(c, env) for c in calls if c.tier == "large"]
    inputs = sorted({a for c in calls for a in c.argv if a.endswith(".json") and Path(a).is_file()})

    def layer_pass(tracer, errors: list) -> dict:
        """The same argv in-process, matrixio on the same files, and the
        import cost of a fresh interpreter.  Wrong outputs go to errors."""
        for c in calls:
            out, err = io.StringIO(), io.StringIO()
            with tracer.span("cli.run_command"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.run_command(c.argv)
                except Exception as exc:  # the traceback a process would print, exit 1
                    err.write(f"{type(exc).__name__}: {exc}")
                    code = 1
            try:
                c.check(code, out.getvalue(), err.getvalue())
            except OpFailed:
                pass
            except CheckFailed as exc:
                errors.append(f"cli.run_command {c.argv[0]}: {exc}")
        for path in inputs:
            with tracer.span("matrixio.parse_matrix"):
                a = matrixio.parse_matrix(path)
            with tracer.span("matrixio.emit_matrix"):
                text = matrixio.emit_matrix(a)
            if not (read(path) == a).all():
                errors.append(f"matrixio.parse_matrix({Path(path).name}) differs from the written matrix")
            if not (matrixio.parse_matrix_text(text) == a).all():
                errors.append(f"matrixio: parse(emit(A)) is not bit-exact for {Path(path).name}")
        bare, imports = [], []
        for _ in range(IMPORT_SAMPLES):
            bare.append(_timed_child("pass", env))
            imports.append(_timed_child("import leafkit.cli", env))
        base = statistics.median(bare)
        return {"cli.import": (sum(t - base for t in imports), IMPORT_SAMPLES)}

    # a large call varies more between repetitions than the ~0.25 s small
    # calls, so it repeats twice a round
    return Workload(small_shapes=[small], large_shapes=[large], small_repeats=1, round_s=15.0, large_repeats=2,
                    layer_pass=layer_pass)

