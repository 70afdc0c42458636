"""Golden CLI reports: the stdout bytes and exit code of one call of each
subcommand on fixed n <= 8 inputs.

The inputs and expected reports live under tests/golden/.  calls.json
lists each call's argv, with paths relative to that directory, and its
exit code; expected/<name>.stdout holds the report.  The test runs every
call from tests/golden/, so the paths printed in a report do not depend
on where the checkout lives.

The reports are float roundoff of one BLAS kernel: kernel.json records
the OpenBLAS version and the core (picked by CPU at load) they were
recorded on, and a mismatch names the loaded one next to it.
"""

import ctypes
import difflib
import json
from pathlib import Path

import numpy as np
import pytest

from leafkit.cli import run_command

GOLDEN = Path(__file__).parent / "golden"
CALLS = json.loads((GOLDEN / "calls.json").read_text())
RECORDED = json.loads((GOLDEN / "kernel.json").read_text())


def loaded_kernel() -> dict:
    """The version and core of the OpenBLAS numpy loaded, as the library
    reports them; empty when it cannot be asked."""
    for lib in sorted(Path(np.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*")):
        dll = ctypes.CDLL(str(lib))
        config, core = (getattr(dll, f"scipy_openblas_get_{name}64_", None) for name in ("config", "corename"))
        if config is not None and core is not None:
            config.argtypes = core.argtypes = []
            config.restype = core.restype = ctypes.c_char_p
            return {"openblas": config().decode().split()[1], "core": core().decode()}
    return {}


def kernels() -> str:
    loaded = loaded_kernel() or {"openblas": "?", "core": "unknown"}
    return (f"recorded on OpenBLAS {RECORDED['openblas']} {RECORDED['core']}, "
            f"loaded OpenBLAS {loaded['openblas']} {loaded['core']}")


@pytest.mark.parametrize("call", CALLS, ids=[c["name"] for c in CALLS])
def test_report_is_byte_identical(call, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv("LEAFKIT_SEED", raising=False)
    code = run_command(call["argv"])
    out = capsys.readouterr().out
    expected = (GOLDEN / "expected" / f"{call['name']}.stdout").read_text()
    if out != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            out.splitlines(keepends=True),
            fromfile=f"expected/{call['name']}.stdout",
            tofile="stdout",
        )
        pytest.fail(f"report differs from the golden ({kernels()}):\n" + "".join(diff))
    assert code == call["exit"]
