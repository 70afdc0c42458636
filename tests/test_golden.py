"""Golden CLI reports: the stdout bytes and exit code of one call of each
subcommand on fixed n <= 8 inputs.

The inputs and expected reports live under tests/golden/.  calls.json
lists each call's argv, with paths relative to that directory, and its
exit code; expected/<name>.stdout holds the report.  The test runs every
call from tests/golden/, so the paths printed in a report do not depend
on where the checkout lives.
"""

import difflib
import json
from pathlib import Path

import pytest

from leafkit.cli import run_command

GOLDEN = Path(__file__).parent / "golden"
CALLS = json.loads((GOLDEN / "calls.json").read_text())


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
        pytest.fail("report differs from the golden:\n" + "".join(diff))
    assert code == call["exit"]
