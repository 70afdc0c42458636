"""Reference figures quoted in bench/README.md, measured one at a time.

    python3 bench/reference.py

Prints one JSON line per figure: radical_check at n=16/24/32,
kaehler_check (200 samples) at n=32, and one CLI call split into a bare
interpreter start, `import leafkit.cli`, and the whole process, next to
the same argv run in-process.  Run from the root of a checkout; BLAS is
pinned to one thread as in bench/run.py.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402
from leafkit import cli, symplectic  # noqa: E402

from cli_oneshot import ENTRY, child_env  # noqa: E402
from inputs import spectral  # noqa: E402

PATTERNS = {16: (6, 4, 4, 2), 24: (9, 6, 6, 3), 32: (12, 8, 8, 4)}
CLI_ARGV = ["adjoint", "--phi", "schatten:1.5"]
REPEATS = 5


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main() -> None:
    rng = np.random.default_rng(0)
    for n, mults in PATTERNS.items():
        t = spectral(rng, mults).matrix
        print(json.dumps({"figure": "symplectic.radical_check", "n": n, "mults": mults,
                          "s": timed(lambda: symplectic.radical_check(t))}))
    t = spectral(rng, PATTERNS[32]).matrix
    print(json.dumps({"figure": "symplectic.kaehler_check", "n": 32, "samples": 200,
                      "s": timed(lambda: symplectic.kaehler_check(t, sample_count=200))}))

    env = child_env()

    def child(*args):
        return lambda: subprocess.run([sys.executable, *args], env=env, check=True, capture_output=True)

    def in_process():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run_command(CLI_ARGV)

    split = {
        "bare_start_s": child("-c", "pass"),
        "import_leafkit_cli_s": child("-c", "import leafkit.cli"),
        "process_s": child("-c", ENTRY, *CLI_ARGV),
        "run_command_in_process_s": in_process,
    }
    medians = {k: statistics.median(timed(fn) for _ in range(REPEATS)) for k, fn in split.items()}
    medians["import_minus_bare_s"] = medians["import_leafkit_cli_s"] - medians["bare_start_s"]
    print(json.dumps({"figure": "cli", "argv": CLI_ARGV, "repeats": REPEATS, **medians}))


if __name__ == "__main__":
    main()
