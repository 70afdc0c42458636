"""Import budget of the one-shot CLI: `import leafkit.cli` loads no
handler module, a process that reads and writes only small matrices never
loads orjson, and the package still exports every public name it
exported when its __init__ imported all modules eagerly."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import leafkit

# loaded only by the handlers that call them
LAZY_MODULES = [
    "leafkit.symplectic",
    "leafkit.states",
    "leafkit.orbits",
    "leafkit.cross_section",
    "leafkit.norming",
    "numpy.polynomial",
    "orjson",
]

EAGER_EXPORTS = {
    "errors": """ClusterAmbiguity CornerSingular LeafkitError NearSingular NotCommuting NotHermitian
        NotPositive NotSkewHermitian NotUnitary NotUnitVector ParseError PreconditionError RankTooHigh
        ShapeError SingleCluster SizeMismatch SpectrumOutOfRange UnsupportedKind""",
    "opcore": """PolarFactors SpectralData function_calculus matrix_exp polar_decompose singular_values
        spectral_decompose""",
    "norming": """NormingFunctionSpec PiSequence adjoint_defect adjoint_snf calculus_monotonicity_check
        duality_gap eval_snf lorentz lorentz_dual max_norm op_norm pi_regularity rank_sandwich_check
        schatten sum_norm""",
    "states": """DensityFunctional JordanPair centralizer_basis centralizer_block_check is_faithful
        jordan_decompose jordan_intersection_check support_equivariance_check support_projection""",
    "orbits": """LeafSignature characteristic_tangent isotropy_dimension kernel_range_split leaf_signature
        orbit_sample pinching same_leaf""",
    "symplectic": """PolarizationMask kaehler_check omega polarization projective_form_compare
        radical_check""",
    "cross_section": """CrossSectionResult ReferenceOperator build_reference continuity_modulus
        cross_section_phi generated_algebra_dimension minimal_polynomial neighborhood_check
        offdiag_bound_check well_definedness_check""",
    "matrixio": "emit_matrix parse_matrix write_matrix",
}


def loaded_modules(code: str, *args: str) -> set:
    """The modules a fresh interpreter holds after code, which prints
    them as its last line of stdout."""
    src = str(Path(leafkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_cli_import_loads_no_handler_module():
    loaded = loaded_modules("import json, sys, leafkit.cli; print(json.dumps(sorted(sys.modules)))")
    assert "leafkit.cli" in loaded
    assert loaded.isdisjoint(LAZY_MODULES), sorted(loaded.intersection(LAZY_MODULES))


def test_small_calls_never_load_orjson(tmp_path):
    # n <= 8 files are parsed, printed (phi) and written (--out) by the
    # stdlib codec alone, so a small call does not pay orjson's import
    from leafkit.matrixio import FAST_ENTRIES, write_matrix
    from leafkit.opcore import matrix_exp

    assert 8 * 8 < FAST_ENTRIES
    t, v = tmp_path / "t.json", tmp_path / "v.json"
    write_matrix(np.diag([1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 5.0, 8.0]), t)
    write_matrix(matrix_exp(0.1j * np.diag(np.arange(8.0))), v)
    calls = [["cross-section", str(t), str(v)], ["orbit-sample", str(t), "--out", str(tmp_path / "x_")],
             ["pinch", str(t), str(v)], ["norm", "--phi", "schatten:1", str(v)]]
    code = ("import json, sys; from leafkit.cli import run_command\n"
            "codes = [run_command(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps(sorted(sys.modules) if codes == [0] * len(codes) else codes))")
    loaded = loaded_modules(code, json.dumps(calls))
    assert "leafkit.matrixio" in loaded and (tmp_path / "x_0.json").is_file()
    assert "orjson" not in loaded


def test_every_eager_export_still_resolves():
    listed = dir(leafkit)
    for module, names in EAGER_EXPORTS.items():
        owner = importlib.import_module(f"leafkit.{module}")
        for name in names.split():
            scope = {}
            exec(f"from leafkit import {name}", scope)
            assert scope[name] is getattr(owner, name), name
            assert name in listed, name
    assert leafkit.__version__ == "0.1.0"
