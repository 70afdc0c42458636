"""Import budget of the one-shot CLI: `import leafkit.cli` loads no
handler module, and the package still exports every public name it
exported when its __init__ imported all modules eagerly."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import leafkit

# loaded only by the handlers that call them
LAZY_MODULES = [
    "leafkit.symplectic",
    "leafkit.states",
    "leafkit.orbits",
    "leafkit.cross_section",
    "leafkit.norming",
    "numpy.polynomial",
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


def test_cli_import_loads_no_handler_module():
    src = str(Path(leafkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import json, sys, leafkit.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    loaded = set(json.loads(proc.stdout))
    assert "leafkit.cli" in loaded
    assert loaded.isdisjoint(LAZY_MODULES), sorted(loaded.intersection(LAZY_MODULES))


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
