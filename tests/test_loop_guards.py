"""Call counts of the stacked sampled loops, the lazy unit views and the
shared density eigensystem.

radical_check, adjoint_defect and offdiag_bound_check each evaluate their
samples, extremizers or block pairs as stacks, and the cross-section
takes the polar factors of its corners in one stacked SVD per corner
width.  These tests count the calls
into the kernels underneath, so an edit that brings back one call per
sample fails here without a timing test.  Likewise kernel_range_split and
centralizer_basis return views that build no unit until one is read, the
state functions share one eigendecomposition per density, the
centralizer report checks its units in stacks, and every reader of a
reference T passes each operand through one Hermitian gate, builds
one frame per operand with SpectralData.from_hermitian and certifies a
frame only through opcore.certify_frame, at most once.
function_calculus reads its norm off its eigenvalues,
rank_sandwich_check takes both distances off one SVD of F1 - F2, the
norm report reads its norm and its singular values off one SVD, and
kaehler_check evaluates its samples entrywise, with no sampled element
and no dense trace form.
"""

from collections import Counter

import numpy as np
import pytest

from leafkit import cli, cross_section, matrixio, norming, opcore, orbits, states, symplectic
from leafkit.cli import run_command
from leafkit.cross_section import (
    build_reference,
    continuity_modulus,
    cross_section_phi,
    generated_algebra_dimension,
    minimal_polynomial,
    offdiag_bound_check,
    well_definedness_check,
)
from leafkit.matrixio import write_matrix
from leafkit.norming import adjoint_defect, lorentz, schatten
from leafkit.opcore import SpectralData
from leafkit.orbits import isotropy_dimension, kernel_range_split, leaf_signature, pinching, same_leaf
from leafkit.states import (
    DensityFunctional,
    centralizer_basis,
    is_faithful,
    jordan_decompose,
    support_projection,
)
from leafkit.symplectic import (
    PolarizationMask, _stacks, kaehler_check, omega, polarization, polarization_properties, radical_check,
)

from conftest import SQRT_PI, hermitian_with_spectrum, random_unitary

LEAFKIT = (cli, cross_section, matrixio, norming, opcore, orbits, states, symplectic)


def counted(monkeypatch, owner, name, key=lambda *args: None):
    """Replace owner.name by a wrapper that counts its calls by
    key(*args)."""
    calls = Counter()
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[key(*args)] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("mults, sample_count", [((3, 3, 2), 100), ((12, 8, 8, 4), 100), ((2, 1), 300)])
def test_radical_pinches_once_per_stack(monkeypatch, mults, sample_count):
    rng = np.random.default_rng(8)
    t = hermitian_with_spectrum(np.repeat(np.arange(len(mults), dtype=float), mults), rng)
    calls = counted(monkeypatch, SpectralData, "pinch")
    radical_check(t, sample_count=sample_count)
    n = sum(mults)
    assert calls[None] == len(list(_stacks(sample_count, n)))


@pytest.mark.parametrize("mults", [(3, 3, 2), (12, 8, 8, 4)])
def test_kaehler_forms_no_sample_matrix(monkeypatch, mults):
    # the samples are coefficient sums in the ordered frame: no element
    # G C G* and no dense trace form per stack
    rng = np.random.default_rng(18)
    t = hermitian_with_spectrum(np.repeat(np.arange(len(mults), dtype=float), mults), rng)
    elements = counted(monkeypatch, PolarizationMask, "element")
    forms = counted(monkeypatch, symplectic, "_trace_form")
    kaehler_check(t, sample_count=200)
    assert elements == forms == Counter()


@pytest.mark.parametrize("phi", [schatten(3), lorentz(SQRT_PI)])
def test_adjoint_defect_evaluates_phi_once(monkeypatch, phi):
    calls = counted(monkeypatch, norming, "eval_snf_many", lambda phi, rows: len(rows))
    eta = np.abs(np.random.default_rng(9).standard_normal(32))
    adjoint_defect(phi, eta)
    # one row for the closed-form target on eta, then every candidate at
    # once: eta, 32 indicator prefixes, and the Hoelder power of eta or 32
    # pi prefixes
    extremizers = 1 + 32 + (1 if phi.kind == "schatten" else 32)
    assert calls == Counter({1: 1, extremizers: 1})


def test_offdiag_takes_one_svd_per_core_shape(monkeypatch):
    rng = np.random.default_rng(10)
    mults = (3, 3, 2, 2, 1)
    t = hermitian_with_spectrum(np.repeat(np.arange(len(mults), dtype=float), mults), rng)
    ref = build_reference(0.5 * (t + t.conj().T))
    w = random_unitary(ref.size, rng)
    calls = counted(monkeypatch, np.linalg, "svd", lambda a, **_: np.ndim(a))
    offdiag_bound_check(ref, schatten(1), w)
    shapes = {(a, b) for i, a in enumerate(mults) for j, b in enumerate(mults) if i != j}
    # the stacked cores of each shape, and the commutator TW - WT once
    assert calls == Counter({3: len(shapes), 2: 1})


@pytest.mark.parametrize("mults", [(3, 3, 2, 2, 1), (4, 4, 4), (5, 3, 3, 1)])
def test_section_takes_one_svd_per_corner_width(monkeypatch, mults):
    rng = np.random.default_rng(15)
    t = hermitian_with_spectrum(np.repeat(np.arange(len(mults), dtype=float), mults), rng)
    ref = build_reference(0.5 * (t + t.conj().T))
    n, f = ref.size, ref.spectral.frame
    v = random_unitary(n, rng, 0.1)
    g = (f * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))) @ f.conj().T
    steps = [random_unitary(n, rng, 2.0**-k) for k in range(1, 4)]
    widths = len(set(mults))
    calls = counted(monkeypatch, np.linalg, "svd", lambda a, **_: np.ndim(a))
    cross_section_phi(ref, v)
    assert calls == Counter({3: widths})
    calls.clear()
    well_definedness_check(ref, v, g)
    assert calls == Counter({3: 2 * widths})
    calls.clear()
    continuity_modulus(ref, schatten(1), steps)
    # and one SVD of phi - 1 per step for its ideal norm
    assert calls == Counter({3: len(steps) * widths, 2: len(steps)})


def test_function_calculus_takes_no_svd(monkeypatch):
    rng = np.random.default_rng(16)
    a = hermitian_with_spectrum(rng.uniform(0.0, 1.0, 8), rng)
    svd = counted(monkeypatch, np.linalg, "svd")
    norms = counted(monkeypatch, np.linalg, "norm", lambda a, ord=None: ord)
    opcore.function_calculus(0.5 * (a + a.conj().T), lambda x: x * x)
    assert svd == Counter()
    assert norms[2] == 0


def test_rank_sandwich_takes_three_svds(monkeypatch):
    rng = np.random.default_rng(17)
    f1, f2 = (random_unitary(8, rng)[:, :2] @ random_unitary(8, rng)[:2] for _ in range(2))
    svd = counted(monkeypatch, np.linalg, "svd")
    norms = counted(monkeypatch, np.linalg, "norm", lambda a, ord=None: ord)
    norming.rank_sandwich_check(lorentz(SQRT_PI), 2, f1, f2)
    # the rank gates of F1 and F2, and one SVD of F1 - F2 for both distances
    assert svd == Counter({None: 3})
    assert norms == Counter()


def test_norm_report_takes_one_svd(monkeypatch, tmp_path, capsys):
    # the ideal norm and the printed singular values share one SVD
    write_matrix(np.random.default_rng(19).standard_normal((6, 4)), tmp_path / "a.json")
    svd = counted(monkeypatch, np.linalg, "svd")
    assert run_command(["norm", "--phi", "lorentz:power:0.5", str(tmp_path / "a.json")]) == 0
    capsys.readouterr()
    assert svd == Counter({None: 1})


def test_unit_views_build_no_unit(monkeypatch):
    # an eager centralizer list takes one np.outer per unit
    rng = np.random.default_rng(11)
    t = hermitian_with_spectrum(np.repeat([2.0, 1.0, -1.0], (4, 3, 1)), rng)
    t = 0.5 * (t + t.conj().T)
    calls = counted(monkeypatch, np, "outer")
    split = kernel_range_split(t)
    basis = centralizer_basis(DensityFunctional(t))
    assert len(split.kernel_basis) == len(basis) == 4 * 4 + 3 * 3 + 1
    assert len(split.range_basis) == 8 * 8 - len(basis)
    assert calls == Counter()
    basis[-1]
    assert calls == Counter({None: 1})


def count_norms(monkeypatch, *owners):
    """Count the spectral norms taken through each owner's spectral_norm.
    np.linalg.norm(a, 2) reaches numpy's SVD through a name internal to
    numpy, so a patched np.linalg.svd would not see them."""
    return [counted(monkeypatch, owner, "spectral_norm") for owner in owners]


def test_state_functions_share_one_eigh(monkeypatch):
    rng = np.random.default_rng(12)
    phi = DensityFunctional(hermitian_with_spectrum(np.repeat([2.0, 1.0, 0.0], (3, 2, 2)), rng))
    eigh = counted(monkeypatch, np.linalg, "eigh")
    solvers = [counted(monkeypatch, np.linalg, name) for name in ("eigvalsh", "svd")]
    norms = count_norms(monkeypatch, states, opcore)
    support_projection(phi)
    jordan_decompose(phi)
    is_faithful(phi, 1e-12)
    centralizer_basis(phi)
    assert eigh == Counter({None: 1})
    assert solvers + norms == [Counter()] * 4


def test_centralizer_report_takes_no_unit_svd(monkeypatch, tmp_path, capsys):
    # four clusters of 6: 144 units, each with an n x n commutator
    n = 24
    rng = np.random.default_rng(13)
    write_matrix(hermitian_with_spectrum(np.repeat([3.0, 1.0, -0.5, -2.0], 6), rng), tmp_path / "rho.json")
    norms = count_norms(monkeypatch, cli, opcore)
    svd = counted(monkeypatch, np.linalg, "svd", lambda a, **_: np.shape(a)[1:])
    assert run_command(["centralizer", str(tmp_path / "rho.json")]) == 0
    capsys.readouterr()
    assert norms == [Counter()] * 2
    # the 144 units fit one stack: one SVD of a stack of n x 2 factors
    assert svd == Counter({(n, 2): 1})


# each reader of T: the call on T, its Hermitian operands, its frames and
# its frame certificates
READERS = {
    "build_reference": (build_reference, 1, 1, 0),
    "minimal_polynomial": (minimal_polynomial, 1, 1, 0),
    "generated_algebra_dimension": (generated_algebra_dimension, 1, 1, 0),
    "pinching": (lambda t: pinching(t, t), 1, 1, 0),
    "kernel_range_split": (kernel_range_split, 1, 1, 1),
    "isotropy_dimension": (isotropy_dimension, 1, 1, 0),
    "leaf_signature": (lambda t: leaf_signature(t, 1e-9), 1, 1, 0),
    "same_leaf": (lambda t: same_leaf(t, t[::-1, ::-1], 1e-9), 2, 2, 0),
    "radical_check": (lambda t: radical_check(t, sample_count=3), 1, 1, 1),
    "polarization": (polarization, 1, 1, 0),
    "polarization_properties": (lambda t: polarization_properties(t, sample_count=3), 1, 1, 1),
    "kaehler_check": (lambda t: kaehler_check(t, sample_count=3), 1, 1, 1),
    "omega": (lambda t: omega(t, 1j * t, 1j * np.eye(len(t))), 1, 0, 0),
}


@pytest.mark.parametrize("reader", list(READERS))
def test_each_reader_of_t_builds_one_frame(monkeypatch, reader):
    # each Hermitian operand passes the Hermitian gate once, each frame is
    # clustered once, and a frame is certified by certify_frame alone and
    # at most once, so a second gate or a second F*F product fails here
    call, operands, frames, certificates = READERS[reader]
    rng = np.random.default_rng(14)
    t = hermitian_with_spectrum(np.repeat([2.0, 1.0, -1.0], (3, 2, 1)), rng)
    t = 0.5 * (t + t.conj().T)
    gates = counted(monkeypatch, opcore, "is_hermitian")
    clusterings = counted(monkeypatch, SpectralData, "from_eigh")
    unitary = counted(monkeypatch, opcore, "is_unitary")
    # every module that holds certify_frame under its own name
    certs = [counted(monkeypatch, m, "certify_frame") for m in LEAFKIT if hasattr(m, "certify_frame")]
    call(t)
    assert gates == Counter({None: operands})
    assert clusterings == Counter({None: frames} if frames else {})
    assert sum(certs, Counter()) == Counter({None: certificates} if certificates else {})
    assert unitary == Counter()
