"""Dense reference constructions for the eigenframe paths of leafkit.

The library reads the radical, the polarization dimensions and the
kernel/range split off one certified eigenframe, and draws polarization
elements as G C G*.  The constructions here do the same work densely,
over explicit lists of n x n basis matrices: the standard real basis of
the skew-Hermitian matrices, the Gram of the orbit form on it, span
ranks by SVD, the least-squares reconstruction of the split, and the
sampled polarization and Kaehler loops as coefficient sums over a basis
list.  They cost O(n^4) to O(n^6), so the tests use them at n <= 8.

The sampled loops of radical_check and offdiag_bound_check are here one
sample or block pair per iteration, as the library ran them before it
stacked them; each draws from a generator the caller passes, so a test
can compare what the library's generator consumed.  adjoint_defect here
is the library's former search, one candidate per iteration: the
extremizers plus sample_count random nonincreasing sequences, which the
library's extremizers alone must match.

reconstruct is sum_i lambda_i E_i of a clustered eigenframe, which only
the tests read.

psi_per_cluster is the cross-section's psi(V) as the library built it
before it read every corner off one frame product: one B_i* V B_i
product, one SVD and one n x n rank-m_i term per cluster.

report_json is the stdlib layout of a CLI report, which cli.emit_report
reproduces byte for byte without the pure-Python indenting encoder.
"""

import json

import numpy as np

from leafkit.cli import _json_default
from leafkit.norming import adjoint_snf, eval_snf, op_norm
from leafkit.errors import CornerSingular
from leafkit.opcore import CORNER_TOL, SpectralData, random_skew_hermitian


def skew_hermitian_basis(n):
    """Standard real basis of the n x n skew-Hermitian matrices
    (dimension n^2): i e_aa, then e_ab - e_ba and i (e_ab + e_ba) for
    each a < b."""
    out = []
    for a in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[a, a] = 1j
        out.append(e)
    for a in range(n):
        for b in range(a + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[a, b] = 1.0
            out.append(e - e.T)
            out.append(1j * (e + e.T))
    return out


# the oracle's own cutoff, relative to max(largest singular value, ||T||);
# independent of the cluster tolerance the library's count applies
RADICAL_REL_TOL = 1e-9


def radical_dim(tm):
    """Nullity of the dense Gram of omega_T(X, Y) = Re Tr(T [X, Y]) on
    the standard skew basis, with the cutoff
    RADICAL_REL_TOL * max(largest singular value, ||T||)."""
    n = tm.shape[0]
    b = np.array(skew_hermitian_basis(n))
    c = np.einsum("ij,ajk->aik", tm, b) - np.einsum("aij,jk->aik", b, tm)
    gram = np.einsum("aij,bji->ab", c, b).real
    sv = np.linalg.svd(gram, compute_uv=False)
    cutoff = RADICAL_REL_TOL * max(sv[0], np.linalg.norm(tm, 2))
    return int(np.count_nonzero(sv <= cutoff))


def span_rank(mats, rel_tol=1e-9):
    """Complex dimension of the span of a list of matrices, by SVD."""
    rows = np.array([m.ravel() for m in mats])
    sv = np.linalg.svd(rows, compute_uv=False)
    if len(sv) == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > rel_tol * sv[0]))


def lstsq_split(basis, s):
    """Real least-squares coefficients of s over a list of matrices, and
    the Frobenius error of the reconstruction."""
    a = np.array([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in basis]).T
    b = np.concatenate([s.real.ravel(), s.imag.ravel()])
    coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    recon = sum(c * m for c, m in zip(coef, basis))
    return coef, float(np.linalg.norm(recon - s))


def polarization_basis(mask):
    """The matrix units a b* spanning the polarization: for each sorted
    cluster pair (i, j) in mask order, a over the eigenvectors of cluster
    i and, inside, b over those of cluster j."""
    bases = mask.spectral.bases
    out = []
    for i, j in mask.mask:
        for a in bases[mask.block_order[i]].T:
            for b in bases[mask.block_order[j]].T:
                out.append(np.outer(a, b.conj()))
    return out


def commutation_residual(mask, sample_count, seed):
    """The isotropy-stability residual of polarization_properties, each
    draw a coefficient sum over polarization_basis(mask)."""
    sd = mask.spectral
    n = sd.size
    basis = polarization_basis(mask)
    sup = mask.support()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(sample_count):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        k = sum(e @ (0.5 * (g - g.conj().T)) @ e for e in sd.projections)
        coeff = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        z = sum(c * b for c, b in zip(coeff, basis))
        z /= np.linalg.norm(z)
        c = k @ z - z @ k
        off = np.linalg.norm((sd.frame.conj().T @ c @ sd.frame)[~sup])
        worst = max(worst, off / max(1.0, np.linalg.norm(c)))
    return worst


def kaehler_samples(tm, mask, sample_count, seed):
    """(isotropy_max_abs, positivity_min) of kaehler_check, each draw a
    coefficient sum over polarization_basis(mask), normalized in the
    Frobenius norm, and each form a dense trace Tr(T [Z1, Z2]); the
    library evaluates the same draws entrywise in the ordered frame."""
    basis = polarization_basis(mask)
    rng = np.random.default_rng(seed)

    def draw():
        c = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        z = sum(ci * b for ci, b in zip(c, basis))
        return z / np.linalg.norm(z)

    def form(z, w):
        return np.trace(tm @ (z @ w - w @ z))

    iso_max, pos_min = 0.0, np.inf
    for _ in range(sample_count):
        z1, z2 = draw(), draw()
        iso_max = max(iso_max, abs(form(z1, z2)))
        pos_min = min(pos_min, (-1j * form(z1, z1.conj().T)).real)
    return iso_max, pos_min


def split_lists(sd):
    """The kernel and range bases of kernel_range_split as eager lists:
    per cluster its skew units, then per cluster pair i < j the pair's
    off-diagonal units."""

    def units(ca, cb, same):
        out = []
        if same:
            for i in range(ca.shape[1]):
                out.append(1j * np.outer(ca[:, i], ca[:, i].conj()))
        for i in range(ca.shape[1]):
            for j in range(i + 1 if same else 0, cb.shape[1]):
                e = np.outer(ca[:, i], cb[:, j].conj())
                out.append(e - e.conj().T)
                out.append(1j * (e + e.conj().T))
        return out

    bases = sd.bases
    kernel, rangeb = [], []
    for gi, b in enumerate(bases):
        kernel.extend(units(b, b, True))
        for c in bases[gi + 1 :]:
            rangeb.extend(units(b, c, False))
    return kernel, rangeb


def centralizer_list(phi):
    """The commutant basis of centralizer_basis as an eager list: per
    eigenvalue cluster of rho, the matrix units a b* over the cluster's
    eigenvectors, a outer and b inner."""
    basis = []
    for cols in SpectralData.from_hermitian(phi.rho).bases:
        for a in cols.T:
            for b in cols.T:
                basis.append(np.outer(a, b.conj()))
    return basis


def radical_pairing_max(tm, sd, sample_count, rng):
    """sampled_pairing_max of radical_check: max |Tr(T [K, S])| over one
    pinched K and one S per draw."""
    n = sd.size
    worst = 0.0
    for _ in range(sample_count):
        k = sd.pinch(random_skew_hermitian(n, rng))
        s = random_skew_hermitian(n, rng)
        worst = max(worst, abs(complex(np.trace(tm @ (k @ s - s @ k)))))
    return worst


def reconstruct(sd):
    """sum_i lambda_i E_i with the cluster means lambda_i of sd."""
    v = sd.frame
    return (v * np.repeat(sd.eigenvalues, sd.multiplicities)) @ v.conj().T


def adjoint_defect(phi, eta, sample_count, rng):
    """adjoint_defect over the extremizers and sample_count random
    candidates, with one pairing ratio per candidate."""
    eta = np.sort(np.abs(np.asarray(eta, dtype=float).ravel()))[::-1]
    target = eval_snf(adjoint_snf(phi), eta)
    m = max(len(eta), 1)
    candidates = [eta]
    for k in range(1, m + 1):
        candidates.append(np.ones(k))
    e1 = np.zeros(m)
    e1[0] = 1.0
    candidates.append(e1)
    if phi.kind == "schatten" and not np.isinf(phi.p) and phi.p > 1.0:
        q = phi.p / (phi.p - 1.0)
        candidates.append(eta ** (q - 1.0))
    if phi.kind in ("lorentz_pi", "lorentz_dual"):
        w = phi.pi.values(m)
        for k in range(1, m + 1):
            candidates.append(w[:k].copy())
    for _ in range(sample_count):
        k = int(rng.integers(1, m + 5))
        candidates.append(np.sort(np.abs(rng.standard_normal(k)))[::-1])

    best = 0.0
    for xi in candidates:
        if len(xi) == 0 or xi[0] <= 0.0:
            continue
        denom = eval_snf(phi, xi)
        if denom > 0.0:
            j = min(len(xi), len(eta))
            best = max(best, float(np.dot(xi[:j], eta[:j])) / denom)
    return target - best


def offdiag_max_violation(ref, phi, w):
    """max_violation of offdiag_bound_check, one core norm per block pair."""
    comm_norm = op_norm(phi, ref.T @ w - w @ ref.T)
    lams = ref.eigenvalues
    blocks = ref.spectral.blocks
    cores = ref.spectral.frame.conj().T @ w @ ref.spectral.frame
    worst = -np.inf
    for i in range(len(lams)):
        for j in range(len(lams)):
            if i != j:
                lhs = op_norm(phi, cores[blocks[i], blocks[j]]) * abs(lams[i] - lams[j])
                worst = max(worst, lhs - comm_norm)
    return float(worst)


def psi_per_cluster(ref, vm, corner_tol=CORNER_TOL):
    """psi(V) = sum_i B_i X_i* B_i* from the polar factors X_i of the
    corners B_i* V B_i, with the smallest corner singular value; raises
    CornerSingular outside the neighborhood.  V is not validated."""
    psi = np.zeros((ref.size, ref.size), dtype=np.complex128)
    min_sv = np.inf
    for b in ref.spectral.bases:
        u, s, wh = np.linalg.svd(b.conj().T @ vm @ b)
        min_sv = min(min_sv, float(s[-1]))
        if s[-1] <= corner_tol:
            raise CornerSingular(
                f"spectral-block compression has smallest singular value {s[-1]:.3e}"
            )
        psi += b @ (u @ wh).conj().T @ b.conj().T
    return psi, min_sv


def report_json(report):
    """A CLI report as json.dumps lays it out with sorted keys and an
    indent of 2, matrices through the report's default hook."""
    obj = {
        "command": report.command,
        "inputs": report.inputs,
        "results": report.results,
        "tolerances": report.tolerances,
        "pass": bool(report.ok),
    }
    return json.dumps(obj, sort_keys=True, indent=2, default=_json_default)
