"""Matrix-file fixtures and expected outcomes for the cli-oneshot workload.

    python3 bench/fixtures.py --seed 7 --out bench/out/fixtures

rebuilds the fixtures of one seed anew: it writes every matrix file and a
calls.json listing each leafkit invocation with its tier and expected exit
code.  The benchmark calls make_calls itself on every run; no generated
file is committed.

Files are written in the leafkit matrix format by this module (shortest
round-trip doubles via json), not by leafkit.matrixio, so the program
receives only generated inputs.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial

from inputs import (
    ADJOINT,
    OpFailed,
    check_section,
    expect,
    expect_close,
    haar_unitary,
    hermitian,
    near_identity_unitary,
    offdiag_violation,
    phi_value,
    singular_spectrum,
    skew,
    spectral,
    with_singular_values,
)

SIZES = {
    "full": {"small": (3, 3, 2), "large": [32] * 8},
    "smoke": {"small": (2, 1, 1), "large": [4] * 4},
}
# Seed-independent input of the scale fault: a correct phi at ||T|| = 1e8
# has a roundoff residual ~1e-7, above the fixed absolute bound 1e-8.
BIG_SCALE = 1e8
BIG_SEED = 1618


@dataclass
class Call:
    """One leafkit invocation.  check gets (exit code, stdout, stderr) and
    raises OpFailed on an unexpected exit code, CheckFailed on a wrong
    report."""

    tier: str
    argv: list[str]
    expected_exit: int
    check: Callable[[int, str, str], None]


def write(path: Path, a: np.ndarray) -> str:
    a = np.ascontiguousarray(a, dtype=np.complex128)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    data = a.view(np.float64).reshape(a.shape[0], a.shape[1], 2).tolist()  # [re, im] pairs
    path.write_text(json.dumps({"rows": a.shape[0], "cols": a.shape[1], "data": data}) + "\n")
    return str(path)


def read_obj(obj: dict) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in obj["data"]])


def read(path) -> np.ndarray:
    return read_obj(json.loads(Path(path).read_text()))


def _report(expected_exit: int, verify: Callable[[dict], None] | None):
    def check(code: int, out: str, err: str) -> None:
        if code != expected_exit:
            raise OpFailed(f"exit {code}, expected {expected_exit}: {err.strip()[-300:]}")
        expect("Traceback" not in err, f"traceback on exit {code}")
        if verify is not None:
            report = json.loads(out)
            expect(report["pass"] is (expected_exit == 0), f"pass flag {report['pass']} on exit {code}")
            verify(report["results"])

    return check


def make_calls(seed: int, size: str, out: Path) -> list[Call]:
    """Write the fixtures of one seed into out and return the calls."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    calls: list[Call] = []

    def call(tier, argv, verify=None, expected_exit=0):
        calls.append(Call(tier, [str(a) for a in argv], expected_exit, _report(expected_exit, verify)))

    # ---- small tier: every subcommand once, n <= 8
    ref = spectral(rng, SIZES[size]["small"])
    n = ref.n
    m = np.array(ref.mults)
    iso = ref.isotropy_dim
    norm_t = float(np.max(np.abs(ref.values)))
    t = ref.matrix
    t_path = write(out / "T.json", t)
    sv_a = singular_spectrum(rng, n)
    sv_b = singular_spectrum(rng, n)
    a, _, _ = with_singular_values(rng, sv_a, n)
    b, _, _ = with_singular_values(rng, sv_b, n)
    a_path = write(out / "A.json", a)
    b_path = write(out / "B.json", b)
    f1, wf, xf = with_singular_values(rng, np.ones(2), n)
    f2 = -(wf * np.r_[0.0, 0.0, sv_a[:2], np.zeros(n - 4)]) @ xf.conj().T
    sandwich_sv = np.r_[1.0, 1.0, sv_a[:2]]
    psd = ref.values - ref.values[0]
    rho_path = write(out / "rho_psd.json", ref.with_values(psd))
    s_path = write(out / "S.json", hermitian(n, rng))
    x, y = skew(n, rng), skew(n, rng)
    x_path, y_path = write(out / "X.json", x), write(out / "Y.json", y)
    x0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x0 /= np.linalg.norm(x0)
    a1, a2 = skew(n, rng), skew(n, rng)
    q = haar_unitary(n, rng)
    v = near_identity_unitary(n, rng, 0.2)
    g = ref.block_unitary(rng)
    w = near_identity_unitary(n, rng, 1.0)
    direction = skew(n, rng)
    direction *= 0.25 / np.linalg.norm(direction, 2)
    seed_arg = str(int(rng.integers(2**31)))
    v_path = write(out / "V.json", v)

    def verify_norm(res):
        expect(abs(res["norm"] - phi_value("lorentz:power:0.5", sv_a)) <= 1e-9, "norm value")
        expect_close(res["singular_values"], sv_a, 1e-12 * n, "norm singular values")

    def verify_dual(res):
        pairing = complex(np.einsum("ij,ji->", a, b))
        expect_close(res["pairing"], [pairing.real, pairing.imag], 1e-10 * n, "dual-check pairing")
        expect(abs(res["bound"] - phi_value(ADJOINT["schatten:2"], sv_a) * phi_value("schatten:2", sv_b)) <= 1e-9,
               "dual-check bound")
        expect(res["gap"] >= -1e-9, "dual-check gap")

    def verify_sandwich(res):
        expect(res["lower_ok"] and res["upper_ok"], "sandwich bounds")
        expect(abs(res["operator_dist"] - sandwich_sv.max()) <= 1e-10, "sandwich operator_dist")
        expect(abs(res["ideal_dist"] - phi_value("lorentz:power:0.5", sandwich_sv)) <= 1e-9, "sandwich ideal_dist")

    def verify_pi(res):
        j = np.arange(1, 100_001, dtype=float)
        ratios = np.cumsum(j**-0.5) / (j * j**-0.5)
        expect(abs(res["sup_over_horizon"] - ratios.max()) <= 1e-9, "pi-regularity sup")
        expect(abs(res["final_ratio"] - ratios[-1]) <= 1e-9, "pi-regularity final ratio")

    def verify_offdiag(res):
        worst, comm = offdiag_violation(ref, w, "max")
        expect(abs(res["max_violation"] - worst) <= 1e-9 * (1.0 + comm), "offdiag max_violation")

    p_orbit = np.outer(x0, x0.conj())

    call("small", ["norm", "--phi", "lorentz:power:0.5", a_path], verify_norm)
    call("small", ["dual-check", "--phi", "schatten:2", a_path, b_path], verify_dual)
    call("small", ["adjoint", "--phi", "schatten:1.5"],
         lambda r: expect(r["adjoint"] == "schatten:3" and r["involution_ok"], "adjoint of schatten:1.5"))
    call("small", ["sandwich", "--phi", "lorentz:power:0.5", "--k", "2",
                   write(out / "F1.json", f1), write(out / "F2.json", f2)], verify_sandwich)
    call("small", ["pi-regularity", "--alpha", "0.5", "--horizon", "100000"], verify_pi)
    call("small", ["support", rho_path, "--seed", seed_arg],
         lambda r: expect(r["rank"] == n - m[0], f"support rank {r['rank']}"))
    call("small", ["jordan", t_path],
         lambda r: expect((r["positive_rank"], r["negative_rank"]) == (int(m[ref.values > 0].sum()),
                                                                     int(m[ref.values < 0].sum())), "jordan ranks"))
    call("small", ["centralizer", t_path],
         lambda r: expect(r["dimension"] == iso and r["expected_dimension"] == iso, "centralizer dimension"))
    call("small", ["faithful", rho_path, "--tol", "1e-12"],
         lambda r: expect(r["faithful"] is False and abs(r["min_eigenvalue"]) <= 1e-10 * n, "faithful on a kernel"))
    call("small", ["pinch", t_path, s_path],
         lambda r: expect(r["idempotency_residual"] <= 1e-10 and r["contraction_max_excess"] <= 1e-9, "pinch"))
    call("small", ["split", t_path],
         lambda r: expect((r["kernel_dim"], r["range_dim"]) == (iso, n * n - iso), "split dimensions"))
    call("small", ["omega", t_path, x_path, y_path],
         lambda r: expect(abs(r["value"] - np.trace(1j * t @ (x @ y - y @ x)).real) <= 1e-10 * n * n, "omega value"))
    call("small", ["radical", t_path, "--samples", "20", "--seed", seed_arg],
         lambda r: expect(r["radical_dim"] == iso and r["isotropy_dim"] == iso and r["match"], "radical dims"))
    call("small", ["polarization", t_path, "--seed", seed_arg],
         lambda r: expect((r["dim_p"], r["dim_intersection"], r["dim_sum"]) == (ref.polarization_dim, iso, n * n),
                          "polarization dims"))
    call("small", ["kahler-check", t_path, "--samples", "50", "--seed", seed_arg],
         lambda r: expect(abs(r["scale"] - max(1.0, norm_t)) <= 1e-9 * r["scale"], "kahler scale"))
    call("small", ["projective-compare", write(out / "x0.json", x0), write(out / "a1.json", a1),
                   write(out / "a2.json", a2)],
         lambda r: expect(abs(r["orbit_form"] - (1j * np.trace(p_orbit @ (a1 @ a2 - a2 @ a1))).real) <= 1e-10 * n
                          and abs(r["geometric_form"] - 2.0 * np.vdot(a2 @ x0, a1 @ x0).imag) <= 1e-10 * n,
                          "projective forms"))
    call("small", ["orbit-sample", t_path, "--count", "3", "--seed", seed_arg],
         lambda r: expect(r["count"] == 3 and r["leaf_preserved"], "orbit-sample"))
    call("small", ["leaf-compare", t_path, write(out / "T_conj.json", q @ t @ q.conj().T), "--tol", "1e-8"],
         lambda r: expect(r["same_leaf"] is True, "leaf-compare"))
    call("small", ["cross-section", t_path, v_path], lambda r: check_section(ref, read_obj(r["phi"]), v))
    call("small", ["well-defined", t_path, v_path, write(out / "G.json", g)],
         lambda r: expect(r["deviation"] <= 1e-9, "well-defined deviation"))
    call("small", ["continuity", t_path, write(out / "dir.json", direction), "--phi", "schatten:1", "--steps", "12"],
         lambda r: expect(r["final_phi_dist"] < r["phi_dists"][0] / 100, "continuity limit"))
    call("small", ["offdiag-bound", t_path, write(out / "W.json", w), "--phi", "max"], verify_offdiag)
    call("small", ["minpoly", t_path],
         lambda r: expect_close(r["coefficients"], Polynomial.fromroots(ref.values).coef, 1e-9 * (1 + norm_t) ** len(m),
                                "minpoly coefficients"))
    call("small", ["algebra-dim", t_path], lambda r: expect(r["dimension"] == len(m), "algebra dimension"))

    # the two known faults, on inputs that do not depend on the seed
    big_rng = np.random.default_rng(BIG_SEED)
    big = spectral(big_rng, SIZES[size]["small"])
    big.values = BIG_SCALE * big.values
    t_big = big.matrix
    v_big = near_identity_unitary(big.n, big_rng, 0.2)
    t_big_path = write(out / "T_big.json", t_big)
    call("small", ["orbit-sample", t_big_path, "--count", "0"], expected_exit=2)
    call("small", ["cross-section", t_big_path, write(out / "V_big.json", v_big)],
         lambda r: check_section(big, read_obj(r["phi"]), v_big))

    # ---- large tier: matrix files at n = 256
    ref_l = spectral(rng, SIZES[size]["large"])
    nl = ref_l.n
    tl = ref_l.matrix
    tl_path = write(out / "T_large.json", tl)
    sv_l = singular_spectrum(rng, nl)
    al, _, _ = with_singular_values(rng, sv_l, nl)
    vl = near_identity_unitary(nl, rng, 0.2)
    ql = haar_unitary(nl, rng)
    spectrum_l = np.sort(ref_l.diag)
    sample_prefix = out / "sample_"
    norm_l = float(np.max(np.abs(ref_l.values)))

    def verify_samples(res):
        expect(res["count"] == 2 and res["leaf_preserved"], "orbit-sample --out")
        for k in range(2):
            path = Path(f"{sample_prefix}{k}.json")
            s = read(path)
            path.unlink()
            expect_close(np.linalg.eigvalsh(0.5 * (s + s.conj().T)), spectrum_l, 1e-9 * nl * norm_l,
                         f"sample {k} spectrum")

    call("large", ["norm", "--phi", "schatten:1", write(out / "A_large.json", al)],
         lambda r: expect(abs(r["norm"] - sv_l.sum()) <= 1e-10 * nl * sv_l.sum(), "large norm"))
    call("large", ["cross-section", tl_path, write(out / "V_large.json", vl)],
         lambda r: check_section(ref_l, read_obj(r["phi"]), vl))
    call("large", ["pinch", tl_path, write(out / "S_large.json", hermitian(nl, rng))],
         lambda r: expect(r["idempotency_residual"] <= 1e-10 and r["contraction_max_excess"] <= 1e-9, "large pinch"))
    call("large", ["leaf-compare", tl_path, write(out / "T_large_conj.json", ql @ tl @ ql.conj().T), "--tol", "1e-8"],
         lambda r: expect(r["same_leaf"] is True, "large leaf-compare"))
    call("large", ["orbit-sample", tl_path, "--count", "2", "--seed", seed_arg, "--out", str(sample_prefix)],
         verify_samples)
    return calls


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    calls = make_calls(args.seed, "full", args.out)
    manifest = [{"tier": c.tier, "argv": c.argv, "expected_exit": c.expected_exit} for c in calls]
    (args.out / "calls.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {len(calls)} calls and their fixtures to {args.out}")


if __name__ == "__main__":
    main()
