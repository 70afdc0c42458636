"""leafkit benchmark.

    python3 bench/run.py --workload orbit-forms --seed 1 --seconds 30 --trace 0

Run from the root of a leafkit checkout; the program is imported from
./src.  All inputs are generated from --seed.  One round runs each tier
of the workload a fixed number of times, and a run makes a number of
rounds that depends only on --seconds, so every run attempts the same
operations.  Every output is checked against an independent computation.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
runs one untraced and one traced round and reports the per-layer
metrics: the self time and call count of each traced <module>.<function>
per traced round, tracemalloc peaks, and the tracing overhead.  The spans
go to bench/out/.  --smoke runs tiny inputs for one round, to show
quickly that every check still passes.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the
environment, the per-tier counts, the calibration and the raw figures.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads, for this process and
# for every leafkit child, which inherits the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = {"orbit-forms": "orbit_forms", "section-large": "section_large", "cli-oneshot": "cli_oneshot"}
SETUP_REPEATS = 3
CAL_EVERY_S = 0.5
# fastest time of Calibration.kernel on the 2-vCPU host (OpenBLAS 0.3.31,
# one thread) where the benchmark was defined
CAL_REF_S = 0.0046
MIN_ROUNDS = 2  # one round on each CPU of a 2-CPU host
OUT_DIR = Path("bench") / "out"


class Calibration:
    """A fixed CPU kernel that does not touch leafkit (a 64 x 64 eigh, a
    Python loop over 8 x 8 products, a JSON round trip of 4000 floats),
    timed at most every CAL_EVERY_S between operations.

    On a shared host the same computation runs up to 1.8x slower for
    minutes at a time.  Throughput is multiplied by factor = the kernel's
    fastest time in the run / CAL_REF_S, so that a run in a slow phase
    reads like one in a fast phase.  The raw throughputs go to the info
    line.

    The slow phases reach interpreter-bound work (the kernel's loop and
    JSON, calls on n=8 to n=32 inputs, leafkit processes) far more than
    LAPACK-bound work: in runs with factor 1.5 to 1.9 the n=32 and n=256
    tiers ran at their usual speed.  So the small tiers are scaled, and
    a large tier only where its workload sets large_scaled (cli-oneshot,
    whose n=256 calls are leafkit processes parsing JSON).  Set-up time
    is not scaled: the factor did not narrow its spread."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(12345)
        h = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.h = h + h.conj().T
        self.mats = [rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)) for _ in range(100)]
        self.floats = rng.standard_normal(4000).tolist()
        self.kernel()  # the first call pays one-off set-up; it is not a sample
        self.samples: list[float] = []
        self.last = -CAL_EVERY_S

    def kernel(self) -> None:
        import numpy as np

        np.linalg.eigh(self.h)
        s = np.zeros((8, 8), dtype=np.complex128)
        for m in self.mats:
            s = s + m @ m.conj().T
        json.loads(json.dumps(self.floats))

    def tick(self) -> None:
        if time.perf_counter() - self.last >= CAL_EVERY_S:
            t0 = time.perf_counter()
            self.kernel()
            self.last = time.perf_counter()
            self.samples.append(self.last - t0)

    @property
    def factor(self) -> float:
        return min(self.samples) / CAL_REF_S


@dataclass
class TierCount:
    attempted: int = 0
    failed: int = 0


@dataclass
class Tally:
    tiers: dict = field(default_factory=lambda: {"small": TierCount(), "large": TierCount()})
    errors: list = field(default_factory=list)  # wrong outputs
    failures: list = field(default_factory=list)  # operations that did not complete
    calibration: Calibration = field(default_factory=Calibration)

    @property
    def correct(self) -> bool:
        return not self.errors


@dataclass
class Timings:
    """Wall time of every repetition of every operation, keyed by tier
    and position in the tier, plus how many rounds ran."""

    samples: dict = field(default_factory=dict)
    rounds: int = 0
    wall_s: float = 0.0  # wall time of all rounds

    def ops_per_s(self, tier: str, count: TierCount) -> float:
        """Operations completed per second, each operation timed at its
        fastest repetition in the run.  Time-varying interference from
        other tenants of a shared host slows some repetitions by up to 2x;
        the fastest repetition is the figure that repeats from run to run."""
        fastest = [min(v) for (t, _), v in self.samples.items() if t == tier]
        return len(fastest) * (1.0 - count.failed / count.attempted) / sum(fastest)


def run_op(op, tier: TierCount, tally: Tally, tracer) -> float:
    """Call, time and check one operation; returns its wall time."""
    from inputs import OpFailed

    tier.attempted += 1
    span = tracer.span(op.name, tracer.new_op()) if tracer else nullcontext()
    t0 = time.perf_counter()
    try:
        with span:
            result = op.call()
    except Exception as exc:  # a failed operation is counted, the run goes on
        tier.failed += 1
        tally.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        tally.calibration.tick()
        return dt
    dt = time.perf_counter() - t0
    try:
        op.check(result)
    except OpFailed as exc:
        tier.failed += 1
        tally.failures.append(f"{op.name}: {exc}")
    except Exception as exc:  # CheckFailed, or a check that could not run
        tally.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
    tally.calibration.tick()
    return dt


def run_round(wl, tally: Tally, timings: Timings, tracer=None) -> None:
    """One round: small_repeats passes over the small tier, spread evenly
    between the large_repeats passes over the large tier's operations.

    The host's slow phases last seconds to minutes.  Run back to back,
    the small passes would all fall into one stretch of the round; spread
    out, their fastest repetitions sample the whole run, as the
    calibration kernel does."""
    timings.rounds += 1
    t0 = time.perf_counter()
    large = [(i, op) for _ in range(wl.large_repeats) for i, op in enumerate(wl.large)]

    def run_tier(tier, indexed_ops):
        with tracer.span(f"bench.{tier}") if tracer else nullcontext():
            for i, op in indexed_ops:
                timings.samples.setdefault((tier, i), []).append(run_op(op, tally.tiers[tier], tally, tracer))

    with tracer.span("bench.round") if tracer else nullcontext():
        passes = 0
        for j, large_op in enumerate(large):
            while passes < wl.small_repeats and passes * len(large) <= j * wl.small_repeats:
                run_tier("small", enumerate(wl.small))
                passes += 1
            run_tier("large", [large_op])
        for _ in range(passes, wl.small_repeats):  # more small passes than large operations
            run_tier("small", enumerate(wl.small))
    timings.wall_s += time.perf_counter() - t0


def run_rounds(wl, tally: Tally, seconds: float, smoke: bool, tracer=None) -> tuple[Timings, Timings]:
    """Whole rounds: seconds / wl.round_s of them, at least MIN_ROUNDS (one
    in a smoke run).  With a tracer, one untraced and one traced round.

    The count depends on --seconds only, not on how fast this run goes:
    the fastest of 2 repetitions reads slower than the fastest of 3, so a
    count that followed the clock would spread the figures.

    Successive rounds are pinned to successive CPUs of the process's
    affinity set (leafkit children inherit the pin).  On a shared host one
    virtual CPU can run ~1.8x slower than the other for a whole run; with
    the rounds spread over the CPUs, each operation's fastest repetition
    comes from the faster one."""
    plain, traced = Timings(), Timings()
    rounds = 1 if smoke or tracer else max(MIN_ROUNDS, round(seconds / wl.round_s))
    cpus = sorted(os.sched_getaffinity(0))
    try:
        for r in range(rounds):
            os.sched_setaffinity(0, {cpus[r % len(cpus)]})
            run_round(wl, tally, plain)
            if tracer is not None:
                run_round(wl, tally, traced, tracer)
    finally:
        os.sched_setaffinity(0, cpus)
    return plain, traced


def memory_pass(wl, tally: Tally) -> dict[str, float]:
    """One pass over both tiers; the operations marked peak run under
    tracemalloc.  Returns the largest peak per layer in MiB."""
    from inputs import OpFailed

    peaks: dict[str, float] = {}
    ops = wl.small + wl.large
    if not any(op.peak for op in ops):
        return peaks
    for op in ops:
        if op.peak:
            tracemalloc.start()
        try:
            result = op.call()
            if op.peak:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                peaks[op.name] = max(peaks.get(op.name, 0.0), peak)
            op.check(result)
        except OpFailed:
            pass  # counted in the rounds
        except Exception as exc:  # CheckFailed, or a call or check that could not run
            tally.errors.append(f"{op.name} (memory pass): {type(exc).__name__}: {exc}")
        finally:
            if op.peak:
                tracemalloc.stop()
    return peaks


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import numpy as np

    libs = sorted(Path(np.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*"))
    for lib in libs:
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "blas_threads_runtime": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="leafkit benchmark (see bench/README.md)")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one round")
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "leafkit" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("bench: run from the root of a leafkit checkout (./src/leafkit and ./BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))

    import leafkit

    module = importlib.import_module(WORKLOADS[args.workload])
    if Path(leafkit.__file__).resolve().parent != (src / "leafkit").resolve():
        print(f"bench: leafkit was imported from {leafkit.__file__}, not from ./src", file=sys.stderr)
        return 2

    size = "smoke" if args.smoke else "full"
    out_dir = root / OUT_DIR
    workdir = out_dir / f"work-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    tally = Tally()
    try:
        setup_times = []
        # the imports are timed in a fresh interpreter each time, since this
        # process has already paid them once
        import_env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).resolve().parent)]))
        import_code = f"import leafkit, {WORKLOADS[args.workload]}"
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            wl = None  # drop the previous inputs before making new ones
            shutil.rmtree(workdir, ignore_errors=True)
            t1 = time.perf_counter()
            subprocess.run([sys.executable, "-c", import_code], env=import_env, check=True, timeout=60)
            wl = module.build(args.seed, size, workdir)
            wl.warm_up()
            setup_times.append(time.perf_counter() - t1)

        if not args.trace:
            timings, _ = run_rounds(wl, tally, args.seconds, args.smoke)
            usage = resource.RUSAGE_CHILDREN if args.workload == "cli-oneshot" else resource.RUSAGE_SELF
            raw = {
                "small_ops_per_s": timings.ops_per_s("small", tally.tiers["small"]),
                "large_ops_per_s": timings.ops_per_s("large", tally.tiers["large"]),
            }
            values = {
                "setup_s": statistics.median(setup_times),
                "small_ops_per_s": raw["small_ops_per_s"] * tally.calibration.factor,
                "large_ops_per_s": raw["large_ops_per_s"] * (tally.calibration.factor if wl.large_scaled else 1.0),
                "peak_rss_mib": resource.getrusage(usage).ru_maxrss / 1024.0,
            }
            declared = spec["end_to_end"]
        else:
            from tracing import Tracer, span_cost

            tracer = Tracer()
            extra: dict[str, tuple[float, int]] = {}
            timings, traced = run_rounds(wl, tally, args.seconds, args.smoke, tracer)
            # the tracer's own cost: its spans in the traced rounds times the
            # cost of one empty span, against the untraced rounds' wall time
            overhead_pct = 100.0 * (span_cost() * len(tracer.spans) / traced.rounds) / (timings.wall_s / timings.rounds)
            if wl.layer_pass is not None:
                for _ in range(traced.rounds):
                    for name, (busy, calls) in wl.layer_pass(tracer, tally.errors).items():
                        b, c = extra.get(name, (0.0, 0))
                        extra[name] = (b + busy, c + calls)
            peaks = memory_pass(wl, tally)
            tracer.write(out_dir / f"spans-{tag}.jsonl")
            layers = {**tracer.self_times(), **extra}
            values = {}
            for m in spec["per_layer"]:
                layer, kind = m["name"].rsplit(".", 1)
                if m["name"] == "trace.overhead_pct":
                    values[m["name"]] = overhead_pct
                elif kind == "peak_mib":
                    values[m["name"]] = peaks.get(layer, 0.0)
                else:
                    busy, calls = layers.get(layer, (0.0, 0))
                    per_round = calls / traced.rounds
                    values[m["name"]] = busy / traced.rounds if kind == "busy_s" else (
                        int(per_round) if per_round.is_integer() else per_round)
            declared = spec["per_layer"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted = sum(t.attempted for t in tally.tiers.values())
    failed = sum(t.failed for t in tally.tiers.values())
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "rounds": timings.rounds,
        "setup_s_samples": setup_times,
        "calibration": {"factor": tally.calibration.factor, "samples": len(tally.calibration.samples),
                        "reference_s": CAL_REF_S},
        "raw": raw if not args.trace else None,
        "tiers": {k: vars(v) for k, v in tally.tiers.items()},
        "errors": tally.errors[:20],
        "failures": sorted(set(tally.failures)),
        "environment": environment(),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = {"small": wl.small, "large": wl.large}
    samples = {f"{t}:{i}:{ops[t][i].name}": v for (t, i), v in timings.samples.items()}
    result = {**info, "metrics": metrics, "op_seconds": samples}
    (out_dir / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    for e in tally.errors[:20]:
        print(f"bench: check failed: {e}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({"correct": tally.correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
