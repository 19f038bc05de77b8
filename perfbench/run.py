"""Benchmark of the tc4 package: one workload per run, untraced or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload build.closed_c96 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload in turn from this one process.  The
benchmark imports ``tc4`` from the checkout's ``src/`` and exits with code 2,
printing no result, when that is missing.  It pins BLAS and OpenMP to one
thread before numpy loads, imports tc4 and warms it up on a tiny request
five times (``setup_s`` is the median), then sends requests from the
seeded stream until their summed time reaches ``--seconds``.  Each output
is checked outside the timed region.

``--trace 0`` reports the end-to-end metrics: ``request_ms`` (median time
of one request), ``setup_s`` and ``peak_rss_mb`` (the process's high-water
mark, checks included).  ``--trace 1`` alternates untraced and traced
requests and reports the per-layer metrics of ``tracing.summarize`` as
means per traced request, and the tracing overhead as the median traced
minus the median untraced request time (a median drops the first, cold
request).  Counts marked "computed" in
BENCHMARK.json are derived from array sizes and repeat exactly.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
environment, the worst residual of every check and each metric's sample
count.  ``--smoke`` runs the tiny warm-up sizes instead, for a quick test.
"""

import os

# Thread pools are sized when numpy loads.  One thread makes a timing
# independent of how many cores happen to be free.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench-tmp"
MODULES = ("cli", "verify", "dynamics", "propagator", "oracle", "model", "spins", "fock", "linalg")
SETUP_REPEATS = 5
# Stop sending requests after this much wall time, whatever --seconds says,
# so that a run with its checks ends well within three minutes.
WALL_LIMIT_S = 120.0

END_TO_END = (("request_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("propagator.interaction_propagator.self_ms", "ms"),
    ("propagator.basis_change.flop", "flop"),
    ("propagator.basis_change.bytes", "B"),
    ("propagator.useful_entry_ratio", "ratio"),
    ("propagator.spin2_amplitudes.calls", "count"),
    ("propagator.spin2_amplitudes.self_ms", "ms"),
    ("propagator.spin2_amplitudes.calls_per_block", "calls/block"),
    ("propagator.exp_spin2_block.self_ms", "ms"),
    ("propagator.exp_spin1_block.ms", "ms"),
    ("propagator.full_propagator.self_ms", "ms"),
    ("fock.number_fn_term.calls", "count"),
    ("fock.number_fn_term.ms", "ms"),
    ("fock.ladder.calls", "count"),
    ("fock.ladder.ms", "ms"),
    ("linalg.expm_hermitian.calls", "count"),
    ("linalg.expm_hermitian.ms", "ms"),
    ("linalg.expm_hermitian.calls_per_op", "calls/op"),
    ("oracle.exp_in_sectors.self_ms", "ms"),
    ("oracle.sectors.ms", "ms"),
    ("oracle.evolution.self_ms", "ms"),
    ("model.hamiltonian.calls", "count"),
    ("model.hamiltonian.ms", "ms"),
    ("model.interaction.calls", "count"),
    ("model.interaction.ms", "ms"),
    ("model.multiplet_interaction.calls", "count"),
    ("model.multiplet_interaction.ms", "ms"),
    ("model.transform_t.calls", "count"),
    ("model.transform_t.ms", "ms"),
    ("spins.collective.calls", "count"),
    ("spins.collective.ms", "ms"),
    ("model.block_decompose.ms", "ms"),
    ("verify.run_checks.self_ms", "ms"),
    ("dynamics.trajectory.self_ms", "ms"),
    ("dynamics.operators_per_point", "ops/point"),
    ("cli.self_ms", "ms"),
    ("cli.bytes_written", "B"),
    ("trace.untraced_ms", "ms"),
    ("trace.traced_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.layer_self_sum_ms", "ms"),
    ("trace.spans", "count"),
)


def load_tc4() -> dict:
    """Import tc4 afresh from the checkout and return its modules by name."""
    for name in [m for m in sys.modules if m == "tc4" or m.startswith("tc4.")]:
        del sys.modules[name]
    package = importlib.import_module("tc4")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"tc4 was imported from {package.__file__}, not from {SRC}")
    return {name: importlib.import_module(f"tc4.{name}") for name in MODULES}


def environment(seed: int) -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line and ".so" in line})
        for lib in libs:
            getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = str(getter())
    except OSError:
        pass
    pins = " ".join(f"{v}={os.environ[v]}" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return (
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"{blas.get('name')} {blas.get('version')} (BLAS threads {threads}), {pins}, "
        f"nproc {os.cpu_count()}, seed {seed}"
    )


class Run:
    """One workload measured in this process: set-up, requests, checks."""

    def __init__(self, workload: workloads.Workload, seed: int, sizes: workloads.Sizes):
        self.workload = workload
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failed = 0
        self.worst: dict[str, tuple[float, float]] = {}
        self.setup_times: list[float] = []
        warm_rng = np.random.default_rng([seed, 1])
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            modules = load_tc4()
            warm = workloads.Context(modules, workloads.TINY, TMP)
            workload.request(warm, workload.draw(warm_rng))
            self.setup_times.append(time.perf_counter() - start)
        self.ctx = workloads.Context(modules, sizes, TMP)

    def one_request(self, tracer: tracing.Tracer | None = None) -> tuple[float, int]:
        """Send one request and check its output; return its time and the
        bytes its output files hold."""
        query = self.workload.draw(self.rng)
        self.attempted += 1
        before = self.ctx.bytes_written
        ok = True
        start = time.perf_counter()
        try:
            if tracer is None:
                result = self.workload.request(self.ctx, query)
            else:
                with tracer:
                    result = self.workload.request(self.ctx, query)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        elapsed = time.perf_counter() - start
        if ok:
            try:
                for name, residual, tol in self.workload.check(self.ctx, query, result):
                    worst, _ = self.worst.get(name, (-1.0, tol))
                    self.worst[name] = (max(worst, residual), tol)
                    ok = ok and residual <= tol
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
        if not ok:
            self.failed += 1
            print(f"# request {self.attempted} failed: {query}", file=sys.stderr)
        return elapsed, self.ctx.bytes_written - before

    def untraced(self, seconds: float) -> dict:
        times: list[float] = []
        wall = time.perf_counter()
        while not times or (sum(times) < seconds and time.perf_counter() - wall < WALL_LIMIT_S):
            times.append(self.one_request()[0])
        return {"request_ms": (1e3 * statistics.median(times), len(times))}

    def traced(self, seconds: float) -> dict:
        plain: list[float] = []
        traced: list[float] = []
        layers: list[dict] = []
        wall = time.perf_counter()
        while not plain or not traced or (
            sum(plain) + sum(traced) < seconds and time.perf_counter() - wall < WALL_LIMIT_S
        ):
            if len(traced) < len(plain):
                tracer = tracing.Tracer(self.ctx.tc4)
                elapsed, written = self.one_request(tracer)
                traced.append(elapsed)
                layers.append({**tracing.summarize(tracer.spans), "cli.bytes_written": written})
            else:
                plain.append(self.one_request()[0])
        n = len(layers)
        out = {name: (statistics.fmean(d[name] for d in layers), n) for name, _ in PER_LAYER if not name.startswith("trace.")}
        untraced_ms, traced_ms = 1e3 * statistics.median(plain), 1e3 * statistics.median(traced)
        out["trace.untraced_ms"] = (untraced_ms, len(plain))
        out["trace.traced_ms"] = (traced_ms, n)
        out["trace.overhead_ms"] = (traced_ms - untraced_ms, n)
        out["trace.layer_self_sum_ms"] = (statistics.median(d["trace.layer_self_sum_ms"] for d in layers), n)
        out["trace.spans"] = (statistics.fmean(d["trace.spans"] for d in layers), n)
        print(f"# {self.workload.name} request ms untraced {[round(1e3 * t, 1) for t in plain]}, traced {[round(1e3 * t, 1) for t in traced]}")
        return out

    def report(self, trace: bool, seconds: float) -> dict:
        """Measure, print one line per check and metric, return the metrics."""
        if trace:
            measured = self.traced(seconds)
            units = dict(PER_LAYER)
        else:
            measured = self.untraced(seconds)
            measured["setup_s"] = (statistics.median(self.setup_times), len(self.setup_times))
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            measured["peak_rss_mb"] = (peak_kib / 1024.0, 1)
            units = dict(END_TO_END)
        name = self.workload.name
        for check, (worst, tol) in sorted(self.worst.items()):
            print(f"# {name} check {check}: worst {worst:.3e}, tol {tol:.1e}")
        for metric, (value, samples) in measured.items():
            print(f"{name} {metric} {value!r} {units[metric]} (n={samples})")
        share = self.failed / self.attempted
        print(f"{name} failed_share {share!r} ({self.failed} of {self.attempted})")
        if trace:
            covered = measured["trace.layer_self_sum_ms"][0] / measured["trace.untraced_ms"][0]
            print(f"# {name} layer self times sum to {covered:.3f} of the untraced request time")
        return {metric: {"value": value, "unit": units[metric]} for metric, (value, _) in measured.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for a quick test")
    args = parser.parse_args(argv)

    if not (SRC / "tc4" / "__init__.py").is_file():
        print(f"error: no tc4 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        load_tc4()
    except ImportError as err:
        print(f"error: cannot import tc4: {err}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    sizes = workloads.TINY if args.smoke else workloads.FULL
    print(f"# tc4 benchmark: workload {args.workload}, seconds {args.seconds}, trace {args.trace}")
    print(f"# env: {environment(args.seed)}")
    metrics: dict = {}
    attempted = failed = 0
    TMP.mkdir(exist_ok=True)
    try:
        for name in names:
            run = Run(workloads.WORKLOADS[name], args.seed, sizes)
            measured = run.report(bool(args.trace), args.seconds)
            attempted += run.attempted
            failed += run.failed
            if len(names) == 1:
                metrics = measured
            else:
                metrics.update({f"{name}.{m}": v for m, v in measured.items()})
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
