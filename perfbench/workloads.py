"""The benchmark's workloads: seeded request streams and the checks on their outputs.

Each workload is a closed loop with one client: the next request is sent
when the previous one has returned.  Every request draws fresh parameters
from the seeded stream, so no two requests share a ``ModelParams`` and
nothing cached across requests can help; an optimisation has to win inside
one request, as it must for a user who runs the ``tc4`` command once.

The workloads follow the users' three paths.  ``build.*`` are single-time
propagator requests, where the dense operator is the product the user asked
for; ``evolve.*`` run ``tc4 evolve`` on its default grid, where 201 points
share one ``ModelParams`` and only states are needed; ``verify.run`` is the
check battery, many small mixed calls where Python overhead dominates.
Each class of request is its own workload, so that each reports the same
end-to-end metrics and a change to one route can be seen, or seen not to
matter, on every other.

Checks run outside the timed region.  A check returns ``(name, residual,
tol)`` triples; a request fails when it raised or any residual exceeds its
tolerance.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable

import numpy as np

OMEGA = 1.0
GUARD = 6  # tc4's default guard band, which every request uses
EVOLVE_CUTOFF = 32  # tc4 evolve's default cutoff


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one run: ``FULL`` for measuring, ``TINY`` for the
    warm-up before timing and for the smoke test."""

    cli_cutoff: int
    cutoff: int
    evolve_points: int
    verify_args: tuple[str, ...]


FULL = Sizes(cli_cutoff=32, cutoff=96, evolve_points=201, verify_args=())
TINY = Sizes(cli_cutoff=8, cutoff=16, evolve_points=5, verify_args=("--cutoff", "16", "--samples", "1"))


@dataclass
class Context:
    """What a request needs: the freshly imported tc4 modules, the sizes and
    a scratch directory inside the checkout for the files the CLI writes."""

    tc4: dict[str, ModuleType]
    sizes: Sizes
    tmp: Path
    bytes_written: int = 0
    repeat_checked: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    draw: Callable[[np.random.Generator], dict]
    request: Callable[[Context, dict], object]
    check: Callable[[Context, dict, object], list[tuple[str, float, float]]]


def _cli(ctx: Context, argv: list[str]) -> tuple[int, str]:
    """Run ``tc4 <argv>`` in-process, returning its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = ctx.tc4["cli"].main(argv)
        except SystemExit as stop:
            code = stop.code
    return int(code or 0), out.getvalue()


def _band(levels: int, cutoff: int) -> np.ndarray:
    """Register-major indices whose photon number lies below the guard band."""
    return np.flatnonzero(np.tile(np.arange(cutoff) < cutoff - GUARD, levels))


def _band_diff(a: np.ndarray, b: np.ndarray, band: np.ndarray) -> float:
    sub = np.ix_(band, band)
    return float(np.abs(a[sub] - b[sub]).max())


def _params(ctx: Context, cutoff: int, g: float, delta: float = OMEGA):
    tc4 = ctx.tc4
    space = tc4["fock"].FockSpace(cutoff, GUARD)
    return tc4["model"].ModelParams(omega=OMEGA, delta=delta, g=g, atoms=4, space=space)


def _draw_time_coupling(rng: np.random.Generator) -> dict:
    # t*g stays below 20: the closed form overflows past about 136 and its
    # roundoff grows as 2.6e-15 t g, far inside the 1e-9 acceptance tolerance.
    return {"t": float(rng.uniform(0.1, 10.0)), "g": float(rng.uniform(0.2, 2.0))}


def _draw_detuning(rng: np.random.Generator) -> float:
    return OMEGA + float(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0))


# --- build: single-time propagators ------------------------------------------------


def _draw_build_detuned(rng: np.random.Generator) -> dict:
    return {**_draw_time_coupling(rng), "delta": _draw_detuning(rng)}


def _request_build_cli(ctx: Context, q: dict) -> tuple[int, str]:
    argv = ["build", "--method", "both", "--cutoff", str(ctx.sizes.cli_cutoff)]
    argv += ["--t", repr(q["t"]), "--g", repr(q["g"]), "--out", str(ctx.tmp / "op.txt")]
    return _cli(ctx, argv)


_DIFF_LINE = re.compile(r"guard-band max diff closed vs oracle: (\S+)")


def _check_build_cli(ctx: Context, q: dict, result: tuple[int, str]) -> list:
    code, stdout = result
    found = _DIFF_LINE.search(stdout)
    diff = float(found.group(1)) if found else math.inf
    dim = 16 * ctx.sizes.cli_cutoff
    malformed = 0
    for variant in ("closed", "oracle"):
        path = ctx.tmp / f"op.{variant}.txt"
        if not path.is_file():
            malformed += 1
            continue
        ctx.bytes_written += path.stat().st_size
        lines = path.read_text().splitlines()
        rows = [line for line in lines if not line.startswith("#")]
        if len(rows) != dim or any(len(rows[k].split()) != 2 * dim for k in (0, -1)):
            malformed += 1
        else:
            np.array(rows[-1].split(), dtype=float)  # the last row parses as floats
        path.unlink()
    return [
        ("build_exit_code", float(code), 0.0),
        ("build_files_malformed", float(malformed), 0.0),
        ("build_closed_vs_oracle", diff, 1e-9),
    ]


def _request_build_closed(ctx: Context, q: dict) -> np.ndarray:
    return ctx.tc4["propagator"].full_propagator(q["t"], _params(ctx, ctx.sizes.cutoff, q["g"]))


def _check_build_closed(ctx: Context, q: dict, u: np.ndarray) -> list:
    cutoff = ctx.sizes.cutoff
    ref = ctx.tc4["oracle"].evolution(q["t"], _params(ctx, cutoff, q["g"]))
    return [("closed_vs_oracle", _band_diff(u, ref, _band(16, cutoff)), 1e-9)]


def _request_build_oracle(ctx: Context, q: dict) -> np.ndarray:
    p = _params(ctx, ctx.sizes.cutoff, q["g"], q["delta"])
    return ctx.tc4["oracle"].evolution(q["t"], p)


def _check_build_oracle(ctx: Context, q: dict, u: np.ndarray) -> list:
    # U^dag U = 1 on the guard band, probed with random vectors supported on
    # it: two matrix-vector products instead of a dense product.
    band = _band(16, ctx.sizes.cutoff)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(2):
        x = np.zeros(u.shape[0], dtype=complex)
        x[band] = rng.standard_normal(len(band)) + 1j * rng.standard_normal(len(band))
        y = u.conj().T @ (u @ x)
        worst = max(worst, float(np.abs(y[band] - x[band]).max() / np.abs(x).max()))
    return [("detuned_oracle_unitary", worst, 1e-10)]


# --- evolve: trajectories on tc4's default grid ------------------------------------------


def _draw_evolve(rng: np.random.Generator) -> dict:
    # |alpha| <= 1.2 keeps the state's weight on the guard band of cutoff 32
    # below 1e-23, so the closed form and the oracle agree to roundoff.
    alpha = complex(rng.uniform(0.3, 1.2) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    atomic = "".join(rng.choice(("0", "1"), size=4))
    return {"alpha": alpha, "atomic": atomic, "g": float(rng.uniform(0.5, 1.5))}


def _draw_evolve_detuned(rng: np.random.Generator) -> dict:
    return {**_draw_evolve(rng), "delta": _draw_detuning(rng)}


def _evolve_argv(ctx: Context, q: dict, method: str, out: Path) -> list[str]:
    # Defaults of tc4 evolve: cutoff 32, grid of 201 points on [0, 10].  All
    # photon columns are written so the checks can sum the distribution.
    argv = ["evolve", "--method", method, "--state", f"coherent:{q['alpha']!r}"]
    argv += ["--atomic", q["atomic"], "--g", repr(q["g"]), "--photon-cols", str(EVOLVE_CUTOFF)]
    argv += ["--t-steps", str(ctx.sizes.evolve_points), "--out", str(out)]
    if "delta" in q:
        argv += ["--delta", repr(q["delta"])]
    return argv


def _evolve_request(method: str):
    def request(ctx: Context, q: dict) -> tuple[int, Path]:
        out = ctx.tmp / f"evolve.{method}.txt"
        code, _ = _cli(ctx, _evolve_argv(ctx, q, method, out))
        return code, out

    return request


def _read_table(path: Path) -> tuple[bytes, np.ndarray]:
    raw = path.read_bytes()
    path.unlink()
    return raw, np.loadtxt(io.StringIO(raw.decode()), comments="#", ndmin=2)


def _read_output(ctx: Context, path: Path) -> tuple[bytes, np.ndarray]:
    """Read and remove the table a request wrote, counting its bytes."""
    raw, table = _read_table(path)
    ctx.bytes_written += len(raw)
    return raw, table


def _table_residuals(ctx: Context, q: dict, table: np.ndarray) -> list:
    """Physics every trajectory table must satisfy, whatever the method."""
    points, cutoff = ctx.sizes.evolve_points, EVOLVE_CUTOFF
    if table.shape != (points, 2 + cutoff):
        return [("evolve_table_shape", 1.0, 0.0)]
    times, inversion, probs = table[:, 0], table[:, 1], table[:, 2:]
    k = np.arange(cutoff)
    excitation = inversion + probs @ k
    log_weight = 2 * k * np.log(abs(q["alpha"])) - np.array([math.lgamma(j + 1) for j in k])
    poisson = np.exp(log_weight - log_weight.max())
    poisson /= poisson.sum()
    start = sum(0.5 if bit == "1" else -0.5 for bit in q["atomic"])
    return [
        ("evolve_grid", float(np.abs(times - np.linspace(0.0, 10.0, points)).max()), 1e-15),
        ("evolve_initial_row", max(abs(inversion[0] - start), float(np.abs(probs[0] - poisson).max())), 1e-12),
        ("evolve_norm_conserved", float(np.abs(probs.sum(axis=1) - 1.0).max()), 1e-9),
        ("evolve_excitation_conserved", float(np.abs(excitation - excitation[0]).max()), 1e-9),
    ]


def _check_evolve_closed(ctx: Context, q: dict, result: tuple[int, Path]) -> list:
    code, path = result
    _, table = _read_output(ctx, path)
    ref_code, ref_path = _evolve_request("oracle")(ctx, q)
    _, ref = _read_table(ref_path)
    agree = float(np.abs(table - ref).max()) if table.shape == ref.shape else math.inf
    return [
        ("evolve_exit_code", float(max(code, ref_code)), 0.0),
        *_table_residuals(ctx, q, table),
        ("evolve_closed_vs_oracle", agree, 1e-9),
    ]


def _check_evolve_oracle(ctx: Context, q: dict, result: tuple[int, Path]) -> list:
    code, path = result
    raw, table = _read_output(ctx, path)
    residuals = [("evolve_exit_code", float(code), 0.0), *_table_residuals(ctx, q, table)]
    if not ctx.repeat_checked:
        # Once a run: the same command again must give the same bytes.
        ctx.repeat_checked = True
        again_code, again = _evolve_request("oracle")(ctx, q)
        same = again_code == 0 and again.read_bytes() == raw
        again.unlink(missing_ok=True)
        residuals.append(("evolve_repeat_bytes_differ", 0.0 if same else 1.0, 0.0))
    return residuals


def _check_evolve_detuned(ctx: Context, q: dict, result: tuple[int, Path]) -> list:
    code, path = result
    _, table = _read_output(ctx, path)
    return [("evolve_exit_code", float(code), 0.0), *_table_residuals(ctx, q, table)]


# --- verify: the check battery ---------------------------------------------------------


def _draw_verify(rng: np.random.Generator) -> dict:
    return {"seed": int(rng.integers(0, 2**31 - 1))}


def _request_verify(ctx: Context, q: dict) -> tuple[int, str]:
    return _cli(ctx, ["verify", "--seed", str(q["seed"]), *ctx.sizes.verify_args])


_VERIFY_LINE = re.compile(r"^(\S+) residual=\S+ tol=\S+ (PASS|FAIL)$", re.MULTILINE)


def _check_verify(ctx: Context, q: dict, result: tuple[int, str]) -> list:
    code, stdout = result
    status = dict(_VERIFY_LINE.findall(stdout))
    floors = ("printed_pairing_expected_fail", "printed_survival_expected_fail")
    return [
        ("verify_exit_code", float(code), 0.0),
        ("verify_checks_missing", float(abs(23 - len(status))), 0.0),
        ("verify_checks_failed", float(sum(s != "PASS" for s in status.values())), 0.0),
        ("verify_floors_not_passed", float(sum(status.get(f) != "PASS" for f in floors)), 0.0),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "build.cli_c32",
            "fresh (t, g) each request, so no cache helps; formatting two 12.7 MB text operators is ~90% of the time, so only the output path moves it",
            _draw_time_coupling,
            _request_build_cli,
            _check_build_cli,
        ),
        Workload(
            "build.closed_c96",
            "fresh (t, g) each request; the dense basis change is ~95% of the time and the 37.7 MB operator outgrows L2: where a faster closed form shows",
            _draw_time_coupling,
            _request_build_closed,
            _check_build_closed,
        ),
        Workload(
            "build.oracle_c96",
            "detuned oracle, fresh (t, g, delta) each request: runs no closed-form code, so closed-form work must leave it unchanged and a cache must not slow it",
            _draw_build_detuned,
            _request_build_oracle,
            _check_build_oracle,
        ),
        Workload(
            "evolve.closed",
            "201 time points share one ModelParams and need only states: where reuse across time points and a faster closed form show",
            _draw_evolve,
            _evolve_request("closed"),
            _check_evolve_closed,
        ),
        Workload(
            "evolve.oracle",
            "resonant oracle trajectory, 36 sector eigendecompositions per point: where a spectral cache per ModelParams shows",
            _draw_evolve,
            _evolve_request("oracle"),
            _check_evolve_oracle,
        ),
        Workload(
            "evolve.detuned",
            "detuned oracle trajectory, the path only the oracle serves: a spectral cache must help it as it helps the resonant one",
            _draw_evolve_detuned,
            _evolve_request("oracle"),
            _check_evolve_detuned,
        ),
        Workload(
            "verify.run",
            "the check battery: thousands of small calls at cutoffs 10 to 40, where Python overhead, not BLAS, dominates",
            _draw_verify,
            _request_verify,
            _check_verify,
        ),
    )
}
