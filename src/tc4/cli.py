"""Command line front end: build propagators, evolve states, run checks.

Output files are plain text with a commented header naming every
parameter, all floats printed at full precision, so a fixed configuration
reproduces byte-identical files.  One writer streams both kinds of file a
row at a time; it prints each entry as ``f"{x:.17e}"`` does, but writes an
exact zero as a constant chosen by its sign bit instead of formatting it
(most operator entries are zeros, since excitation number is conserved).  Exit
codes: 0 success, 1 verification failure, 2 configuration error, an
unwritable output file or a size beyond memory.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, oracle
from .dynamics import coherent_state, product_state, trajectory
from .fock import FockSpace, safe_indices
from .linalg import op_norm_diff
from .model import ModelParams
from .propagator import full_propagator
from .spins import AtomRegister
from .verify import VerifyConfig, format_result, run_checks

__all__ = ["main", "RunConfig"]


@dataclass(frozen=True)
class RunConfig:
    """Parsed parameters shared by the build and evolve commands."""

    atoms: int
    cutoff: int
    guard: int
    omega: float
    delta: float
    g: float
    t: float
    method: str
    seed: int

    @property
    def space(self) -> FockSpace:
        return FockSpace(self.cutoff, self.guard)

    @property
    def params(self) -> ModelParams:
        return ModelParams(
            omega=self.omega, delta=self.delta, g=self.g, atoms=self.atoms, space=self.space
        )


def _fmt(x: float) -> str:
    return f"{x:.17e}"


def _bounded(kind: type, low: float = -math.inf):
    """Argument type: ``kind(text)``, refused unless finite and at least ``low``."""

    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and value >= low):
            bound = "finite" if low == -math.inf else f"at least {low}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its parse errors
    return parse


_FINITE = _bounded(float)


def _common_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--atoms", type=int, default=4, choices=range(1, 5), help="register size")
    sub.add_argument("--cutoff", type=int, default=32, help="photon numbers retained")
    sub.add_argument("--guard", type=int, default=6, help="guard band width")
    sub.add_argument("--omega", type=_FINITE, default=1.0, help="mode frequency")
    sub.add_argument(
        "--delta", type=_FINITE, default=None, help="atomic splitting (default: equal to omega)"
    )
    sub.add_argument("--g", type=_FINITE, default=1.0, help="coupling strength")
    sub.add_argument(
        "--method",
        choices=("closed", "oracle", "both"),
        default="closed",
        help="closed form, sector oracle, or both with a diff summary",
    )
    sub.add_argument("--seed", type=int, default=1234, help="seed recorded in output headers")
    sub.add_argument("--out", required=True, help="output file path")


def _run_config(parser: argparse.ArgumentParser, args: argparse.Namespace, t: float) -> RunConfig:
    delta = args.omega if args.delta is None else args.delta
    if args.method in ("closed", "both") and (args.atoms != 4 or delta != args.omega):
        parser.error(
            "method=closed needs four atoms at resonance (delta equal to omega); "
            "use --method oracle"
        )
    try:
        cfg = RunConfig(
            atoms=args.atoms,
            cutoff=args.cutoff,
            guard=args.guard,
            omega=args.omega,
            delta=delta,
            g=args.g,
            t=t,
            method=args.method,
            seed=args.seed,
        )
        cfg.space
    except ValueError as err:
        parser.error(str(err))
    return cfg


def _header(kind: str, cfg: RunConfig, extra: list[str]) -> list[str]:
    lines = [
        f"# tc4 {kind} v{__version__}",
        f"# atoms {cfg.atoms}",
        f"# cutoff {cfg.cutoff}",
        f"# guard {cfg.guard}",
        f"# omega {_fmt(cfg.omega)}",
        f"# delta {_fmt(cfg.delta)}",
        f"# g {_fmt(cfg.g)}",
        f"# method {cfg.method}",
        f"# seed {cfg.seed}",
    ]
    return lines + extra


def _write_table(path: Path, header: list[str], table: np.ndarray) -> None:
    """Write ``header``, then the real 2-D ``table`` one formatted row at a time.

    Each entry reads as ``_fmt`` prints it, the sign of zero included.  A
    row becomes one ``%`` template in which an exact zero is literal text
    picked by its sign bit and every other entry a ``%.17e`` slot, so only
    nonzero entries are formatted.
    """
    cells = np.array(
        ["0.00000000000000000e+00", "-0.00000000000000000e+00", "%.17e", "%.17e"], dtype=object
    )
    nonzero = table != 0
    codes = 2 * nonzero.astype(np.uint8) + np.signbit(table)  # indices into cells
    with path.open("w") as out:
        out.write("\n".join(header) + "\n")
        for row, mask, code in zip(table, nonzero, codes):
            template = " ".join(cells[code].tolist())
            out.write(template % tuple(row[mask].tolist()) + "\n")


def _split_out(out: str, variant: str) -> Path:
    p = Path(out)
    return p.with_name(f"{p.stem}.{variant}{p.suffix}")


def _build_u(cfg: RunConfig, variant: str) -> np.ndarray:
    if variant == "closed":
        return full_propagator(cfg.t, cfg.params)
    return oracle.evolution(cfg.t, cfg.params)


def cmd_build(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    cfg = _run_config(parser, args, args.t)
    both = cfg.method == "both"
    try:
        ops = {v: _build_u(cfg, v) for v in (("closed", "oracle") if both else (cfg.method,))}
        for variant, u in ops.items():
            path = _split_out(args.out, variant) if both else Path(args.out)
            rows, cols = u.shape
            extra = [f"# t {_fmt(cfg.t)}", f"# variant {variant}", f"# rows {rows}", f"# cols {cols}"]
            header = _header("operator", cfg, extra)
            # The float view alternates real and imaginary parts along each row.
            _write_table(path, header, np.ascontiguousarray(u).view(np.float64))
            print(f"wrote {path}")
        if both:
            band = safe_indices(cfg.space, AtomRegister(cfg.atoms).levels)
            diff = op_norm_diff(ops["closed"], ops["oracle"], band)
            print(f"guard-band max diff closed vs oracle: {diff:.3e}")
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


def _parse_atomic(parser: argparse.ArgumentParser, text: str, reg: AtomRegister) -> int:
    if text == "all-up":
        return 0
    if text == "all-down":
        return reg.levels - 1
    if len(text) == reg.n and set(text) <= {"0", "1"}:
        index = 0
        for ch in text:
            index = (index << 1) | (0 if ch == "1" else 1)
        return index
    parser.error(
        f"atomic state must be all-up, all-down, or a {reg.n}-character string of 0/1 "
        "(1 marks an excited atom)"
    )
    raise AssertionError("unreachable")


def _parse_field(
    parser: argparse.ArgumentParser, text: str, space: FockSpace
) -> np.ndarray:
    try:
        if text == "vacuum":
            return coherent_state(0.0, space)
        if text.startswith("coherent:"):
            return coherent_state(complex(text.split(":", 1)[1]), space)
        if text.startswith("basis:"):
            k = int(text.split(":", 1)[1])
            if not 0 <= k < space.cutoff:
                raise ValueError(f"basis index {k} outside cutoff {space.cutoff}")
            amps = np.zeros(space.cutoff, dtype=complex)
            amps[k] = 1.0
            return amps
        if text.startswith("file:"):
            table = np.loadtxt(text.split(":", 1)[1], ndmin=2)
            if table.shape != (space.cutoff, 2):
                raise ValueError(
                    f"amplitude file must have {space.cutoff} rows of 're im', "
                    f"got shape {table.shape}"
                )
            # A view, not re + 1j * im: 1j * inf would put a nan in the real part.
            return np.ascontiguousarray(table).view(complex)[:, 0]
    except (ValueError, OSError) as err:
        parser.error(f"bad --state: {err}")
    parser.error("state must be vacuum, coherent:A, basis:K, or file:PATH")
    raise AssertionError("unreachable")


def cmd_evolve(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.t is not None:
        times = np.array([args.t])
        t_label = args.t
    else:
        times = np.linspace(0.0, args.t_max, args.t_steps)
        t_label = args.t_max
    cfg = _run_config(parser, args, float(t_label))
    reg = AtomRegister(cfg.atoms)
    field = _parse_field(parser, args.state, cfg.space)
    index = _parse_atomic(parser, args.atomic, reg)
    try:
        initial = product_state(index, field, reg, cfg.space)
    except ValueError as err:
        parser.error(f"bad --state: {err}")
    cols = min(args.photon_cols, cfg.cutoff)

    def table(method: str) -> np.ndarray:
        traj = trajectory(cfg.params, initial, times, method=method)
        return np.column_stack([traj.times, traj.inversion, traj.photon[:, :cols]])

    extra = [
        f"# state {args.state}",
        f"# atomic {args.atomic}",
        f"# points {len(times)}",
        "# columns t inversion " + " ".join(f"p{k}" for k in range(cols)),
    ]
    both = cfg.method == "both"
    try:
        tables = {v: table(v) for v in (("closed", "oracle") if both else (cfg.method,))}
        for variant, data in tables.items():
            path = _split_out(args.out, variant) if both else args.out
            header = _header("trajectory", cfg, [f"# variant {variant}", *extra])
            _write_table(Path(path), header, data)
            print(f"wrote {path}")
        if both:
            diff = float(np.abs(tables["closed"] - tables["oracle"]).max())
            print(f"max cell diff closed vs oracle: {diff:.3e}")
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


def cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    try:
        cfg = VerifyConfig(
            cutoff=args.cutoff,
            guard=args.guard,
            samples=args.samples,
            seed=args.seed,
            tol_override=args.tol_override,
        )
    except ValueError as err:
        parser.error(str(err))
    results = run_checks(cfg)
    for result in results:
        print(format_result(result))
    failed = sum(not r.passed for r in results)
    print(f"verify: {len(results)} checks, {failed} failed")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tc4",
        description="Four-atom Tavis-Cummings propagators, oracle checks, and observables.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="write a propagator matrix to a file")
    _common_arguments(build)
    build.add_argument("--t", type=_FINITE, default=1.0, help="evolution time")

    ev = commands.add_parser("evolve", help="evolve a state and tabulate observables")
    _common_arguments(ev)
    ev.add_argument("--t", type=_FINITE, default=None, help="single evolution time")
    ev.add_argument("--t-max", type=_FINITE, default=10.0, help="end of the time grid")
    ev.add_argument("--t-steps", type=_bounded(int, 1), default=201, help="points on the time grid")
    ev.add_argument(
        "--state", default="vacuum", help="field state: vacuum, coherent:A, basis:K, file:PATH"
    )
    ev.add_argument(
        "--atomic", default="all-up", help="register state: all-up, all-down, or 0/1 string"
    )
    ev.add_argument(
        "--photon-cols", type=_bounded(int, 0), default=8, help="photon probabilities to tabulate"
    )

    ver = commands.add_parser("verify", help="run the invariant suite")
    ver.add_argument("--cutoff", type=int, default=40)
    ver.add_argument("--guard", type=int, default=6)
    ver.add_argument("--samples", type=_bounded(int, 1), default=5)
    ver.add_argument("--seed", type=_bounded(int, 0), default=1234)
    ver.add_argument("--tol-override", type=_bounded(float, 0), default=None)

    args = parser.parse_args(argv)
    command = {"build": cmd_build, "evolve": cmd_evolve, "verify": cmd_verify}[args.command]
    try:
        return command(parser, args)
    except MemoryError as err:
        print(f"error: {err or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
