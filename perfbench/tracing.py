"""Span tracing of tc4's public functions, installed from outside the package.

A ``Tracer`` wraps each function named in ``LAYERS`` in every ``tc4`` module
that holds a reference to it, so a call is caught where it is looked up
(``tc4.oracle.expm_hermitian``, ``tc4.verify.spin2_amplitudes``, ...), and
puts the originals back when it exits.  Each call becomes one span: layer
name, start, end, parent span.  Spans stay in memory until the request ends;
``summarize`` then turns them into per-layer calls, inclusive time and self
time, plus exact counts computed from the array sizes the calls received.
"""

from __future__ import annotations

import inspect
import time
from types import ModuleType

import numpy as np

# (module, function) pairs, named after tc4's own modules.  The layer name of
# a span is "<module>.<function>", except cli.main, which is "cli".
LAYERS = (
    ("cli", "main"),
    ("verify", "run_checks"),
    ("dynamics", "trajectory"),
    ("propagator", "full_propagator"),
    ("propagator", "interaction_propagator"),
    ("propagator", "exp_spin2_block"),
    ("propagator", "exp_spin1_block"),
    ("propagator", "spin2_amplitudes"),
    ("fock", "number_fn_term"),
    ("fock", "ladder"),
    ("oracle", "evolution"),
    ("oracle", "interaction_evolution"),
    ("oracle", "exp_in_sectors"),
    ("oracle", "sectors"),
    ("linalg", "expm_hermitian"),
    ("model", "hamiltonian"),
    ("model", "interaction"),
    ("model", "multiplet_interaction"),
    ("model", "transform_t"),
    ("model", "block_decompose"),
    ("spins", "collective"),
)

# Calls that each return one dense propagator on the register-plus-mode space.
BUILDERS = (
    "propagator.full_propagator",
    "propagator.interaction_propagator",
    "oracle.evolution",
    "oracle.interaction_evolution",
)


def layer_name(module: str, function: str) -> str:
    return "cli" if (module, function) == ("cli", "main") else f"{module}.{function}"


def _size_of(layer: str, arguments: dict) -> tuple[int, int] | int | None:
    """Sizes a span needs for its computed counts: (register levels, cutoff)
    for a propagator builder, the number of time points for a trajectory."""
    if layer == "dynamics.trajectory":
        return len(arguments["times"])
    if layer == "propagator.interaction_propagator":
        return 16, arguments["space"].cutoff
    if layer in ("propagator.full_propagator", "oracle.evolution"):
        p = arguments["p"]
        return 2**p.atoms, p.space.cutoff
    if layer == "oracle.interaction_evolution":
        return 2 ** arguments["reg"].n, arguments["space"].cutoff
    return None


_SIZED = {"dynamics.trajectory", *BUILDERS}


class Tracer:
    """Context manager that records one span per call of a traced layer."""

    def __init__(self, modules: dict[str, ModuleType]):
        self.modules = modules
        # One list per span: [layer, start, end, parent index or -1, size].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[ModuleType, str, object]] = []

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if layer in _SIZED else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            size = None
            if signature is not None:
                size = _size_of(layer, signature.bind(*args, **kwargs).arguments)
            index = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1, size])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()

        return traced

    def __enter__(self) -> Tracer:
        for module, function in LAYERS:
            original = getattr(self.modules[module], function)
            wrapper = self._wrap(layer_name(module, function), original)
            for mod in self.modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()


def sector_dims(levels: int, cutoff: int) -> np.ndarray:
    """Dimensions of the excitation sectors of ``log2(levels)`` atoms and a
    mode cut at ``cutoff``: the diagonal blocks a propagator can fill."""
    atoms = levels.bit_length() - 1
    weights = np.array([atoms - 2 * bin(b).count("1") for b in range(levels)])
    keys = (weights[:, None] + 2 * np.arange(cutoff)[None, :]).ravel()
    counts = np.bincount(keys - keys.min())
    return counts[counts > 0]


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer totals of one traced request.

    ``<layer>.calls``, ``<layer>.ms`` (inclusive; no layer calls itself) and
    ``<layer>.self_ms`` (span time minus the time its child spans cover) for
    every layer, and these counts computed from array sizes:

    - ``propagator.basis_change.flop`` and ``.bytes`` of the dense basis
      change in ``interaction_propagator``;
    - ``propagator.useful_entry_ratio``: entries inside excitation sectors
      over all entries, summed over the dense propagators built;
    - ``linalg.expm_hermitian.calls_per_op``: eigendecompositions per
      propagator built;
    - ``propagator.spin2_amplitudes.calls_per_block``: amplitude
      evaluations per closed-form spin-2 block;
    - ``dynamics.operators_per_point``: propagators built per trajectory
      time point.
    """
    n = len(spans)
    duration = np.array([s[2] - s[1] for s in spans])
    children = np.zeros(n)
    in_builder = [False] * n
    in_trajectory = [False] * n
    in_spin2_block = [False] * n
    for i, (layer, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent] += duration[i]
            up = spans[parent][0]
            in_builder[i] = in_builder[parent] or up in BUILDERS
            in_trajectory[i] = in_trajectory[parent] or up == "dynamics.trajectory"
            in_spin2_block[i] = in_spin2_block[parent] or up == "propagator.exp_spin2_block"
    self_time = duration - children

    out: dict[str, float] = {}
    for module, function in LAYERS:
        layer = layer_name(module, function)
        out[f"{layer}.calls"] = 0
        out[f"{layer}.ms"] = 0.0
        out[f"{layer}.self_ms"] = 0.0
    flop = moved = useful = dense = ops = ops_in_trajectory = points = 0
    spin2_in_blocks = 0
    for i, (layer, _, _, _, size) in enumerate(spans):
        out[f"{layer}.calls"] += 1
        out[f"{layer}.ms"] += 1e3 * duration[i]
        out[f"{layer}.self_ms"] += 1e3 * self_time[i]
        if layer == "propagator.interaction_propagator":
            # (T x 1) core (T x 1)^T: two dense n x n complex128 products, 8 n^3
            # flop each, each reading two operands and writing one of 16 n^2 bytes.
            dim = 16 * size[1]
            flop += 2 * 8 * dim**3
            moved += 2 * 3 * 16 * dim**2
        if layer in BUILDERS and not in_builder[i]:
            levels, cutoff = size
            ops += 1
            ops_in_trajectory += in_trajectory[i]
            useful += int((sector_dims(levels, cutoff) ** 2).sum())
            dense += (levels * cutoff) ** 2
        if layer == "dynamics.trajectory":
            points += size
        if layer == "propagator.spin2_amplitudes" and in_spin2_block[i]:
            spin2_in_blocks += 1
    blocks = out["propagator.exp_spin2_block.calls"]
    out["propagator.basis_change.flop"] = flop
    out["propagator.basis_change.bytes"] = moved
    out["propagator.useful_entry_ratio"] = useful / dense if dense else 0.0
    out["propagator.spin2_amplitudes.calls_per_block"] = spin2_in_blocks / blocks if blocks else 0.0
    out["linalg.expm_hermitian.calls_per_op"] = (
        out["linalg.expm_hermitian.calls"] / ops if ops else 0.0
    )
    out["dynamics.operators_per_point"] = ops_in_trajectory / points if points else 0.0
    out["trace.spans"] = n
    out["trace.layer_self_sum_ms"] = 1e3 * float(self_time.sum())
    return out
