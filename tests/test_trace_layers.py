"""The benchmark's tracer (perfbench/tracing.py) wraps tc4 functions it looks
up by module and name, and reads the sizes of some calls from their argument
names.  Renaming or deleting one of them breaks every traced benchmark run,
so the contract is checked here, against the tracer file as it stands."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from tc4.dynamics import coherent_state, product_state
from tc4.fock import FockSpace
from tc4.model import ModelParams
from tc4.spins import AtomRegister

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    """The tracer module, and the tc4 modules its ``LAYERS`` name."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {name: importlib.import_module(f"tc4.{name}") for name, _ in tracing.LAYERS}
    return tracing, modules


def test_every_traced_layer_resolves():
    tracing, modules = load_tracing()
    missing = [
        f"{module}.{function}"
        for module, function in tracing.LAYERS
        if not callable(getattr(modules[module], function, None))
    ]
    assert not missing


def test_sized_layers_bind_their_arguments():
    # Each propagator builder is called directly, so the tracer must bind its
    # real argument names (p, space, reg, times) to size the computed counts.
    tracing, modules = load_tracing()
    space = FockSpace(8)
    p = ModelParams(omega=1.0, delta=1.0, g=1.0, atoms=4, space=space)
    init = product_state(0, coherent_state(0.0, space), AtomRegister(4), space)
    with tracing.Tracer(modules) as tracer:
        for method in ("closed", "oracle"):
            modules["dynamics"].trajectory(p, init, np.array([0.0, 0.5]), method=method)
        modules["propagator"].full_propagator(0.5, p)
        modules["propagator"].interaction_propagator(0.5, 1.0, space)
        modules["oracle"].evolution(0.5, p)
        modules["oracle"].interaction_evolution(0.5, 1.0, AtomRegister(2), space)
    summary = tracing.summarize(tracer.spans)
    # Trajectories propagate states: no propagator is built for a time point.
    assert summary["dynamics.trajectory.calls"] == 2
    assert summary["dynamics.operators_per_point"] == 0.0
    assert summary["propagator.full_propagator.calls"] == 1
    assert summary["propagator.interaction_propagator.calls"] == 2  # one inside full_propagator
    assert summary["oracle.evolution.calls"] == 1
    assert summary["oracle.interaction_evolution.calls"] == 1
    # The tracer computes basis_change.flop and .bytes from a formula per
    # interaction_propagator call (two dense 128 x 128 products), not from
    # the work done: the basis change now acts on the register axis only.
    assert summary["propagator.basis_change.flop"] == 2 * (2 * 8 * 128**3)
    assert summary["propagator.basis_change.bytes"] == 2 * (2 * 3 * 16 * 128**2)
    # Three top-level builders on 16 levels and one on the two-atom register.
    useful = 3 * (tracing.sector_dims(16, 8) ** 2).sum() + (tracing.sector_dims(4, 8) ** 2).sum()
    assert summary["propagator.useful_entry_ratio"] == useful / (3 * 128**2 + 32**2)
