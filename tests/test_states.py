"""The state routes behind ``trajectory`` against the propagators they
replace: at every time of a random grid, ``full_states`` must equal
``full_propagator(t, p) @ psi`` and ``evolution_states`` must equal
``evolution(t, p) @ psi``, over the whole vector, guard band included."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tc4.dynamics import coherent_state, product_state
from tc4.fock import FockSpace
from tc4.model import ModelParams
from tc4.oracle import evolution, evolution_states
from tc4.propagator import full_propagator, full_states
from tc4.spins import AtomRegister


@st.composite
def runs(draw, detuned):
    # The closed form covers four atoms only; the oracle takes any register.
    atoms = draw(st.integers(1, 4)) if detuned else 4
    space = FockSpace(draw(st.integers(8, 24)))
    g = draw(st.floats(0.0, 2.0))
    delta = 1.0 + draw(st.floats(-1.0, 1.0)) if detuned else 1.0
    p = ModelParams(omega=1.0, delta=delta, g=g, atoms=atoms, space=space)
    # |alpha|^2 up to half the photon numbers below the guard band of cutoff 8.
    radius = draw(st.floats(0.0, 1.0))
    alpha = radius * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
    reg = AtomRegister(atoms)
    start = draw(st.integers(0, reg.levels - 1))
    psi = product_state(start, coherent_state(alpha, space), reg, space).amplitudes
    times = np.array(draw(st.lists(st.floats(0.0, 20.0), min_size=1, max_size=4)))
    return p, psi, times


@settings(max_examples=30, deadline=None)
@given(runs(detuned=False))
def test_closed_states_match_the_propagator(run):
    p, psi, times = run
    states = full_states(times, p, psi)
    for t, state in zip(times, states):
        assert np.abs(state - full_propagator(float(t), p) @ psi).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(runs(detuned=True))
def test_oracle_states_match_the_propagator(run):
    p, psi, times = run
    states = evolution_states(times, p, psi)
    for t, state in zip(times, states):
        assert np.abs(state - evolution(float(t), p) @ psi).max() < 1e-12
