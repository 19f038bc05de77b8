"""Invariants of the propagators themselves, independent of how they are
built: unitarity, the one-parameter group law ``U(t1) U(t2) = U(t1 + t2)``
and conservation of the excitation number ``S3 x 1 + 1 x N``, all on the
guard band.  A band column lies in an excitation sector that sits wholly
below the cutoff, so every law holds there at any time, truncation
included."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tc4.fock import FockSpace, safe_indices
from tc4.linalg import op_norm_diff
from tc4.model import ModelParams, excitation_operator
from tc4.oracle import evolution
from tc4.propagator import full_propagator
from tc4.spins import AtomRegister

TOL = 1e-10


@st.composite
def cases(draw, detuned):
    # The closed form covers four atoms only; the oracle takes any register.
    atoms = draw(st.integers(1, 4)) if detuned else 4
    space = FockSpace(draw(st.integers(8, 24)))
    delta = 1.0 + draw(st.floats(-1.0, 1.0)) if detuned else 1.0
    p = ModelParams(omega=1.0, delta=delta, g=draw(st.floats(0.0, 2.0)), atoms=atoms, space=space)
    return p, draw(st.floats(0.0, 20.0)), draw(st.floats(0.0, 20.0))


def assert_propagator_laws(build, p, t1, t2):
    reg = AtomRegister(p.atoms)
    band = safe_indices(p.space, reg.levels)
    u1, u2 = build(t1, p), build(t2, p)
    excite = excitation_operator(reg, p.space)
    assert op_norm_diff(u1.conj().T @ u1, np.eye(len(u1)), band) < TOL
    assert op_norm_diff(u1 @ u2, build(t1 + t2, p), band) < TOL
    assert op_norm_diff(u1 @ excite, excite @ u1, band) < TOL


@settings(max_examples=25, deadline=None)
@given(cases(detuned=False))
def test_closed_form_propagator_laws(case):
    assert_propagator_laws(full_propagator, *case)


@settings(max_examples=25, deadline=None)
@given(cases(detuned=True))
def test_oracle_propagator_laws(case):
    assert_propagator_laws(evolution, *case)
