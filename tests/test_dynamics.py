import math

import numpy as np
import pytest

from tc4.dynamics import QuantumState, coherent_state, product_state, trajectory
from tc4.fock import FockSpace
from tc4.model import ModelParams, excitation_operator
from tc4.oracle import evolution
from tc4.spins import AtomRegister, twice_s3

SPACE = FockSpace(16)
REG4 = AtomRegister(4)


def resonant(g=1.0, atoms=4, space=SPACE):
    return ModelParams(omega=1.0, delta=1.0, g=g, atoms=atoms, space=space)


def test_coherent_vacuum():
    amps = coherent_state(0.0, SPACE)
    assert amps[0] == 1.0
    assert np.abs(amps[1:]).max() == 0.0


def test_coherent_poisson_statistics():
    space = FockSpace(32)
    amps = coherent_state(1.0, space)
    assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-14)
    mean = float(np.sum(np.arange(32) * np.abs(amps) ** 2))
    assert mean == pytest.approx(1.0, abs=1e-8)
    for m in range(10):
        expected = math.exp(-1.0) / math.factorial(m)
        assert abs(amps[m]) ** 2 == pytest.approx(expected, abs=1e-8)


def test_coherent_refuses_large_amplitude():
    with pytest.raises(ValueError, match="cutoff of at least 104"):
        coherent_state(7.0, FockSpace(16))


def test_product_state_layout():
    state = product_state(3, coherent_state(0.0, SPACE), REG4, SPACE)
    assert state.amplitudes[3 * 16] == 1.0
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError, match="atomic index"):
        product_state(16, coherent_state(0.0, SPACE), REG4, SPACE)
    with pytest.raises(ValueError, match="length"):
        product_state(0, np.ones(8), REG4, SPACE)


def test_product_state_normalizes_large_entries():
    # The norm of these overflows unless the vector is scaled first.
    for peak in (1e200, 1.7976931348623157e308):
        field = np.zeros(16, dtype=complex)
        field[[0, 3]] = peak, -1j * peak
        state = product_state(2, field, REG4, SPACE)
        expected = np.zeros(16 * 16, dtype=complex)
        expected[[32, 35]] = np.array([1.0, -1j]) / math.sqrt(2.0)
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-15)


def test_product_state_scaling_is_exact():
    # Ordinary vectors normalize bit for bit as the plain division does.
    rng = np.random.default_rng(5)
    for exponent in (-150, -3, 0, 7, 150):
        field = (rng.standard_normal(16) + 1j * rng.standard_normal(16)) * 10.0**exponent
        plain = field / np.linalg.norm(field)
        got = product_state(0, field, REG4, SPACE).amplitudes[:16]
        assert np.array_equal(got.view(np.uint64), plain.view(np.uint64))


def test_state_validation():
    with pytest.raises(ValueError, match="not divisible"):
        QuantumState(amplitudes=np.ones(10) / math.sqrt(10), levels=4)
    with pytest.raises(ValueError, match="norm"):
        QuantumState(amplitudes=np.ones(8), levels=4)
    with pytest.raises(ValueError, match="norm"):
        QuantumState(amplitudes=np.full(8, np.nan), levels=4)


def test_inversion_extremes():
    def inversion(state):
        halves = np.repeat(twice_s3(REG4), SPACE.cutoff) / 2.0
        return float(np.sum(halves * np.abs(state.amplitudes) ** 2))

    up = product_state(0, coherent_state(0.0, SPACE), REG4, SPACE)
    down = product_state(15, coherent_state(0.0, SPACE), REG4, SPACE)
    assert inversion(up) == 2.0
    assert inversion(down) == -2.0
    # one atom lowered from full excitation
    one_down = product_state(1, coherent_state(0.0, SPACE), REG4, SPACE)
    assert inversion(one_down) == 1.0


def test_photon_distribution_normalization():
    state = product_state(0, coherent_state(1.2, SPACE), REG4, SPACE)
    dist = trajectory(resonant(), state, np.array([0.0])).photon[0]
    assert dist.sum() == pytest.approx(1.0, abs=1e-10)
    assert dist[0] == pytest.approx(math.exp(-1.44), abs=1e-4)


def test_evolve_preserves_norm_under_unitary():
    p = resonant(g=0.8)
    u = evolution(0.9, p)
    state = product_state(0, coherent_state(1.0, SPACE), REG4, SPACE)
    out = u @ state.amplitudes
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10
    dist = (np.abs(out.reshape(16, SPACE.cutoff)) ** 2).sum(axis=0)
    assert dist.sum() == pytest.approx(1.0, abs=1e-10)


def test_evolution_conserves_excitation_expectation():
    p = resonant(g=1.0)
    e_op = excitation_operator(REG4, SPACE)
    state = product_state(0, coherent_state(0.0, SPACE), REG4, SPACE)
    times = np.linspace(0.0, 10.0, 40)
    values = []
    for t in times:
        amps = evolution(float(t), p) @ state.amplitudes
        values.append(float(np.real(amps.conj() @ e_op @ amps)))
    assert np.abs(np.diff(values)).max() < 1e-9


def test_trajectory_closed_matches_oracle():
    p = resonant(g=1.0)
    init = product_state(0, coherent_state(0.0, SPACE), REG4, SPACE)
    times = np.linspace(0.0, 10.0, 60)
    closed = trajectory(p, init, times, method="closed")
    ref = trajectory(p, init, times, method="oracle")
    assert np.abs(closed.inversion - ref.inversion).max() < 1e-9
    assert np.abs(closed.photon - ref.photon).max() < 1e-9


def test_trajectory_free_coupling_is_constant():
    p = resonant(g=0.0)
    init = product_state(5, coherent_state(1.0, SPACE), REG4, SPACE)
    traj = trajectory(p, init, np.linspace(0.0, 10.0, 30), method="closed")
    assert np.abs(traj.inversion - traj.inversion[0]).max() < 1e-12
    assert np.abs(traj.photon - traj.photon[0]).max() < 1e-12


def test_trajectory_norm_stable_over_many_steps():
    space = FockSpace(12)
    p = resonant(g=0.9, space=space)
    init = product_state(0, coherent_state(0.0, space), REG4, space)
    times = np.linspace(0.0, 20.0, 1001)
    traj = trajectory(p, init, times, method="closed")
    norms = traj.photon.sum(axis=1)
    assert np.abs(norms - 1.0).max() < 1e-9


def test_trajectory_method_validation():
    p = resonant()
    init = product_state(0, coherent_state(0.0, SPACE), REG4, SPACE)
    with pytest.raises(ValueError, match="method"):
        trajectory(p, init, np.array([0.0]), method="magic")


@pytest.mark.parametrize("tg", [150.0, 1000.0])
def test_trajectory_closed_matches_oracle_at_long_times(tg):
    # Past t g ~ 136 the closed form used to overflow; two starts, one of
    # which (atoms 1 and 2 excited) reaches the bottom of the spin-2 block.
    p = resonant(g=1.0)
    times = np.array([0.0, 0.5, tg - 0.25, tg])
    for index in (0, 3):
        init = product_state(index, coherent_state(0.0, SPACE), REG4, SPACE)
        closed = trajectory(p, init, times, method="closed")
        ref = trajectory(p, init, times, method="oracle")
        assert np.abs(closed.inversion - ref.inversion).max() < 1e-9
        assert np.abs(closed.photon - ref.photon).max() < 1e-9
