import numpy as np
import pytest

from tc4.fock import FockSpace, safe_indices
from tc4.linalg import expm_hermitian, op_norm_diff
from tc4.model import ModelParams, hamiltonian, interaction, multiplet_interaction
from tc4.oracle import (
    evolution,
    exp_in_sectors,
    interaction_evolution,
    sector_partition,
    sectors,
)
from tc4.spins import AtomRegister

SPACE = FockSpace(12)
REG4 = AtomRegister(4)


def test_sectors_partition_the_basis():
    secs = sectors(REG4, SPACE)
    all_indices = np.sort(np.concatenate([s.indices for s in secs]))
    np.testing.assert_array_equal(all_indices, np.arange(16 * 12))
    keys = [s.key for s in secs]
    assert keys == sorted(keys)
    assert min(keys) == 0


def test_lowest_sectors_have_known_dimensions():
    secs = sectors(REG4, SPACE)
    assert secs[0].dim == 1  # all atoms down, empty cavity
    assert secs[1].dim == 5  # one excitation: four register states plus one photon
    assert secs[2].dim == 11


def test_exp_in_sectors_zero_generator():
    gen = np.zeros((16 * 12, 16 * 12), dtype=complex)
    out = exp_in_sectors(gen, sectors(REG4, SPACE), -1.0j)
    np.testing.assert_allclose(out, np.eye(16 * 12), atol=1e-15)


def test_exp_in_sectors_reports_leak_position():
    gen = np.zeros((16 * 12, 16 * 12), dtype=complex)
    gen[0, 1] = 1e-3  # connects photon 0 to photon 1 at fixed register level
    gen[1, 0] = 1e-3
    with pytest.raises(ValueError, match=r"op\[0, 1\]"):
        exp_in_sectors(gen, sectors(REG4, SPACE), -1.0j)


def test_two_dim_sector_rotation():
    # lowest coupled pair of the spin-2 block rotates at frequency 2g
    gen = multiplet_interaction(4, SPACE)
    secs = sector_partition(np.arange(4, -5, -2), SPACE)
    pair = next(s for s in secs if s.dim == 2)
    u = exp_in_sectors(gen, secs, -0.7j)
    block = u[np.ix_(pair.indices, pair.indices)]
    expected = np.array(
        [
            [np.cos(1.4), -1j * np.sin(1.4)],
            [-1j * np.sin(1.4), np.cos(1.4)],
        ]
    )
    np.testing.assert_allclose(block, expected, atol=1e-14)


def test_sector_exponential_matches_dense():
    p = ModelParams(omega=1.0, delta=0.8, g=0.5, atoms=3, space=SPACE)
    h = hamiltonian(p)
    by_sector = exp_in_sectors(h, sectors(AtomRegister(3), SPACE), -0.9j)
    dense = expm_hermitian(h, -0.9j)
    band = safe_indices(SPACE, 8)
    assert op_norm_diff(by_sector, dense, band) < 1e-10


def test_evolution_unitary_and_group_law():
    p = ModelParams(omega=1.0, delta=1.3, g=0.6, atoms=2, space=SPACE)
    band = safe_indices(SPACE, 4)
    u1 = evolution(0.4, p)
    u2 = evolution(1.1, p)
    ident = np.eye(4 * 12, dtype=complex)
    assert op_norm_diff(u1 @ u1.conj().T, ident, band) < 1e-12
    assert op_norm_diff(u1 @ u2, evolution(1.5, p), band) < 1e-10


def test_evolution_free_limit():
    p = ModelParams(omega=1.2, delta=0.3, g=0.0, atoms=2, space=SPACE)
    u = evolution(0.9, p)
    expected = np.diag(np.exp(-0.9j * np.diag(hamiltonian(p))))
    np.testing.assert_allclose(u, expected, atol=1e-13)


def test_evolution_matches_dense_exponential():
    p = ModelParams(omega=1.0, delta=1.0, g=0.5, atoms=2, space=SPACE)
    np.testing.assert_allclose(
        evolution(0.5, p), expm_hermitian(hamiltonian(p), -0.5j), atol=1e-11
    )


def test_interaction_evolution_matches_generator():
    reg = AtomRegister(2)
    gen = interaction(reg, SPACE)
    u = interaction_evolution(0.3, 0.7, reg, SPACE)
    dense = expm_hermitian(gen, -1j * 0.3 * 0.7)
    band = safe_indices(SPACE, 4)
    assert op_norm_diff(u, dense, band) < 1e-11
