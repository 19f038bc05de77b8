import numpy as np
import pytest

from tc4.fock import FockSpace, safe_indices
from tc4.linalg import expm_hermitian, op_norm_diff
from tc4.model import ModelParams, hamiltonian, interaction
from tc4.oracle import (
    evolution,
    evolution_states,
    exp_in_sectors,
    exp_operator,
    interaction_evolution,
    sector_blocks,
    sector_partition,
    sectors,
)
from tc4.spins import AtomRegister, collective, spin_matrices, twice_s3

SPACE = FockSpace(12)
REG4 = AtomRegister(4)
# (omega, delta, g): resonant, detuned, and with signs that flip the signed
# zeros of the generator's terms.
COEFFS = [(1.0, 1.0, 0.8), (1.0, 1.35, 0.8), (-0.6, 0.9, -1.1)]


def bits(x: np.ndarray) -> np.ndarray:
    """Raw bits of a complex array: equal bits mean equal values and signed zeros."""
    return np.ascontiguousarray(x).view(np.uint64)


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
    blocks = sector_blocks(np.zeros((16, 16), dtype=complex), twice_s3(REG4), SPACE)
    out = exp_in_sectors(blocks, -1.0j, np.zeros((16 * 12, 16 * 12), dtype=complex))
    np.testing.assert_allclose(out, np.eye(16 * 12), atol=1e-15)


def test_sector_blocks_report_register_leak():
    plus = collective(REG4).plus.copy()
    plus[3, 0] = 1e-3  # doubled weights 4 and 0: one excitation apart would be 2
    with pytest.raises(ValueError, match=r"S\+\[3, 0\]\| = 1\.000e-03 joins doubled weights 4 and 0"):
        sector_blocks(plus, twice_s3(REG4), SPACE)
    plus = collective(REG4).plus.copy()
    plus[5, 5] = 1.0  # a diagonal entry never raises the weight
    with pytest.raises(ValueError, match=r"S\+\[5, 5\]"):
        exp_operator(-1.0j, plus, twice_s3(REG4), SPACE)


def test_sector_spectra_refuses_non_hermitian_block():
    idx, h = sector_blocks(collective(REG4).plus, twice_s3(REG4), SPACE)[-1]
    h = h.copy()
    h[0, 0, 1] += 1e-9
    with pytest.raises(ValueError, match="not Hermitian"):
        exp_in_sectors([(idx, h)], -1.0j, np.zeros((16 * 12, 16 * 12), dtype=complex))


@pytest.mark.parametrize("atoms", [1, 2, 3, 4])
@pytest.mark.parametrize("coeffs", COEFFS)
def test_sector_blocks_are_dense_hamiltonian_slices(atoms, coeffs):
    # The dense witness: each assembled block is the sector slice of the
    # dense Hamiltonian bit for bit, and the dense Hamiltonian is exactly
    # zero between sectors.
    reg = AtomRegister(atoms)
    for cutoff in range(8, 17):
        space = FockSpace(cutoff)
        h_dense = hamiltonian(ModelParams(*coeffs, atoms=atoms, space=space))
        blocks = sector_blocks(collective(reg).plus, twice_s3(reg), space, *coeffs)
        covered = np.concatenate([idx.ravel() for idx, _ in blocks])
        np.testing.assert_array_equal(np.sort(covered), np.arange(reg.levels * cutoff))
        for idx, h in blocks:
            np.testing.assert_array_equal(bits(h), bits(h_dense[idx[:, :, None], idx[:, None, :]]))
        keys = np.empty(reg.levels * cutoff, dtype=int)
        for sec in sectors(reg, space):
            keys[sec.indices] = sec.key
        assert not np.any(h_dense[keys[:, None] != keys[None, :]])


def dense_sector_reference(p: ModelParams):
    """Eigensystems of the dense Hamiltonian's sector slices, grouped by
    sector dimension as the oracle groups its blocks."""
    h_dense = hamiltonian(p)
    secs = sectors(p.register, p.space)
    out = []
    for size in sorted({sec.dim for sec in secs}):
        idx = np.array([sec.indices for sec in secs if sec.dim == size])
        out.append((idx, *np.linalg.eigh(h_dense[idx[:, :, None], idx[:, None, :]])))
    return out


@pytest.mark.parametrize("atoms", [2, 4])
@pytest.mark.parametrize("coeffs", COEFFS)
def test_oracle_is_bit_identical_to_dense_sector_slices(atoms, coeffs):
    p = ModelParams(*coeffs, atoms=atoms, space=SPACE)
    spectra = dense_sector_reference(p)
    t = 1.7
    dim = p.register.levels * SPACE.cutoff
    ref = np.zeros((dim, dim), dtype=complex)
    for idx, w, v in spectra:
        blocks = np.einsum("kij,kj,klj->kil", v, np.exp(-1j * t * w), v.conj())
        ref[idx[:, :, None], idx[:, None, :]] = blocks
    np.testing.assert_array_equal(bits(evolution(t, p)), bits(ref))

    times = np.linspace(0.0, 4.0, 9)
    psi = np.random.default_rng(atoms).standard_normal(dim) + 0j
    psi /= np.linalg.norm(psi)
    cols = psi.reshape(dim, 1)
    ref_states = np.zeros((len(times), dim, 1), dtype=complex)
    for idx, w, v in spectra:
        coeffs_ = np.einsum("kji,kjc->kic", v.conj(), cols[idx])
        phases = np.exp(-1j * times[:, None, None] * w[None])
        ref_states[:, idx] = np.einsum("kij,tkj,kjc->tkic", v, phases, coeffs_)
    np.testing.assert_array_equal(
        bits(evolution_states(times, p, psi)), bits(ref_states.reshape(len(times), dim))
    )


def test_two_dim_sector_rotation():
    # lowest coupled pair of the spin-2 block rotates at frequency 2g
    weights = np.arange(4, -5, -2)
    secs = sector_partition(weights, SPACE)
    pair = next(s for s in secs if s.dim == 2)
    u = exp_operator(-0.7j, spin_matrices(4)[0], weights, SPACE)
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
    plus, weights = collective(p.register).plus, twice_s3(p.register)
    by_sector = exp_operator(-0.9j, plus, weights, SPACE, p.omega, p.delta, p.g)
    dense = expm_hermitian(hamiltonian(p), -0.9j)
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
