import numpy as np
import pytest

from tc4.fock import FockSpace, ladder, safe_indices
from tc4.linalg import hermitian_defect
from tc4.model import (
    BLOCK_LAYOUT,
    ModelParams,
    a4_explicit,
    block_decompose,
    excitation_operator,
    hamiltonian,
    interaction,
    multiplet_interaction,
    transform_t,
)
from tc4.oracle import sectors
from tc4.spins import AtomRegister, collective, sigma_embed, twice_s3

SPACE = FockSpace(16)


def params(omega=1.0, delta=1.0, g=1.0, atoms=4, space=SPACE):
    return ModelParams(omega=omega, delta=delta, g=g, atoms=atoms, space=space)


def test_params_validation():
    with pytest.raises(ValueError, match="atoms"):
        params(atoms=5)
    assert params().resonant
    assert not params(delta=1.5).resonant


def test_hamiltonian_hermitian_and_free_spectrum():
    h = hamiltonian(params(g=0.0, omega=1.0, delta=0.5, atoms=2))
    assert hermitian_defect(h) == 0.0
    # diagonal energies: omega * photons + delta * (inversion)
    reg = AtomRegister(2)
    expected = np.repeat(twice_s3(reg) * 0.25, 16) + np.tile(np.arange(16.0), 4)
    np.testing.assert_allclose(np.diag(h).real, expected, atol=1e-15)


def test_hamiltonian_matches_per_atom_sum():
    # same operator assembled atom by atom instead of collectively
    p = params(omega=1.1, delta=0.7, g=0.4, atoms=3)
    reg = AtomRegister(3)
    a, a_dag, n_op = ladder(SPACE)
    ident = np.eye(8, dtype=complex)
    h_sum = p.omega * np.kron(ident, n_op)
    for atom in range(1, 4):
        h_sum += p.delta * 0.5 * np.kron(sigma_embed(reg, "three", atom), np.eye(16))
        h_sum += p.g * (
            np.kron(sigma_embed(reg, "plus", atom), a)
            + np.kron(sigma_embed(reg, "minus", atom), a_dag)
        )
    # summation order differs between the two constructions, so allow
    # one rounding step on the diagonal
    np.testing.assert_allclose(hamiltonian(p), h_sum, atol=1e-15)


def test_single_atom_lowest_doublet():
    # one excitation splits symmetrically around the free energy
    p = params(atoms=1, g=0.3)
    h = hamiltonian(p)
    sector = next(s for s in sectors(AtomRegister(1), SPACE) if s.dim == 2)
    block = h[np.ix_(sector.indices, sector.indices)]
    np.testing.assert_allclose(
        np.linalg.eigvalsh(block), [0.5 - 0.3, 0.5 + 0.3], atol=1e-14
    )


def test_interaction_equals_explicit_pattern():
    reg = AtomRegister(4)
    np.testing.assert_array_equal(interaction(reg, SPACE), a4_explicit(SPACE))


def test_interaction_conserves_excitation():
    for n in range(1, 5):
        reg = AtomRegister(n)
        a_n = interaction(reg, SPACE)
        e_op = excitation_operator(reg, SPACE)
        np.testing.assert_array_equal(a_n @ e_op, e_op @ a_n)


def test_transform_is_orthogonal():
    t = transform_t()
    assert np.abs(t.T @ t - np.eye(16)).max() < 1e-14
    assert t[0, 11] == 1.0
    assert t[15, 15] == 1.0


def test_transform_exhibits_invariant_spin_structure():
    # conjugated inversion operator is diagonal with multiplet content
    # 0, 1, 0, 1, 1, 2: more than one invariant block
    t = transform_t()
    s3 = collective(AtomRegister(4)).three.real
    moved = t.T @ s3 @ t
    expected = np.diag(
        np.array([0, 1, 0, -1, 0, 1, 0, -1, 1, 0, -1, 2, 1, 0, -1, -2], dtype=float)
    )
    np.testing.assert_allclose(moved, expected, atol=1e-14)


def test_block_decompose_layout():
    blocks = block_decompose(interaction(AtomRegister(4), SPACE), transform_t(), SPACE)
    assert len(blocks) == len(BLOCK_LAYOUT)
    refs = {
        "zero": np.zeros((16, 16)),
        "spin1": multiplet_interaction(2, SPACE),
        "spin2": multiplet_interaction(4, SPACE),
    }
    for block, layout in zip(blocks, BLOCK_LAYOUT):
        assert np.abs(block - refs[layout.kind]).max() < 1e-12


def test_block_decompose_rejects_leaky_basis():
    t = transform_t()
    shuffled = t.copy()
    shuffled[:, [0, 11]] = shuffled[:, [11, 0]]
    with pytest.raises(ValueError, match="leakage"):
        block_decompose(interaction(AtomRegister(4), SPACE), shuffled, SPACE)


def test_block_decompose_rejects_non_orthogonal_basis():
    t = transform_t()
    t[0, 0] = 0.5
    with pytest.raises(ValueError, match="not orthogonal"):
        block_decompose(interaction(AtomRegister(4), SPACE), t, SPACE)


def test_resonant_free_and_coupling_parts_commute():
    p = params(g=0.8)
    reg = AtomRegister(4)
    h0 = p.omega * excitation_operator(reg, SPACE)
    v = p.g * interaction(reg, SPACE)
    band = safe_indices(SPACE, 16)
    comm = h0 @ v - v @ h0
    assert np.abs(comm[np.ix_(band, band)]).max() == 0.0
