"""Tavis-Cummings Hamiltonian, its interaction part, and the block reduction.

A register of up to four atoms couples to one truncated cavity mode.  The
composite ordering is register-major (see ``fock.safe_indices``).  For the
four-atom register the interaction operator reduces, under a fixed
orthogonal change of register basis, to a direct sum of two scalar zeros,
three spin-1 blocks, and one spin-2 block; the change of basis is a known
constant matrix and is hard-coded rather than produced by a solver, so the
reduction is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, ladder
from .spins import AtomRegister, collective, spin_matrices

__all__ = [
    "ModelParams",
    "hamiltonian",
    "interaction",
    "excitation_operator",
    "a4_explicit",
    "transform_t",
    "Block",
    "BLOCK_LAYOUT",
    "block_leakage",
    "block_decompose",
    "multiplet_interaction",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of one run.

    omega is the mode frequency, delta the atomic splitting, g the
    coupling.  The closed-form factorization of the evolution requires
    exact resonance, tested as float equality of delta and omega.
    """

    omega: float
    delta: float
    g: float
    atoms: int
    space: FockSpace

    def __post_init__(self) -> None:
        if not 1 <= self.atoms <= 4:
            raise ValueError(f"atoms must be between 1 and 4, got {self.atoms}")

    @property
    def resonant(self) -> bool:
        return self.delta == self.omega

    @property
    def register(self) -> AtomRegister:
        return AtomRegister(self.atoms)


def interaction(reg: AtomRegister, space: FockSpace) -> np.ndarray:
    """Excitation-swapping coupling ``S+ x a + S- x a_dag``."""
    spins = collective(reg)
    a, a_dag, _ = ladder(space)
    return np.kron(spins.plus, a) + np.kron(spins.minus, a_dag)


def hamiltonian(p: ModelParams) -> np.ndarray:
    """Full Hamiltonian: mode energy, atomic splitting, and coupling."""
    reg = p.register
    spins = collective(reg)
    a, a_dag, n_op = ladder(p.space)
    ident_reg = np.eye(reg.levels, dtype=complex)
    ident_mode = np.eye(p.space.cutoff, dtype=complex)
    return (
        p.omega * np.kron(ident_reg, n_op)
        + p.delta * np.kron(spins.three, ident_mode)
        + p.g * (np.kron(spins.plus, a) + np.kron(spins.minus, a_dag))
    )


def excitation_operator(reg: AtomRegister, space: FockSpace) -> np.ndarray:
    """Total excitation number ``S3 x 1 + 1 x N``.

    Commutes with the interaction exactly, truncation included, because the
    coupling moves one quantum between register and mode.  Its eigenspaces
    are the sectors the oracle diagonalizes.
    """
    spins = collective(reg)
    _, _, n_op = ladder(space)
    return np.kron(spins.three, np.eye(space.cutoff, dtype=complex)) + np.kron(
        np.eye(reg.levels, dtype=complex), n_op
    )


# Four-atom interaction, written out by hand against the register-major
# basis: entry pattern only, the mode factor being the annihilator for
# "lower" rows and the creator for "raise" rows.  Kept as data so the
# constructed operator can be tested against it entry for entry.
_A4_LOWER = {
    0: (1, 2, 4, 8),
    1: (3, 5, 9),
    2: (3, 6, 10),
    3: (7, 11),
    4: (5, 6, 12),
    5: (7, 13),
    6: (7, 14),
    7: (15,),
    8: (9, 10, 12),
    9: (11, 13),
    10: (11, 14),
    11: (15,),
    12: (13, 14),
    13: (15,),
    14: (15,),
    15: (),
}
_A4_RAISE = {row: tuple(col for col in range(16) if row in _A4_LOWER[col]) for row in range(16)}


def a4_explicit(space: FockSpace) -> np.ndarray:
    """Four-atom interaction assembled from the hand-written entry pattern."""
    a, a_dag, _ = ladder(space)
    m = space.cutoff
    out = np.zeros((16 * m, 16 * m), dtype=complex)
    for row, cols in _A4_LOWER.items():
        for col in cols:
            out[row * m : (row + 1) * m, col * m : (col + 1) * m] += a
    for row, cols in _A4_RAISE.items():
        for col in cols:
            out[row * m : (row + 1) * m, col * m : (col + 1) * m] += a_dag
    return out


def transform_t() -> np.ndarray:
    """Constant orthogonal change of register basis that block-reduces the
    four-atom interaction.

    Hard-coded: columns are grouped by invariant subspace in the order
    scalar, spin-1, scalar, spin-1, spin-1, spin-2, each multiplet ordered
    by descending projection.
    """
    rh = 1.0 / np.sqrt(2.0)
    rs = 1.0 / np.sqrt(6.0)
    rq = 1.0 / (2.0 * np.sqrt(3.0))
    rt = 1.0 / np.sqrt(3.0)
    h = 0.5
    r23 = np.sqrt(2.0 / 3.0)
    s32 = np.sqrt(3.0) / 2.0
    rows = {
        0: {11: 1.0},
        1: {1: rh, 5: rs, 8: rq, 12: h},
        2: {1: -rh, 5: rs, 8: rq, 12: h},
        3: {4: rt, 6: rt, 9: rs, 13: rs},
        4: {5: -r23, 8: rq, 12: h},
        5: {0: h, 2: h, 4: -rq, 6: -rq, 9: rs, 13: rs},
        6: {0: -h, 2: -h, 4: -rq, 6: -rq, 9: rs, 13: rs},
        7: {10: s32, 14: h},
        8: {8: -s32, 12: h},
        9: {0: -h, 2: h, 4: -rq, 6: rq, 9: -rs, 13: rs},
        10: {0: h, 2: -h, 4: -rq, 6: rq, 9: -rs, 13: rs},
        11: {7: r23, 10: -rq, 14: h},
        12: {4: rt, 6: -rt, 9: -rs, 13: rs},
        13: {3: rh, 7: -rs, 10: -rq, 14: h},
        14: {3: -rh, 7: -rs, 10: -rq, 14: h},
        15: {15: 1.0},
    }
    t = np.zeros((16, 16))
    for row, cols in rows.items():
        for col, val in cols.items():
            t[row, col] = val
    return t


@dataclass(frozen=True)
class Block:
    """One invariant block of the reduced interaction.

    ``start`` and ``stop`` index register levels in the transformed basis;
    ``kind`` names the multiplet content: "zero" for a scalar null block,
    "spin1" or "spin2" for the corresponding irreducible coupling.
    """

    start: int
    stop: int
    kind: str


BLOCK_LAYOUT: tuple[Block, ...] = (
    Block(0, 1, "zero"),
    Block(1, 4, "spin1"),
    Block(4, 5, "zero"),
    Block(5, 8, "spin1"),
    Block(8, 11, "spin1"),
    Block(11, 16, "spin2"),
)


def multiplet_interaction(two_j: int, space: FockSpace) -> np.ndarray:
    """Irreducible coupling ``S+ x a + S- x a_dag`` for one spin multiplet.

    ``two_j = 2`` gives the spin-1 block with ladder weights
    ``(sqrt(2), sqrt(2))``; ``two_j = 4`` the spin-2 block with weights
    ``(2, sqrt(6), sqrt(6), 2)``.
    """
    plus, minus, _ = spin_matrices(two_j)
    a, a_dag, _ = ladder(space)
    return np.kron(plus, a) + np.kron(minus, a_dag)


def block_leakage(
    op: np.ndarray, t_mat: np.ndarray, space: FockSpace
) -> tuple[np.ndarray, np.ndarray]:
    """Conjugate a register-major operator into the invariant-block basis.

    Returns ``(T x 1)^dag op (T x 1)`` and the magnitudes of its entries
    outside the blocks of ``BLOCK_LAYOUT`` (zero inside them).
    """
    m = space.cutoff
    big = np.kron(t_mat, np.eye(m))
    moved = big.T @ op @ big
    inside = np.zeros(moved.shape, dtype=bool)
    for blk in BLOCK_LAYOUT:
        sl = slice(blk.start * m, blk.stop * m)
        inside[sl, sl] = True
    return moved, np.abs(np.where(inside, 0.0, moved))


def block_decompose(op: np.ndarray, t_mat: np.ndarray, space: FockSpace) -> list[np.ndarray]:
    """Conjugate with ``block_leakage`` and slice out the blocks of ``BLOCK_LAYOUT``.

    Any entry outside the declared blocks larger than ``tol = 1e-12`` is an
    error, reported with its position; that check is what certifies the
    layout, so it is never skipped.
    """
    tol = 1e-12
    m = space.cutoff
    dim = t_mat.shape[0] * m
    if op.shape != (dim, dim):
        raise ValueError(f"operator shape {op.shape} does not match {dim} x {dim}")
    ortho = float(np.abs(t_mat.T @ t_mat - np.eye(t_mat.shape[0])).max())
    if ortho > tol:
        raise ValueError(f"basis change is not orthogonal: max|T^T T - 1| = {ortho:.3e}")
    moved, leak = block_leakage(op, t_mat, space)
    worst = float(leak.max())
    if worst > tol:
        row, col = np.unravel_index(int(leak.argmax()), leak.shape)
        raise ValueError(
            f"off-block leakage {worst:.3e} at entry ({row}, {col}) exceeds {tol:.1e}"
        )
    return [moved[blk.start * m : blk.stop * m, blk.start * m : blk.stop * m] for blk in BLOCK_LAYOUT]
