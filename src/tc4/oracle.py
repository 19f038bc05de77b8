"""Sector-exact reference evolution, independent of the closed form.

Total excitation number is conserved, truncation included, so both the
Hamiltonian and the bare interaction split into small sectors of fixed
excitation.  Exponentiating each sector by dense eigendecomposition gives
a reference propagator whose only approximation is the photon cutoff
itself.  Nothing here shares code with the closed-form amplitudes; that
independence is the point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockSpace
from .linalg import expm_hermitian
from .model import ModelParams, hamiltonian, interaction
from .spins import AtomRegister, twice_s3

__all__ = [
    "SectorBasis",
    "sector_partition",
    "sectors",
    "exp_in_sectors",
    "interaction_evolution",
    "evolution",
]


@dataclass(frozen=True)
class SectorBasis:
    """Composite basis indices sharing one excitation eigenvalue.

    ``key`` stores twice the excitation number, offset so the lowest
    sector is zero; doubling keeps keys integer for half-integer register
    weights.
    """

    key: int
    indices: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.indices)


def sector_partition(weights: np.ndarray, space: FockSpace) -> list[SectorBasis]:
    """Partition the composite basis by doubled excitation number.

    ``weights`` holds twice the register-level contribution per level; the
    photon contributes twice its number.  Sectors are returned in
    ascending key order with indices ascending inside each, so the
    partition is deterministic.
    """
    weights = np.asarray(weights, dtype=int)
    m = space.cutoff
    doubled = np.repeat(weights, m) + 2 * np.tile(np.arange(m), len(weights))
    doubled -= doubled.min()
    return [
        SectorBasis(key=int(key), indices=np.where(doubled == key)[0])
        for key in np.unique(doubled)
    ]


def sectors(reg: AtomRegister, space: FockSpace) -> list[SectorBasis]:
    """Excitation sectors of a register-plus-mode composite."""
    return sector_partition(twice_s3(reg), space)


def exp_in_sectors(op: np.ndarray, sector_list: list[SectorBasis], scale: complex) -> np.ndarray:
    """Exponential ``exp(scale * op)`` of a sector-block-diagonal operator.

    Every entry of ``op`` connecting different sectors must vanish; a
    violation above 1e-12 is reported with its index pair rather
    than silently projected away.  Each sector block is exponentiated
    exactly by Hermitian eigendecomposition.
    """
    dim = op.shape[0]
    keys = np.empty(dim, dtype=int)
    for sec in sector_list:
        keys[sec.indices] = sec.key
    leak = np.abs(np.where(keys[:, None] != keys[None, :], op, 0.0))
    worst = float(leak.max())
    if worst > 1e-12:
        row, col = np.unravel_index(int(leak.argmax()), leak.shape)
        raise ValueError(
            f"operator leaks between sectors: |op[{row}, {col}]| = {worst:.3e} "
            "exceeds 1.0e-12"
        )
    out = np.zeros((dim, dim), dtype=complex)
    for sec in sector_list:
        ix = np.ix_(sec.indices, sec.indices)
        out[ix] = expm_hermitian(op[ix], scale)
    return out


def interaction_evolution(t: float, g: float, reg: AtomRegister, space: FockSpace) -> np.ndarray:
    """Reference ``exp(-i t g (S+ x a + S- x a_dag))`` via sectors."""
    return exp_in_sectors(interaction(reg, space), sectors(reg, space), -1j * t * g)


def evolution(t: float, p: ModelParams) -> np.ndarray:
    """Reference propagator ``exp(-i t H)`` for any detuning, exponentiated
    per excitation sector."""
    return exp_in_sectors(hamiltonian(p), sectors(p.register, p.space), -1j * t)
