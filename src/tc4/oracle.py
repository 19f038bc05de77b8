"""Sector-exact reference evolution, independent of the closed form.

Total excitation number is conserved, truncation included, so both the
Hamiltonian and the bare interaction split into small sectors of fixed
excitation.  Exponentiating each sector by dense eigendecomposition gives
a reference propagator whose only approximation is the photon cutoff
itself; the same sector eigensystems propagate a state over a whole time
grid without forming any propagator.  Nothing here shares code with the
closed-form amplitudes; that independence is the point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockSpace
from .model import ModelParams, hamiltonian, interaction
from .spins import AtomRegister, twice_s3

__all__ = [
    "SectorBasis",
    "sector_partition",
    "sectors",
    "sector_spectra",
    "exp_in_sectors",
    "evolve_in_sectors",
    "interaction_evolution",
    "evolution",
    "evolution_states",
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


def sector_spectra(
    op: np.ndarray, sector_list: list[SectorBasis]
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Eigendecompose every sector block of a sector-block-diagonal Hermitian
    operator, one batched ``eigh`` per sector dimension ``d``.  Returns, per
    dimension, the ``k`` sectors' basis indices ``(k, d)``, eigenvalues
    ``(k, d)`` and eigenvectors ``(k, d, d)``.

    Every entry of ``op`` connecting different sectors must vanish; a
    violation above 1e-12 is reported with its index pair rather than
    silently projected away.  A sector block further than 1e-12 from
    Hermitian is refused too.
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
    out = []
    for size in sorted({sec.dim for sec in sector_list}):
        idx = np.array([sec.indices for sec in sector_list if sec.dim == size])
        blocks = op[idx[:, :, None], idx[:, None, :]]
        defect = float(np.abs(blocks - blocks.conj().transpose(0, 2, 1)).max())
        if defect > 1e-12:
            raise ValueError(
                f"generator is not Hermitian: max|h - h^dag| = {defect:.3e} exceeds 1.0e-12"
            )
        out.append((idx, *np.linalg.eigh(blocks)))
    return out


def exp_in_sectors(op: np.ndarray, sector_list: list[SectorBasis], scale: complex) -> np.ndarray:
    """Exponential ``exp(scale * op)`` of a sector-block-diagonal operator,
    ``V exp(scale w) V^dag`` in each sector (see ``sector_spectra``)."""
    out = np.zeros(op.shape, dtype=complex)
    for idx, w, v in sector_spectra(op, sector_list):
        # einsum, not a stacked matmul: on an Intel Xeon with AVX-512 the
        # stacked complex matmul (OpenBLAS small-matrix kernels) left later
        # float formatting in the process ~40% slower, and with it `tc4 build`.
        blocks = np.einsum("kij,kj,klj->kil", v, np.exp(scale * w), v.conj())
        out[idx[:, :, None], idx[:, None, :]] = blocks
    return out


def evolve_in_sectors(
    op: np.ndarray, sector_list: list[SectorBasis], scales: np.ndarray, psi: np.ndarray
) -> np.ndarray:
    """``exp(s * op) @ psi`` for every ``s`` in the 1-D array ``scales``,
    without forming an exponential: each sector is diagonalized once and
    ``V exp(s w) V^dag psi`` evaluated for all ``s`` together.

    ``psi`` is one vector or a matrix of column vectors; the result has a
    leading axis over ``scales`` and then the shape of ``psi``.
    """
    scales = np.asarray(scales)
    cols = psi.reshape(len(psi), -1)
    out = np.zeros((len(scales), *cols.shape), dtype=complex)
    for idx, w, v in sector_spectra(op, sector_list):
        coeffs = np.einsum("kji,kjc->kic", v.conj(), cols[idx])
        phases = np.exp(scales[:, None, None] * w[None])
        out[:, idx] = np.einsum("kij,tkj,kjc->tkic", v, phases, coeffs)
    return out.reshape(len(scales), *psi.shape)


def interaction_evolution(t: float, g: float, reg: AtomRegister, space: FockSpace) -> np.ndarray:
    """Reference ``exp(-i t g (S+ x a + S- x a_dag))`` via sectors."""
    return exp_in_sectors(interaction(reg, space), sectors(reg, space), -1j * t * g)


def evolution(t: float, p: ModelParams) -> np.ndarray:
    """Reference propagator ``exp(-i t H)`` for any detuning, exponentiated
    per excitation sector."""
    return exp_in_sectors(hamiltonian(p), sectors(p.register, p.space), -1j * t)


def evolution_states(times: np.ndarray, p: ModelParams, psi: np.ndarray) -> np.ndarray:
    """Reference states ``exp(-i t H) psi``, one row per time of the 1-D
    array ``times``: the Hamiltonian is built and diagonalized once."""
    times = np.asarray(times, dtype=float)
    return evolve_in_sectors(hamiltonian(p), sectors(p.register, p.space), -1j * times, psi)
