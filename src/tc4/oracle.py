"""Sector-exact reference evolution, independent of the closed form.

Total excitation number is conserved, truncation included, so both the
Hamiltonian and the bare interaction split into small sectors of fixed
excitation.  Each sector block is assembled straight from the ladder
weights, so no dense generator is formed; the leak check runs on the
register's raising matrix.  Exponentiating each block by dense
eigendecomposition gives a reference propagator whose only approximation is
the photon cutoff; the same eigensystems propagate a state over a whole
time grid without forming any propagator.  The closed form and this share
no code in either direction; that independence is the point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockSpace
from .model import ModelParams
from .spins import AtomRegister, collective, twice_s3

__all__ = [
    "SectorBasis",
    "sector_partition",
    "sectors",
    "sector_blocks",
    "sector_spectra",
    "exp_in_sectors",
    "exp_operator",
    "interaction_evolution",
    "evolution",
    "evolution_states",
]

# Per sector dimension d: the k sectors' basis indices (k, d) and blocks (k, d, d).
Blocks = list[tuple[np.ndarray, np.ndarray]]


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


def sector_blocks(
    plus: np.ndarray, weights: np.ndarray, space: FockSpace, omega=0.0, delta=0.0, g=1.0
) -> Blocks:
    """Sector blocks of ``omega (1 x N) + delta (S3 x 1) + g (S+ x a + S- x a_dag)``
    for the register raising matrix ``plus`` and doubled ``S3`` diagonal
    ``weights``: per sector dimension, ascending, the sectors' indices as
    ``sector_partition`` orders them and their complex blocks.  A nonzero
    ``S+[b', b]`` with ``w[b'] != w[b] + 2`` would couple two sectors; it
    raises ``ValueError`` naming the pair.
    """
    weights = np.asarray(weights, dtype=int)
    raised, lowered = np.nonzero(plus)
    leaks = weights[raised] != weights[lowered] + 2
    if leaks.any():
        row, col = raised[leaks][0], lowered[leaks][0]
        raise ValueError(
            f"raising matrix leaks between sectors: |S+[{row}, {col}]| = "
            f"{abs(plus[row, col]):.3e} joins doubled weights {weights[col]} and {weights[row]}"
        )
    secs = sector_partition(weights, space)
    out = []
    for size in sorted({sec.dim for sec in secs}):
        idx = np.array([sec.indices for sec in secs if sec.dim == size])
        level, photons = np.divmod(idx, space.cutoff)
        # (S+ x a)[i, j] = S+[b_i, b_j] a[n_i, n_j]; inside a sector S+ is
        # nonzero only where n_i = n_j - 1, so a[n_i, n_j] = sqrt(n_j).
        up = plus[level[:, :, None], level[:, None, :]] * np.sqrt(photons)[:, None, :]
        number, spin = np.zeros((2, *up.shape), dtype=complex)
        diag = np.arange(size)
        number[:, diag, diag] = photons
        spin[:, diag, diag] = weights[level] / 2
        # The dense generator's terms in its order, so each block is its
        # sector slice bit for bit, signed zeros included.
        out.append((idx, omega * number + delta * spin + g * (up + up.conj().transpose(0, 2, 1))))
    return out


def sector_spectra(blocks: Blocks) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per sector dimension ``d``, the ``k`` sectors' indices ``(k, d)``,
    eigenvalues ``(k, d)`` and eigenvectors ``(k, d, d)``, one batched
    ``eigh`` each.  A block further than 1e-12 from Hermitian is refused."""
    out = []
    for idx, h in blocks:
        defect = float(np.abs(h - h.conj().transpose(0, 2, 1)).max())
        if defect > 1e-12:
            raise ValueError(
                f"generator is not Hermitian: max|h - h^dag| = {defect:.3e} exceeds 1.0e-12"
            )
        out.append((idx, *np.linalg.eigh(h)))
    return out


def _phases(scale: complex | np.ndarray, w: np.ndarray) -> np.ndarray:
    """``exp(scale * w)``; a non-finite phase (a time so large that
    ``scale * w`` overflows) raises ``ValueError`` naming the scale."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(scale * w)
    if not np.isfinite(out).all():
        worst = float(np.abs(scale).max())
        raise ValueError(f"sector phase exp(scale * w) is not finite at |scale| up to {worst!r}")
    return out


def exp_in_sectors(blocks: Blocks, scale: complex, out: np.ndarray) -> np.ndarray:
    """Write ``exp(scale * h) = V exp(scale w) V^dag`` of every sector block
    (see ``sector_spectra``) into the zero matrix ``out`` and return it."""
    for idx, w, v in sector_spectra(blocks):
        # einsum, not a stacked matmul: on an Intel Xeon with AVX-512 the
        # stacked complex matmul (OpenBLAS small-matrix kernels) left later
        # float formatting in the process ~40% slower, and with it `tc4 build`.
        u = np.einsum("kij,kj,klj->kil", v, _phases(scale, w), v.conj())
        out[idx[:, :, None], idx[:, None, :]] = u
    return out


def exp_operator(scale: complex, plus: np.ndarray, weights: np.ndarray, space: FockSpace, *coeffs):
    """Dense ``exp(scale * G)`` for the generator of ``sector_blocks(plus,
    weights, space, *coeffs)``.  The output is allocated before the sectors
    are partitioned, so a size beyond memory fails at once."""
    out = np.zeros((len(weights) * space.cutoff,) * 2, dtype=complex)
    return exp_in_sectors(sector_blocks(plus, weights, space, *coeffs), scale, out)


def interaction_evolution(t: float, g: float, reg: AtomRegister, space: FockSpace) -> np.ndarray:
    """Reference ``exp(-i t g (S+ x a + S- x a_dag))`` via sectors."""
    return exp_operator(-1j * t * g, collective(reg).plus, twice_s3(reg), space)


def evolution(t: float, p: ModelParams) -> np.ndarray:
    """Reference propagator ``exp(-i t H)`` for any detuning, exponentiated
    per excitation sector."""
    plus, weights = collective(p.register).plus, twice_s3(p.register)
    return exp_operator(-1j * t, plus, weights, p.space, p.omega, p.delta, p.g)


def evolution_states(times: np.ndarray, p: ModelParams, psi: np.ndarray) -> np.ndarray:
    """Reference states ``exp(-i t H) psi``, one row per time of the 1-D
    array ``times``: each sector block is assembled and diagonalized once
    and ``V exp(-i t w) V^dag psi`` evaluated for all times together."""
    plus, weights = collective(p.register).plus, twice_s3(p.register)
    blocks = sector_blocks(plus, weights, p.space, p.omega, p.delta, p.g)
    scales = -1j * np.asarray(times, dtype=float)
    cols = psi.reshape(len(psi), -1)
    out = np.zeros((len(scales), *cols.shape), dtype=complex)
    for idx, w, v in sector_spectra(blocks):
        coeffs = np.einsum("kji,kjc->kic", v.conj(), cols[idx])
        phases = _phases(scales[:, None, None], w[None])
        out[:, idx] = np.einsum("kij,tkj,kjc->tkic", v, phases, coeffs)
    return out.reshape(len(scales), *psi.shape)
