"""Registers of two-level atoms and their collective spin operators.

Register basis: the ``n`` atoms are read as a big-endian bit string, and
bit value 0 means the atom sits in its *upper* level.  So index 0 is all
atoms excited and index ``2**n - 1`` is all atoms in the ground state.
Single-atom operators use the convention ``sigma_plus = [[0, 1], [0, 0]]``,
``sigma_3 = diag(1, -1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "SIGMA_3",
    "AtomRegister",
    "CollectiveSpins",
    "sigma_embed",
    "collective",
    "twice_s3",
    "su2_check",
    "spin_matrices",
]

SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)

_PAULI = {"plus": SIGMA_PLUS, "minus": SIGMA_MINUS, "three": SIGMA_3}


@dataclass(frozen=True)
class AtomRegister:
    """A register of ``n`` identical two-level atoms, ``1 <= n <= 4``."""

    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= 4:
            raise ValueError(f"register size must be between 1 and 4, got {self.n}")

    @property
    def levels(self) -> int:
        return 2**self.n


@dataclass(frozen=True)
class CollectiveSpins:
    """Collective raising, lowering, and inversion operators of a register."""

    plus: np.ndarray
    minus: np.ndarray
    three: np.ndarray


def sigma_embed(reg: AtomRegister, which: str, atom: int) -> np.ndarray:
    """Single-atom operator acting on ``atom`` (1-based) inside the register.

    ``which`` is one of ``"plus"``, ``"minus"``, ``"three"``.
    """
    if which not in _PAULI:
        raise ValueError(f"which must be one of {tuple(_PAULI)}, got {which!r}")
    if not 1 <= atom <= reg.n:
        raise ValueError(f"atom index {atom} outside register of size {reg.n}")
    out = np.eye(1, dtype=complex)
    for site in range(1, reg.n + 1):
        out = np.kron(out, _PAULI[which] if site == atom else _ID2)
    return out


def collective(reg: AtomRegister) -> CollectiveSpins:
    """Sum of the single-atom operators over the register.

    The inversion operator is half the sum of the individual ``sigma_3``,
    so its eigenvalues run from ``-n/2`` to ``n/2`` in integer steps.
    """
    dim = reg.levels
    plus = np.zeros((dim, dim), dtype=complex)
    three = np.zeros((dim, dim), dtype=complex)
    for atom in range(1, reg.n + 1):
        plus += sigma_embed(reg, "plus", atom)
        three += sigma_embed(reg, "three", atom)
    return CollectiveSpins(plus=plus, minus=plus.conj().T.copy(), three=0.5 * three)


def twice_s3(reg: AtomRegister) -> np.ndarray:
    """Diagonal of the collective inversion operator, doubled to stay integer.

    Entry ``b`` is ``n - 2 * popcount(b)``: each set bit is one atom in its
    lower level.
    """
    return np.array([reg.n - 2 * bin(b).count("1") for b in range(reg.levels)])


def su2_check(spins: CollectiveSpins) -> tuple[float, float, float]:
    """Residuals of the angular-momentum algebra for a candidate triple.

    Returns the largest entrywise errors of
    ``[S3, S+] - S+``, ``[S3, S-] + S-``, ``[S+, S-] - 2 S3``.
    All three vanish exactly for operators built from small integers.
    """

    def comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b - b @ a

    r1 = float(np.abs(comm(spins.three, spins.plus) - spins.plus).max())
    r2 = float(np.abs(comm(spins.three, spins.minus) + spins.minus).max())
    r3 = float(np.abs(comm(spins.plus, spins.minus) - 2.0 * spins.three).max())
    return r1, r2, r3


def spin_matrices(two_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Irreducible spin multiplet of dimension ``two_j + 1``.

    Basis ordered by descending projection.  Returns ``(plus, minus, three)``
    with ``plus[r-1, r] = sqrt(r * (two_j + 1 - r))``.
    """
    if two_j < 0:
        raise ValueError(f"two_j must be nonnegative, got {two_j}")
    dim = two_j + 1
    plus = np.zeros((dim, dim), dtype=complex)
    for r in range(1, dim):
        plus[r - 1, r] = np.sqrt(r * (dim - r))
    three = np.diag([(two_j - 2 * r) / 2.0 for r in range(dim)]).astype(complex)
    return plus, plus.conj().T.copy(), three
