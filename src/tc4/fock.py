"""Truncated photon mode: ladder operators and number-function calculus.

The cavity mode lives on the first ``cutoff`` number states.  Truncation
corrupts the top of the spectrum, so every space carries a ``guard`` band:
rows and columns whose photon index is within ``guard`` of the cutoff are
excluded from any comparison that is supposed to reflect the untruncated
operator.  Interaction terms move at most four photons, so a guard of six
leaves the retained block exactly equal to its infinite-space value.

``number_fn_term`` builds matrices of the shape "diagonal function of the
shifted photon number, times a ladder power" that the closed-form spin-2
block is made of; the tests assemble the block from it as the reference
for the vectorized form in ``propagator``.  The convention is ladder
first, then the diagonal function evaluated at the photon number *after*
the ladder acted, plus the shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "FockSpace",
    "NumberFunction",
    "ladder",
    "number_fn_term",
    "safe_indices",
]

_SIDES = ("lower", "raise", "diagonal")


@dataclass(frozen=True)
class FockSpace:
    """Photon-number truncation with a guard band.

    cutoff
        Number of retained Fock states (photon numbers ``0 .. cutoff-1``).
    guard
        Width of the band, counted down from the cutoff, treated as
        truncation-corrupted.  Must cover the largest photon transfer of
        any operator compared on the space; four-atom interactions move
        up to four photons, hence the minimum of six.
    """

    cutoff: int
    guard: int = 6

    def __post_init__(self) -> None:
        if self.cutoff < 8:
            raise ValueError(f"cutoff must be at least 8, got {self.cutoff}")
        if self.guard < 6:
            raise ValueError(f"guard must be at least 6, got {self.guard}")
        if self.guard >= self.cutoff:
            raise ValueError(
                f"guard {self.guard} leaves no usable states below cutoff {self.cutoff}"
            )

    @property
    def safe_top(self) -> int:
        """First photon number considered truncation-corrupted."""
        return self.cutoff - self.guard


@dataclass(frozen=True)
class NumberFunction:
    """Scalar function defined on all integers, with a label for error messages.

    Amplitude functions get evaluated at shifted photon numbers, and near
    the bottom of the spectrum the shift drives the argument negative, so
    the callable must accept any integer.
    """

    fn: Callable[[int], complex]
    label: str = "f"

    def __call__(self, m: int) -> complex:
        return self.fn(m)


def ladder(space: FockSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Annihilation, creation, and number operators on the truncated mode.

    Returns ``(a, a_dag, n)`` with ``a[m-1, m] = sqrt(m)`` and ``a_dag``
    the exact conjugate transpose.  On the truncated space
    ``[a, a_dag]`` equals the identity except for the ``(cutoff-1, cutoff-1)``
    entry, which is ``-(cutoff-1)``; that artifact is what the guard band
    exists to contain.
    """
    m = space.cutoff
    a = np.zeros((m, m), dtype=complex)
    root = np.sqrt(np.arange(1, m))
    a[np.arange(m - 1), np.arange(1, m)] = root
    a_dag = a.conj().T.copy()
    n = np.diag(np.arange(m, dtype=float)).astype(complex)
    return a, a_dag, n


def number_fn_term(
    space: FockSpace,
    f: NumberFunction,
    shift: int,
    ladder_power: int,
    side: str,
) -> np.ndarray:
    """Matrix ``f(N + shift) * L^ladder_power`` on the truncated mode.

    ``side`` picks the ladder direction: ``"lower"`` uses the annihilator,
    ``"raise"`` the creator, ``"diagonal"`` no ladder at all.  The diagonal
    factor acts after the ladder, i.e. entry ``(j, k)`` of the result is
    ``f(j + shift)`` times the ladder amplitude connecting ``k`` to ``j``.
    """
    if side not in _SIDES:
        raise ValueError(f"side must be one of {_SIDES}, got {side!r}")
    if not 0 <= ladder_power <= 4:
        raise ValueError(f"ladder_power must be nonnegative and at most 4, got {ladder_power}")
    m = space.cutoff
    diag = np.diag([complex(f(j + shift)) for j in range(m)])
    if side == "diagonal":
        return diag
    a, a_dag, _ = ladder(space)
    step = a if side == "lower" else a_dag
    return diag @ np.linalg.matrix_power(step, ladder_power)


def safe_indices(space: FockSpace, levels: int) -> np.ndarray:
    """Composite indices whose photon part lies below the guard band.

    The composite ordering is register-major: index ``b * cutoff + m``
    addresses register level ``b`` and photon number ``m``.
    """
    keep = np.arange(space.cutoff) < space.safe_top
    return np.where(np.tile(keep, levels))[0]
