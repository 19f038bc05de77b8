"""State preparation, evolution, and cavity-QED observables.

States are flat complex vectors over the register-major composite basis.
Trajectories propagate the initial state, never an operator: each route
evaluates the state at every requested time in one vectorized pass
(``propagator.full_states`` or ``oracle.evolution_states``), fresh at
each time, so no roundoff accumulates along the grid and every sample
stays independently checkable against the oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .fock import FockSpace
from .model import ModelParams
from .propagator import full_states
from .spins import AtomRegister, twice_s3

__all__ = [
    "QuantumState",
    "Trajectory",
    "coherent_state",
    "product_state",
    "trajectory",
]


def _check_norm(norm: float) -> None:
    if not abs(norm - 1.0) <= 1e-6:  # a NaN norm fails too
        raise ValueError(f"state norm {norm!r} deviates from one by more than 1e-6")


@dataclass(frozen=True)
class QuantumState:
    """Normalized state of the register-plus-mode composite.

    ``levels`` is the register dimension; the photon dimension is implied
    by the amplitude length.  Preparation routines deliver unit norm to
    machine precision; evolution under a truncated propagator may shed as
    much norm as the state puts into the guard band, so the constructor
    only rejects gross violations.
    """

    amplitudes: np.ndarray
    levels: int

    def __post_init__(self) -> None:
        if len(self.amplitudes) % self.levels != 0:
            raise ValueError(
                f"amplitude length {len(self.amplitudes)} not divisible by {self.levels} levels"
            )
        _check_norm(float(np.linalg.norm(self.amplitudes)))

    @property
    def photon_dim(self) -> int:
        return len(self.amplitudes) // self.levels


@dataclass(frozen=True)
class Trajectory:
    """Inversion and photon statistics along a time grid."""

    times: np.ndarray
    inversion: np.ndarray
    photon: np.ndarray


def coherent_state(alpha: complex, space: FockSpace) -> np.ndarray:
    """Truncated coherent state of the mode, renormalized on the cutoff.

    Refused with ``ValueError`` when ``alpha`` is not finite, or when
    ``|alpha|^2`` exceeds half the photon numbers below the guard band,
    because then the Poisson weight reaches into the corrupted top of the
    spectrum; the error message names the cutoff that would suffice.
    """
    if not cmath.isfinite(alpha):
        raise ValueError(f"coherent amplitude must be finite, got {alpha!r}")
    try:
        mean = abs(alpha) ** 2
        needed = math.ceil(2.0 * mean) + space.guard
    except OverflowError:
        raise ValueError(f"coherent amplitude {alpha!r} is too large for any cutoff") from None
    if mean > (space.cutoff - space.guard) / 2.0:
        raise ValueError(
            f"coherent amplitude |alpha|^2 = {mean:.3f} too large for cutoff "
            f"{space.cutoff}; need a cutoff of at least {needed}"
        )
    m = np.arange(space.cutoff)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, space.cutoff)))))
    amps = np.exp(-mean / 2.0 + m * np.log(complex(alpha) if alpha else 1.0) - log_fact / 2.0)
    if alpha == 0:
        amps = np.zeros(space.cutoff, dtype=complex)
        amps[0] = 1.0
    return amps / np.linalg.norm(amps)


def product_state(
    atomic_index: int, field_amps: np.ndarray, reg: AtomRegister, space: FockSpace
) -> QuantumState:
    """Register basis state times an arbitrary field vector, normalized here;
    a field vector that is not finite or has zero norm is refused.  The
    vector is first divided by the largest power of two not above its
    largest component, so its norm cannot overflow, and the exact scaling
    leaves the normalized result as the unscaled division gives it."""
    if not 0 <= atomic_index < reg.levels:
        raise ValueError(f"atomic index {atomic_index} outside register of size {reg.n}")
    field_amps = np.ascontiguousarray(field_amps, dtype=complex)
    if len(field_amps) != space.cutoff:
        raise ValueError(
            f"field vector length {len(field_amps)} does not match cutoff {space.cutoff}"
        )
    peak = float(np.abs(field_amps.view(float)).max())
    if not (np.isfinite(peak) and peak > 0.0):
        raise ValueError(
            f"field vector must be finite with a nonzero norm, got largest component {peak!r}"
        )
    field_amps = (field_amps.view(float) / math.ldexp(1.0, math.frexp(peak)[1] - 1)).view(complex)
    norm = float(np.linalg.norm(field_amps))
    amps = np.zeros(reg.levels * space.cutoff, dtype=complex)
    start = atomic_index * space.cutoff
    amps[start : start + space.cutoff] = field_amps / norm
    state = QuantumState(amplitudes=amps, levels=reg.levels)
    if abs(np.linalg.norm(state.amplitudes) - 1.0) > 1e-9:
        raise ValueError("prepared state failed to normalize to 1e-9")
    return state


def trajectory(
    p: ModelParams,
    initial: QuantumState,
    times: np.ndarray,
    method: str = "closed",
) -> Trajectory:
    """Evolve an initial state over a time grid and record observables.

    ``method="closed"`` propagates the state through the closed form (four
    atoms at resonance only), ``"oracle"`` through the sector eigensystems
    of the Hamiltonian (any register and detuning).  Either way the state
    at every time of the grid, in any order or spacing, is evaluated
    directly from the initial one; no propagator is formed.  A state whose
    norm strays from one by more than 1e-6 is refused, as in ``QuantumState``.
    """
    times = np.asarray(times, dtype=float)
    if method == "closed":
        states = full_states(times, p, initial.amplitudes)
    elif method == "oracle":
        states = oracle.evolution_states(times, p, initial.amplitudes)
    else:
        raise ValueError(f"method must be 'closed' or 'oracle', got {method!r}")
    norms = np.linalg.norm(states, axis=1)
    if len(norms):
        _check_norm(float(norms[np.argmax(np.abs(norms - 1.0))]))
    probs = (np.abs(states) ** 2).reshape(len(times), initial.levels, initial.photon_dim)
    inversion = probs.sum(axis=2) @ (twice_s3(p.register) / 2.0)
    return Trajectory(times=times, inversion=inversion, photon=probs.sum(axis=1))
