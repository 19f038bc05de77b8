"""State preparation, evolution, and cavity-QED observables.

States are flat complex vectors over the register-major composite basis.
Trajectories rebuild the propagator fresh at every requested time, which
keeps each sample independently checkable against the oracle; a stepped
mode that composes one short-time propagator is available for long
uniform grids and is tested against the fresh mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .fock import FockSpace
from .model import ModelParams
from .propagator import full_propagator
from .spins import AtomRegister, collective, twice_s3

__all__ = [
    "QuantumState",
    "Trajectory",
    "coherent_state",
    "product_state",
    "evolve",
    "atomic_inversion",
    "photon_distribution",
    "trajectory",
]


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
        norm = float(np.linalg.norm(self.amplitudes))
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"state norm {norm!r} deviates from one by more than 1e-6")

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

    Refused when ``|alpha|^2`` exceeds half the photon numbers below the
    guard band, because then the Poisson weight reaches into the corrupted
    top of the spectrum; the error message names the cutoff that would
    suffice.
    """
    mean = abs(alpha) ** 2
    if mean > (space.cutoff - space.guard) / 2.0:
        needed = math.ceil(2.0 * mean) + space.guard
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
    """Register basis state times an arbitrary normalized field vector."""
    if not 0 <= atomic_index < reg.levels:
        raise ValueError(f"atomic index {atomic_index} outside register of size {reg.n}")
    field_amps = np.asarray(field_amps, dtype=complex)
    if len(field_amps) != space.cutoff:
        raise ValueError(
            f"field vector length {len(field_amps)} does not match cutoff {space.cutoff}"
        )
    amps = np.zeros(reg.levels * space.cutoff, dtype=complex)
    start = atomic_index * space.cutoff
    amps[start : start + space.cutoff] = field_amps / np.linalg.norm(field_amps)
    state = QuantumState(amplitudes=amps, levels=reg.levels)
    if abs(np.linalg.norm(state.amplitudes) - 1.0) > 1e-9:
        raise ValueError("prepared state failed to normalize to 1e-9")
    return state


def evolve(state: QuantumState, u: np.ndarray) -> QuantumState:
    """Apply a propagator to a state."""
    return QuantumState(amplitudes=u @ state.amplitudes, levels=state.levels)


def atomic_inversion(state: QuantumState) -> float:
    """Expectation of the collective inversion ``S3``.

    Ranges from ``-n/2`` to ``n/2``; diagonal in the register basis, so it
    reads directly off the populations.
    """
    reg_size = state.levels.bit_length() - 1
    halves = np.repeat(twice_s3(AtomRegister(reg_size)), state.photon_dim) / 2.0
    return float(np.sum(halves * np.abs(state.amplitudes) ** 2))


def photon_distribution(state: QuantumState) -> np.ndarray:
    """Photon-number probabilities, marginalized over the register."""
    probs = np.abs(state.amplitudes.reshape(state.levels, state.photon_dim)) ** 2
    return probs.sum(axis=0)


def _builder(p: ModelParams, method: str):
    if method == "closed":
        return lambda t: full_propagator(t, p)
    if method == "oracle":
        return lambda t: oracle.evolution(t, p)
    raise ValueError(f"method must be 'closed' or 'oracle', got {method!r}")


def trajectory(
    p: ModelParams,
    initial: QuantumState,
    times: np.ndarray,
    method: str = "closed",
    mode: str = "fresh",
) -> Trajectory:
    """Evolve an initial state over a time grid and record observables.

    ``mode="fresh"`` builds the propagator from scratch at every grid point.
    ``mode="stepped"`` requires a uniform grid, builds the one-step
    propagator once, and composes it; much faster on long grids, with
    one multiplication of roundoff per step.
    """
    times = np.asarray(times, dtype=float)
    build = _builder(p, method)
    states: list[np.ndarray] = []
    if mode == "fresh":
        for t in times:
            states.append(build(float(t)) @ initial.amplitudes)
    elif mode == "stepped":
        steps = np.diff(times)
        if len(steps) and float(np.abs(steps - steps[0]).max()) > 1e-12:
            raise ValueError("stepped mode needs a uniformly spaced time grid")
        current = build(float(times[0])) @ initial.amplitudes if len(times) else None
        if len(times):
            states.append(current)
            if len(steps):
                u_step = build(float(steps[0]))
                for _ in steps:
                    current = u_step @ current
                    states.append(current)
    else:
        raise ValueError(f"mode must be 'fresh' or 'stepped', got {mode!r}")
    inversion = np.empty(len(times))
    photon = np.empty((len(times), initial.photon_dim))
    for k, amps in enumerate(states):
        st = QuantumState(amplitudes=amps, levels=initial.levels)
        inversion[k] = atomic_inversion(st)
        photon[k] = photon_distribution(st)
    return Trajectory(times=times, inversion=inversion, photon=photon)

