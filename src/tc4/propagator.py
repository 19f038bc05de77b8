"""Closed-form evolution operators for the four-atom register.

At exact resonance the propagator factors into a free part, diagonal in
the composite basis, and an interaction part ``exp(-i t g A)``.  After the
constant basis change of ``model.transform_t`` the interaction is block
diagonal: the scalar blocks exponentiate to one, the spin-1 blocks are
small enough to exponentiate per excitation sector, and the spin-2 block
has a genuine closed form, written as a five-by-five grid of terms
"amplitude function of the shifted photon number, times a ladder power".

Each amplitude is built from the spectral data of one excitation sector:
two squared frequencies (the nonzero sector eigenvalues come in opposite
pairs) and weight coefficients.  Everything is evaluated through the
entire extensions ``entire_cos`` and ``entire_sinc`` so the expressions
stay real and finite when a squared frequency crosses zero at the bottom
of the spectrum.

Two entries of the published amplitude table this reproduces are
misprinted; see CORRECTIONS.md at the repository root.  The corrected
forms are the default, the misprinted ones stay available behind
``printed=True`` so the failure is demonstrable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, NumberFunction, entire_cos, entire_sinc, number_fn_term
from .model import BLOCK_LAYOUT, ModelParams, multiplet_interaction, transform_t
from .oracle import exp_in_sectors, interaction_evolution, sector_partition
from .spins import twice_s3

__all__ = [
    "SpectralParams",
    "spectral_params",
    "Spin2Amplitudes",
    "spin2_amplitudes",
    "exp_spin2_block",
    "exp_spin1_block",
    "interaction_propagator",
    "full_propagator",
]


@dataclass(frozen=True)
class SpectralParams:
    """Spectral data of the five-dimensional excitation sector at integer
    argument ``m``.

    ``disc`` is the discriminant ``4 m^2 + 4 m + 9``, never below eight, and
    ``root`` its square root.  ``lam_plus`` and ``lam_minus`` are the squared
    sector frequencies; the ``u``, ``v``, ``w`` pairs are the weights the
    amplitude functions combine them with.  A squared frequency may be
    negative near the bottom of the spectrum, but only where its weight
    vanishes or the entire extensions keep the result bounded.
    """

    m: int
    disc: float
    root: float
    lam_plus: float
    lam_minus: float
    u_plus: float
    u_minus: float
    v_plus: float
    v_minus: float
    w_plus: float
    w_minus: float


def spectral_params(m: int) -> SpectralParams:
    """Discriminant, squared frequencies, and weights at integer ``m``."""
    disc = float(4 * m * m + 4 * m + 9)
    root = math.sqrt(disc)
    half = math.sqrt(1.5)
    return SpectralParams(
        m=m,
        disc=disc,
        root=root,
        lam_plus=10.0 * m + 5.0 + 3.0 * root,
        lam_minus=10.0 * m + 5.0 - 3.0 * root,
        u_plus=0.5 * (-3.0 + root),
        u_minus=0.5 * (-3.0 - root),
        v_plus=half * (2 * m - 1 + root),
        v_minus=half * (2 * m - 1 - root),
        w_plus=half * (2 * m + 3 + root),
        w_minus=half * (2 * m + 3 - root),
    )


@dataclass(frozen=True)
class Spin2Amplitudes:
    """Transition amplitudes between the five projection levels of the
    spin-2 block, all evaluated at one integer argument.

    ``stay_*`` are the survival amplitudes from projection +2 down to -2;
    ``hopK_*`` transfer ``K`` photons, the suffix naming the upper level of
    the pair.  The one-photon and three-photon families sit on the odd
    checkerboard and enter the propagator with a factor ``-i``.
    """

    stay_pp: complex
    stay_p: complex
    stay_0: complex
    stay_m: complex
    stay_mm: complex
    hop1_pp: complex
    hop1_p: complex
    hop1_m: complex
    hop1_mm: complex
    hop2_p: complex
    hop2_0: complex
    hop2_m: complex
    hop3: complex
    hop4: complex


def spin2_amplitudes(t: float, g: float, m: int, printed: bool = False) -> Spin2Amplitudes:
    """Evaluate the fourteen amplitude functions at argument ``m``.

    ``printed=True`` reproduces the two misprinted entries of the published
    table (see CORRECTIONS.md): the spin-0 survival with a spurious factor
    two, and the lowest one-photon amplitude with its frequencies paired
    head to head, which even goes complex where a squared frequency is
    negative.  Default is the corrected, oracle-verified form.
    """
    x = t * g
    p = spectral_params(m)
    cp = entire_cos(p.lam_plus, x)
    cm = entire_cos(p.lam_minus, x)
    sp = entire_sinc(p.lam_plus, x)
    sm = entire_sinc(p.lam_minus, x)
    dp = (cp - 1.0) / p.lam_plus
    dm = (cm - 1.0) / p.lam_minus
    rd = p.root

    spin0_weight = 2.0 if printed else 1.0
    if printed:
        rp = np.sqrt(complex(p.lam_plus))
        rm = np.sqrt(complex(p.lam_minus))
        hop1_mm = ((p.u_plus / rp) * np.sin(x * rm) - (p.u_minus / rm) * np.sin(x * rp)) / rd
        hop1_mm = complex(hop1_mm)
    else:
        hop1_mm = (p.u_plus * sm - p.u_minus * sp) / rd

    return Spin2Amplitudes(
        stay_pp=1.0 + 4.0 * (m - 1) * (p.u_plus * dp - p.u_minus * dm) / rd,
        stay_p=(p.u_plus * cp - p.u_minus * cm) / rd,
        stay_0=1.0 + spin0_weight * (p.v_plus * p.w_plus * dp - p.v_minus * p.w_minus * dm) / rd,
        stay_m=(p.u_plus * cm - p.u_minus * cp) / rd,
        stay_mm=1.0 + 4.0 * (m + 2) * (p.u_plus * dm - p.u_minus * dp) / rd,
        hop1_pp=(p.u_plus * sp - p.u_minus * sm) / rd,
        hop1_p=2.0 * (p.v_plus * sp - p.v_minus * sm) / rd,
        hop1_m=2.0 * (p.w_plus * sp - p.w_minus * sm) / rd,
        hop1_mm=hop1_mm,
        hop2_p=2.0 * (p.v_plus * dp - p.v_minus * dm) / rd,
        hop2_0=(cp - cm) / rd,
        hop2_m=2.0 * (p.w_plus * dp - p.w_minus * dm) / rd,
        hop3=(sp - sm) / rd,
        hop4=4.0 * (dp - dm) / rd,
    )


# Layout of the spin-2 block exponential over the five projection levels,
# ordered by descending projection.  Each entry is
# (row, col, amplitude, argument shift, ladder power, ladder side); the
# first table fills the even checkerboard, the second the odd one, whose
# terms carry an extra prefactor and a global factor -i.
_COS_GRID = (
    (0, 0, "stay_pp", 2, 0, "diagonal"),
    (1, 1, "stay_p", 1, 0, "diagonal"),
    (2, 2, "stay_0", 0, 0, "diagonal"),
    (3, 3, "stay_m", -1, 0, "diagonal"),
    (4, 4, "stay_mm", -2, 0, "diagonal"),
    (0, 2, "hop2_p", 2, 2, "lower"),
    (2, 0, "hop2_p", 0, 2, "raise"),
    (1, 3, "hop2_0", 1, 2, "lower"),
    (3, 1, "hop2_0", -1, 2, "raise"),
    (2, 4, "hop2_m", 0, 2, "lower"),
    (4, 2, "hop2_m", -2, 2, "raise"),
    (0, 4, "hop4", 2, 4, "lower"),
    (4, 0, "hop4", -2, 4, "raise"),
)
_SIN_GRID = (
    (0, 1, "hop1_pp", 2, 1, "lower", 2.0),
    (1, 0, "hop1_pp", 1, 1, "raise", 2.0),
    (1, 2, "hop1_p", 1, 1, "lower", 0.5),
    (2, 1, "hop1_p", 0, 1, "raise", 0.5),
    (2, 3, "hop1_m", 0, 1, "lower", 0.5),
    (3, 2, "hop1_m", -1, 1, "raise", 0.5),
    (3, 4, "hop1_mm", -1, 1, "lower", 2.0),
    (4, 3, "hop1_mm", -2, 1, "raise", 2.0),
    (0, 3, "hop3", 2, 3, "lower", 2.0),
    (3, 0, "hop3", -1, 3, "raise", 2.0),
    (1, 4, "hop3", 1, 3, "lower", 2.0),
    (4, 1, "hop3", -2, 3, "raise", 2.0),
)


def exp_spin2_block(t: float, g: float, space: FockSpace, printed: bool = False) -> np.ndarray:
    """Closed-form ``exp(-i t g B)`` for the spin-2 coupling block."""
    m_dim = space.cutoff
    cache: dict[int, Spin2Amplitudes] = {}

    def amp(name: str) -> NumberFunction:
        def value(m: int) -> complex:
            if m not in cache:
                cache[m] = spin2_amplitudes(t, g, m, printed)
            return getattr(cache[m], name)

        return NumberFunction(value, name)

    out = np.zeros((5 * m_dim, 5 * m_dim), dtype=complex)
    for row, col, name, shift, power, side in _COS_GRID:
        out[row * m_dim : (row + 1) * m_dim, col * m_dim : (col + 1) * m_dim] += number_fn_term(
            space, amp(name), shift, power, side
        )
    for row, col, name, shift, power, side, factor in _SIN_GRID:
        out[row * m_dim : (row + 1) * m_dim, col * m_dim : (col + 1) * m_dim] += (
            -1j * factor
        ) * number_fn_term(space, amp(name), shift, power, side)
    return out


def exp_spin1_block(t: float, g: float, space: FockSpace) -> np.ndarray:
    """``exp(-i t g B)`` for the spin-1 coupling block.

    Sectors here are at most three-dimensional, so exact per-sector
    eigendecomposition is both simpler and tighter than transcribing
    another amplitude table.
    """
    gen = multiplet_interaction(2, space)
    secs = sector_partition(np.array([2, 0, -2]), space)
    return exp_in_sectors(gen, secs, -1j * t * g)


def interaction_propagator(
    t: float, g: float, space: FockSpace, printed: bool = False
) -> np.ndarray:
    """Closed-form ``exp(-i t g A)`` for the four-atom interaction.

    Assembles the block exponentials in the transformed basis and
    conjugates back with the constant basis change.
    """
    m = space.cutoff
    core = np.eye(16 * m, dtype=complex)
    eb1 = exp_spin1_block(t, g, space)
    eb2 = exp_spin2_block(t, g, space, printed)
    for blk in BLOCK_LAYOUT:
        sl = slice(blk.start * m, blk.stop * m)
        if blk.kind == "spin1":
            core[sl, sl] = eb1
        elif blk.kind == "spin2":
            core[sl, sl] = eb2
    big = np.kron(transform_t(), np.eye(m))
    return big @ core @ big.T


def _free_phases(t: float, p: ModelParams) -> np.ndarray:
    """Diagonal of the free propagator ``exp(-i t omega (S3 x 1 + 1 x N))``."""
    halves = np.repeat(twice_s3(p.register), p.space.cutoff) / 2.0
    photons = np.tile(np.arange(p.space.cutoff), p.register.levels)
    return np.exp(-1j * t * p.omega * (halves + photons))


def full_propagator(t: float, p: ModelParams, printed: bool = False) -> np.ndarray:
    """Resonant propagator ``exp(-i t H)`` as free part times interaction part.

    The factorization holds only at exact resonance; off resonance the
    request is refused and the caller should use ``oracle.evolution``,
    which handles any detuning.  Registers smaller than four have no
    hand-written block form and route the interaction part through the
    sector oracle.
    """
    if not p.resonant:
        raise ValueError(
            "closed-form factorization requires resonance (delta == omega); "
            "use oracle.evolution for detuned parameters"
        )
    if p.atoms == 4:
        inter = interaction_propagator(t, p.g, p.space, printed)
    else:
        inter = interaction_evolution(t, p.g, p.register, p.space)
    return _free_phases(t, p)[:, None] * inter
