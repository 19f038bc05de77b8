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
pairs) and weight coefficients.  Amplitudes are evaluated on whole arrays
of times and arguments, and the grid of terms is applied to vectors, so a
trajectory (``full_states``) propagates its state over every time at once
without forming a propagator; the operator (``full_propagator``) is the
same action applied to the identity, so no dense change of basis is
ever formed.

Two entries of the published amplitude table this reproduces are
misprinted; see CORRECTIONS.md at the repository root.  The corrected
forms are the default, the misprinted ones stay available behind
``printed=True`` of ``spin2_amplitudes`` and ``exp_spin2_block`` so the
failure is demonstrable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockSpace
from .model import BLOCK_LAYOUT, ModelParams, transform_t
from .oracle import evolve_in_sectors, exp_operator, interaction_evolution, sector_blocks
from .spins import collective, spin_matrices, twice_s3

__all__ = [
    "SpectralParams",
    "spectral_params",
    "Spin2Amplitudes",
    "spin2_amplitudes",
    "exp_spin2_block",
    "exp_spin1_block",
    "interaction_propagator",
    "interaction_states",
    "full_propagator",
    "full_states",
]


@dataclass(frozen=True)
class SpectralParams:
    """Spectral data of the five-dimensional excitation sector at integer
    argument ``m`` (every field has the shape of ``m``).

    ``disc`` is the discriminant ``4 m^2 + 4 m + 9``, never below eight, and
    ``root`` its square root.  ``lam_plus`` and ``lam_minus`` are the squared
    sector frequencies; the ``u``, ``v``, ``w`` pairs are the weights the
    amplitude functions combine them with.  A squared frequency is negative
    only at the bottom of the spectrum, ``lam_minus`` for ``m <= 0`` and
    ``lam_plus`` for ``m <= -2``; it is never zero.
    """

    m: np.ndarray
    disc: np.ndarray
    root: np.ndarray
    lam_plus: np.ndarray
    lam_minus: np.ndarray
    u_plus: np.ndarray
    u_minus: np.ndarray
    v_plus: np.ndarray
    v_minus: np.ndarray
    w_plus: np.ndarray
    w_minus: np.ndarray


def spectral_params(m: np.ndarray) -> SpectralParams:
    """Discriminant, squared frequencies, and weights at integer ``m``, a
    number or an array."""
    m = np.asarray(m)
    disc = 4.0 * m * m + 4.0 * m + 9.0
    root = np.sqrt(disc)
    half = np.sqrt(1.5)
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
    spin-2 block, each an array over the broadcast times and arguments.

    ``stay_*`` are the survival amplitudes from projection +2 down to -2;
    ``hopK_*`` transfer ``K`` photons, the suffix naming the upper level of
    the pair.  The one-photon and three-photon families sit on the odd
    checkerboard and enter the propagator with a factor ``-i``.
    """

    stay_pp: np.ndarray
    stay_p: np.ndarray
    stay_0: np.ndarray
    stay_m: np.ndarray
    stay_mm: np.ndarray
    hop1_pp: np.ndarray
    hop1_p: np.ndarray
    hop1_m: np.ndarray
    hop1_mm: np.ndarray
    hop2_p: np.ndarray
    hop2_0: np.ndarray
    hop2_m: np.ndarray
    hop3: np.ndarray
    hop4: np.ndarray


def spin2_amplitudes(
    t: np.ndarray, g: float, m: np.ndarray, printed: bool = False
) -> Spin2Amplitudes:
    """Evaluate the fourteen amplitude functions at times ``t`` and integer
    arguments ``m``, numbers or arrays that broadcast together.

    A branch whose squared frequency is negative is held at its ``t = 0``
    value instead of being evaluated.  Wherever the spin-2 block reads an
    amplitude, such a branch carries a weight of exactly zero (``u_plus``
    at ``m`` in {-1, 0}, ``w_minus`` at ``m = 0``, ``4 (m + 2)`` at
    ``m = -2``); every other negative branch belongs to an argument the
    block never reads, because the ladder coefficient of its entry is zero.
    So no hyperbolic function is ever computed and nothing overflows at
    large ``t g``, and only the amplitudes at unread arguments can differ from
    the analytic continuation of the formulas.  A non-finite amplitude
    raises ``ValueError``.

    ``printed=True`` reproduces the two misprinted entries of the published
    table (see CORRECTIONS.md): the spin-0 survival with a spurious factor
    two, and the lowest one-photon amplitude with its frequencies paired
    head to head, which even goes complex where a squared frequency is
    negative.  Default is the corrected, oracle-verified form.
    """
    p = spectral_params(m)
    rd = p.root
    # A non-finite t g, or one so large that x * sqrt(lam) overflows, is
    # reported by the check below rather than by floating-point warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.multiply(t, g)
        xp = np.where(p.lam_plus > 0.0, x, 0.0)
        xm = np.where(p.lam_minus > 0.0, x, 0.0)
        rp = np.sqrt(np.abs(p.lam_plus))
        rm = np.sqrt(np.abs(p.lam_minus))
        cp = np.cos(xp * rp)
        cm = np.cos(xm * rm)
        sp = np.sin(xp * rp) / rp
        sm = np.sin(xm * rm) / rm
        dp = (cp - 1.0) / p.lam_plus
        dm = (cm - 1.0) / p.lam_minus

        spin0_weight = 2.0 if printed else 1.0
        if printed:
            rpc = np.sqrt(p.lam_plus + 0j)
            rmc = np.sqrt(p.lam_minus + 0j)
            hop1_mm = (
                (p.u_plus / rpc) * np.sin(xm * rmc) - (p.u_minus / rmc) * np.sin(xp * rpc)
            ) / rd
        else:
            hop1_mm = (p.u_plus * sm - p.u_minus * sp) / rd

        amps = Spin2Amplitudes(
            stay_pp=1.0 + 4.0 * (p.m - 1) * (p.u_plus * dp - p.u_minus * dm) / rd,
            stay_p=(p.u_plus * cp - p.u_minus * cm) / rd,
            stay_0=1.0
            + spin0_weight * (p.v_plus * p.w_plus * dp - p.v_minus * p.w_minus * dm) / rd,
            stay_m=(p.u_plus * cm - p.u_minus * cp) / rd,
            stay_mm=1.0 + 4.0 * (p.m + 2) * (p.u_plus * dm - p.u_minus * dp) / rd,
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
    for name in amps.__dataclass_fields__:
        if not np.isfinite(getattr(amps, name)).all():
            worst = float(np.max(np.abs(x)))
            raise ValueError(f"spin-2 amplitude {name} is not finite at |t g| up to {worst!r}")
    return amps


# Layout of the spin-2 block exponential over the five projection levels,
# ordered by descending projection.  Each entry is (row, col, amplitude,
# argument shift, ladder step, coefficient): a positive step lowers the
# photon number by that many quanta, a negative one raises it.  The even
# checkerboard enters with 1, the odd one with -i times a prefactor.
_GRID = (
    (0, 0, "stay_pp", 2, 0, 1.0),
    (1, 1, "stay_p", 1, 0, 1.0),
    (2, 2, "stay_0", 0, 0, 1.0),
    (3, 3, "stay_m", -1, 0, 1.0),
    (4, 4, "stay_mm", -2, 0, 1.0),
    (0, 2, "hop2_p", 2, 2, 1.0),
    (2, 0, "hop2_p", 0, -2, 1.0),
    (1, 3, "hop2_0", 1, 2, 1.0),
    (3, 1, "hop2_0", -1, -2, 1.0),
    (2, 4, "hop2_m", 0, 2, 1.0),
    (4, 2, "hop2_m", -2, -2, 1.0),
    (0, 4, "hop4", 2, 4, 1.0),
    (4, 0, "hop4", -2, -4, 1.0),
    (0, 1, "hop1_pp", 2, 1, -2j),
    (1, 0, "hop1_pp", 1, -1, -2j),
    (1, 2, "hop1_p", 1, 1, -0.5j),
    (2, 1, "hop1_p", 0, -1, -0.5j),
    (2, 3, "hop1_m", 0, 1, -0.5j),
    (3, 2, "hop1_m", -1, -1, -0.5j),
    (3, 4, "hop1_mm", -1, 1, -2j),
    (4, 3, "hop1_mm", -2, -1, -2j),
    (0, 3, "hop3", 2, 3, -2j),
    (3, 0, "hop3", -1, -3, -2j),
    (1, 4, "hop3", 1, 3, -2j),
    (4, 1, "hop3", -2, -3, -2j),
)


def _spin2_action(
    times: np.ndarray, g: float, vecs: np.ndarray, printed: bool = False
) -> np.ndarray:
    """``exp(-i t g B) vecs`` for every time of the 1-D array ``times``.

    ``vecs`` has shape ``(5, cutoff, k)``: projection level, photon number,
    column.  The result adds a leading time axis.  Each grid term is applied
    as a ladder shift of the photon axis, ladder first and the amplitude at
    the photon number after the ladder acted, plus the shift; only rows
    whose ladder coefficient is nonzero are read, and the amplitudes come
    from one ``spin2_amplitudes`` call over all times and arguments.
    """
    m_dim = vecs.shape[1]
    amps = spin2_amplitudes(times[:, None], g, np.arange(-2, m_dim + 2), printed)
    out = np.zeros((len(times), *vecs.shape), dtype=complex)
    for row, col, name, shift, step, coef in _GRID:
        power = abs(step)
        rows = np.arange(max(0, -step), m_dim - max(0, step))
        top = rows + max(step, 0)  # the larger photon number of each transition
        ladder = np.sqrt(np.prod([top - k for k in range(power)], axis=0))
        weight = coef * getattr(amps, name)[:, rows + shift + 2] * ladder
        out[:, row, rows] += weight[:, :, None] * vecs[col, rows + step]
    return out


def exp_spin2_block(t: float, g: float, space: FockSpace, printed: bool = False) -> np.ndarray:
    """Closed-form ``exp(-i t g B)`` for the spin-2 coupling block."""
    dim = 5 * space.cutoff
    ident = np.eye(dim, dtype=complex).reshape(5, space.cutoff, dim)
    return _spin2_action(np.array([float(t)]), g, ident, printed)[0].reshape(dim, dim)


def _spin1_generator() -> tuple[np.ndarray, np.ndarray]:
    """Raising matrix and doubled weights of the spin-1 multiplet."""
    return spin_matrices(2)[0], np.array([2, 0, -2])


def exp_spin1_block(t: float, g: float, space: FockSpace) -> np.ndarray:
    """``exp(-i t g B)`` for the spin-1 coupling block.

    Sectors here are at most three-dimensional, so exact per-sector
    eigendecomposition is both simpler and tighter than transcribing
    another amplitude table.
    """
    return exp_operator(-1j * t * g, *_spin1_generator(), space)


def _rotate(t_mat: np.ndarray, core: np.ndarray) -> np.ndarray:
    """The real ``t_mat`` applied to the first axis of a complex array, as
    one real product on its float view (a complex matmul here can slow later
    float formatting; see ``oracle.exp_in_sectors``)."""
    flat = np.ascontiguousarray(core).view(float).reshape(len(core), -1)
    return (t_mat @ flat).view(complex).reshape(core.shape)


def interaction_states(
    times: np.ndarray, g: float, space: FockSpace, psi: np.ndarray
) -> np.ndarray:
    """Closed-form ``exp(-i t g A) psi`` for every time of the 1-D array
    ``times``.

    ``psi`` is one vector or a matrix of column vectors; the result has a
    leading axis over ``times`` and then the shape of ``psi``.  The columns
    are rotated into the block basis once, on the register axis only.  The
    zero blocks keep their components, the spin-1 blocks evolve from one
    eigendecomposition per sector, the spin-2 block through its closed form
    applied to the columns, and the result is rotated back.
    """
    m = space.cutoff
    t_mat = transform_t()
    core = _rotate(t_mat.T, np.asarray(psi, dtype=complex).reshape(16, m, -1))
    k = core.shape[2]
    out = np.empty((16, len(times), m, k), dtype=complex)
    for blk in BLOCK_LAYOUT:
        sl = slice(blk.start, blk.stop)
        if blk.kind == "zero":
            out[sl] = core[sl, None]
        elif blk.kind == "spin2":
            out[sl] = _spin2_action(times, g, core[sl]).swapaxes(0, 1)
    spin1 = [slice(b.start, b.stop) for b in BLOCK_LAYOUT if b.kind == "spin1"]
    cols = np.stack([core[sl].reshape(3 * m, k) for sl in spin1], axis=1)
    moved = evolve_in_sectors(sector_blocks(*_spin1_generator(), space), -1j * g * times, cols)
    for j, sl in enumerate(spin1):
        out[sl] = moved[:, :, j].reshape(len(times), 3, m, k).swapaxes(0, 1)
    return _rotate(t_mat, out).swapaxes(0, 1).reshape(len(times), *psi.shape)


def interaction_propagator(t: float, g: float, space: FockSpace) -> np.ndarray:
    """Closed-form ``exp(-i t g A)`` for the four-atom interaction: the
    state route ``interaction_states`` applied to the identity."""
    ident = np.eye(16 * space.cutoff, dtype=complex)
    return interaction_states(np.array([float(t)]), g, space, ident)[0]


def _free_phases(t: float | np.ndarray, p: ModelParams) -> np.ndarray:
    """Diagonal of the free propagator ``exp(-i t omega (S3 x 1 + 1 x N))``;
    a column of times gives one row per time."""
    halves = np.repeat(twice_s3(p.register), p.space.cutoff) / 2.0
    photons = np.tile(np.arange(p.space.cutoff), p.register.levels)
    return np.exp(-1j * t * p.omega * (halves + photons))


def _require_resonance(p: ModelParams) -> None:
    if not p.resonant:
        raise ValueError(
            "closed-form factorization requires resonance (delta == omega); "
            "use oracle.evolution for detuned parameters"
        )


def full_propagator(t: float, p: ModelParams) -> np.ndarray:
    """Resonant propagator ``exp(-i t H)`` as free part times interaction part.

    The factorization holds only at exact resonance; off resonance the
    request is refused and the caller should use ``oracle.evolution``,
    which handles any detuning.  Registers smaller than four have no
    hand-written block form and route the interaction part through the
    sector oracle.
    """
    _require_resonance(p)
    if p.atoms == 4:
        inter = interaction_propagator(t, p.g, p.space)
    else:
        inter = interaction_evolution(t, p.g, p.register, p.space)
    return _free_phases(t, p)[:, None] * inter


def full_states(times: np.ndarray, p: ModelParams, psi: np.ndarray) -> np.ndarray:
    """Resonant states ``exp(-i t H) psi``, one row per time of the 1-D
    array ``times``, as free phases times the interaction part; no
    propagator is formed.  Resonance and small registers are handled as in
    ``full_propagator``."""
    _require_resonance(p)
    times = np.asarray(times, dtype=float)
    if p.atoms == 4:
        inter = interaction_states(times, p.g, p.space, psi)
    else:
        blocks = sector_blocks(collective(p.register).plus, twice_s3(p.register), p.space)
        inter = evolve_in_sectors(blocks, -1j * p.g * times, psi)
    return _free_phases(times[:, None], p) * inter
