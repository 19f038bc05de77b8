"""Closed-form evolution operators for the four-atom register.

At exact resonance the propagator factors into a free part, diagonal in
the composite basis, and an interaction part ``exp(-i t g A)``.  After the
constant basis change of ``model.transform_t`` the interaction is block
diagonal: the scalar blocks exponentiate to one, and each spin block has a
closed form, written as a grid of terms "amplitude function of the shifted
photon number, times a ladder power" (five by five for spin 2, three by
three for spin 1).  Nothing is borrowed from the sector oracle.

Each amplitude is built from the spectral data of one excitation sector:
for spin 2 two squared frequencies (the nonzero sector eigenvalues come in
opposite pairs) and weight coefficients, for spin 1 one frequency.
Amplitudes are evaluated on whole arrays of times and arguments, and the
grid of terms is applied to vectors, so a trajectory (``full_states``)
propagates its state over every time at once without forming a
propagator.  The operator (``full_propagator``) is assembled one
excitation sector at a time, since the excitation number is conserved,
truncation included: each term of the grids fills one entry of every
sector's 16 x 16 core, the stacked cores are rotated with ``T``, and only
the sector entries are written into the dense output.  No identity columns
are propagated and no dense change of basis is formed.

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
from .spins import AtomRegister, twice_s3

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
    _require_finite("spin-2", vars(amps), x)
    return amps


def _require_finite(label: str, amps: dict[str, np.ndarray], x: np.ndarray) -> None:
    for name, value in amps.items():
        if not np.isfinite(value).all():
            worst = float(np.max(np.abs(x)))
            raise ValueError(f"{label} amplitude {name} is not finite at |t g| up to {worst!r}")


def _spin1_amplitudes(t: np.ndarray, g: float, n: np.ndarray) -> dict[str, np.ndarray]:
    """Spin-1 amplitudes at times ``t`` and integer arguments ``n``.  Sector
    ``n`` (projections +1, 0, -1 with ``n``, ``n + 1``, ``n + 2`` photons) has
    the spectrum ``{0, +-W}``, ``W^2 = 4 n + 6``, so by Cayley-Hamilton
    ``exp(-i x B) = 1 - i sin(x W) / W B + (cos(x W) - 1) / W^2 B^2`` at ``x = t g``.
    The sector with ``W^2 = -2`` has zero ladder weight and is held at
    ``t = 0``.  A non-finite amplitude raises ``ValueError``."""
    wsq = 4.0 * np.asarray(n) + 6.0
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, as in spin 2
        x = np.multiply(t, g)
        w = np.sqrt(np.abs(wsq))
        xw = np.where(wsq > 0.0, x, 0.0) * w
        hop2 = (np.cos(xw) - 1.0) / wsq
        amps = {
            "stay_p": 1.0 + 2.0 * (n + 1) * hop2,
            "stay_0": np.cos(xw),
            "stay_m": 1.0 + 2.0 * (n + 2) * hop2,
            "hop1": np.sin(xw) / w,
            "hop2": hop2,
        }
    _require_finite("spin-1", amps, x)
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


# The spin-1 block exponential, laid out as _GRID; B has the ladder weights
# sqrt(2), and row r reads sector n at photon number n + r, so its shift is -r.
_GRID1 = (
    (0, 0, "stay_p", 0, 0, 1.0),
    (1, 1, "stay_0", -1, 0, 1.0),
    (2, 2, "stay_m", -2, 0, 1.0),
    (0, 2, "hop2", 0, 2, 2.0),
    (2, 0, "hop2", -2, -2, 2.0),
    (0, 1, "hop1", 0, 1, -1j * np.sqrt(2.0)),
    (1, 0, "hop1", -1, -1, -1j * np.sqrt(2.0)),
    (1, 2, "hop1", -1, 1, -1j * np.sqrt(2.0)),
    (2, 1, "hop1", -2, -1, -1j * np.sqrt(2.0)),
)


def _terms(grid: tuple, amps: dict[str, np.ndarray], m: int):
    """The terms of the block exponential ``grid`` on photon numbers ``0 ..
    m - 1``, with amplitudes ``amps`` at arguments -2 to ``m + 1`` on the last
    axis (after any time axes).  Each term yields ``(row, col, n, step,
    value)``: entry ``(row, n)``, ``(col, n + step)`` of the block is ``value``,
    for every ``n`` at which both photon numbers are retained.  The ladder
    acts first and the amplitude is read at the photon number after it acted,
    plus the shift."""
    for row, col, name, shift, step, coef in grid:
        n = np.arange(max(0, -step), m - max(0, step))
        top = n + max(step, 0)  # the larger photon number of each transition
        ladder = np.sqrt(np.prod([top - k for k in range(abs(step))], axis=0))
        yield row, col, n, step, coef * amps[name][..., n + shift + 2] * ladder


def _ladder_action(grid: tuple, amps: dict[str, np.ndarray], vecs: np.ndarray) -> np.ndarray:
    """The block exponential ``grid`` with amplitudes ``amps`` (as in
    ``_terms``; time axes lead the result) applied to ``vecs`` of shape
    ``(levels, cutoff, k)``."""
    out = np.zeros(amps[grid[0][2]].shape[:-1] + vecs.shape, dtype=complex)
    for row, col, n, step, value in _terms(grid, amps, vecs.shape[1]):
        out[..., row, n, :] += value[..., None] * vecs[col, n + step]
    return out


def _exp_block(grid: tuple, amplitudes, space: FockSpace) -> np.ndarray:
    """The block exponential of ``grid``, amplitudes ``amplitudes(n)``, as a
    matrix, each term placed on its diagonal; the matrix is allocated first,
    so a size beyond memory fails at once."""
    levels, m = len({term[0] for term in grid}), space.cutoff
    out = np.zeros((levels, m, levels, m), dtype=complex)
    for row, col, n, step, value in _terms(grid, amplitudes(np.arange(-2, m + 2)), m):
        out[row, n, col, n + step] = value
    return out.reshape(levels * m, levels * m)


def exp_spin2_block(t: float, g: float, space: FockSpace, printed: bool = False) -> np.ndarray:
    """Closed-form ``exp(-i t g B)`` for the spin-2 coupling block."""
    return _exp_block(_GRID, lambda n: vars(spin2_amplitudes(float(t), g, n, printed)), space)


def exp_spin1_block(t: float, g: float, space: FockSpace) -> np.ndarray:
    """Closed-form ``exp(-i t g B)`` for the spin-1 coupling block."""
    return _exp_block(_GRID1, lambda n: _spin1_amplitudes(float(t), g, n), space)


def _rotate(t_mat: np.ndarray, core: np.ndarray) -> np.ndarray:
    """The real ``t_mat`` applied to the first axis of a complex array, as
    one real product on its float view (a complex matmul here can slow later
    float formatting; see ``oracle.exp_in_sectors``)."""
    flat = np.ascontiguousarray(core).view(float).reshape(len(core), -1)
    return (t_mat @ flat).view(complex).reshape(core.shape)


def _sector_offsets(weights: np.ndarray) -> np.ndarray:
    """Sector ``k`` holds register level ``b`` of doubled ``S3`` weight
    ``weights[b]`` (at least -4) at photon number ``k - offset[b]``."""
    return (np.asarray(weights) + 4) // 2


def _sector_entries(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The entries of the ``m + 4`` excitation sectors of the four-atom
    register on ``m`` photon numbers.  ``inside`` marks them on the grid
    ``(b, k, c)`` of row level, sector and column level (a sector holds at
    most one photon number per level, so at most 16 x 16 entries), and
    ``flat`` holds their positions in the dense ``16 m x 16 m`` operator in
    the same order, which is ascending."""
    photons = np.arange(m + 4) - _sector_offsets(twice_s3(AtomRegister(4)))[:, None]
    kept = (photons >= 0) & (photons < m)
    inside = kept[:, :, None] & kept.T[None, :, :]
    pos = np.arange(16)[:, None] * m + photons  # composite index of level b in sector k
    return inside, (pos[:, :, None] * (16 * m) + pos.T[None, :, :])[inside]


def interaction_states(
    times: np.ndarray, g: float, space: FockSpace, psi: np.ndarray
) -> np.ndarray:
    """Closed-form ``exp(-i t g A) psi`` for every time of the 1-D array
    ``times``.

    ``psi`` is one vector or a matrix of column vectors; the result has a
    leading axis over ``times`` and then the shape of ``psi``.  The columns
    are rotated into the block basis once, on the register axis only.  The
    zero blocks keep their components, each spin block evolves through its
    closed form applied to the columns (amplitudes evaluated once per kind),
    and the result is rotated back.
    """
    m = space.cutoff
    t_mat = transform_t()
    core = _rotate(t_mat.T, np.asarray(psi, dtype=complex).reshape(16, m, -1))
    out = np.empty((16, len(times), m, core.shape[2]), dtype=complex)
    args = np.arange(-2, m + 2)
    spin = {
        "spin1": (_GRID1, _spin1_amplitudes(times[:, None], g, args)),
        "spin2": (_GRID, vars(spin2_amplitudes(times[:, None], g, args))),
    }
    for blk in BLOCK_LAYOUT:
        sl = slice(blk.start, blk.stop)
        if blk.kind == "zero":
            out[sl] = core[sl, None]
        else:
            out[sl] = _ladder_action(*spin[blk.kind], core[sl]).swapaxes(0, 1)
    return _rotate(t_mat, out).swapaxes(0, 1).reshape(len(times), *psi.shape)


def interaction_propagator(t: float, g: float, space: FockSpace) -> np.ndarray:
    """Closed-form ``exp(-i t g A)`` for the four-atom interaction, assembled
    one excitation sector at a time.

    ``T`` preserves the ``S3`` projection, so a block level sits in each
    sector at the photon number of the register levels it mixes.  Every
    grid term fills one entry of the block-basis sector cores ``(m + 4, 16,
    16)`` for all sectors at once, the zero blocks put one on the diagonal,
    and the stack is rotated as ``T core T^T`` in real products.  The dense
    output is allocated first, so a size beyond memory fails at once, and
    every entry outside the sectors is +0.0.
    """
    m = space.cutoff
    out = np.zeros((16 * m, 16 * m), dtype=complex)
    t_mat = transform_t()
    weights = np.rint(twice_s3(AtomRegister(4)) @ t_mat**2).astype(int)  # of the block levels
    offset = _sector_offsets(weights)
    args = np.arange(-2, m + 2)
    terms = {
        "zero": [(0, 0, np.arange(m), 0, 1.0)],
        "spin1": list(_terms(_GRID1, _spin1_amplitudes(float(t), g, args), m)),
        "spin2": list(_terms(_GRID, vars(spin2_amplitudes(float(t), g, args)), m)),
    }
    core = np.zeros((m + 4, 16, 16), dtype=complex)
    for blk in BLOCK_LAYOUT:
        for row, col, n, _, value in terms[blk.kind]:
            row, col = blk.start + row, blk.start + col
            core[n + offset[row], row, col] = value
    # T is real, so the real and imaginary parts rotate apart (see _rotate).
    parts = t_mat @ np.stack((core.real, core.imag)) @ t_mat.T
    inside, flat = _sector_entries(m)
    out.view(float).reshape(-1, 2)[flat] = parts.transpose(0, 2, 1, 3)[:, inside].T
    return out


def _free_phases(t: float | np.ndarray, p: ModelParams) -> np.ndarray:
    """Diagonal of the free propagator ``exp(-i t omega (S3 x 1 + 1 x N))``;
    a column of times gives one row per time.  A non-finite phase raises."""
    halves = np.repeat(twice_s3(p.register), p.space.cutoff) / 2.0
    photons = np.tile(np.arange(p.space.cutoff), p.register.levels)
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(-1j * t * p.omega * (halves + photons))
    if not np.isfinite(phases).all():
        worst = float(np.max(np.abs(t)))
        raise ValueError(f"free phase is not finite at omega {p.omega!r}, |t| up to {worst!r}")
    return phases


def _require_resonance(p: ModelParams) -> None:
    if p.atoms != 4 or not p.resonant:
        raise ValueError(
            "closed-form factorization requires four atoms at resonance "
            "(delta == omega); use oracle.evolution for other registers or detuning"
        )


def full_propagator(t: float, p: ModelParams) -> np.ndarray:
    """Resonant propagator ``exp(-i t H)`` as free part times interaction part.

    The factorization holds only at exact resonance and the block form only
    for four atoms; other requests are refused and the caller should use
    ``oracle.evolution``, which handles any register and detuning.
    """
    _require_resonance(p)
    inter = interaction_propagator(t, p.g, p.space)  # first: a size beyond memory fails at once
    # The free part is diagonal, so it scales only the sector entries; the
    # zeros outside them stay +0.0.
    flat = _sector_entries(p.space.cutoff)[1]
    inter.reshape(-1)[flat] *= _free_phases(t, p)[flat // len(inter)]
    return inter


def full_states(times: np.ndarray, p: ModelParams, psi: np.ndarray) -> np.ndarray:
    """Resonant states ``exp(-i t H) psi``, one row per time of the 1-D
    array ``times``, as free phases times the interaction part; no
    propagator is formed.  Requests are refused as in ``full_propagator``."""
    _require_resonance(p)
    times = np.asarray(times, dtype=float)
    inter = interaction_states(times, p.g, p.space, psi)
    return _free_phases(times[:, None], p) * inter
