"""Self-contained invariant suite behind the ``verify`` CLI command.

Each ``*_residuals`` function measures a group of invariants on explicit
inputs and returns the residuals keyed by check name.  ``run_checks`` and
the acceptance tests both call them; each applies its own tolerances.  Two
checks are expected failures: they evaluate the misprinted amplitude forms
kept behind ``printed=True`` and pass only when the residual stays *above*
a floor, demonstrating that the misprints are real (see CORRECTIONS.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .fock import FockSpace, safe_indices
from .linalg import expm_hermitian, op_norm_diff
from .model import (
    BLOCK_LAYOUT,
    ModelParams,
    a4_explicit,
    block_decompose,
    block_leakage,
    excitation_operator,
    hamiltonian,
    interaction,
    multiplet_interaction,
    transform_t,
)
from .propagator import (
    exp_spin2_block,
    full_propagator,
    interaction_propagator,
    interaction_states,
    spin2_amplitudes,
)
from .spins import AtomRegister, collective, spin_matrices, su2_check
from .dynamics import QuantumState, coherent_state, product_state, trajectory

__all__ = [
    "CHECKS",
    "VerifyConfig",
    "CheckResult",
    "run_checks",
    "format_result",
    "draw",
    "algebra_residuals",
    "block_residuals",
    "spin2_block_residuals",
    "interaction_residuals",
    "pinned_scalar_residuals",
    "vacuum_sector_residuals",
    "resonant_residuals",
    "trajectory_residuals",
]

REG4 = AtomRegister(4)
Draws = list[tuple[float, float]]
Residuals = dict[str, float]


@dataclass(frozen=True)
class VerifyConfig:
    """Sampling sizes for the invariant suite.

    ``tol_override`` replaces every tolerance (and every expected-failure
    floor) when set; forcing it to zero must make the suite fail, which is
    itself a useful meta-check that the residuals are honest numbers.  A
    configuration with ``samples < 1``, or a guard or cutoff that one of
    the battery's truncations cannot take, raises ``ValueError``.
    """

    cutoff: int = 40
    guard: int = 6
    samples: int = 5
    seed: int = 1234
    tol_override: float | None = None

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")
        self.spaces()

    def spaces(self) -> tuple[FockSpace, FockSpace, FockSpace, FockSpace]:
        """Truncations the battery runs on: the configured cutoff, and the
        fixed cutoffs of the structure and trajectory checks (16), the
        finite difference (10) and the factorization (32), all with the
        configured guard.  Raises ``ValueError`` if one cannot be built."""
        return tuple(FockSpace(cutoff, self.guard) for cutoff in (self.cutoff, 16, 10, 32))


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float
    expect_at_least: bool = False

    @property
    def passed(self) -> bool:
        if self.expect_at_least:
            return self.residual >= self.tol
        return self.residual <= self.tol


def format_result(r: CheckResult) -> str:
    floor = "(floor)" if r.expect_at_least else ""
    status = "PASS" if r.passed else "FAIL"
    return f"{r.name} residual={r.residual:.3e} tol={r.tol:.1e}{floor} {status}"


# (name, tolerance, floor) of every check in report order; see CheckResult.passed.
CHECKS: tuple[tuple[str, float, bool], ...] = (
    *((f"su2_algebra_n{n}", 0.0, False) for n in range(1, 5)),
    ("transform_orthogonal", 1e-14, False),
    ("explicit_pattern_match", 0.0, False),
    ("block_leakage", 1e-12, False),
    ("block_patterns", 1e-12, False),
    ("spin2_closed_vs_oracle", 1e-9, False),
    ("spin2_checkerboard", 0.0, False),
    ("interaction_closed_vs_oracle", 1e-9, False),
    ("interaction_unitary", 1e-10, False),
    ("interaction_group_law", 1e-9, False),
    ("excitation_conserved", 1e-10, False),
    ("pinned_scalar_values", 1e-14, False),
    ("vacuum_sector_cosine", 1e-12, False),
    ("vacuum_sector_corrected", 1e-9, False),
    ("printed_pairing_expected_fail", 0.1, True),
    ("printed_survival_expected_fail", 0.1, True),
    ("schrodinger_residual", 1e-6, False),
    ("resonant_factorization", 1e-9, False),
    ("trajectory_cross_method", 1e-9, False),
    ("trajectory_free_constant", 1e-12, False),
)


def draw(rng: np.random.Generator, n: int) -> Draws:
    """``n`` pairs ``(t, g)`` with ``t`` uniform on [0, 5) and ``g`` on [0, 2)."""
    return [(float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 2.0))) for _ in range(n)]


def algebra_residuals() -> Residuals:
    """Collective operators of one to four atoms close the angular-momentum
    algebra exactly, and the constant basis change is orthogonal."""
    out = {f"su2_algebra_n{n}": max(su2_check(collective(AtomRegister(n)))) for n in range(1, 5)}
    t_mat = transform_t()
    out["transform_orthogonal"] = float(np.abs(t_mat.T @ t_mat - np.eye(16)).max())
    return out


def block_residuals(space: FockSpace) -> Residuals:
    """Structure of the four-atom interaction: its hand-written entry pattern,
    the leakage outside the declared blocks after the basis change, and the
    worst deviation of a block from its irreducible reference coupling."""
    a4 = interaction(REG4, space)
    t_mat = transform_t()
    _, leak = block_leakage(a4, t_mat, space)
    m = space.cutoff
    refs = {
        "zero": np.zeros((m, m), dtype=complex),
        "spin1": multiplet_interaction(2, space),
        "spin2": multiplet_interaction(4, space),
    }
    blocks = block_decompose(a4, t_mat, space)
    return {
        "explicit_pattern_match": op_norm_diff(a4, a4_explicit(space)),
        "block_leakage": float(leak.max()),
        "block_patterns": max(
            op_norm_diff(blk, refs[layout.kind]) for blk, layout in zip(blocks, BLOCK_LAYOUT)
        ),
    }


def spin2_block_residuals(space: FockSpace, draws: Draws) -> Residuals:
    """Closed-form spin-2 exponential against its sector oracle on the guard
    band, and the largest entry off its exact real/imaginary checkerboard."""
    m = space.cutoff
    even = (np.add.outer(np.arange(5), np.arange(5)) % 2 == 0)[:, None, :, None]
    worst = board = 0.0
    for t, g in draws:
        closed = exp_spin2_block(t, g, space)  # first allocation: fails at once past memory
        ref = oracle.exp_operator(-1j * t * g, spin_matrices(4)[0], np.arange(4, -5, -2), space)
        worst = max(worst, op_norm_diff(closed, ref, safe_indices(space, 5)))
        grid = closed.reshape(5, m, 5, m)
        board = max(board, float(np.abs(np.where(even, grid.imag, grid.real)).max()))
    return {"spin2_closed_vs_oracle": worst, "spin2_checkerboard": board}


def interaction_residuals(space: FockSpace, draws: Draws) -> Residuals:
    """Four-atom interaction propagator against the sector oracle, plus
    unitarity, the one-parameter group law and conservation of the
    excitation number, all on the guard band.  The propagator is assembled
    per excitation sector, so it conserves the excitation number by
    construction; that check reads the state route applied to the identity
    instead, which places nothing by sector."""
    safe16 = safe_indices(space, 16)
    excite = np.diag(excitation_operator(REG4, space))  # the operator is diagonal
    ident = np.eye(16 * space.cutoff, dtype=complex)
    w_oracle = w_unit = w_group = w_excite = 0.0
    for t, g in draws:  # the witnesses first, while no propagator is held
        witness = interaction_states(np.array([t]), g, space, ident)[0]
        w_excite = max(w_excite, op_norm_diff(witness * excite, excite[:, None] * witness, safe16))
    for t, g in draws:
        u = interaction_propagator(t, g, space)
        ref = oracle.interaction_evolution(t, g, REG4, space)
        w_oracle = max(w_oracle, op_norm_diff(u, ref, safe16))
        w_unit = max(w_unit, op_norm_diff(u @ u.conj().T, ident, safe16))
        half = interaction_propagator(t / 2.0, g, space)
        w_group = max(w_group, op_norm_diff(half @ half, u, safe16))
    return {
        "interaction_closed_vs_oracle": w_oracle,
        "interaction_unitary": w_unit,
        "interaction_group_law": w_group,
        "excitation_conserved": w_excite,
    }


def pinned_scalar_residuals(draws: Draws) -> Residuals:
    """Amplitude values forced by the structure of the block: the bottom
    level cannot leave an empty cavity, the top level cannot absorb from it."""
    worst = 0.0
    for t, g in draws:
        amp_lo = spin2_amplitudes(t, g, -2)
        amp_hi = spin2_amplitudes(t, g, 1)
        worst = max(worst, abs(amp_lo.stay_mm - 1.0), abs(amp_hi.stay_pp - 1.0))
    return {"pinned_scalar_values": worst}


def vacuum_sector_residuals(space: FockSpace, draws: Draws) -> Residuals:
    """Lowest sectors of the spin-2 block.  In the two-dimensional one the
    survival follows a plain cosine and the corrected one-photon amplitude a
    plain sine.  The misprinted forms must miss their exactly solvable
    sectors at ``t = g = 1``, where the deviation is of order one: the
    lowest pair, and the survival at the top of the three-dimensional one."""
    m = space.cutoff
    ix2 = [3 * m, 4 * m + 1]

    def off_pair(u: np.ndarray, x: float) -> float:
        """Deviation of ``u`` on the lowest pair from its exact form at ``x = 2 t g``."""
        c, s = math.cos(x), -1j * math.sin(x)
        return float(np.abs(u[np.ix_(ix2, ix2)] - np.array([[c, s], [s, c]])).max())

    worst_cos = worst_sector = 0.0
    for t, g in draws:
        amp = spin2_amplitudes(t, g, -1)
        worst_cos = max(worst_cos, abs(amp.stay_m - math.cos(2.0 * t * g)))
        worst_sector = max(worst_sector, off_pair(exp_spin2_block(t, g, space), 2.0 * t * g))
    u_printed = exp_spin2_block(1.0, 1.0, space, printed=True)
    ix3 = [2 * m, 3 * m + 1, 4 * m + 2]
    ref3 = expm_hermitian(multiplet_interaction(4, space)[np.ix_(ix3, ix3)], -1j)
    return {
        "vacuum_sector_cosine": worst_cos,
        "vacuum_sector_corrected": worst_sector,
        "printed_pairing_expected_fail": off_pair(u_printed, 2.0),
        "printed_survival_expected_fail": abs(u_printed[ix3[0], ix3[0]] - ref3[0, 0]),
    }


def _resonant(g: float, space: FockSpace) -> ModelParams:
    return ModelParams(omega=1.0, delta=1.0, g=g, atoms=4, space=space)


def resonant_residuals(fd_space: FockSpace, space: FockSpace, draws: Draws) -> Residuals:
    """The factored resonant propagator solves the equation of motion (central
    finite difference at ``t = 0.7`` on ``fd_space`` against the Hamiltonian
    action) and agrees with the one-shot oracle exponential on the guard band."""
    p = _resonant(1.0, fd_space)
    t0, step = 0.7, 1e-4
    diff = (full_propagator(t0 + step, p) - full_propagator(t0 - step, p)) / (2.0 * step)
    action = hamiltonian(p) @ full_propagator(t0, p)
    resid = op_norm_diff(1j * diff, action, safe_indices(fd_space, 16))
    safe = safe_indices(space, 16)
    worst = 0.0
    for t, g in draws:
        p = _resonant(g, space)
        worst = max(worst, op_norm_diff(full_propagator(t, p), oracle.evolution(t, p), safe))
    return {"schrodinger_residual": resid, "resonant_factorization": worst}


def trajectory_residuals(space: FockSpace, initial: QuantumState, times: np.ndarray) -> Residuals:
    """Inversion trajectories through the closed form and through the oracle
    coincide pointwise; with the coupling off, nothing moves."""
    p = _resonant(1.0, space)
    closed = trajectory(p, initial, times, method="closed")
    ref = trajectory(p, initial, times, method="oracle")
    free = trajectory(_resonant(0.0, space), initial, times, method="closed")
    return {
        "trajectory_cross_method": float(np.abs(closed.inversion - ref.inversion).max()),
        "trajectory_free_constant": float(np.abs(free.inversion - free.inversion[0]).max()),
    }


def run_checks(cfg: VerifyConfig) -> list[CheckResult]:
    """Run the whole invariant suite and return one result per check, in the
    order of ``CHECKS``."""
    space, small, fd_space, factor_space = cfg.spaces()
    rng = np.random.default_rng(cfg.seed)
    draws = draw(rng, cfg.samples)
    scalar_draws = draw(rng, 10)
    resonant_draws = draw(rng, cfg.samples)
    initial = product_state(0, coherent_state(0.0, small), REG4, small)
    residuals = {
        **algebra_residuals(),
        **block_residuals(small),
        **spin2_block_residuals(space, draws),
        **interaction_residuals(space, draws),
        **pinned_scalar_residuals(scalar_draws),
        **vacuum_sector_residuals(space, draws),
        **resonant_residuals(fd_space, factor_space, resonant_draws),
        **trajectory_residuals(small, initial, np.linspace(0.0, 10.0, 50)),
    }
    override = cfg.tol_override
    return [
        CheckResult(name, float(residuals[name]), tol if override is None else override, floor)
        for name, tol, floor in CHECKS
    ]
