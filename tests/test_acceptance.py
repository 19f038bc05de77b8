"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Tolerances are fixed here on purpose; loosening them is a contract change,
not a tuning knob.  Sampling uses a fixed seed so every run sees the same
draws.  Every residual comes from the battery behind ``tc4 verify``, so
the gate and the CLI measure the same invariants.
"""

import numpy as np

from tc4.dynamics import coherent_state, product_state
from tc4.fock import FockSpace
from tc4.spins import AtomRegister
from tc4.verify import (
    algebra_residuals,
    block_residuals,
    draw,
    interaction_residuals,
    pinned_scalar_residuals,
    resonant_residuals,
    spin2_block_residuals,
    trajectory_residuals,
    vacuum_sector_residuals,
)

REG4 = AtomRegister(4)
SEED = 20260819


def draws(count, seed=SEED):
    return draw(np.random.default_rng(seed), count)


def report(num, name, passed, *pairs):
    shown = ", ".join(f"{label}={value:.3e} (tol {tol:.0e})" for label, value, tol in pairs)
    print(f"criterion {num:02d} {name}: {shown} {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num:02d} {name}: {shown}"


def test_01_basis_change_orthogonality():
    residual = algebra_residuals()["transform_orthogonal"]
    report(1, "basis_change_orthogonality", residual < 1e-14, ("residual", residual, 1e-14))


def test_02_block_purity_and_patterns():
    r = block_residuals(FockSpace(16))
    leak = r["block_leakage"]
    pattern = r["block_patterns"]
    report(
        2,
        "block_purity_and_patterns",
        leak < 1e-12 and pattern < 1e-12,
        ("off_block", leak, 1e-12),
        ("pattern", pattern, 1e-12),
    )


def test_03_explicit_pattern_equals_construction():
    residual = block_residuals(FockSpace(16))["explicit_pattern_match"]
    report(3, "explicit_pattern_equals_construction", residual == 0.0, ("residual", residual, 0.0))


def test_04_su2_residuals_exactly_zero():
    residuals = algebra_residuals()
    worst = max(residuals[f"su2_algebra_n{n}"] for n in range(1, 5))
    report(4, "su2_residuals_exactly_zero", worst == 0.0, ("residual", worst, 0.0))


def test_05_headline_equivalence():
    worst = interaction_residuals(FockSpace(40, 6), draws(20))["interaction_closed_vs_oracle"]
    report(5, "headline_equivalence", worst < 1e-9, ("residual", worst, 1e-9))


def test_06_spin2_block_vs_oracle_and_checkerboard():
    r = spin2_block_residuals(FockSpace(40, 6), draws(20))
    worst = r["spin2_closed_vs_oracle"]
    board = r["spin2_checkerboard"]
    report(
        6,
        "spin2_block_vs_oracle_and_checkerboard",
        worst < 1e-9 and board == 0.0,
        ("residual", worst, 1e-9),
        ("checkerboard", board, 0.0),
    )


def test_07_forced_scalar_values():
    sample = draws(10, seed=SEED + 1)
    worst_pinned = pinned_scalar_residuals(sample)["pinned_scalar_values"]
    vacuum = vacuum_sector_residuals(FockSpace(12), sample)
    worst_trig = max(vacuum["vacuum_sector_cosine"], vacuum["vacuum_sector_corrected"])
    report(
        7,
        "forced_scalar_values",
        worst_pinned < 1e-14 and worst_trig < 1e-12,
        ("pinned", worst_pinned, 1e-14),
        ("trig", worst_trig, 1e-12),
    )


def test_08_misprint_demonstration():
    r = vacuum_sector_residuals(FockSpace(12), [(1.0, 1.0)])
    bad_residual = r["printed_pairing_expected_fail"]
    good_residual = r["vacuum_sector_corrected"]
    report(
        8,
        "misprint_demonstration",
        bad_residual >= 0.1 and good_residual < 1e-9,
        ("printed_form", bad_residual, 0.1),
        ("corrected_form", good_residual, 1e-9),
    )


def test_09_equation_of_motion_and_factorization():
    r = resonant_residuals(FockSpace(10), FockSpace(32, 6), draws(10, seed=SEED + 2))
    fd_residual = r["schrodinger_residual"]
    worst = r["resonant_factorization"]
    report(
        9,
        "equation_of_motion_and_factorization",
        fd_residual < 1e-6 and worst < 1e-9,
        ("schrodinger", fd_residual, 1e-6),
        ("factorization", worst, 1e-9),
    )


def test_10_unitarity_group_law_conservation():
    r = interaction_residuals(FockSpace(16, 6), draws(50, seed=SEED + 3))
    w_unit = r["interaction_unitary"]
    w_group = r["interaction_group_law"]
    w_cons = r["excitation_conserved"]
    report(
        10,
        "unitarity_group_law_conservation",
        w_unit < 1e-9 and w_group < 1e-9 and w_cons < 1e-9,
        ("unitarity", w_unit, 1e-9),
        ("group_law", w_group, 1e-9),
        ("conservation", w_cons, 1e-9),
    )


def test_11_dynamics_cross_check():
    # Two starts in vacuum: all atoms excited (register index 0), and atoms
    # 1 and 2 excited (index 3, "--atomic 1100").  Only the second reaches
    # the misprinted amplitudes; tests/test_verify.py shows it failing under
    # the printed form.
    space = FockSpace(16, 6)
    times = np.linspace(0.0, 10.0, 200)
    runs = []
    for index in (0, 3):
        init = product_state(index, coherent_state(0.0, space), REG4, space)
        runs.append(trajectory_residuals(space, init, times))
    cross = max(r["trajectory_cross_method"] for r in runs)
    drift = max(r["trajectory_free_constant"] for r in runs)
    report(
        11,
        "dynamics_cross_check",
        cross < 1e-9 and drift < 1e-12,
        ("cross_method", cross, 1e-9),
        ("free_drift", drift, 1e-12),
    )
