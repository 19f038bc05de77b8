import math
import tracemalloc

import numpy as np
import pytest

import tc4.oracle
import tc4.propagator
from tc4.dynamics import product_state, trajectory
from tc4.fock import FockSpace, NumberFunction, number_fn_term, safe_indices
from tc4.linalg import op_norm_diff
from tc4.model import (
    ModelParams,
    excitation_operator,
    hamiltonian,
    interaction,
)
from tc4.oracle import evolution, exp_operator, interaction_evolution, sector_partition, sectors
from tc4.propagator import (
    _GRID,
    exp_spin1_block,
    exp_spin2_block,
    full_propagator,
    full_states,
    interaction_propagator,
    interaction_states,
    spectral_params,
    spin2_amplitudes,
)
from tc4.spins import AtomRegister, spin_matrices

SPACE = FockSpace(24)
REG4 = AtomRegister(4)


def seeded_draws(count, seed=404):
    rng = np.random.default_rng(seed)
    return [(float(rng.uniform(0, 5)), float(rng.uniform(0, 2))) for _ in range(count)]


def test_spectral_params_known_point():
    p = spectral_params(0)
    assert (p.disc, p.root) == (9.0, 3.0)
    assert (p.lam_plus, p.lam_minus) == (14.0, -4.0)
    assert (p.u_plus, p.u_minus) == (0.0, -3.0)
    assert p.v_plus == pytest.approx(math.sqrt(6.0))
    assert p.w_minus == pytest.approx(0.0)


def test_spectral_params_identities():
    for m in range(-30, 31):
        p = spectral_params(m)
        assert p.disc >= 8.0
        assert p.u_plus - p.u_minus == pytest.approx(p.root, abs=1e-12)
        assert p.u_plus * p.u_minus == pytest.approx(-(m * m + m), abs=1e-9)
        assert p.lam_plus - p.lam_minus == pytest.approx(6.0 * p.root, abs=1e-9)
        assert p.lam_plus + p.lam_minus == pytest.approx(20.0 * m + 10.0, abs=1e-9)
        assert p.v_plus * p.v_minus == pytest.approx(-12.0 * (m + 1), abs=1e-9)
        assert p.w_plus * p.w_minus == pytest.approx(12.0 * m, abs=1e-9)


def test_amplitudes_at_zero_time():
    # survival amplitudes can sit one rounding step off unity at large |m|
    for m in range(-30, 31):
        amp = spin2_amplitudes(0.0, 1.3, m)
        for name in ("stay_pp", "stay_p", "stay_0", "stay_m", "stay_mm"):
            assert getattr(amp, name) == pytest.approx(1.0, abs=1e-15)
        for name in (
            "hop1_pp",
            "hop1_p",
            "hop1_m",
            "hop1_mm",
            "hop2_p",
            "hop2_0",
            "hop2_m",
            "hop3",
            "hop4",
        ):
            assert getattr(amp, name) == 0.0


def test_amplitudes_forced_boundary_values():
    for t, g in seeded_draws(10):
        assert spin2_amplitudes(t, g, -2).stay_mm == 1.0
        assert spin2_amplitudes(t, g, 1).stay_pp == 1.0


def test_amplitudes_lowest_pair_trigonometry():
    for t, g in seeded_draws(10):
        amp = spin2_amplitudes(t, g, -1)
        assert amp.stay_m == pytest.approx(math.cos(2 * t * g), abs=1e-12)
        assert amp.hop1_mm == pytest.approx(math.sin(2 * t * g) / 2, abs=1e-12)


def test_amplitudes_real_where_corrected():
    for t, g in seeded_draws(5):
        for m in range(-2, 8):
            amp = spin2_amplitudes(t, g, m)
            for name in amp.__dataclass_fields__:
                value = getattr(amp, name)
                assert np.imag(value) == 0.0, (name, m)


def test_printed_pairing_goes_complex_at_bottom():
    amp = spin2_amplitudes(1.0, 1.0, -1, printed=True)
    assert abs(np.imag(amp.hop1_mm)) > 0.1


def test_spin2_block_at_zero_time_is_identity():
    np.testing.assert_allclose(
        exp_spin2_block(0.0, 1.7, SPACE), np.eye(5 * 24, dtype=complex), atol=1e-15
    )


def test_amplitudes_refuse_non_finite_results():
    for t in (np.inf, np.nan, 1e308):
        with pytest.raises(ValueError, match="not finite"):
            spin2_amplitudes(t, 1.0, np.arange(-2, 10))


def test_spin2_block_matches_term_by_term_assembly():
    # Reference: every grid term as a matrix from number_fn_term, with the
    # amplitudes evaluated one argument at a time, summed block by block.
    m = SPACE.cutoff
    for t, g in seeded_draws(2):
        for printed in (False, True):

            def amp(name):
                return NumberFunction(
                    lambda k: getattr(spin2_amplitudes(t, g, k, printed), name), name
                )

            ref = np.zeros((5 * m, 5 * m), dtype=complex)
            for row, col, name, shift, step, coef in _GRID:
                side = "lower" if step > 0 else "raise" if step < 0 else "diagonal"
                block = ref[row * m : (row + 1) * m, col * m : (col + 1) * m]
                block += coef * number_fn_term(SPACE, amp(name), shift, abs(step), side)
            np.testing.assert_allclose(
                exp_spin2_block(t, g, SPACE, printed), ref, rtol=1e-14, atol=1e-15
            )


def test_spin2_block_matches_sector_oracle():
    # Both spin blocks: the oracle exponentiates each sector of the
    # irreducible coupling, the closed forms share nothing with it.
    blocks = ((exp_spin2_block, 4), (exp_spin1_block, 2))
    long_times = [(tg / g, g) for tg in (150.0, 1000.0) for g in (1.0, 0.6)]
    for exp_block, two_j in blocks:
        band = safe_indices(SPACE, two_j + 1)
        weights = np.arange(two_j, -two_j - 1, -2)
        for draws, tol in ((seeded_draws(5), 1e-12), (long_times, 1e-9)):
            for t, g in draws:
                ref = exp_operator(-1j * t * g, spin_matrices(two_j)[0], weights, SPACE)
                assert op_norm_diff(exp_block(t, g, SPACE), ref, band) < tol, (two_j, t, g)


def test_spin2_block_checkerboard_is_exact():
    u = exp_spin2_block(0.9, 1.1, SPACE)
    m = 24
    for r in range(5):
        for c in range(5):
            block = u[r * m : (r + 1) * m, c * m : (c + 1) * m]
            if (r + c) % 2 == 0:
                assert np.abs(block.imag).max() == 0.0
            else:
                assert np.abs(block.real).max() == 0.0


def test_spin2_block_unitary_on_sectors():
    secs = sector_partition(np.arange(4, -5, -2), SPACE)
    u = exp_spin2_block(1.3, 0.8, SPACE)
    for sec in secs:
        if int((sec.indices % SPACE.cutoff).max()) >= SPACE.safe_top:
            continue  # sector reaches the truncation-corrupted top
        block = u[np.ix_(sec.indices, sec.indices)]
        defect = np.abs(block @ block.conj().T - np.eye(sec.dim)).max()
        assert defect < 1e-10


def test_spin2_bottom_state_is_frozen():
    # lowest projection with an empty cavity has nothing to couple to
    u = exp_spin2_block(2.1, 1.4, SPACE)
    col = u[:, 4 * 24]
    assert col[4 * 24] == 1.0
    col = col.copy()
    col[4 * 24] = 0.0
    assert np.abs(col).max() == 0.0


def test_spin1_bottom_state_is_frozen():
    # projection -1 with an empty cavity: the sector W^2 = -2 has no partner
    u = exp_spin1_block(2.1, 1.4, SPACE)
    col = u[:, 2 * 24].copy()
    assert col[2 * 24] == 1.0
    col[2 * 24] = 0.0
    assert np.abs(col).max() == 0.0


def test_closed_route_imports_nothing_from_the_oracle():
    borrowed = [
        name
        for name, obj in vars(tc4.propagator).items()
        if obj is tc4.oracle or getattr(obj, "__module__", None) == "tc4.oracle"
    ]
    assert not borrowed


def test_spin1_block_basics():
    u0 = exp_spin1_block(0.0, 1.0, SPACE)
    np.testing.assert_allclose(u0, np.eye(3 * 24), atol=1e-14)
    # lowest coupled pair rotates at frequency sqrt(2) g
    x = math.sqrt(2.0) * 0.6 * 1.1
    u = exp_spin1_block(0.6, 1.1, SPACE)
    ix = [1 * 24 + 0, 2 * 24 + 1]
    block = u[np.ix_(ix, ix)]
    expected = np.array(
        [[math.cos(x), -1j * math.sin(x)], [-1j * math.sin(x), math.cos(x)]]
    )
    np.testing.assert_allclose(block, expected, atol=1e-14)


def test_interaction_propagator_matches_oracle():
    band = safe_indices(SPACE, 16)
    for t, g in seeded_draws(5):
        u = interaction_propagator(t, g, SPACE)
        ref = interaction_evolution(t, g, REG4, SPACE)
        assert op_norm_diff(u, ref, band) < 1e-12


def test_interaction_propagator_invariants():
    band = safe_indices(SPACE, 16)
    ident = np.eye(16 * 24, dtype=complex)
    e_op = excitation_operator(REG4, SPACE)
    for t, g in seeded_draws(5, seed=99):
        u = interaction_propagator(t, g, SPACE)
        assert op_norm_diff(u @ u.conj().T, ident, band) < 1e-10
        half = interaction_propagator(t / 2, g, SPACE)
        assert op_norm_diff(half @ half, u, band) < 1e-10
        assert op_norm_diff(u @ e_op, e_op @ u, band) < 1e-10


def test_interaction_propagator_recovers_generator():
    # (U(h) - 1)/(-i h g) approaches the generator linearly in h
    gen = interaction(REG4, SPACE)
    band = safe_indices(SPACE, 16)

    def error(h):
        u = interaction_propagator(h, 1.0, SPACE)
        approx = (u - np.eye(16 * 24)) / (-1j * h)
        return op_norm_diff(approx, gen, band)

    ratio = error(1e-3) / error(5e-4)
    assert 1.8 < ratio < 2.2


def test_full_propagator_requires_resonance():
    p = ModelParams(omega=1.0, delta=1.2, g=0.5, atoms=4, space=SPACE)
    with pytest.raises(ValueError, match="oracle"):
        full_propagator(1.0, p)


def test_full_propagator_matches_oracle_at_resonance():
    band = safe_indices(SPACE, 16)
    for t, g in seeded_draws(3, seed=12):
        p = ModelParams(omega=1.0, delta=1.0, g=g, atoms=4, space=SPACE)
        assert op_norm_diff(full_propagator(t, p), evolution(t, p), band) < 1e-12


def test_closed_route_refuses_small_registers():
    # No hand-written block form below four atoms: the oracle is the route.
    field = np.eye(SPACE.cutoff)[0]
    for atoms in (1, 2, 3):
        reg = AtomRegister(atoms)
        p = ModelParams(omega=1.0, delta=1.0, g=0.7, atoms=atoms, space=SPACE)
        init = product_state(0, field, reg, SPACE)
        calls = (
            lambda: full_propagator(0.9, p),
            lambda: full_states(np.array([0.9]), p, init.amplitudes),
            lambda: trajectory(p, init, np.array([0.9]), method="closed"),
        )
        for call in calls:
            with pytest.raises(ValueError, match="oracle"):
                call()


def test_full_propagator_free_limit():
    p = ModelParams(omega=1.3, delta=1.3, g=0.0, atoms=4, space=SPACE)
    u = full_propagator(0.7, p)
    expected = np.diag(np.exp(-0.7j * np.diag(hamiltonian(p))))
    np.testing.assert_allclose(u, expected, atol=1e-13)


def test_full_propagator_solves_equation_of_motion():
    space = FockSpace(10)
    p = ModelParams(omega=1.0, delta=1.0, g=1.0, atoms=4, space=space)
    h = hamiltonian(p)
    band = safe_indices(space, 16)
    step = 1e-4
    diff = (full_propagator(0.7 + step, p) - full_propagator(0.7 - step, p)) / (2 * step)
    residual = op_norm_diff(1j * diff, h @ full_propagator(0.7, p), band)
    assert residual < 1e-6


@pytest.mark.parametrize("tg", [150.0, 1000.0])
def test_full_propagator_matches_oracle_at_long_times(tg):
    # The closed form used to overflow past t g ~ 136.
    band = safe_indices(SPACE, 16)
    for g in (1.0, 0.6):
        p = ModelParams(omega=1.0, delta=1.0, g=g, atoms=4, space=SPACE)
        assert op_norm_diff(full_propagator(tg / g, p), evolution(tg / g, p), band) < 1e-9


# (t, g) for the sector layout checks: the identity at t = 0, ordinary
# draws, and t g = 150, where the amplitudes have wound many times.
LAYOUT_DRAWS = [(0.0, 1.0), (0.7, 1.3), (2.9, 0.45), (4.1, 1.9), (150.0, 1.0), (250.0, 0.6)]


def sector_mask(space):
    """Entries of the dense operator that lie inside an excitation sector,
    from the oracle's partition of the composite basis."""
    inside = np.zeros((16 * space.cutoff,) * 2, dtype=bool)
    for sec in sectors(REG4, space):
        inside[np.ix_(sec.indices, sec.indices)] = True
    return inside


@pytest.mark.parametrize("cutoff", [8, 32])
def test_sector_assembly_leaves_positive_zeros_outside_the_sectors(cutoff):
    space = FockSpace(cutoff)
    outside = ~sector_mask(space)
    for t, g in LAYOUT_DRAWS:
        p = ModelParams(omega=1.0, delta=1.0, g=g, atoms=4, space=space)
        for u in (interaction_propagator(t, g, space), full_propagator(t, p)):
            bits = u.view(np.uint64).reshape(u.shape + (2,))[outside]
            assert not bits.any(), (t, g)  # +0.0 in both parts, sign bit clear


@pytest.mark.parametrize("cutoff", [8, 32])
def test_sector_assembly_matches_the_state_route(cutoff):
    # The state route applied to the identity places nothing by sector.
    space = FockSpace(cutoff)
    ident = np.eye(16 * cutoff, dtype=complex)
    for t, g in LAYOUT_DRAWS:
        p = ModelParams(omega=1.0, delta=1.0, g=g, atoms=4, space=space)
        ref = full_states(np.array([t]), p, ident)[0]
        assert np.abs(full_propagator(t, p) - ref).max() <= 1e-15, (t, g)


def test_interaction_propagator_matches_the_state_route():
    space = FockSpace(16)
    ident = np.eye(16 * 16, dtype=complex)
    for t, g in [*seeded_draws(4, seed=7), (150.0, 1.0)]:
        ref = interaction_states(np.array([t]), g, space, ident)[0]
        assert np.abs(interaction_propagator(t, g, space) - ref).max() <= 1e-15, (t, g)


def test_full_propagator_allocates_little_beyond_its_output():
    # The state route applied to identity columns peaks at 4x the output here.
    p = ModelParams(omega=1.0, delta=1.0, g=0.9, atoms=4, space=FockSpace(32))
    full_propagator(0.3, p)  # warm up imports and caches outside the measurement
    tracemalloc.start()
    try:
        u = full_propagator(1.3, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * u.nbytes, peak / u.nbytes
