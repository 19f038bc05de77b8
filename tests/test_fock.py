import math

import numpy as np
import pytest

from tc4.fock import (
    FockSpace,
    NumberFunction,
    ladder,
    number_fn_term,
    safe_indices,
)

SPACE = FockSpace(12)


def test_space_validation():
    with pytest.raises(ValueError, match="cutoff must be at least 8"):
        FockSpace(6)
    with pytest.raises(ValueError, match="guard must be at least 6"):
        FockSpace(12, guard=4)
    with pytest.raises(ValueError, match="no usable states"):
        FockSpace(8, guard=8)
    assert FockSpace(20).safe_top == 14


def test_ladder_actions():
    a, a_dag, n = ladder(SPACE)
    e1 = np.zeros(12)
    e1[1] = 1.0
    out = a @ e1
    assert out[0] == 1.0
    assert np.abs(a @ np.eye(12)[:, 0]).max() == 0.0
    for m in range(11):
        assert a_dag[m + 1, m] == pytest.approx(math.sqrt(m + 1))
    np.testing.assert_array_equal(a_dag, a.conj().T)
    np.testing.assert_array_equal(np.diag(n).real, np.arange(12))


def test_commutator_truncation_artifact():
    a, a_dag, _ = ladder(SPACE)
    comm = a @ a_dag - a_dag @ a
    expected = np.eye(12, dtype=complex)
    expected[11, 11] = -11.0
    np.testing.assert_allclose(comm, expected, atol=1e-13)


def test_number_fn_term_diagonal_identity():
    one = NumberFunction(lambda m: 1.0, "one")
    np.testing.assert_array_equal(
        number_fn_term(SPACE, one, 3, 0, "diagonal"), np.eye(12)
    )


def test_number_fn_term_ladder_first_convention():
    # N a_dag on vacuum: raise first, then the number evaluates to one.
    count = NumberFunction(lambda m: float(m), "count")
    term = number_fn_term(SPACE, count, 0, 1, "raise")
    e0 = np.zeros(12)
    e0[0] = 1.0
    out = term @ e0
    assert out[1] == 1.0
    assert np.abs(out[[0] + list(range(2, 12))]).max() == 0.0


def test_number_fn_term_against_two_step_product():
    f = NumberFunction(lambda m: 1.0 / (m * m + 2.0), "f")
    a, a_dag, _ = ladder(SPACE)
    diag = np.diag([f(j + 2) for j in range(12)]).astype(complex)
    np.testing.assert_array_equal(
        number_fn_term(SPACE, f, 2, 2, "lower"), diag @ (a @ a)
    )
    # entry (m-2, m) carries the two-step lowering amplitude at argument m
    term = number_fn_term(SPACE, f, 2, 2, "lower")
    for m in range(2, 12):
        assert term[m - 2, m] == pytest.approx(math.sqrt(m * (m - 1)) * f(m))


def test_number_fn_term_validation():
    one = NumberFunction(lambda m: 1.0, "one")
    with pytest.raises(ValueError, match="side"):
        number_fn_term(SPACE, one, 0, 1, "up")
    with pytest.raises(ValueError, match="ladder_power"):
        number_fn_term(SPACE, one, 0, 5, "lower")
    with pytest.raises(ValueError, match="nonnegative"):
        number_fn_term(SPACE, one, 0, -1, "lower")


def test_safe_indices_layout():
    space = FockSpace(8)
    idx = safe_indices(space, 3)
    np.testing.assert_array_equal(idx, [0, 1, 8, 9, 16, 17])
