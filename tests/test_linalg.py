import numpy as np
import pytest

from tc4.linalg import expm_hermitian, hermitian_defect, op_norm_diff

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_dagger_and_defect():
    rng = np.random.default_rng(5)
    a = random_complex(rng, 4, 4)
    h = a + a.conj().T
    assert hermitian_defect(h) == 0.0
    assert hermitian_defect(h + 1e-3 * 1j * np.eye(4)) == pytest.approx(2e-3)


def test_expm_zero_is_identity():
    np.testing.assert_array_equal(expm_hermitian(np.zeros((4, 4)), -1.0j), np.eye(4))


def test_expm_pauli_rotation():
    theta = 0.37
    u = expm_hermitian(SX, -1j * theta)
    expected = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * SX
    np.testing.assert_allclose(u, expected, atol=1e-14)


def test_expm_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match=r"max\|h - h\^dag\| = 1\.000e\+00"):
        expm_hermitian(bad, -1.0j)


def test_expm_unitary_and_group_law():
    rng = np.random.default_rng(3)
    a = random_complex(rng, 6, 6)
    h = a + a.conj().T
    u1 = expm_hermitian(h, -0.3j)
    u2 = expm_hermitian(h, -0.9j)
    np.testing.assert_allclose(u1 @ u1.conj().T, np.eye(6), atol=1e-10)
    np.testing.assert_allclose(u1 @ u2, expm_hermitian(h, -1.2j), atol=1e-10)


def test_op_norm_diff_basic():
    rng = np.random.default_rng(7)
    a = random_complex(rng, 5, 5)
    assert op_norm_diff(a, a) == 0.0
    b = a.copy()
    b[4, 4] += 2.0
    assert op_norm_diff(a, b) == pytest.approx(2.0)
    assert op_norm_diff(a, b, mask=np.arange(4)) == 0.0


def test_op_norm_diff_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        op_norm_diff(np.eye(2), np.eye(3))
