"""Dense complex linear algebra shared by every operator module.

Operators are plain numpy ``complex128`` arrays in row-major layout.
Everything here is a thin, contract-checked wrapper around numpy so the
rest of the package can state its preconditions once.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "hermitian_defect",
    "expm_hermitian",
    "op_norm_diff",
]


def hermitian_defect(a: np.ndarray) -> float:
    """Largest entrywise deviation of ``a`` from its conjugate transpose."""
    a = np.asarray(a)
    return float(np.abs(a - a.conj().T).max())


def expm_hermitian(h: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """Exponential ``exp(scale * h)`` of a Hermitian matrix via eigendecomposition.

    Parameters
    ----------
    h : array
        Hermitian matrix.  Rejected if ``max|h - h^dag|`` exceeds 1e-12.
    scale : complex
        Multiplier applied to the eigenvalues before exponentiation,
        e.g. ``-1j * t`` for unitary time evolution.

    Returns
    -------
    array
        ``V diag(exp(scale * w)) V^dag`` with ``(w, V)`` the eigensystem of ``h``.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    defect = hermitian_defect(h)
    if defect > 1e-12:
        raise ValueError(
            f"generator is not Hermitian: max|h - h^dag| = {defect:.3e} exceeds 1.0e-12"
        )
    w, v = np.linalg.eigh(h)
    return (v * np.exp(scale * w)) @ v.conj().T


def op_norm_diff(a: np.ndarray, b: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Largest entrywise difference ``max|a - b|``, optionally on a sub-block.

    ``mask`` is an index array selecting rows and columns; when given, the
    comparison is restricted to ``a[ix_(mask, mask)]`` vs the same block of
    ``b``.  That is how guard-band comparisons exclude rows and columns that
    feel the photon-number truncation.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if mask is not None:
        sub = np.ix_(mask, mask)
        a = a[sub]
        b = b[sub]
    return float(np.abs(a - b).max())
