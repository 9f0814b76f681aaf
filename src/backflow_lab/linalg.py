"""Small dense linear algebra for states and superoperators.

Everything here works on plain ndarrays; the value types in
:mod:`backflow_lab.states` call into these routines for validation.

Vectorization convention (fixed repo-wide): column stacking.  A d x d
matrix ``m`` maps to the length-d^2 vector ``(m[0,0], m[1,0], ..., m[0,1],
...)``, i.e. ``m.flatten(order="F")``.  Under this convention

    vectorize(A @ X @ B) == kron(B.T, A) @ vectorize(X).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, NotPsdError

# Tolerances; keyword arguments on the functions below override them.
HERMITICITY_TOL = 1e-10
PSD_CLIP = 1e-10
PSD_ERROR = 1e-8
RECONSTRUCTION_TOL = 1e-10

MAX_QUANTUM_DIM = 8
MAX_CLASSICAL_DIM = 16


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest absolute entry of (m - m^dag)/2."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T)) / 2.0)


def hermitian_eig(m: np.ndarray, tol: float = HERMITICITY_TOL):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(w, v)`` with ``v @ diag(w) @ v.conj().T == m`` to within
    ``RECONSTRUCTION_TOL`` relative Frobenius error.  Raises
    :class:`ContractViolationError` if ``m`` is not Hermitian within ``tol``.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractViolationError(f"expected a square matrix, got shape {m.shape}")
    if hermiticity_defect(m) > tol:
        raise ContractViolationError(
            f"matrix is not Hermitian within {tol:g} (defect {hermiticity_defect(m):.3e})"
        )
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return w[::-1].copy(), v[:, ::-1].copy()


def psd_sqrt(m: np.ndarray, clip: float = PSD_CLIP, hard: float = PSD_ERROR) -> np.ndarray:
    """Hermitian square root of a PSD matrix.

    Eigenvalues in ``[-hard, 0)`` are treated as float noise and clipped to
    zero; anything below ``-hard`` raises :class:`NotPsdError`.
    """
    w, v = hermitian_eig(m)
    if w[-1] < -hard:
        raise NotPsdError(f"matrix is not PSD: min eigenvalue {w[-1]:.3e} < -{hard:g}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def vectorize(m: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ContractViolationError(f"expected a matrix, got ndim={m.ndim}")
    return m.flatten(order="F")


def devectorize(v: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`vectorize` (column stacking)."""
    v = np.asarray(v)
    if v.ndim != 1:
        raise ContractViolationError(f"expected a vector, got ndim={v.ndim}")
    if dim is None:
        dim = int(round(np.sqrt(v.size)))
    if dim * dim != v.size:
        raise ContractViolationError(f"vector of length {v.size} is not {dim}x{dim}")
    return v.reshape((dim, dim), order="F")


def left_right_superop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of X -> A X B acting on column-stacked vectors: kron(B.T, A)."""
    return np.kron(np.asarray(b).T, np.asarray(a))


def commutator_superop(h: np.ndarray) -> np.ndarray:
    """Matrix of X -> -i[H, X]."""
    h = np.asarray(h, dtype=complex)
    eye = np.eye(h.shape[0])
    return -1j * (left_right_superop(h, eye) - left_right_superop(eye, h))


def dissipator_superop(jump: np.ndarray) -> np.ndarray:
    """Matrix of X -> L X L^dag - (1/2){L^dag L, X}."""
    jump = np.asarray(jump, dtype=complex)
    eye = np.eye(jump.shape[0])
    ldl = jump.conj().T @ jump
    return (
        left_right_superop(jump, jump.conj().T)
        - 0.5 * left_right_superop(ldl, eye)
        - 0.5 * left_right_superop(eye, ldl)
    )


def trace_row(dim: int) -> np.ndarray:
    """Row vector r with r @ vectorize(X) == trace(X)."""
    return vectorize(np.eye(dim)).astype(float)
