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

HERMITICITY_TOL = 1e-10
PSD_ERROR = 1e-8

MAX_QUANTUM_DIM = 8
MAX_CLASSICAL_DIM = 16


def carrier_dim(kind: str, dim: int) -> int:
    """Side dd of the (dd, dd) maps on ``kind`` states of dimension ``dim``:
    d^2 for 'quantum' (superoperators on column-stacked matrices), d for
    'classical'.  An unknown kind, or a dimension outside 1..``MAX_QUANTUM_DIM``
    (``MAX_CLASSICAL_DIM``), raises :class:`ContractViolationError`."""
    if kind not in ("quantum", "classical"):
        raise ContractViolationError(f"unknown kind {kind!r}; known: 'quantum', 'classical'")
    cap = MAX_QUANTUM_DIM if kind == "quantum" else MAX_CLASSICAL_DIM
    if not (isinstance(dim, (int, np.integer)) and 1 <= dim <= cap):
        raise ContractViolationError(f"dimension {dim} outside supported range 1..{cap}")
    return dim * dim if kind == "quantum" else dim


def hermitian_eig(m: np.ndarray):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(w, v)`` with ``v @ diag(w) @ v.conj().T == m``.  Raises
    :class:`ContractViolationError` if ``m`` is not Hermitian within
    ``HERMITICITY_TOL``.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractViolationError(f"expected a square matrix, got shape {m.shape}")
    defect = float(hermiticity_defects(m[None])[0])
    if not defect <= HERMITICITY_TOL:
        raise ContractViolationError(f"matrix is not Hermitian within {HERMITICITY_TOL:g} (defect {defect:.3e})")
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return w[::-1].copy(), v[:, ::-1].copy()


def hermiticity_defects(stack: np.ndarray) -> np.ndarray:
    """max|A - A^H|/2 per matrix of an (n, d, d) stack, read on and above the diagonal only."""
    iu, ju = np.triu_indices(stack.shape[-1])
    return np.abs(stack[:, iu, ju] - stack[:, ju, iu].conj()).max(axis=1) / 2.0


_EPS = np.finfo(float).eps / 2  # LAPACK's dlamch('E')


def _dlae2(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """LAPACK's ``dlae2`` on arrays: the eigenvalues of [[a, b], [b, c]],
    b >= 0, with |rt1| >= |rt2|."""
    sm = a + c
    adf, ab = np.abs(a - c), 2.0 * b
    rt, q = np.maximum(adf, ab), np.minimum(adf, ab)
    del adf, ab
    with np.errstate(divide="ignore", invalid="ignore"):
        q /= np.where(rt > 0, rt, 1.0)
        rt *= np.sqrt(1.0 + q * q)
        del q
        rt1 = 0.5 * np.where(sm < 0, sm - rt, sm + rt)
        a_larger = np.abs(a) > np.abs(c)
        rt2 = (np.where(a_larger, a, c) / rt1) * np.where(a_larger, c, a) - (b / rt1) * b
    return rt1, np.where(sm == 0, -0.5 * rt, rt2)


def hermitian_spectra(stack: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of each matrix of an
    (n, d, d) stack, as an (n, d) float array.

    For d = 2 this is LAPACK's own 2x2 path in closed form (``dsterf``
    with ``dlae2``): for [[a, b], [b*, c]] the root of larger magnitude is
    (a + c +- r)/2 with r = hypot(a - c, 2|b|), the other is the
    determinant divided by it (so it keeps its relative accuracy), and
    |b| <= eps sqrt(|a c|) leaves (a, c).  Each matrix is first scaled by
    an even power of two, which changes no bit, so no square over- or
    underflows.  With a real b the values equal ``np.linalg.eigvalsh``'s
    bit for bit; with a complex one within a few eps of the largest entry.
    Other sizes call ``np.linalg.eigvalsh``.  Non-finite input gives
    non-finite output, never an exception.
    """
    s = np.asarray(stack)
    if s.shape[1:] != (2, 2):
        return np.linalg.eigvalsh((s + s.conj().transpose(0, 2, 1)) / 2.0)
    # each (n,) temporary is dropped once used and the result is filled in
    # place: holding them all to the end raised the peak RSS of a process
    # running the four sweep-quantum commands by about 0.6 MB
    a, c = s[:, 0, 0].real, s[:, 1, 1].real
    b = (s[:, 1, 0] + s[:, 0, 1].conj()) / 2.0
    scale = np.maximum(np.maximum(np.abs(a), np.abs(c)), np.maximum(np.abs(b.real), np.abs(b.imag)))
    k = 2 * (np.frexp(scale)[1] // 2)
    del scale
    if k.any():
        f = np.ldexp(1.0, -k)
        a, c, b = a * f, c * f, b * f
    e2 = b.real * b.real + b.imag * b.imag
    del b
    e = np.sqrt(e2)
    split = (e <= np.sqrt(np.abs(a)) * np.sqrt(np.abs(c)) * _EPS) | (e2 <= _EPS * _EPS * np.abs(a * c))
    del e2
    rt1, rt2 = _dlae2(a, e, c)
    del e
    w = np.empty((s.shape[0], 2))
    np.minimum(rt1, rt2, out=w[:, 0])
    np.maximum(rt1, rt2, out=w[:, 1])
    w[split, 0], w[split, 1] = np.minimum(a, c)[split], np.maximum(a, c)[split]
    return np.ldexp(w, k[:, None]) if k.any() else w


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a PSD matrix.

    Eigenvalues in ``[-PSD_ERROR, 0)`` are treated as float noise and
    clipped to zero; anything below ``-PSD_ERROR`` raises
    :class:`NotPsdError`.
    """
    w, v = hermitian_eig(m)
    if w[-1] < -PSD_ERROR:
        raise NotPsdError(f"matrix is not PSD: min eigenvalue {w[-1]:.3e} < -{PSD_ERROR:g}")
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
    """Matrix of X -> A X B acting on column-stacked vectors: kron(B.T, A),
    for (d, d) operators or broadcast stacks (..., d, d).  Written as the
    broadcast product ``np.kron`` itself forms, so it keeps its bits."""
    a, bt = np.asarray(a), np.swapaxes(np.asarray(b), -1, -2)
    out = bt[..., :, None, :, None] * a[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (out.shape[-4] * out.shape[-3], -1))


def commutator_superop(h: np.ndarray) -> np.ndarray:
    """Matrix of X -> -i[H, X], for one H or a stack (..., d, d)."""
    h = np.asarray(h, dtype=complex)
    eye = np.eye(h.shape[-1])
    return -1j * (left_right_superop(h, eye) - left_right_superop(eye, h))


def dissipator_superop(jump: np.ndarray) -> np.ndarray:
    """Matrix of X -> L X L^dag - (1/2){L^dag L, X}, for one L or a stack
    (..., d, d)."""
    jump = np.asarray(jump, dtype=complex)
    eye = np.eye(jump.shape[-1])
    dagger = np.swapaxes(jump.conj(), -1, -2)
    ldl = dagger @ jump
    return (
        left_right_superop(jump, dagger)
        - 0.5 * left_right_superop(ldl, eye)
        - 0.5 * left_right_superop(eye, ldl)
    )


def conservation_row(kind: str, dim: int) -> np.ndarray:
    """The row u that a generator or kernel of ``kind`` annihilates and a
    propagator preserves (u @ G == 0, u @ Phi == u): for quantum maps the
    trace row, u @ vectorize(X) == trace(X); for classical ones all ones
    (the column sums)."""
    return vectorize(np.eye(dim)).astype(float) if kind == "quantum" else np.ones(dim)


def conservation_sums(stack: np.ndarray, kind: str, dim: int) -> np.ndarray:
    """``conservation_row(kind, dim) @ stack`` for a stack (..., dd, m), as
    the rows u selects added in row order (rows 0, d + 1, 2(d + 1), ... of
    quantum maps, all rows of classical ones), with no product by u."""
    rows = np.moveaxis(stack[..., :: dim + 1 if kind == "quantum" else 1, :], -2, 0)
    out = rows[0].copy()
    for row in rows[1:]:
        out += row
    return out
