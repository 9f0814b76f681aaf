"""Integrators for time-local (TCL) and memory-kernel (TC) dynamics, plus
propagator-family construction.

Both solvers are fixed-step on a uniform grid so downstream finite
differences see evenly spaced samples:

* :func:`solve_tcl` -- classical 4th-order Runge-Kutta for
  d/dt x(t) = G(t) x(t).
* :func:`solve_tc`  -- product-trapezoidal rule (2nd order) for the
  homogeneous Volterra equation d/dt x(t) = int_0^t K(t-s) x(s) ds.
  The scheme is solved as one causal block lower-triangular Toeplitz
  system by recursive halving (Hairer, Lubich and Schlichte, SIAM J. Sci.
  Stat. Comput. 6 (1985) 532): each half's contribution to the next is
  one FFT convolution over the lag axis, and blocks of up to 64 steps are
  one product with a precomputed block inverse, so the work is
  O(N log^2 N) with about N/32 Python-level iterations.  The kernel table
  is checked once, batched, naming the earliest failing lag; each block's
  states are checked for finiteness before they feed a convolution, and
  the first non-finite state's time is reported.

Every time-local RK4 pass carries a block y0 of c columns, Y(t) = Phi(t, 0)
y0: a trajectory is the initial state carried through the pass (c = 1),
and a propagator family the identity (c = dd).  The generator is evaluated
once, batched, at the 2N - 1 times t_0, t_0 + h/2, t_1, ..., t_{N-1}, and
the sample table is checked once: its shape, then the earliest sample that
is not finite or fails trace preservation.  A constant generator (every
sample equal to the first) has one RK4 step matrix S, the degree-4 Taylor
polynomial of exp(hA), so Y(t_k) = S^k y0: :func:`rk4_power_table` fills
the table by doubling in ceil(log2 N) 2-D products.  Any other generator
has one step matrix per step, S_i = I + h/6 (M1 + 2 K2 + 2 K3 + K4) with
K2 = M2 (I + h/2 M1), K3 = M2 (I + h/2 K2), K4 = M4 (I + h K3) and M1, M2,
M4 the samples at t_i, t_i + h/2, t_{i+1}, formed by batched products;
Y(t_k) = S_{k-1} ... S_0 y0 is a blocked prefix product in about 2 sqrt(N)
batched products, whose blocks hand on c columns.  The earliest failure is
reported: a bad sample ahead of a divergence at the row it feeds or later,
else the first non-finite row.  :func:`tcl_pass` is the one time-local
entry: it gives G(t) itself on the grid, and Y from the same evaluation
when given y0.

The inhomogeneous terms of the underlying equations are fixed to zero;
there is deliberately no API surface for them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .errors import ContractViolationError, IntegrationDivergedError, InvalidStateError
from .states import DensityMatrix, ProbabilityVector, TimeGrid, Trajectory, _freeze, _hermitian_trajectory, _numeric

TRACE_DRIFT_TOL = 1e-8
TC_NORMALIZATION_TOL = 1e-6
SAMPLE_TRACE_TOL = 1e-10
PROPAGATOR_TRACE_TOL = 1e-8


def _volterra_block(dd: int) -> int:
    """Steps per base block of the Volterra solve: the block inverse is at
    most 256 x 256, and 64 steps keep the merge count near N/64."""
    return max(1, min(64, 256 // dd))


@dataclass(frozen=True)
class TclGenerator:
    """Time-local generator: ``evaluate(ts)`` takes a 1-D array of times and
    returns the generator at those times, stacked as an (n, dd, dd) table of
    (d^2, d^2) complex superoperator matrices (quantum) or (n, n) real rate
    matrices (classical).  A table whose samples all equal the first, known
    without a compare when it is a broadcast one (leading stride 0), is a constant
    generator, propagated as RK4 matrix powers.  ``matrix_dim`` is dd (:func:`linalg.carrier_dim`)."""

    dim: int
    kind: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    matrix_dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix_dim", linalg.carrier_dim(self.kind, self.dim))
        if not callable(self.evaluate):
            raise ContractViolationError(f"evaluate must be callable, got {self.evaluate!r}")


@dataclass(frozen=True)
class MemoryKernel:
    """Memory kernel: ``evaluate(taus)`` takes a 1-D array of lags tau >= 0
    and returns the kernel superoperators (or classical rate-matrix-valued
    kernels) at those lags, stacked as an (N, dd, dd) table.
    ``decay_scale`` is a time-scale hint used to sanity-check the grid
    resolution.  ``matrix_dim`` is dd (:func:`linalg.carrier_dim`)."""

    dim: int
    kind: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    decay_scale: float = 1.0
    matrix_dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix_dim", linalg.carrier_dim(self.kind, self.dim))
        if not callable(self.evaluate):
            raise ContractViolationError(f"evaluate must be callable, got {self.evaluate!r}")
        if not 0 < self.decay_scale < math.inf:
            raise ContractViolationError("decay_scale must be positive and finite")


@dataclass(frozen=True)
class PropagatorFamily:
    """Finite maps Phi(t, 0) sampled on a grid (:func:`check_map_table`);
    Phi(0, 0) is the identity and every sample preserves the trace
    (quantum) or column sums (classical)."""

    grid: TimeGrid
    maps: np.ndarray
    kind: str
    dim: int

    def __post_init__(self):
        maps = check_map_table(self.maps, self.grid, self.kind, self.dim, "maps")
        if np.max(np.abs(maps[0] - np.eye(maps.shape[1]))) > 1e-12:
            raise ContractViolationError("Phi(0, 0) is not the identity")
        sums = linalg.conservation_sums(maps, self.kind, self.dim)
        sums -= linalg.conservation_row(self.kind, self.dim)
        defect = np.max(np.abs(sums))
        if defect > PROPAGATOR_TRACE_TOL:
            raise ContractViolationError(
                f"propagator family violates trace preservation (defect {defect:.3e})"
            )
        object.__setattr__(self, "maps", maps)


def check_map_table(table, grid: TimeGrid, kind: str, dim: int, what: str) -> np.ndarray:
    """The one carrier rule of a table of maps on ``kind`` states of
    dimension ``dim`` sampled on ``grid``: a known kind and dimension
    (:func:`linalg.carrier_dim`), a numeric array (real for classical maps,
    by :func:`states._numeric`), shape (n, dd, dd) and finite entries, else
    :class:`ContractViolationError`.  Returns the table read-only."""
    dd = linalg.carrier_dim(kind, dim)
    table = _numeric(table, f"{kind} {what}", real=kind == "classical")
    if table.shape != (grid.n, dd, dd):
        raise ContractViolationError(f"expected {what} of shape {(grid.n, dd, dd)}, got {table.shape}")
    if not np.isfinite(table).all():
        raise ContractViolationError(f"non-finite entry among the {what}")
    return _freeze(table)


def _sample_table(table, kind: str, what: str) -> np.ndarray:
    """A sampled ``table`` by :func:`states._numeric` (real for the classical kind) as
    complex or float, uncopied when it is already: a broadcast table keeps stride 0."""
    real = kind == "classical"
    return _numeric(table, f"{kind} {what}", real=real).astype(float if real else complex, copy=False)


def _initial_vector(initial, gen_kind: str, dim: int) -> np.ndarray:
    state_type = DensityMatrix if gen_kind == "quantum" else ProbabilityVector
    if not isinstance(initial, state_type):
        raise ContractViolationError(f"{gen_kind} propagation needs a {state_type.__name__} initial state")
    if initial.dim != dim:
        raise ContractViolationError(f"initial dimension {initial.dim} != generator dimension {dim}")
    return linalg.vectorize(initial.entries) if gen_kind == "quantum" else initial.entries.astype(float)


def _trace_failures(defect: np.ndarray, samples: np.ndarray, tol: float) -> np.ndarray:
    """The mask of stacked generator samples (k, dd, dd) whose
    trace-preservation ``defect`` (k,) exceeds ``tol * max(1, max|G|)``.
    The scale is >= 1, so it is read only where the defect exceeds ``tol``."""
    bad = defect > tol
    if bad.any():
        bad[bad] = defect[bad] > tol * np.maximum(1.0, np.max(np.abs(samples[bad]), axis=(1, 2)))
    return bad


def _sample_defects(samples: np.ndarray, kind: str, dim: int, tol: float):
    """Trace-preservation defect of stacked generator samples (k, dd, dd)
    and the mask of those that fail (:func:`_trace_failures`)."""
    defect = np.max(np.abs(linalg.conservation_sums(samples, kind, dim)), axis=1)
    return defect, _trace_failures(defect, samples, tol)


def rk4_power_table(matrix: np.ndarray, y0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """RK4 for dY/dt = A Y with constant A and Y(0) = ``y0`` (dd,) or
    (dd, c): one step is the degree-4 Taylor polynomial S of exp(hA), so
    Y(t_k) = S^k y0, returned as an (N,) + y0.shape view.  The rows are
    stored transposed, (N, c, dd), so each doubling, out[k:k+m] = S^k
    out[:m] with S^k by repeated squaring, is one 2-D product of the first
    m c rows with (S^k)^T; each block is checked for finiteness as it is
    filled, by one reduction, and only a block that fails is checked row by
    row, so the earliest non-finite row's time is reported."""
    a = np.asarray(matrix)
    dd = a.shape[0]
    eye = np.eye(dd, dtype=a.dtype)
    cols = y0.reshape(dd, -1)
    c = cols.shape[1]
    out = np.empty((grid.n, c, dd), dtype=np.result_type(a.dtype, y0.dtype, np.float64))
    out[0] = cols.T
    flat = out.reshape(grid.n * c, dd)
    k = 1
    with np.errstate(over="ignore", invalid="ignore"):  # the first non-finite row is reported below
        ha = grid.dt * a
        power = eye + np.matmul(ha, eye + np.matmul(ha, eye / 2.0 + np.matmul(ha, eye / 6.0 + ha / 24.0)))
        while k < grid.n:
            m = min(k, grid.n - k)
            np.matmul(flat[: m * c], power.T, out=flat[k * c : (k + m) * c])
            block = out[k : k + m]
            if not np.isfinite(block).all():
                t = float(grid.points[k + int(np.argmin(np.isfinite(block).all(axis=(1, 2))))])
                raise IntegrationDivergedError(f"integration diverged at t={t:g}", time=t)
            k += m
            if k < grid.n:
                power = np.matmul(power, power)
    return out.transpose(0, 2, 1).reshape((grid.n,) + y0.shape)


def _check_samples(samples: np.ndarray, ts: np.ndarray, kind: str, dim: int) -> None:
    """Raise for the earliest of stacked samples (k, dd, dd), taken at
    ``ts[:k]``, that is not finite (:class:`IntegrationDivergedError`) or
    fails trace preservation (:class:`ContractViolationError`)."""
    finite = np.isfinite(samples).all(axis=(1, 2))
    with np.errstate(over="ignore", invalid="ignore"):  # a sample too large to sum fails below
        defect, failing = _sample_defects(samples, kind, dim, SAMPLE_TRACE_TOL)
    bad = ~finite | failing
    if bad.any():
        i = int(np.argmax(bad))
        t = float(ts[i])
        if not finite[i]:
            raise IntegrationDivergedError(f"generator sample at t={t:g} is not finite", time=t)
        raise ContractViolationError(
            f"generator sample at t={t:g} violates trace preservation (defect {defect[i]:.3e})"
        )


def _rk4_steps(samples: np.ndarray, h: float) -> np.ndarray:
    """RK4 step matrices (N - 1, dd, dd) of d/dt Phi = G(t) Phi from the
    samples at t_0, t_0 + h/2, t_1, ..., t_{N-1}, stacked (2N - 1, dd, dd).
    Worked in place: two stage buffers beside the result."""
    m1, m2, m4 = samples[:-1:2], samples[1::2], samples[2::2]
    eye = np.eye(samples.shape[1], dtype=samples.dtype)
    steps, buf, k = m1.copy(), np.empty_like(m1), m1
    for m, c, w in ((m2, 0.5 * h, 2.0), (m2, 0.5 * h, 2.0), (m4, h, 1.0)):  # K2, K3, K4
        np.multiply(k, c, out=buf)
        buf += eye
        k = np.matmul(m, buf, out=None if k is m1 else k)
        np.multiply(k, w, out=buf)
        steps += buf
    steps *= h / 6.0
    steps += eye
    return steps


def _prefix_product(steps: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Y_0 = y0 (dd,) or (dd, c) and Y_{k+1} = S_k Y_k for stacked steps S
    (m, dd, dd), as an (m + 1,) + y0.shape table, in blocks of
    b = ceil(sqrt(m)) steps: the prefixes within every block (b - 1 batched
    products), the columns carried into each block (one product per block)
    and one batched product combining the two.  Only the within-block
    prefixes are (dd, dd) products; what crosses a block has c columns."""
    m, dd = steps.shape[0], steps.shape[1]
    cols = y0.reshape(dd, -1)
    c = cols.shape[1]
    b = math.isqrt(m - 1) + 1
    n_blocks = -(-m // b)
    dtype = np.result_type(steps.dtype, y0.dtype)
    part = np.empty((n_blocks * b, dd, dd), dtype=steps.dtype)
    part[:m] = steps
    part[m:] = np.eye(dd)  # the last block padded with identity steps
    part = part.reshape(n_blocks, b, dd, dd)
    for j in range(1, b):
        part[:, j] = np.matmul(part[:, j], part[:, j - 1])
    carry = np.empty((n_blocks, dd, c), dtype=dtype)
    carry[0] = cols
    for k in range(1, n_blocks):
        carry[k] = np.matmul(part[k - 1, -1], carry[k - 1])
    out = np.empty((n_blocks * b + 1, dd, c), dtype=dtype)
    out[0] = cols
    np.matmul(part, carry[:, None], out=out[1:].reshape(n_blocks, b, dd, c))
    return out[: m + 1].reshape((m + 1,) + y0.shape)


def tcl_pass(gen: TclGenerator, grid: TimeGrid, y0: np.ndarray | None = None) -> tuple[np.ndarray | None, np.ndarray]:
    """(Y (N,) + y0.shape or None, G(t) at the grid points (N, dd, dd), read-only) from
    one ``evaluate`` call at t_0, t_0 + h/2, t_1, ..., t_{N-1}: Y(t_k) is
    ``y0`` (dd,) or (dd, c) carried through the RK4 steps, the vectorized
    initial state for a trajectory and the identity for a propagator family.
    Without ``y0`` only the samples are checked: the earliest sample that has
    the wrong shape, is not finite or fails trace preservation is reported
    with its time and class."""
    h, ts, dd = grid.dt, grid.points, gen.matrix_dim
    times = np.empty(2 * grid.n - 1)
    times[::2] = ts
    np.add(ts[:-1], 0.5 * h, out=times[1::2])
    table, shape_error = gen.evaluate(times), None
    try:
        samples = _sample_table(table, gen.kind, "generator samples")
    except ContractViolationError:
        # a list of samples of different shapes: those ahead of the first that
        # is not (dd, dd) are judged as below, and its error comes after them
        shapes = [np.shape(s) for s in table] if isinstance(table, (list, tuple)) else []
        if len(set(shapes)) < 2:
            raise
        k = next(i for i, shape in enumerate(shapes) if shape != (dd, dd))
        samples = _sample_table(table[:k], gen.kind, "generator samples").reshape(k, dd, dd)
        shape_error = ContractViolationError(f"generator sample at t={times[k]:g} has shape {shapes[k]}")
    if samples.shape[1:] != (dd, dd):
        raise ContractViolationError(f"generator sample at t={times[0]:g} has shape {samples.shape[1:]}")
    if shape_error is None and samples.shape[0] != times.size:
        raise ContractViolationError(f"{samples.shape[0]} generator samples for {times.size} times")
    # rows sharing their memory (stride 0) are bitwise equal; a constant table returns as one row broadcast
    if shape_error is None and (samples.strides[0] == 0 or np.all(samples == samples[0])):
        _check_samples(samples[:1], times, gen.kind, gen.dim)
        out = None if y0 is None else rk4_power_table(samples[0], y0, grid)
        return out, np.broadcast_to(samples[0].copy(), (grid.n, dd, dd))
    # row r is fed by samples 0 .. 2r, so sample k feeds row ceil(k/2) (row 1
    # for k = 0) and later rows: the samples feeding rows up to the first
    # non-finite one are judged first, then that row; the rows fed by a
    # sample of another shape are never formed, so its error comes last
    rows = (samples.shape[0] + 1) // 2
    out, row = None, None
    if y0 is not None and rows > 1:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite row is reported below
            out = _prefix_product(_rk4_steps(samples[: 2 * rows - 1], h), y0)
        finite = np.isfinite(out.reshape(rows, -1)).all(axis=1)
        row = None if finite.all() else int(np.argmin(finite))
    _check_samples(samples if row is None else samples[: 2 * row + 1], times, gen.kind, gen.dim)
    if row is not None:
        raise IntegrationDivergedError(f"integration diverged at t={ts[row]:g}", time=float(ts[row]))
    if shape_error is not None:
        raise shape_error
    return out, _freeze(samples[::2])  # a copy, not a view that keeps the midpoints alive


def _finalize_trajectory(raw: np.ndarray, grid: TimeGrid, kind: str, dim: int) -> Trajectory:
    ts = grid.points
    if kind == "quantum":
        # column-stacked vectors: v.reshape(d, d, order='F') == v.reshape(d, d).T, so with
        # S = R^T the Hermitian part (S + S^H)/2 is (conj(R) + R^T) * 0.5, built in one buffer
        rows = raw.reshape(grid.n, dim, dim)
        states = np.conj(rows)
        states += rows.transpose(0, 2, 1)
        states *= 0.5
        sums, tol, what = np.einsum("nii->n", states).real, TRACE_DRIFT_TOL, "trace"
    else:
        states, sums, tol, what = raw, raw.sum(axis=1), TC_NORMALIZATION_TOL, "normalization"
    drift = np.abs(sums - 1.0)
    finite = np.isfinite(drift)
    if not finite.all():  # judged ahead of the first non-finite sum, whose state is named below
        drift[int(np.argmin(finite)) :] = 0.0
    i = int(np.argmax(drift))
    if drift[i] > tol:
        raise IntegrationDivergedError(f"{what} drifted to {sums[i]:.12g} at t={ts[i]:g}", time=float(ts[i]))
    with np.errstate(invalid="ignore"):  # a non-finite state is named by the check below
        # quantum states are this function's own buffer, divided in place
        scale = sums.reshape((-1,) + (1,) * (states.ndim - 1))
        states = np.divide(states, scale, out=states if kind == "quantum" else None)
    # a state outside its state set (the simplex or the PSD cone) is a
    # numerical failure on every route, at the time of that state
    try:
        return _hermitian_trajectory(grid, states) if kind == "quantum" else Trajectory(grid, states, kind)
    except InvalidStateError as exc:
        raise IntegrationDivergedError(str(exc), time=exc.time) from exc


def solve_tcl(gen: TclGenerator, initial, grid: TimeGrid) -> Trajectory:
    """Integrate the homogeneous time-local equation d/dt x = G(t) x: the
    initial state carried through the RK4 pass of :func:`tcl_pass`, so
    trace drift beyond ``TRACE_DRIFT_TOL`` raises
    :class:`IntegrationDivergedError` naming the time."""
    raw = tcl_pass(gen, grid, _initial_vector(initial, gen.kind, gen.dim))[0]
    return _finalize_trajectory(raw, grid, gen.kind, gen.dim)


def _kernel_table(kernel: MemoryKernel, grid: TimeGrid) -> np.ndarray:
    h = grid.dt
    dd = kernel.matrix_dim
    table = _sample_table(kernel.evaluate(np.arange(grid.n) * h), kernel.kind, "kernel samples")  # lag m is m * h
    if table.shape != (grid.n, dd, dd):
        raise ContractViolationError(f"kernel samples have shape {table.shape}, expected {(grid.n, dd, dd)}")
    finite = np.isfinite(table).all(axis=(1, 2))
    n_ok = grid.n if finite.all() else int(np.argmin(finite))
    # kernels act as generators under the time integral: trace-annihilated;
    # the samples ahead of the first non-finite one are judged first
    err, bad = _sample_defects(table[:n_ok], kernel.kind, kernel.dim, SAMPLE_TRACE_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        raise ContractViolationError(f"memory kernel violates trace annihilation at lag {i*h:g} (defect {err[i]:.3e})")
    if n_ok < grid.n:
        raise ContractViolationError(f"kernel sample at lag {n_ok*h:g} is not finite")
    return table


def _toeplitz_inverse(lags: np.ndarray) -> np.ndarray:
    """Inverse of the block lower-triangular Toeplitz matrix whose block
    (i, j) is ``lags[i - j]`` (zero above the diagonal), by block forward
    substitution; exactly zero above the block diagonal."""
    k, dd = lags.shape[0], lags.shape[1]
    a0inv = np.linalg.inv(lags[0])
    u = np.empty_like(lags)
    u[0] = a0inv
    for n in range(1, k):
        u[n] = -a0inv @ np.einsum("jab,jbc->ac", lags[1 : n + 1], u[n - 1 :: -1])
    diff = np.subtract.outer(np.arange(k), np.arange(k))
    blocks = np.where((diff >= 0)[:, :, None, None], u[np.maximum(diff, 0)], 0.0)
    return blocks.transpose(0, 2, 1, 3).reshape(k * dd, k * dd)


def volterra_propagate(kernel: MemoryKernel, y0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Product-trapezoidal solution of d/dt y = int_0^t K(t-s) y(s) ds.

    Returns the raw stacked solution; ``y0`` may be a vector or matrix.
    With F_n = h*(K_n y_0/2 + sum_{0<j<n} K_{n-j} y_j + K_0 y_n/2) the scheme
    is y_{n+1} = y_n + (h/2)(F_n + F_{n+1}).  Eliminating F leaves the
    block lower-triangular Toeplitz system sum_{j<=m} A_{m-j} x_j = r_m for
    x_m = y_{m+1}, c = h^2/4:

        A_0 = I - c K_0,  A_1 = -I - 2c (K_1 + K_0/2),
        A_n = -2c (K_n + K_{n-1}) (n >= 2),
        r_0 = (I + c K_1) y_0,  r_m = c (K_{m+1} + K_m) y_0 (m >= 1).

    It is solved by recursive halving: solve the first half, subtract its
    contribution to the second half as one FFT convolution over the lag
    axis, solve the second half.  Blocks of ``_volterra_block(dd)`` steps
    are one product with the inverse of the block-sized Toeplitz matrix.
    The -I of A_1 couples only neighbouring states, so a merge adds it
    directly and convolves B_1 = A_1 + I and B_n = A_n (n >= 2), all
    O(h^2): the FFT rounding is relative to that small scale.
    """
    h = grid.dt
    if h > kernel.decay_scale / 20.0:
        warnings.warn(
            f"grid step {h:g} is coarse relative to kernel decay scale "
            f"{kernel.decay_scale:g}; expect degraded accuracy",
            stacklevel=2,
        )
    table = _kernel_table(kernel, grid)
    n_pts = grid.n
    dtype = np.result_type(table.dtype, y0.dtype, np.float64)
    ys = np.empty((n_pts,) + y0.shape, dtype=dtype)
    ys[0] = y0
    m_tot = n_pts - 1
    dd = y0.shape[0]
    eye = np.eye(dd)
    c = h * h / 4.0
    y0m = y0.reshape(dd, -1).astype(dtype)
    width = y0m.size  # numbers per state
    x = ys[1:].reshape(m_tot, dd, -1)  # a view: x_m = y_{m+1}
    pair = table[1:] + table[:-1]  # K_n + K_{n-1}, n = 1..M
    rhs = c * (pair @ y0m)
    rhs[0] = y0m + c * (table[1] @ y0m)
    # lag coefficients without the -I of A_1 (B_0 is unused by any merge)
    b_lags = np.empty_like(pair)
    b_lags[0] = 0.0
    b_lags[1:] = (-2.0 * c) * pair[:-1]
    b_lags[1:2] = (-2.0 * c) * (table[1] + 0.5 * table[0])
    # max |B_n| over lags 0..n, the scale of a merge over lags < n + 1
    b_scale = np.maximum.accumulate(np.max(np.abs(b_lags), axis=(1, 2)))
    block = min(_volterra_block(dd), m_tot)
    lags = b_lags[:block].copy()
    lags[0] = eye - c * table[0]
    lags[1:2] -= eye
    try:
        tinv = _toeplitz_inverse(lags)
    except np.linalg.LinAlgError:  # A_0 = I - c K_0 is singular: no step can be taken
        t = float(grid.points[1])
        raise IntegrationDivergedError(f"integration diverged at t={t:g}: singular step matrix", time=t) from None
    real = not np.iscomplexobj(ys)
    fft, ifft = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    spectra = {}  # merge size -> spectrum of its scaled lag coefficients

    def base(lo: int, hi: int):
        k = hi - lo
        seg = rhs[lo:hi].reshape(k * dd, -1)
        sol = np.dot(tinv[: k * dd, : k * dd], seg)
        if not np.all(np.isfinite(sol)):
            # the first non-finite state, solved causally: a non-finite
            # right-hand side row must not reach the rows ahead of it
            rows = np.isfinite(seg.reshape(k, width)).all(axis=1)
            r = k if rows.all() else int(np.argmin(rows))
            lead = np.isfinite(tinv[: r * dd, : r * dd] @ seg[: r * dd]).reshape(r, width).all(axis=1)
            m = lo + (r if lead.all() else int(np.argmin(lead)))
            t = float(grid.points[m + 1])
            raise IntegrationDivergedError(f"integration diverged at t={t:g}", time=t)
        x[lo:hi] = sol.reshape(k, dd, -1)

    def merge(lo: int, mid: int, hi: int):
        """Subtract the contribution of x[lo:mid] from rhs[mid:hi]."""
        n = hi - lo
        rhs[mid] += x[mid - 1]
        sx = float(np.max(np.abs(x[lo:mid])))
        sb = float(b_scale[n - 1])
        if sx == 0.0 or sb == 0.0:
            return
        # operands scaled to max-abs 1: no FFT sum overflows ahead of the states
        nfft = 2 * (mid - lo)
        if n not in spectra:
            spectra[n] = fft(b_lags[:n] / sb, nfft, axis=0)
        # a merge over more than half the steps is the only one of its size
        spec = (spectra[n] if 2 * n <= m_tot else spectra.pop(n)) @ fft(x[lo:mid] / sx, nfft, axis=0)
        conv = ifft(spec, nfft, axis=0)[mid - lo : n]
        rhs[mid:hi] -= (conv * sb) * sx

    def solve(lo: int, hi: int):
        if hi - lo <= block:
            base(lo, hi)
            return
        half = block
        while 2 * half < hi - lo:
            half *= 2
        solve(lo, lo + half)
        merge(lo, lo + half, hi)
        solve(lo + half, hi)

    solve(0, m_tot)
    del solve  # it calls itself: a cycle that would keep the solve's tables until the next collection
    return ys


def solve_tc(kernel: MemoryKernel, initial, grid: TimeGrid) -> Trajectory:
    """Integrate the homogeneous memory-kernel equation
    d/dt x(t) = int_0^t K(t-s) x(s) ds by product-trapezoidal quadrature."""
    y0 = _initial_vector(initial, kernel.kind, kernel.dim)
    # the solution is complex128 for a quantum kernel and float64 for a classical one: no cast
    return _finalize_trajectory(volterra_propagate(kernel, y0, grid), grid, kernel.kind, kernel.dim)


def build_propagator(source, grid: TimeGrid) -> PropagatorFamily:
    """Propagator family Phi(t, 0) from a generator or kernel.

    Columns are obtained by propagating each canonical basis vector of the
    carrier space: vectorized matrix units for quantum sources, the n
    canonical probability basis vectors for classical ones (yielding the
    stochastic propagator T(t, 0))."""
    if not isinstance(source, (TclGenerator, MemoryKernel)):
        raise ContractViolationError(f"unsupported propagator source {type(source).__name__}")
    eye = np.eye(source.matrix_dim, dtype=complex if source.kind == "quantum" else float)
    if isinstance(source, TclGenerator):
        raw = tcl_pass(source, grid, eye)[0]
    else:
        raw = volterra_propagate(source, eye, grid)
    return PropagatorFamily(grid, raw, source.kind, source.dim)


def apply_family(family: PropagatorFamily, initial) -> Trajectory:
    """Trajectory obtained by applying each Phi(t, 0) to one initial state."""
    y0 = _initial_vector(initial, family.kind, family.dim)
    raw = np.einsum("nab,b->na", family.maps, y0)
    return _finalize_trajectory(raw, family.grid, family.kind, family.dim)
