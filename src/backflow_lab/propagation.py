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

Every time-local trajectory is its propagator family applied to the
initial state, rho(t) = Phi(t, 0) rho(0).  A constant generator
(``TclGenerator.matrix`` set) has one RK4 step matrix S, the degree-4
Taylor polynomial of exp(hA), so Phi(t_k) = S^k: :func:`rk4_power_table`
fills the table by doubling in ceil(log2 N) batched products, checking each
block so the earliest non-finite row is reported.  Any other generator runs
the step kernel ``_rk4_tcl``, which advances the dd basis columns from
Phi(0) = I, each sample evaluated once.  Each sample's shape is checked as
it is evaluated; the trace check of the on-grid samples and the finiteness
check of the rows run batched every ``_CHECK_STEPS`` steps, and the
earliest failing time is reported, a bad sample ahead of a divergence at
the same time.  :func:`generator_samples` gives G(t) itself on the grid,
under the same checks, with no propagation: the matrix repeated, or one
evaluation per grid point; :func:`tcl_propagator` gives the family and
those samples from one pass.

The inhomogeneous terms of the underlying equations are fixed to zero;
there is deliberately no API surface for them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .errors import ContractViolationError, IntegrationDivergedError, InvalidStateError
from .states import (
    DensityMatrix,
    ProbabilityVector,
    TimeGrid,
    Trajectory,
)

TRACE_DRIFT_TOL = 1e-8
TC_NORMALIZATION_TOL = 1e-6
SAMPLE_TRACE_TOL = 1e-10
PROPAGATOR_TRACE_TOL = 1e-8
# steps between the batched sample and finiteness checks of the RK4 kernel;
# bounds the samples held for checking (64 KB each at d = 8)
_CHECK_STEPS = 64


def _volterra_block(dd: int) -> int:
    """Steps per base block of the Volterra solve: the block inverse is at
    most 256 x 256, and 64 steps keep the merge count near N/64."""
    return max(1, min(64, 256 // dd))


@dataclass(frozen=True)
class TclGenerator:
    """Time-local generator: ``evaluate(t)`` returns the (d^2, d^2) complex
    superoperator matrix (quantum) or the (n, n) real rate matrix
    (classical).  ``matrix``, when set, is the generator at every time: it
    is propagated as RK4 matrix powers and ``evaluate`` is not called."""

    dim: int
    kind: str
    evaluate: Callable[[float], np.ndarray]
    matrix: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("quantum", "classical"):
            raise ContractViolationError(f"unknown generator kind {self.kind!r}")

    @property
    def matrix_dim(self) -> int:
        return self.dim * self.dim if self.kind == "quantum" else self.dim


@dataclass(frozen=True)
class MemoryKernel:
    """Memory kernel: ``evaluate(taus)`` takes a 1-D array of lags tau >= 0
    and returns the kernel superoperators (or classical rate-matrix-valued
    kernels) at those lags, stacked as an (N, dd, dd) table.
    ``decay_scale`` is a time-scale hint used to sanity-check the grid
    resolution."""

    dim: int
    kind: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    decay_scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("quantum", "classical"):
            raise ContractViolationError(f"unknown kernel kind {self.kind!r}")
        if self.decay_scale <= 0:
            raise ContractViolationError("decay_scale must be positive")

    @property
    def matrix_dim(self) -> int:
        return self.dim * self.dim if self.kind == "quantum" else self.dim


@dataclass(frozen=True)
class PropagatorFamily:
    """Maps Phi(t, 0) sampled on a grid; Phi(0, 0) is the identity and every
    sample preserves the trace (quantum) or column sums (classical)."""

    grid: TimeGrid
    maps: np.ndarray
    kind: str
    dim: int

    def __post_init__(self):
        maps = np.asarray(self.maps)
        n = self.grid.n
        dd = self.dim * self.dim if self.kind == "quantum" else self.dim
        if maps.shape != (n, dd, dd):
            raise ContractViolationError(f"expected maps of shape {(n, dd, dd)}, got {maps.shape}")
        if np.max(np.abs(maps[0] - np.eye(dd))) > 1e-12:
            raise ContractViolationError("Phi(0, 0) is not the identity")
        u = linalg.conservation_row(self.kind, self.dim)
        defect = np.max(np.abs(u @ maps - u))
        if defect > PROPAGATOR_TRACE_TOL:
            raise ContractViolationError(
                f"propagator family violates trace preservation (defect {defect:.3e})"
            )
        arr = np.ascontiguousarray(maps)
        arr.setflags(write=False)
        object.__setattr__(self, "maps", arr)


def _initial_vector(initial, gen_kind: str, dim: int) -> np.ndarray:
    if gen_kind == "quantum":
        if not isinstance(initial, DensityMatrix):
            raise ContractViolationError("quantum propagation needs a DensityMatrix initial state")
        if initial.dim != dim:
            raise ContractViolationError(f"initial dimension {initial.dim} != generator dimension {dim}")
        return linalg.vectorize(initial.entries)
    if not isinstance(initial, ProbabilityVector):
        raise ContractViolationError("classical propagation needs a ProbabilityVector initial state")
    if initial.dim != dim:
        raise ContractViolationError(f"initial dimension {initial.dim} != generator dimension {dim}")
    return initial.entries.astype(float).copy()


def _sample_defects(samples: np.ndarray, kind: str, dim: int):
    """Trace-preservation defect of stacked generator samples (k, dd, dd)
    and the scale it is judged against: sample j fails when
    ``defect[j] > SAMPLE_TRACE_TOL * scale[j]``, scale = max(1, max|G|)."""
    defect = np.max(np.abs(linalg.conservation_row(kind, dim) @ samples), axis=1)
    scale = np.maximum(1.0, np.max(np.abs(samples), axis=(1, 2)))
    return defect, scale


def _rk4_tcl(gen: TclGenerator, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Classic RK4 for d/dt Phi = G(t) Phi from Phi(0) = I, advancing the dd
    basis columns; returns the raw stacked maps (N, dd, dd) and G(t_i) at
    every grid point, stacked.

    Samples are taken at t_i, t_i + h/2 and t_i + h; the t_i + h sample is
    reused as the next step's first one when it equals t_{i+1} exactly.
    """
    if not grid.is_uniform():
        raise ContractViolationError("solve on a uniform grid")
    h = grid.dt
    ts = grid.points
    dd = gen.matrix_dim
    out = np.empty((grid.n, dd, dd), dtype=complex if gen.kind == "quantum" else float)
    out[0] = np.eye(dd)
    k1, k2, k3, k4, tmp = np.empty((5, dd, dd), dtype=out.dtype)
    checked = 0  # rows before this index passed the finiteness check
    # on-grid samples awaiting the trace check: (time, sample, row) where a
    # failing sample is reported ahead of a divergence at that row or later
    pending: list = []
    on_grid: list = []

    def sample(t):
        m = np.asarray(gen.evaluate(t))
        if m.shape != (dd, dd):
            raise ContractViolationError(f"generator sample at t={t:g} has shape {m.shape}")
        return m

    def check(stop: int):
        """Raise for the earliest failure among the pending samples and the
        rows ``checked..stop-1``."""
        nonlocal checked
        bad = []
        if pending:
            defect, scale = _sample_defects(np.stack([m for _, m, _ in pending]), gen.kind, gen.dim)
            bad = np.flatnonzero(defect > SAMPLE_TRACE_TOL * scale)
        finite = np.isfinite(out[checked:stop]).all(axis=(1, 2))
        row = checked + int(np.argmin(finite)) if not finite.all() else None
        if len(bad) and (row is None or pending[bad[0]][2] <= row):
            t = pending[bad[0]][0]
            raise ContractViolationError(
                f"generator sample at t={t:g} violates trace preservation "
                f"(defect {defect[bad[0]]:.3e})"
            )
        if row is not None:
            raise IntegrationDivergedError(
                f"integration diverged at t={ts[row]:g}", time=float(ts[row])
            )
        pending.clear()
        checked = stop

    t_next, m_next = None, None
    for i in range(grid.n - 1):
        try:
            t = ts[i]
            if t == t_next:
                m1 = m_next
            else:
                m1 = sample(t)
                pending.append((t, m1, i + 1))
            on_grid.append(m1)
            y = out[i]
            np.dot(m1, y, out=k1)
            m2 = sample(t + 0.5 * h)
            np.multiply(0.5 * h, k1, out=tmp)
            np.add(y, tmp, out=tmp)
            np.dot(m2, tmp, out=k2)
            np.multiply(0.5 * h, k2, out=tmp)
            np.add(y, tmp, out=tmp)
            np.dot(m2, tmp, out=k3)
            t_next = t + h
            m_next = sample(t_next)
            pending.append((t_next, m_next, i + 1))
            np.multiply(h, k3, out=tmp)
            np.add(y, tmp, out=tmp)
            np.dot(m_next, tmp, out=k4)
            np.multiply(2.0, k2, out=k2)
            np.add(k1, k2, out=k1)
            np.multiply(2.0, k3, out=k3)
            np.add(k1, k3, out=k1)
            np.add(k1, k4, out=k1)
            np.multiply(h / 6.0, k1, out=k1)
            np.add(y, k1, out=out[i + 1])
        except Exception:
            check(i + 1)  # a failure at an earlier time is reported first
            raise
        if (i + 1) % _CHECK_STEPS == 0:
            check(i + 2)
    t = ts[-1]
    if t == t_next:
        on_grid.append(m_next)
    else:
        try:
            on_grid.append(sample(t))
        except Exception:
            check(grid.n)
            raise
        pending.append((t, on_grid[-1], grid.n - 1))
    check(grid.n)
    return out, np.stack(on_grid)


def rk4_power_table(matrix: np.ndarray, y0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """RK4 for dY/dt = A Y with constant A and Y(0) = ``y0`` (dd, c): one
    step is the degree-4 Taylor polynomial S of exp(hA), so Y(t_k) = S^k y0.
    Filled by doubling, out[k:k+m] = S^k out[:m] with S^k by repeated
    squaring; each block is checked for finiteness as it is filled, and the
    earliest non-finite row's time is reported."""
    if not grid.is_uniform():
        raise ContractViolationError("solve on a uniform grid")
    a = np.asarray(matrix)
    eye = np.eye(a.shape[0], dtype=a.dtype)
    ha = grid.dt * a
    power = eye + np.matmul(ha, eye + np.matmul(ha, eye / 2.0 + np.matmul(ha, eye / 6.0 + ha / 24.0)))
    out = np.empty((grid.n,) + y0.shape, dtype=np.result_type(a.dtype, y0.dtype, np.float64))
    out[0] = y0
    k = 1
    while k < grid.n:
        m = min(k, grid.n - k)
        np.matmul(power, out[:m], out=out[k : k + m])
        finite = np.isfinite(out[k : k + m]).all(axis=(1, 2))
        if not finite.all():
            t = float(grid.points[k + int(np.argmin(finite))])
            raise IntegrationDivergedError(f"integration diverged at t={t:g}", time=t)
        k += m
        if k < grid.n:
            power = np.matmul(power, power)
    return out


def _checked_matrix(gen: TclGenerator) -> np.ndarray:
    """A constant generator's ``matrix``, its shape and trace checked."""
    a = np.asarray(gen.matrix)
    if a.shape != (gen.matrix_dim, gen.matrix_dim):
        raise ContractViolationError(f"generator matrix has shape {a.shape}")
    defect, scale = _sample_defects(a[None], gen.kind, gen.dim)
    if defect[0] > SAMPLE_TRACE_TOL * scale[0]:
        raise ContractViolationError(f"generator matrix violates trace preservation (defect {defect[0]:.3e})")
    return a


def _constant_maps(gen: TclGenerator, grid: TimeGrid) -> np.ndarray:
    """Power table of a constant generator, its sample checked once."""
    a = _checked_matrix(gen)
    return rk4_power_table(a, np.eye(gen.matrix_dim, dtype=a.dtype), grid)


def _check_samples(samples: np.ndarray, ts: np.ndarray, kind: str, dim: int) -> None:
    """Raise for the earliest of stacked samples (k, dd, dd), taken at
    ``ts[:k]``, that is not finite (:class:`IntegrationDivergedError`) or
    fails trace preservation (:class:`ContractViolationError`)."""
    finite = np.isfinite(samples).all(axis=(1, 2))
    with np.errstate(invalid="ignore"):
        defect, scale = _sample_defects(samples, kind, dim)
    bad = ~finite | (defect > SAMPLE_TRACE_TOL * scale)
    if bad.any():
        i = int(np.argmax(bad))
        t = float(ts[i])
        if not finite[i]:
            raise IntegrationDivergedError(f"generator sample at t={t:g} is not finite", time=t)
        raise ContractViolationError(
            f"generator sample at t={t:g} violates trace preservation (defect {defect[i]:.3e})"
        )


def generator_samples(gen: TclGenerator, grid: TimeGrid) -> np.ndarray:
    """G(t) at every grid point, stacked (N, dd, dd): a constant ``matrix``
    repeated, else ``evaluate`` called once per point.  The earliest sample
    that has the wrong shape, is not finite or fails trace preservation is
    reported with its time and the class :func:`build_propagator` gives it."""
    ts = grid.points
    if gen.matrix is not None:
        a = _checked_matrix(gen)
        _check_samples(a[None], ts, gen.kind, gen.dim)
        return np.repeat(a[None], grid.n, axis=0)
    dd = gen.matrix_dim
    samples = []
    for t in ts.tolist():
        try:
            m = np.asarray(gen.evaluate(t))
            if m.shape != (dd, dd):
                raise ContractViolationError(f"generator sample at t={t:g} has shape {m.shape}")
        except Exception:
            if samples:  # a failure at an earlier time is reported first
                _check_samples(np.stack(samples), ts, gen.kind, gen.dim)
            raise
        samples.append(m)
    samples = np.stack(samples)
    _check_samples(samples, ts, gen.kind, gen.dim)
    return samples


def tcl_propagator(gen: TclGenerator, grid: TimeGrid) -> tuple[PropagatorFamily, np.ndarray]:
    """The propagator family of ``gen`` (:func:`build_propagator`) and its
    samples on the grid (:func:`generator_samples`), each sample evaluated
    once: a time-dependent generator's on-grid samples are the ones its
    RK4 pass took."""
    if gen.matrix is not None:
        return build_propagator(gen, grid), generator_samples(gen, grid)
    maps, samples = _rk4_tcl(gen, grid)
    # a last sample taken apart from the steps feeds no row: check it here
    _check_samples(samples, grid.points, gen.kind, gen.dim)
    return PropagatorFamily(grid, maps, gen.kind, gen.dim), samples


def _finalize_trajectory(raw: np.ndarray, grid: TimeGrid, kind: str, dim: int) -> Trajectory:
    ts = grid.points
    if kind == "quantum":
        # column-stacked vectors: v.reshape(d, d, order='F') == v.reshape(d, d).T
        states = raw.reshape(grid.n, dim, dim).transpose(0, 2, 1)
        states = (states + states.conj().transpose(0, 2, 1)) / 2.0
        traces = np.einsum("nii->n", states).real
        drift = float(np.max(np.abs(traces - 1.0)))
        if drift > TRACE_DRIFT_TOL:
            i = int(np.argmax(np.abs(traces - 1.0)))
            raise IntegrationDivergedError(
                f"trace drifted to {traces[i]:.12g} at t={ts[i]:g}", time=float(ts[i])
            )
        states = states / traces[:, None, None]
    else:
        sums = raw.sum(axis=1)
        drift = float(np.max(np.abs(sums - 1.0)))
        if drift > TC_NORMALIZATION_TOL:
            i = int(np.argmax(np.abs(sums - 1.0)))
            raise IntegrationDivergedError(
                f"normalization drifted to {sums[i]:.12g} at t={ts[i]:g}", time=float(ts[i])
            )
        states = raw / sums[:, None]
    # a state outside its state set (the simplex or the PSD cone) is a
    # numerical failure on every route, at the time of that state
    try:
        return Trajectory(grid, states, kind)
    except InvalidStateError as exc:
        raise IntegrationDivergedError(str(exc), time=exc.time) from exc


def solve_tcl(gen: TclGenerator, initial, grid: TimeGrid) -> Trajectory:
    """Integrate the homogeneous time-local equation d/dt x = G(t) x: the
    propagator family of :func:`build_propagator` applied to ``initial``,
    so trace drift beyond ``TRACE_DRIFT_TOL`` raises
    :class:`IntegrationDivergedError` naming the time."""
    return apply_family(build_propagator(gen, grid), initial)


def _kernel_table(kernel: MemoryKernel, grid: TimeGrid) -> np.ndarray:
    h = grid.dt
    dd = kernel.matrix_dim
    dtype = complex if kernel.kind == "quantum" else float
    table = np.asarray(kernel.evaluate(np.arange(grid.n) * h), dtype=dtype)  # lag m is m * h
    if table.shape != (grid.n, dd, dd):
        raise ContractViolationError(f"kernel samples have shape {table.shape}, expected {(grid.n, dd, dd)}")
    finite = np.isfinite(table).all(axis=(1, 2))
    n_ok = grid.n if finite.all() else int(np.argmin(finite))
    head = table[:n_ok]
    # kernels act as generators under the time integral: trace-annihilated;
    # the samples ahead of the first non-finite one are judged first
    defect = np.max(np.abs(linalg.conservation_row(kernel.kind, kernel.dim) @ head), axis=-1)
    scale = max(1.0, float(np.max(np.abs(head)))) if n_ok else 1.0
    bad = np.flatnonzero(defect > SAMPLE_TRACE_TOL * scale)
    if bad.size:
        raise ContractViolationError(
            f"memory kernel violates trace annihilation at lag {bad[0]*h:g} "
            f"(defect {defect[bad[0]]:.3e})"
        )
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
    if not grid.is_uniform():
        raise ContractViolationError("solve on a uniform grid")
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
    if m_tot == 0:
        return ys
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
    tinv = _toeplitz_inverse(lags)
    real = not np.iscomplexobj(ys)
    fft, ifft = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)

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
        spec = fft(b_lags[:n] / sb, nfft, axis=0) @ fft(x[lo:mid] / sx, nfft, axis=0)
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
    return ys


def solve_tc(kernel: MemoryKernel, initial, grid: TimeGrid) -> Trajectory:
    """Integrate the homogeneous memory-kernel equation
    d/dt x(t) = int_0^t K(t-s) x(s) ds by product-trapezoidal quadrature."""
    y0 = _initial_vector(initial, kernel.kind, kernel.dim)
    raw = volterra_propagate(kernel, y0, grid)
    if kernel.kind == "quantum":
        raw = raw.astype(complex)
    else:
        raw = raw.real.astype(float)
    return _finalize_trajectory(raw, grid, kernel.kind, kernel.dim)


def build_propagator(source, grid: TimeGrid) -> PropagatorFamily:
    """Propagator family Phi(t, 0) from a generator or kernel.

    Columns are obtained by propagating each canonical basis vector of the
    carrier space: vectorized matrix units for quantum sources, the n
    canonical probability basis vectors for classical ones (yielding the
    stochastic propagator T(t, 0))."""
    if isinstance(source, TclGenerator) and source.matrix is not None:
        raw = _constant_maps(source, grid)
    elif isinstance(source, TclGenerator):
        raw = _rk4_tcl(source, grid)[0]
    elif isinstance(source, MemoryKernel):
        eye = np.eye(source.matrix_dim, dtype=complex if source.kind == "quantum" else float)
        raw = volterra_propagate(source, eye, grid)
    else:
        raise ContractViolationError(f"unsupported propagator source {type(source).__name__}")
    return PropagatorFamily(grid, raw, source.kind, source.dim)


def apply_family(family: PropagatorFamily, initial) -> Trajectory:
    """Trajectory obtained by applying each Phi(t, 0) to one initial state."""
    y0 = _initial_vector(initial, family.kind, family.dim)
    raw = np.einsum("nab,b->na", family.maps, y0)
    return _finalize_trajectory(raw, family.grid, family.kind, family.dim)
