"""Integrators for time-local (TCL) and memory-kernel (TC) dynamics, plus
propagator-family construction.

Both solvers are fixed-step on a uniform grid so downstream finite
differences see evenly spaced samples:

* :func:`solve_tcl` -- classical 4th-order Runge-Kutta for
  d/dt x(t) = G(t) x(t).
* :func:`solve_tc`  -- product-trapezoidal rule (2nd order) for the
  homogeneous Volterra equation d/dt x(t) = int_0^t K(t-s) x(s) ds,
  with the O(N^2) history sum reusing stored states.

The inhomogeneous terms of the underlying equations are fixed to zero;
there is deliberately no API surface for them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .errors import ContractViolationError, IntegrationDivergedError
from .states import (
    DensityMatrix,
    ProbabilityVector,
    SuperoperatorSample,
    TimeGrid,
    Trajectory,
    trace_annihilation_defect,
)

TRACE_DRIFT_TOL = 1e-8
TC_NORMALIZATION_TOL = 1e-6
SAMPLE_TRACE_TOL = 1e-10
PROPAGATOR_TRACE_TOL = 1e-8


@dataclass(frozen=True)
class TclGenerator:
    """Time-local generator: ``evaluate(t)`` returns the (d^2, d^2) complex
    superoperator matrix (quantum) or the (n, n) real rate matrix
    (classical)."""

    dim: int
    kind: str
    evaluate: Callable[[float], np.ndarray]

    def __post_init__(self):
        if self.kind not in ("quantum", "classical"):
            raise ContractViolationError(f"unknown generator kind {self.kind!r}")

    @property
    def matrix_dim(self) -> int:
        return self.dim * self.dim if self.kind == "quantum" else self.dim

    def sample(self, t: float) -> np.ndarray:
        m = np.asarray(self.evaluate(t))
        self.validate_sample(m, t)
        return m

    def validate_sample(self, m: np.ndarray, t: float):
        dd = self.matrix_dim
        if m.shape != (dd, dd):
            raise ContractViolationError(f"generator sample at t={t:g} has shape {m.shape}")
        scale = max(1.0, float(np.max(np.abs(m))))
        if self.kind == "quantum":
            defect = trace_annihilation_defect(m, self.dim)
        else:
            defect = float(np.max(np.abs(m.sum(axis=0))))
        if defect > SAMPLE_TRACE_TOL * scale:
            raise ContractViolationError(
                f"generator sample at t={t:g} violates trace preservation (defect {defect:.3e})"
            )


@dataclass(frozen=True)
class MemoryKernel:
    """Memory kernel: ``evaluate(tau)`` returns the kernel superoperator (or
    classical rate-matrix-valued kernel) at lag tau >= 0.  ``decay_scale``
    is a time-scale hint used to sanity-check the grid resolution."""

    dim: int
    kind: str
    evaluate: Callable[[float], np.ndarray]
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
        if self.kind == "quantum":
            r = linalg.trace_row(self.dim)
            defect = np.max(np.abs(r @ maps - r))
        else:
            defect = np.max(np.abs(maps.sum(axis=1) - 1.0))
        if defect > PROPAGATOR_TRACE_TOL:
            raise ContractViolationError(
                f"propagator family violates trace preservation (defect {defect:.3e})"
            )
        arr = np.ascontiguousarray(maps)
        arr.setflags(write=False)
        object.__setattr__(self, "maps", arr)

    def sample(self, i: int) -> SuperoperatorSample:
        if self.kind != "quantum":
            raise ContractViolationError("samples as superoperators exist only for quantum families")
        return SuperoperatorSample(self.dim, self.maps[i], time=float(self.grid.points[i]))


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


def rk4_linear(apply_at: Callable[[float, np.ndarray], np.ndarray], y0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Classic RK4 for dy/dt = A(t) y on a uniform grid.

    ``apply_at(t, y)`` must return A(t) @ y; ``y`` may be a vector or a
    matrix (basis columns propagated together).  Returns the stacked raw
    solution with no state validation.
    """
    if not grid.is_uniform():
        raise ContractViolationError("solve on a uniform grid")
    h = grid.dt
    ts = grid.points
    out = np.empty((grid.n,) + y0.shape, dtype=np.result_type(y0.dtype, np.float64))
    y = y0.astype(out.dtype, copy=True)
    out[0] = y
    for i in range(grid.n - 1):
        t = ts[i]
        k1 = apply_at(t, y)
        k2 = apply_at(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = apply_at(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = apply_at(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise IntegrationDivergedError(
                f"integration diverged at t={ts[i+1]:g}", time=float(ts[i + 1])
            )
        out[i + 1] = y
    return out


def rk4_constant(matrix: np.ndarray, y0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """RK4 for dy/dt = A y with constant A: one step is exactly the degree-4
    Taylor polynomial of exp(h A), precomputed once and iterated."""
    if not grid.is_uniform():
        raise ContractViolationError("solve on a uniform grid")
    h = grid.dt
    a = np.asarray(matrix)
    eye = np.eye(a.shape[0], dtype=a.dtype)
    ha = h * a
    step = eye + ha @ (eye + ha @ (eye / 2.0 + ha @ (eye / 6.0 + ha / 24.0)))
    out = np.empty((grid.n,) + y0.shape, dtype=np.result_type(a.dtype, y0.dtype, np.float64))
    y = y0.astype(out.dtype, copy=True)
    out[0] = y
    for i in range(grid.n - 1):
        y = step @ y
        out[i + 1] = y
    if not np.all(np.isfinite(out)):
        raise IntegrationDivergedError("integration diverged", time=float(grid.points[-1]))
    return out


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
    try:
        return Trajectory(grid, states, kind)
    except ContractViolationError as exc:
        raise IntegrationDivergedError(str(exc)) from exc


def solve_tcl(gen: TclGenerator, initial, grid: TimeGrid) -> Trajectory:
    """Integrate the homogeneous time-local equation d/dt x = G(t) x.

    Generator samples are validated at every grid time; the returned
    trajectory re-validates every stored state.  Trace drift beyond
    ``TRACE_DRIFT_TOL`` raises :class:`IntegrationDivergedError` naming the
    time (states are renormalized only within that allowance).
    """
    y0 = _initial_vector(initial, gen.kind, gen.dim)
    h = grid.dt
    cache: dict[float, np.ndarray] = {}

    def apply_at(t: float, y: np.ndarray) -> np.ndarray:
        m = cache.get(t)
        if m is None:
            m = np.asarray(gen.evaluate(t))
            on_grid = abs(t / h - round(t / h)) < 1e-9
            if on_grid:
                gen.validate_sample(m, t)
            cache.clear()
            cache[t] = m
        return m @ y

    raw = rk4_linear(apply_at, y0, grid)
    return _finalize_trajectory(raw, grid, gen.kind, gen.dim)


def _kernel_table(kernel: MemoryKernel, grid: TimeGrid) -> np.ndarray:
    h = grid.dt
    dd = kernel.matrix_dim
    table = np.empty((grid.n, dd, dd), dtype=complex if kernel.kind == "quantum" else float)
    for m in range(grid.n):
        k = np.asarray(kernel.evaluate(m * h))
        if k.shape != (dd, dd):
            raise ContractViolationError(f"kernel sample at lag {m*h:g} has shape {k.shape}")
        if not np.all(np.isfinite(k)):
            raise ContractViolationError(f"kernel sample at lag {m*h:g} is not finite")
        table[m] = k
    # kernels act as generators under the time integral: trace-annihilated
    if kernel.kind == "quantum":
        r = linalg.trace_row(kernel.dim)
        defect = float(np.max(np.abs(r @ table)))
    else:
        defect = float(np.max(np.abs(table.sum(axis=1))))
    scale = max(1.0, float(np.max(np.abs(table))))
    if defect > SAMPLE_TRACE_TOL * scale:
        raise ContractViolationError(
            f"memory kernel violates trace annihilation (defect {defect:.3e})"
        )
    return table


def volterra_propagate(kernel: MemoryKernel, y0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Product-trapezoidal solution of d/dt y = int_0^t K(t-s) y(s) ds.

    Returns the raw stacked solution; ``y0`` may be a vector or matrix.
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
    dd = y0.shape[0]
    lhs = np.eye(dd) - (h * h / 4.0) * table[0]
    solve = np.linalg.inv(lhs)
    f_prev = np.zeros_like(ys[0])
    vector_form = y0.ndim == 1
    for n in range(n_pts - 1):
        # S = (1/2) K_{n+1} y_0 + sum_{j=1}^{n} K_{n+1-j} y_j
        s = 0.5 * (table[n + 1] @ ys[0])
        if n >= 1:
            if vector_form:
                s = s + np.einsum("mab,mb->a", table[1 : n + 1][::-1], ys[1 : n + 1])
            else:
                s = s + np.einsum("mab,mbc->ac", table[1 : n + 1][::-1], ys[1 : n + 1])
        rhs = ys[n] + 0.5 * h * f_prev + 0.5 * h * h * s
        y_next = solve @ rhs
        if not np.all(np.isfinite(y_next)):
            raise IntegrationDivergedError(
                f"integration diverged at t={grid.points[n+1]:g}", time=float(grid.points[n + 1])
            )
        ys[n + 1] = y_next
        f_prev = h * (s + 0.5 * (table[0] @ y_next))
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
    dd = source.matrix_dim
    eye = np.eye(dd, dtype=complex if source.kind == "quantum" else float)
    if isinstance(source, TclGenerator):
        cache: dict[float, np.ndarray] = {}

        def apply_at(t: float, y: np.ndarray) -> np.ndarray:
            m = cache.get(t)
            if m is None:
                m = np.asarray(source.evaluate(t))
                cache.clear()
                cache[t] = m
            return m @ y

        raw = rk4_linear(apply_at, eye, grid)
    elif isinstance(source, MemoryKernel):
        raw = volterra_propagate(source, eye, grid)
    else:
        raise ContractViolationError(f"unsupported propagator source {type(source).__name__}")
    return PropagatorFamily(grid, raw, source.kind, source.dim)


def apply_family(family: PropagatorFamily, initial) -> Trajectory:
    """Trajectory obtained by applying each Phi(t, 0) to one initial state."""
    y0 = _initial_vector(initial, family.kind, family.dim)
    raw = np.einsum("nab,b->na", family.maps, y0)
    return _finalize_trajectory(raw, family.grid, family.kind, family.dim)
