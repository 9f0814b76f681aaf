"""Value types: states, time grids and trajectories.

All types are immutable after construction (backing arrays are marked
read-only) and validate their invariants eagerly; package code skips the
check only by :func:`_trusted`, for values built from checked inputs, and
by :func:`_hermitian_trajectory`, for quantum trajectories built Hermitian.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
import numpy as np

from . import linalg
from .errors import ContractViolationError, InvalidStateError

TRACE_TOL = 1e-12
HERMITICITY_TOL = 1e-12
PSD_FLOOR = -1e-10
PROB_FLOOR = -1e-12
# trace (sum) drift a trajectory state may carry, and its classical floor
TRAJECTORY_TRACE_TOL = 1e-9
TRAJECTORY_PROB_FLOOR = -1e-9
# the grid of a command or sweep that names no dt or t_max
DEFAULT_DT = 1e-3
DEFAULT_T_MAX = 20.0


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _trusted(cls, **fields):
    """The frozen dataclass ``cls`` holding ``fields`` as given, unchecked:
    package code only, for fields already in checked form (read-only arrays)."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def finite_number(where: str, value) -> float:
    """The one rule for a number input: ``value`` as a float when it is a finite real
    number, not a bool, else :class:`ContractViolationError` naming ``where``."""
    if isinstance(value, bool):
        raise ContractViolationError(f"{where} must be a number, not a boolean")
    if not isinstance(value, numbers.Real):
        raise ContractViolationError(f"{where} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer (or fraction) beyond the float range
        raise ContractViolationError(f"{where} must be finite, got a value beyond the float range") from None
    if not math.isfinite(number):
        raise ContractViolationError(f"{where} must be finite, got {value}")
    return number


def integer(where: str, value) -> int:
    """The one rule for an integer input: ``value`` as an int when it is a
    ``numbers.Integral`` (numpy's too), not a bool, else :class:`ContractViolationError`."""
    if isinstance(value, bool):
        raise ContractViolationError(f"{where} must be an integer, not a boolean")
    if not isinstance(value, numbers.Integral):
        raise ContractViolationError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _numeric(a, what: str, real: bool = False) -> np.ndarray:
    """The one rule for array input to a value type: ``a`` as a rectangular
    numeric array, real if ``real``, else :class:`ContractViolationError`."""
    try:
        arr = np.asarray(a)
    except (ValueError, TypeError):
        raise ContractViolationError(f"{what} are not a rectangular array") from None
    if arr.dtype.kind not in "biufc":
        raise ContractViolationError(f"{what} must be numeric, got dtype {arr.dtype}")
    if real and np.iscomplexobj(arr) and np.any(arr.imag):
        raise ContractViolationError(f"{what} must be real")
    return np.real(arr) if real else arr


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD complex matrix (the reduced state): a
    one-state stack of :func:`_check_states`, trace within ``TRACE_TOL``."""

    entries: np.ndarray

    def __post_init__(self):
        m = _check_states([self.entries], "quantum", None, TRACE_TOL, PROB_FLOOR)[0]
        object.__setattr__(self, "entries", m[0])

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class ProbabilityVector:
    """Nonnegative real vector summing to one: a one-state stack of
    :func:`_check_states`, sum within ``TRACE_TOL``, entries above
    ``PROB_FLOOR``."""

    entries: np.ndarray

    def __post_init__(self):
        p = _check_states([self.entries], "classical", None, TRACE_TOL, PROB_FLOOR)[0]
        object.__setattr__(self, "entries", p[0])

    @property
    def dim(self) -> int:
        return self.entries.size


def run_intervals(flagged: np.ndarray, ts: np.ndarray, h: float) -> tuple:
    """(lo, hi) of each run of flagged points, widened by h/2 on each side
    that has a neighbour; run starts and ends come from one ``np.diff``.
    :meth:`TimeGrid.within` of the result is ``flagged`` again wherever the
    grid steps exceed h/2."""
    edges = np.diff(flagged.astype(np.int8), prepend=0, append=0)
    first = np.flatnonzero(edges == 1)
    last = np.flatnonzero(edges == -1) - 1
    lo = ts[first] - np.where(first > 0, h / 2, 0.0)
    hi = ts[last] + np.where(last < ts.shape[0] - 1, h / 2, 0.0)
    return tuple(zip(lo.tolist(), hi.tolist()))


@dataclass(frozen=True)
class TimeGrid:
    """Finite, strictly increasing sample times starting at 0.

    The step and the uniformity flag are computed once, at construction,
    so :attr:`dt`, the one uniform-grid check, costs O(1) per call.
    """

    points: np.ndarray
    _dt: float = field(init=False, repr=False, compare=False)
    _uniform: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = _numeric(self.points, "grid points", real=True).astype(float, copy=False)
        if t.ndim != 1 or t.size < 2:
            raise ContractViolationError("grid needs at least two points")
        if not np.isfinite(t).all():
            raise ContractViolationError("grid points must be finite")
        if t[0] != 0.0:
            raise ContractViolationError("grid must start at t=0")
        steps = np.diff(t)
        if np.any(steps <= 0):
            raise ContractViolationError("grid must be strictly increasing")
        object.__setattr__(self, "points", _freeze(t))
        object.__setattr__(self, "_dt", float(steps[0]))
        object.__setattr__(
            self, "_uniform", bool(np.max(steps) - np.min(steps) <= 1e-9 * np.max(steps))
        )

    @classmethod
    def uniform(cls, dt: float, t_max: float) -> "TimeGrid":
        """The grid 0, dt, 2 dt, ... through t_max (or the first point past it): the
        one check of ``grid.dt`` and ``grid.t_max``, each a finite number > 0."""
        dt, t_max = finite_number("grid.dt", dt), finite_number("grid.t_max", t_max)
        for where, value in (("grid.dt", dt), ("grid.t_max", t_max)):
            if not value > 0:
                raise ContractViolationError(f"{where} must be > 0, got {value}")
        ratio = t_max / dt
        if not np.isfinite(ratio):
            raise ContractViolationError(f"t_max/dt = {t_max:g}/{dt:g} is not a finite point count")
        n = int(round(ratio))
        if abs(n * dt - t_max) > 1e-9 * max(1.0, t_max):
            n = int(np.ceil(ratio))
        try:
            return cls(np.arange(n + 1) * dt)
        except (ValueError, MemoryError) as exc:
            raise ContractViolationError(f"a grid of {float(n + 1):.3g} points cannot be allocated: {exc}") from exc

    @property
    def n(self) -> int:
        return self.points.size

    def within(self, intervals) -> np.ndarray:
        """Boolean mask of the points lying in any closed interval (a, b).

        Each interval's first and past-the-last point come from
        ``searchsorted``, and one difference-array ``cumsum`` marks the
        covered runs: O(N + k log N) for k intervals, which may be
        unsorted, overlapping or empty."""
        bounds = np.asarray(intervals, dtype=float).reshape(-1, 2)
        n = self.points.size
        if bounds.shape[0] == 0:
            return np.zeros(n, dtype=bool)
        first = np.searchsorted(self.points, bounds[:, 0], side="left")
        stop = np.searchsorted(self.points, bounds[:, 1], side="right")
        keep = (first < stop) & (bounds[:, 0] <= bounds[:, 1])  # also drops NaN ends
        marks = np.bincount(first[keep], minlength=n + 1) - np.bincount(stop[keep], minlength=n + 1)
        return np.cumsum(marks[:n]) > 0

    @property
    def t_max(self) -> float:
        return float(self.points[-1])

    @property
    def dt(self) -> float:
        if not self._uniform:
            raise ContractViolationError("grid is not uniform")
        return self._dt


@dataclass(frozen=True)
class Trajectory:
    """Per-grid-point states of a single kind ('quantum' or 'classical').

    States are stored as one stacked array: shape (n, d, d) complex for
    quantum, (n, m) float for classical.  Construction is the one check of
    the state set, :func:`_check_states`, with trace (sum) within
    ``TRAJECTORY_TRACE_TOL`` and entries above ``TRAJECTORY_PROB_FLOOR``; a
    state outside the set raises :class:`InvalidStateError` naming its time
    (package-built Hermitian ones come from :func:`_hermitian_trajectory`, same result).

    The eigenvalues of the check are kept as ``spectrum``, (n, d) float
    ascending (:func:`linalg.hermitian_spectra`), so the information
    measures read them instead of diagonalizing the states again; it is
    None for classical trajectories.
    """

    grid: TimeGrid
    states: np.ndarray
    kind: str
    spectrum: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        checked = _check_states(self.states, self.kind, self.grid.points, TRAJECTORY_TRACE_TOL, TRAJECTORY_PROB_FLOOR)
        object.__setattr__(self, "states", checked[0])
        object.__setattr__(self, "spectrum", checked[1])

    @property
    def dim(self) -> int:
        return self.states.shape[1]


_at = lambda ts, i: "" if ts is None else f" at t={ts[i]:g}"
_time = lambda ts, i: None if ts is None else float(ts[i])


def _require_finite(arr: np.ndarray, ts: np.ndarray | None):
    finite = np.isfinite(arr)
    if not finite.all():
        i = int(np.argmin(finite.reshape(arr.shape[0], -1).all(axis=1)))
        raise InvalidStateError(f"state{_at(ts, i)} has a non-finite entry", time=_time(ts, i))


def _psd_spectra(arr: np.ndarray, ts: np.ndarray | None) -> np.ndarray:
    spectrum = linalg.hermitian_spectra(arr)
    i = np.argmin(spectrum[:, 0])
    if spectrum[i, 0] < PSD_FLOOR:
        raise InvalidStateError(f"state{_at(ts, i)} has eigenvalue {spectrum[i, 0]:.3e}", time=_time(ts, i))
    return _freeze(spectrum)


def _hermitian_trajectory(grid: TimeGrid, states: np.ndarray) -> Trajectory:
    """Quantum :class:`Trajectory` of (n, d, d) ``states`` that finalize and the two-state and dephasing
    closed forms build exactly Hermitian, trace 1 within rounding: checked for the finite and PSD rules only."""
    _require_finite(states, grid.points)
    spectrum = _psd_spectra(states, grid.points)
    return _trusted(Trajectory, grid=grid, states=_freeze(states), kind="quantum", spectrum=spectrum)


def _check_states(arr, kind: str, ts: np.ndarray | None, trace_tol: float, floor: float):
    """The one check of a state set, batched over a stack of ``kind``
    states, (n, d, d) complex or (n, m) float: a rectangular numeric array
    (real, for classical states), the kind and the dimension cap
    (:func:`linalg.carrier_dim`), the shape, finite entries (no later check
    sees through a NaN), Hermiticity within ``HERMITICITY_TOL``, trace (sum)
    within ``trace_tol``, and eigenvalues above ``PSD_FLOOR`` (entries above
    ``floor``).  Returns the read-only states and, for quantum ones, their
    ascending spectra (:func:`linalg.hermitian_spectra`), else None.

    The first state outside the set raises :class:`InvalidStateError`
    naming its time in ``ts``; a single state is a one-row stack with
    ``ts`` None, and its error has time None.  The reductions run over the
    whole stack, and the failing row is looked up only on failure."""
    arr = _numeric(arr, "states")
    quantum = kind == "quantum"
    linalg.carrier_dim(kind, arr.shape[-1] if arr.ndim else 0)
    arr = arr.astype(complex) if quantum else _numeric(arr, "classical states", real=True).astype(float)
    n = 1 if ts is None else ts.size
    if arr.shape != (n,) + arr.shape[-1:] * (1 + quantum):
        form = "d, d) quantum" if quantum else "m) classical"
        raise ContractViolationError(f"expected ({n}, {form} states, got {arr.shape}")
    _require_finite(arr, ts)
    if not quantum:
        if np.min(arr) < floor:
            i = np.unravel_index(np.argmin(arr), arr.shape)[0]
            raise InvalidStateError(f"negative probability{_at(ts, i)}: {np.min(arr):.3e}", time=_time(ts, i))
        sums = arr.sum(axis=1)
        i = np.argmax(np.abs(sums - 1.0))
        if abs(sums[i] - 1.0) > trace_tol:
            raise InvalidStateError(f"state{_at(ts, i)} sums to {sums[i]}", time=_time(ts, i))
        return _freeze(arr), None
    defects = linalg.hermiticity_defects(arr)
    i = np.argmax(defects)
    if defects[i] > HERMITICITY_TOL:
        where = "" if ts is None else " in trajectory"
        raise InvalidStateError(f"non-Hermitian state{where} (defect {defects[i]:.3e})", time=_time(ts, i))
    traces = np.einsum("nii->n", arr)
    i = np.argmax(np.abs(traces - 1.0))
    if abs(traces[i] - 1.0) > trace_tol:
        raise InvalidStateError(f"state{_at(ts, i)} has trace {traces[i]}", time=_time(ts, i))
    return _freeze(arr), _psd_spectra(arr, ts)
