"""Value types: states, time grids and trajectories.

All types are immutable after construction (backing arrays are marked
read-only) and validate their invariants eagerly, so anything downstream
can trust a constructed instance.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD complex matrix (the reduced state)."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ContractViolationError(f"density matrix must be square, got {m.shape}")
        d = m.shape[0]
        if d < 1 or d > linalg.MAX_QUANTUM_DIM:
            raise ContractViolationError(f"dimension {d} outside supported range 1..{linalg.MAX_QUANTUM_DIM}")
        if linalg.hermiticity_defect(m) > HERMITICITY_TOL:
            raise ContractViolationError(
                f"density matrix not Hermitian within {HERMITICITY_TOL:g}"
            )
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ContractViolationError(f"trace {tr} differs from 1 beyond {TRACE_TOL:g}")
        w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
        if w[0] < PSD_FLOOR:
            raise ContractViolationError(
                f"density matrix not PSD: min eigenvalue {w[0]:.3e} < {PSD_FLOOR:g}"
            )
        object.__setattr__(self, "entries", _freeze(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class ProbabilityVector:
    """Nonnegative real vector summing to one."""

    entries: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.entries, dtype=float)
        if p.ndim != 1:
            raise ContractViolationError("probability vector must be one-dimensional")
        n = p.size
        if n < 1 or n > linalg.MAX_CLASSICAL_DIM:
            raise ContractViolationError(f"dimension {n} outside supported range 1..{linalg.MAX_CLASSICAL_DIM}")
        if np.min(p) < PROB_FLOOR:
            raise ContractViolationError(f"negative entry {np.min(p):.3e} below {PROB_FLOOR:g}")
        if abs(float(np.sum(p)) - 1.0) > TRACE_TOL:
            raise ContractViolationError(f"entries sum to {np.sum(p)}, not 1")
        object.__setattr__(self, "entries", _freeze(p))

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
    """Strictly increasing sample times starting at 0.

    The step and the uniformity flag are computed once, at construction,
    so :attr:`dt` and :meth:`is_uniform` cost O(1) per call.
    """

    points: np.ndarray
    _dt: float = field(init=False, repr=False, compare=False)
    _uniform: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.points, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ContractViolationError("grid needs at least two points")
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
        if not (np.isfinite(dt) and np.isfinite(t_max)):
            raise ContractViolationError("dt and t_max must be finite")
        if dt <= 0 or t_max <= 0:
            raise ContractViolationError("dt and t_max must be positive")
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

    def is_uniform(self) -> bool:
        return self._uniform


@dataclass(frozen=True)
class Trajectory:
    """Per-grid-point states of a single kind ('quantum' or 'classical').

    States are stored as one stacked array: shape (n, d, d) complex for
    quantum, (n, m) float for classical.  Construction is the one check of
    the state set, batched over the stack: the dimension cap, finite
    entries, Hermiticity within ``HERMITICITY_TOL``, trace (sum) within
    ``TRAJECTORY_TRACE_TOL``, and eigenvalues above ``PSD_FLOOR`` (entries
    above ``TRAJECTORY_PROB_FLOOR``).  A state outside the set raises
    :class:`InvalidStateError` naming the earliest such time.

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
        if self.kind not in ("quantum", "classical"):
            raise ContractViolationError(f"unknown trajectory kind {self.kind!r}")
        arr = np.asarray(self.states)
        n = self.grid.n
        ts = self.grid.points
        spectrum = None
        if self.kind == "quantum":
            arr = arr.astype(complex)
            if arr.ndim != 3 or arr.shape[0] != n or arr.shape[1] != arr.shape[2]:
                raise ContractViolationError(f"expected ({n}, d, d) quantum states, got {arr.shape}")
            if arr.shape[1] > linalg.MAX_QUANTUM_DIM:
                raise ContractViolationError(
                    f"dimension {arr.shape[1]} outside supported range 1..{linalg.MAX_QUANTUM_DIM}"
                )
            _check_finite(arr, ts)
            adj = arr.conj().transpose(0, 2, 1)
            skew = np.abs(arr - adj)
            defect = float(np.max(skew)) / 2.0
            if defect > HERMITICITY_TOL:
                i = np.unravel_index(np.argmax(skew), skew.shape)[0]
                raise InvalidStateError(
                    f"non-Hermitian state in trajectory (defect {defect:.3e})", time=float(ts[i])
                )
            traces = np.einsum("nii->n", arr)
            bad = np.argmax(np.abs(traces - 1.0))
            if abs(traces[bad] - 1.0) > TRAJECTORY_TRACE_TOL:
                raise InvalidStateError(
                    f"state at t={ts[bad]:g} has trace {traces[bad]}", time=float(ts[bad])
                )
            spectrum = linalg.hermitian_spectra(arr)
            i = np.argmin(spectrum[:, 0])
            if spectrum[i, 0] < PSD_FLOOR:
                raise InvalidStateError(
                    f"state at t={ts[i]:g} has eigenvalue {spectrum[i, 0]:.3e}", time=float(ts[i])
                )
            spectrum = _freeze(spectrum)
        else:
            arr = arr.astype(float)
            if arr.ndim != 2 or arr.shape[0] != n:
                raise ContractViolationError(f"expected ({n}, m) classical states, got {arr.shape}")
            if arr.shape[1] > linalg.MAX_CLASSICAL_DIM:
                raise ContractViolationError(
                    f"dimension {arr.shape[1]} outside supported range 1..{linalg.MAX_CLASSICAL_DIM}"
                )
            _check_finite(arr, ts)
            if np.min(arr) < TRAJECTORY_PROB_FLOOR:
                i = np.unravel_index(np.argmin(arr), arr.shape)[0]
                raise InvalidStateError(
                    f"negative probability at t={ts[i]:g}: {np.min(arr):.3e}", time=float(ts[i])
                )
            sums = arr.sum(axis=1)
            bad = np.argmax(np.abs(sums - 1.0))
            if abs(sums[bad] - 1.0) > TRAJECTORY_TRACE_TOL:
                raise InvalidStateError(
                    f"state at t={ts[bad]:g} sums to {sums[bad]}", time=float(ts[bad])
                )
        object.__setattr__(self, "states", _freeze(arr))
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def _check_finite(arr: np.ndarray, ts: np.ndarray):
    """Raise :class:`InvalidStateError` at the earliest state with a NaN or
    infinite entry (no later check sees through a NaN: it compares false)."""
    finite = np.isfinite(arr)
    if not finite.all():
        i = int(np.argmin(finite.reshape(arr.shape[0], -1).all(axis=1)))
        raise InvalidStateError(f"state at t={ts[i]:g} has a non-finite entry", time=float(ts[i]))
