"""Parameter sweeps over the built-in models.  Each lattice point runs
:func:`analysis.analyze` on the model's ``auto`` route (propagate, extract
the time-local generator, test divisibility, accumulate backflow measures
and their classical/intrinsic split) and is formatted into one row.

Sweeps never abort on a failing point: a numerical or contract failure
(any :class:`BackflowLabError`, or numpy's ``LinAlgError``) is recorded in
that row's ``error`` column.  Any other exception is a programming error
and propagates.  Axis and fixed parameters (names, types and schema
ranges), the measure tags and their fit to the model, ``epsilon_n``,
``rate_tolerance``, ``dt`` and ``t_max`` (a grid of at least 3 points, and
of 5 where the auto route extracts the generator) are checked before any
row runs.  Rows are assembled in lattice order regardless of worker
completion order, so repeated runs are bit-identical.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from .analysis import analyze, check_split_grid, resolve_route
from .errors import BackflowLabError, ContractViolationError
from .generator_analysis import RATE_TOLERANCE
from .information import InfoSeries, check_measure_fit, check_measure_tags
from .models import MODEL_REGISTRY, ModelSpec, build_model, check_params
from .netfd import EPSILON_N
from .states import DEFAULT_DT, DEFAULT_T_MAX, TimeGrid, finite_number, integer

SWEEP_COLUMNS_TAIL = (
    "divisible",
    "min_rate",
    "first_violation_time",
    "n_cl",
    "n_qe",
    "n_total",
    "revival",
    "regime",
    "marginal",
    "error",
)


def check_tolerance(name: str, value) -> float:
    """``epsilon_n`` or ``rate_tolerance`` as a float: a finite number >= 0,
    else :class:`ContractViolationError`."""
    value = finite_number(name, value)
    if value < 0:
        raise ContractViolationError(f"{name} must be >= 0, got {value}")
    return value


def revival_detector(series: InfoSeries, epsilon_n: float = EPSILON_N):
    """Flag a revival iff some strict local maximum exceeds the running
    maximum of the earlier ones by more than ``epsilon_n``; a peak and both
    of its neighbours lie outside the skip intervals.  Returns (flag, peak
    list as (t, value))."""
    vals = series.values
    if vals.size < 3:
        raise ContractViolationError("need at least 3 points")
    ok = ~series.skipped()
    mid = vals[1:-1]
    idx = 1 + np.flatnonzero(ok[:-2] & ok[1:-1] & ok[2:] & (mid > vals[:-2]) & (mid > vals[2:]))
    heights = vals[idx]
    flag = bool(np.any(heights[1:] > np.maximum.accumulate(heights)[:-1] + epsilon_n))
    return flag, list(zip(series.grid.points[idx].tolist(), heights.tolist()))


@dataclass(frozen=True)
class SweepSpec:
    """Lattice description: 1 or 2 swept parameter axes over a registered
    model, remaining parameters fixed.  Each axis entry is checked here: a
    parameter name of the model's number parameters, finite bounds inside
    its schema range with max > min, and an integer step count >= 2.  Each
    axis's values and the rows' ``grid`` (:meth:`TimeGrid.uniform`, the one
    check of dt and t_max) are built once, here."""

    model: str
    axes: tuple  # ((name, min, max, steps), ...) with 1 or 2 entries
    fixed: dict = field(default_factory=dict)
    dt: float = DEFAULT_DT
    t_max: float = DEFAULT_T_MAX
    measures: tuple = ()
    epsilon_n: float = EPSILON_N
    rate_tolerance: float = RATE_TOLERANCE
    threads: int = 1
    grid: TimeGrid = field(init=False, repr=False, compare=False)
    _values: tuple = field(init=False, repr=False, compare=False)  # each axis's values, as floats

    def __post_init__(self):
        if not isinstance(self.model, str) or self.model not in MODEL_REGISTRY:
            raise ContractViolationError(f"unknown model {self.model!r}")
        if not 1 <= len(self.axes) <= 2:
            raise ContractViolationError("sweeps support 1 or 2 axes")
        if integer("threads", self.threads) < 1:
            raise ContractViolationError(f"threads must be an integer >= 1, got {self.threads!r}")
        schema = MODEL_REGISTRY[self.model][1]
        check_params(self.model, self.fixed)
        values = []
        for i, (name, lo, hi, steps) in enumerate(self.axes):
            if not isinstance(name, str):
                raise ContractViolationError(f"axes[{i}].param must be a parameter name, got {name!r}")
            if name not in schema:
                raise ContractViolationError(f"model {self.model} has no parameter {name!r} to sweep")
            if schema[name]["type"] != "number":
                raise ContractViolationError(f"axes[{i}]: {name!r} is not a number parameter")
            lo, hi = finite_number(f"axes[{i}].min", lo), finite_number(f"axes[{i}].max", hi)
            if integer(f"axes[{i}].steps", steps) < 2:
                raise ContractViolationError(f"axes[{i}] ({name!r}) needs at least 2 steps")
            if not hi > lo:
                raise ContractViolationError(f"axes[{i}] ({name!r}) needs max > min")
            # the schema ranges are intervals, so both ends decide the lattice
            check_params(self.model, {name: lo})
            check_params(self.model, {name: hi})
            try:
                values.append(np.linspace(lo, hi, steps).tolist())
            except (ValueError, MemoryError) as exc:
                raise ContractViolationError(f"axes[{i}] ({name!r}) has too many steps to allocate: {exc}") from exc
        object.__setattr__(self, "_values", tuple(values))
        check_measure_tags(self.measures)
        object.__setattr__(self, "measures", tuple(self.measures))
        for name in ("epsilon_n", "rate_tolerance"):
            object.__setattr__(self, name, check_tolerance(name, getattr(self, name)))
        object.__setattr__(self, "grid", TimeGrid.uniform(self.dt, self.t_max))
        check_split_grid(self.grid)
        # the measures must fit the model's trajectory and the grid its auto route, judged
        # at the first point; a model that does not build there records its error per row
        first_point = dict(self.fixed, **{name: v[0] for (name, *_), v in zip(self.axes, values)})
        try:
            first = build_model(self.model, first_point)
        except BackflowLabError:
            return
        for tag in self.measures:
            check_measure_fit(tag, first.kind, first.initial_state.dim)
        resolve_route(first, "auto", self.grid)

    def lattice(self) -> list[dict]:
        """Parameter dicts in lattice order (last axis fastest)."""
        names = [name for name, *_ in self.axes]
        return [dict(self.fixed, **dict(zip(names, combo))) for combo in itertools.product(*self._values)]


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple

    def columns(self) -> list[str]:
        axis_names = [name for name, *_ in self.spec.axes]
        measure_cols = [f"N_{m}" for m in self.spec.measures]
        return axis_names + measure_cols + list(SWEEP_COLUMNS_TAIL)

    def summary(self) -> dict:
        counts: dict[str, int] = {}
        for row in self.rows:
            label = row.get("regime") or "error"
            counts[label] = counts.get(label, 0) + 1
        out = {"regime_counts": counts, "rows": len(self.rows)}
        if len(self.spec.axes) == 1:
            name = self.spec.axes[0][0]
            boundaries = []
            prev = None
            for row in self.rows:
                cur = row.get("regime")
                if prev is not None and cur != prev[0]:
                    boundaries.append(
                        {
                            "axis": name,
                            "between": [prev[1], row[name]],
                            "from": prev[0],
                            "to": cur,
                        }
                    )
                prev = (cur, row[name])
            out["boundaries"] = boundaries
        return out


def _pipeline_one(model: ModelSpec, grid: TimeGrid, measures, epsilon_n, rate_tolerance) -> dict:
    """One lattice point's row, formatted from :func:`analysis.analyze` on
    the model's ``auto`` route."""
    report = analyze(model, grid, "auto", measures, epsilon_n, rate_tolerance)
    div, split = report.divisibility, report.split
    err_cl, err_qe = report.split_errors
    row = {f"N_{tag}": value for tag, value in report.backflow.items()}
    row["divisible"] = None if div is None else div.divisible
    row["min_rate"] = None if div is None else div.min_rate
    row["first_violation_time"] = None if div is None else div.first_violation_time
    row.update(split.to_json_dict())  # n_total, n_cl, n_qe, regime
    # a row is boundary-marginal when either sector sits closer to the
    # classification threshold than ten times its own grid-refinement
    # error estimate
    row["marginal"] = bool(
        abs(split.n_cl - epsilon_n) <= 10.0 * err_cl or abs(split.n_qe - epsilon_n) <= 10.0 * err_qe
    )
    # revival flag on the trajectory's own series, split as analyze splits the sectors:
    # b_qe = |rho_01|^2 of a quantum (two-state) trajectory, 'kl' of a classical one
    traj = report.trajectory
    if traj.kind == "quantum":
        series = InfoSeries(grid, np.abs(traj.states[:, 0, 1]) ** 2, "s_qe", report.gaps)
    else:
        series = report.series["kl"]
    row["revival"], _ = revival_detector(series, epsilon_n)
    row["error"] = ""
    return row


def _sweep_point(spec: SweepSpec, params: dict) -> dict:
    """The row of the lattice point ``params`` of ``spec``, on the spec's grid."""
    try:
        model = build_model(spec.model, params)
        row = _pipeline_one(model, spec.grid, spec.measures, spec.epsilon_n, spec.rate_tolerance)
    except (BackflowLabError, np.linalg.LinAlgError) as exc:  # recorded per row
        row = {col: None for col in SWEEP_COLUMNS_TAIL}
        for m in spec.measures:
            row[f"N_{m}"] = None
        row["error"] = f"{type(exc).__name__}: {exc}"
    row.update(params)
    return row


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run the full pipeline at every lattice point, every row on the spec's grid.

    Points are distributed over a process pool of ``threads`` workers,
    capped at the CPU count and the number of points; with one worker they
    run in this process.  Result rows are in lattice order either way.
    """
    points = spec.lattice()
    workers = min(spec.threads, os.cpu_count() or 1, len(points))
    if workers > 1:
        # imported here: only a sweep with several workers needs the pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(functools.partial(_sweep_point, spec), points, chunksize=1))
    else:
        rows = [_sweep_point(spec, p) for p in points]
    return SweepResult(spec=spec, rows=tuple(rows))
