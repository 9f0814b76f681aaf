"""Parameter sweeps over the built-in models.  Each lattice point runs
:func:`analysis.analyze` on the model's ``auto`` route (propagate, extract
the time-local generator, test divisibility, accumulate backflow measures
and their classical/intrinsic split) and is formatted into one row.

Sweeps never abort on a failing point: a numerical or contract failure
(any :class:`BackflowLabError`, or numpy's ``LinAlgError``) is recorded in
that row's ``error`` column.  Any other exception is a programming error
and propagates.  Axis and fixed parameters (names, types and schema
ranges), the measure tags, ``epsilon_n``, ``rate_tolerance``, ``dt`` and
``t_max`` are checked before any row runs.  Rows are assembled in lattice
order regardless of worker completion order, so repeated runs are
bit-identical.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .analysis import analyze
from .errors import BackflowLabError, ContractViolationError
from .information import InfoSeries, check_measure_tags
from .models import MODEL_REGISTRY, ModelSpec, build_model, check_params, finite_number
from .netfd import EPSILON_N
from .states import TimeGrid

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
    """Flag a revival iff some strict local maximum exceeds an earlier one
    by more than ``epsilon_n``.  Returns (flag, peak list as (t, value))."""
    vals = series.values
    if vals.size < 3:
        raise ContractViolationError("need at least 3 points")
    mask = series.skipped()
    peaks = []
    for i in range(1, vals.size - 1):
        if mask[i - 1] or mask[i] or mask[i + 1]:
            continue
        if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]:
            peaks.append((float(series.grid.points[i]), float(vals[i])))
    flag = False
    running_max = -np.inf
    for _, v in peaks:
        if v > running_max + epsilon_n and np.isfinite(running_max):
            flag = True
            break
        running_max = max(running_max, v)
    return flag, peaks


@dataclass(frozen=True)
class SweepSpec:
    """Lattice description: 1 or 2 swept parameter axes over a registered
    model, remaining parameters fixed.  Each axis entry is checked here: a
    parameter name of the model's number parameters, finite bounds inside
    its schema range with max > min, and an integer step count >= 2."""

    model: str
    axes: tuple  # ((name, min, max, steps), ...) with 1 or 2 entries
    fixed: dict = field(default_factory=dict)
    dt: float = 1e-3
    t_max: float = 20.0
    measures: tuple = ()
    epsilon_n: float = EPSILON_N
    rate_tolerance: float = 1e-7
    threads: int = 1

    def __post_init__(self):
        if self.model not in MODEL_REGISTRY:
            raise ContractViolationError(f"unknown model {self.model!r}")
        if not 1 <= len(self.axes) <= 2:
            raise ContractViolationError("sweeps support 1 or 2 axes")
        if isinstance(self.threads, bool) or not isinstance(self.threads, int) or self.threads < 1:
            raise ContractViolationError(f"threads must be an integer >= 1, got {self.threads!r}")
        schema = MODEL_REGISTRY[self.model][1]
        check_params(self.model, self.fixed)
        for i, (name, lo, hi, steps) in enumerate(self.axes):
            if not isinstance(name, str):
                raise ContractViolationError(f"axes[{i}].param must be a parameter name, got {name!r}")
            if name not in schema:
                raise ContractViolationError(f"model {self.model} has no parameter {name!r} to sweep")
            if schema[name]["type"] != "number":
                raise ContractViolationError(f"axes[{i}]: {name!r} is not a number parameter")
            lo, hi = finite_number(f"axes[{i}].min", lo), finite_number(f"axes[{i}].max", hi)
            if isinstance(steps, bool) or not isinstance(steps, int):
                raise ContractViolationError(f"axes[{i}].steps must be an integer, got {steps!r}")
            if steps < 2:
                raise ContractViolationError(f"axes[{i}] ({name!r}) needs at least 2 steps")
            if not hi > lo:
                raise ContractViolationError(f"axes[{i}] ({name!r}) needs max > min")
            # the schema ranges are intervals, so both ends decide the lattice
            check_params(self.model, {name: lo})
            check_params(self.model, {name: hi})
        check_measure_tags(self.measures)
        object.__setattr__(self, "measures", tuple(self.measures))
        for name in ("epsilon_n", "rate_tolerance"):
            object.__setattr__(self, name, check_tolerance(name, getattr(self, name)))
        for name in ("dt", "t_max"):
            value = finite_number(name, getattr(self, name))
            if not value > 0:
                raise ContractViolationError(f"{name} must be > 0, got {value}")
            object.__setattr__(self, name, value)

    def lattice(self) -> list[dict]:
        """Parameter dicts in lattice order (last axis fastest)."""
        named = [(name, np.linspace(lo, hi, steps)) for name, lo, hi, steps in self.axes]
        points = []
        for combo in itertools.product(*[vals for _, vals in named]):
            p = dict(self.fixed)
            for (name, _), v in zip(named, combo):
                p[name] = float(v)
            points.append(p)
        return points


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
    # revival flag on the intrinsic-parameter series where the model has one,
    # else on the primary measure series
    if model.b_qe_fn is not None:
        b_series = InfoSeries(grid, model.b_qe_fn(grid.points), "s_qe", report.gaps)
        row["revival"], _ = revival_detector(b_series, epsilon_n)
    else:
        tag = measures[0] if measures else "kl" if model.kind == "classical" else "vn_entropy"
        row["revival"], _ = revival_detector(report.series(tag), epsilon_n)
    row["error"] = ""
    return row


def _sweep_point(args) -> dict:
    model_name, params, dt, t_max, measures, epsilon_n, rate_tolerance = args
    grid = TimeGrid.uniform(dt, t_max)
    axis_part = dict(params)
    try:
        model = build_model(model_name, params)
        row = _pipeline_one(model, grid, measures, epsilon_n, rate_tolerance)
    except (BackflowLabError, np.linalg.LinAlgError) as exc:  # recorded per row
        row = {col: None for col in SWEEP_COLUMNS_TAIL}
        for m in measures:
            row[f"N_{m}"] = None
        row["error"] = f"{type(exc).__name__}: {exc}"
    row.update(axis_part)
    return row


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run the full pipeline at every lattice point.

    Points are distributed over a process pool of ``threads`` workers,
    capped at the CPU count and the number of points; with one worker they
    run in this process.  Result rows are in lattice order either way.
    """
    points = spec.lattice()
    work = [
        (spec.model, p, spec.dt, spec.t_max, tuple(spec.measures), spec.epsilon_n, spec.rate_tolerance)
        for p in points
    ]
    workers = min(spec.threads, os.cpu_count() or 1, len(points))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, work, chunksize=1))
    else:
        rows = [_sweep_point(w) for w in work]
    return SweepResult(spec=spec, rows=tuple(rows))
