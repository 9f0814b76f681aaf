"""Parameter sweeps over the built-in models: propagate, extract the
time-local generator, test divisibility, accumulate backflow measures,
split them into classical/intrinsic sectors where available, and classify
each lattice point.

Sweeps never abort on a failing point: a numerical or contract failure
(any :class:`BackflowLabError`, or numpy's ``LinAlgError``) is recorded in
that row's ``error`` column.  Any other exception is a programming error
and propagates.  Axis and fixed parameters (names, types and schema
ranges), the measure tags and the tolerances ``epsilon_n`` and
``rate_tolerance`` are checked before any row runs.  Rows are assembled in
lattice order regardless of worker completion order, so repeated runs are
bit-identical.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BackflowLabError, ContractViolationError
from .generator_analysis import (
    check_classical_divisible,
    check_cp_divisible,
    extract_tcl_generator,
)
from .information import (
    REFERENCE_TAGS,
    InfoSeries,
    backflow_functional,
    check_measure_tags,
    series_from_trajectory,
)
from .models import MODEL_REGISTRY, ModelSpec, build_model, check_params
from .netfd import decomposed_backflow, two_state_series_from_trajectory
from .propagation import build_propagator, propagate_tcl, solve_tcl
from .states import TimeGrid, Trajectory

EPSILON_N = 1e-6
REGIMES = ("monotone", "classical_overshoot", "intrinsic_revival", "hybrid")

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


def classify(n_cl: float, n_qe: float, epsilon_n: float = EPSILON_N) -> str:
    """Regime label from the two backflow sectors."""
    if n_cl < 0 or n_qe < 0:
        raise ContractViolationError("backflow measures must be nonnegative")
    cl = n_cl > epsilon_n
    qe = n_qe > epsilon_n
    if cl and qe:
        return "hybrid"
    if cl:
        return "classical_overshoot"
    if qe:
        return "intrinsic_revival"
    return "monotone"


def check_tolerance(name: str, value) -> float:
    """``epsilon_n`` or ``rate_tolerance`` as a float: a finite number >= 0,
    else :class:`ContractViolationError`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ContractViolationError(f"{name} must be a number")
    if not math.isfinite(value):
        raise ContractViolationError(f"{name} must be finite, got {value}")
    if value < 0:
        raise ContractViolationError(f"{name} must be >= 0, got {value}")
    return float(value)


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
    model, remaining parameters fixed."""

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
        for name, lo, hi, steps in self.axes:
            if name not in schema:
                raise ContractViolationError(f"model {self.model} has no parameter {name!r} to sweep")
            if schema[name]["type"] != "number":
                raise ContractViolationError(f"axis {name!r} is not a number parameter")
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ContractViolationError(f"axis {name!r} needs finite bounds")
            if steps < 2:
                raise ContractViolationError(f"axis {name!r} needs at least 2 steps")
            if not hi > lo:
                raise ContractViolationError(f"axis {name!r} needs max > min")
            # the schema ranges are intervals, so both ends decide the lattice
            check_params(self.model, {name: float(lo)})
            check_params(self.model, {name: float(hi)})
        check_measure_tags(self.measures)
        object.__setattr__(self, "measures", tuple(self.measures))
        for name in ("epsilon_n", "rate_tolerance"):
            object.__setattr__(self, name, check_tolerance(name, getattr(self, name)))

    def axis_values(self) -> list:
        return [
            (name, np.linspace(lo, hi, int(steps)))
            for name, lo, hi, steps in self.axes
        ]

    def lattice(self) -> list[dict]:
        """Parameter dicts in lattice order (last axis fastest)."""
        named = self.axis_values()
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


def series_cache(traj: Trajectory, reference, gaps=()) -> Callable[[str], InfoSeries]:
    """Memoized information series of one trajectory, keyed by measure tag.

    Each series is built at most once; 's_cl' and 's_qe' come from a single
    two-state pass.  ``reference`` is passed only to the tags that need it.
    """
    cache: dict[str, InfoSeries] = {}

    def series(tag: str) -> InfoSeries:
        if tag not in cache:
            if tag in ("s_cl", "s_qe"):
                cache["s_cl"], cache["s_qe"] = two_state_series_from_trajectory(
                    traj, skip_intervals=gaps
                )
            else:
                cache[tag] = series_from_trajectory(
                    traj,
                    tag,
                    reference=reference if tag in REFERENCE_TAGS else None,
                    skip_intervals=gaps,
                )
        return cache[tag]

    return series


def _half_grid_backflow(series: InfoSeries) -> float:
    sub = InfoSeries(
        TimeGrid(series.grid.points[::2]),
        series.values[::2],
        series.measure_tag,
        series.skip_intervals,
    )
    return backflow_functional(sub)


def _pipeline_one(model: ModelSpec, grid: TimeGrid, measures, epsilon_n, rate_tolerance) -> dict:
    """The per-lattice-point pipeline: propagate, extract, test, measure."""
    row: dict = {}
    gaps: tuple = ()
    # trajectory and propagator from the best exact route available; a
    # time-local model without closed forms gets both from one RK4 pass
    traj = model.trajectory_fn(grid) if model.trajectory_fn is not None else None
    family = model.propagator_fn(grid) if model.propagator_fn is not None else None
    if model.has("tcl_generator"):
        gen = model.tcl_generator
        if traj is None and family is None:
            traj, family = propagate_tcl(gen, model.initial_state, grid)
        elif traj is None:
            traj = solve_tcl(gen, model.initial_state, grid)
        elif family is None:
            family = build_propagator(gen, grid)
    if traj is None:
        raise ContractViolationError(f"model {model.name} offers no trajectory route")
    # generator extraction and divisibility where a propagator exists
    divisible = None
    min_rate = None
    first_violation = None
    if family is not None:
        sampled = extract_tcl_generator(family)
        gaps = sampled.gaps
        report = (
            check_cp_divisible(sampled, rate_tolerance)
            if model.kind == "quantum"
            else check_classical_divisible(sampled, rate_tolerance)
        )
        divisible = report.divisible
        min_rate = report.min_rate
        first_violation = report.first_violation_time
    row["divisible"] = divisible
    row["min_rate"] = min_rate
    row["first_violation_time"] = first_violation
    # information measures; each series is built once per point and shared
    # by the measure columns, the sector split and the revival flag
    series = series_cache(traj, model.reference_state, gaps)
    for tag in measures:
        row[f"N_{tag}"] = backflow_functional(series(tag))
    # sector split; a row is boundary-marginal when either sector sits
    # closer to the classification threshold than ten times its own
    # grid-refinement error estimate
    if model.kind == "quantum" and traj.dim == 2:
        s_cl, s_qe = series("s_cl"), series("s_qe")
        decomp = decomposed_backflow(s_cl, s_qe, epsilon_n)
        n_cl, n_qe, n_total = decomp.n_cl, decomp.n_qe, decomp.n_total
        err_cl = abs(n_cl - _half_grid_backflow(s_cl))
        err_qe = abs(n_qe - _half_grid_backflow(s_qe))
        regime = decomp.regime
    else:
        kl_series = series("kl")
        n_cl = backflow_functional(kl_series)
        n_qe = 0.0
        n_total = n_cl
        err_cl = abs(n_cl - _half_grid_backflow(kl_series))
        err_qe = 0.0
        regime = classify(n_cl, n_qe, epsilon_n)
    row["n_cl"] = n_cl
    row["n_qe"] = n_qe
    row["n_total"] = n_total
    row["regime"] = regime
    row["marginal"] = bool(
        abs(n_cl - epsilon_n) <= 10.0 * err_cl or abs(n_qe - epsilon_n) <= 10.0 * err_qe
    )
    # revival flag on the intrinsic-parameter series where the model has one,
    # else on the primary measure series
    if model.b_qe_fn is not None:
        b_series = InfoSeries(grid, model.b_qe_fn(grid.points), "s_qe", gaps)
        row["revival"], _ = revival_detector(b_series, epsilon_n)
    else:
        tag = measures[0] if measures else "kl" if model.kind == "classical" else "vn_entropy"
        row["revival"], _ = revival_detector(series(tag), epsilon_n)
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
    axis_names = [name for name, *_ in spec.axes]
    for row, p in zip(rows, points):
        for name in axis_names:
            row[name] = p[name]
    return SweepResult(spec=spec, rows=tuple(rows))
