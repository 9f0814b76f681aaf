"""One path from a model to its analysis, shared by the CLI commands and the
sweep rows.

:func:`propagate` is the only place that chooses between what a model
offers: the closed form (``closed_form``: ``trajectory_fn``, with
``propagator_fn`` where the model has one), the time-local generator
(``tcl``) and the memory kernel (``tc``); ``auto`` is the first of the three
the model offers.  It states
the paper's TC-to-TCL procedure once, propagator family -> time-local
generator, and computes each part it is asked for once:

* the trajectory is, on ``tcl``, the initial state carried through the
  same RK4 pass that samples the generator (no family is built); on
  ``closed_form`` with ``propagator_fn`` and on ``tc`` when the generator
  is asked for too, the family the route builds anyway applied to the
  initial state; else the model's own ``trajectory_fn``, else the
  memory-kernel solve of the initial state alone;
* the sampled generator is the input itself on ``tcl`` (G(t) on the grid,
  no gaps), and is extracted from the route's family on ``closed_form`` and
  ``tc``; a closed form without ``propagator_fn`` has none.

:func:`analyze` runs the rest of the chain on one point: the divisibility
test where the route has a generator, the table of information series, each
built once (generator gaps as skip intervals), the backflow of each measure,
and the classical/intrinsic sector split with its half-grid error estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, ContractViolationError
from .generator_analysis import DivisibilityReport, SampledGenerator, check_divisible, extract_tcl_generator
from .information import backflow_functional, series_from_trajectory
from .models import ModelSpec
from .netfd import DecomposedBackflow, classify, decomposed_backflow, two_state_series_from_trajectory
from .propagation import _finalize_trajectory, _initial_vector, apply_family, build_propagator, solve_tc, tcl_pass
from .states import TimeGrid, Trajectory, _trusted

ROUTES = ("closed_form", "tcl", "tc")


def resolve_route(model: ModelSpec, route: str, grid: TimeGrid | None = None) -> str:
    """``route`` itself, or the first route the model offers for ``auto``.
    Given the ``grid`` of a run that needs the generator, a route that
    extracts it from a family (``closed_form`` with ``propagator_fn``, or
    ``tc``) on a grid too short for the 4th-order stencils raises
    :class:`ConfigError` too, before any propagation."""
    sources = (model.trajectory_fn, model.tcl_generator, model.kernel)
    offered = [r for r, source in zip(ROUTES, sources) if source is not None]
    if route == "auto":
        if not offered:
            raise ConfigError(f"model {model.name} offers no route")
        route = offered[0]
    if route not in ROUTES:
        raise ConfigError(f"unknown route {route!r}")
    if route not in offered:
        raise ConfigError(f"model {model.name} has no {route} route")
    extracts = route == "tc" or route == "closed_form" and model.propagator_fn is not None
    if grid is not None and extracts and grid.n < 5:
        raise ConfigError(f"generator extraction on route {route} needs a grid of at least 5 points, got {grid.n}")
    return route


def propagate(
    model: ModelSpec, grid: TimeGrid, route: str = "auto", trajectory: bool = True, generator: bool = True
) -> tuple[Trajectory | None, SampledGenerator | None]:
    """(trajectory, time-local generator sampled on ``grid``) of ``model``
    along ``route``, each None when not asked for; the generator is also
    None on a closed-form route without ``propagator_fn``.  An unknown
    route, one the model does not offer, or a grid too short to extract the
    generator on, raises :class:`ConfigError` (:func:`resolve_route`)."""
    route = resolve_route(model, route, grid if generator else None)
    traj = family = samples = None
    if route == "tcl":
        source = model.tcl_generator
        y0 = _initial_vector(model.initial_state, source.kind, source.dim) if trajectory else None
        raw, samples = tcl_pass(source, grid, y0)
        if trajectory:
            traj = _finalize_trajectory(raw, grid, source.kind, source.dim)
    elif route == "closed_form":
        if generator and model.propagator_fn is not None:
            family = model.propagator_fn(grid)
        elif trajectory:
            traj = model.trajectory_fn(grid)
    elif generator:
        family = build_propagator(model.kernel, grid)
    if trajectory and traj is None:
        if family is None:  # tc asked for the trajectory alone: one column, not dd
            traj = solve_tc(model.kernel, model.initial_state, grid)
        else:
            traj = apply_family(family, model.initial_state)
    if not generator:
        return traj, None
    if samples is not None:  # tcl: the read-only samples tcl_pass checked
        fields = dict(kind=source.kind, dim=source.dim, gaps=(), matrix_dim=source.matrix_dim)
        return traj, _trusted(SampledGenerator, grid=grid, samples=samples, **fields)
    return traj, None if family is None else extract_tcl_generator(family)


def check_split_grid(grid: TimeGrid):
    """Raise :class:`ContractViolationError` unless ``grid`` has the 3
    points the sector split's half-grid error estimate needs: every other
    point, at least two of them."""
    if grid.n < 3:
        raise ContractViolationError(f"the sector split needs a grid of at least 3 points, got {grid.n}")


@dataclass(frozen=True)
class PointReport:
    """What :func:`analyze` finds at one point.  ``series`` holds the series of the
    measures and of the split (``s_cl`` and ``s_qe``, or ``kl``), generator gaps skipped;
    ``split_errors`` the :attr:`InfoSeries.half_grid_error` of ``n_cl`` and ``n_qe``."""

    trajectory: Trajectory
    divisibility: DivisibilityReport | None  # None without a propagator
    series: dict  # measure tag -> InfoSeries
    backflow: dict  # measure tag -> accumulated backflow
    split: DecomposedBackflow
    split_errors: tuple

    @property
    def gaps(self) -> tuple:
        return () if self.divisibility is None else self.divisibility.gaps


def analyze(model: ModelSpec, grid: TimeGrid, route, measures, epsilon_n: float, rate_tolerance: float) -> PointReport:
    """Propagate along ``route``, test divisibility where the route has a
    sampled generator (:func:`propagate`), and accumulate the
    backflow of each of ``measures`` and of the two sectors.

    A two-state quantum trajectory is split through the extended entropy
    (``s_cl``/``s_qe``); any other trajectory is classical, with all of its
    backflow in the classical sector (``kl`` to the reference state).
    """
    traj, gen = propagate(model, grid, route)
    divisibility = None if gen is None else check_divisible(gen, rate_tolerance)
    gaps = () if divisibility is None else divisibility.gaps
    if traj.kind == "quantum" and traj.dim == 2:
        series = dict(zip(("s_cl", "s_qe"), two_state_series_from_trajectory(traj, skip_intervals=gaps)))
    else:
        series = {"kl": series_from_trajectory(traj, "kl", reference=model.reference_state, skip_intervals=gaps)}
    for tag in measures:
        if tag not in series:
            series[tag] = series_from_trajectory(traj, tag, reference=model.reference_state, skip_intervals=gaps)
    backflow = {tag: backflow_functional(series[tag]) for tag in measures}
    if "s_cl" in series:
        split = decomposed_backflow(series["s_cl"], series["s_qe"], epsilon_n)
        errors = (series["s_cl"].half_grid_error, series["s_qe"].half_grid_error)
    else:
        n_cl = backflow_functional(series["kl"])
        split = DecomposedBackflow(n_cl, n_cl, 0.0, classify(n_cl, 0.0, epsilon_n))
        errors = (series["kl"].half_grid_error, 0.0)
    return PointReport(traj, divisibility, series, backflow, split, errors)
