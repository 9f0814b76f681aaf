"""Command-line front end.

Commands: ``simulate``, ``extract``, ``divisibility``, ``backflow``,
``phase-diagram``, ``model list``.  Each reads a JSON config (``--config``),
applies dotted-path overrides (``--set a.b.c=value`` plus the ``--dt``,
``--t-max``, ``--threads`` shortcuts), validates it against the command's
schema (unknown keys are rejected), runs, and writes outputs atomically
under ``--out``.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import serialize
from .errors import BackflowLabError, ConfigError, ContractViolationError
from .generator_analysis import (
    check_classical_divisible,
    check_cp_divisible,
    extract_tcl_generator,
)
from .information import REFERENCE_TAGS, backflow_functional, series_from_trajectory
from .models import MODEL_REGISTRY, build_model, model_schemas
from .netfd import decomposed_backflow, two_state_series_from_trajectory
from .phase_diagram import SweepSpec, run_sweep
from .propagation import build_propagator, solve_tc, solve_tcl
from .states import TimeGrid

DEFAULT_DT = 1e-3
DEFAULT_T_MAX = 20.0


# ---------------------------------------------------------------- config

def _parse_scalar(text: str):
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def load_config(path: str | None, overrides) -> dict:
    config: dict = {}
    if path is not None:
        try:
            with open(path) as handle:
                config = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError("config root must be a JSON object")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form path=value")
        dotted, raw = item.split("=", 1)
        node = config
        keys = dotted.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {dotted!r} crosses a non-object")
        node[keys[-1]] = _parse_scalar(raw)
    return config


def _validate_keys(config: dict, schema: dict, path: str = ""):
    for key, value in config.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown config key {where!r}")
        sub = schema[key]
        if isinstance(sub, dict) and sub.get("__nested__"):
            if not isinstance(value, dict):
                raise ConfigError(f"{where!r} must be an object")
            inner = {k: v for k, v in sub.items() if k != "__nested__"}
            if sub.get("__open__"):
                continue
            _validate_keys(value, inner, where)


def _validate_model_params(name: str, params: dict):
    if name not in MODEL_REGISTRY:
        raise ConfigError(f"unknown model {name!r}; known: {sorted(MODEL_REGISTRY)}")
    schema = MODEL_REGISTRY[name][1]
    for key, value in params.items():
        if key not in schema:
            raise ConfigError(f"model {name} has no parameter {key!r}")
        rule = schema[key]
        if rule["type"] in ("number", "integer") and isinstance(value, bool):
            raise ConfigError(f"parameter {key} must be a {rule['type']}, not a boolean")
        if rule["type"] == "number" and not isinstance(value, (int, float)):
            raise ConfigError(f"parameter {key} must be a number")
        if rule["type"] == "number" and not math.isfinite(value):
            raise ConfigError(f"parameter {key} must be finite, got {value}")
        if rule["type"] == "integer" and not isinstance(value, int):
            raise ConfigError(f"parameter {key} must be an integer")
        if rule["type"] == "string":
            if not isinstance(value, str):
                raise ConfigError(f"parameter {key} must be a string")
            if "choices" in rule and value not in rule["choices"]:
                raise ConfigError(f"parameter {key} must be one of {rule['choices']}")
            continue
        lo = rule.get("min")
        if lo is not None:
            if rule.get("exclusive_min") and not value > lo:
                raise ConfigError(f"parameter {key}={value} must be > {lo}")
            if not rule.get("exclusive_min") and value < lo:
                raise ConfigError(f"parameter {key}={value} must be >= {lo}")
        hi = rule.get("max")
        if hi is not None and value > hi:
            raise ConfigError(f"parameter {key}={value} must be <= {hi}")


_GRID_SCHEMA = {"__nested__": True, "dt": {}, "t_max": {}}
_MODEL_SCHEMA = {"__nested__": True, "name": {}, "params": {"__nested__": True, "__open__": True}}

COMMAND_SCHEMAS = {
    "simulate": {"model": _MODEL_SCHEMA, "grid": _GRID_SCHEMA, "route": {}},
    "extract": {"model": _MODEL_SCHEMA, "grid": _GRID_SCHEMA, "route": {}},
    "divisibility": {
        "model": _MODEL_SCHEMA,
        "grid": _GRID_SCHEMA,
        "route": {},
        "rate_tolerance": {},
    },
    "backflow": {
        "model": _MODEL_SCHEMA,
        "grid": _GRID_SCHEMA,
        "route": {},
        "measures": {},
        "epsilon_n": {},
        "rate_tolerance": {},
    },
    "phase-diagram": {
        "model": _MODEL_SCHEMA,
        "grid": _GRID_SCHEMA,
        "axes": {},
        "measures": {},
        "epsilon_n": {},
        "rate_tolerance": {},
        "threads": {},
    },
}


def _grid_params(config: dict, args) -> tuple[float, float]:
    """(dt, t_max) from the config's grid block; ``--dt``/``--t-max`` win."""
    grid_cfg = dict(config.get("grid", {}))
    if args.dt is not None:
        grid_cfg["dt"] = args.dt
    if args.t_max is not None:
        grid_cfg["t_max"] = args.t_max
    values = []
    for key, default in (("dt", DEFAULT_DT), ("t_max", DEFAULT_T_MAX)):
        value = grid_cfg.get(key, default)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"grid.{key} must be a number")
        if not math.isfinite(value) or value <= 0:
            raise ConfigError(f"grid.{key} must be finite and positive, got {value}")
        values.append(float(value))
    return values[0], values[1]


def _grid_from_config(config: dict, args) -> TimeGrid:
    return TimeGrid.uniform(*_grid_params(config, args))


def _model_from_config(config: dict):
    model_cfg = config.get("model")
    if not isinstance(model_cfg, dict) or "name" not in model_cfg:
        raise ConfigError("config requires model.name")
    name = model_cfg["name"]
    params = dict(model_cfg.get("params", {}))
    _validate_model_params(name, params)
    try:
        return build_model(name, params)
    except ContractViolationError as exc:
        raise ConfigError(str(exc)) from exc


def _trajectory(model, grid: TimeGrid, route: str):
    if route not in ("auto", "closed_form", "tcl", "tc", "embedding"):
        raise ConfigError(f"unknown route {route!r}")
    if route == "auto":
        if model.trajectory_fn is not None:
            return model.trajectory_fn(grid)
        if model.has("tcl_generator"):
            return solve_tcl(model.tcl_generator, model.initial_state, grid)
        if model.kernel is not None:
            return solve_tc(model.kernel, model.initial_state, grid)
        raise ConfigError(f"model {model.name} offers no trajectory route")
    if route in ("closed_form", "embedding"):
        if model.trajectory_fn is None:
            raise ConfigError(f"model {model.name} has no {route} route")
        return model.trajectory_fn(grid)
    if route == "tcl":
        if not model.has("tcl_generator"):
            raise ConfigError(f"model {model.name} has no time-local generator")
        return solve_tcl(model.tcl_generator, model.initial_state, grid)
    if model.kernel is None:
        raise ConfigError(f"model {model.name} has no memory kernel")
    return solve_tc(model.kernel, model.initial_state, grid)


def _propagator(model, grid: TimeGrid):
    if model.propagator_fn is not None:
        return model.propagator_fn(grid)
    if model.has("tcl_generator"):
        return build_propagator(model.tcl_generator, grid)
    if model.kernel is not None:
        return build_propagator(model.kernel, grid)
    raise ConfigError(f"model {model.name} offers no propagator route")


# ---------------------------------------------------------------- commands

def cmd_simulate(config: dict, args) -> int:
    model = _model_from_config(config)
    grid = _grid_from_config(config, args)
    traj = _trajectory(model, grid, config.get("route", "auto"))
    out_dir = args.out
    serialize.write_text_atomic(
        os.path.join(out_dir, "trajectory.csv"), serialize.trajectory_csv(traj)
    )
    if traj.kind == "quantum":
        traces = np.einsum("nii->n", traj.states).real
        herm = float(np.max(np.abs(traj.states - traj.states.conj().transpose(0, 2, 1)))) / 2
        min_eig = float(np.min(np.linalg.eigvalsh(traj.states)))
    else:
        traces = traj.states.sum(axis=1)
        herm = 0.0
        min_eig = float(np.min(traj.states))
    validation = {
        "model": model.name,
        "params": model.params,
        "kind": traj.kind,
        "grid": {"dt": grid.dt, "t_max": grid.t_max, "points": grid.n},
        "max_trace_defect": float(np.max(np.abs(traces - 1.0))),
        "max_hermiticity_defect": herm,
        "min_eigenvalue": min_eig,
        "states_validated": True,
    }
    serialize.write_json_atomic(os.path.join(out_dir, "validation.json"), validation)
    return 0


def cmd_extract(config: dict, args) -> int:
    model = _model_from_config(config)
    grid = _grid_from_config(config, args)
    family = _propagator(model, grid)
    sampled = extract_tcl_generator(family)
    serialize.write_text_atomic(
        os.path.join(args.out, "generator.csv"), serialize.sampled_generator_csv(sampled)
    )
    serialize.write_json_atomic(
        os.path.join(args.out, "gaps.json"),
        {"gaps": [[a, b] for a, b in sampled.gaps], "kind": sampled.kind},
    )
    return 0


def cmd_divisibility(config: dict, args) -> int:
    model = _model_from_config(config)
    grid = _grid_from_config(config, args)
    family = _propagator(model, grid)
    sampled = extract_tcl_generator(family)
    tol = float(config.get("rate_tolerance", 1e-7))
    report = (
        check_cp_divisible(sampled, tol)
        if sampled.kind == "quantum"
        else check_classical_divisible(sampled, tol)
    )
    rates_path = os.path.join(args.out, "rates.csv")
    serialize.write_text_atomic(rates_path, serialize.rate_traces_csv(report))
    serialize.write_json_atomic(
        os.path.join(args.out, "divisibility.json"),
        report.to_json_dict(rates_csv_path=rates_path),
    )
    return 0


def cmd_backflow(config: dict, args) -> int:
    model = _model_from_config(config)
    grid = _grid_from_config(config, args)
    traj = _trajectory(model, grid, config.get("route", "auto"))
    measures = config.get("measures")
    if measures is None:
        measures = ["kl"] if traj.kind == "classical" else ["rel_entropy"]
    gaps: tuple = ()
    report_dict = None
    try:
        family = _propagator(model, grid)
        sampled = extract_tcl_generator(family)
        gaps = sampled.gaps
        tol = float(config.get("rate_tolerance", 1e-7))
        report = (
            check_cp_divisible(sampled, tol)
            if sampled.kind == "quantum"
            else check_classical_divisible(sampled, tol)
        )
        report_dict = report.to_json_dict()
    except ConfigError:
        pass  # closed-form-only model: no generator route
    payload = {
        "model": model.name,
        "params": model.params,
        "measures": {},
        "divisibility": report_dict,
    }
    for tag in measures:
        reference = model.reference_state if tag in REFERENCE_TAGS else None
        series = series_from_trajectory(traj, tag, reference=reference, skip_intervals=gaps)
        payload["measures"][tag] = {
            "backflow": backflow_functional(series),
            "tail_residual": series.tail_residual(),
            "has_infinite": series.has_infinite(),
        }
    eps = float(config.get("epsilon_n", 1e-6))
    if traj.kind == "quantum" and traj.dim == 2:
        s_cl, s_qe = two_state_series_from_trajectory(traj, skip_intervals=gaps)
        payload.update(decomposed_backflow(s_cl, s_qe, eps).to_json_dict())
    elif traj.kind == "classical":
        from .phase_diagram import classify

        kl_series = series_from_trajectory(
            traj, "kl", reference=model.reference_state, skip_intervals=gaps
        )
        n_cl = backflow_functional(kl_series)
        payload.update(
            {
                "n_total": n_cl,
                "n_cl": n_cl,
                "n_qe": 0.0,
                "regime": classify(n_cl, 0.0, eps),
            }
        )
    serialize.write_json_atomic(os.path.join(args.out, "backflow.json"), payload)
    return 0


def cmd_phase_diagram(config: dict, args) -> int:
    model_cfg = config.get("model")
    if not isinstance(model_cfg, dict) or "name" not in model_cfg:
        raise ConfigError("config requires model.name")
    axes_cfg = config.get("axes")
    if not axes_cfg:
        raise ConfigError("config requires at least one sweep axis")
    axes = []
    for axis in axes_cfg:
        try:
            axes.append((axis["param"], float(axis["min"]), float(axis["max"]), int(axis["steps"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"axis entries need param/min/max/steps: {exc}") from exc
    fixed = dict(model_cfg.get("params", {}))
    _validate_model_params(model_cfg["name"], fixed)
    dt, t_max = _grid_params(config, args)
    threads = args.threads if args.threads is not None else int(config.get("threads", 1))
    try:
        spec = SweepSpec(
            model=model_cfg["name"],
            axes=tuple(axes),
            fixed=fixed,
            dt=dt,
            t_max=t_max,
            measures=tuple(config.get("measures", [])),
            epsilon_n=float(config.get("epsilon_n", 1e-6)),
            rate_tolerance=float(config.get("rate_tolerance", 1e-7)),
            threads=threads,
        )
    except ContractViolationError as exc:
        raise ConfigError(str(exc)) from exc
    result = run_sweep(spec)
    serialize.write_text_atomic(os.path.join(args.out, "sweep.csv"), serialize.sweep_csv(result))
    serialize.write_json_atomic(os.path.join(args.out, "summary.json"), result.summary())
    return 0


def cmd_model_list(args) -> int:
    text = json.dumps(model_schemas(), indent=2, sort_keys=True)
    print(text)
    return 0


# ---------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="backflow-lab",
        description="non-Markovian relaxation diagnostics: propagation, "
        "generator extraction, divisibility, backflow, phase diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=None, help="worker cap for sweeps")
        p.add_argument("--dt", type=float, default=None, help="grid step override")
        p.add_argument("--t-max", dest="t_max", type=float, default=None, help="grid end override")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="PATH=VALUE",
            help="override a config leaf via dotted path (repeatable)",
        )

    for name in ("simulate", "extract", "divisibility", "backflow", "phase-diagram"):
        add_common(sub.add_parser(name))
    model = sub.add_parser("model")
    model_sub = model.add_subparsers(dest="model_command", required=True)
    model_sub.add_parser("list")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "model":
        return cmd_model_list(args)
    handlers = {
        "simulate": cmd_simulate,
        "extract": cmd_extract,
        "divisibility": cmd_divisibility,
        "backflow": cmd_backflow,
        "phase-diagram": cmd_phase_diagram,
    }
    try:
        config = load_config(args.config, args.overrides)
        _validate_keys(config, COMMAND_SCHEMAS[args.command])
        return handlers[args.command](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BackflowLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
