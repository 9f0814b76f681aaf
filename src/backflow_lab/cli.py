"""Command-line front end.

Commands: ``simulate``, ``extract``, ``divisibility``, ``backflow``,
``phase-diagram``, ``model list``.  Each reads a JSON config (``--config``),
applies dotted-path overrides (``--set a.b.c=value`` plus the ``--dt``,
``--t-max``, ``--threads`` shortcuts), validates it against the command's
schema (unknown keys are rejected), runs, and writes outputs atomically
under ``--out``.  ``route`` is resolved by :func:`analysis.propagate` in
every command that takes it; ``backflow`` formats the
:func:`analysis.analyze` report that a sweep row also formats.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import analysis, serialize
from .errors import BackflowLabError, ConfigError, ContractViolationError
from .generator_analysis import check_divisible, extract_tcl_generator
from .information import check_measure_tags
from .models import build_model, finite_number, model_schemas
from .phase_diagram import SweepSpec, check_tolerance, run_sweep
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
        try:
            value = finite_number(f"grid.{key}", grid_cfg.get(key, default))
        except ContractViolationError as exc:
            raise ConfigError(str(exc)) from exc
        if value <= 0:
            raise ConfigError(f"grid.{key} must be positive, got {value}")
        values.append(value)
    return values[0], values[1]


def _tolerance(config: dict, key: str, default: float) -> float:
    """``epsilon_n`` or ``rate_tolerance``: a finite number >= 0."""
    try:
        return check_tolerance(key, config.get(key, default))
    except ContractViolationError as exc:
        raise ConfigError(str(exc)) from exc


def _measures(config: dict):
    """The configured measure tags (None when absent), checked up front."""
    measures = config.get("measures")
    if measures is not None:
        try:
            check_measure_tags(measures)
        except ContractViolationError as exc:
            raise ConfigError(str(exc)) from exc
    return measures


def _model_from_config(config: dict):
    model_cfg = config.get("model")
    if not isinstance(model_cfg, dict) or "name" not in model_cfg:
        raise ConfigError("config requires model.name")
    name = model_cfg["name"]
    params = dict(model_cfg.get("params", {}))
    try:
        return build_model(name, params)
    except ContractViolationError as exc:
        raise ConfigError(str(exc)) from exc


def _generator(config: dict, model, grid: TimeGrid):
    """The time-local generator extracted from the propagator family of the
    configured route; no trajectory is built."""
    _, family = analysis.propagate(model, grid, config.get("route", "auto"), trajectory=False)
    if family is None:
        raise ConfigError(f"model {model.name} offers no propagator route")
    return extract_tcl_generator(family)


# ---------------------------------------------------------------- commands

def cmd_simulate(config: dict, args) -> int:
    model = _model_from_config(config)
    grid = TimeGrid.uniform(*_grid_params(config, args))
    traj, _ = analysis.propagate(model, grid, config.get("route", "auto"), propagator=False)
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
    grid = TimeGrid.uniform(*_grid_params(config, args))
    sampled = _generator(config, model, grid)
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
    grid = TimeGrid.uniform(*_grid_params(config, args))
    tol = _tolerance(config, "rate_tolerance", 1e-7)
    report = check_divisible(_generator(config, model, grid), tol)
    rates_path = os.path.join(args.out, "rates.csv")
    serialize.write_text_atomic(rates_path, serialize.rate_traces_csv(report))
    serialize.write_json_atomic(
        os.path.join(args.out, "divisibility.json"),
        report.to_json_dict(rates_csv_path=rates_path),
    )
    return 0


def cmd_backflow(config: dict, args) -> int:
    model = _model_from_config(config)
    grid = TimeGrid.uniform(*_grid_params(config, args))
    measures = _measures(config)
    eps = _tolerance(config, "epsilon_n", 1e-6)
    tol = _tolerance(config, "rate_tolerance", 1e-7)
    if measures is None:
        measures = ["kl"] if model.kind == "classical" else ["rel_entropy"]
    report = analysis.analyze(model, grid, config.get("route", "auto"), measures, eps, tol)
    payload = {
        "model": model.name,
        "params": model.params,
        "measures": {},
        "divisibility": None if report.divisibility is None else report.divisibility.to_json_dict(),
    }
    for tag, value in report.backflow.items():
        s = report.series(tag)
        payload["measures"][tag] = {
            "backflow": value,
            "tail_residual": s.tail_residual(),
            "has_infinite": s.has_infinite(),
        }
    payload.update(report.split.to_json_dict())
    serialize.write_json_atomic(os.path.join(args.out, "backflow.json"), payload)
    return 0


def cmd_phase_diagram(config: dict, args) -> int:
    model_cfg = config.get("model")
    if not isinstance(model_cfg, dict) or "name" not in model_cfg:
        raise ConfigError("config requires model.name")
    axes_cfg = config.get("axes")
    if not isinstance(axes_cfg, list) or not axes_cfg:
        raise ConfigError("config requires a list of at least one sweep axis")
    for i, axis in enumerate(axes_cfg):
        if not isinstance(axis, dict) or not {"param", "min", "max", "steps"} <= axis.keys():
            raise ConfigError(f"axes[{i}] needs param/min/max/steps")
    dt, t_max = _grid_params(config, args)
    threads = args.threads if args.threads is not None else config.get("threads", 1)
    try:
        spec = SweepSpec(
            model=model_cfg["name"],
            axes=tuple((a["param"], a["min"], a["max"], a["steps"]) for a in axes_cfg),
            fixed=dict(model_cfg.get("params", {})),
            dt=dt,
            t_max=t_max,
            measures=config.get("measures", ()),
            epsilon_n=_tolerance(config, "epsilon_n", 1e-6),
            rate_tolerance=_tolerance(config, "rate_tolerance", 1e-7),
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
