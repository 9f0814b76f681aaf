"""Command-line front end.

Commands: ``simulate``, ``extract``, ``divisibility``, ``backflow``,
``phase-diagram``, ``model list``.  Each reads a JSON config (``--config``),
applies dotted-path overrides (``--set a.b.c=value`` plus the ``--dt`` and
``--t-max`` shortcuts, and ``--threads`` on ``phase-diagram``), checks its
keys against :data:`CONFIG_KEYS` (unknown keys are rejected), runs, and
writes outputs atomically under ``--out`` (checked first: an ``--out`` that
is not, and cannot be made, a directory is a config error).  ``route`` is
resolved by :func:`analysis.propagate` in every command that takes it;
``backflow`` formats the :func:`analysis.analyze` report that a sweep row
also formats.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import analysis, linalg, serialize
from .errors import BackflowLabError, ConfigError, ContractViolationError
from .generator_analysis import RATE_TOLERANCE, check_divisible
from .information import check_measure_fit, check_measure_tags
from .models import build_model, model_schemas
from .netfd import EPSILON_N
from .phase_diagram import SweepSpec, check_tolerance, run_sweep
from .states import DEFAULT_DT, DEFAULT_T_MAX, TimeGrid


# ---------------------------------------------------------------- config

def _parse_scalar(text: str):
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return json.loads(text)
    except ValueError:  # not JSON, or an integer of more digits than int() converts
        return text


def load_config(path: str | None, overrides) -> dict:
    config: dict = {}
    if path is not None:
        try:
            with open(path) as handle:
                config = json.load(handle)
        except (OSError, ValueError) as exc:  # json's errors, an integer too long for int() among them
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


# the keys each command's config may hold, and those of its 'model' and
# 'grid' objects; model.params is an object whose names the model's schema checks
CONFIG_KEYS = {
    "simulate": ("model", "grid", "route"),
    "extract": ("model", "grid", "route"),
    "divisibility": ("model", "grid", "route", "rate_tolerance"),
    "backflow": ("model", "grid", "route", "measures", "epsilon_n", "rate_tolerance"),
    "phase-diagram": ("model", "grid", "axes", "measures", "epsilon_n", "rate_tolerance", "threads"),
    "model": ("name", "params"),
    "grid": ("dt", "t_max"),
}


def _validate_keys(config: dict, keys, path: str = ""):
    for key, value in config.items():
        where = f"{path}.{key}" if path else key
        if key not in keys:
            raise ConfigError(f"unknown config key {where!r}")
        if key in ("model", "grid", "params"):
            if not isinstance(value, dict):
                raise ConfigError(f"{where!r} must be an object")
            if key != "params":
                _validate_keys(value, CONFIG_KEYS[key], where)


@contextmanager
def _config_errors():
    """A broken input contract inside the block is a config error."""
    try:
        yield
    except ContractViolationError as exc:
        raise ConfigError(str(exc)) from exc


def _grid_params(config: dict, args) -> tuple:
    """(dt, t_max) from the config's grid block, defaulted; ``--dt``/``--t-max``
    win.  Unchecked: :meth:`TimeGrid.uniform` checks them."""
    grid_cfg = config.get("grid", {})
    dt = grid_cfg.get("dt", DEFAULT_DT) if args.dt is None else args.dt
    t_max = grid_cfg.get("t_max", DEFAULT_T_MAX) if args.t_max is None else args.t_max
    return dt, t_max


def _grid(config: dict, args) -> TimeGrid:
    """The uniform grid of :func:`_grid_params`; a grid that cannot be built (a bad
    dt or t_max, a non-finite or unallocatable point count) is a config error."""
    with _config_errors():
        return TimeGrid.uniform(*_grid_params(config, args))


_TOLERANCE_DEFAULTS = {"epsilon_n": EPSILON_N, "rate_tolerance": RATE_TOLERANCE}


def _tolerance(config: dict, key: str) -> float:
    """``epsilon_n`` or ``rate_tolerance``: a finite number >= 0."""
    with _config_errors():
        return check_tolerance(key, config.get(key, _TOLERANCE_DEFAULTS[key]))


def _measures(config: dict, model):
    """The configured measure tags, checked up front to be known and to fit
    the model's trajectory, or the model's default measure."""
    measures = config.get("measures")
    if measures is None:
        return ["kl"] if model.kind == "classical" else ["rel_entropy"]
    with _config_errors():
        check_measure_tags(measures)
        for tag in measures:
            check_measure_fit(tag, model.kind, model.initial_state.dim)
    return measures


def _model_config(config: dict) -> tuple[str, dict]:
    """(model.name, model.params) of a config whose keys are validated."""
    model_cfg = config.get("model", {})
    if "name" not in model_cfg:
        raise ConfigError("config requires model.name")
    return model_cfg["name"], dict(model_cfg.get("params", {}))


def _model_from_config(config: dict):
    with _config_errors():
        return build_model(*_model_config(config))


def _generator(config: dict, model, grid: TimeGrid):
    """The sampled time-local generator of the configured route
    (:func:`analysis.propagate`); no trajectory is built."""
    _, sampled = analysis.propagate(model, grid, config.get("route", "auto"), trajectory=False)
    if sampled is None:
        raise ConfigError(f"model {model.name} offers no propagator route")
    return sampled


def _check_out(path: str):
    """Raise :class:`ConfigError` unless ``--out`` is, or can be made, a directory."""
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(f"--out {path}: {probe} exists and is not a directory")


# ---------------------------------------------------------------- commands

def cmd_simulate(config: dict, args) -> int:
    model = _model_from_config(config)
    grid = _grid(config, args)
    traj, _ = analysis.propagate(model, grid, config.get("route", "auto"), generator=False)
    out_dir = args.out
    serialize.write_atomic(os.path.join(out_dir, "trajectory.csv"), lambda sink: serialize.trajectory_csv(traj, sink))
    if traj.kind == "quantum":
        traces = np.einsum("nii->n", traj.states).real
        herm = float(np.max(linalg.hermiticity_defects(traj.states)))
        min_eig = float(np.min(traj.spectrum[:, 0]))
    else:
        traces = linalg._row_reduce(np.add, traj.states)
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
    grid = _grid(config, args)
    sampled = _generator(config, model, grid)
    serialize.write_atomic(
        os.path.join(args.out, "generator.csv"), lambda sink: serialize.sampled_generator_csv(sampled, sink)
    )
    serialize.write_json_atomic(
        os.path.join(args.out, "gaps.json"),
        {"gaps": [[a, b] for a, b in sampled.gaps], "kind": sampled.kind},
    )
    return 0


def cmd_divisibility(config: dict, args) -> int:
    model = _model_from_config(config)
    grid = _grid(config, args)
    tol = _tolerance(config, "rate_tolerance")
    report = check_divisible(_generator(config, model, grid), tol)
    rates_path = os.path.join(args.out, "rates.csv")
    serialize.write_atomic(rates_path, lambda sink: serialize.rate_traces_csv(report, sink))
    serialize.write_json_atomic(
        os.path.join(args.out, "divisibility.json"),
        report.to_json_dict(rates_csv_path=rates_path),
    )
    return 0


def cmd_backflow(config: dict, args) -> int:
    model = _model_from_config(config)
    grid = _grid(config, args)
    with _config_errors():
        analysis.check_split_grid(grid)
    measures = _measures(config, model)
    eps = _tolerance(config, "epsilon_n")
    tol = _tolerance(config, "rate_tolerance")
    report = analysis.analyze(model, grid, config.get("route", "auto"), measures, eps, tol)
    payload = {
        "model": model.name,
        "params": model.params,
        "measures": {},
        "divisibility": None if report.divisibility is None else report.divisibility.to_json_dict(),
    }
    for tag, value in report.backflow.items():
        s = report.series[tag]
        payload["measures"][tag] = {
            "backflow": value,
            "tail_residual": s.tail_residual(),
            "has_infinite": s.has_infinite(),
        }
    payload.update(report.split.to_json_dict())
    serialize.write_json_atomic(os.path.join(args.out, "backflow.json"), payload)
    return 0


def cmd_phase_diagram(config: dict, args) -> int:
    name, fixed = _model_config(config)
    axes_cfg = config.get("axes")
    if not isinstance(axes_cfg, list) or not axes_cfg:
        raise ConfigError("config requires a list of at least one sweep axis")
    for i, axis in enumerate(axes_cfg):
        if not isinstance(axis, dict) or not {"param", "min", "max", "steps"} <= axis.keys():
            raise ConfigError(f"axes[{i}] needs param/min/max/steps")
    dt, t_max = _grid_params(config, args)
    threads = args.threads if args.threads is not None else config.get("threads", 1)
    with _config_errors():
        spec = SweepSpec(
            model=name,
            axes=tuple((a["param"], a["min"], a["max"], a["steps"]) for a in axes_cfg),
            fixed=fixed,
            dt=dt,
            t_max=t_max,
            measures=config.get("measures", ()),
            epsilon_n=config.get("epsilon_n", EPSILON_N),
            rate_tolerance=config.get("rate_tolerance", RATE_TOLERANCE),
            threads=threads,
        )
    result = run_sweep(spec)
    serialize.write_text_atomic(os.path.join(args.out, "sweep.csv"), serialize.sweep_csv(result))
    serialize.write_json_atomic(os.path.join(args.out, "summary.json"), result.summary())
    return 0


def cmd_model_list(args) -> int:
    text = json.dumps(model_schemas(), indent=2, sort_keys=True)
    print(text)
    return 0


# ---------------------------------------------------------------- main

@functools.cache  # one parser per process: parse_args leaves it unchanged
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
        p.add_argument("--dt", type=float, default=None, help="grid step override")
        p.add_argument("--t-max", dest="t_max", type=float, default=None, help="grid end override")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=None,
            metavar="PATH=VALUE",
            help="override a config leaf via dotted path (repeatable)",
        )

    for name in ("simulate", "extract", "divisibility", "backflow"):
        add_common(sub.add_parser(name))
    sweep = sub.add_parser("phase-diagram")
    add_common(sweep)
    sweep.add_argument("--threads", type=int, default=None, help="worker cap for sweeps")
    model = sub.add_parser("model")
    model_sub = model.add_subparsers(dest="model_command", required=True)
    model_sub.add_parser("list")
    return parser


# the status a shell gives a writer that SIGPIPE ends (128 + 13), as in ``yes | head -1``
EXIT_STDOUT_CLOSED = 141


def main(argv=None) -> int:
    """Run one command; its exit code.  A standard output closed by its
    reader (``| head -1``) ends the command quietly with
    ``EXIT_STDOUT_CLOSED``; the process's file descriptors are left as
    they are (:func:`console_main` quiets the interpreter's last flush)."""
    try:
        try:
            return _run(argv)
        finally:
            sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's last flush
    except BrokenPipeError:
        return EXIT_STDOUT_CLOSED


def console_main() -> int:
    """The ``backflow-lab`` and ``python -m backflow_lab`` entry point:
    :func:`main` on ``sys.argv``.  After a closed standard output, fd 1 is
    pointed at devnull, so that what is still buffered goes nowhere when
    the interpreter flushes it on exit, rather than printing a
    ``BrokenPipeError``."""
    code = main()
    if code == EXIT_STDOUT_CLOSED:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
    return code


def _run(argv) -> int:
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
        _check_out(args.out)
        config = load_config(args.config, args.overrides)
        _validate_keys(config, CONFIG_KEYS[args.command])
        return handlers[args.command](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BackflowLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(console_main())
