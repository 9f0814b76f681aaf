"""The malformed-config grid: every leaf and object of each command's
config set to each of a fixed list of wrong values, plus unknown keys in the
config and its ``model`` and ``grid`` objects, run in-process through
``cli.main`` on a 51-point grid.  Every case exits 0 or 2 (the one
numerical failure below exits 3) and raises nothing; an exit 2 prints one
``config error:`` line, and an unknown key names its dotted path."""

import copy
import json

import pytest

from backflow_lab.cli import main

GRID = {"dt": 0.01, "t_max": 0.5}
MODEL = {"name": "amplitude_damping_qubit", "params": {"nbar": 0.2}}
BASES = {
    "simulate": {"model": MODEL, "grid": GRID, "route": "auto"},
    "extract": {"model": MODEL, "grid": GRID, "route": "auto"},
    "divisibility": {"model": MODEL, "grid": GRID, "route": "auto", "rate_tolerance": 1e-7},
    "backflow": {
        "model": MODEL,
        "grid": GRID,
        "route": "auto",
        "measures": ["rel_entropy"],
        "epsilon_n": 1e-6,
        "rate_tolerance": 1e-7,
    },
    "phase-diagram": {
        "model": MODEL,
        "grid": GRID,
        "axes": [{"param": "gamma", "min": 0.5, "max": 1.0, "steps": 2}],
        "measures": ["rel_entropy"],
        "epsilon_n": 1e-6,
        "rate_tolerance": 1e-7,
        "threads": 1,
    },
}
# wrong types, empty containers, 0, -1, an integer beyond the float range, and the markers of the old schema
VALUES = (
    None, True, "x", 0, -1, 10**400, [], {}, [1], {"x": 1}, {"__nested__": True}, {"__nested__": True, "__open__": True}
)
UNKNOWN_KEYS = ("x", "__nested__", "__open__")
# nbar = 0 makes the reference state pure, so the relative entropy is +inf at
# every point and no backflow exists: a numerical failure, not a config error
NUMERICAL_FAILURES = {"backflow:model.params.nbar=3"}


def _paths(node, prefix=()):
    """Every key or index path of a config, each object before its leaves."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _set(config, path, value):
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def cases():
    """(id, command, config, unknown key path or None) of every case."""
    out = []
    for command, base in BASES.items():
        for path in _paths(base):
            for i, value in enumerate(VALUES):
                config = copy.deepcopy(base)
                _set(config, path, copy.deepcopy(value))
                out.append((f"{command}:{'.'.join(map(str, path))}={i}", command, config, None))
        for prefix in ((), ("model",), ("grid",)):
            for key in UNKNOWN_KEYS:
                config = copy.deepcopy(base)
                _set(config, prefix + (key,), 1)
                dotted = ".".join(prefix + (key,))
                out.append((f"{command}:{dotted}", command, config, dotted))
    return out


def run_case(tmp_path, command, config):
    """(exit code, stderr) of one case."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return main([command, "--config", str(path), "--out", str(tmp_path)])


def test_every_case_exits_0_or_2_without_a_traceback(tmp_path, capsys):
    failures = []
    for case_id, command, config, unknown in cases():
        try:
            code = run_case(tmp_path, command, config)
        except Exception as exc:  # a traceback is the failure this grid guards against
            failures.append(f"{case_id}: raised {type(exc).__name__}: {exc}")
            continue
        err = capsys.readouterr().err
        if unknown is not None:
            if code != 2 or f"unknown config key {unknown!r}" not in err:
                failures.append(f"{case_id}: unknown key gave exit {code}, {err.strip()!r}")
        elif case_id in NUMERICAL_FAILURES:
            if code != 3 or err.count("\n") != 1 or not err.startswith("numerical failure: "):
                failures.append(f"{case_id}: exit {code}, {err.strip()!r}")
        elif code not in (0, 2):
            failures.append(f"{case_id}: exit {code}, {err.strip()!r}")
        elif code == 2 and (err.count("\n") != 1 or not err.startswith("config error: ")):
            failures.append(f"{case_id}: exit 2 with stderr {err!r}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("command", sorted(BASES))
def test_every_base_config_runs(tmp_path, command):
    assert run_case(tmp_path, command, BASES[command]) == 0
