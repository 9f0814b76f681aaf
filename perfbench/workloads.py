"""Seeded workload definitions: the JSON configs each workload writes and
the CLI commands it runs on them.

Only standard-library code lives here, so the orchestrator can build
inputs without importing numpy or the package.  A seed moves physical
parameters inside a fixed band; it never changes a grid or a lattice.
"""

from __future__ import annotations

import json
import os
import random

DT = 1e-3

# sweep-quantum's lattice, gamma = 0.2..2.0 in 8 steps, run as four
# 2-step sweeps so that each timed command is short next to the host's
# speed changes (see hostprobe.py); the rows are the same 8 points
_GAMMAS = [0.2 + k * (2.0 - 0.2) / 7 for k in range(8)]
GAMMA_PAIRS = list(zip(_GAMMAS[0::2], _GAMMAS[1::2]))

# workload -> one-line reason it exists (mirrored in BENCHMARK.json)
WHY = {
    "sweep-quantum": "single-threaded sweeps through solve_tcl, build_propagator and CP rates; information and propagation share the time",
    "cli-mixed": "simulate/extract/divisibility/backflow in one process: Volterra sum, multi-MB CSVs, Mittag-Leffler integral branch",
}


def _grid(t_max: float) -> dict:
    return {"dt": DT, "t_max": t_max}


def _points(t_max: float) -> int:
    return int(round(t_max / DT)) + 1


def params_for(workload: str, seed: int) -> dict:
    """Physical parameters drawn from the workload's seed band."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep-quantum":
        return {"nbar": rng.uniform(0.1, 0.3)}
    if workload == "cli-mixed":
        # Mittag-Leffler cost grows with lam (more points leave the Taylor
        # branch), so lam keeps to a narrow band that holds the work fixed
        return {
            "tau_m": rng.uniform(0.4, 0.6),
            "amplitude": rng.uniform(1.2, 1.8),
            "lam": rng.uniform(0.95, 1.05),
        }
    raise KeyError(workload)


def configs_for(workload: str, params: dict) -> dict:
    """Config documents by file stem."""
    if workload == "sweep-quantum":
        return {
            f"sweep{k}": {
                "model": {
                    "name": "amplitude_damping_qubit",
                    "params": {"nbar": params["nbar"], "p0": 0.3, "c0": 0.35},
                },
                "grid": _grid(4.0),
                "axes": [{"param": "gamma", "min": lo, "max": hi, "steps": 2}],
                "measures": ["rel_entropy"],
                "threads": 1,
            }
            for k, (lo, hi) in enumerate(GAMMA_PAIRS)
        }
    if workload == "cli-mixed":
        return {
            "volterra": {
                "model": {
                    "name": "classical_exp_kernel",
                    "params": {"n": 2, "gamma": 1.0, "tau_m": params["tau_m"]},
                },
                "grid": _grid(16.0),
                "route": "tc",
            },
            "dephasing": {
                "model": {
                    "name": "dephasing_qubit",
                    "params": {
                        "rate_kind": "sinusoidal",
                        "lam": 1.0,
                        "amplitude": params["amplitude"],
                        "frequency": 1.0,
                    },
                },
                "grid": _grid(40.0),
            },
            "fractional": {
                "model": {"name": "fractional_two_state", "params": {"alpha": 0.6, "lam": params["lam"]}},
                "grid": _grid(40.0),
                "measures": ["s_cl", "s_qe"],
            },
        }
    raise KeyError(workload)


def commands_for(workload: str) -> list[tuple[str, str, str, int]]:
    """(command, config stem, output subdirectory, grid points delivered)."""
    if workload == "sweep-quantum":
        return [("phase-diagram", f"sweep{k}", f"sweep{k}", 2 * _points(4.0)) for k in range(len(GAMMA_PAIRS))]
    if workload == "cli-mixed":
        return [
            ("simulate", "volterra", "simulate", _points(16.0)),
            ("extract", "dephasing", "extract", _points(40.0)),
            ("divisibility", "dephasing", "divisibility", _points(40.0)),
            ("backflow", "fractional", "backflow", _points(40.0)),
        ]
    raise KeyError(workload)


def write_configs(workload: str, seed: int, directory: str):
    """Write the workload's configs into ``directory`` as ``<stem>.json``."""
    os.makedirs(directory, exist_ok=True)
    for stem, doc in configs_for(workload, params_for(workload, seed)).items():
        with open(os.path.join(directory, f"{stem}.json"), "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)


def argv_list(workload: str, config_dir: str, out_root: str) -> list[tuple[str, list[str], str, int]]:
    """(command, argv for ``cli.main``, output dir, grid points) per command."""
    out = []
    for command, stem, sub, points in commands_for(workload):
        out_dir = os.path.join(out_root, sub)
        config = os.path.join(config_dir, f"{stem}.json")
        out.append((command, [command, "--config", config, "--out", out_dir], out_dir, points))
    return out
