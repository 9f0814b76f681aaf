"""Closed-form checks on a workload's outputs.

Each check is one counted operation: ``(name, ok, detail)``.  The
references are the package's own closed forms, so a change that alters
the numbers (not only the speed) fails the benchmark.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from backflow_lab.models import exp_kernel_difference_mode

import workloads


def sweep_dirs(workload: str, out_root: str) -> list[str]:
    """Output directories of the workload's ``phase-diagram`` commands."""
    return [os.path.join(out_root, sub) for cmd, _, sub, _ in workloads.commands_for(workload) if cmd == "phase-diagram"]


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _num(text: str):
    return None if text == "" else float(text)


def sweep_row_errors(out_dir: str) -> list[tuple[str, bool, str]]:
    """One operation per sweep row; a row with a non-empty error fails."""
    return [
        (f"row{i}", row["error"] == "", row["error"])
        for i, row in enumerate(_rows(os.path.join(out_dir, "sweep.csv")))
    ]


def check_sweep_quantum(out_dir: str, params: dict) -> list[tuple[str, bool, str]]:
    checks = []
    for row in _rows(os.path.join(out_dir, "sweep.csv")):
        g = row["gamma"]
        n_rel = _num(row["N_rel_entropy"])
        n_cl, n_qe, n_total = (_num(row[k]) for k in ("n_cl", "n_qe", "n_total"))
        checks.append((f"divisible@gamma={g}", row["divisible"] == "true", row["divisible"]))
        checks.append((f"N_rel_entropy@gamma={g}", n_rel is not None and n_rel <= 1e-6, str(n_rel)))
        ok = None not in (n_cl, n_qe, n_total) and n_total <= n_cl + n_qe + 1e-8
        checks.append((f"subadditive@gamma={g}", ok, f"{n_total} <= {n_cl} + {n_qe}"))
    return checks


def check_cli_mixed(out_root: str, params: dict) -> list[tuple[str, bool, str]]:
    checks = []
    # 1. Volterra route against the difference-mode closed form
    traj = np.genfromtxt(os.path.join(out_root, "simulate", "trajectory.csv"), delimiter=",", skip_header=1)
    diff = traj[:, 1] - traj[:, 2]
    err = float(np.max(np.abs(diff - exp_kernel_difference_mode(1.0, params["tau_m"], traj[:, 0]))))
    checks.append(("volterra_difference_mode", err <= 1e-5, f"max error {err:.3e}"))
    # 2-3. dominant canonical rate and first violation of the dephasing run
    lam, amp = 1.0, params["amplitude"]
    rates = np.genfromtxt(os.path.join(out_root, "divisibility", "rates.csv"), delimiter=",", skip_header=1)
    ts, values = rates[:, 0], rates[:, 1:]
    usable = ~np.all(np.isnan(values), axis=1)
    mags = np.where(np.isnan(values[usable]), -1.0, np.abs(values[usable]))
    dominant = values[usable][np.arange(mags.shape[0]), np.argmax(mags, axis=1)]
    err = float(np.max(np.abs(dominant - (lam + amp * np.sin(ts[usable])))))
    checks.append(("dominant_rate", err <= 1e-4, f"max error {err:.3e} on {int(usable.sum())} points"))
    with open(os.path.join(out_root, "divisibility", "divisibility.json")) as handle:
        report = json.load(handle)
    first = report["first_violation_time"]
    expected = math.pi + math.asin(lam / amp)
    ok = first is not None and abs(first - expected) <= 2e-3
    checks.append(("first_violation", ok, f"{first} vs {expected:.6f}"))
    # 4. positive-part subadditivity of the fractional sector split
    with open(os.path.join(out_root, "backflow", "backflow.json")) as handle:
        bf = json.load(handle)
    ok = bf["n_total"] <= bf["n_cl"] + bf["n_qe"] + 1e-8
    checks.append(("fractional_subadditive", ok, f"{bf['n_total']} <= {bf['n_cl']} + {bf['n_qe']}"))
    return checks


def check(workload: str, out_root: str, params: dict) -> list[tuple[str, bool, str]]:
    """Every counted oracle operation for one run of ``workload``; outputs
    that are missing or unreadable count as one failed operation."""
    try:
        if workload == "sweep-quantum":
            checks = []
            for sweep in sweep_dirs(workload, out_root):
                checks += sweep_row_errors(sweep) + check_sweep_quantum(sweep, params)
            return checks
        return check_cli_mixed(out_root, params)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [("outputs_readable", False, f"{type(exc).__name__}: {exc}")]
