"""Fresh-interpreter half of the benchmark; ``run.py`` starts one per step.

Modes (each writes one JSON document to ``--result``):

* ``setup``:  import the package and run the workload's first command up
  to its first layer call, then run the host probe twice.  The parent
  times the whole process and takes the probes' time off.
* ``timed``:  run the workload's commands through ``cli.main``, untraced,
  with the host probe between commands, for as many repetitions as fit
  in ``--seconds`` (judged by the last one's length; at least one), then
  check every repetition's outputs against the oracles.
* ``traced``: time the scaling probes, then run each command twice,
  untraced and then with every layer wrapped by :mod:`tracer`, and turn
  the spans into per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


class FirstLayerReached(Exception):
    """Raised by the set-up probe's stubs at the first layer call."""


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _sweep_sha256(workload: str, out_root: str):
    """sha256 over the workload's sweep CSVs in command order, or None."""
    import oracles

    paths = [os.path.join(d, "sweep.csv") for d in oracles.sweep_dirs(workload, out_root)]
    if not paths or not all(os.path.exists(p) for p in paths):
        return None
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _run_commands(cmds) -> list[int]:
    from backflow_lab import cli

    codes = []
    for command, argv, _, _ in cmds:
        try:
            codes.append(int(cli.main(argv)))
        except Exception:  # counted as a failed call; the run goes on
            traceback.print_exc()
            codes.append(-1)
    return codes


def _commands(args, out_root: str):
    return workloads.argv_list(args.workload, args.configs, out_root)


def _checked_run(args, out_root, codes, cmds) -> dict:
    import oracles

    params = workloads.params_for(args.workload, args.seed)
    ops = [(f"cli.{c[0]}", code == 0, f"exit {code}") for c, code in zip(cmds, codes)]
    ops += oracles.check(args.workload, out_root, params)
    return {
        "ops": ops,
        "sweep_sha256": _sweep_sha256(args.workload, out_root),
    }


# ---------------------------------------------------------------- modes

def mode_setup(args) -> dict:
    from tracer import Tracer

    def make_wrapper(name, fn):
        if name.startswith("cli."):
            return fn

        def stop(*a, **k):
            raise FirstLayerReached(name)

        return stop

    cmds = _commands(args, os.path.join(args.work, "setup"))
    from backflow_lab import cli

    Tracer().install(make_wrapper)
    try:
        cli.main(cmds[0][1])
        first_layer = None
    except FirstLayerReached as reached:
        first_layer = str(reached)
    # host speed at set-up time; the first call pays numpy's lazy set-up
    from hostprobe import probe

    t0 = time.perf_counter()
    probe()
    probe_wall, _ = probe()
    return {"first_layer": first_layer, "probe_s": time.perf_counter() - t0, "probe_wall_s": probe_wall}


def mode_timed(args) -> dict:
    """Per repetition and command: raw wall and CPU seconds, and the same
    at the reference host speed, from the mean of the probes run just
    before and just after the command."""
    import numpy

    import backflow_lab  # noqa: F401  (import cost belongs to set-up)
    from hostprobe import REFERENCE_S, probe

    reps = []
    before = probe()
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        out_root = os.path.join(args.work, f"rep{len(reps)}")
        rep = {"cmds": _commands(args, out_root), "out": out_root, "codes": [], "times": []}
        for cmd in rep["cmds"]:
            cpu0 = _cpu_s()
            t0 = time.perf_counter()
            rep["codes"] += _run_commands([cmd])
            wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
            after = probe()
            probe_wall, probe_cpu = ((b + a) / 2 for b, a in zip(before, after))
            before = after
            rep["times"].append({
                "wall_s": wall,
                "cpu_s": cpu,
                "probe_wall_s": probe_wall,
                "probe_cpu_s": probe_cpu,
                "wall_ref_s": wall * REFERENCE_S / probe_wall,
                "cpu_ref_s": cpu * REFERENCE_S / probe_cpu,
            })
        reps.append(rep)
        # stop before a repetition that would end past the window
        now = time.perf_counter()
        if 2 * now - rep_start - start > args.seconds:
            break
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "times": [r["times"] for r in reps],
        "peak_rss_mb": max(self_rss, child_rss) / 1024.0,
        "grid_points": sum(c[3] for c in reps[0]["cmds"]),
        "runs": [_checked_run(args, r["out"], r["codes"], r["cmds"]) for r in reps],
        "numpy": numpy.__version__,
    }


def scaling_probes(n: int = 4001) -> dict:
    """log2 of the time ratio between grids of 2n-1 and n points (best of
    a few runs, alternating the two sizes so a change in host speed hits
    both)."""
    from backflow_lab import TimeGrid, build_model, extract_tcl_generator, series_from_trajectory, solve_tc, solve_tcl
    from backflow_lab.serialize import sampled_generator_csv

    damping = build_model("amplitude_damping_qubit", {})
    kernel = build_model("classical_exp_kernel", {"n": 2, "gamma": 1.0, "tau_m": 0.5})
    dephasing = build_model("dephasing_qubit", {"rate_kind": "sinusoidal", "amplitude": 1.5})

    def tcl(grid):
        return lambda: solve_tcl(damping.tcl_generator, damping.initial_state, grid)

    def tc(grid):
        return lambda: solve_tc(kernel.kernel, kernel.initial_state, grid)

    def kl_series(grid):
        traj = kernel.trajectory_fn(grid)
        return lambda: series_from_trajectory(traj, "kl", reference=kernel.reference_state)

    def generator_csv(grid):
        sampled = extract_tcl_generator(dephasing.propagator_fn(grid))
        return lambda: sampled_generator_csv(sampled)

    # name -> (factory of the timed call on a grid, runs per size)
    probes = {
        "propagation.solve_tcl": (tcl, 3),
        "propagation.solve_tc": (tc, 3),
        "information.series_from_trajectory": (kl_series, 5),
        "serialize.sampled_generator_csv": (generator_csv, 5),
    }
    dt = workloads.DT
    out = {}
    for name, (make, runs) in probes.items():
        calls = [make(TimeGrid.uniform(dt, k * (n - 1) * dt)) for k in (1, 2)]
        best = [math.inf, math.inf]
        for _ in range(runs):
            for i, call in enumerate(calls):
                t0 = time.perf_counter()
                call()
                best[i] = min(best[i], time.perf_counter() - t0)
        out[f"{name}.scaling_exp"] = math.log2(best[1] / best[0])
    return out


def mode_traced(args) -> dict:
    """Each command runs untraced, then traced, back to back, so the trace
    overhead is measured against the same host conditions."""
    from tracer import METRICS, Tracer

    metrics = dict.fromkeys(METRICS, 0.0)
    metrics.update(scaling_probes())

    plain_root = os.path.join(args.work, "untraced")
    traced_root = os.path.join(args.work, "traced")
    plain_cmds = _commands(args, plain_root)
    traced_cmds = _commands(args, traced_root)
    tracer = Tracer()
    plain_codes, codes = [], []
    plain_wall = traced_wall = 0.0
    for run_id, (plain, traced) in enumerate(zip(plain_cmds, traced_cmds)):
        t0 = time.perf_counter()
        plain_codes += _run_commands([plain])
        plain_wall += time.perf_counter() - t0
        tracer.run_id = run_id
        tracer.install()
        t0 = time.perf_counter()
        try:
            codes += _run_commands([traced])
        finally:
            traced_wall += time.perf_counter() - t0
            tracer.uninstall()
    tracer.dump(os.path.join(args.work, "trace_spans.json"))

    for name, value in tracer.self_times().items():
        if f"{name}.self_s" in metrics:
            metrics[f"{name}.self_s"] = value
    for name, value in tracer.totals().items():
        if name.startswith("cli.") and f"{name}.wall_s" in metrics:
            metrics[f"{name}.wall_s"] = value
    for name, value in tracer.counts.items():
        if name in metrics:
            metrics[name] = value
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    runs = [_checked_run(args, plain_root, plain_codes, plain_cmds), _checked_run(args, traced_root, codes, traced_cmds)]
    return {"metrics": metrics, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("setup", "timed", "traced"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--configs", required=True, help="directory of the workload's configs")
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    result = {"setup": mode_setup, "timed": mode_timed, "traced": mode_traced}[args.mode](args)
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
