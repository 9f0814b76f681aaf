"""backflow-lab benchmark: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload sweep-quantum --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  Each step runs in a fresh interpreter (``child.py``):

1. set-up probes: import the package, load and validate the config and
   stop at the first layer call, seven times; ``setup_s`` is the median;
2. the timed section: the workload's CLI commands, repeated for as many
   whole repetitions as fit in ``--seconds``, tracing off; outputs are
   checked against closed-form oracles;
3. with ``--trace 1``, one untraced repetition, then paired untraced and
   traced runs of each command that yield the per-layer metrics instead.

Times are reported at a reference host speed: each one is scaled by
``hostprobe.REFERENCE_S`` over the time of a fixed probe run next to it
(see ``hostprobe.py``); a repetition's time is the sum over commands of
each command's median.  Raw times go to the result file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the environment.  Files go under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from hostprobe import REFERENCE_S  # noqa: E402
from tracer import METRICS  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 7
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "grid_pts_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# every child runs single-threaded: an idle OpenBLAS worker spins on the
# second vCPU and adds its own noise to the timings and to cpu_s
BLAS_ENV = dict.fromkeys(
    (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ),
    "1",
)


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts child interpreters under one deadline and kills what is left."""

    def __init__(self, work: str, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""), **BLAS_ENV)

    def child(self, mode: str, *extra: str) -> tuple[dict, float]:
        """Run ``child.py mode``; return its result document and wall time."""
        result = os.path.join(self.work, f"{mode}-{time.monotonic_ns()}.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, "--result", result, "--work", self.work, *extra]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=sys.stderr.fileno(), start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            _reap_group(proc.pid)
        wall = time.perf_counter() - t0
        if code != 0:
            raise BenchError(f"child {mode} exited with code {code}")
        with open(result) as handle:
            return json.load(handle), wall


def _reap_group(pgid: int):
    """Kill anything a child left behind in its process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _getconf(name: str):
    try:
        text = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=5).stdout.strip()
        return int(text) if text else None
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "backflow_lab", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def environment(args, numpy_version) -> dict:
    try:
        free_mb = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (ValueError, OSError):
        free_mb = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "params": workloads.params_for(args.workload, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "free_memory_mb": free_mb,
        "blas_env_children": BLAS_ENV,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
    }


def _sha_ops(args, hashes: list) -> list:
    """Sweep CSVs of one seed must be byte-identical: within this run and
    against every earlier run of the same seed and configs recorded in
    this checkout."""
    hashes = [h for h in hashes if h]
    if not hashes:
        return []
    record_path = os.path.join(OUT, "sweep_sha256.json")
    try:
        with open(record_path) as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        record = {}
    configs = workloads.configs_for(args.workload, workloads.params_for(args.workload, args.seed))
    configs_sha = hashlib.sha256(json.dumps(configs, sort_keys=True).encode()).hexdigest()
    key = f"{args.workload}:{args.seed}:{configs_sha[:16]}"
    reference = record.get(key, hashes[0])
    ops = [("sweep_csv_identical", h == reference, h) for h in hashes]
    record.setdefault(key, reference)
    with open(record_path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return ops


def _per_rep(times: list[list[dict]], key: str) -> float:
    """One repetition's ``key``: each command's median over the
    repetitions, summed over the commands."""
    return sum(statistics.median(t[key] for t in per_command) for per_command in zip(*times))


def run(args, runner: Runner) -> dict:
    configs = os.path.join(runner.work, "configs")
    workloads.write_configs(args.workload, args.seed, configs)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--configs", configs]

    setup_raw, setup_ref = [], []
    for _ in range(SETUP_REPEATS):
        doc, wall = runner.child("setup", *common)
        if doc["first_layer"] is None:
            print("warning: set-up probe never reached a layer call", file=sys.stderr)
        setup_raw.append(wall - doc["probe_s"])
        setup_ref.append(setup_raw[-1] * REFERENCE_S / doc["probe_wall_s"])

    # a traced run prints no end-to-end metric: one repetition is enough
    seconds = 0.0 if args.trace else args.seconds
    timed, _ = runner.child("timed", *common, "--seconds", repr(seconds))
    times = timed["times"]
    runs = timed["runs"]
    wall_s = _per_rep(times, "wall_ref_s")
    e2e = {
        "wall_s": wall_s,
        "grid_pts_per_s": timed["grid_points"] / wall_s,
        "cpu_s": _per_rep(times, "cpu_ref_s"),
        "setup_s": statistics.median(setup_ref),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    raw = {
        "wall_s": _per_rep(times, "wall_s"),
        "cpu_s": _per_rep(times, "cpu_s"),
        "setup_s": statistics.median(setup_raw),
        "probe_wall_s": _per_rep(times, "probe_wall_s") / len(times[0]),
        "repetitions": len(times),
    }
    layers = {}
    if args.trace:
        traced, _ = runner.child("traced", *common)
        layers = traced["metrics"]
        runs = runs + traced["runs"]
        shutil.copy(os.path.join(runner.work, "trace_spans.json"), _result_path(args, "spans"))
    ops = [op for r in runs for op in r["ops"]]
    ops += _sha_ops(args, [r["sweep_sha256"] for r in runs])
    return {
        "end_to_end": e2e,
        "per_layer": layers,
        "ops": ops,
        "numpy": timed["numpy"],
        "raw": raw,
        "times": times,
    }


def _result_path(args, kind: str) -> str:
    directory = os.path.join(OUT, "results")
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, f"{args.workload}-seed{args.seed}-trace{args.trace}-{kind}.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit on SIGTERM runs the clean-up that kills the children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "backflow_lab", "__init__.py")):
        print(f"error: no package source under {SRC}; run from a backflow-lab checkout", file=sys.stderr)
        return 2
    start = time.monotonic()
    work = os.path.join(OUT, "work", f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        report = run(args, Runner(work, start + DEADLINE_S))
    except (BenchError, OSError, KeyError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = report.pop("ops")
    failed = [op for op in ops if not op[1]]
    for name, _, detail in failed:
        print(f"failed: {name}: {detail}", file=sys.stderr)
    attempted = max(1, len(ops))
    if args.trace:
        report["per_layer"]["fail_frac"] = len(failed) / attempted
        metrics = {k: {"value": float(report["per_layer"][k]), "unit": u} for k, (u, _) in METRICS.items()}
    else:
        metrics = {k: {"value": report["end_to_end"][k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    env = environment(args, report.pop("numpy"))
    with open(_result_path(args, "result"), "w") as handle:
        json.dump(dict(report, environment=env, attempted=attempted, failed=failed), handle, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
