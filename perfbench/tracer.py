"""Layer tracer that wraps the package's public functions from outside.

``Tracer.install()`` replaces every ``backflow_lab.*`` module attribute
bound to a traced function (so ``from .x import f`` bindings are caught
too) and patches the traced ``Trajectory`` methods on the class.  Each
call records a span (name, start, end, parent, run id) in memory, or only
bumps a counter for hot per-point calls.  ``uninstall()`` restores the
originals.  Nothing in the package itself is modified.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name); "Class.method" patches the class
SPANS = (
    ("information", "series_from_trajectory", "information.series_from_trajectory"),
    ("information", "backflow_functional", "information.backflow_functional"),
    ("states", "Trajectory.__post_init__", "states.trajectory_validate"),
    ("propagation", "solve_tcl", "propagation.solve_tcl"),
    ("propagation", "build_propagator", "propagation.build_propagator"),
    ("propagation", "rk4_constant", "propagation.rk4_constant"),
    ("propagation", "solve_tc", "propagation.solve_tc"),
    ("special_functions", "ml_envelope_grid", "special_functions.ml_envelope_grid"),
    ("serialize", "trajectory_csv", "serialize.format"),
    ("serialize", "sampled_generator_csv", "serialize.format"),
    ("serialize", "rate_traces_csv", "serialize.format"),
    ("serialize", "sweep_csv", "serialize.format"),
    ("serialize", "info_series_csv", "serialize.format"),
    ("serialize", "write_text_atomic", "serialize.write"),
    ("serialize", "write_json_atomic", "serialize.write"),
    ("generator_analysis", "extract_tcl_generator", "generator_analysis.extract_tcl_generator"),
    ("generator_analysis", "check_cp_divisible", "generator_analysis.check_cp_divisible"),
    ("generator_analysis", "check_classical_divisible", "generator_analysis.check_classical_divisible"),
    ("netfd", "two_state_series_from_trajectory", "netfd.two_state_series_from_trajectory"),
    ("netfd", "decomposed_backflow", "netfd.decomposed_backflow"),
    ("models", "build_model", "models.build_model"),
    ("phase_diagram", "run_sweep", "phase_diagram.run_sweep"),
    ("phase_diagram", "revival_detector", "phase_diagram.revival_detector"),
    ("cli", "cmd_simulate", "cli.simulate"),
    ("cli", "cmd_extract", "cli.extract"),
    ("cli", "cmd_divisibility", "cli.divisibility"),
    ("cli", "cmd_backflow", "cli.backflow"),
    ("cli", "cmd_phase_diagram", "cli.phase_diagram"),
)

# counted, never spanned: called per grid point, or nested inside a span
# whose self time must keep their cost
COUNTS = (
    ("states", "Trajectory.state", "states.state_objects"),
    ("propagation", "volterra_propagate", "propagation.volterra"),
)

CLI_COMMANDS = ("simulate", "extract", "divisibility", "backflow", "phase_diagram")

SELF_TIME = (
    "information.series_from_trajectory",
    "information.backflow_functional",
    "states.trajectory_validate",
    "propagation.solve_tcl",
    "propagation.build_propagator",
    "propagation.rk4_constant",
    "propagation.solve_tc",
    "special_functions.ml_envelope_grid",
    "serialize.format",
    "serialize.write",
    "generator_analysis.extract_tcl_generator",
    "generator_analysis.check_cp_divisible",
    "generator_analysis.check_classical_divisible",
    "netfd.two_state_series_from_trajectory",
    "netfd.decomposed_backflow",
    "models.trajectory",
    "models.propagator",
    "models.build_model",
    "phase_diagram.run_sweep",
    "phase_diagram.revival_detector",
)

# per-layer metric -> (unit, better); every traced run reports all of them
METRICS = {f"{name}.self_s": ("s", "lower") for name in SELF_TIME}
METRICS.update(
    {
        "information.series_from_trajectory.calls": ("count", "lower"),
        "information.series_from_trajectory.points": ("count", "higher"),
        "states.state_objects": ("count", "lower"),
        "propagation.volterra.flops_computed": ("flop", "lower"),
        "propagation.volterra.bytes_computed": ("B", "lower"),
        "special_functions.ml_envelope_grid.points": ("count", "higher"),
        "serialize.bytes": ("B", "lower"),
        "generator_analysis.extract_tcl_generator.gap_points": ("count", "lower"),
        "propagation.solve_tcl.scaling_exp": ("ratio", "lower"),
        "propagation.solve_tc.scaling_exp": ("ratio", "lower"),
        "information.series_from_trajectory.scaling_exp": ("ratio", "lower"),
        "serialize.sampled_generator_csv.scaling_exp": ("ratio", "lower"),
        "trace.overhead_frac": ("ratio", "lower"),
        "fail_frac": ("ratio", "lower"),
    }
)
METRICS.update({f"cli.{c}.wall_s": ("s", "lower") for c in CLI_COMMANDS})


def _lookup(module, attr):
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, getattr(owner, parts[-1], None)


def _volterra_work(args):
    """Computed (flops, bytes) of the history sum in ``volterra_propagate``:
    step n multiplies n kernel samples (dd x dd) into n stored states."""
    kernel, y0, grid = args[:3]
    dd = int(kernel.matrix_dim)
    cols = 1 if y0.ndim == 1 else int(y0.shape[1])
    itemsize = 16 if kernel.kind == "quantum" else 8
    terms = (grid.n - 2) * (grid.n - 1) // 2  # sum of n for n = 1 .. N-2
    return 2 * dd * dd * cols * terms, terms * (dd * dd + dd * cols) * itemsize


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, run_id]
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ recording
    def span(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, result)`` may count or
        replace the result once the span is closed."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.run_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            return result if after is None else after(args, result)

        return wrapper

    def counter(self, fn, on_call):
        def wrapper(*args, **kwargs):
            on_call(args)
            return fn(*args, **kwargs)

        return wrapper

    def _after(self, attr):
        counts = self.counts

        def series(args, result):
            counts["information.series_from_trajectory.calls"] += 1
            counts["information.series_from_trajectory.points"] += result.grid.n
            return result

        def ml_points(args, result):
            counts["special_functions.ml_envelope_grid.points"] += result.size
            return result

        def gap_points(args, result):
            counts["generator_analysis.extract_tcl_generator.gap_points"] += int(result.gap_mask().sum())
            return result

        def text_bytes(args, result):
            counts["serialize.bytes"] += len(args[1].encode())
            return result

        return {
            "series_from_trajectory": series,
            "ml_envelope_grid": ml_points,
            "extract_tcl_generator": gap_points,
            "write_text_atomic": text_bytes,
            "build_model": lambda args, spec: self._wrap_model(spec),
        }.get(attr)

    def _on_call(self, name):
        counts = self.counts

        def volterra(args):
            flops, nbytes = _volterra_work(args)
            counts["propagation.volterra.flops_computed"] += flops
            counts["propagation.volterra.bytes_computed"] += nbytes

        def count(args):
            counts[name] += 1

        return volterra if name == "propagation.volterra" else count

    def _wrap_model(self, spec):
        """Give a built ModelSpec traced trajectory/propagator closures."""
        changes = {}
        for field, name in (("trajectory_fn", "models.trajectory"), ("propagator_fn", "models.propagator")):
            fn = getattr(spec, field, None)
            if fn is not None:
                changes[field] = self.span(name, fn)
        return dataclasses.replace(spec, **changes) if changes else spec

    # ------------------------------------------------------------ patching
    def install(self, make_wrapper=None):
        """Wrap every traced function at each loaded binding.

        ``make_wrapper(name, fn)`` replaces the span wrapper for the
        entries of ``SPANS`` and skips the counters (the set-up probe uses
        it to stop at the first layer call).  Names that no longer exist
        are skipped, so their metrics read 0.
        """
        importlib.import_module("backflow_lab.cli")
        replacements = {}
        for mod, attr, name in SPANS + (COUNTS if make_wrapper is None else ()):
            owner, fn = _lookup(sys.modules.get(f"backflow_lab.{mod}"), attr)
            if fn is None:
                continue
            leaf = attr.split(".")[-1]
            if make_wrapper is not None:
                wrapped = make_wrapper(name, fn)
            elif (mod, attr, name) in COUNTS:
                wrapped = self.counter(fn, self._on_call(name))
            else:
                wrapped = self.span(name, fn, self._after(leaf))
            replacements[id(fn)] = (owner, leaf, fn, wrapped)
        for owner, leaf, fn, wrapped in replacements.values():
            if isinstance(owner, type):
                setattr(owner, leaf, wrapped)
                self._undo.append((owner, leaf, fn))
        for name, module in list(sys.modules.items()):
            if name != "backflow_lab" and not name.startswith("backflow_lab."):
                continue
            for key, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and value is hit[2]:
                    setattr(module, key, hit[3])
                    self._undo.append((module, key, value))

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # ------------------------------------------------------------ results
    def self_times(self) -> dict[str, float]:
        """Span time minus the time its child spans cover, summed by name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def dump(self, path: str):
        """Write the spans and counters (called once, when the run ends)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "run_id"],
                    "spans": [[n, s - t0, e - t0, p, r] for n, s, e, p, r in self.spans],
                    "counts": dict(self.counts),
                },
                handle,
            )
