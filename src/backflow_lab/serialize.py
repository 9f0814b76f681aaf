"""CSV and JSON output formats.

Conventions (stable across runs so outputs are byte-identical):

* floats print with repr-faithful '%.17g'; the trajectory, generator and
  rate tables are formatted a chunk of rows at a time (one format string
  per row over Python floats), byte-identical to formatting each cell
  with :func:`fmt`;
* complex matrices serialize to JSON as nested arrays of [re, im] pairs;
* files are written atomically (temp file + rename);
* trajectory CSV header is ``t`` followed by flattened state labels,
  row-major over matrix entries with ``_re``/``_im`` suffixes for quantum
  states and ``p_<i>`` for classical ones.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .information import InfoSeries
from .phase_diagram import SweepResult
from .states import Trajectory

# rows converted to Python objects at a time when formatting CSV tables; a
# whole-table conversion would hold every cell as a float object at once
_CHUNK_ROWS = 256


def fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return "%.17g" % float(x)


def write_text_atomic(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, payload: dict):
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def complex_matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def json_to_complex_matrix(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def _float_rows(t: np.ndarray, values: np.ndarray, tail=None) -> list[str]:
    """CSV lines ``t, v_1, ..., v_k[, tail]`` with every float as '%.17g'.

    ``values`` has one leading axis over rows and is flattened row-major per
    row; complex entries become (re, im) column pairs; ``tail`` is an
    optional trailing column of strings.  Rows are gathered into one
    reused float buffer and converted to Python floats a chunk at a time,
    so the output equals per-cell :func:`fmt` byte for byte without holding
    the whole table as objects or allocating per-chunk arrays.
    """
    n = t.shape[0]
    flat = values.reshape(n, -1)
    pairs = np.iscomplexobj(flat)
    width = flat.shape[1] * (2 if pairs else 1)
    template = ",".join(["%.17g"] * (1 + width)) + ("" if tail is None else ",%s")
    buf = np.empty((min(n, _CHUNK_ROWS), 1 + width))
    lines = []
    for a in range(0, n, _CHUNK_ROWS):
        b = min(a + _CHUNK_ROWS, n)
        rows = buf[: b - a]
        rows[:, 0] = t[a:b]
        if pairs:
            rows[:, 1::2] = flat[a:b].real
            rows[:, 2::2] = flat[a:b].imag
        else:
            rows[:, 1:] = flat[a:b]
        rows = rows.tolist()
        if tail is None:
            lines.extend(template % tuple(row) for row in rows)
        else:
            lines.extend(template % (*row, cell) for row, cell in zip(rows, tail[a:b]))
    return lines


def trajectory_csv(traj: Trajectory) -> str:
    if traj.kind == "quantum":
        d = traj.dim
        labels = []
        for i in range(d):
            for j in range(d):
                labels.append(f"rho_{i}{j}_re")
                labels.append(f"rho_{i}{j}_im")
        header = "t," + ",".join(labels)
    else:
        header = "t," + ",".join(f"p_{i}" for i in range(traj.dim))
    lines = [header] + _float_rows(traj.grid.points, traj.states)
    return "\n".join(lines) + "\n"


def info_series_csv(series: InfoSeries) -> str:
    mask = series.skipped()
    lines = ["t,value,skipped"]
    for t, v, s in zip(series.grid.points, series.values, mask):
        lines.append(f"{fmt(t)},{fmt(v)},{fmt(bool(s))}")
    return "\n".join(lines) + "\n"


def sampled_generator_csv(gen) -> str:
    """Flattened generator samples; gap rows carry an in_gap marker."""
    dd = gen.matrix_dim
    labels = []
    quantum = gen.kind == "quantum"
    for i in range(dd):
        for j in range(dd):
            if quantum:
                labels.append(f"g_{i}_{j}_re")
                labels.append(f"g_{i}_{j}_im")
            else:
                labels.append(f"w_{i}_{j}")
    header = "t," + ",".join(labels) + ",in_gap"
    values = gen.samples.astype(complex, copy=False) if quantum else np.real(gen.samples)
    tail = [fmt(m) for m in gen.gap_mask().tolist()]
    lines = [header] + _float_rows(gen.grid.points, values, tail)
    return "\n".join(lines) + "\n"


def rate_traces_csv(report) -> str:
    ts, rates = report.grid.points, report.rate_traces
    header = "t," + ",".join(f"rate_{i}" for i in range(rates.shape[1]))
    # a NaN rate (no rate at that point) prints as an empty cell
    blank = np.isnan(rates).any(axis=1)
    lines = [None] * ts.shape[0]
    full = np.nonzero(~blank)[0]
    for i, line in zip(full.tolist(), _float_rows(ts[full], rates[full])):
        lines[i] = line
    for i in np.nonzero(blank)[0].tolist():
        cells = ["" if math.isnan(r) else fmt(r) for r in rates[i].tolist()]
        lines[i] = ",".join([fmt(ts[i])] + cells)
    return "\n".join([header] + lines) + "\n"


def sweep_csv(result: SweepResult) -> str:
    cols = result.columns()
    lines = [",".join(cols)]
    for row in result.rows:
        lines.append(",".join(fmt(row.get(c)) for c in cols))
    return "\n".join(lines) + "\n"
