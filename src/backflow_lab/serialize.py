"""CSV and JSON output formats.

Conventions (stable across runs so outputs are byte-identical):

* floats print with repr-faithful '%.17g'.  The trajectory, generator
  and rate tables go through one encoder that works on chunks of at most
  ``_CHUNK_CELLS`` cells: it formats each distinct float bit pattern of a
  chunk once, gives +0.0, empty and flag cells fixed tokens, and builds
  the chunk's bytes with numpy gathers.  The output is byte-identical to
  formatting each cell with :func:`fmt`;
* ``sweep_csv`` formats its mixed-type cells one by one with :func:`fmt`;
* files are written atomically (temp file + rename);
* trajectory CSV header is ``t`` followed by flattened state labels,
  row-major over matrix entries with ``_re``/``_im`` suffixes for quantum
  states and ``p_<i>`` for classical ones.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .phase_diagram import SweepResult
from .states import Trajectory

# cells encoded at a time when writing CSV tables: the encoder's temporaries
# (float buffer, codes, gather index, the chunk's bytes) scale with it, not
# with the table; larger chunks raise the peak RSS of a run
_CHUNK_CELLS = 8192
# fixed tokens ahead of a chunk's formatted floats, each with its separator:
# +0.0, an empty (NaN) cell, and the two flag values
_TOKENS = ("0", "", "false", "true")
_ZERO, _BLANK, _FALSE = 0, 1, 2
_FIXED_TEXT = "".join(token + "," for token in _TOKENS).encode("ascii")
_COMMA, _NEWLINE = ord(","), ord("\n")


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


def _format_floats(values: np.ndarray) -> bytes:
    """``'%.17g,'`` of every value of a 1-D float array, concatenated: one
    ``%`` call over a joined template, so no Python call per value."""
    return (("%.17g," * values.size) % tuple(values.tolist())).encode("ascii")


def _encode_table(header: str, t: np.ndarray, values: np.ndarray, blank_nan=False, flags=None) -> str:
    """CSV text ``header`` then rows ``t, v_1, ..., v_k[, flag]``.

    ``values`` has one leading axis over rows and is flattened row-major per
    row; complex entries become (re, im) column pairs.  With ``blank_nan`` a
    NaN cell prints empty; ``flags`` is an optional boolean column printed
    as ``true``/``false``.  Every other cell prints as :func:`fmt` would,
    byte for byte.

    Rows are encoded in chunks of at most ``_CHUNK_CELLS`` cells (one row
    when a row is wider).  A chunk's cells are keyed by their float bits
    (an int64 view, so -0.0 stays apart from 0.0); +0.0, blank and flag
    cells take fixed tokens, and each distinct remaining bit pattern is
    formatted once.  The chunk's bytes are then one numpy gather of token
    text, each token carrying its ``,`` and a row's last one turned into
    ``\n``.  A chunk whose cells are all distinct and non-zero is already
    its own token text, so the gather is skipped there.
    """
    n = t.shape[0]
    flat = values.reshape(n, -1)
    pairs = np.iscomplexobj(flat)
    width = flat.shape[1] * (2 if pairs else 1)
    ncol = 2 + width if flags is not None else 1 + width
    step = max(1, _CHUNK_CELLS // ncol)
    # the flag column of the buffer stays +0.0: its cells never reach the sort
    buf = np.zeros((min(n, step), ncol))
    # one growing buffer: per-chunk text objects would scatter over the heap
    encoded = bytearray((header + "\n").encode("ascii"))
    for a in range(0, n, step):
        b = min(a + step, n)
        rows = buf[: b - a]
        rows[:, 0] = t[a:b]
        if pairs:
            rows[:, 1 : width + 1 : 2] = flat[a:b].real
            rows[:, 2 : width + 1 : 2] = flat[a:b].imag
        else:
            rows[:, 1 : width + 1] = flat[a:b]
        cells = rows.reshape(-1)
        bits = cells.view(np.int64)
        take = bits != 0
        if blank_nan:
            nan = np.isnan(cells)
            take &= ~nan
        if take.all():
            key = np.sort(bits)
            if not np.any(key[1:] == key[:-1]):
                text = np.frombuffer(_format_floats(cells), np.uint8).copy()
                text[np.flatnonzero(text == _COMMA)[ncol - 1 :: ncol]] = _NEWLINE
                encoded += text.data
                continue
        distinct, inverse = np.unique(bits[take], return_inverse=True)
        codes = np.full(cells.size, _ZERO)
        codes[take] = inverse + len(_TOKENS)
        if blank_nan:
            codes[nan] = _BLANK
        if flags is not None:
            codes[ncol - 1 :: ncol] = _FALSE + flags[a:b]
        text = np.frombuffer(_FIXED_TEXT + _format_floats(distinct.view(np.float64)), np.uint8)
        ends = np.flatnonzero(text == _COMMA)
        starts = np.concatenate(([0], ends[:-1] + 1))
        size = (ends + 1 - starts)[codes]  # token plus its separator
        stop = np.cumsum(size)
        index = np.repeat(starts[codes] - (stop - size), size)
        index += np.arange(stop[-1])
        out = text[index]
        out[stop[ncol - 1 :: ncol] - 1] = _NEWLINE
        encoded += out.data
    return encoded.decode("ascii")


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
    return _encode_table(header, traj.grid.points, traj.states)


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
    return _encode_table(header, gen.grid.points, values, flags=gen.gap_mask())


def rate_traces_csv(report) -> str:
    ts, rates = report.grid.points, report.rate_traces
    header = "t," + ",".join(f"rate_{i}" for i in range(rates.shape[1]))
    # a NaN rate (no rate at that point) prints as an empty cell
    return _encode_table(header, ts, rates, blank_nan=True)


def sweep_csv(result: SweepResult) -> str:
    cols = result.columns()
    lines = [",".join(cols)]
    for row in result.rows:
        lines.append(",".join(fmt(row.get(c)) for c in cols))
    return "\n".join(lines) + "\n"
