"""CSV and JSON output formats.

Conventions (stable across runs so outputs are byte-identical):

* floats print as '%.17g' would.  The trajectory, generator and rate
  tables go through one encoder: +0.0, empty and flag cells take fixed
  tokens, the other cells are formatted in numpy batches (exact digits
  from a double-double product, ``%g``'s layout on uint64 words), and each
  chunk of rows is one numpy gather of token text;
* ``sweep_csv`` formats its mixed-type cells one by one with :func:`fmt`;
* files are written atomically (temp file + rename) by :func:`write_atomic`;
  given a sink, the three tables are streamed into it in batches as they are
  encoded, so no table's text is held whole;
* trajectory CSV header is ``t`` followed by flattened state labels,
  row-major over matrix entries with ``_re``/``_im`` suffixes for quantum
  states and ``p_<i>`` for classical ones.
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile

import numpy as np

from .phase_diagram import SweepResult
from .states import Trajectory

# cells encoded by one gather; values formatted by one call, and cells whose
# codes may wait for it (a batch spans chunks: a generator chunk holds a few
# hundred values).  No temporary grows with the table.
_CHUNK_CELLS, _BATCH_VALUES, _BATCH_CELLS = 8192, 8192, 16 * 8192
# fixed tokens ahead of a batch's values: +0.0, an empty (NaN) cell, the flags
_TOKENS = ("0", "", "false", "true")
_ZERO, _BLANK, _FALSE = 0, 1, 2
_COMMA, _NEWLINE = ord(","), ord("\n")
# bytes for a token or a value's text and separator (at most 25)
_SLOT = 32
_TOKEN_SLOTS = np.frombuffer(b"".join((tok + ",").encode("ascii").ljust(_SLOT, b"\0") for tok in _TOKENS), np.uint8)
_TOKEN_SLOTS, _TOKEN_LEN = _TOKEN_SLOTS.reshape(-1, _SLOT), [len(tok) + 1 for tok in _TOKENS]
# the digit path takes 10**_K_MIN <= |x| < 10**(_K_MAX + 1); other values,
# zeros, subnormals, inf and NaN among them, go to fmt
_K_MIN, _K_MAX = -289, 289
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for 53-bit doubles
# by 6 * negative + m, the text ahead of the digits: "-", then "0." and m - 2 zeros
_PREFIX = np.frombuffer(b"".join((s + b"0.000"[:m]).ljust(8, b"\0") for s in (b"", b"-") for m in range(6)), "<u8")
# by byte position i of three words (24, 25: none), a column each: the bytes below i
_BELOW = np.frombuffer(b"".join((b"\xff" * i)[:24].ljust(24, b"\0") for i in range(26)), "<u8").reshape(26, 3).T
# the digits of v < 10**8, a byte each, by (lane bits, multiplier, shift, mask,
# divisor): v // 10**4 (exact below 4.9e8), then // 100 and // 10 per lane
_LANES = ((32, 109951163, 40, 2**64 - 1, 10**4), (16, 10486, 20, 0x7F0000007F, 100), (8, 103, 10, 0xF000F000F000F, 10))
# "e%+03d" and the separator, by k - _K_MIN
_EXPONENT = np.frombuffer(b"".join((b"e%+03d," % k).ljust(6, b"\0") for k in range(_K_MIN, _K_MAX + 1)), np.uint8)


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


def write_atomic(path: str, write):
    """Call ``write(sink)``, ``sink`` taking bytes-like pieces of the file,
    on a temp file beside ``path``, then rename it over ``path``."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle.write)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path: str, text: str):
    write_atomic(path, lambda sink: sink(text.encode()))


def write_json_atomic(path: str, payload: dict):
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


@functools.cache
def _pow10() -> np.ndarray:
    """Rows over 10**j, j in [_K_MIN, 16 - _K_MIN]: the least double >= 10**j;
    hi, 10**j rounded; Veltkamp's 26-bit halves of hi; lo, 10**j - hi rounded.
    Exact integer arithmetic (int / int is correctly rounded), on first use."""
    rows = []
    for j in range(_K_MIN, 17 - _K_MIN):
        num, den = (10**j, 1) if j >= 0 else (1, 10**-j)
        hi = num / den
        a, b = hi.as_integer_ratio()
        rest = num * b - a * den  # (10**j - hi) * den * b
        rows.append((math.nextafter(hi, math.inf) if rest > 0 else hi, hi, rest / (den * b)))
    ceil, hi, lo = np.array(rows).T
    m, e = np.frexp(hi)  # split the mantissa: splitting hi overflows near 1e305
    m1 = m * _SPLIT - (m * _SPLIT - m)
    table = np.array([ceil, hi, np.ldexp(m1, e), np.ldexp(m - m1, e), lo])
    table.flags.writeable = False
    return table


def _digits(ax: np.ndarray):
    """(k, d, ok) for positive doubles ``ax``: k = floor(log10 ax) and d =
    round(ax * 10**(16 - k)), the digits of ``'%.17g'``.  ``ok`` is False
    where d is not certain: ax where a product below could leave the normal
    range, a scaled value near a half-integer (ties such as 3 * 2**-24), a carry.

    The binary exponent gives k or k - 1; comparing with the least double >=
    10**(k + 1) settles it.  Dekker's two-product (Numer. Math. 18, 224 (1971);
    no FMA) gives ph + pl = ax * hi exactly, ph an integer as ax * hi > 2**53.
    With p = 16 - k, y = ax * 10**p has y - ph = pl + ax*lo + ax*(10**p - hi -
    lo), and as ax * hi < 1.0001e17 < 2**57, r = fl(pl + fl(ax*lo)) is within
    2**-47 of it: |10**p - hi - lo| <= 2**-53 |lo| <= 2**-106 hi bounds the
    last term by 2**-49; |ax * lo| <= 2**-53 ax * hi < 2**4, so fl(ax*lo) errs
    by <= 2**-50; |pl| <= ulp(ph) / 2 <= 2**3, so the sum is below 2**5 and
    errs by <= 2**-49.  So if r is over 2**-46 from a half-integer, round(y) =
    ph + rint(r)."""
    ceil, *scales = _pow10()
    ok = (ax >= ceil[0]) & (ax < ceil[_K_MAX + 1 - _K_MIN])
    ax = np.where(ok, ax, 1.0)
    k = ((np.frexp(ax)[1] - 1) * 78913) >> 18  # floor((e - 1) log10 2) for |e| < 1100
    k += ax >= ceil[k + 1 - _K_MIN]
    hi, h1, h2, lo = np.take(scales, 16 - _K_MIN - k, axis=1)
    a1 = ax * _SPLIT - (ax * _SPLIT - ax)
    a2 = ax - a1
    ph = ax * hi
    r = (((a1 * h1 - ph) + a1 * h2) + a2 * h1) + a2 * h2 + ax * lo
    n = np.rint(r)
    d = ph.astype(np.int64) + n.astype(np.int64)
    return k, d, ok & (np.abs(r - n) < 0.5 - 2.0**-46) & (d < 10**17)


def _format_slots(x: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Write ``fmt(v) + ','`` for each value v of the 1-D float array ``x``
    into the rows of ``slots``, (len(x), _SLOT) uint8; return the lengths.

    :func:`_digits` gives a leading digit and two 8-digit halves, each made
    ASCII in one uint64 (``_LANES``).  ``%g``'s layout then works on three
    words per value: the sign and ``0.000`` prefix by one shift, the ``.`` by
    shifting the bytes above it, the separator and rare ``e±XX`` by scatters.
    What the digit path cannot settle goes to :func:`fmt`."""
    neg = np.signbit(x)
    k, v, ok = _digits(np.abs(x))
    lead, v = np.divmod(v, 10**16)
    v = np.array(np.divmod(v, 10**8), np.uint64)
    for bits, mul, cut, mask, div in _LANES:
        q = ((v * mul) >> cut) & mask
        v = ((v - q * div) << bits) | q
    # a half's trailing zero digits: 7 less the index of its highest
    # non-zero byte (exact in float64, as no byte exceeds 9)
    zeros = 7 - ((np.frexp(v.astype(np.float64))[1] - 1) >> 3)
    digits = 17 - zeros[1] - np.where(zeros[1] == 8, zeros[0], 0)
    v |= 0x3030303030303030
    words = np.array([(v[0] << 8) | (lead.astype(np.uint64) + ord("0")), (v[0] >> 56) | (v[1] << 8), v[1] >> 56])
    del v, lead, zeros  # dropped once used, to keep a batch's peak low
    # %g: 'e' notation for k < -4 or k > 16, else fixed; below 1, the
    # digits follow "0." and -k - 1 zeros
    sci = (k < -4) | (k > 16)
    small = (k < 0) & ~sci
    point = np.where(sci, 1, np.maximum(k + 1, 0))  # digits ahead of the '.'
    shift = neg + np.where(small, 1 - k, 0)  # the sign, and below 1 "0." and -k - 1 zeros
    bits = (8 * shift).astype(np.uint64)
    words[1:] = (words[1:] << bits) | (words[:2] >> (64 - bits))
    words[0] = (words[0] << bits) | _PREFIX[5 * neg + shift]  # 6 * neg + (shift - neg)
    dot = (digits > point) & ~small
    at = np.where(dot, point + shift, 24)
    for j in range(3):  # a word at a time into its slot column
        below, upto, moved = _BELOW[j, at], _BELOW[j, at + 1], words[j] << 8
        moved |= words[j - 1] >> 56 if j else 0
        slots.view("<u8")[:, j] = (words[j] & below) | (moved & ~upto) | ((upto ^ below) & 0x2E2E2E2E2E2E2E2E)
    del words, below, upto, moved
    length = shift + np.maximum(digits, point) + dot + 1  # with the separator
    slots.reshape(-1)[np.arange(0, x.size * _SLOT, _SLOT) + length - 1] = _COMMA
    rows = np.flatnonzero(sci)
    slots[rows[:, None], length[rows, None] - 1 + np.arange(6)] = _EXPONENT.reshape(-1, 6)[k[rows] - _K_MIN]
    length[rows] += np.where(np.abs(k[rows]) < 100, 4, 5)
    for i in np.flatnonzero(~ok):
        text = np.frombuffer((fmt(x[i]) + ",").encode("ascii"), np.uint8)
        slots[i, : text.size], length[i] = text, text.size
    return length


def _emit(sink, waiting: list, ncol: int):
    """Format the values of the chunks in ``waiting`` in one call, then
    hand each chunk to ``sink`` as one gather of slot text, a row's last
    separator turned into ``\n``.  A chunk is its cells' codes (a token, or
    len(_TOKENS) + the value's index in the batch) and its values."""
    values = np.concatenate([found for _, found in waiting])
    slots = np.concatenate((_TOKEN_SLOTS, np.empty((values.size, _SLOT), np.uint8)))
    lengths = np.concatenate((_TOKEN_LEN, _format_slots(values, slots[len(_TOKENS) :]))).astype(np.int32)
    for codes, _ in waiting:
        size = np.take(lengths, codes)
        stop = np.cumsum(size, dtype=np.int32)
        index = np.repeat(codes * _SLOT - (stop - size), size)
        index += np.arange(stop[-1], dtype=np.int32)
        out = np.take(slots.reshape(-1), index)
        out[stop[ncol - 1 :: ncol] - 1] = _NEWLINE
        sink(out.data)


def _encode_table(header: str, t: np.ndarray, values: np.ndarray, blank_nan=False, flags=None, sink=None):
    """CSV text ``header`` then rows ``t, v_1, ..., v_k[, flag]``, returned,
    or with a ``sink`` handed to it in pieces (the header line, then each
    chunk of rows as its batch is formatted) and never held whole.

    ``values`` has one leading axis over rows and is flattened row-major per
    row; complex entries become (re, im) column pairs.  With ``blank_nan`` a
    NaN cell prints empty; ``flags`` is an optional boolean column printed
    as ``true``/``false``.  Every other cell prints as :func:`fmt` would.

    Rows are read in chunks of at most ``_CHUNK_CELLS`` cells (one row if
    wider).  +0.0 cells (by their bits, so -0.0 stays apart), blank and flag
    cells get token codes; the others join a batch for :func:`_format_slots`
    of at most ``_BATCH_VALUES`` values (or one chunk's), for which at most
    ``_BATCH_CELLS`` cells wait."""
    if sink is None:
        encoded = bytearray()
        _encode_table(header, t, values, blank_nan, flags, encoded.extend)
        return encoded.decode("ascii")
    n = t.shape[0]
    flat = np.ascontiguousarray(values).reshape(n, -1)
    if np.iscomplexobj(flat):
        flat = flat.astype(complex, copy=False).view(np.float64)  # (re, im) column pairs
    ncol = flat.shape[1] + (2 if flags is not None else 1)
    step = max(1, _CHUNK_CELLS // ncol)
    # the flag column of the buffer stays +0.0: its cells never reach a batch
    buf = np.zeros((min(n, step), ncol))
    sink((header + "\n").encode("ascii"))
    waiting, count = [], 0
    for a in range(0, n, step):
        b = min(a + step, n)
        rows = buf[: b - a]
        rows[:, 0] = t[a:b]
        rows[:, 1 : flat.shape[1] + 1] = flat[a:b]
        cells = rows.reshape(-1)
        nan = np.isnan(cells) if blank_nan else np.zeros(cells.size, bool)
        take = (cells.view(np.int64) != 0) & ~nan
        found = cells[take]
        if waiting and (count + found.size > _BATCH_VALUES or len(waiting) * cells.size >= _BATCH_CELLS):
            _emit(sink, waiting, ncol)
            waiting, count = [], 0
        codes = np.full(cells.size, _ZERO, np.int32)
        codes[take] = np.arange(len(_TOKENS) + count, len(_TOKENS) + count + found.size)
        codes[nan] = _BLANK
        if flags is not None:
            codes[ncol - 1 :: ncol] = _FALSE + flags[a:b]
        waiting.append((codes, found))
        count += found.size
    if waiting:
        _emit(sink, waiting, ncol)


def trajectory_csv(traj: Trajectory, sink=None) -> str | None:
    d = traj.dim
    if traj.kind == "quantum":
        labels = [f"rho_{i}{j}_{part}" for i in range(d) for j in range(d) for part in ("re", "im")]
    else:
        labels = [f"p_{i}" for i in range(d)]
    return _encode_table("t," + ",".join(labels), traj.grid.points, traj.states, sink=sink)


def sampled_generator_csv(gen, sink=None) -> str | None:
    """Flattened generator samples; gap rows carry an in_gap marker."""
    dd, quantum = gen.matrix_dim, gen.kind == "quantum"
    entries = [f"_{i}_{j}" for i in range(dd) for j in range(dd)]
    labels = [f"g{e}_{part}" for e in entries for part in ("re", "im")] if quantum else [f"w{e}" for e in entries]
    header = "t," + ",".join(labels) + ",in_gap"
    values = gen.samples.astype(complex, copy=False) if quantum else np.real(gen.samples)
    return _encode_table(header, gen.grid.points, values, flags=gen.gap_mask(), sink=sink)


def rate_traces_csv(report, sink=None) -> str | None:
    header = "t," + ",".join(f"rate_{i}" for i in range(report.rate_traces.shape[1]))
    # a NaN rate (no rate at that point) prints as an empty cell
    return _encode_table(header, report.grid.points, report.rate_traces, blank_nan=True, sink=sink)


def sweep_csv(result: SweepResult) -> str:
    cols = result.columns()
    lines = [",".join(cols)] + [",".join(fmt(row.get(c)) for c in cols) for row in result.rows]
    return "\n".join(lines) + "\n"
