from types import SimpleNamespace

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from backflow_lab import InfoSeries, TimeGrid, Trajectory, cli, serialize
from backflow_lab.generator_analysis import SampledGenerator, extract_tcl_generator
from backflow_lab.models import dephasing_qubit
from backflow_lab.propagation import build_propagator
from backflow_lab.serialize import (
    _BATCH_VALUES,
    _CHUNK_CELLS,
    _SCAN_WORDS,
    _SLOT,
    _digits,
    _encode_table,
    _format_slots,
    _zero_columns,
    fmt,
    rate_traces_csv,
    sampled_generator_csv,
    trajectory_csv,
    write_json_atomic,
    write_text_atomic,
)


class TestFormatting:
    def test_repr_faithful_floats(self):
        x = 0.1 + 0.2
        assert float(fmt(x)) == x

    def test_none_is_empty(self):
        assert fmt(None) == ""

    def test_booleans(self):
        assert fmt(True) == "true" and fmt(False) == "false"

    def test_numpy_booleans(self):
        assert fmt(np.True_) == "true" and fmt(np.False_) == "false"
        assert fmt(np.array([True, False])[0]) == "true"


class TestCsv:
    def test_quantum_trajectory_header_and_rows(self):
        grid = TimeGrid.uniform(0.5, 1.0)
        states = np.array([np.eye(2) / 2] * 3, dtype=complex)
        text = trajectory_csv(Trajectory(grid, states, "quantum"))
        lines = text.strip().split("\n")
        assert lines[0].startswith("t,rho_00_re,rho_00_im")
        assert len(lines) == 4

    def test_classical_trajectory(self):
        grid = TimeGrid.uniform(0.5, 1.0)
        states = np.array([[0.25, 0.75]] * 3)
        text = trajectory_csv(Trajectory(grid, states, "classical"))
        assert text.startswith("t,p_0,p_1\n")


# per-cell references for the chunked CSV writers: one fmt() call per cell
def trajectory_csv_reference(traj):
    if traj.kind == "quantum":
        d = traj.dim
        labels = [f"rho_{i}{j}_{part}" for i in range(d) for j in range(d) for part in ("re", "im")]
        lines = ["t," + ",".join(labels)]
        for k, t in enumerate(traj.grid.points):
            cells = [fmt(t)]
            for v in traj.states[k].ravel():
                cells += [fmt(v.real), fmt(v.imag)]
            lines.append(",".join(cells))
    else:
        lines = ["t," + ",".join(f"p_{i}" for i in range(traj.dim))]
        for k, t in enumerate(traj.grid.points):
            lines.append(",".join([fmt(t)] + [fmt(v) for v in traj.states[k]]))
    return "\n".join(lines) + "\n"


def sampled_generator_csv_reference(gen):
    dd = gen.matrix_dim
    quantum = gen.kind == "quantum"
    labels = []
    for i in range(dd):
        for j in range(dd):
            labels += [f"g_{i}_{j}_re", f"g_{i}_{j}_im"] if quantum else [f"w_{i}_{j}"]
    lines = ["t," + ",".join(labels) + ",in_gap"]
    mask = gen.gap_mask()
    for k, t in enumerate(gen.grid.points):
        cells = [fmt(t)]
        for v in gen.samples[k].ravel():
            if quantum:
                cells += [fmt(complex(v).real), fmt(complex(v).imag)]
            else:
                cells.append(fmt(float(np.real(v))))
        cells.append(fmt(bool(mask[k])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def rate_traces_csv_reference(report):
    k = report.rate_traces.shape[1]
    lines = ["t," + ",".join(f"rate_{i}" for i in range(k))]
    for t, rates in zip(report.grid.points, report.rate_traces):
        lines.append(",".join([fmt(t)] + [("" if np.isnan(r) else fmt(r)) for r in rates]))
    return "\n".join(lines) + "\n"


# awkward cells: signed zero, the smallest subnormal, huge and integral values
SPECIAL = np.array([-0.0, 5e-324, 1e300, 3.0, -2.0, 0.1 + 0.2])


class TestChunkedCsvMatchesPerCell:
    # crosses a chunk boundary for every table below (at most _CHUNK_CELLS // 4
    # rows a chunk) and is a multiple of none of their chunk lengths
    n = _CHUNK_CELLS // 2 + 37

    def grid(self):
        return TimeGrid.uniform(0.25, 0.25 * (self.n - 1))

    def test_quantum_trajectory(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((self.n, 3, 3)) + 1j * rng.standard_normal((self.n, 3, 3))
        states = a @ a.conj().transpose(0, 2, 1)
        states /= np.einsum("nii->n", states).real[:, None, None]
        states[0] = np.diag([1.0, 0.0, -0.0])
        states[1] = np.diag([0.5, 0.5, 0.0]).astype(complex)
        states[1, 0, 1], states[1, 1, 0] = complex(-0.0, 5e-324), complex(-0.0, -5e-324)
        traj = Trajectory(self.grid(), states, "quantum")
        text = trajectory_csv(traj)
        assert text == trajectory_csv_reference(traj)
        assert text.split("\n")[2].startswith("0.25,0.5,0,-0,4.9406564584124654e-324,")

    def test_classical_trajectory(self):
        rng = np.random.default_rng(5)
        states = rng.dirichlet(np.ones(3), size=self.n)
        states[0] = [1.0, -0.0, 5e-324]
        traj = Trajectory(self.grid(), states, "classical")
        text = trajectory_csv(traj)
        assert text == trajectory_csv_reference(traj)
        assert "\n0,1,-0,4.9406564584124654e-324\n" in text

    @pytest.mark.parametrize("kind, dim, dtype", [("quantum", 2, complex), ("classical", 3, float)])
    def test_sampled_generator_with_gaps(self, kind, dim, dtype):
        dd = dim * dim if kind == "quantum" else dim
        rng = np.random.default_rng(6)
        samples = rng.standard_normal((self.n, dd, dd)).astype(dtype)
        if kind == "quantum":
            samples = samples + 1j * rng.standard_normal((self.n, dd, dd))
        samples.reshape(-1)[: SPECIAL.size] = SPECIAL
        samples.reshape(-1)[-SPECIAL.size :] = SPECIAL * (1j if kind == "quantum" else 1)
        gaps = ((10.0, 20.5), (0.25 * (self.n - 3), 0.25 * (self.n - 1)))
        gen = SampledGenerator(self.grid(), samples, kind, dim, gaps)
        text = sampled_generator_csv(gen)
        assert text == sampled_generator_csv_reference(gen)
        assert text.count(",true\n") == int(gen.gap_mask().sum())

    def test_rate_traces_with_nan_rows_and_cells(self):
        rng = np.random.default_rng(7)
        rates = rng.standard_normal((self.n, 3))
        rates[:2] = [SPECIAL[:3], SPECIAL[3:]]
        rates[40:90] = np.nan
        rates[100, 1] = np.nan
        rates[-1, 0] = -np.nan
        report = SimpleNamespace(grid=self.grid(), rate_traces=rates)
        text = rate_traces_csv(report)
        assert text == rate_traces_csv_reference(report)
        assert "\n10,,,\n" in text and "nan" not in text


def encode_reference(header, t, values, blank_nan=False, flags=None):
    """Per-cell reference for the table encoder: one fmt() call per cell."""
    flat = values.reshape(t.shape[0], -1)
    lines = [header]
    for k in range(t.shape[0]):
        cells = [fmt(t[k])]
        for v in flat[k]:
            for x in ((v.real, v.imag) if np.iscomplexobj(flat) else (v,)):
                cells.append("" if blank_nan and np.isnan(x) else fmt(x))
        if flags is not None:
            cells.append(fmt(bool(flags[k])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def from_bits(*patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


# NaN payloads, -nan and the signalling pattern all print as "nan"
NANS = from_bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001)
EDGES = np.concatenate(
    [
        NANS,
        [np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308],
        [1e300, -1.7976931348623157e308, 3.0, -2.0, 0.1 + 0.2, 1e16, 123456789012345.625],
    ]
)


def edge_table(rng, rows, width, zero_frac=0.3):
    """Random cells drawn from a small pool (repeats within a chunk), the
    edge values and zeros."""
    pool = np.concatenate([EDGES, rng.standard_normal(20)])
    table = rng.choice(pool, size=(rows, width))
    table[rng.random((rows, width)) < zero_frac] = 0.0
    return table


def gathered_codes(monkeypatch):
    """A list that collects the size of each chunk's codes as it reaches
    the gather in ``serialize._emit``."""
    sizes, real = [], serialize._emit
    counting = lambda sink, waiting, *rest: sizes.extend(c.size for c, _ in waiting) or real(sink, waiting, *rest)
    monkeypatch.setattr(serialize, "_emit", counting)
    return sizes


class TestTableEncoder:
    @pytest.mark.parametrize("width", [1, 2, 5, 33, _CHUNK_CELLS - 1, _CHUNK_CELLS + 7])
    @pytest.mark.parametrize("blank_nan", [False, True])
    def test_chunk_boundaries(self, width, blank_nan):
        rng = np.random.default_rng(width)
        step = max(1, _CHUNK_CELLS // (width + 2))
        rows = 2 * step + 3  # three chunks, the last one partial
        t = np.arange(rows) * 0.125
        values = edge_table(rng, rows, width)
        flags = rng.random(rows) < 0.5
        text = _encode_table("h", t, values, blank_nan, flags)
        assert text == encode_reference("h", t, values, blank_nan, flags)

    def test_edge_values_one_row(self):
        t = np.array([0.5])
        text = _encode_table("h", t, EDGES[None, :])
        assert text == encode_reference("h", t, EDGES[None, :])
        cells = text.split("\n")[1].split(",")
        assert cells[1:9] == ["nan"] * 4 + ["inf", "-inf", "0", "-0"]
        assert cells[9:11] == ["4.9406564584124654e-324", "-4.9406564584124654e-324"]
        blank = _encode_table("h", t, EDGES[None, :], blank_nan=True)
        assert blank.split("\n")[1].startswith("0.5,,,,,inf,-inf,0,-0,")

    def test_signed_zeros_side_by_side(self):
        t = np.array([0.0, -0.0, 1.0])
        values = np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]])
        text = _encode_table("h", t, values, flags=np.array([True, False, True]))
        assert text == "h\n0,0,-0,true\n-0,-0,0,false\n1,0,0,true\n"

    def test_all_zero_chunks(self):
        rows = 3 * (_CHUNK_CELLS // 4) + 11
        t = np.arange(rows) * 0.5
        values = np.zeros((rows, 2), dtype=complex)  # every value cell is +0.0
        values[-5:] = 1.5 - 0.25j
        flags = np.zeros(rows, dtype=bool)
        text = _encode_table("h", t, values, flags=flags)
        assert text == encode_reference("h", t, values, flags=flags)
        assert text.split("\n")[2] == "0.5,0,0,0,0,false"

    @pytest.mark.parametrize("rows", [1, _CHUNK_CELLS // 3 + 1])
    def test_all_distinct_nonzero_chunks(self, rows):
        # every cell is a value, so each batch holds one chunk
        t = 1.0 + np.arange(rows) / 7.0
        values = np.random.default_rng(rows).dirichlet(np.ones(2), size=rows) + 0.5
        assert _encode_table("h", t, values) == encode_reference("h", t, values)

    def test_fully_blank_rate_row(self):
        rates = np.array([[0.5, -1.0], [np.nan, np.nan], [-np.nan, 2.0], [np.nan, np.nan]])
        report = SimpleNamespace(grid=TimeGrid.uniform(0.5, 1.5), rate_traces=rates)
        text = rate_traces_csv(report)
        assert text == rate_traces_csv_reference(report)
        assert text == "t,rate_0,rate_1\n0,0.5,-1\n0.5,,\n1,,2\n1.5,,\n"

    def test_flag_column_with_non_finite_values(self):
        n = _CHUNK_CELLS // 3 + 5  # two chunks of three-cell rows
        grid = TimeGrid.uniform(0.5, 0.5 * (n - 1))
        values = np.random.default_rng(3).standard_normal(n)
        values[:3] = [0.0, -0.0, 5e-324]
        values[100:110] = [np.nan, np.inf, -np.inf, *NANS, 0.0, 1.0, 1.0]
        series = InfoSeries(grid, values, "kl", ((49.5, 55.0),))
        lines = ["t,value,skipped"]
        for t, v, s in zip(grid.points, series.values, series.skipped()):
            lines.append(f"{fmt(t)},{fmt(v)},{fmt(bool(s))}")
        text = _encode_table("t,value,skipped", grid.points, series.values, flags=series.skipped())
        assert text == "\n".join(lines) + "\n"
        assert "\n50,nan,true\n50.5,inf,true\n51,-inf,true\n" in text

    def test_tokens_never_reach_a_formatter(self, monkeypatch):
        formatted, fallback = [], []
        real = _format_slots
        monkeypatch.setattr(serialize, "_format_slots", lambda x, slots: formatted.append(x.copy()) or real(x, slots))
        monkeypatch.setattr(serialize, "fmt", lambda x: fallback.append(x) or fmt(x))
        rows = 3 * (_CHUNK_CELLS // 5) + 2
        t = np.full(rows, 0.5)
        rng = np.random.default_rng(8)
        values = rng.choice([1.5, -2.0, -0.0, 0.0, 0.1, np.nan], size=(rows, 4))
        flags = rng.random(rows) < 0.5
        text = _encode_table("h", t, values, blank_nan=True, flags=flags)
        assert text == encode_reference("h", t, values, blank_nan=True, flags=flags)
        seen = np.concatenate(formatted)
        # the t cells and every value cell but +0.0 and NaN; no flag cell
        expected = rows + np.count_nonzero((values.view(np.int64) != 0) & ~np.isnan(values))
        assert seen.size == expected and not np.isnan(seen).any()
        assert np.all(seen.view(np.int64) != 0) and max(x.size for x in formatted) <= _BATCH_VALUES
        assert [float(x) for x in fallback] == [-0.0] * np.count_nonzero(np.signbit(values) & (values == 0))

    def test_work_on_dephasing_generator(self, monkeypatch):
        # the cli-mixed extraction: only the non-token cells reach the
        # formatter, in batches that span chunks, and none falls back to %;
        # 30 of the 32 value columns are +0.0 on every row, in three runs, so
        # a row reaches the gather as 7 codes (t, a run, Re G[1,1], a run,
        # Re G[2,2], a run, the flag), not 34
        model = dephasing_qubit(rate_kind="sinusoidal", lam=1.0, amplitude=1.5, frequency=1.0)
        grid = TimeGrid.uniform(1e-3, 40.0)
        gen = extract_tcl_generator(build_propagator(model.tcl_generator, grid))
        codes = gathered_codes(monkeypatch)
        sizes, fallback = [], []
        real = _format_slots
        monkeypatch.setattr(serialize, "_format_slots", lambda x, slots: sizes.append(x.size) or real(x, slots))
        monkeypatch.setattr(serialize, "fmt", lambda x: fallback.append(x) or fmt(x))
        text = sampled_generator_csv(gen)
        n, ncol = grid.n, 34
        assert n == 40001 and text.count("\n") == n + 1
        assert len(text.split("\n")[1].split(",")) == ncol
        samples = gen.samples.reshape(n, -1)
        cells = np.concatenate((grid.points, samples.real.ravel(), samples.imag.ravel()))
        assert sum(sizes) == np.count_nonzero(cells.view(np.int64))
        chunks = -(-n // (_CHUNK_CELLS // ncol))
        assert len(sizes) < chunks / 8 and max(sizes) <= _BATCH_VALUES
        assert fallback == []
        assert sum(codes) <= 7 * n
        assert gen.gaps  # gap rows are part of the table


@pytest.mark.parametrize("blank_nan", [False, True])
@pytest.mark.parametrize("flagged", [False, True])
class TestZeroColumnFold:
    """Each maximal run of value columns that are +0.0 on every row is one
    token of ``0,`` text; the table's text is the per-cell reference's."""

    def check(self, monkeypatch, values, blank_nan, flagged, codes_per_row):
        n = len(values)
        t = np.arange(n) * 0.25
        flags = (np.arange(n) % 3 == 0) if flagged else None
        sizes = gathered_codes(monkeypatch)
        text = _encode_table("h", t, values, blank_nan, flags)
        assert text == encode_reference("h", t, values, blank_nan, flags)
        assert sum(sizes) == n * (codes_per_row + flagged)
        return text

    def table(self, rows, width=8, seed=0):
        """Random values with NaN cells, a row count that crosses chunks and
        leaves rows past the zero scan's whole lanes (width 8: 128 a lane)."""
        values = np.random.default_rng(seed).standard_normal((rows, width))
        values[5::97, 2 % width] = np.nan
        values[7::50, 5 % width] = 0.0
        return values

    def rows(self, flagged, width=8):
        step = _CHUNK_CELLS // (width + 1 + flagged)
        rows = 2 * step + 37
        assert rows % (_SCAN_WORDS // width) != 0
        return step, rows

    def test_runs_at_start_middle_and_end(self, monkeypatch, blank_nan, flagged):
        _, rows = self.rows(flagged)
        values = self.table(rows)
        values[:, [0, 1, 3, 4, 7]] = 0.0
        assert _zero_columns(values).tolist() == [True, True, False, True, True, False, False, True]
        # t, 0-1, 2, 3-4, 5, 6, 7
        text = self.check(monkeypatch, values, blank_nan, flagged, 7)
        assert text.split("\n")[1].startswith("0,0,0,")

    @pytest.mark.parametrize("where", ["last of a chunk", "first of a chunk", "last row"])
    def test_one_nonzero_row_keeps_its_column(self, monkeypatch, blank_nan, flagged, where):
        step, rows = self.rows(flagged)
        at = {"last of a chunk": step - 1, "first of a chunk": step, "last row": rows - 1}[where]
        values = self.table(rows, seed=at)
        values[:, [0, 3, 4]] = 0.0
        values[at, 3] = 2.5
        assert _zero_columns(values).tolist() == [True, False, False, False, True, False, False, False]
        self.check(monkeypatch, values, blank_nan, flagged, 9)

    @pytest.mark.parametrize("at", [0, 1500])
    def test_negative_zero_keeps_its_column(self, monkeypatch, blank_nan, flagged, at):
        _, rows = self.rows(flagged)
        values = self.table(rows, seed=3)
        values[:, [1, 6]] = 0.0
        values[at, 6] = -0.0
        assert _zero_columns(values).tolist() == [False, True] + [False] * 6
        text = self.check(monkeypatch, values, blank_nan, flagged, 9)
        assert text.split("\n")[1 + at].split(",")[7] == "-0"

    def test_every_value_column_zero(self, monkeypatch, blank_nan, flagged):
        _, rows = self.rows(flagged)
        values = np.zeros((rows, 8))
        text = self.check(monkeypatch, values, blank_nan, flagged, 2)
        assert text.split("\n")[2] == "0.25," + ",".join(["0"] * 8) + (",false" if flagged else "")

    def test_one_row(self, monkeypatch, blank_nan, flagged):
        values = np.array([[0.0, np.nan, 0.0, 0.0, -0.0, 1e-300]])
        self.check(monkeypatch, values, blank_nan, flagged, 6)

    def test_complex_table_with_zero_imaginary_parts(self, monkeypatch, blank_nan, flagged):
        _, rows = self.rows(flagged, width=6)
        values = self.table(rows, width=3, seed=5) + 0j
        assert _zero_columns(values.view(np.float64)).tolist() == [False, True] * 3
        # each imaginary column is a run of one: the same count of codes
        self.check(monkeypatch, values, blank_nan, flagged, 7)


def slot_text(x):
    """The formatter's text for the values of ``x``, concatenated."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    slots = np.empty((x.size, _SLOT), np.uint8)
    length = _format_slots(x, slots)
    return slots[np.arange(_SLOT) < length[:, None]].tobytes()


def percent_text(x):
    return (("%.17g," * x.size) % tuple(np.asarray(x, dtype=np.float64).tolist())).encode("ascii")


def near(x, steps=2):
    """``x`` with its neighbouring doubles up to ``steps`` away, both signs."""
    x = np.asarray(x, dtype=np.float64)
    out, up, down = [x], x, x
    with np.errstate(over="ignore"):  # DBL_MAX's upper neighbour is inf
        for _ in range(steps):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            out += [up, down]
    out = np.concatenate(out)
    return np.concatenate((out, -out))


def exact_ties():
    """Doubles j * 2**-q whose 18 significant digits end in an exact 5, so
    that rounding to 17 digits is a tie: with k = 17 - q, x * 10**(16 - k) =
    j * 5**(q - 1) / 2 for an odd j in [10**k 2**q, 10**(k + 1) 2**q)."""
    rng = np.random.default_rng(11)
    ties = []
    for q in range(2, 26):
        k = 17 - q
        lo = math.ceil(Fraction(10) ** k * 2**q)
        hi = min(math.ceil(Fraction(10) ** (k + 1) * 2**q), 2**53)
        picks = {int(j) | 1 for j in (lo, hi - 1, *rng.integers(lo, hi, 6))}
        ties += [math.ldexp(j, -q) for j in sorted(picks) if j < hi]
    return np.array(ties)


class TestDigitPath:
    """The vectorized digits and layout against ``'%.17g'``, byte for byte."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            x = rng.integers(0, 2**64, 2**17, dtype=np.uint64).view(np.float64)
            assert slot_text(x) == percent_text(x)

    def test_named_classes(self):
        rng = np.random.default_rng(13)
        subnormal = from_bits(*rng.integers(1, 2**52, 1000, dtype=np.uint64), 1, 2**52 - 1)
        powers2 = np.ldexp(1.0, np.arange(-1074, 1024))
        powers10 = np.array([float(f"1e{j}") for j in range(-323, 309)])
        integers = np.concatenate((rng.integers(0, 2**63, 2000, dtype=np.uint64), 2 ** np.arange(64, dtype=np.uint64) - 1))
        classes = {
            "subnormal": subnormal,
            "zero, inf, nan": np.concatenate((NANS, [0.0, -0.0, np.inf, -np.inf])),
            "powers of 2": near(powers2),
            "powers of 10": near(powers10),
            "integers": near(integers.astype(np.float64)),
            "digit boundaries": near([1e16, 1e17, 2.0**53, 99999999999999999.0], steps=40),
            "extremes": near([np.finfo(float).max, 5e-324, np.finfo(float).tiny, 1e-289, 1e290]),
        }
        for name, x in classes.items():
            assert slot_text(x) == percent_text(x), name

    def test_exact_ties_take_the_fallback(self):
        ties = exact_ties()
        assert ties.size > 100
        for x in ties:
            k = int(np.floor(np.log10(x)))
            k += Fraction(x) >= Fraction(10) ** (k + 1)
            k -= Fraction(x) < Fraction(10) ** k
            scaled = Fraction(x) * Fraction(10) ** (16 - k)
            assert scaled.denominator == 2, x  # an exact half
        both = np.concatenate((ties, -ties))
        assert not _digits(np.abs(both))[2].any()
        assert slot_text(both) == percent_text(both)


class TestAtomicWrites:
    def test_no_partial_files(self, tmp_path):
        target = tmp_path / "out.json"
        write_json_atomic(str(target), {"a": 1.0})
        assert target.exists()
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_overwrite_is_clean(self, tmp_path):
        target = tmp_path / "out.txt"
        write_text_atomic(str(target), "one\n")
        write_text_atomic(str(target), "two\n")
        assert target.read_text() == "two\n"


class TestStreamedTables:
    """A table handed to a sink is written in pieces as it is encoded; the
    file holds exactly the bytes of the returned text."""

    def stream(self, path, table, obj):
        """Stream ``table(obj)`` to ``path``; return the file's bytes and
        the sizes of the pieces the sink was handed."""
        pieces = []

        def writer(sink):
            def recording(piece):
                pieces.append(len(piece))
                sink(piece)

            assert table(obj, recording) is None

        serialize.write_atomic(str(path), writer)
        return path.read_bytes(), pieces

    def check(self, tmp_path, table, obj):
        text = table(obj)
        data, pieces = self.stream(tmp_path / "table.csv", table, obj)
        assert data == text.encode("ascii") and sum(pieces) == len(data)
        assert [p.suffix for p in tmp_path.iterdir()] == [".csv"]
        return text, pieces

    def test_one_row(self, tmp_path):
        report = SimpleNamespace(grid=SimpleNamespace(points=np.array([0.5])), rate_traces=np.array([[-0.0, np.nan, 1e300]]))
        text, pieces = self.check(tmp_path, rate_traces_csv, report)
        assert text == "t,rate_0,rate_1,rate_2\n0.5,-0,,1.0000000000000001e+300\n" and len(pieces) == 2

    def test_shorter_than_a_chunk(self, tmp_path):
        grid = TimeGrid.uniform(0.5, 5.0)
        states = np.random.default_rng(9).dirichlet(np.ones(3), size=grid.n)
        states[0] = [1.0, -0.0, 0.0]
        text, pieces = self.check(tmp_path, trajectory_csv, Trajectory(grid, states, "classical"))
        assert text.startswith("t,p_0,p_1,p_2\n0,1,-0,0\n") and len(pieces) == 2

    def test_classical_trajectory_over_several_chunks(self, tmp_path):
        n = _CHUNK_CELLS // 2 + 37
        states = np.random.default_rng(10).dirichlet(np.ones(3), size=n)
        traj = Trajectory(TimeGrid.uniform(0.25, 0.25 * (n - 1)), states, "classical")
        text, pieces = self.check(tmp_path, trajectory_csv, traj)
        assert text == trajectory_csv_reference(traj)
        assert len(pieces) == 1 + -(-n // (_CHUNK_CELLS // 4)) and max(pieces) < len(text) / 2

    def test_rates_over_several_batches_with_blank_cells(self, tmp_path):
        # every cell but the blanks is a value: a batch holds one 8192-cell chunk
        n = 3 * _BATCH_VALUES // 4 + 11
        rates = np.random.default_rng(11).standard_normal((n, 3))
        rates[40:90] = np.nan
        rates[100, 1] = rates[-1, 0] = np.nan
        report = SimpleNamespace(grid=TimeGrid.uniform(0.25, 0.25 * (n - 1)), rate_traces=rates)
        text, pieces = self.check(tmp_path, rate_traces_csv, report)
        assert text == rate_traces_csv_reference(report) and "\n10,,,\n" in text
        assert len(pieces) == 1 + -(-n // (_CHUNK_CELLS // 4)) >= 4

    def test_complex_generator_with_gap_flags(self, tmp_path):
        n = _CHUNK_CELLS // 2 + 37
        rng = np.random.default_rng(12)
        samples = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
        samples.reshape(-1)[: SPECIAL.size] = SPECIAL
        gen = SampledGenerator(TimeGrid.uniform(0.25, 0.25 * (n - 1)), samples, "quantum", 2, ((10.0, 20.5),))
        text, pieces = self.check(tmp_path, sampled_generator_csv, gen)
        assert text == sampled_generator_csv_reference(gen)
        assert text.count(",true\n") == int(gen.gap_mask().sum()) > 0 and len(pieces) > 3

    def test_failed_stream_leaves_the_old_file(self, tmp_path):
        target = tmp_path / "table.csv"
        write_text_atomic(str(target), "old\n")

        def failing(sink):
            sink(b"t,rate_0\n")
            raise RuntimeError("stopped mid-table")

        with pytest.raises(RuntimeError, match="mid-table"):
            serialize.write_atomic(str(target), failing)
        assert target.read_text() == "old\n" and [p.name for p in tmp_path.iterdir()] == ["table.csv"]

    def test_cli_generator_table_is_never_held_whole(self, tmp_path, monkeypatch):
        """The cli-mixed extraction (sinusoidal dephasing, dt 1e-3, t_max
        40): while generator.csv is written, traced memory rises at most
        2 MiB above what is held when it starts (the sample table among
        it), against more than 3.5 MiB of text."""
        config = tmp_path / "dephasing.json"
        params = {"rate_kind": "sinusoidal", "lam": 1.0, "amplitude": 1.5, "frequency": 1.0}
        config.write_text(json.dumps({"model": {"name": "dephasing_qubit", "params": params}, "grid": {"dt": 1e-3, "t_max": 40.0}}))
        seen = []
        real = serialize.sampled_generator_csv

        def traced(gen, *args, **kwargs):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            out = real(gen, *args, **kwargs)
            seen.append((held, tracemalloc.get_traced_memory()[1] - held, gen.samples.nbytes))
            return out

        monkeypatch.setattr(serialize, "sampled_generator_csv", traced)
        tracemalloc.start()
        try:
            assert cli.main(["extract", "--config", str(config), "--out", str(tmp_path)]) == 0
        finally:
            tracemalloc.stop()
        [(held, rise, table)] = seen
        assert held > table and (tmp_path / "generator.csv").stat().st_size > 3.5 * 2**20
        assert rise <= 2 * 2**20, rise / 2**20
