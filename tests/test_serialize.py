from types import SimpleNamespace

import numpy as np
import pytest

from backflow_lab import InfoSeries, TimeGrid, Trajectory
from backflow_lab.generator_analysis import SampledGenerator
from backflow_lab.serialize import (
    _CHUNK_ROWS,
    complex_matrix_to_json,
    fmt,
    info_series_csv,
    json_to_complex_matrix,
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


class TestComplexMatrixJson:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        back = json_to_complex_matrix(complex_matrix_to_json(m))
        assert np.array_equal(back, m)

    def test_pair_layout(self):
        data = complex_matrix_to_json(np.array([[1 + 2j]]))
        assert data == [[[1.0, 2.0]]]


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

    def test_info_series_skip_flag(self):
        grid = TimeGrid.uniform(0.5, 1.0)
        series = InfoSeries(grid, np.array([1.0, 2.0, 3.0]), "kl", ((0.4, 0.6),))
        lines = info_series_csv(series).strip().split("\n")
        assert lines[0] == "t,value,skipped"
        assert lines[2].endswith("true")
        assert lines[1].endswith("false")


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
    n = 2 * _CHUNK_ROWS + 37  # not a multiple of the chunk size

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
