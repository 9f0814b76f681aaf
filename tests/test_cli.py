import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import backflow_lab
from backflow_lab.cli import EXIT_STDOUT_CLOSED, main
from backflow_lab.models import exp_kernel_difference_mode


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def child_env():
    """The environment of a child that imports this package (the child does
    not inherit pytest's ``pythonpath`` setting)."""
    src = os.path.dirname(os.path.dirname(backflow_lab.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))


def run_module(*argv, module="backflow_lab.cli"):
    """``python -m <module>`` in a child that imports this package."""
    return subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, text=True, env=child_env())


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def record_spectral_passes(monkeypatch):
    """Shapes of the stacks given to ``linalg.hermitian_spectra`` and to
    numpy's Hermitian eigensolvers, in call order."""
    import backflow_lab.linalg as linalg

    passes = []

    def recording(name, fn):
        return lambda a, *args, **kwargs: passes.append((name, np.shape(a))) or fn(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "hermitian_spectra", recording("closed_form", linalg.hermitian_spectra))
    monkeypatch.setattr(np.linalg, "eigh", recording("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", recording("eigvalsh", np.linalg.eigvalsh))
    return passes


class TestModelList:
    def test_lists_all_models(self, capsys):
        assert main(["model", "list"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert set(listing) == {
            "markov_two_state",
            "fractional_two_state",
            "classical_exp_kernel",
            "classical_fractional",
            "dephasing_qubit",
            "amplitude_damping_qubit",
        }
        assert "params" in listing["markov_two_state"]


class TestSimulate:
    def test_default_markov_row_count(self, tmp_path):
        config = write_config(tmp_path, {"model": {"name": "markov_two_state"}})
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "trajectory.csv")
        assert header[0] == "t"
        assert len(rows) == 20001  # dt = 1e-3, t_max = 20
        validation = json.loads((tmp_path / "validation.json").read_text())
        assert validation["states_validated"] is True
        assert validation["max_trace_defect"] <= 1e-12

    @pytest.mark.parametrize("model", ["markov_two_state", "amplitude_damping_qubit"])
    def test_min_eigenvalue_is_read_from_the_trajectory_spectrum(self, tmp_path, monkeypatch, model):
        from backflow_lab import analysis
        from backflow_lab.models import build_model

        passes = record_spectral_passes(monkeypatch)
        config = write_config(tmp_path, {"model": {"name": model}, "grid": {"dt": 1e-2, "t_max": 3.0}})
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
        assert [p for p in passes if len(p[1]) == 3 and p[1][0] == 301] == [("closed_form", (301, 2, 2))]
        monkeypatch.undo()
        validation = json.loads((tmp_path / "validation.json").read_text())
        traj, _ = analysis.propagate(build_model(model, {}), backflow_lab.TimeGrid.uniform(1e-2, 3.0), generator=False)
        assert validation["min_eigenvalue"] == float(np.min(np.linalg.eigvalsh(traj.states)))

    def test_invalid_alpha_exits_2(self, tmp_path):
        config = write_config(
            tmp_path,
            {"model": {"name": "fractional_two_state", "params": {"alpha": 1.5}}},
        )
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 2

    def test_embedding_route_alias_is_gone(self, tmp_path, capsys):
        config = write_config(tmp_path, {"model": {"name": "classical_exp_kernel"}, "route": "embedding"})
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 2
        assert "unknown route 'embedding'" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path):
        config = write_config(tmp_path, {"model": {"name": "markov_two_state"}, "bogus": 1})
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 2

    def test_classical_kernel_matches_oracle(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "model": {"name": "classical_exp_kernel", "params": {"gamma": 1.0, "tau_m": 1.0}},
                "grid": {"dt": 1e-3, "t_max": 3.0},
            },
        )
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "trajectory.csv")
        ts = np.array([float(r[0]) for r in rows])
        x = np.array([float(r[1]) - float(r[2]) for r in rows])
        oracle = exp_kernel_difference_mode(1.0, 1.0, ts)
        assert np.max(np.abs(x - oracle)) <= 1e-5

    def test_overrides_via_dotted_path(self, tmp_path):
        config = write_config(tmp_path, {"model": {"name": "markov_two_state"}})
        code = main(
            [
                "simulate",
                "--config",
                config,
                "--out",
                str(tmp_path),
                "--set",
                "model.params.lam=2.0",
                "--dt",
                "0.01",
                "--t-max",
                "1.0",
            ]
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "trajectory.csv")
        assert len(rows) == 101

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(
            tmp_path,
            {"model": {"name": "markov_two_state"}, "grid": {"dt": 0.01, "t_max": 2.0}},
        )
        main(["simulate", "--config", config, "--out", str(tmp_path)])
        first = (tmp_path / "trajectory.csv").read_bytes()
        main(["simulate", "--config", config, "--out", str(tmp_path)])
        assert (tmp_path / "trajectory.csv").read_bytes() == first


    @pytest.mark.parametrize("route", ["tc", "closed_form"])
    def test_state_leaving_simplex_is_numerical_failure_on_both_routes(self, tmp_path, capsys, route):
        # strong memory: the exact 3-state dynamics leave the probability simplex
        model = {"name": "classical_exp_kernel", "params": {"n": 3, "gamma": 2.0, "tau_m": 1.0}}
        config = write_config(
            tmp_path, {"model": model, "grid": {"dt": 1e-3, "t_max": 3.0}, "route": route}
        )
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 3
        assert "numerical failure: negative probability at t=1.31" in capsys.readouterr().err


class TestExtract:
    def test_generator_csv_and_gaps(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "model": {"name": "dephasing_qubit", "params": {"rate_kind": "sinusoidal"}},
                "grid": {"dt": 1e-3, "t_max": 2.0},
            },
        )
        assert main(["extract", "--config", config, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "generator.csv")
        assert header[-1] == "in_gap"
        assert len(rows) == 2001
        gaps = json.loads((tmp_path / "gaps.json").read_text())
        assert gaps["gaps"] == []


class TestDivisibility:
    def test_report_for_breaking_model(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "model": {"name": "classical_exp_kernel", "params": {"gamma": 1.0, "tau_m": 1.0}},
                "grid": {"dt": 1e-3, "t_max": 3.0},
            },
        )
        assert main(["divisibility", "--config", config, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "divisibility.json").read_text())
        assert report["divisible"] is False
        t_star = (math.pi - math.atan(math.sqrt(7.0))) / (math.sqrt(7.0) / 2.0)
        assert abs(report["first_violation_time"] - t_star) <= 5e-3
        assert os.path.exists(report["rates_csv_path"])


    def test_two_product_contraction_keeps_rates_csv(self, tmp_path, monkeypatch):
        """The canonical rates contract by two matrix products; rates.csv of
        the sinusoidal dephasing run has the bytes of ``np.einsum`` on its
        ``optimize=True`` path."""
        import backflow_lab.generator_analysis as generator_analysis

        def searched_per_call(samples, dim):
            basis = generator_analysis._full_basis(dim)
            m4 = np.asarray(samples, dtype=complex).reshape(-1, dim, dim, dim, dim)
            c = np.einsum("Bca,Ade,tadce->tAB", basis.conj(), basis.conj(), m4, optimize=True)
            return (c + c.conj().transpose(0, 2, 1)) / 2.0

        params = {"rate_kind": "sinusoidal", "lam": 1.0, "amplitude": 1.5, "frequency": 1.0}
        config = write_config(
            tmp_path, {"model": {"name": "dephasing_qubit", "params": params}, "grid": {"dt": 1e-3, "t_max": 40.0}}
        )
        products, per_call = tmp_path / "products", tmp_path / "per_call"
        assert main(["divisibility", "--config", config, "--out", str(products)]) == 0
        monkeypatch.setattr(generator_analysis, "_kossakowski", searched_per_call)
        assert main(["divisibility", "--config", config, "--out", str(per_call)]) == 0
        assert (products / "rates.csv").read_bytes() == (per_call / "rates.csv").read_bytes()


class TestRoutes:
    """``route`` means the same in every command that takes it."""

    @pytest.mark.parametrize("command", ["simulate", "extract", "divisibility", "backflow"])
    @pytest.mark.parametrize("route", ["bogus", "embedding"])
    def test_unknown_route_exits_2(self, tmp_path, capsys, command, route):
        config = write_config(tmp_path, {"model": {"name": "dephasing_qubit"}, "route": route})
        assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert f"unknown route '{route}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "extract", "divisibility", "backflow"])
    def test_route_the_model_lacks_exits_2(self, tmp_path, capsys, command):
        config = write_config(tmp_path, {"model": {"name": "dephasing_qubit"}, "route": "tc"})
        assert main([command, "--config", config, "--out", str(tmp_path)]) == 2
        assert "has no tc route" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["extract", "divisibility"])
    def test_closed_form_without_propagator_exits_2(self, tmp_path, capsys, command):
        config = write_config(tmp_path, {"model": {"name": "markov_two_state"}, "route": "closed_form"})
        assert main([command, "--config", config, "--out", str(tmp_path)]) == 2
        assert "offers no propagator route" in capsys.readouterr().err

    @pytest.mark.parametrize("params", [{"gamma": 0.2, "tau_m": 0.3}, {"n": 3, "gamma": 0.1, "tau_m": 0.3}])
    def test_extract_from_memory_kernel_matches_closed_form(self, tmp_path, params):
        """The TC-to-TCL procedure: the generator recovered from the
        memory-kernel propagator (``route=tc``) agrees with the one from the
        exact embedding within the 1e-5 the two families agree to."""
        tables = {}
        for route in ("tc", "closed_form"):
            config = write_config(
                tmp_path,
                {
                    "model": {"name": "classical_exp_kernel", "params": params},
                    "grid": {"dt": 2e-3, "t_max": 6.0},
                    "route": route,
                },
            )
            out = tmp_path / route
            assert main(["extract", "--config", config, "--out", str(out)]) == 0
            assert json.loads((out / "gaps.json").read_text())["gaps"] == []
            header, rows = read_csv(out / "generator.csv")
            tables[route] = np.array([[float(x) for x in row[:-1]] for row in rows])
        assert tables["tc"].shape == tables["closed_form"].shape == (3001, 1 + (params.get("n", 2)) ** 2)
        assert not np.array_equal(tables["tc"], tables["closed_form"])
        assert np.max(np.abs(tables["tc"] - tables["closed_form"])) <= 1e-5

    @pytest.mark.parametrize(
        "model, route",
        [
            ({"name": "dephasing_qubit", "params": {"rate_kind": "sinusoidal"}}, "auto"),
            ({"name": "dephasing_qubit", "params": {"rate_kind": "sinusoidal"}}, "tcl"),
            ({"name": "classical_exp_kernel", "params": {"tau_m": 0.5}}, "auto"),
            ({"name": "classical_exp_kernel", "params": {"tau_m": 0.5}}, "tc"),
            ({"name": "amplitude_damping_qubit", "params": {}}, "auto"),
        ],
    )
    def test_extract_and_divisibility_build_no_trajectory(self, tmp_path, monkeypatch, model, route):
        from backflow_lab import models, propagation
        from backflow_lab.states import Trajectory, _hermitian_trajectory

        built = []
        validate = Trajectory.__post_init__
        monkeypatch.setattr(Trajectory, "__post_init__", lambda self: built.append(1) or validate(self))
        # quantum trajectories the package builds Hermitian skip __post_init__
        trusted = lambda grid, states: built.append(1) or _hermitian_trajectory(grid, states)
        for module in (models, propagation):
            monkeypatch.setattr(module, "_hermitian_trajectory", trusted)
        config = write_config(tmp_path, {"model": model, "grid": {"dt": 1e-2, "t_max": 2.0}, "route": route})
        for command in ("extract", "divisibility"):
            assert main([command, "--config", config, "--out", str(tmp_path / command)]) == 0
        assert built == []
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "simulate")]) == 0
        assert built == [1]

    @pytest.mark.parametrize(
        "model, route",
        [
            ({"name": "classical_exp_kernel", "params": {"tau_m": 0.5}}, "tc"),
            ({"name": "dephasing_qubit", "params": {"rate_kind": "sinusoidal", "amplitude": 1.5}}, "tcl"),
        ],
    )
    def test_backflow_divisibility_follows_route(self, tmp_path, model, route):
        """backflow.json's divisibility block is the divisibility command's
        report on the same route."""
        config = write_config(tmp_path, {"model": model, "grid": {"dt": 1e-2, "t_max": 4.0}, "route": route})
        assert main(["backflow", "--config", config, "--out", str(tmp_path / "b")]) == 0
        assert main(["divisibility", "--config", config, "--out", str(tmp_path / "d")]) == 0
        block = json.loads((tmp_path / "b" / "backflow.json").read_text())["divisibility"]
        report = json.loads((tmp_path / "d" / "divisibility.json").read_text())
        report.pop("rates_csv_path")
        assert block == report

    @pytest.mark.parametrize("command", ["simulate", "extract", "backflow"])
    def test_singular_memory_kernel_step_exits_3(self, tmp_path, command):
        """A kernel too large for the first Volterra step is a numerical
        failure: exit 3 and one line on stderr, no traceback."""
        config = write_config(
            tmp_path,
            {
                "model": {"name": "classical_exp_kernel", "params": {"gamma": 1e21}},
                "grid": {"dt": 0.01, "t_max": 1.0},
                "route": "tc",
            },
        )
        done = run_module(command, "--config", config, "--out", str(tmp_path / "out"))
        assert done.returncode == 3
        assert done.stderr.splitlines() == ["numerical failure: integration diverged at t=0.01: singular step matrix"]


class TestTclRoute:
    """On ``tcl`` the generator is the input: ``extract`` writes G(t) itself
    and ``divisibility`` tests its exact rate."""

    LAM, AMPLITUDE = 1.0, 1.5

    def config(self, tmp_path):
        params = {"rate_kind": "sinusoidal", "lam": self.LAM, "amplitude": self.AMPLITUDE, "frequency": 1.0}
        return write_config(
            tmp_path, {"model": {"name": "dephasing_qubit", "params": params}, "grid": {"dt": 1e-2, "t_max": 8.0}, "route": "tcl"}
        )

    def rates(self, ts):
        return np.array([self.LAM + self.AMPLITUDE * math.sin(t) for t in ts])

    def test_first_violation_is_the_first_negative_rate(self, tmp_path):
        config = self.config(tmp_path)
        assert main(["divisibility", "--config", config, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "divisibility.json").read_text())
        ts = backflow_lab.TimeGrid.uniform(1e-2, 8.0).points
        negative = np.flatnonzero(self.rates(ts) < -report["rate_tolerance"])
        assert report["divisible"] is False and report["gaps"] == []
        assert report["first_violation_time"] == ts[negative[0]]

    def test_generator_csv_is_rate_times_dissipator(self, tmp_path):
        from backflow_lab.linalg import dissipator_superop
        from backflow_lab.models import SIGMA_Z

        config = self.config(tmp_path)
        assert main(["extract", "--config", config, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "generator.csv")
        assert all(row[-1] == "false" for row in rows)
        cells = np.array([[float(x) for x in row[:-1]] for row in rows])
        d = dissipator_superop(SIGMA_Z / np.sqrt(2.0))
        want = self.rates(cells[:, 0].tolist())[:, None, None] * d
        got = cells[:, 1::2] + 1j * cells[:, 2::2]
        assert np.array_equal(got, want.reshape(len(rows), 16))


class TestBackflow:
    def test_quantum_report_includes_sectors(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "model": {"name": "markov_two_state", "params": {"omega": 5.0}},
                "grid": {"dt": 1e-3, "t_max": 15.0},
                "measures": ["extended_entropy"],
            },
        )
        assert main(["backflow", "--config", config, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "backflow.json").read_text())
        assert report["n_cl"] == 0.0
        assert report["n_qe"] > 1e-3
        assert report["regime"] == "intrinsic_revival"
        assert report["divisibility"] is None
        assert "extended_entropy" in report["measures"]

    def test_classical_report(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "model": {"name": "classical_exp_kernel", "params": {"gamma": 1.0, "tau_m": 1.0}},
                "grid": {"dt": 2e-3, "t_max": 8.0},
            },
        )
        assert main(["backflow", "--config", config, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "backflow.json").read_text())
        assert report["measures"]["kl"]["backflow"] > 1e-3
        assert report["divisibility"]["divisible"] is False

    @pytest.mark.parametrize(
        "model, measures, builder",
        [
            ({"name": "fractional_two_state", "params": {"alpha": 0.6}}, ["s_cl", "s_qe"], "pair"),
            ({"name": "classical_exp_kernel", "params": {"tau_m": 0.5}}, ["kl"], "kl"),
        ],
    )
    def test_each_series_built_once(self, tmp_path, monkeypatch, model, measures, builder):
        """Each series is built once and summed once: the pair case sums
        s_cl and s_qe, their total, and both half grids (5); the kl case
        sums kl and its half grid (2)."""
        import backflow_lab.information as information
        import backflow_lab.netfd as netfd

        built = []

        def counting(label, fn):
            return lambda *a, **k: built.append(label) or fn(*a, **k)

        monkeypatch.setattr(netfd, "_sector_entropies", counting("pair", netfd._sector_entropies))
        monkeypatch.setattr(information, "kl_divergences", counting("kl", information.kl_divergences))
        backflow_sum = counting("sum", information._backflow)
        for module in (information, netfd):
            monkeypatch.setattr(module, "_backflow", backflow_sum)
        config = write_config(
            tmp_path, {"model": model, "grid": {"dt": 1e-2, "t_max": 4.0}, "measures": measures}
        )
        assert main(["backflow", "--config", config, "--out", str(tmp_path)]) == 0
        assert [label for label in built if label != "sum"] == [builder]
        assert built.count("sum") == {"pair": 5, "kl": 2}[builder]
        report = json.loads((tmp_path / "backflow.json").read_text())
        assert sorted(report["measures"]) == sorted(measures)
        assert report["n_total"] >= 0.0

    @pytest.mark.parametrize("model", ["markov_two_state", "dephasing_qubit", "amplitude_damping_qubit"])
    def test_entropies_take_no_spectral_pass_of_their_own(self, tmp_path, monkeypatch, model):
        """'vn_entropy' and 'extended_entropy' both read the spectrum of the
        trajectory check: the run diagonalizes its states once."""
        passes = record_spectral_passes(monkeypatch)
        config = write_config(
            tmp_path,
            {
                "model": {"name": model},
                "grid": {"dt": 1e-2, "t_max": 4.0},
                "measures": ["vn_entropy", "extended_entropy"],
            },
        )
        assert main(["backflow", "--config", config, "--out", str(tmp_path)]) == 0
        assert [p for p in passes if p[1] == (401, 2, 2)] == [("closed_form", (401, 2, 2))]
        measures = json.loads((tmp_path / "backflow.json").read_text())["measures"]
        assert measures["vn_entropy"] == measures["extended_entropy"]

    def test_time_local_model_takes_one_rk4_pass(self, tmp_path, monkeypatch):
        """A time-local model without closed forms gets its trajectory and
        its generator samples from one RK4 pass (here a constant generator's power
        table), and backflow.json has the bytes of a separate trajectory
        pass and the generator's own samples."""
        import backflow_lab.analysis as analysis
        import backflow_lab.propagation as propagation
        from backflow_lab.generator_analysis import SampledGenerator

        passes = []

        def counting(kernel):
            def run(*args, **kwargs):
                passes.append(1)
                return kernel(*args, **kwargs)

            return run

        monkeypatch.setattr(propagation, "rk4_power_table", counting(propagation.rk4_power_table))
        monkeypatch.setattr(propagation, "_prefix_product", counting(propagation._prefix_product))
        config = write_config(
            tmp_path,
            {
                "model": {"name": "amplitude_damping_qubit", "params": {"gamma": 0.8}},
                "grid": {"dt": 1e-2, "t_max": 2.0},
                "measures": ["rel_entropy", "vn_entropy"],
            },
        )
        fused, separate = tmp_path / "fused", tmp_path / "separate"
        assert main(["backflow", "--config", config, "--out", str(fused)]) == 0
        assert len(passes) == 1
        monkeypatch.setattr(
            analysis,
            "propagate",
            lambda model, grid, route: (
                propagation.solve_tcl(model.tcl_generator, model.initial_state, grid),
                SampledGenerator(
                    grid, propagation.tcl_pass(model.tcl_generator, grid)[1], "quantum", 2
                ),
            ),
        )
        assert main(["backflow", "--config", config, "--out", str(separate)]) == 0
        assert len(passes) == 2
        assert (fused / "backflow.json").read_bytes() == (separate / "backflow.json").read_bytes()

    def test_backflow_with_infinite_series_values_is_quiet(self, tmp_path):
        """Support mismatches give +inf values at skipped points; the run
        exits 0 with nothing on stderr."""
        config = write_config(
            tmp_path,
            {
                "model": {"name": "markov_two_state", "params": {"p_eq": 1, "p0": 0.5}},
                "grid": {"t_max": 40},
                "measures": ["rel_entropy"],
            },
        )
        done = run_module("backflow", "--config", config, "--out", str(tmp_path))
        assert done.returncode == 0 and done.stderr == ""
        assert json.loads((tmp_path / "backflow.json").read_text())["measures"]["rel_entropy"]["has_infinite"]

    @pytest.mark.parametrize("measures", ["kl", [["kl"]], [1]])
    def test_malformed_measures_exit_2(self, tmp_path, measures):
        config = write_config(
            tmp_path, {"model": {"name": "classical_exp_kernel"}, "measures": measures}
        )
        assert main(["backflow", "--config", config, "--out", str(tmp_path)]) == 2


    @pytest.mark.parametrize("command", ["backflow", "phase-diagram"])
    def test_measure_that_does_not_fit_the_model_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys, command):
        import backflow_lab.analysis as analysis
        import backflow_lab.phase_diagram as pd

        ran = lambda *args, **kwargs: pytest.fail("propagation ran")
        monkeypatch.setattr(analysis, "propagate", ran)
        monkeypatch.setattr(pd, "_sweep_point", ran)
        payload = {"model": {"name": "dephasing_qubit"}, "measures": ["kl"]}
        if command == "phase-diagram":
            payload["axes"] = [{"param": "lam", "min": 0.5, "max": 1.0, "steps": 2}]
        config = write_config(tmp_path, payload)
        assert main([command, "--config", config, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "config error: 'kl' needs a classical trajectory\n"

    def test_measure_infinite_everywhere_names_the_measure(self, tmp_path, capsys):
        """nbar = 0 makes the reference state pure, so the relative entropy
        is +inf at every point: a numerical failure that names the measure
        and how many points were skipped."""
        config = write_config(
            tmp_path,
            {
                "model": {"name": "amplitude_damping_qubit", "params": {"nbar": 0.0}},
                "grid": {"dt": 0.01, "t_max": 0.5},
                "measures": ["rel_entropy"],
            },
        )
        assert main(["backflow", "--config", config, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert "'rel_entropy'" in err and "51 of 51 are skipped" in err

    @pytest.mark.parametrize("command", ["backflow", "phase-diagram"])
    def test_grid_too_short_for_the_split_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys, command):
        import backflow_lab.analysis as analysis
        import backflow_lab.phase_diagram as pd

        ran = lambda *args, **kwargs: pytest.fail("propagation ran")
        monkeypatch.setattr(analysis, "propagate", ran)
        monkeypatch.setattr(pd, "_sweep_point", ran)
        payload = {"model": {"name": "amplitude_damping_qubit"}}
        if command == "phase-diagram":
            payload["axes"] = [{"param": "gamma", "min": 0.5, "max": 1.0, "steps": 2}]
        config = write_config(tmp_path, payload)
        assert main([command, "--config", config, "--out", str(tmp_path), "--t-max", "0.001"]) == 2
        assert capsys.readouterr().err == "config error: the sector split needs a grid of at least 3 points, got 2\n"


class TestGridTooShortToExtract:
    """A route that extracts the generator from a family (``closed_form``
    with ``propagator_fn``, or ``tc``) needs the 5 points of the 4th-order
    stencils: a shorter grid is a config error found before any
    propagation.  Routes that do not extract still run on 3-4 points."""

    @staticmethod
    def forbid_propagation(monkeypatch):
        import dataclasses

        import backflow_lab.analysis as analysis
        import backflow_lab.cli as cli
        import backflow_lab.phase_diagram as pd

        ran = lambda *args, **kwargs: pytest.fail("propagation ran")
        for name in ("tcl_pass", "build_propagator", "extract_tcl_generator", "solve_tc", "apply_family"):
            monkeypatch.setattr(analysis, name, ran)
        monkeypatch.setattr(pd, "_sweep_point", ran)
        build = cli.build_model
        closures = lambda name, params: dataclasses.replace(build(name, params), trajectory_fn=ran, propagator_fn=ran)
        monkeypatch.setattr(cli, "build_model", closures)

    def run(self, tmp_path, monkeypatch, capsys, command, payload, route):
        self.forbid_propagation(monkeypatch)
        config = write_config(tmp_path, payload)
        assert main([command, "--config", config, "--out", str(tmp_path), "--t-max", "0.003"]) == 2
        want = f"config error: generator extraction on route {route} needs a grid of at least 5 points, got 4\n"
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize("command", ["extract", "divisibility", "backflow"])
    @pytest.mark.parametrize("model, route", [("dephasing_qubit", "closed_form"), ("classical_exp_kernel", "tc")])
    def test_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys, command, model, route):
        self.run(tmp_path, monkeypatch, capsys, command, {"model": {"name": model}, "route": route}, route)

    @pytest.mark.parametrize("model, axis", [("dephasing_qubit", "lam"), ("classical_exp_kernel", "gamma")])
    def test_sweep_judges_the_first_points_auto_route(self, tmp_path, monkeypatch, capsys, model, axis):
        payload = {"model": {"name": model}, "axes": [{"param": axis, "min": 0.5, "max": 1.0, "steps": 2}]}
        self.run(tmp_path, monkeypatch, capsys, "phase-diagram", payload, "closed_form")

    @pytest.mark.parametrize(
        "command, model, route",
        [
            ("simulate", "dephasing_qubit", "closed_form"),
            ("simulate", "classical_exp_kernel", "tc"),
            ("extract", "dephasing_qubit", "tcl"),
            ("divisibility", "amplitude_damping_qubit", "tcl"),
            ("backflow", "dephasing_qubit", "tcl"),
            ("backflow", "markov_two_state", "closed_form"),
        ],
    )
    @pytest.mark.parametrize("t_max", ["0.002", "0.003"])
    def test_routes_that_do_not_extract_run_on_3_or_4_points(self, tmp_path, command, model, route, t_max):
        config = write_config(tmp_path, {"model": {"name": model}, "route": route})
        assert main([command, "--config", config, "--out", str(tmp_path), "--t-max", t_max]) == 0

    def test_five_points_extract(self, tmp_path):
        config = write_config(tmp_path, {"model": {"name": "dephasing_qubit"}})
        assert main(["divisibility", "--config", config, "--out", str(tmp_path), "--t-max", "0.004"]) == 0


class TestPhaseDiagram:
    def test_sweep_outputs(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "model": {"name": "classical_exp_kernel", "params": {"gamma": 1.0}},
                "axes": [{"param": "tau_m", "min": 0.05, "max": 0.5, "steps": 3}],
                "grid": {"dt": 2e-3, "t_max": 8.0},
            },
        )
        assert main(["phase-diagram", "--config", config, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert header[0] == "tau_m"
        assert len(rows) == 3
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["rows"] == 3

    def test_missing_axes_exits_2(self, tmp_path):
        config = write_config(tmp_path, {"model": {"name": "classical_exp_kernel"}})
        assert main(["phase-diagram", "--config", config, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("axes", [5, "tau_m", {"param": "tau_m"}])
    def test_axes_not_a_list_exits_2(self, tmp_path, axes):
        config = write_config(tmp_path, {"model": {"name": "classical_exp_kernel"}, "axes": axes})
        assert main(["phase-diagram", "--config", config, "--out", str(tmp_path)]) == 2


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = run_module("model", "list")
        assert proc.returncode == 0
        assert "markov_two_state" in proc.stdout

    def test_package_invocation(self, tmp_path):
        proc = run_module("model", "list", module="backflow_lab")
        assert proc.returncode == 0
        assert "markov_two_state" in proc.stdout

    def test_cli_import_leaves_the_process_pool_out(self):
        """Only a sweep with several workers imports the process pool."""
        src = os.path.dirname(os.path.dirname(backflow_lab.__file__))
        code = "import sys, backflow_lab.cli; print('concurrent.futures.process' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src)
        )
        assert proc.returncode == 0 and proc.stdout.strip() == "False"

    def test_config_error_message_on_stderr(self, tmp_path):
        config = write_config(tmp_path, {"model": {"name": "nonexistent_model"}})
        proc = run_module("simulate", "--config", config, "--out", str(tmp_path))
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    def test_reader_closing_after_one_line_leaves_no_traceback(self):
        """``backflow-lab model list | head -1``: the reader takes one line and
        closes the pipe.  The command ends quietly, with ``EXIT_STDOUT_CLOSED``
        when a write met the closed pipe, or 0 when all was written first."""
        argv = [sys.executable, "-m", "backflow_lab", "model", "list"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        assert proc.stdout.readline().strip() == b"{"
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() in (0, EXIT_STDOUT_CLOSED)
        assert "Traceback" not in stderr and "Exception ignored" not in stderr
        assert stderr == ""

    def test_stdout_closed_before_the_first_write(self):
        """A pipe whose reader is gone before the command writes: every write
        fails, and the command still ends quietly, with ``EXIT_STDOUT_CLOSED``."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            argv = [sys.executable, "-m", "backflow_lab", "model", "list"]
            proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, text=True, env=child_env())
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_STDOUT_CLOSED == 141
        assert proc.stderr == ""

    def test_in_process_closed_stdout_returns_the_code_and_leaves_fds(self, monkeypatch):
        """Called as a library, ``main`` meets a closed standard output with
        ``EXIT_STDOUT_CLOSED`` and touches no file descriptor, also when the
        replaced ``sys.stdout`` has none."""

        class ClosedPipe(io.TextIOBase):
            def write(self, text):
                raise BrokenPipeError

            def flush(self):
                raise BrokenPipeError

        before = os.fstat(1)
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["model", "list"]) == EXIT_STDOUT_CLOSED
        after = os.fstat(1)
        assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)


class TestOutDirectory:
    @pytest.mark.parametrize("command", ["simulate", "phase-diagram"])
    @pytest.mark.parametrize("below_file", [False, True])
    def test_unusable_out_exits_2_before_any_propagation(self, tmp_path, monkeypatch, capsys, command, below_file):
        """An --out that is an existing file, or lies below one, cannot be a
        directory: one config error line naming it, before any work."""
        import backflow_lab.analysis as analysis
        import backflow_lab.phase_diagram as pd

        ran = lambda *args, **kwargs: pytest.fail("propagation ran")
        monkeypatch.setattr(analysis, "propagate", ran)
        monkeypatch.setattr(pd, "_sweep_point", ran)
        payload = {"model": {"name": "dephasing_qubit"}, "grid": {"dt": 0.1, "t_max": 1.0}}
        if command == "phase-diagram":
            payload["axes"] = [{"param": "lam", "min": 0.5, "max": 1.0, "steps": 2}]
        config = write_config(tmp_path, payload)
        out = os.path.join(config, "run") if below_file else config
        assert main([command, "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --out {out}: {config} ") and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["config.json"]

    def test_missing_directories_are_made(self, tmp_path):
        out = tmp_path / "a" / "b"
        config = write_config(tmp_path, {"model": {"name": "markov_two_state"}, "grid": {"dt": 0.1, "t_max": 1.0}})
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["trajectory.csv", "validation.json"]


class TestParser:
    def test_built_once_per_process(self):
        from backflow_lab.cli import build_parser

        assert build_parser() is build_parser()

    def test_set_does_not_outlive_its_run(self, tmp_path):
        """On the one parser, a run after a ``--set`` run writes what a run
        made alone in a fresh process writes."""
        config = write_config(tmp_path, {"model": {"name": "markov_two_state"}, "grid": {"dt": 0.01, "t_max": 2.0}})
        alone = run_module("simulate", "--config", config, "--out", str(tmp_path / "alone"))
        assert alone.returncode == 0, alone.stderr
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "set"), "--set", "grid.dt=0.02"]) == 0
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "after")]) == 0
        for name in ("trajectory.csv", "validation.json"):
            assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()
        assert len(read_csv(tmp_path / "set" / "trajectory.csv")[1]) == 101
        assert len(read_csv(tmp_path / "after" / "trajectory.csv")[1]) == 201


class TestGridFlags:
    def test_phase_diagram_flags_override_config_grid(self, tmp_path, monkeypatch):
        import backflow_lab.cli as cli

        seen = []
        real_run_sweep = cli.run_sweep

        def capture(spec):
            seen.append((spec.dt, spec.t_max))
            return real_run_sweep(spec)

        monkeypatch.setattr(cli, "run_sweep", capture)
        config = write_config(
            tmp_path,
            {
                "model": {"name": "classical_exp_kernel", "params": {"gamma": 1.0}},
                "axes": [{"param": "tau_m", "min": 0.2, "max": 0.5, "steps": 2}],
                "grid": {"dt": 2e-3, "t_max": 8.0},
            },
        )
        out = str(tmp_path)
        assert main(["phase-diagram", "--config", config, "--out", out]) == 0
        first = (tmp_path / "sweep.csv").read_bytes()
        assert main(["phase-diagram", "--config", config, "--out", out, "--dt", "0.01", "--t-max", "1"]) == 0
        assert seen == [(2e-3, 8.0), (0.01, 1.0)]
        assert (tmp_path / "sweep.csv").read_bytes() != first

    def test_phase_diagram_defaults_without_grid(self, tmp_path, monkeypatch):
        import backflow_lab.cli as cli
        from backflow_lab.phase_diagram import SweepResult

        seen = []
        monkeypatch.setattr(cli, "run_sweep", lambda spec: seen.append(spec) or SweepResult(spec, ()))
        config = write_config(
            tmp_path,
            {
                "model": {"name": "classical_exp_kernel"},
                "axes": [{"param": "tau_m", "min": 0.2, "max": 0.5, "steps": 2}],
            },
        )
        assert main(["phase-diagram", "--config", config, "--out", str(tmp_path), "--t-max", "3"]) == 0
        assert (seen[0].dt, seen[0].t_max) == (cli.DEFAULT_DT, 3.0)

    @pytest.mark.parametrize("command", ["simulate", "phase-diagram"])
    @pytest.mark.parametrize("flags", [["--dt", "nan"], ["--t-max", "inf"], ["--dt", "-1"]])
    def test_non_finite_or_negative_grid_exits_2(self, tmp_path, capsys, command, flags):
        payload = {"model": {"name": "classical_exp_kernel"}}
        if command == "phase-diagram":
            payload["axes"] = [{"param": "tau_m", "min": 0.2, "max": 0.5, "steps": 2}]
        config = write_config(tmp_path, payload)
        assert main([command, "--config", config, "--out", str(tmp_path)] + flags) == 2
        assert "config error: grid." in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "extract", "divisibility", "backflow", "phase-diagram"])
    @pytest.mark.parametrize("where", ["config", "flag"])
    @pytest.mark.parametrize("dt", ["1e-300", "5e-324"])
    def test_unbuildable_grid_exits_2(self, tmp_path, capsys, command, where, dt):
        """A step so small that the point count overflows or cannot be
        allocated is a config error: exit 2, no traceback."""
        payload = {"model": {"name": "classical_exp_kernel"}, "grid": {"t_max": 40.0}}
        if command == "phase-diagram":
            payload["axes"] = [{"param": "tau_m", "min": 0.2, "max": 0.5, "steps": 2}]
        flags = ["--dt", dt]
        if where == "config":
            payload["grid"]["dt"] = float(dt)
            flags = []
        config = write_config(tmp_path, payload)
        assert main([command, "--config", config, "--out", str(tmp_path)] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "point" in err and "Traceback" not in err

    def test_non_numeric_grid_value_exits_2(self, tmp_path):
        config = write_config(
            tmp_path, {"model": {"name": "markov_two_state"}, "grid": {"dt": "fast"}}
        )
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 2


class TestParameterValidation:
    @pytest.mark.parametrize("where", ["config", "set"])
    def test_integer_too_long_to_read_exits_2(self, tmp_path, capsys, where):
        """An integer of more digits than ``int()`` converts is a config
        error, in the config file or in a ``--set`` value."""
        digits = "1" + "0" * 5000
        path = tmp_path / "config.json"
        params = f'{{"lam": {digits}}}' if where == "config" else "{}"
        path.write_text(f'{{"model": {{"name": "markov_two_state", "params": {params}}}}}')
        flags = ["--set", f"model.params.lam={digits}"] if where == "set" else []
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_overflowing_nbar_is_named(self, tmp_path, capsys):
        """2 nbar + 1 overflows for nbar = 1e308: a config error naming nbar."""
        config = write_config(tmp_path, {"model": {"name": "amplitude_damping_qubit", "params": {"nbar": 1e308}}})
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "nbar" in err and "trace" in err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_unknown_sweep_axis_exits_2_before_any_row(self, tmp_path, monkeypatch):
        import backflow_lab.phase_diagram as pd

        monkeypatch.setattr(pd, "_sweep_point", lambda work: pytest.fail("a row ran"))
        config = write_config(
            tmp_path,
            {
                "model": {"name": "classical_exp_kernel"},
                "axes": [{"param": "bogus", "min": 0.2, "max": 0.5, "steps": 2}],
            },
        )
        assert main(["phase-diagram", "--config", config, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "model, axis, measures",
        [
            ("classical_exp_kernel", ("gamma", 0.0, 0.5), []),  # exclusive minimum
            ("amplitude_damping_qubit", ("nbar", -0.1, 0.3), []),  # minimum
            ("markov_two_state", ("p0", 0.5, 1.5), []),  # maximum
            ("amplitude_damping_qubit", ("gamma", 0.5, 1.0), "rel_entropy"),
            ("amplitude_damping_qubit", ("gamma", 0.5, 1.0), ["rel_entropy", "bogus"]),
        ],
    )
    def test_out_of_range_axis_or_bad_measures_exit_2_before_any_row(
        self, tmp_path, monkeypatch, capsys, model, axis, measures
    ):
        import backflow_lab.phase_diagram as pd

        monkeypatch.setattr(pd, "_sweep_point", lambda work: pytest.fail("a row ran"))
        name, lo, hi = axis
        config = write_config(
            tmp_path,
            {
                "model": {"name": model},
                "axes": [{"param": name, "min": lo, "max": hi, "steps": 2}],
                "measures": measures,
            },
        )
        assert main(["phase-diagram", "--config", config, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "axis",
        [
            {"param": "gamma", "min": True, "max": 2.0, "steps": 2},
            {"param": "gamma", "min": 0.5, "max": "2.0", "steps": 2},
            {"param": "gamma", "min": 0.5, "max": 2.0, "steps": 2.5},
            {"param": ["gamma"], "min": 0.5, "max": 2.0, "steps": 2},
            {"param": "gamma", "min": 0.5, "steps": 2},
            ["gamma", 0.5, 2.0, 2],
        ],
    )
    def test_malformed_axis_exits_2_before_any_row(self, tmp_path, monkeypatch, capsys, axis):
        import backflow_lab.phase_diagram as pd

        monkeypatch.setattr(pd, "_sweep_point", lambda work: pytest.fail("a row ran"))
        config = write_config(tmp_path, {"model": {"name": "amplitude_damping_qubit"}, "axes": [axis]})
        assert main(["phase-diagram", "--config", config, "--out", str(tmp_path)]) == 2
        assert "config error: axes[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", [2**62, 10**400], ids=["2**62", "10**400"])
    def test_unallocatable_steps_exit_2_before_any_row(self, tmp_path, monkeypatch, capsys, steps):
        """A step count numpy refuses before allocating is a config error
        naming the axis."""
        import backflow_lab.phase_diagram as pd

        monkeypatch.setattr(pd, "_sweep_point", lambda *args: pytest.fail("a row ran"))
        axis = {"param": "gamma", "min": 0.5, "max": 2.0, "steps": steps}
        config = write_config(tmp_path, {"model": {"name": "amplitude_damping_qubit"}, "axes": [axis]})
        assert main(["phase-diagram", "--config", config, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: axes[0] ('gamma')") and err.count("\n") == 1
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("backflow", "epsilon_n", "abc"),
            ("backflow", "epsilon_n", -1e-6),
            ("backflow", "rate_tolerance", True),
            ("divisibility", "rate_tolerance", "abc"),
            ("divisibility", "rate_tolerance", float("nan")),
            ("phase-diagram", "epsilon_n", float("inf")),
            ("phase-diagram", "rate_tolerance", -1.0),
            ("phase-diagram", "epsilon_n", [1e-6]),
        ],
    )
    def test_bad_tolerance_exits_2_before_any_propagation(
        self, tmp_path, monkeypatch, capsys, command, key, value
    ):
        import backflow_lab.analysis as analysis
        import backflow_lab.phase_diagram as pd

        ran = lambda *args, **kwargs: pytest.fail("propagation ran")
        monkeypatch.setattr(analysis, "propagate", ran)
        monkeypatch.setattr(pd, "_sweep_point", ran)
        payload = {"model": {"name": "dephasing_qubit"}, key: value}
        if command == "phase-diagram":
            payload["axes"] = [{"param": "lam", "min": 0.5, "max": 1.0, "steps": 2}]
        config = write_config(tmp_path, payload)
        assert main([command, "--config", config, "--out", str(tmp_path)]) == 2
        assert f"config error: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", [[1], {}])
    @pytest.mark.parametrize("command", ["simulate", "extract", "divisibility", "backflow", "phase-diagram"])
    def test_model_name_of_the_wrong_json_type_exits_2(self, tmp_path, capsys, command, name):
        payload = {"model": {"name": name}, "axes": [{"param": "lam", "min": 0.5, "max": 1.0, "steps": 2}]}
        if command != "phase-diagram":
            del payload["axes"]
        config = write_config(tmp_path, payload)
        assert main([command, "--config", config, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unknown model {name!r}") and err.count("\n") == 1

    @pytest.mark.parametrize("param, value", [("n", True), ("gamma", False)])
    def test_json_boolean_rejected(self, tmp_path, capsys, param, value):
        config = write_config(
            tmp_path, {"model": {"name": "classical_exp_kernel", "params": {param: value}}}
        )
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 2
        assert "boolean" in capsys.readouterr().err

    def test_non_finite_parameter_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"model": {"name": "dephasing_qubit", "params": {"amplitude": NaN}}}')
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert "finite" in capsys.readouterr().err


class TestThreads:
    def sweep_config(self, tmp_path, **extra):
        payload = {
            "model": {"name": "classical_exp_kernel", "params": {"gamma": 1.0}},
            "axes": [{"param": "tau_m", "min": 0.5, "max": 1.0, "steps": 3}],
            "grid": {"dt": 1e-2, "t_max": 2.0},
        }
        payload.update(extra)
        return write_config(tmp_path, payload)

    @pytest.mark.parametrize(
        "extra, flags",
        [
            ({"threads": "abc"}, []),
            ({"threads": True}, []),
            ({"threads": 2.5}, []),
            ({"threads": 0}, []),
            ({}, ["--set", "threads=-3"]),
            ({}, ["--threads", "0"]),
        ],
    )
    def test_invalid_threads_exit_2(self, tmp_path, monkeypatch, capsys, extra, flags):
        import backflow_lab.phase_diagram as pd

        monkeypatch.setattr(pd, "_sweep_point", lambda work: pytest.fail("a row ran"))
        config = self.sweep_config(tmp_path, **extra)
        assert main(["phase-diagram", "--config", config, "--out", str(tmp_path)] + flags) == 2
        assert "threads" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "threads, cpus, expected",
        [(8, 2, 2), (8, 16, 3), (2, 16, 2), (4, 1, None), (1, 16, None), (8, None, None)],
    )
    def test_workers_capped_by_cpus_and_points(self, tmp_path, monkeypatch, threads, cpus, expected):
        import concurrent.futures

        import backflow_lab.phase_diagram as pd

        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(pd.os, "cpu_count", lambda: cpus)
        config = self.sweep_config(tmp_path, threads=threads)
        assert main(["phase-diagram", "--config", config, "--out", str(tmp_path)]) == 0
        assert pools == ([] if expected is None else [expected])
        assert json.loads((tmp_path / "summary.json").read_text())["rows"] == 3

    @pytest.mark.parametrize("command", ["simulate", "extract", "divisibility", "backflow"])
    def test_threads_flag_only_on_phase_diagram(self, tmp_path, capsys, command):
        """Only sweeps have workers: elsewhere ``--threads`` is an unknown
        argument, as ``--set threads=2`` is an unknown key."""
        config = write_config(tmp_path, {"model": {"name": "markov_two_state"}, "grid": {"dt": 1e-2, "t_max": 1.0}})
        with pytest.raises(SystemExit) as exited:
            main([command, "--config", config, "--out", str(tmp_path), "--threads", "2"])
        assert exited.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert main([command, "--config", config, "--out", str(tmp_path), "--set", "threads=2"]) == 2
