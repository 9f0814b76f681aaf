import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from backflow_lab.cli import main
from backflow_lab.models import exp_kernel_difference_mode


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


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

    def test_invalid_alpha_exits_2(self, tmp_path):
        config = write_config(
            tmp_path,
            {"model": {"name": "fractional_two_state", "params": {"alpha": 1.5}}},
        )
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 2

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


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "backflow_lab.cli", "model", "list"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "markov_two_state" in proc.stdout

    def test_config_error_message_on_stderr(self, tmp_path):
        config = write_config(tmp_path, {"model": {"name": "nonexistent_model"}})
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "backflow_lab.cli",
                "simulate",
                "--config",
                config,
                "--out",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "config error" in proc.stderr


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

    def test_non_numeric_grid_value_exits_2(self, tmp_path):
        config = write_config(
            tmp_path, {"model": {"name": "markov_two_state"}, "grid": {"dt": "fast"}}
        )
        assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == 2


class TestParameterValidation:
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
