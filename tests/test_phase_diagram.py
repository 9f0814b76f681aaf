import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backflow_lab import (
    ContractViolationError,
    InfoSeries,
    SweepSpec,
    TimeGrid,
    classify,
    revival_detector,
    run_sweep,
)
from backflow_lab.errors import GeneratorSingularityError
from backflow_lab.serialize import sweep_csv


class TestClassify:
    def test_monotone(self):
        assert classify(0.0, 0.0) == "monotone"

    def test_classical_overshoot(self):
        assert classify(0.1, 0.0) == "classical_overshoot"

    def test_intrinsic_revival(self):
        assert classify(0.0, 0.1) == "intrinsic_revival"

    def test_hybrid(self):
        assert classify(0.1, 0.1) == "hybrid"

    def test_threshold_respected(self):
        eps = 1e-6
        assert classify(eps, eps, eps) == "monotone"
        assert classify(2 * eps, 0.0, eps) == "classical_overshoot"

    def test_negative_rejected(self):
        with pytest.raises(ContractViolationError):
            classify(-0.1, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0, 1), st.floats(0, 1))
    def test_total_function(self, a, b):
        assert classify(a, b) in ("monotone", "classical_overshoot", "intrinsic_revival", "hybrid")


class TestRevivalDetector:
    def test_damped_oscillation_is_not_a_revival(self):
        grid = TimeGrid.uniform(1e-3, 20.0)
        vals = np.exp(-grid.points) * np.sin(grid.points) ** 2
        flag, peaks = revival_detector(InfoSeries(grid, vals, "s_qe"))
        assert not flag
        assert len(peaks) >= 3
        heights = [h for _, h in peaks]
        assert all(b < a for a, b in zip(heights, heights[1:]))

    def test_monotone_series(self):
        grid = TimeGrid.uniform(0.01, 2.0)
        flag, peaks = revival_detector(InfoSeries(grid, np.exp(-grid.points), "s_qe"))
        assert not flag and peaks == []

    def test_second_peak_higher_flags(self):
        grid = TimeGrid.uniform(0.1, 2.0)
        vals = np.zeros(grid.n)
        vals[5] = 0.5
        vals[15] = 0.8
        flag, peaks = revival_detector(InfoSeries(grid, vals, "s_qe"))
        assert flag
        assert len(peaks) == 2

    def test_too_short_rejected(self):
        grid = TimeGrid(np.array([0.0, 0.1]))
        with pytest.raises(ContractViolationError):
            revival_detector(InfoSeries(grid, np.zeros(2), "s_qe"))


class TestSweepSpec:
    def test_lattice_order(self):
        spec = SweepSpec(
            model="markov_two_state",
            axes=(("lam", 1.0, 2.0, 2), ("omega", 3.0, 4.0, 2)),
            dt=0.1,
            t_max=1.0,
        )
        points = spec.lattice()
        assert [(p["lam"], p["omega"]) for p in points] == [
            (1.0, 3.0),
            (1.0, 4.0),
            (2.0, 3.0),
            (2.0, 4.0),
        ]

    def test_validation(self):
        with pytest.raises(ContractViolationError):
            SweepSpec(model="nope", axes=(("lam", 0.1, 1.0, 3),))
        with pytest.raises(ContractViolationError):
            SweepSpec(model="markov_two_state", axes=(("lam", 0.1, 1.0, 1),))
        with pytest.raises(ContractViolationError):
            SweepSpec(model="markov_two_state", axes=())


class TestRunSweep:
    def test_divisible_markov_rows_are_monotone(self):
        # amplitude damping stays divisible everywhere on the lattice; the
        # coherence-free mixed initial state relaxes with every entropy
        # sector monotone, so the regime label comes out 'monotone'
        spec = SweepSpec(
            model="amplitude_damping_qubit",
            axes=(("gamma", 0.5, 1.0, 2),),
            fixed={"nbar": 0.1, "p0": 0.5, "c0": 0.0},
            dt=2e-3,
            t_max=6.0,
            measures=("rel_entropy",),
        )
        result = run_sweep(spec)
        for row in result.rows:
            assert row["error"] == ""
            assert row["divisible"] is True
            assert row["N_rel_entropy"] <= 1e-6
            assert row["regime"] == "monotone"

    def test_markov_two_state_is_intrinsic_revival(self):
        spec = SweepSpec(
            model="markov_two_state",
            axes=(("omega", 2.0, 6.0, 3),),
            dt=1e-3,
            t_max=15.0,
        )
        result = run_sweep(spec)
        for row in result.rows:
            assert row["error"] == ""
            assert row["divisible"] is None  # closed-form model, no generator
            assert row["n_cl"] == 0.0
            assert row["n_qe"] > 1e-3
            assert row["regime"] == "intrinsic_revival"
            assert row["revival"] is False  # peaks decay under the envelope

    def test_failures_recorded_not_raised(self):
        # a coherence beyond the PSD bound of p0 = 0.5 fits the schema (c0
        # has no range) but never builds, so every row carries an error
        spec = SweepSpec(
            model="amplitude_damping_qubit",
            axes=(("c0", 0.6, 0.8, 2),),
            fixed={"p0": 0.5},
            dt=0.1,
            t_max=1.0,
        )
        result = run_sweep(spec)
        for row in result.rows:
            assert "ContractViolationError" in row["error"]
            assert row["regime"] is None

    def test_deterministic_csv(self):
        spec = SweepSpec(
            model="classical_exp_kernel",
            axes=(("tau_m", 0.05, 0.5, 3),),
            fixed={"gamma": 1.0},
            dt=2e-3,
            t_max=8.0,
        )
        a = sweep_csv(run_sweep(spec))
        b = sweep_csv(run_sweep(spec))
        assert a == b

    def test_parallel_matches_serial(self):
        base = dict(
            model="classical_exp_kernel",
            axes=(("tau_m", 0.1, 0.6, 3),),
            fixed={"gamma": 1.0},
            dt=5e-3,
            t_max=6.0,
        )
        serial = run_sweep(SweepSpec(**base, threads=1))
        parallel = run_sweep(SweepSpec(**base, threads=2))
        assert sweep_csv(serial) == sweep_csv(parallel)

    def test_summary_boundaries(self):
        spec = SweepSpec(
            model="classical_exp_kernel",
            axes=(("tau_m", 0.05, 1.0, 4),),
            fixed={"gamma": 1.0},
            dt=2e-3,
            t_max=10.0,
        )
        result = run_sweep(spec)
        summary = result.summary()
        assert summary["rows"] == 4
        assert sum(summary["regime_counts"].values()) == 4
        # the divisibility boundary (8 gamma tau_m = 1) sits inside the range
        assert len(summary["boundaries"]) >= 1

    def test_classification_stable_under_grid_refinement(self):
        # away from the threshold, halving dt must not change the label
        rows = {}
        for dt in (2e-3, 1e-3):
            spec = SweepSpec(
                model="markov_two_state",
                axes=(("omega", 4.0, 6.0, 2),),
                dt=dt,
                t_max=15.0,
            )
            rows[dt] = run_sweep(spec).rows
        for coarse, fine in zip(rows[2e-3], rows[1e-3]):
            assert not coarse["marginal"]
            assert coarse["regime"] == fine["regime"]

    def test_fractional_backflow_decreases_toward_markov_point(self):
        rows = {}
        for alpha in (0.5, 1.0):
            spec = SweepSpec(
                model="fractional_two_state",
                axes=(("omega", 5.0, 5.0 + 1e-9, 2),),
                fixed={"alpha": alpha, "lam": 1.0},
                dt=1e-3,
                t_max=20.0,
            )
            rows[alpha] = run_sweep(spec).rows[0]
        assert rows[0.5]["n_qe"] > rows[1.0]["n_qe"]


class TestSweepHardening:
    def test_unknown_or_unsweepable_names_rejected(self):
        with pytest.raises(ContractViolationError, match="bogus"):
            SweepSpec(model="markov_two_state", axes=(("bogus", 0.1, 1.0, 3),))
        with pytest.raises(ContractViolationError, match="bogus"):
            SweepSpec(model="markov_two_state", axes=(("lam", 0.1, 1.0, 3),), fixed={"bogus": 1.0})
        with pytest.raises(ContractViolationError, match="number"):
            SweepSpec(model="classical_exp_kernel", axes=(("n", 2, 4, 3),))
        with pytest.raises(ContractViolationError, match="finite"):
            SweepSpec(model="markov_two_state", axes=(("lam", 0.1, float("inf"), 3),))

    @pytest.mark.parametrize(
        "axis, message",
        [
            (("gamma", 0.5, 1.0, "3"), "steps must be an integer"),
            (("gamma", 0.5, 1.0, 2.5), "steps must be an integer"),
            (("gamma", 0.5, 1.0, True), "steps must be an integer"),
            (("gamma", "0.2", 1.0, 3), "min must be a number"),
            (("gamma", True, 1.0, 3), "min must be a number"),
            (("gamma", 0.5, True, 3), "max must be a number"),
            ((["gamma"], 0.5, 1.0, 3), "param must be a parameter name"),
        ],
    )
    def test_malformed_axis_entries_rejected(self, axis, message):
        with pytest.raises(ContractViolationError, match=rf"axes\[0\]\.{message}"):
            SweepSpec(model="amplitude_damping_qubit", axes=(axis,), dt=0.1, t_max=1.0)

    def test_schema_ranges_and_measures_checked_up_front(self):
        base = dict(model="amplitude_damping_qubit", dt=0.1, t_max=1.0)
        with pytest.raises(ContractViolationError, match="gamma=0.0 must be > 0"):
            SweepSpec(axes=(("gamma", 0.0, 1.0, 3),), **base)
        with pytest.raises(ContractViolationError, match="nbar=-0.1 must be >= 0"):
            SweepSpec(axes=(("nbar", -0.1, 0.3, 3),), **base)
        with pytest.raises(ContractViolationError, match="p0=1.5 must be <= 1"):
            SweepSpec(axes=(("gamma", 0.5, 1.0, 3),), fixed={"p0": 1.5}, **base)
        with pytest.raises(ContractViolationError, match="p0=1.2 must be <= 1"):
            SweepSpec(axes=(("p0", 0.2, 1.2, 3),), **base)
        for measures in ("rel_entropy", ("rel_entropy", "bogus"), 7):
            with pytest.raises(ContractViolationError, match="measure"):
                SweepSpec(axes=(("gamma", 0.5, 1.0, 3),), measures=measures, **base)
        spec = SweepSpec(axes=(("gamma", 0.5, 1.0, 3),), measures=["rel_entropy"], **base)
        assert spec.measures == ("rel_entropy",)

    @pytest.mark.parametrize("name", ["epsilon_n", "rate_tolerance"])
    @pytest.mark.parametrize(
        "value, message",
        [
            ("abc", "must be a number"),
            (True, "must be a number"),
            ([1e-6], "must be a number"),
            (float("nan"), "must be finite"),
            (float("inf"), "must be finite"),
            (-1e-9, "must be >= 0"),
        ],
    )
    def test_tolerances_checked_up_front(self, monkeypatch, name, value, message):
        import backflow_lab.phase_diagram as pd

        def forbidden(*args):
            raise AssertionError("a row ran")

        monkeypatch.setattr(pd, "_sweep_point", forbidden)
        with pytest.raises(ContractViolationError, match=f"{name} {message}"):
            run_sweep(
                SweepSpec(
                    model="markov_two_state", axes=(("lam", 1.0, 2.0, 2),), dt=0.1, t_max=1.0, **{name: value}
                )
            )

    @pytest.mark.parametrize("name", ["dt", "t_max"])
    @pytest.mark.parametrize(
        "value, message",
        [
            (-0.1, "must be > 0"),
            ("x", "must be a number"),
            (True, "must be a number"),
            (float("inf"), "must be finite"),
        ],
    )
    def test_grid_checked_up_front(self, monkeypatch, name, value, message):
        import backflow_lab.phase_diagram as pd

        monkeypatch.setattr(pd, "_sweep_point", lambda *args: pytest.fail("a row ran"))
        grid = {"dt": 0.1, "t_max": 1.0, name: value}
        with pytest.raises(ContractViolationError, match=f"{name} {message}"):
            run_sweep(SweepSpec(model="markov_two_state", axes=(("lam", 1.0, 2.0, 2),), **grid))

    def test_tolerances_stored_as_floats(self):
        spec = SweepSpec(
            model="markov_two_state", axes=(("lam", 1.0, 2.0, 2),), dt=0.1, t_max=1.0, epsilon_n=0, rate_tolerance=1
        )
        assert (spec.epsilon_n, spec.rate_tolerance) == (0.0, 1.0)
        assert type(spec.epsilon_n) is float and type(spec.rate_tolerance) is float

    def test_programming_error_surfaces(self, monkeypatch):
        import backflow_lab.phase_diagram as pd

        def broken(*args):
            raise TypeError("a bug, not a numerical failure")

        monkeypatch.setattr(pd, "_pipeline_one", broken)
        spec = SweepSpec(model="markov_two_state", axes=(("lam", 1.0, 2.0, 2),), dt=0.1, t_max=1.0)
        with pytest.raises(TypeError):
            run_sweep(spec)

    @pytest.mark.parametrize("exc_type", [GeneratorSingularityError, np.linalg.LinAlgError])
    def test_numerical_failure_recorded(self, monkeypatch, exc_type):
        import backflow_lab.phase_diagram as pd

        def failing(*args):
            raise exc_type("singular")

        monkeypatch.setattr(pd, "_pipeline_one", failing)
        spec = SweepSpec(model="markov_two_state", axes=(("lam", 1.0, 2.0, 2),), dt=0.1, t_max=1.0)
        for row in run_sweep(spec).rows:
            assert row["error"] == f"{exc_type.__name__}: singular"
            assert row["regime"] is None

    @pytest.mark.parametrize(
        "model, fixed, measures",
        [
            ("classical_exp_kernel", {"gamma": 1.0}, ("kl",)),
            ("classical_exp_kernel", {"gamma": 1.0}, ()),
            ("amplitude_damping_qubit", {}, ("rel_entropy", "vn_entropy")),
        ],
    )
    def test_each_series_built_once_per_point(self, monkeypatch, model, fixed, measures):
        import backflow_lab.analysis as analysis

        built = []
        original = analysis.series_from_trajectory

        def counting(traj, tag, **kwargs):
            built.append(tag)
            return original(traj, tag, **kwargs)

        monkeypatch.setattr(analysis, "series_from_trajectory", counting)
        axis = "tau_m" if model == "classical_exp_kernel" else "gamma"
        spec = SweepSpec(
            model=model, axes=((axis, 0.5, 1.0, 2),), fixed=fixed, dt=1e-2, t_max=2.0, measures=measures
        )
        rows = run_sweep(spec).rows
        assert all(row["error"] == "" for row in rows)
        assert sorted(built) == sorted(list(measures or ("kl",)) * len(rows))

    def test_time_local_row_takes_one_rk4_pass(self, monkeypatch):
        """A time-local model without closed forms gets its trajectory and
        its propagator from one RK4 pass: at most 3(N-1)+1 generator
        samples per row, and neither single-operand route runs."""
        import dataclasses

        import backflow_lab.analysis as analysis
        import backflow_lab.phase_diagram as pd
        from backflow_lab.propagation import TclGenerator

        samples = []
        real_build_model = pd.build_model

        def counting_model(name, params):
            model = real_build_model(name, params)
            gen = model.tcl_generator

            def evaluate(t):
                samples.append(t)
                return gen.evaluate(t)

            counted = TclGenerator(dim=gen.dim, kind=gen.kind, evaluate=evaluate)
            return dataclasses.replace(model, tcl_generator=counted)

        def forbidden(*args):
            raise AssertionError("second RK4 pass")

        monkeypatch.setattr(pd, "build_model", counting_model)
        monkeypatch.setattr(analysis, "build_propagator", forbidden)
        monkeypatch.setattr(analysis, "solve_tcl", forbidden)
        spec = SweepSpec(
            model="amplitude_damping_qubit",
            axes=(("gamma", 0.5, 1.0, 2),),
            dt=1e-2,
            t_max=3.0,
            measures=("rel_entropy",),
        )
        n = TimeGrid.uniform(spec.dt, spec.t_max).n
        for params in spec.lattice():
            samples.clear()
            row = pd._sweep_point(
                (spec.model, params, spec.dt, spec.t_max, spec.measures, spec.epsilon_n, spec.rate_tolerance)
            )
            assert row["error"] == ""
            assert row["divisible"] is True
            assert 0 < len(samples) <= 3 * (n - 1) + 1

    def test_constant_generator_row_builds_one_power_table(self, monkeypatch):
        """A constant generator's row never steps the RK4 kernel: the
        generator is not evaluated, and its table takes at most
        2 ceil(log2 N) + 2 matrix products, at N and at 2N points."""
        import backflow_lab.phase_diagram as pd
        import backflow_lab.propagation as propagation

        samples, products = [], []
        real_build_model = pd.build_model

        def counting_model(name, params):
            model = real_build_model(name, params)
            gen = model.tcl_generator

            def evaluate(t):
                samples.append(t)
                return gen.evaluate(t)

            return dataclasses.replace(model, tcl_generator=dataclasses.replace(gen, evaluate=evaluate))

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def matmul(self, *args, **kwargs):
                products.append(1)
                return np.matmul(*args, **kwargs)

        monkeypatch.setattr(pd, "build_model", counting_model)
        monkeypatch.setattr(propagation, "_rk4_tcl", lambda *args: pytest.fail("RK4 step kernel ran"))
        monkeypatch.setattr(propagation, "np", CountingNumpy())
        for t_max in (3.0, 6.0):
            spec = SweepSpec(
                model="amplitude_damping_qubit", axes=(("gamma", 0.5, 1.0, 2),), dt=1e-2, t_max=t_max, measures=("rel_entropy",)
            )
            n = TimeGrid.uniform(spec.dt, spec.t_max).n
            for params in spec.lattice():
                samples.clear()
                products.clear()
                row = pd._sweep_point(
                    (spec.model, params, spec.dt, spec.t_max, spec.measures, spec.epsilon_n, spec.rate_tolerance)
                )
                assert row["error"] == "" and row["divisible"] is True
                assert len(samples) <= 1
                assert 0 < len(products) <= 2 * math.ceil(math.log2(n)) + 2

    def test_constant_generator_sweep_reruns_byte_identical(self):
        base = dict(
            model="amplitude_damping_qubit",
            axes=(("gamma", 0.5, 2.0, 3),),
            fixed={"nbar": 0.2},
            dt=1e-3,
            t_max=2.0,
            measures=("rel_entropy",),
        )
        first = sweep_csv(run_sweep(SweepSpec(**base)))
        assert sweep_csv(run_sweep(SweepSpec(**base))) == first
        assert sweep_csv(run_sweep(SweepSpec(**base, threads=2))) == first
