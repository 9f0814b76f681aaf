import dataclasses

import numpy as np
import pytest

import backflow_lab.analysis as analysis
import backflow_lab.propagation as propagation
from backflow_lab import ConfigError, TimeGrid
from backflow_lab.generator_analysis import SampledGenerator, check_divisible, extract_tcl_generator
from backflow_lab.models import build_model

GRID = TimeGrid.uniform(1e-2, 2.0)


def kernel_only(model):
    """The model with its closed forms taken away: the tc route is left."""
    return dataclasses.replace(model, trajectory_fn=None, propagator_fn=None)


class TestPropagate:
    @pytest.mark.parametrize(
        "name, route, trajectory_solver",
        [
            ("markov_two_state", "closed_form", None),
            ("dephasing_qubit", "closed_form", None),
            ("classical_exp_kernel", "closed_form", None),
            ("amplitude_damping_qubit", "tcl", "solve_tcl"),
        ],
    )
    def test_auto_is_first_offered_route(self, name, route, trajectory_solver):
        model = build_model(name, {})
        auto, _ = analysis.propagate(model, GRID, "auto", propagator=False)
        explicit, _ = analysis.propagate(model, GRID, route, propagator=False)
        assert np.array_equal(auto.states, explicit.states)
        if trajectory_solver is not None:
            solver = getattr(propagation, trajectory_solver)
            direct = solver(model.tcl_generator, model.initial_state, GRID)
            assert np.array_equal(auto.states, direct.states)

    def test_auto_falls_back_to_the_kernel(self):
        model = kernel_only(build_model("classical_exp_kernel", {"tau_m": 0.5}))
        traj, family = analysis.propagate(model, GRID)
        assert np.array_equal(traj.states, propagation.solve_tc(model.kernel, model.initial_state, GRID).states)
        assert np.array_equal(family.maps, propagation.build_propagator(model.kernel, GRID).maps)

    @pytest.mark.parametrize("route", ["bogus", "embedding", "", None, 3])
    def test_unknown_route(self, route):
        with pytest.raises(ConfigError, match="unknown route"):
            analysis.propagate(build_model("dephasing_qubit", {}), GRID, route)

    @pytest.mark.parametrize(
        "name, route",
        [
            ("amplitude_damping_qubit", "closed_form"),
            ("amplitude_damping_qubit", "tc"),
            ("markov_two_state", "tcl"),
            ("dephasing_qubit", "tc"),
            ("classical_exp_kernel", "tcl"),
        ],
    )
    def test_route_the_model_lacks(self, name, route):
        with pytest.raises(ConfigError, match=f"has no {route} route"):
            analysis.propagate(build_model(name, {}), GRID, route)

    def test_model_without_any_route(self):
        model = dataclasses.replace(build_model("markov_two_state", {}), trajectory_fn=None)
        with pytest.raises(ConfigError, match="offers no route"):
            analysis.propagate(model, GRID)

    @pytest.mark.parametrize("route", ["closed_form", "tcl"])
    def test_parts_not_asked_for_are_none(self, route):
        model = build_model("dephasing_qubit", {"rate_kind": "sinusoidal"})
        traj, family = analysis.propagate(model, GRID, route, trajectory=False)
        assert traj is None and family is not None
        traj, family = analysis.propagate(model, GRID, route, propagator=False)
        assert traj is not None and family is None

    def test_closed_form_without_propagator(self):
        traj, family = analysis.propagate(build_model("fractional_two_state", {}), GRID)
        assert traj is not None and family is None

    @pytest.mark.parametrize("name", ["amplitude_damping_qubit", "dephasing_qubit"])
    def test_tcl_route_takes_one_rk4_pass_for_both(self, monkeypatch, name):
        """One family gives both parts: one RK4 power table for the constant
        generator, one blocked prefix product for the time-dependent one."""
        model = build_model(name, {"rate_kind": "sinusoidal"} if name == "dephasing_qubit" else {})
        passes = []
        prefix, table = propagation._prefix_product, propagation.rk4_power_table

        def counting_prefix(*args):
            passes.append("prefix")
            return prefix(*args)

        def counting_table(*args):
            passes.append("table")
            return table(*args)

        monkeypatch.setattr(propagation, "_prefix_product", counting_prefix)
        monkeypatch.setattr(propagation, "rk4_power_table", counting_table)
        traj, family = analysis.propagate(model, GRID, "tcl")
        assert passes == (["table"] if name == "amplitude_damping_qubit" else ["prefix"])
        gen = model.tcl_generator
        assert np.array_equal(traj.states, propagation.solve_tcl(gen, model.initial_state, GRID).states)
        assert np.array_equal(family.maps, propagation.build_propagator(gen, GRID).maps)


class TestAnalyze:
    def test_classical_split_is_all_classical(self):
        model = build_model("classical_exp_kernel", {"tau_m": 0.5})
        report = analysis.analyze(model, GRID, "auto", ["kl"], 1e-6, 1e-7)
        assert report.split.n_qe == 0.0
        assert report.split.n_cl == report.split.n_total == report.backflow["kl"]
        assert report.split_errors[1] == 0.0
        assert report.divisibility is not None and report.gaps == report.divisibility.gaps

    def test_closed_form_only_model_has_no_divisibility(self):
        model = build_model("markov_two_state", {})
        report = analysis.analyze(model, GRID, "auto", (), 1e-6, 1e-7)
        assert report.divisibility is None and report.gaps == ()
        assert report.backflow == {}
        assert report.split.regime in ("monotone", "classical_overshoot", "intrinsic_revival", "hybrid")

    @pytest.mark.parametrize(
        "name, params, route, generator_of",
        [
            ("classical_exp_kernel", {"tau_m": 0.5}, "closed_form", lambda m, g: extract_tcl_generator(m.propagator_fn(g))),
            (
                "classical_exp_kernel",
                {"tau_m": 0.5},
                "tc",
                lambda m, g: extract_tcl_generator(propagation.build_propagator(m.kernel, g)),
            ),
            ("dephasing_qubit", {"rate_kind": "sinusoidal"}, "closed_form", lambda m, g: extract_tcl_generator(m.propagator_fn(g))),
            # on tcl the generator is the input: the route's own samples
            (
                "dephasing_qubit",
                {"rate_kind": "sinusoidal"},
                "tcl",
                lambda m, g: SampledGenerator(g, propagation.generator_samples(m.tcl_generator, g), "quantum", 2),
            ),
        ],
    )
    def test_divisibility_follows_the_route(self, name, params, route, generator_of):
        model = build_model(name, params)
        report = analysis.analyze(model, GRID, route, [], 1e-6, 1e-7).divisibility
        want = check_divisible(generator_of(model, GRID), 1e-7)
        assert np.array_equal(report.rate_traces, want.rate_traces, equal_nan=True)
        assert report.to_json_dict() == want.to_json_dict()


class TestTclGeneratorIsTheInput:
    """On the tcl route the divisibility test reads the model's own
    generator: no family is inverted, so the exact rates are tested."""

    @pytest.mark.parametrize("gamma, t_max", [(2.0, 6.0), (1.0, 20.0)])
    def test_constant_gksl_generator_is_divisible(self, gamma, t_max):
        model = build_model("amplitude_damping_qubit", {"gamma": gamma})
        report = analysis.analyze(model, TimeGrid.uniform(1e-3, t_max), "tcl", [], 1e-6, 1e-7).divisibility
        assert report.divisible and report.first_violation_time is None
        assert report.gaps == ()
        assert abs(report.min_rate) <= 1e-15

    def test_no_family_is_built_for_the_generator(self, monkeypatch):
        model = build_model("dephasing_qubit", {"rate_kind": "sinusoidal"})
        monkeypatch.setattr(analysis, "build_propagator", lambda *args: pytest.fail("family built"))
        monkeypatch.setattr(analysis, "extract_tcl_generator", lambda *args: pytest.fail("generator extracted"))
        traj, gen = analysis.sampled_generator(model, GRID, "tcl")
        assert traj is None and gen.gaps == ()
        want = propagation.generator_samples(model.tcl_generator, GRID)
        assert np.array_equal(gen.samples, want)
