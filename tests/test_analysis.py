import dataclasses
import math

import numpy as np
import pytest

import backflow_lab.analysis as analysis
import backflow_lab.propagation as propagation
from backflow_lab import ConfigError, TimeGrid
from backflow_lab.generator_analysis import SampledGenerator, check_divisible, extract_tcl_generator
from backflow_lab.information import backflow_functional
from backflow_lab.models import MODEL_REGISTRY, build_model

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
        auto, _ = analysis.propagate(model, GRID, "auto", generator=False)
        explicit, _ = analysis.propagate(model, GRID, route, generator=False)
        assert np.array_equal(auto.states, explicit.states)
        if trajectory_solver is not None:
            solver = getattr(propagation, trajectory_solver)
            direct = solver(model.tcl_generator, model.initial_state, GRID)
            assert np.array_equal(auto.states, direct.states)

    def test_auto_falls_back_to_the_kernel(self):
        model = kernel_only(build_model("classical_exp_kernel", {"tau_m": 0.5}))
        family = propagation.build_propagator(model.kernel, GRID)
        traj, gen = analysis.propagate(model, GRID)
        assert np.array_equal(traj.states, propagation.apply_family(family, model.initial_state).states)
        assert np.array_equal(gen.samples, extract_tcl_generator(family).samples)
        alone, _ = analysis.propagate(model, GRID, generator=False)
        assert np.array_equal(alone.states, propagation.solve_tc(model.kernel, model.initial_state, GRID).states)

    @pytest.mark.parametrize(
        "name, params", [("classical_exp_kernel", {"tau_m": 0.5}), ("dephasing_qubit", {"rate_kind": "cosine_f"})]
    )
    def test_closed_form_reuses_the_family_for_both(self, name, params):
        """With the generator asked for, the closed-form trajectory is the
        family applied to the initial state, with the bits of the model's
        own trajectory_fn, which is not called."""
        model = build_model(name, params)
        family = model.propagator_fn(GRID)
        own = model.trajectory_fn(GRID)
        model = dataclasses.replace(model, trajectory_fn=lambda grid: pytest.fail("trajectory_fn called"))
        traj, gen = analysis.propagate(model, GRID, "closed_form")
        assert np.array_equal(traj.states, propagation.apply_family(family, model.initial_state).states)
        assert np.array_equal(traj.states, own.states)
        assert np.array_equal(gen.samples, extract_tcl_generator(family).samples)

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
        traj, gen = analysis.propagate(model, GRID, route, trajectory=False)
        assert traj is None and gen is not None
        traj, gen = analysis.propagate(model, GRID, route, generator=False)
        assert traj is not None and gen is None

    def test_closed_form_without_propagator(self):
        traj, gen = analysis.propagate(build_model("fractional_two_state", {}), GRID)
        assert traj is not None and gen is None

    @pytest.mark.parametrize("name", ["amplitude_damping_qubit", "dephasing_qubit"])
    def test_tcl_route_takes_one_rk4_pass_for_both(self, monkeypatch, name):
        """One evaluation gives both parts: one RK4 power table for the
        constant generator, one blocked prefix product for the
        time-dependent one, and the generator is the samples of that pass."""
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
        traj, gen = analysis.propagate(model, GRID, "tcl")
        assert passes == (["table"] if name == "amplitude_damping_qubit" else ["prefix"])
        source = model.tcl_generator
        assert np.array_equal(traj.states, propagation.solve_tcl(source, model.initial_state, GRID).states)
        assert np.array_equal(gen.samples, propagation.tcl_pass(source, GRID)[1])
        alone, _ = analysis.propagate(model, GRID, "tcl", generator=False)
        assert np.array_equal(alone.states, traj.states)

    @pytest.mark.parametrize("name", ["amplitude_damping_qubit", "dephasing_qubit"])
    def test_tcl_generator_is_the_checked_one(self, name):
        """The tcl route's generator skips the constructor's check; it
        equals the checked generator of the same samples, and the broadcast
        table of the constant generator stays one row in memory."""
        model = build_model(name, {"rate_kind": "sinusoidal"} if name == "dephasing_qubit" else {})
        _, gen = analysis.propagate(model, GRID, "tcl", trajectory=False)
        checked = SampledGenerator(GRID, gen.samples, gen.kind, gen.dim)
        assert gen.samples.dtype == checked.samples.dtype and np.array_equal(gen.samples, checked.samples)
        assert (gen.grid, gen.kind, gen.dim, gen.gaps, gen.matrix_dim) == (
            checked.grid, checked.kind, checked.dim, checked.gaps, checked.matrix_dim
        )
        assert not gen.samples.flags.writeable
        assert (gen.samples.strides[0] == 0) == (name == "amplitude_damping_qubit")

    @pytest.mark.parametrize("name", ["amplitude_damping_qubit", "dephasing_qubit"])
    def test_tcl_analyze_builds_no_family(self, monkeypatch, name):
        """On tcl, analyze constructs no PropagatorFamily, and every block it
        hands to the RK4 pass, and the pass to its solver, is one column."""
        model = build_model(name, {"rate_kind": "sinusoidal"} if name == "dephasing_qubit" else {})
        monkeypatch.setattr(propagation.PropagatorFamily, "__post_init__", lambda self: pytest.fail("family built"))
        blocks = []

        def recording(fn, position):
            return lambda *args: blocks.append(args[position]) or fn(*args)

        monkeypatch.setattr(analysis, "tcl_pass", recording(analysis.tcl_pass, 2))
        for attr in ("rk4_power_table", "_prefix_product"):
            monkeypatch.setattr(propagation, attr, recording(getattr(propagation, attr), 1))
        analysis.analyze(model, GRID, "tcl", ["rel_entropy"], 1e-6, 1e-7)
        assert len(blocks) == 2
        assert all(y0.shape in ((4,), (4, 1)) for y0 in blocks)


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
                lambda m, g: SampledGenerator(g, propagation.tcl_pass(m.tcl_generator, g)[1], "quantum", 2),
            ),
        ],
    )
    def test_divisibility_follows_the_route(self, name, params, route, generator_of):
        model = build_model(name, params)
        report = analysis.analyze(model, GRID, route, [], 1e-6, 1e-7).divisibility
        want = check_divisible(generator_of(model, GRID), 1e-7)
        assert np.array_equal(report.rate_traces, want.rate_traces, equal_nan=True)
        assert report.to_json_dict() == want.to_json_dict()


def half_grid_reference(series):
    """|N(h) - N(2h)| summed as the sector split once did: every other
    point, each with its own skip flag."""
    from backflow_lab.information import _backflow

    half = _backflow(series.values[::2], series.skipped()[::2], series.measure_tag)
    return abs(backflow_functional(series) - half)


class TestPointSeries:
    @pytest.mark.parametrize(
        "name, params, measures, split_tags",
        [
            ("amplitude_damping_qubit", {}, ["rel_entropy", "vn_entropy"], {"s_cl", "s_qe"}),
            ("fractional_two_state", {"alpha": 0.6}, ["s_cl", "s_qe"], {"s_cl", "s_qe"}),
            ("markov_two_state", {}, [], {"s_cl", "s_qe"}),
            ("classical_exp_kernel", {"tau_m": 0.5}, ["kl"], {"kl"}),
            ("classical_exp_kernel", {"tau_m": 0.5}, [], {"kl"}),
        ],
    )
    def test_one_table_of_the_measures_and_the_split_series(self, name, params, measures, split_tags):
        report = analysis.analyze(build_model(name, params), GRID, "auto", measures, 1e-6, 1e-7)
        assert type(report.series) is dict
        assert set(report.series) == set(measures) | split_tags
        assert list(report.backflow) == measures
        for tag in measures:
            assert report.backflow[tag] == backflow_functional(report.series[tag])
        for tag, series in report.series.items():
            assert series.measure_tag == tag and series.skip_intervals == tuple(report.gaps)

    @pytest.mark.parametrize(
        "name, params, measures, sectors",
        [
            ("fractional_two_state", {"alpha": 0.6}, ["s_cl", "s_qe"], ("s_cl", "s_qe")),
            ("classical_exp_kernel", {"tau_m": 0.5}, ["kl"], ("kl",)),
        ],
    )
    def test_split_errors_are_the_sectors_half_grid_errors(self, name, params, measures, sectors):
        report = analysis.analyze(build_model(name, params), GRID, "auto", measures, 1e-6, 1e-7)
        want = tuple(half_grid_reference(report.series[tag]) for tag in sectors) + (0.0,) * (2 - len(sectors))
        assert report.split_errors == want

    @pytest.mark.parametrize("dt, parity", [(1 / 128, 0), (1 / 126, 1)], ids=["even-gaps", "odd-gaps"])
    def test_half_grid_error_keeps_each_points_skip_flag(self, dt, parity):
        """cos(pi t) vanishes at t = 0.5, 1.5, 2.5: generator gaps at even
        grid indices (kept by the half grid, still skipped) or at odd ones
        (dropped from it)."""
        model = build_model("dephasing_qubit", {"rate_kind": "cosine_f", "mu": math.pi})
        grid = TimeGrid.uniform(dt, 3.0)
        report = analysis.analyze(model, grid, "auto", ["vn_entropy", "rel_entropy"], 1e-6, 1e-7)
        assert len(report.gaps) == 3
        for tag, series in report.series.items():
            skipped = np.flatnonzero(series.skipped())
            assert skipped.size == 3 and np.all(skipped % 2 == parity)
            assert series.half_grid_error == half_grid_reference(series)
        assert report.split_errors == (report.series["s_cl"].half_grid_error, report.series["s_qe"].half_grid_error)


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
        monkeypatch.setattr(propagation, "_prefix_product", lambda *args: pytest.fail("family built"))
        monkeypatch.setattr(analysis, "extract_tcl_generator", lambda *args: pytest.fail("generator extracted"))
        traj, gen = analysis.propagate(model, GRID, "tcl", trajectory=False)
        assert traj is None and gen.gaps == ()
        want = propagation.tcl_pass(model.tcl_generator, GRID)[1]
        assert np.array_equal(gen.samples, want)

    def test_equal_rows_come_back_as_one_broadcast_row(self, monkeypatch):
        """A constant generator whose table is built row by row (constant
        ``dephasing_qubit``) comes back as one row broadcast, as a broadcast
        table does, so its divisibility decomposes one sample."""
        import backflow_lab.generator_analysis as ga

        model = build_model("dephasing_qubit", {"rate_kind": "constant", "lam": 1.3})
        table = model.tcl_generator.evaluate(GRID.points)
        assert table.strides[0] != 0
        _, gen = analysis.propagate(model, GRID, "tcl", trajectory=False)
        assert gen.samples.strides[0] == 0 and np.array_equal(gen.samples, table)
        decomposed = []
        kossakowski = ga._kossakowski
        monkeypatch.setattr(ga, "_kossakowski", lambda s, d: decomposed.append(len(s)) or kossakowski(s, d))
        assert check_divisible(gen).divisible and decomposed == [1]


# every built-in model, with each decoherence choice of dephasing_qubit
BUILT_IN = [(name, {}) for name in sorted(MODEL_REGISTRY) if name != "dephasing_qubit"] + [
    ("dephasing_qubit", {"rate_kind": kind}) for kind in ("constant", "sinusoidal", "cosine_f")
]


def offered_routes(model):
    sources = (model.trajectory_fn, model.tcl_generator, model.kernel)
    return [route for route, source in zip(analysis.ROUTES, sources) if source is not None]


class TestOneSolvePerPoint:
    """One analyze runs each part of the route once: at most one numerical
    solve (a Volterra solve, an RK4 power table or a blocked prefix product)
    and at most one call of each closed form."""

    @pytest.mark.parametrize(
        "name, params, route",
        [(n, p, r) for n, p in BUILT_IN for r in offered_routes(build_model(n, p))],
        ids=lambda value: value.get("rate_kind", "defaults") if isinstance(value, dict) else value,
    )
    def test_at_most_one_solve(self, monkeypatch, name, params, route):
        import backflow_lab.models as models

        calls = []

        def counting(label, fn):
            return lambda *args: calls.append(label) or fn(*args)

        for module, attr in (
            (propagation, "volterra_propagate"),
            (propagation, "rk4_power_table"),
            (propagation, "_prefix_product"),
            (models, "rk4_power_table"),
        ):
            monkeypatch.setattr(module, attr, counting("solve", getattr(module, attr)))
        model = build_model(name, params)
        closed = {
            field: counting(field, getattr(model, field))
            for field in ("trajectory_fn", "propagator_fn")
            if getattr(model, field) is not None
        }
        model = dataclasses.replace(model, **closed)
        measures = ["kl"] if model.kind == "classical" else ["rel_entropy"]
        analysis.analyze(model, GRID, route, measures, 1e-6, 1e-7)
        # closed forms solve nothing, except the embedding's power table
        solves = 0 if route == "closed_form" and name != "classical_exp_kernel" else 1
        assert calls.count("solve") == solves
        assert calls.count("trajectory_fn") <= 1 and calls.count("propagator_fn") <= 1

    def test_tc_trajectory_is_the_family_applied(self):
        """On tc with the generator asked for, the trajectory is the family
        applied to the initial state, within 1e-14 of the one-column solve."""
        model = build_model("classical_exp_kernel", {"tau_m": 0.5})
        grid = TimeGrid.uniform(1e-3, 16.0)
        traj, _ = analysis.propagate(model, grid, "tc")
        alone, none = analysis.propagate(model, grid, "tc", generator=False)
        assert none is None
        assert np.array_equal(alone.states, propagation.solve_tc(model.kernel, model.initial_state, grid).states)
        assert np.max(np.abs(traj.states - alone.states)) <= 1e-14
