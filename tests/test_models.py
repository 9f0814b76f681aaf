import math

import numpy as np
import pytest
from scipy.special import erfcx

from backflow_lab import (
    ContractViolationError,
    InvalidStateError,
    TimeGrid,
    backflow_functional,
    build_model,
    classical_exp_kernel,
    classical_fractional,
    dephasing_qubit,
    exp_kernel_difference_mode,
    exp_kernel_zero_crossing,
    fractional_two_state,
    markov_two_state,
    series_from_trajectory,
    solve_tc,
    trace_distance,
)
from backflow_lab import linalg
from backflow_lab.models import MODEL_REGISTRY, SIGMA_MINUS, SIGMA_PLUS, SIGMA_Z, amplitude_damping_qubit, model_schemas

QUARTER = TimeGrid(np.array([0.0, math.pi / 2]))  # holds t = 0 and t = pi/2


def b_qe(model, grid):
    """The intrinsic parameter |rho_01(t)|^2, read off the model's closed-form trajectory."""
    return np.abs(model.trajectory_fn(grid).states[:, 0, 1]) ** 2


class TestMarkovTwoState:
    def test_intrinsic_parameter_at_zero(self):
        model = markov_two_state(lam=1.0, omega=1.0)
        assert b_qe(model, QUARTER)[0] == 0.0

    def test_intrinsic_parameter_bounded(self):
        model = markov_two_state(lam=0.3, omega=2.0)
        ts = np.linspace(0.0, 20.0, 2001)
        b = b_qe(model, TimeGrid(ts))
        assert np.all(b >= 0.0) and np.all(b <= 0.25)

    def test_value_at_quarter_period(self):
        # squared-envelope convention: b(t) = (1/4) e^{-2 lam t} sin^2(omega t)
        model = markov_two_state(lam=1.0, omega=1.0)
        expected = 0.25 * math.exp(-math.pi)
        assert b_qe(model, QUARTER)[1] == pytest.approx(expected, abs=1e-12)

    def test_equilibrium_start_keeps_population_constant(self):
        model = markov_two_state(lam=1.0, omega=1.0, p0=0.4, p_eq=0.4)
        grid = TimeGrid.uniform(1e-2, 5.0)
        traj = model.trajectory_fn(grid)
        assert np.max(np.abs(traj.states[:, 0, 0].real - 0.4)) < 1e-12

    def test_deterministic(self):
        grid = TimeGrid.uniform(1e-2, 5.0)
        a = markov_two_state(lam=1.0, omega=3.0).trajectory_fn(grid)
        b = markov_two_state(lam=1.0, omega=3.0).trajectory_fn(grid)
        assert np.array_equal(a.states, b.states)

    def test_invalid_parameters(self):
        with pytest.raises(ContractViolationError):
            markov_two_state(lam=-1.0)
        with pytest.raises(ContractViolationError):
            markov_two_state(p0=1.5)
        with pytest.raises(ContractViolationError, match="lam must be a number"):
            markov_two_state(lam="x")


class TestFractionalTwoState:
    def test_reduces_to_markov_at_alpha_one(self):
        grid = TimeGrid.uniform(1e-3, 20.0)
        frac = fractional_two_state(alpha=1.0, lam=1.0, omega=5.0)
        markov = markov_two_state(lam=1.0, omega=5.0)
        sup = np.max(np.abs(frac.trajectory_fn(grid).states - markov.trajectory_fn(grid).states))
        assert sup <= 1e-10
        sup_b = np.max(np.abs(b_qe(frac, grid) - b_qe(markov, grid)))
        assert sup_b <= 1e-10

    def test_intrinsic_parameter_at_zero(self):
        model = fractional_two_state(alpha=0.6, lam=1.0, omega=1.0)
        assert b_qe(model, QUARTER)[0] == 0.0

    def test_half_alpha_value(self):
        # oracle: E_{1/2}(-sqrt(pi/2)) via the scaled complementary error function
        model = fractional_two_state(alpha=0.5, lam=1.0, omega=1.0)
        env = float(erfcx(math.sqrt(math.pi / 2)))
        expected = 0.25 * env**2
        got = b_qe(model, QUARTER)[1]
        assert got == pytest.approx(expected, abs=1e-9)

    def test_alpha_boundary_continuity(self):
        grid = TimeGrid.uniform(1e-2, 20.0)
        near = fractional_two_state(alpha=1.0 - 1e-6, lam=1.0, omega=2.0)
        at_one = fractional_two_state(alpha=1.0, lam=1.0, omega=2.0)
        sup = np.max(np.abs(near.trajectory_fn(grid).states - at_one.trajectory_fn(grid).states))
        assert sup <= 1e-3

    def test_invalid_alpha(self):
        with pytest.raises(ContractViolationError):
            fractional_two_state(alpha=1.5)


class TestClassicalExpKernel:
    @pytest.mark.parametrize("n, gamma, tau_m", [(2, 1.0, 0.5), (2, 0.83, 0.4371), (3, 2.7, 0.6)])
    def test_kernel_table_keeps_the_per_lag_bits(self, n, gamma, tau_m):
        """The one ``math.exp`` pass over the scaled lags equals the per-lag
        comprehension, bit for bit, on 16 001 lags."""
        taus = np.arange(16001) * 1e-3
        wb = np.ones((n, n)) - n * np.eye(n)
        want = np.array([(gamma / tau_m) * math.exp(-tau / tau_m) for tau in taus.tolist()])[:, None, None] * wb
        got = classical_exp_kernel(n=n, gamma=gamma, tau_m=tau_m).kernel.evaluate(taus)
        assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_embedding_matches_kernel_route(self):
        model = classical_exp_kernel(gamma=1.0, tau_m=1.0)
        grid = TimeGrid.uniform(1e-3, 5.0)
        tc = solve_tc(model.kernel, model.initial_state, grid)
        embedded = model.trajectory_fn(grid)
        assert np.max(np.abs(tc.states - embedded.states)) <= 1e-6

    def test_markov_limit(self):
        # tau_m -> 0 approaches the memoryless master equation for t >= 5 tau_m
        tau_m = 0.01
        model = classical_exp_kernel(gamma=1.0, tau_m=tau_m)
        grid = TimeGrid.uniform(5e-4, 3.0)
        traj = model.trajectory_fn(grid)
        markov = 0.5 * (1.0 + np.exp(-2.0 * grid.points))
        mask = grid.points >= 5 * tau_m
        assert np.max(np.abs(traj.states[mask, 0] - markov[mask])) <= 2e-2

    def test_underdamped_zero_crossing(self):
        model = classical_exp_kernel(gamma=1.0, tau_m=1.0)
        grid = TimeGrid.uniform(1e-3, 4.0)
        traj = model.trajectory_fn(grid)
        x = traj.states[:, 0] - traj.states[:, 1]
        crossing = grid.points[np.argmax(x < 0)]
        assert crossing == pytest.approx(exp_kernel_zero_crossing(1.0, 1.0), abs=2e-3)
        assert 8.0 * 1.0 * 1.0 > 1.0  # underdamped regime per the discriminant

    def test_overdamped_monotone_and_no_backflow(self):
        model = classical_exp_kernel(gamma=1.0, tau_m=0.05)
        assert exp_kernel_zero_crossing(1.0, 0.05) is None
        grid = TimeGrid.uniform(1e-3, 4.0)
        traj = model.trajectory_fn(grid)
        x = traj.states[:, 0] - traj.states[:, 1]
        assert np.all(x > 0.0) and np.all(np.diff(x) < 0.0)
        series = series_from_trajectory(traj, "kl", reference=model.reference_state)
        assert backflow_functional(series) <= 1e-8

    def test_difference_mode_solves_the_oscillator_equation(self):
        # x'' + x'/tau_m + (2 gamma/tau_m) x = 0, checked by finite differences
        gamma, tau_m = 0.7, 1.3
        ts = np.linspace(0.0, 5.0, 20001)
        h = ts[1] - ts[0]
        x = exp_kernel_difference_mode(gamma, tau_m, ts)
        xdd = (x[2:] - 2 * x[1:-1] + x[:-2]) / h**2
        xd = (x[2:] - x[:-2]) / (2 * h)
        residual = xdd + xd / tau_m + (2 * gamma / tau_m) * x[1:-1]
        assert np.max(np.abs(residual)) < 1e-5

    def test_three_state_symmetric(self):
        model = classical_exp_kernel(n=3, gamma=1.0, tau_m=0.5)
        grid = TimeGrid.uniform(1e-3, 2.0)
        traj = model.trajectory_fn(grid)
        assert traj.states.shape == (grid.n, 3)
        assert np.max(np.abs(model.reference_state.entries - 1.0 / 3.0)) < 1e-12

    @pytest.mark.parametrize("n", range(2, 17))
    def test_reference_is_exactly_uniform(self, n):
        model = classical_exp_kernel(n=n)
        assert np.array_equal(model.reference_state.entries, np.full(n, 1 / n))
        assert np.array_equal(model.initial_state.entries, np.eye(n)[0])


class TestClassicalFractional:
    def test_alpha_one_reduction(self):
        model = classical_fractional(gamma=1.0, alpha=1.0)
        grid = TimeGrid.uniform(1e-2, 10.0)
        traj = model.trajectory_fn(grid)
        x = traj.states[:, 0] - traj.states[:, 1]
        assert np.max(np.abs(x - np.exp(-grid.points))) <= 1e-10

    def test_half_alpha_value(self):
        model = classical_fractional(gamma=1.0, alpha=0.5)
        grid = TimeGrid.uniform(0.5, 2.0)
        traj = model.trajectory_fn(grid)
        x = traj.states[:, 0] - traj.states[:, 1]
        assert x[2] == pytest.approx(float(erfcx(1.0)), abs=1e-9)  # t = 1

    def test_completely_monotone_no_backflow(self):
        model = classical_fractional(gamma=1.0, alpha=0.6)
        grid = TimeGrid.uniform(1e-3, 20.0)
        traj = model.trajectory_fn(grid)
        series = series_from_trajectory(traj, "kl", reference=model.reference_state)
        assert backflow_functional(series) <= 1e-12

    def test_only_two_states_supported(self):
        with pytest.raises(ContractViolationError):
            classical_fractional(n=3)


class TestDephasingQubit:
    def test_constant_rate_coherence(self):
        model = dephasing_qubit(rate_kind="constant", lam=1.0)
        grid = TimeGrid.uniform(1e-3, 3.0)
        traj = model.trajectory_fn(grid)
        expected = 0.5 * np.exp(-grid.points)
        assert np.max(np.abs(traj.states[:, 0, 1] - expected)) < 1e-12

    def test_generator_route_matches_closed_form(self):
        from backflow_lab import solve_tcl

        model = dephasing_qubit(rate_kind="sinusoidal", lam=1.0, amplitude=0.5, frequency=1.0)
        grid = TimeGrid.uniform(1e-3, 5.0)
        via_gen = solve_tcl(model.tcl_generator, model.initial_state, grid)
        closed = model.trajectory_fn(grid)
        assert np.max(np.abs(via_gen.states - closed.states)) <= 1e-10

    def test_trace_distance_follows_decoherence_function(self):
        # distinguishability of the two x-eigenstate preparations decays as |f|
        model = dephasing_qubit(rate_kind="cosine_f", lam=1.0, mu=2.0)
        grid = TimeGrid.uniform(1e-2, 3.0)
        from backflow_lab import DensityMatrix

        plus = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
        minus = DensityMatrix(np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex))
        f = np.exp(-grid.points / 2.0) * np.cos(2.0 * grid.points)
        distances = []
        for k, fv in enumerate(f):
            rho_p = np.array([[0.5, 0.5 * fv], [0.5 * fv, 0.5]], dtype=complex)
            rho_m = np.array([[0.5, -0.5 * fv], [-0.5 * fv, 0.5]], dtype=complex)
            distances.append(trace_distance(DensityMatrix(rho_p), DensityMatrix(rho_m)))
        assert np.max(np.abs(np.array(distances) - np.abs(f))) < 1e-12
        # |f| is non-monotone, so distinguishability flows back
        rises = np.diff(np.abs(f))
        assert float(np.sum(rises[rises > 0])) > 0.1

    def test_only_the_constant_rate_gives_equal_samples(self):
        from backflow_lab.linalg import dissipator_superop
        from backflow_lab.models import SIGMA_Z

        ts = np.array([0.0, 1.3, 2.0])
        samples = dephasing_qubit(rate_kind="constant", lam=0.7).tcl_generator.evaluate(ts)
        want = 0.7 * dissipator_superop(SIGMA_Z / np.sqrt(2.0))
        assert samples.shape == (3, 4, 4) and np.array_equal(samples, np.broadcast_to(want, samples.shape))
        samples = dephasing_qubit(rate_kind="sinusoidal").tcl_generator.evaluate(ts)
        assert not np.array_equal(samples[1], samples[0])

    def test_cosine_f_has_no_generator_route(self):
        model = dephasing_qubit(rate_kind="cosine_f")
        assert model.tcl_generator is None

    def test_unknown_rate_kind(self):
        with pytest.raises(ContractViolationError):
            dephasing_qubit(rate_kind="nope")


class TestAmplitudeDamping:
    def test_generator_is_constant_matrix(self):
        samples = amplitude_damping_qubit(gamma=1.5, nbar=0.3).tcl_generator.evaluate(np.array([0.0, 2.0]))
        assert samples.shape == (2, 4, 4) and np.array_equal(samples[1], samples[0])

    def test_stationary_state_is_fixed_point(self):
        model = amplitude_damping_qubit(gamma=1.0, nbar=0.2)
        g = model.tcl_generator.evaluate(np.array([0.0]))[0]
        from backflow_lab.linalg import vectorize

        residual = g @ vectorize(model.reference_state.entries)
        assert np.max(np.abs(residual)) < 1e-12

    def test_relaxes_to_stationary(self):
        from backflow_lab import solve_tcl

        model = amplitude_damping_qubit(gamma=1.0, nbar=0.2)
        traj = solve_tcl(model.tcl_generator, model.initial_state, TimeGrid.uniform(1e-3, 16.0))
        assert np.max(np.abs(traj.states[-1] - model.reference_state.entries)) < 1e-5


class TestConstantDissipators:
    """The models' dissipators are built once, read-only, with the bits of
    a fresh build; building a model builds none."""

    def test_read_only_fresh_builds(self):
        import backflow_lab.models as models

        builds = [(models._D_MINUS, SIGMA_MINUS), (models._D_PLUS, SIGMA_PLUS), (models._D_DEPHASING, SIGMA_Z / np.sqrt(2.0))]
        for built, jump in builds:
            assert not built.flags.writeable
            assert np.array_equal(built.view(np.uint8), linalg.dissipator_superop(jump).view(np.uint8))

    def test_models_build_no_dissipator(self, monkeypatch):
        monkeypatch.setattr(linalg, "dissipator_superop", lambda jump: pytest.fail("a dissipator was built"))
        for rate_kind in ("constant", "sinusoidal"):
            build_model("dephasing_qubit", {"rate_kind": rate_kind}).tcl_generator.evaluate(np.array([0.0, 0.5]))
        g = amplitude_damping_qubit(gamma=1.5, nbar=0.3).tcl_generator.evaluate(np.array([0.0]))[0]
        monkeypatch.undo()
        want = 1.5 * (0.3 + 1.0) * linalg.dissipator_superop(SIGMA_MINUS)
        want = want + 1.5 * 0.3 * linalg.dissipator_superop(SIGMA_PLUS)
        assert np.array_equal(g.view(np.uint8), want.view(np.uint8))

    def test_overflowing_nbar_is_named(self):
        with pytest.raises(InvalidStateError, match="nbar.*trace"):
            build_model("amplitude_damping_qubit", {"nbar": 1e308})
        build_model("amplitude_damping_qubit", {"nbar": 8e307})  # 2 nbar + 1 is still finite


class TestRegistry:
    def test_build_by_name(self):
        model = build_model("markov_two_state", {"lam": 2.0})
        assert model.params["lam"] == 2.0

    def test_unknown_name_rejected(self):
        with pytest.raises(ContractViolationError):
            build_model("not_a_model")

    def test_schemas_cover_registry(self):
        schemas = model_schemas()
        assert set(schemas) == set(MODEL_REGISTRY)
        for name, entry in schemas.items():
            assert "params" in entry and "description" in entry


def psd_edge(p0, sign):
    """c0 = sign * sqrt(p0 (1 - p0)), the largest float of that size that
    meets the factory's bound c0^2 <= p0 (1 - p0)."""
    c0 = math.sqrt(p0 * (1.0 - p0))
    while c0 * c0 > p0 * (1.0 - p0):
        c0 = math.nextafter(c0, 0.0)
    return sign * c0


# every model at its defaults and at the schema edges of its state parameters
TRUSTED_CASES = [(name, {}) for name in sorted(MODEL_REGISTRY)]
TRUSTED_CASES += [
    (name, {key: edge})
    for name in ("markov_two_state", "fractional_two_state")
    for key in ("p0", "p_eq")
    for edge in (0.0, 1.0)
]
TRUSTED_CASES += [("amplitude_damping_qubit", {"p0": p0, "c0": 0.0}) for p0 in (0.0, 1.0)]
TRUSTED_CASES += [
    ("amplitude_damping_qubit", {"p0": p0, "c0": psd_edge(p0, sign)}) for p0 in (0.3, 0.5, 0.7) for sign in (1, -1)
]
TRUSTED_CASES += [("amplitude_damping_qubit", {"nbar": 0.0}), ("classical_exp_kernel", {"n": 16})]


class TestTrustedStates:
    """A model's constant states skip the state check; they must be what
    the checked constructors make of the same entries."""

    @pytest.mark.parametrize("name, params", TRUSTED_CASES)
    def test_equal_to_the_checked_states(self, name, params):
        model = build_model(name, params)
        for state in (model.initial_state, model.reference_state):
            checked = type(state)(state.entries.tolist())
            assert state.entries.dtype == checked.entries.dtype and state.entries.shape == checked.entries.shape
            assert state.entries.tobytes() == checked.entries.tobytes()
            assert not state.entries.flags.writeable and state.entries.flags.c_contiguous
            assert state.dim == checked.dim

    def test_coherence_past_the_bound_raises_before_any_state(self, monkeypatch):
        import backflow_lab.models as models

        made = []
        monkeypatch.setattr(models, "_constant", lambda cls, entries: made.append(cls))
        c0 = math.nextafter(psd_edge(0.3, 1), 1.0)
        with pytest.raises(ContractViolationError, match="PSD bound"):
            build_model("amplitude_damping_qubit", {"p0": 0.3, "c0": c0})
        assert made == []

    def test_overflowing_thermal_weights_still_checked(self):
        """2 nbar + 1 overflows for nbar near the float maximum: the
        reference state then has zero trace, and the checked constructor
        rejects it as before."""
        with pytest.raises(InvalidStateError, match="trace"):
            build_model("amplitude_damping_qubit", {"nbar": 1e308})
