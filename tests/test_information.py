import math

import numpy as np
import pytest

from backflow_lab import (
    ContractViolationError,
    DensityMatrix,
    InfoSeries,
    InvalidStateError,
    ProbabilityVector,
    TimeGrid,
    backflow_functional,
    kl_divergence,
    relative_entropy,
    series_from_trajectory,
    solve_tcl,
    trace_distance,
    von_neumann_entropy,
)
from backflow_lab.information import relative_entropies
from backflow_lab.models import amplitude_damping_qubit
from backflow_lab.propagation import TclGenerator
from backflow_lab.states import Trajectory

from _oracles import (
    constant,
    entropy_scalar,
    kl_divergence_oracle,
    kl_scalar,
    positive_variation,
    random_density_matrix,
    relative_entropy_oracle,
    relative_entropy_overlap_oracle,
    trace_distance_oracle,
    two_state_split,
    von_neumann_entropy_oracle,
)


def diag_state(*populations):
    return DensityMatrix(np.diag(populations).astype(complex))


class TestVonNeumannEntropy:
    def test_pure_state(self):
        psi = np.array([1.0, 1.0]) / np.sqrt(2)
        rho = DensityMatrix(np.outer(psi, psi).astype(complex))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(diag_state(0.5, 0.5)) == pytest.approx(math.log(2), abs=1e-14)

    def test_value_from_scalar_formula(self):
        oracle = entropy_scalar([0.9, 0.1])
        assert oracle == pytest.approx(0.3250829733914482, abs=1e-12)
        assert von_neumann_entropy(diag_state(0.9, 0.1)) == pytest.approx(oracle, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = random_density_matrix(3, rng)
            s = von_neumann_entropy(rho)
            assert 0.0 <= s <= math.log(3) + 1e-12


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rng = np.random.default_rng(4)
        rho = random_density_matrix(2, rng)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_diagonal_matches_kl(self):
        oracle = kl_scalar([0.9, 0.1], [0.5, 0.5])
        assert oracle == pytest.approx(0.3680642071684971, abs=1e-12)
        d = relative_entropy(diag_state(0.9, 0.1), diag_state(0.5, 0.5))
        assert d == pytest.approx(oracle, abs=1e-12)

    def test_pure_vs_maximally_mixed(self):
        rho = DensityMatrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
        d = relative_entropy(rho, diag_state(0.5, 0.5))
        assert d == pytest.approx(math.log(2), abs=1e-12)

    def test_support_mismatch_infinite(self):
        rho = diag_state(0.5, 0.5)
        sigma = DensityMatrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
        assert relative_entropy(rho, sigma) == float("inf")


class TestKlDivergence:
    def test_self(self):
        p = ProbabilityVector([0.3, 0.7])
        assert kl_divergence(p, p) == 0.0

    def test_value(self):
        d = kl_divergence(ProbabilityVector([0.9, 0.1]), ProbabilityVector([0.5, 0.5]))
        assert d == pytest.approx(0.3680642071684971, abs=1e-12)

    def test_deterministic_vs_uniform(self):
        d = kl_divergence(ProbabilityVector([1.0, 0.0]), ProbabilityVector([0.5, 0.5]))
        assert d == pytest.approx(math.log(2), abs=1e-14)

    def test_support_mismatch(self):
        d = kl_divergence(ProbabilityVector([0.5, 0.5]), ProbabilityVector([1.0, 0.0]))
        assert d == float("inf")

    def test_agrees_with_quantum_on_diagonals(self):
        pairs = [((0.9, 0.1), (0.5, 0.5)), ((0.3, 0.7), (0.6, 0.4))]
        for p, q in pairs:
            dq = relative_entropy(diag_state(*p), diag_state(*q))
            dc = kl_divergence(ProbabilityVector(list(p)), ProbabilityVector(list(q)))
            assert dq == pytest.approx(dc, abs=1e-12)


class TestTraceDistance:
    def test_self(self):
        rho = diag_state(0.4, 0.6)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        a = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        b = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_value(self):
        d = trace_distance(diag_state(0.9, 0.1), diag_state(0.5, 0.5))
        assert d == pytest.approx(0.4, abs=1e-14)


class TestInfoSeries:
    def test_constant_trajectory_constant_entropy(self):
        grid = TimeGrid.uniform(0.1, 1.0)
        states = np.array([np.diag([0.7, 0.3])] * grid.n, dtype=complex)
        traj = Trajectory(grid, states, "quantum")
        series = series_from_trajectory(traj, "vn_entropy")
        assert np.max(np.abs(series.values - series.values[0])) < 1e-14
        assert series.skip_intervals == ()

    def test_missing_reference_rejected(self):
        grid = TimeGrid.uniform(0.1, 1.0)
        states = np.array([[1.0, 0.0]] * grid.n)
        traj = Trajectory(grid, states, "classical")
        with pytest.raises(ContractViolationError):
            series_from_trajectory(traj, "kl")

    def test_markov_decay_kl_strictly_decreasing(self):
        w = np.array([[-1.0, 1.0], [1.0, -1.0]])
        gen = TclGenerator(dim=2, kind="classical", evaluate=constant(w))
        traj = solve_tcl(gen, ProbabilityVector([1.0, 0.0]), TimeGrid.uniform(1e-2, 3.0))
        series = series_from_trajectory(traj, "kl", reference=ProbabilityVector([0.5, 0.5]))
        assert np.all(np.diff(series.values) < 0)

    def test_infinite_values_auto_skipped(self):
        grid = TimeGrid.uniform(0.1, 1.0)
        states = np.array([np.diag([0.7, 0.3])] * grid.n, dtype=complex)
        traj = Trajectory(grid, states, "quantum")
        sigma = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        series = series_from_trajectory(traj, "rel_entropy", reference=sigma)
        assert series.has_infinite()
        assert np.all(series.skipped())

    def test_one_skip_interval_per_run(self):
        """Non-finite values are encoded as one skip interval per run; the
        mask is the per-point one, and passed intervals are kept."""
        grid = TimeGrid.uniform(0.01, 3.0)
        rng = np.random.default_rng(4)
        x = np.where(rng.random(grid.n) < 0.3, 0.0, 0.2)
        x[:7] = 0.2  # a run at the first point
        x[-5:] = 0.2  # and one at the last
        traj = Trajectory(grid, np.stack([1.0 - x, x], axis=1), "classical")
        given = ((1.0, 1.2),)
        series = series_from_trajectory(traj, "kl", ProbabilityVector([1.0, 0.0]), skip_intervals=given)
        bad = ~np.isfinite(series.values)
        runs = int(np.sum(np.diff(bad.astype(int), prepend=0) == 1))
        assert bad[0] and bad[-1] and runs > 10
        assert series.skip_intervals[: len(given)] == given
        assert len(series.skip_intervals) == len(given) + runs
        assert np.array_equal(series.skipped(), bad | grid.within(given))
        per_point = grid.within([(t - 0.005, t + 0.005) for t in grid.points[bad]])
        assert np.array_equal(grid.within(series.skip_intervals[len(given) :]), per_point)

    def test_all_infinite_series_is_one_interval(self):
        grid = TimeGrid.uniform(1e-3, 20.0)
        traj = Trajectory(grid, np.tile([0.5, 0.5], (grid.n, 1)), "classical")
        series = series_from_trajectory(traj, "kl", ProbabilityVector([1.0, 0.0]))
        assert series.skip_intervals == ((0.0, grid.t_max),)
        assert np.all(series.skipped())

    def test_tail_residual(self):
        grid = TimeGrid.uniform(0.5, 2.0)
        series = InfoSeries(grid, np.array([3.0, 1.0, 2.0, 2.5, 2.2]), "vn_entropy")
        assert series.tail_residual() == pytest.approx(1.2)

    def test_nonfinite_outside_skip_rejected(self):
        grid = TimeGrid.uniform(0.5, 1.0)
        with pytest.raises(ContractViolationError):
            InfoSeries(grid, np.array([1.0, np.inf, 0.5]), "kl")


class TestBackflowFunctional:
    def test_monotone_decreasing_is_zero(self):
        grid = TimeGrid.uniform(0.1, 2.0)
        series = InfoSeries(grid, np.exp(-grid.points), "vn_entropy")
        assert backflow_functional(series) == 0.0

    def test_sin_squared_rise(self):
        grid = TimeGrid.uniform(math.pi / 1000, math.pi)
        series = InfoSeries(grid, np.sin(grid.points) ** 2, "vn_entropy")
        assert backflow_functional(series) == pytest.approx(1.0, abs=2e-3)

    def test_skip_interval_masks_the_rise(self):
        grid = TimeGrid.uniform(0.1, 2.0)
        vals = np.where(grid.points < 1.0, 1.0 - grid.points, grid.points)
        series = InfoSeries(grid, vals, "vn_entropy", skip_intervals=((0.95, 2.0),))
        assert backflow_functional(series) == 0.0

    def test_constant_shift_invariance(self):
        grid = TimeGrid.uniform(0.05, 2.0)
        vals = np.sin(grid.points * 3.0) * np.exp(-grid.points)
        a = backflow_functional(InfoSeries(grid, vals, "vn_entropy"))
        b = backflow_functional(InfoSeries(grid, vals + 17.3, "vn_entropy"))
        assert a == pytest.approx(b, abs=1e-12)

    def test_window_additivity(self):
        grid = TimeGrid.uniform(0.01, 4.0)
        vals = np.sin(grid.points * 5.0) * np.exp(-0.3 * grid.points)
        total = backflow_functional(InfoSeries(grid, vals, "vn_entropy"))
        mid = grid.n // 2  # t = 2.0 is a grid point
        left = positive_variation(vals[: mid + 1])
        right = positive_variation(vals[mid:])
        assert total == pytest.approx(left + right, abs=1e-12)

    def test_estimator_convergence_under_refinement(self):
        def n_at(dt):
            grid = TimeGrid.uniform(dt, 20.0)
            vals = 0.25 * np.exp(-grid.points) * np.sin(5 * grid.points) ** 2
            return backflow_functional(InfoSeries(grid, vals, "s_qe"))

        coarse, fine = n_at(1e-3), n_at(5e-4)
        assert abs(coarse - fine) / fine <= 0.01

    def test_infinite_skipped_values_raise_no_warning(self):
        """+inf values at skipped points (a support mismatch) leave the
        counted increments as they are, with no numpy warning."""
        import warnings

        from backflow_lab.models import markov_two_state

        model = markov_two_state(p0=0.5, p_eq=1.0)
        traj = model.trajectory_fn(TimeGrid.uniform(1e-2, 40.0))
        series = series_from_trajectory(traj, "rel_entropy", reference=model.reference_state)
        finite = np.isfinite(series.values)
        assert not finite[0] and finite[-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = backflow_functional(series)
        assert value == pytest.approx(positive_variation(series.values[finite]), abs=1e-15)

    def test_too_few_points_rejected(self):
        grid = TimeGrid.uniform(0.5, 1.0)
        series = InfoSeries(grid, np.array([1.0, 2.0, 3.0]), "kl", skip_intervals=((0.4, 1.1),))
        with pytest.raises(ContractViolationError):
            backflow_functional(series)


class TestDataProcessingRegression:
    def test_divisible_relative_entropy_never_rises(self):
        model = amplitude_damping_qubit(gamma=1.0, nbar=0.2)
        traj = solve_tcl(model.tcl_generator, model.initial_state, TimeGrid.uniform(1e-3, 6.0))
        series = series_from_trajectory(traj, "rel_entropy", reference=model.reference_state)
        assert np.max(np.diff(series.values)) <= 1e-8
        assert backflow_functional(series) <= 1e-8


TWO_LEVEL_MODELS = (
    "markov_two_state",
    "fractional_two_state",
    "dephasing_qubit",
    "amplitude_damping_qubit",
    "classical_exp_kernel",
    "classical_fractional",
)
QUANTUM_TAGS = ("vn_entropy", "rel_entropy", "trace_distance", "extended_entropy")
REFERENCE_TAGS = ("rel_entropy", "kl", "trace_distance")


def _model_trajectory(name, grid):
    from backflow_lab.models import build_model

    model = build_model(name, {})
    if model.trajectory_fn is not None:
        return model, model.trajectory_fn(grid)
    return model, solve_tcl(model.tcl_generator, model.initial_state, grid)


def _scalar_series(traj, tag, reference):
    """The per-state reference: one validated value object per grid point."""
    measure = {
        "vn_entropy": von_neumann_entropy_oracle,
        # the extended entropy of the purification is the state's own entropy
        "extended_entropy": von_neumann_entropy_oracle,
        "rel_entropy": lambda s: relative_entropy_oracle(s, reference),
        "trace_distance": lambda s: trace_distance_oracle(s, reference),
        "kl": lambda s: kl_divergence_oracle(s, reference),
    }[tag]
    value = DensityMatrix if traj.kind == "quantum" else ProbabilityVector
    return np.array([measure(value(state)) for state in traj.states])


def _random_quantum_trajectory(dim, n, rng, null_level=False):
    grid = TimeGrid.uniform(0.1, 0.1 * (n - 1))
    states = np.array([random_density_matrix(dim, rng).entries for _ in range(grid.n)])
    if null_level:  # every other state has no weight on the last level
        for i in range(0, grid.n, 2):
            states[i, -1, :] = 0.0
            states[i, :, -1] = 0.0
            states[i] /= np.trace(states[i]).real
    return Trajectory(grid, states, "quantum")


def _random_classical_trajectory(m, n, rng, null_entries=False):
    grid = TimeGrid.uniform(0.1, 0.1 * (n - 1))
    ps = rng.dirichlet(np.ones(m), size=grid.n)
    if null_entries:
        ps[::2, -2:] = 0.0
        ps /= ps.sum(axis=1, keepdims=True)
    return Trajectory(grid, ps, "classical")


class TestBatchedSeries:
    """series_from_trajectory computes each measure in one batched pass;
    the scalar measures are the per-point reference it must reproduce."""

    @pytest.mark.parametrize("name", TWO_LEVEL_MODELS)
    def test_exact_on_two_level_models(self, name):
        model, traj = _model_trajectory(name, TimeGrid.uniform(5e-3, 6.0))
        tags = ("kl",) if traj.kind == "classical" else QUANTUM_TAGS
        for tag in tags:
            reference = model.reference_state if tag in REFERENCE_TAGS else None
            series = series_from_trajectory(traj, tag, reference=reference)
            assert np.array_equal(series.values, _scalar_series(traj, tag, reference)), tag

    @pytest.mark.parametrize("name", TWO_LEVEL_MODELS[:4])
    def test_sector_series_match_scalar_split(self, name):
        _, traj = _model_trajectory(name, TimeGrid.uniform(5e-3, 6.0))
        s_cl = series_from_trajectory(traj, "s_cl").values
        s_qe = series_from_trajectory(traj, "s_qe").values
        split = []
        for rho in traj.states:
            p = rho[0, 0].real
            b = min(abs(rho[0, 1]) ** 2, p * (1.0 - p))
            split.append(two_state_split(p, b))
        split = np.array(split)
        assert np.array_equal(s_cl, split[:, 0])
        # the batched split takes 1/2 - r where the oracle takes
        # 1 - (1/2 + r), so the last bit may differ
        np.testing.assert_allclose(s_qe, split[:, 1], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", TWO_LEVEL_MODELS[:4])
    def test_extended_entropy_matches_thermofield_round_trip(self, name):
        from backflow_lab.netfd import extended_reduced_density, thermofield_vector

        _, traj = _model_trajectory(name, TimeGrid.uniform(2e-2, 6.0))
        series = series_from_trajectory(traj, "extended_entropy")
        round_trip = [
            von_neumann_entropy(extended_reduced_density(thermofield_vector(DensityMatrix(state))))
            for state in traj.states
        ]
        np.testing.assert_allclose(series.values, round_trip, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("null_level", [False, True])
    def test_random_three_level_quantum(self, null_level):
        rng = np.random.default_rng(31)
        traj = _random_quantum_trajectory(3, 60, rng, null_level)
        sigma = random_density_matrix(3, rng)
        if null_level:  # support mismatch on the odd points: +inf there
            sigma = DensityMatrix(np.diag([0.6, 0.4, 0.0]).astype(complex))
        for tag in QUANTUM_TAGS:
            reference = sigma if tag in ("rel_entropy", "trace_distance") else None
            values = series_from_trajectory(traj, tag, reference=reference).values
            expected = _scalar_series(traj, tag, reference)
            np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-12, err_msg=tag)
        if null_level:
            values = series_from_trajectory(traj, "rel_entropy", reference=sigma).values
            assert np.all(np.isinf(values[1::2])) and np.all(np.isfinite(values[::2]))

    @pytest.mark.parametrize("null_entries", [False, True])
    def test_random_four_state_classical(self, null_entries):
        rng = np.random.default_rng(32)
        traj = _random_classical_trajectory(4, 60, rng, null_entries)
        q = ProbabilityVector(rng.dirichlet(np.ones(4)))
        if null_entries:
            q = ProbabilityVector([0.5, 0.5, 0.0, 0.0])
        values = series_from_trajectory(traj, "kl", reference=q).values
        np.testing.assert_allclose(values, _scalar_series(traj, "kl", q), rtol=0.0, atol=1e-12)
        if null_entries:
            assert np.all(np.isinf(values[1::2])) and np.all(np.isfinite(values[::2]))

    def test_reference_of_wrong_kind_rejected(self):
        rng = np.random.default_rng(34)
        quantum = _random_quantum_trajectory(2, 10, rng)
        with pytest.raises(ContractViolationError):
            series_from_trajectory(quantum, "rel_entropy", reference=ProbabilityVector([0.5, 0.5]))
        with pytest.raises(ContractViolationError):
            series_from_trajectory(quantum, "trace_distance", reference=random_density_matrix(3, rng))


class TestSharedSpectrum:
    """The entropies read the spectrum of the trajectory check, and
    Tr(rho log sigma) is one contraction with log sigma."""

    @pytest.mark.parametrize("null_level", [False, True])
    def test_trace_form_matches_overlap_form(self, null_level):
        rng = np.random.default_rng(41)
        traj = _random_quantum_trajectory(3, 60, rng, null_level)
        sigma = random_density_matrix(3, rng)
        if null_level:  # support mismatch on the odd points
            sigma = DensityMatrix(np.diag([0.6, 0.4, 0.0]).astype(complex))
        values = relative_entropies(traj.states, traj.spectrum, sigma)
        overlap = np.array([relative_entropy_overlap_oracle(DensityMatrix(s), sigma) for s in traj.states])
        assert np.array_equal(np.isinf(values), np.isinf(overlap))
        np.testing.assert_allclose(values[np.isfinite(values)], overlap[np.isfinite(overlap)], rtol=0.0, atol=1e-12)
        if null_level:
            assert np.all(np.isinf(values[1::2])) and np.all(np.isfinite(values[::2]))

    @pytest.mark.parametrize("name", TWO_LEVEL_MODELS[:4])
    def test_trace_form_matches_overlap_form_on_two_level_models(self, name):
        model, traj = _model_trajectory(name, TimeGrid.uniform(5e-3, 6.0))
        sigma = model.reference_state
        values = series_from_trajectory(traj, "rel_entropy", reference=sigma).values
        overlap = np.array([relative_entropy_overlap_oracle(DensityMatrix(s), sigma) for s in traj.states])
        np.testing.assert_allclose(values, overlap, rtol=0.0, atol=1e-12)

    def test_scalar_measures_equal_the_batched_ones(self):
        rng = np.random.default_rng(42)
        traj = _random_quantum_trajectory(2, 40, rng)
        sigma = random_density_matrix(2, rng)
        scalar = {
            "vn_entropy": lambda rho: von_neumann_entropy(rho),
            "rel_entropy": lambda rho: relative_entropy(rho, sigma),
            "trace_distance": lambda rho: trace_distance(rho, sigma),
        }
        for tag, measure in scalar.items():
            reference = sigma if tag != "vn_entropy" else None
            values = series_from_trajectory(traj, tag, reference=reference).values
            assert np.array_equal(values, [measure(DensityMatrix(s)) for s in traj.states]), tag


class TestBatchedStateChecks:
    """The Trajectory constructor is the one check of the state set: it
    rejects each defect below in one batched pass over the stack, so no
    series needs to re-check the states."""

    @staticmethod
    def _quantum_states(defect):
        grid = TimeGrid.uniform(0.5, 1.0)
        states = np.array([np.diag([0.7, 0.3])] * grid.n, dtype=complex)
        if defect == "hermiticity":
            states[1, 0, 1] += 5e-12  # beyond the 1e-12 Hermiticity bound
        elif defect == "trace":
            states[1] *= 1.0 + 5e-9
        elif defect == "psd":
            states[1] = np.diag([1.0 + 5e-9, -5e-9])
        return grid, states

    @pytest.mark.parametrize("defect", ["hermiticity", "trace", "psd"])
    def test_quantum_defects(self, defect):
        grid, states = self._quantum_states(defect)
        with pytest.raises(InvalidStateError) as got:
            Trajectory(grid, states, "quantum")
        assert got.value.time == grid.points[1]

    def test_classical_sum_defect(self):
        grid = TimeGrid.uniform(0.5, 1.0)
        ps = np.array([[0.5, 0.5]] * grid.n)
        ps[1] = [0.5, 0.5 + 5e-9]
        with pytest.raises(InvalidStateError) as got:
            Trajectory(grid, ps, "classical")
        assert got.value.time == grid.points[1]

    @pytest.mark.parametrize("kind, dim", [("quantum", 9), ("classical", 17)])
    def test_dimension_cap(self, kind, dim):
        grid = TimeGrid.uniform(0.5, 1.0)
        if kind == "quantum":
            states = np.array([np.eye(dim) / dim] * grid.n, dtype=complex)
        else:
            states = np.full((grid.n, dim), 1.0 / dim)
        with pytest.raises(ContractViolationError, match="outside supported range"):
            Trajectory(grid, states, kind)

    def test_within_tolerance_passes(self):
        grid, states = self._quantum_states(None)
        traj = Trajectory(grid, states, "quantum")
        assert DensityMatrix(traj.states[1]).dim == 2
        series_from_trajectory(traj, "vn_entropy")
