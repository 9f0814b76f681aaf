import math

import numpy as np
import pytest
from scipy.linalg import expm

from backflow_lab import (
    ContractViolationError,
    DensityMatrix,
    MemoryKernel,
    ProbabilityVector,
    TclGenerator,
    TimeGrid,
    build_propagator,
    solve_tc,
    solve_tcl,
)
from backflow_lab.linalg import dissipator_superop, trace_row
from backflow_lab.models import SIGMA_MINUS, SIGMA_Z, exp_kernel_difference_mode
from backflow_lab.propagation import apply_family

W_SYM = np.array([[-1.0, 1.0], [1.0, -1.0]])


def constant_quantum_generator(matrix):
    return TclGenerator(dim=2, kind="quantum", evaluate=lambda t: matrix)


def constant_classical_generator(w):
    return TclGenerator(dim=w.shape[0], kind="classical", evaluate=lambda t: w)


class TestSolveTcl:
    def test_zero_generator_constant(self):
        gen = constant_quantum_generator(np.zeros((4, 4), dtype=complex))
        rho0 = DensityMatrix(np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex))
        traj = solve_tcl(gen, rho0, TimeGrid.uniform(0.01, 1.0))
        assert np.max(np.abs(traj.states - rho0.entries)) < 1e-14

    def test_two_state_closed_form(self):
        # p1(t) = (1 + exp(-2t))/2 for W = [[-1,1],[1,-1]], p0 = (1, 0)
        gen = constant_classical_generator(W_SYM)
        traj = solve_tcl(gen, ProbabilityVector([1.0, 0.0]), TimeGrid.uniform(1e-3, 2.0))
        idx = int(round(1.0 / 1e-3))  # t = 1.0
        assert traj.states[idx, 0] == pytest.approx(0.5676676416183064, abs=1e-10)

    def test_dephasing_coherence_decay(self):
        gen = constant_quantum_generator(dissipator_superop(SIGMA_Z / np.sqrt(2)))
        rho0 = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
        grid = TimeGrid.uniform(1e-3, 3.0)
        traj = solve_tcl(gen, rho0, grid)
        expected = 0.5 * np.exp(-grid.points)
        assert np.max(np.abs(traj.states[:, 0, 1] - expected)) < 1e-10

    def test_invalid_generator_sample_rejected(self):
        gen = TclGenerator(dim=2, kind="quantum", evaluate=lambda t: np.eye(4, dtype=complex))
        rho0 = DensityMatrix(np.eye(2, dtype=complex) / 2)
        with pytest.raises(ContractViolationError):
            solve_tcl(gen, rho0, TimeGrid.uniform(0.1, 1.0))

    def test_dimension_mismatch(self):
        gen = constant_classical_generator(W_SYM)
        with pytest.raises(ContractViolationError):
            solve_tcl(gen, ProbabilityVector([1.0, 0.0, 0.0]), TimeGrid.uniform(0.1, 1.0))


class TestSolveTc:
    def test_zero_kernel_constant(self):
        kernel = MemoryKernel(
            dim=2, kind="classical", evaluate=lambda tau: np.zeros((2, 2)), decay_scale=1.0
        )
        traj = solve_tc(kernel, ProbabilityVector([0.4, 0.6]), TimeGrid.uniform(0.01, 1.0))
        assert np.max(np.abs(traj.states - [0.4, 0.6])) < 1e-14

    def test_exponential_kernel_closed_form(self):
        gamma, tau_m = 1.0, 1.0
        kernel = MemoryKernel(
            dim=2,
            kind="classical",
            evaluate=lambda tau: (gamma / tau_m) * math.exp(-tau / tau_m) * W_SYM,
            decay_scale=tau_m,
        )
        grid = TimeGrid.uniform(1e-3, 3.0)
        traj = solve_tc(kernel, ProbabilityVector([1.0, 0.0]), grid)
        x = traj.states[:, 0] - traj.states[:, 1]
        x_exact = exp_kernel_difference_mode(gamma, tau_m, grid.points)
        assert np.max(np.abs(x - x_exact)) < 5e-6
        # zero crossing lands within one step of the closed-form root
        t_star = (math.pi - math.atan(math.sqrt(7.0))) / (math.sqrt(7.0) / 2.0)
        crossing = grid.points[np.argmax(x < 0)]
        assert abs(crossing - t_star) <= 2e-3

    def test_matches_markovian_embedding(self):
        from backflow_lab.models import classical_exp_kernel

        model = classical_exp_kernel(gamma=1.0, tau_m=1.0)
        grid = TimeGrid.uniform(1e-3, 5.0)
        tc = solve_tc(model.kernel, model.initial_state, grid)
        embedded = model.trajectory_fn(grid)
        assert np.max(np.abs(tc.states - embedded.states)) <= 1e-6

    def test_coarse_grid_warns(self):
        kernel = MemoryKernel(
            dim=2, kind="classical", evaluate=lambda tau: math.exp(-tau / 0.1) * W_SYM, decay_scale=0.1
        )
        with pytest.warns(UserWarning):
            solve_tc(kernel, ProbabilityVector([1.0, 0.0]), TimeGrid.uniform(0.02, 0.5))


class TestConvergenceOrder:
    def test_tcl_fourth_order(self):
        gen = constant_classical_generator(W_SYM)
        p0 = ProbabilityVector([1.0, 0.0])

        def error(dt):
            grid = TimeGrid.uniform(dt, 1.0)
            traj = solve_tcl(gen, p0, grid)
            ref = 0.5 * (1.0 + np.exp(-2.0 * grid.points))
            return np.max(np.abs(traj.states[:, 0] - ref))

        # compare against a dt/8-level reference by using the analytic solution
        assert error(0.02) / error(0.01) >= 3.5

    def test_tc_second_order(self):
        kernel = MemoryKernel(
            dim=2,
            kind="classical",
            evaluate=lambda tau: math.exp(-tau) * W_SYM,
            decay_scale=1.0,
        )
        p0 = ProbabilityVector([1.0, 0.0])

        def error(dt):
            grid = TimeGrid.uniform(dt, 2.0)
            traj = solve_tc(kernel, p0, grid)
            x = traj.states[:, 0] - traj.states[:, 1]
            return np.max(np.abs(x - exp_kernel_difference_mode(1.0, 1.0, grid.points)))

        assert error(0.02) / error(0.01) >= 3.5


class TestBuildPropagator:
    def test_zero_generator_identity_family(self):
        gen = constant_quantum_generator(np.zeros((4, 4), dtype=complex))
        family = build_propagator(gen, TimeGrid.uniform(0.1, 1.0))
        assert np.max(np.abs(family.maps - np.eye(4))) < 1e-14

    def test_constant_gksl_matches_expm(self):
        g = dissipator_superop(SIGMA_MINUS) + 0.3 * dissipator_superop(SIGMA_Z / np.sqrt(2))
        gen = constant_quantum_generator(g)
        grid = TimeGrid.uniform(1e-3, 2.0)
        family = build_propagator(gen, grid)
        for t_probe in (0.5, 1.0, 2.0):
            i = int(round(t_probe / 1e-3))
            oracle = expm(t_probe * g)
            assert np.max(np.abs(family.maps[i] - oracle)) <= 1e-7

    def test_classical_columns_stochastic(self):
        gen = constant_classical_generator(W_SYM)
        family = build_propagator(gen, TimeGrid.uniform(1e-3, 2.0))
        colsums = family.maps.sum(axis=1)
        assert np.max(np.abs(colsums - 1.0)) <= 1e-9

    def test_composition_on_constant_generator(self):
        g = dissipator_superop(SIGMA_MINUS)
        gen = constant_quantum_generator(g)
        grid = TimeGrid.uniform(1e-3, 2.0)
        family = build_propagator(gen, grid)
        for s in (0.5, 1.0):
            i_s = int(round(s / 1e-3))
            for t in (1.5, 2.0):
                i_t = int(round(t / 1e-3))
                i_d = int(round((t - s) / 1e-3))
                lhs = family.maps[i_t]
                rhs = family.maps[i_d] @ family.maps[i_s]
                assert np.max(np.abs(lhs - rhs)) <= 1e-7

    def test_apply_family_equals_direct_solve(self):
        g = dissipator_superop(SIGMA_MINUS)
        gen = constant_quantum_generator(g)
        grid = TimeGrid.uniform(1e-3, 1.0)
        family = build_propagator(gen, grid)
        rho0 = DensityMatrix(np.array([[0.2, 0.1j], [-0.1j, 0.8]], dtype=complex))
        via_family = apply_family(family, rho0)
        direct = solve_tcl(gen, rho0, grid)
        assert np.max(np.abs(via_family.states - direct.states)) < 1e-9

    def test_family_trace_preservation_checked(self):
        assert np.max(np.abs(trace_row(2) @ np.eye(4) - trace_row(2))) == 0.0


class TestGridCost:
    def test_solve_tcl_grid_diffs_do_not_grow_with_n(self, monkeypatch):
        """TimeGrid differences its points once, at construction: the number
        of np.diff calls made inside the states module while building a grid
        and solving on it is the same at N and 2N."""
        import backflow_lab.states as states_module

        calls = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def diff(self, *args, **kwargs):
                calls.append(1)
                return np.diff(*args, **kwargs)

        monkeypatch.setattr(states_module, "np", CountingNumpy())
        gen = constant_quantum_generator(dissipator_superop(SIGMA_MINUS))
        rho0 = DensityMatrix(np.array([[0.3, 0.2], [0.2, 0.7]], dtype=complex))
        counts = []
        for t_max in (1.0, 2.0):
            calls.clear()
            solve_tcl(gen, rho0, TimeGrid.uniform(1e-2, t_max))
            counts.append(len(calls))
        assert counts[0] == counts[1]
