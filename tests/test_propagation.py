import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from backflow_lab.errors import IntegrationDivergedError
from backflow_lab.linalg import commutator_superop, conservation_row, dissipator_superop
from backflow_lab.models import SIGMA_MINUS, SIGMA_Z, exp_kernel_difference_mode
from backflow_lab.propagation import PropagatorFamily, apply_family, tcl_pass
from _oracles import constant, pointwise, random_density_matrix

W_SYM = np.array([[-1.0, 1.0], [1.0, -1.0]])


def constant_quantum_generator(matrix):
    return TclGenerator(dim=2, kind="quantum", evaluate=constant(matrix))


def constant_classical_generator(w):
    return TclGenerator(dim=w.shape[0], kind="classical", evaluate=constant(w))


def samples_of(gen, grid):
    """G(t) on the grid from a pass without propagation."""
    return tcl_pass(gen, grid)[1]


def interleaved_times(grid):
    """The times one RK4 family is built from: t_0, t_0 + h/2, t_1, ..., t_{N-1}."""
    times = np.empty(2 * grid.n - 1)
    times[::2] = grid.points
    times[1::2] = grid.points[:-1] + 0.5 * grid.dt
    return times


def prefix_path_maps(gen, grid):
    """The batched step matrices and blocked prefix product, taken even when
    every sample is equal (where the propagator build takes the power table)."""
    from backflow_lab.propagation import _prefix_product, _rk4_steps

    samples = np.asarray(gen.evaluate(interleaved_times(grid)), dtype=complex if gen.kind == "quantum" else float)
    return _prefix_product(_rk4_steps(samples, grid.dt), np.eye(samples.shape[1]))


def lag_kernel(evaluate, dim=2, kind="classical", decay_scale=1.0):
    """A memory kernel whose table stacks ``evaluate(tau)`` lag by lag."""
    return MemoryKernel(
        dim=dim,
        kind=kind,
        evaluate=lambda taus: np.array([evaluate(tau) for tau in taus.tolist()]),
        decay_scale=decay_scale,
    )


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
        gen = constant_quantum_generator(np.eye(4, dtype=complex))
        rho0 = DensityMatrix(np.eye(2, dtype=complex) / 2)
        with pytest.raises(ContractViolationError):
            solve_tcl(gen, rho0, TimeGrid.uniform(0.1, 1.0))

    def test_dimension_mismatch(self):
        gen = constant_classical_generator(W_SYM)
        with pytest.raises(ContractViolationError):
            solve_tcl(gen, ProbabilityVector([1.0, 0.0, 0.0]), TimeGrid.uniform(0.1, 1.0))


class TestSolveTc:
    def test_zero_kernel_constant(self):
        kernel = lag_kernel(lambda tau: np.zeros((2, 2)))
        traj = solve_tc(kernel, ProbabilityVector([0.4, 0.6]), TimeGrid.uniform(0.01, 1.0))
        assert np.max(np.abs(traj.states - [0.4, 0.6])) < 1e-14

    def test_exponential_kernel_closed_form(self):
        gamma, tau_m = 1.0, 1.0
        kernel = lag_kernel(lambda tau: (gamma / tau_m) * math.exp(-tau / tau_m) * W_SYM, decay_scale=tau_m)
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
        kernel = lag_kernel(lambda tau: math.exp(-tau / 0.1) * W_SYM, decay_scale=0.1)
        with pytest.warns(UserWarning):
            solve_tc(kernel, ProbabilityVector([1.0, 0.0]), TimeGrid.uniform(0.02, 0.5))


def constant_two_state_error(dt):
    """Power-table path: p_0(t) = (1 + exp(-2t))/2 for W_SYM from (1, 0)."""
    grid = TimeGrid.uniform(dt, 1.0)
    traj = solve_tcl(constant_classical_generator(W_SYM), ProbabilityVector([1.0, 0.0]), grid)
    return np.max(np.abs(traj.states[:, 0] - 0.5 * (1.0 + np.exp(-2.0 * grid.points))))


def sinusoidal_dephasing_error(dt):
    """Blocked-prefix path: the coherence against its exact f(t)/2."""
    from backflow_lab.models import dephasing_qubit

    model = dephasing_qubit(rate_kind="sinusoidal", lam=0.4, amplitude=1.5, frequency=2.0)
    grid = TimeGrid.uniform(dt, 1.0)
    traj = solve_tcl(model.tcl_generator, model.initial_state, grid)
    return np.max(np.abs(traj.states[:, 0, 1] - 0.5 * model.propagator_fn(grid).maps[:, 1, 1]))


class TestConvergenceOrder:
    @pytest.mark.parametrize("error", [constant_two_state_error, sinusoidal_dephasing_error], ids=["constant", "sinusoidal"])
    def test_tcl_fourth_order(self, error):
        # observed order 4 against the analytic solution (measures 16.3
        # constant, 16.0 sinusoidal)
        assert error(0.02) / error(0.01) >= 14.0

    def test_tc_second_order(self):
        kernel = lag_kernel(lambda tau: math.exp(-tau) * W_SYM)
        p0 = ProbabilityVector([1.0, 0.0])

        def error(dt):
            grid = TimeGrid.uniform(dt, 2.0)
            traj = solve_tc(kernel, p0, grid)
            x = traj.states[:, 0] - traj.states[:, 1]
            return np.max(np.abs(x - exp_kernel_difference_mode(1.0, 1.0, grid.points)))

        # observed order 2 (measures 4.000)
        assert 3.8 <= error(0.02) / error(0.01) <= 4.2


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
        u = conservation_row("quantum", 2)
        assert np.max(np.abs(u @ np.eye(4) - u)) == 0.0


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

    def test_volterra_work_grows_near_linearly(self, monkeypatch):
        """Base-block solves plus FFT merges, and the total transformed
        length, grow at most 2.5x from N = 4001 to 8001 (the step loop's
        history work grew 4x)."""
        import backflow_lab.propagation as propagation
        from backflow_lab.models import classical_exp_kernel

        kernel = classical_exp_kernel(n=2, gamma=1.0, tau_m=0.5).kernel
        ops, lengths = [], []
        for t_max in (4.0, 8.0):
            counting = CountingFft()
            monkeypatch.setattr(propagation, "np", counting)
            propagation.volterra_propagate(kernel, np.array([1.0, 0.0]), TimeGrid.uniform(1e-3, t_max))
            ops.append(counting.dots + counting.inverse)
            lengths.append(sum(counting.lengths))
        assert ops[0] > 0 and lengths[0] > 0
        assert ops[1] <= 2.5 * ops[0]
        assert lengths[1] <= 2.5 * lengths[0]

    def test_merges_of_one_size_share_the_kernel_spectrum(self, monkeypatch):
        """The 16 001-point two-state kernel of cli-mixed: 249 merges of 12
        sizes. The kernel is transformed once per size (its operand has the
        lag table's trailing (dd, dd) shape; the states' is (dd, 1))."""
        import backflow_lab.propagation as propagation
        from backflow_lab.models import classical_exp_kernel
        from backflow_lab.propagation import _volterra_block

        kernel = classical_exp_kernel(n=2, gamma=1.0, tau_m=0.5).kernel
        grid = TimeGrid.uniform(1e-3, 16.0)
        sizes, merges = set(), []

        def split(lo, hi, block=_volterra_block(2)):  # the recursion of the solve
            if hi - lo > block:
                half = block
                while 2 * half < hi - lo:
                    half *= 2
                split(lo, lo + half)
                sizes.add(hi - lo)
                merges.append(hi - lo)
                split(lo + half, hi)

        split(0, grid.n - 1)
        assert (len(sizes), len(merges)) == (12, 249)
        counting = CountingFft()
        monkeypatch.setattr(propagation, "np", counting)
        propagation.volterra_propagate(kernel, np.array([1.0, 0.0]), grid)
        kernel_ffts = [shape for shape in counting.forward_shapes if shape == (2, 2)]
        assert 0 < len(kernel_ffts) <= len(sizes)
        assert counting.inverse == len(merges)

    def test_volterra_solve_leaves_no_reference_cycle(self):
        """The recursive solve's closures are released on return, so its
        tables are freed at once, not at the next cyclic collection."""
        import gc

        from backflow_lab.models import classical_exp_kernel
        from backflow_lab.propagation import volterra_propagate

        kernel = classical_exp_kernel(n=2, gamma=1.0, tau_m=0.5).kernel
        gc.collect()
        gc.disable()
        try:
            volterra_propagate(kernel, np.array([1.0, 0.0]), TimeGrid.uniform(1e-3, 2.0))
            assert gc.collect() == 0
        finally:
            gc.enable()


def volterra_reference(table: np.ndarray, y0: np.ndarray, h: float) -> np.ndarray:
    """The product-trapezoid step loop the block Toeplitz solve replaced:
    y_{n+1} = (I - h^2 K_0/4)^{-1} (y_n + (h/2) F_n + (h^2/2) S_n), with the
    history sum S_n over lags n..1 as one product of a contiguous slice of
    the reversed kernel table with the stored states; no divergence check."""
    n_pts, dd = table.shape[0], y0.shape[0]
    ys = np.empty((n_pts,) + y0.shape, dtype=complex)
    ys[0] = y0
    solve = np.linalg.inv(np.eye(dd) - (h * h / 4.0) * table[0])
    f_prev = np.zeros_like(ys[0])
    # rev[a, i, b] = K_{N-1-i}[a, b]: lags n..1 are the last n entries of axis 1
    rev = np.ascontiguousarray(table[:0:-1].transpose(1, 0, 2), dtype=complex)
    flat = ys.reshape((n_pts * dd,) + y0.shape[1:])
    for n in range(n_pts - 1):
        s = 0.5 * (table[n + 1] @ ys[0])
        if n >= 1:
            s = s + rev[:, n_pts - 1 - n :].reshape(dd, n * dd) @ flat[dd : (n + 1) * dd]
        ys[n + 1] = solve @ (ys[n] + 0.5 * h * f_prev + 0.5 * h * h * s)
        f_prev = h * (s + 0.5 * (table[0] @ ys[n + 1]))
    return ys


class TestVolterraHistorySum:
    def test_kernel_propagator_columns_match_solve_tc(self):
        from backflow_lab.models import classical_exp_kernel

        model = classical_exp_kernel(n=3, gamma=1.0, tau_m=0.5)
        grid = TimeGrid.uniform(1e-2, 4.0)
        family = build_propagator(model.kernel, grid)
        for i in range(3):
            traj = solve_tc(model.kernel, ProbabilityVector(np.eye(3)[i]), grid)
            assert np.max(np.abs(family.maps[:, :, i] - traj.states)) <= 1e-13

    def test_quantum_kernel_matches_einsum_reference(self):
        from backflow_lab.linalg import vectorize
        from backflow_lab.propagation import volterra_propagate

        kernel = quantum_kernel()
        grid = TimeGrid.uniform(1e-2, 3.0)
        table = kernel_samples(kernel, grid)
        rho0 = np.array([[0.3, 0.2 + 0.1j], [0.2 - 0.1j, 0.7]])
        for y0 in (vectorize(rho0), np.eye(4, dtype=complex)):
            got = volterra_propagate(kernel, y0, grid)
            want = volterra_reference(table, y0, grid.dt)
            assert np.max(np.abs(got - want)) <= 1e-13
        traj = solve_tc(kernel, DensityMatrix(rho0), grid)
        family = build_propagator(kernel, grid)
        assert np.max(np.abs(apply_family(family, DensityMatrix(rho0)).states - traj.states)) <= 1e-13


def quantum_kernel():
    g = (
        dissipator_superop(SIGMA_MINUS)
        + 0.4 * dissipator_superop(SIGMA_Z / np.sqrt(2))
        + commutator_superop(np.array([[0.5, 0.3 - 0.2j], [0.3 + 0.2j, -0.5]]))
    )
    # short memory (8 * rate * tau_m < 1) keeps the states positive
    return lag_kernel(lambda tau: 2.5 * math.exp(-tau / 0.2) * g, kind="quantum", decay_scale=0.2)


def volterra_cases():
    """(name, kernel, y0): vector and matrix initial values, real and complex."""
    from backflow_lab.linalg import vectorize
    from backflow_lab.models import classical_exp_kernel

    rho0 = vectorize(np.array([[0.3, 0.2 + 0.1j], [0.2 - 0.1j, 0.7]]))
    two = classical_exp_kernel(n=2, gamma=1.0, tau_m=0.5).kernel
    three = classical_exp_kernel(n=3, gamma=1.3, tau_m=0.4).kernel
    return [
        ("classical2_vector", two, np.array([1.0, 0.0])),
        ("classical2_matrix", two, np.eye(2)),
        ("classical3_vector", three, np.array([0.6, 0.3, 0.1])),
        ("classical3_matrix", three, np.eye(3)),
        ("quantum_vector", quantum_kernel(), rho0),
        ("quantum_matrix", quantum_kernel(), np.eye(4, dtype=complex)),
    ]


def kernel_samples(kernel, grid):
    return kernel.evaluate(np.arange(grid.n) * grid.dt)


class CountingFft:
    """Stands in for ``np`` inside the propagation module: records the
    length of every FFT and the trailing shape of each forward FFT's operand,
    and counts the base-block products (``np.dot``)."""

    def __init__(self):
        self.lengths = []
        self.forward_shapes = []
        self.inverse = 0
        self.dots = 0
        counter = self

        class Fft:
            def __getattr__(self, name):
                fn = getattr(np.fft, name)

                def counted(a, n=None, axis=-1, **kwargs):
                    counter.lengths.append(n)
                    counter.inverse += name.startswith(("irfft", "ifft"))
                    if not name.startswith(("irfft", "ifft")):
                        counter.forward_shapes.append(np.shape(a)[1:])
                    return fn(a, n, axis, **kwargs)

                return counted

        self.fft = Fft()

    def __getattr__(self, name):
        return getattr(np, name)

    def dot(self, *args, **kwargs):
        self.dots += 1
        return np.dot(*args, **kwargs)


class TestVolterraBlockSolve:
    """The causal block Toeplitz solve against the step loop it replaced."""

    @pytest.mark.parametrize("case", volterra_cases(), ids=lambda case: case[0])
    def test_matches_step_loop(self, case):
        from backflow_lab.propagation import _volterra_block, volterra_propagate

        _, kernel, y0 = case
        b = _volterra_block(kernel.matrix_dim)
        for n in (2, 3, b, b + 1, 2 * b + 1, 1001):
            grid = TimeGrid.uniform(1e-2, (n - 1) * 1e-2)
            assert grid.n == n
            got = volterra_propagate(kernel, y0, grid)
            assert got.shape == (n,) + y0.shape
            want = volterra_reference(kernel_samples(kernel, grid), y0, grid.dt)
            assert np.max(np.abs(got - want)) <= 1e-13, n

    def test_long_grid_matches_step_loop(self):
        from backflow_lab.propagation import volterra_propagate

        for _, kernel, y0 in (volterra_cases()[0], volterra_cases()[4]):
            grid = TimeGrid.uniform(1e-3, 16.0)
            assert grid.n == 16001
            got = volterra_propagate(kernel, y0, grid)
            want = volterra_reference(kernel_samples(kernel, grid), y0, grid.dt)
            assert np.max(np.abs(got - want)) <= 1e-11

    def test_odd_block_size_matches_step_loop(self):
        """A five-state kernel takes 51-step blocks, so the merges use
        transform lengths that are not powers of two."""
        from backflow_lab.models import classical_exp_kernel
        from backflow_lab.propagation import _volterra_block, volterra_propagate

        kernel = classical_exp_kernel(n=5, gamma=0.8, tau_m=0.6).kernel
        assert _volterra_block(5) == 51
        grid = TimeGrid.uniform(1e-2, 6.0)
        y0 = np.eye(5)
        want = volterra_reference(kernel_samples(kernel, grid), y0, grid.dt)
        assert np.max(np.abs(volterra_propagate(kernel, y0, grid) - want)) <= 1e-13

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("c, dt", [(-20.0, 1e-2), (-200.0, 1e-2), (-2000.0, 2e-3)])
    def test_exploding_kernel_diverges_near_reference_time(self, c, dt):
        """The step loop overflows in its history sum a little before the
        states do; the block solve scales its convolution operands, so it
        reports the first non-finite state no earlier and within 3%."""
        kernel = lag_kernel(lambda tau: c * math.exp(-tau) * W_SYM)
        grid = TimeGrid.uniform(dt, 800.0 / math.sqrt(-2.0 * c))
        y0 = np.array([1.0, 0.0])
        ref = volterra_reference(kernel_samples(kernel, grid), y0, grid.dt)
        finite = np.isfinite(ref).all(axis=1)
        assert not finite.all()
        t_ref = grid.points[np.argmin(finite)]
        with pytest.raises(IntegrationDivergedError) as got:
            solve_tc(kernel, ProbabilityVector([1.0, 0.0]), grid)
        assert t_ref <= got.value.time <= 1.03 * t_ref
        assert f"t={got.value.time:g}" in str(got.value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_block_divergence_raises_before_any_convolution(self, monkeypatch):
        import backflow_lab.propagation as propagation

        counting = CountingFft()
        monkeypatch.setattr(propagation, "np", counting)
        kernel = lag_kernel(lambda tau: -2000.0 * math.exp(-tau) * W_SYM)
        grid = TimeGrid.uniform(1e-2, 2.0)
        with pytest.raises(IntegrationDivergedError) as got:
            propagation.volterra_propagate(kernel, np.array([1e307, -1e307]), grid)
        assert got.value.time == grid.points[1]
        assert counting.lengths == []

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_divergence_inside_a_block_reported_causally(self):
        """Two huge kernel samples at lags 20h and 21h overflow the
        right-hand side at row 20 of the first block only; the states ahead
        of it stay finite, so the reported time is 21h, as in the loop."""
        grid = TimeGrid.uniform(1e-2, 2.0)

        def evaluate(tau):
            huge = round(tau / grid.dt) in (20, 21)
            return (1.5e308 if huge else math.exp(-tau)) * W_SYM

        kernel = lag_kernel(evaluate)
        ref = volterra_reference(kernel_samples(kernel, grid), np.array([1.0, 0.0]), grid.dt)
        t_ref = grid.points[np.argmin(np.isfinite(ref).all(axis=1))]
        assert t_ref == grid.points[21]
        with pytest.raises(IntegrationDivergedError) as got:
            solve_tc(kernel, ProbabilityVector([1.0, 0.0]), grid)
        assert got.value.time == t_ref

    @pytest.mark.parametrize("solve", ["volterra_propagate", "solve_tc", "build_propagator"])
    def test_singular_first_step_diverges_at_t1(self, solve):
        """A kernel so large that A_0 = I - (h^2/4) K_0 is singular in float
        cannot take the first step: the failure is named at t_1."""
        import backflow_lab.propagation as propagation
        from backflow_lab.models import classical_exp_kernel

        model = classical_exp_kernel(gamma=1e21)
        grid = TimeGrid.uniform(0.01, 1.0)
        args = {
            "volterra_propagate": (model.kernel, np.array([1.0, 0.0]), grid),
            "solve_tc": (model.kernel, model.initial_state, grid),
            "build_propagator": (model.kernel, grid),
        }[solve]
        with pytest.raises(IntegrationDivergedError, match="t=0.01") as got:
            getattr(propagation, solve)(*args)
        assert got.value.time == grid.points[1]

    def test_huge_states_do_not_overflow_the_merges(self):
        """The scheme is linear in y0: states of size 1e306 are 1e306 times
        the states of size 1, although an unscaled FFT over a block of 128
        of them would overflow."""
        from backflow_lab.propagation import volterra_propagate

        kernel = lag_kernel(lambda tau: 10.0 * math.exp(-tau / 0.1) * W_SYM, decay_scale=0.1)
        grid = TimeGrid.uniform(1e-3, 4.0)
        unit = volterra_propagate(kernel, np.array([1.0, 0.0]), grid)
        huge = volterra_propagate(kernel, np.array([1e306, 0.0]), grid)
        assert np.max(np.abs(huge / 1e306 - unit)) <= 1e-13

    def test_bad_kernel_sample_named_at_earliest_lag(self):
        grid = TimeGrid.uniform(1e-2, 2.0)
        p0 = ProbabilityVector([1.0, 0.0])

        def kernel(bad):
            def evaluate(tau):
                for lag, value in bad:
                    if abs(tau - lag) < 1e-9:
                        return value
                return math.exp(-tau) * W_SYM

            return lag_kernel(evaluate)

        nan, inf = np.full((2, 2), np.nan), np.full((2, 2), np.inf)
        broken = np.array([[-1.0, 1.0], [1.0, -0.5]])
        with pytest.raises(ContractViolationError, match="lag 0.5 is not finite"):
            solve_tc(kernel([(0.5, nan), (0.8, inf), (1.5, broken)]), p0, grid)
        with pytest.raises(ContractViolationError, match="lag 0.3 is not finite"):
            solve_tc(kernel([(0.8, nan), (0.3, inf)]), p0, grid)
        with pytest.raises(ContractViolationError, match="trace annihilation at lag 0.4 "):
            solve_tc(kernel([(0.4, broken), (0.9, broken), (1.2, nan)]), p0, grid)

    def test_kernel_trace_defect_is_judged_on_each_sample_scale(self):
        """A large sample elsewhere does not excuse a small sample's trace
        defect: the rule is the generator samples' max(1, max|K|) per lag."""
        grid = TimeGrid.uniform(1e-2, 2.0)
        broken = W_SYM + np.array([[0.0, 0.0], [0.0, 1e-8]])
        kernel = lag_kernel(lambda tau: 1e6 * W_SYM if tau == 0.0 else broken if abs(tau - 0.3) < 1e-9 else 0 * W_SYM)
        with pytest.raises(ContractViolationError, match="trace annihilation at lag 0.3 "):
            solve_tc(kernel, ProbabilityVector([1.0, 0.0]), grid)

    @pytest.mark.parametrize("scale", [np.nan, np.inf, 0.0, -1.0])
    def test_decay_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(ContractViolationError, match="decay_scale"):
            lag_kernel(lambda tau: W_SYM, decay_scale=scale)

    def test_wrong_shape_table_rejected_before_any_solve(self, monkeypatch):
        import backflow_lab.propagation as propagation

        monkeypatch.setattr(propagation, "_toeplitz_inverse", lambda lags: pytest.fail("solve started"))
        grid = TimeGrid.uniform(1e-2, 2.0)
        p0 = ProbabilityVector([1.0, 0.0])
        tables = {
            r"\(201, 3, 3\)": lambda taus: np.exp(-taus)[:, None, None] * np.zeros((3, 3)),
            r"\(200, 2, 2\)": lambda taus: np.exp(-taus[1:])[:, None, None] * W_SYM,
            r"\(201, 2\)": lambda taus: np.zeros((taus.size, 2)),
        }
        for shape, table in tables.items():
            kernel = MemoryKernel(dim=2, kind="classical", evaluate=table)
            with pytest.raises(ContractViolationError, match=rf"samples have shape {shape}, expected \(201, 2, 2\)"):
                solve_tc(kernel, p0, grid)

    @pytest.mark.parametrize("n, gamma, tau_m", [(2, 1.0, 0.5), (3, 1.3, 0.4), (5, 0.7, 2.5)])
    def test_batched_kernel_table_equals_per_lag_loop(self, n, gamma, tau_m):
        """The model's table takes math.exp lag by lag (np.exp differs from
        it in the last bit on some lags): its bytes equal a per-lag loop's."""
        from backflow_lab.models import classical_exp_kernel
        from backflow_lab.propagation import _kernel_table

        kernel = classical_exp_kernel(n=n, gamma=gamma, tau_m=tau_m).kernel
        grid = TimeGrid.uniform(1e-3, 16.0)
        w = np.ones((n, n)) - n * np.eye(n)
        looped = np.array([(gamma / tau_m) * math.exp(-(m * grid.dt) / tau_m) * w for m in range(grid.n)])
        table = _kernel_table(kernel, grid)
        assert table.dtype == looped.dtype
        assert table.tobytes() == looped.tobytes()

    def test_state_leaving_simplex_raises_one_class_on_both_routes(self):
        from backflow_lab.errors import InvalidStateError
        from backflow_lab.models import classical_exp_kernel

        model = classical_exp_kernel(n=3, gamma=2.0, tau_m=1.0)
        grid = TimeGrid.uniform(1e-3, 3.0)
        routes = {
            "tc": lambda: solve_tc(model.kernel, model.initial_state, grid),
            "closed_form": lambda: model.trajectory_fn(grid),
        }
        for route in routes.values():
            with pytest.raises(IntegrationDivergedError, match="negative probability at t=1.31") as got:
                route()
            assert got.value.time == grid.points[1310]
            assert isinstance(got.value.__cause__, InvalidStateError)

    @pytest.mark.parametrize("kind, dim, width", [("quantum", 2, 4), ("classical", 3, 3)])
    def test_non_finite_state_is_a_divergence_at_its_time(self, kind, dim, width):
        """A NaN entry passes the trace (sum) drift test, which compares
        false; the trajectory check names its time instead."""
        from backflow_lab.errors import InvalidStateError
        from backflow_lab.propagation import _finalize_trajectory

        grid = TimeGrid.uniform(0.1, 1.0)
        unit = conservation_row(kind, dim) / dim
        raw = np.tile(unit, (grid.n, 1)).astype(complex if kind == "quantum" else float)
        raw[6, width - 1] = np.nan
        raw[8, 0] = np.nan
        with pytest.raises(IntegrationDivergedError, match="non-finite") as got:
            _finalize_trajectory(raw, grid, kind, dim)
        assert got.value.time == grid.points[6]
        assert isinstance(got.value.__cause__, InvalidStateError)

    @pytest.mark.parametrize(
        "kind, dim, width, drift, what",
        [("quantum", 2, 4, 1e-6, "trace"), ("classical", 3, 3, 1e-5, "normalization")],
    )
    def test_non_finite_state_does_not_hide_an_earlier_drift(self, kind, dim, width, drift, what):
        """The drift is judged over the states ahead of the first non-finite
        sum: a drift there is named at its own time, while a non-finite state
        ahead of every drift is still named by the trajectory check."""
        from backflow_lab.errors import InvalidStateError
        from backflow_lab.propagation import _finalize_trajectory

        grid = TimeGrid.uniform(0.1, 1.0)
        unit = conservation_row(kind, dim) / dim
        raw = np.tile(unit, (grid.n, 1)).astype(complex if kind == "quantum" else float)
        raw[3] *= 1.0 + drift
        late_nan, early_nan = raw.copy(), raw.copy()
        late_nan[7, width - 1] = np.nan
        with pytest.raises(IntegrationDivergedError, match=f"{what} drifted to .* at t=0.3") as got:
            _finalize_trajectory(late_nan, grid, kind, dim)
        assert got.value.time == grid.points[3]
        early_nan[2, width - 1] = np.nan
        with pytest.raises(IntegrationDivergedError, match="non-finite") as got:
            _finalize_trajectory(early_nan, grid, kind, dim)
        assert got.value.time == grid.points[2]
        assert isinstance(got.value.__cause__, InvalidStateError)

    @settings(max_examples=12, deadline=None)
    @given(
        n=st.sampled_from([2, 3]),
        gamma=st.floats(0.2, 2.0),
        tau_m=st.floats(0.3, 1.5),
    )
    def test_tc_route_matches_markovian_embedding(self, n, gamma, tau_m):
        """Compared as propagator families: with strong memory a 3-state
        trajectory leaves the probability simplex (both routes reject it),
        while the columns stay comparable everywhere (worst 1.5e-6)."""
        from backflow_lab.models import classical_exp_kernel

        model = classical_exp_kernel(n=n, gamma=gamma, tau_m=tau_m)
        grid = TimeGrid.uniform(1e-3, 3.0)
        tc = build_propagator(model.kernel, grid)
        assert np.max(np.abs(tc.maps - model.propagator_fn(grid).maps)) <= 1e-5


def reference_trace_check(gen, m, t):
    """The per-sample trace-preservation rule the RK4 kernel batches."""
    dd = gen.matrix_dim
    if m.shape != (dd, dd):
        raise ContractViolationError(f"generator sample at t={t:g} has shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))))
    if gen.kind == "quantum":
        defect = float(np.max(np.abs(conservation_row("quantum", gen.dim) @ m)))
    else:
        defect = float(np.max(np.abs(m.sum(axis=0))))
    if defect > 1e-10 * scale:
        raise ContractViolationError(
            f"generator sample at t={t:g} violates trace preservation (defect {defect:.3e})"
        )


def rk4_two_loop_reference(gen, y0, grid, validate=True):
    """Per-step RK4 reference: one pass per operand (a state vector or the
    basis columns), a one-entry sample cache, on-grid samples checked as
    they are evaluated and a divergence check after every step."""
    h = grid.dt
    ts = grid.points
    cache = {}

    def apply_at(t, y):
        m = cache.get(t)
        if m is None:
            m = np.asarray(gen.evaluate(np.array([t]))[0])
            if validate and abs(t / h - round(t / h)) < 1e-9:
                reference_trace_check(gen, m, t)
            cache.clear()
            cache[t] = m
        return m @ y

    out = np.empty((grid.n,) + y0.shape, dtype=np.result_type(y0.dtype, np.float64))
    y = y0.astype(out.dtype, copy=True)
    out[0] = y
    for i in range(grid.n - 1):
        t = ts[i]
        k1 = apply_at(t, y)
        k2 = apply_at(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = apply_at(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = apply_at(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise IntegrationDivergedError(
                f"integration diverged at t={ts[i+1]:g}", time=float(ts[i + 1])
            )
        out[i + 1] = y
    return out


def classical_three_state_generator():
    base = np.array([[0.0, 0.7, 0.2], [0.5, 0.0, 0.9], [0.3, 0.4, 0.0]])
    freq = np.array([[0.0, 1.3, 0.7], [2.1, 0.0, 0.5], [0.9, 1.7, 0.0]])

    def evaluate(t):
        w = base * (1.0 + 0.6 * np.cos(freq * t))
        return w - np.diag(w.sum(axis=0))

    return TclGenerator(dim=3, kind="classical", evaluate=pointwise(evaluate))


def random_gksl_generator(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    ham = commutator_superop((a + a.conj().T) / 2.0)
    d1 = dissipator_superop(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    d2 = dissipator_superop(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    return TclGenerator(
        dim=3, kind="quantum", evaluate=pointwise(lambda t: ham + (1.0 + 0.5 * math.sin(3.0 * t)) * d1 + 0.3 * d2)
    )


def fused_cases():
    from backflow_lab.models import amplitude_damping_qubit, dephasing_qubit

    amp = amplitude_damping_qubit(gamma=1.3, nbar=0.2, p0=0.3, c0=0.35)
    deph = dephasing_qubit(rate_kind="sinusoidal", lam=0.4, amplitude=1.5, frequency=2.0)
    rng = np.random.default_rng(7)
    return [
        ("amplitude_damping", amp.tcl_generator, amp.initial_state, TimeGrid.uniform(1e-3, 4.0)),
        ("sinusoidal_dephasing", deph.tcl_generator, deph.initial_state, TimeGrid.uniform(1e-3, 4.0)),
        (
            "classical_three_state",
            classical_three_state_generator(),
            ProbabilityVector([0.6, 0.3, 0.1]),
            TimeGrid.uniform(1e-2, 6.0),
        ),
        ("random_gksl_d3", random_gksl_generator(rng), random_density_matrix(3, rng), TimeGrid.uniform(1e-2, 3.0)),
    ]


class TestFusedRk4:
    """The batched step matrices and blocked prefix product of a
    time-dependent generator, and the trajectories read off its family."""

    @pytest.mark.parametrize("case", fused_cases(), ids=lambda case: case[0])
    def test_maps_match_step_loop_reference(self, case):
        from backflow_lab.propagation import _finalize_trajectory, _initial_vector

        _, gen, initial, grid = case
        y0 = _initial_vector(initial, gen.kind, gen.dim)
        eye = np.eye(gen.matrix_dim, dtype=complex if gen.kind == "quantum" else float)
        want_maps = rk4_two_loop_reference(gen, eye, grid)
        want_states = _finalize_trajectory(np.einsum("nab,b->na", want_maps, y0), grid, gen.kind, gen.dim).states
        assert np.max(np.abs(prefix_path_maps(gen, grid) - want_maps)) <= 1e-12
        assert np.max(np.abs(build_propagator(gen, grid).maps - want_maps)) <= 1e-12
        assert np.max(np.abs(solve_tcl(gen, initial, grid).states - want_states)) <= 1e-12

    @staticmethod
    def corrupted_dephasing(bad_time, bad_sample):
        g = dissipator_superop(SIGMA_Z / np.sqrt(2))

        def evaluate(t):
            return bad_sample if abs(t - bad_time) < 1e-9 else g

        return TclGenerator(dim=2, kind="quantum", evaluate=pointwise(evaluate))

    @pytest.mark.parametrize("route", ["solve_tcl", "build_propagator"])
    def test_trace_breaking_sample_names_its_time(self, route):
        grid = TimeGrid.uniform(1e-2, 3.0)
        bad_time = 150 * grid.dt
        rho0 = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
        # a finite sample whose k4 product overflows: the state diverges at
        # the same grid time, and the sample must still be reported first
        gen = self.corrupted_dephasing(bad_time, np.full((4, 4), 1.7e308, dtype=complex))
        run = {
            "solve_tcl": lambda: solve_tcl(gen, rho0, grid),
            "build_propagator": lambda: build_propagator(gen, grid),
        }[route]
        with pytest.raises(ContractViolationError, match=f"t={bad_time:g} violates trace"):
            run()
        gen = self.corrupted_dephasing(bad_time, np.eye(4, dtype=complex) * 1e-3)
        with pytest.raises(ContractViolationError, match=f"t={bad_time:g} violates trace"):
            run()

    @staticmethod
    def exploding_rate(bad_after=None, bad=np.eye(2)):  # the default breaks trace preservation
        def evaluate(t):
            if bad_after is not None and t > bad_after:
                return bad
            return math.exp(6.0 * t) * W_SYM

        return TclGenerator(dim=2, kind="classical", evaluate=pointwise(evaluate))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_exploding_rate_diverges_at_reference_time(self):
        grid = TimeGrid.uniform(1e-2, 5.0)
        p0 = ProbabilityVector([1.0, 0.0])
        with pytest.raises(IntegrationDivergedError) as ref:
            rk4_two_loop_reference(self.exploding_rate(), p0.entries, grid)
        t_ref = ref.value.time
        assert 0.0 < t_ref < grid.t_max
        with pytest.raises(IntegrationDivergedError) as got:
            build_propagator(self.exploding_rate(), grid)
        assert abs(got.value.time - t_ref) <= 3 * grid.dt
        # a bad sample after the divergence, or one of another shape, leaves
        # the divergence reported
        for bad in (np.eye(2), np.zeros((3, 3))):
            with pytest.raises(IntegrationDivergedError) as late:
                solve_tcl(self.exploding_rate(bad_after=t_ref + 3.5 * grid.dt, bad=bad), p0, grid)
            assert late.value.time == got.value.time

    def test_wrong_shape_sample_raises_before_any_product(self, monkeypatch):
        import backflow_lab.propagation as propagation

        products = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def matmul(self, *args, **kwargs):
                products.append(1)
                return np.matmul(*args, **kwargs)

        monkeypatch.setattr(propagation, "np", CountingNumpy())
        rho0 = DensityMatrix(np.eye(2, dtype=complex) / 2)
        grid = TimeGrid.uniform(0.1, 1.0)
        gen = TclGenerator(dim=2, kind="quantum", evaluate=pointwise(lambda t: np.zeros((2, 2), dtype=complex)))
        with pytest.raises(ContractViolationError, match=r"t=0 has shape \(2, 2\)"):
            propagation.solve_tcl(gen, rho0, grid)
        assert products == []
        # a midpoint sample is checked too, before the K2 products use it
        g = np.zeros((4, 4), dtype=complex)
        gen = TclGenerator(dim=2, kind="quantum", evaluate=pointwise(lambda t: g if t == 0.0 else g[:3, :3]))
        with pytest.raises(ContractViolationError, match=r"t=0.05 has shape \(3, 3\)"):
            propagation.solve_tcl(gen, rho0, grid)
        assert products == []


def rk4_constant_loop(matrix, y0, grid):
    """The sequential RK4 that constant generators ran before the power
    table: the step matrix S (the degree-4 Taylor polynomial of exp(hA))
    applied once per step."""
    h = grid.dt
    a = np.asarray(matrix)
    eye = np.eye(a.shape[0], dtype=a.dtype)
    ha = h * a
    step = eye + ha @ (eye + ha @ (eye / 2.0 + ha @ (eye / 6.0 + ha / 24.0)))
    out = np.empty((grid.n,) + y0.shape, dtype=np.result_type(a.dtype, y0.dtype, np.float64))
    y = y0.astype(out.dtype, copy=True)
    out[0] = y
    for i in range(grid.n - 1):
        y = step @ y
        out[i + 1] = y
    return out


def batched_doubling(matrix, y0, grid):
    """The power table as it was filled before the 2-D layout: each doubling
    one batched product S^k out[:m] of (dd, dd) with (dd, c) blocks."""
    a = np.asarray(matrix)
    eye = np.eye(a.shape[0], dtype=a.dtype)
    ha = grid.dt * a
    power = eye + ha @ (eye + ha @ (eye / 2.0 + ha @ (eye / 6.0 + ha / 24.0)))
    out = np.empty((grid.n,) + y0.shape, dtype=np.result_type(a.dtype, y0.dtype, np.float64))
    out[0] = y0
    k = 1
    while k < grid.n:
        m = min(k, grid.n - k)
        np.matmul(power, out[:m], out=out[k : k + m])
        k += m
        if k < grid.n:
            power = np.matmul(power, power)
    return out


def unchecked_doubling(matrix, y0, grid):
    """The power table as :func:`propagation.rk4_power_table` fills it (each
    doubling one 2-D product of the transposed rows with (S^k)^T), with no
    finiteness check: every row is formed, finite or not."""
    a = np.asarray(matrix)
    dd = a.shape[0]
    eye = np.eye(dd, dtype=a.dtype)
    ha = grid.dt * a
    power = eye + np.matmul(ha, eye + np.matmul(ha, eye / 2.0 + np.matmul(ha, eye / 6.0 + ha / 24.0)))
    cols = y0.reshape(dd, -1)
    c = cols.shape[1]
    out = np.empty((grid.n, c, dd), dtype=np.result_type(a.dtype, y0.dtype, np.float64))
    out[0] = cols.T
    flat = out.reshape(grid.n * c, dd)
    k = 1
    while k < grid.n:
        m = min(k, grid.n - k)
        np.matmul(flat[: m * c], power.T, out=flat[k * c : (k + m) * c])
        k += m
        if k < grid.n:
            power = np.matmul(power, power)
    return out


def exp_kernel_embedding(n, gamma, tau_m):
    """The Markovian embedding of ``classical_exp_kernel`` and the columns
    (2n, n) its propagator family starts from."""
    embed = np.zeros((2 * n, 2 * n))
    embed[:n, n:] = np.eye(n)
    embed[n:, :n] = (gamma / tau_m) * (np.ones((n, n)) - n * np.eye(n))
    embed[n:, n:] = -np.eye(n) / tau_m
    columns = np.zeros((2 * n, n))
    columns[:n] = np.eye(n)
    return embed, columns


def constant_gksl_d3(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    g = commutator_superop((a + a.conj().T) / 2.0)
    for weight in (1.0, 0.3):
        g = g + weight * dissipator_superop(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    return TclGenerator(dim=3, kind="quantum", evaluate=constant(g))


class TestRk4PowerTable:
    def test_amplitude_damping_matches_prefix_of_equal_steps(self):
        from backflow_lab.models import amplitude_damping_qubit

        model = amplitude_damping_qubit(gamma=2.0, nbar=0.2)
        grid = TimeGrid.uniform(1e-3, 4.0)
        assert grid.n == 4001
        gen = model.tcl_generator
        family = build_propagator(gen, grid)
        want_family = PropagatorFamily(grid, prefix_path_maps(gen, grid), gen.kind, gen.dim)
        traj = solve_tcl(gen, model.initial_state, grid)
        want_traj = apply_family(want_family, model.initial_state)
        assert np.max(np.abs(family.maps - want_family.maps)) <= 1e-12
        assert np.max(np.abs(traj.states - want_traj.states)) <= 1e-12

    def test_embedding_matches_sequential_loop(self):
        from backflow_lab.models import classical_exp_kernel

        gamma, tau_m = 1.3, 0.4
        model = classical_exp_kernel(n=2, gamma=gamma, tau_m=tau_m)
        grid = TimeGrid.uniform(1e-3, 15.0)
        assert grid.n == 15001
        embed, columns = exp_kernel_embedding(2, gamma, tau_m)
        want_maps = rk4_constant_loop(embed, columns, grid)[:, :2, :]
        want_states = rk4_constant_loop(embed, np.array([1.0, 0.0, 0.0, 0.0]), grid)[:, :2]
        assert np.max(np.abs(model.propagator_fn(grid).maps - want_maps)) <= 1e-12
        assert np.max(np.abs(model.trajectory_fn(grid).states - want_states)) <= 1e-12

    def test_amplitude_damping_family_bits_equal_batched_doubling(self):
        """Each doubling as one 2-D product leaves the 4 x 4 family's bits
        as the batched (dd, dd) x (dd, dd) products left them."""
        from backflow_lab.models import amplitude_damping_qubit

        gen = amplitude_damping_qubit(gamma=2.0, nbar=0.2).tcl_generator
        grid = TimeGrid.uniform(1e-3, 4.0)
        want = batched_doubling(gen.evaluate(np.zeros(1))[0], np.eye(4, dtype=complex), grid)
        assert np.array_equal(build_propagator(gen, grid).maps, want)

    @pytest.mark.parametrize("n", [2, 5])
    def test_embedding_family_bits_equal_batched_doubling(self, n):
        """Up to dd = 10 the embedding's family keeps the batched doubling's
        bits."""
        from backflow_lab.models import classical_exp_kernel

        grid = TimeGrid.uniform(1e-3, 15.0)
        embed, columns = exp_kernel_embedding(n, 1.3, 0.5)
        want = batched_doubling(embed, columns, grid)[:, :n, :]
        assert np.array_equal(classical_exp_kernel(n=n, gamma=1.3, tau_m=0.5).propagator_fn(grid).maps, want)

    def test_large_embedding_family_near_batched_doubling(self):
        """At dd = 32 the 2-D products round differently in the last bits."""
        from backflow_lab.models import classical_exp_kernel

        grid = TimeGrid.uniform(1e-3, 15.0)
        embed, columns = exp_kernel_embedding(16, 1.3, 0.5)
        want = batched_doubling(embed, columns, grid)[:, :16, :]
        got = classical_exp_kernel(n=16, gamma=1.3, tau_m=0.5).propagator_fn(grid).maps
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_random_constant_gksl_d3_matches_prefix_of_equal_steps(self):
        gen = constant_gksl_d3(np.random.default_rng(11))
        grid = TimeGrid.uniform(1e-2, 3.0)
        got = build_propagator(gen, grid).maps
        assert np.max(np.abs(got - prefix_path_maps(gen, grid))) <= 1e-12

    def test_constant_gksl_matches_expm(self):
        g = dissipator_superop(SIGMA_MINUS) + 0.3 * dissipator_superop(SIGMA_Z / np.sqrt(2))
        family = build_propagator(constant_quantum_generator(g), TimeGrid.uniform(1e-3, 2.0))
        for t_probe in (0.5, 1.0, 2.0):
            assert np.max(np.abs(family.maps[int(round(t_probe / 1e-3))] - expm(t_probe * g))) <= 1e-7

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.eye(4, dtype=complex), "violates trace preservation"),
            (np.zeros((2, 2), dtype=complex), r"has shape \(2, 2\)"),
        ],
    )
    def test_bad_matrix_rejected_before_any_product(self, monkeypatch, matrix, message):
        import backflow_lab.propagation as propagation

        monkeypatch.setattr(propagation, "rk4_power_table", lambda *args: pytest.fail("table built"))
        gen = constant_quantum_generator(matrix)
        with pytest.raises(ContractViolationError, match=f"generator sample at t=0 {message}"):
            build_propagator(gen, TimeGrid.uniform(0.1, 1.0))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("route", ["solve_tcl", "build_propagator"])
    def test_exploding_generator_names_earliest_non_finite_row(self, route):
        # negative rates: the difference mode grows as exp(12 t) and
        # overflows near t = 59, far from the end of the grid
        w = -6.0 * W_SYM
        gen = constant_classical_generator(w)
        grid = TimeGrid.uniform(1e-2, 80.0)
        p0 = ProbabilityVector([1.0, 0.0])
        run = {
            "solve_tcl": lambda g: solve_tcl(g, p0, grid),
            "build_propagator": lambda g: build_propagator(g, grid),
        }[route]
        # the step matrix iterated once per step, as the sequential loop did;
        # the step kernel overflows in its stage sums some 35 steps earlier
        finite = np.isfinite(rk4_constant_loop(w, np.eye(2), grid)).all(axis=(1, 2))
        t_ref = grid.points[np.argmin(finite)]
        with pytest.raises(IntegrationDivergedError) as got:
            run(gen)
        assert 50.0 < got.value.time < grid.t_max
        assert abs(got.value.time - t_ref) <= 3 * grid.dt


    @pytest.mark.parametrize("y0", [np.array([1.0, 0.0]), np.eye(2)], ids=["vector", "identity"])
    def test_divergence_inside_a_doubling_block_names_its_first_row(self, y0):
        """The table first goes non-finite inside a doubling block, not at its
        first row: the time raised is that of the first non-finite row of the
        same doubling run formed without any check."""
        from backflow_lab.propagation import rk4_power_table

        w = -6.0 * W_SYM  # the difference mode grows as exp(12 t) and overflows near t = 59
        grid = TimeGrid.uniform(1e-2, 80.0)
        with np.errstate(all="ignore"):
            finite = np.isfinite(unchecked_doubling(w, y0, grid)).all(axis=(1, 2))
        row = int(np.argmin(finite))
        assert not finite[row] and finite[:row].all()
        block_start = 1 << (row.bit_length() - 1)  # doubling blocks start at powers of two
        assert block_start < row
        with pytest.raises(IntegrationDivergedError, match="integration diverged") as got:
            rk4_power_table(w, y0, grid)
        assert got.value.time == grid.points[row]

    @pytest.mark.parametrize("route", ["rk4_power_table", "solve_tcl", "build_propagator"])
    def test_overflow_raises_no_warning(self, route):
        """The squarings overflow ahead of the rows: numpy's overflow is not
        warned of, and the divergence is named at the first non-finite row."""
        from backflow_lab.propagation import rk4_power_table

        w = -6.0 * W_SYM
        grid = TimeGrid.uniform(1e-2, 80.0)
        p0 = ProbabilityVector([1.0, 0.0])
        y0, run = {
            "rk4_power_table": (p0.entries, lambda: rk4_power_table(w, p0.entries, grid)),
            "solve_tcl": (p0.entries, lambda: solve_tcl(constant_classical_generator(w), p0, grid)),
            "build_propagator": (np.eye(2), lambda: build_propagator(constant_classical_generator(w), grid)),
        }[route]
        with np.errstate(all="ignore"):
            finite = np.isfinite(unchecked_doubling(w, y0, grid)).all(axis=(1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationDivergedError, match="integration diverged") as got:
                run()
        assert got.value.time == grid.points[np.argmin(finite)]


class TestStateOnlyPass:
    """A trajectory is the initial state carried through the RK4 pass as
    one column, within 1e-13 of the propagator family applied to it."""

    @pytest.mark.parametrize(
        "name, params", [("amplitude_damping_qubit", {}), ("dephasing_qubit", {"rate_kind": "sinusoidal"})]
    )
    def test_quantum_model(self, name, params):
        from backflow_lab.models import build_model

        model = build_model(name, params)
        gen, grid = model.tcl_generator, TimeGrid.uniform(1e-3, 4.0)
        traj = solve_tcl(gen, model.initial_state, grid)
        want = apply_family(build_propagator(gen, grid), model.initial_state)
        assert np.max(np.abs(traj.states - want.states)) <= 1e-13

    def test_classical_constant_generator(self):
        w = np.array([[-1.0, 0.5, 0.2], [0.7, -0.9, 0.3], [0.3, 0.4, -0.5]])
        gen, grid = constant_classical_generator(w), TimeGrid.uniform(1e-3, 6.0)
        p0 = ProbabilityVector([0.6, 0.3, 0.1])
        traj = solve_tcl(gen, p0, grid)
        want = apply_family(build_propagator(gen, grid), p0)
        assert np.max(np.abs(traj.states - want.states)) <= 1e-13


class TestGeneratorSamples:
    """G(t) itself on the grid, under the checks the propagator build makes."""

    @staticmethod
    def recording(sample, calls):
        """A batched evaluate of ``sample(t)`` that records every call's times."""

        def evaluate(ts):
            calls.append(ts.copy())
            return np.array([sample(t) for t in ts.tolist()])

        return evaluate

    def test_time_dependent_generator_evaluated_in_one_call(self):
        grid = TimeGrid.uniform(1e-2, 2.0)
        d = dissipator_superop(SIGMA_Z / np.sqrt(2))
        calls = []
        evaluate = self.recording(lambda t: (1.0 + math.sin(t)) * d, calls)
        samples = samples_of(TclGenerator(dim=2, kind="quantum", evaluate=evaluate), grid)
        assert len(calls) == 1 and np.array_equal(calls[0], interleaved_times(grid))
        assert np.array_equal(samples, np.array([(1.0 + math.sin(t)) * d for t in grid.points.tolist()]))

    def test_constant_generator_checked_on_one_sample(self, monkeypatch):
        import backflow_lab.propagation as propagation

        checked = []
        check = propagation._check_samples

        def counting(samples, *args):
            checked.append(samples.shape[0])
            return check(samples, *args)

        monkeypatch.setattr(propagation, "_check_samples", counting)
        g = dissipator_superop(SIGMA_MINUS)
        grid = TimeGrid.uniform(1e-2, 1.0)
        samples = samples_of(constant_quantum_generator(g), grid)
        assert checked == [1]
        assert samples.shape == (grid.n, 4, 4) and np.array_equal(samples, np.broadcast_to(g, samples.shape))

    @pytest.mark.parametrize(
        "matrix, error, message",
        [
            (np.eye(4, dtype=complex), ContractViolationError, "t=0 violates trace preservation"),
            (np.zeros((2, 2), dtype=complex), ContractViolationError, r"t=0 has shape \(2, 2\)"),
            (np.full((4, 4), np.nan, dtype=complex), IntegrationDivergedError, "t=0 is not finite"),
        ],
    )
    def test_bad_constant_matrix(self, matrix, error, message):
        with pytest.raises(error, match=message):
            samples_of(constant_quantum_generator(matrix), TimeGrid.uniform(0.1, 1.0))

    def test_broadcast_constant_known_by_its_stride(self):
        """A constant table of one row in memory (leading stride 0) is known
        constant without an elementwise compare of its 2N - 1 samples: the
        pass holds little beyond its sample times, and hands on one row."""
        import tracemalloc

        g = dissipator_superop(SIGMA_MINUS)
        grid = TimeGrid.uniform(1e-3, 1000.0)
        assert grid.n == 10**6 + 1
        tracemalloc.start()
        try:
            samples = tcl_pass(constant_quantum_generator(g), grid)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        times_bytes = (2 * grid.n - 1) * 8
        assert peak < 1.5 * times_bytes, f"peak {peak} B for {times_bytes} B of sample times"
        assert samples.shape == (grid.n, 4, 4) and samples.strides[0] == 0 and not samples.flags.writeable
        assert np.array_equal(samples[-1], g) and not np.shares_memory(samples, g)

    @pytest.mark.parametrize("y0", [None, np.eye(4, dtype=complex), np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)])
    def test_broadcast_constant_with_a_nan(self, y0):
        """One NaN entry in a broadcast constant: the sample at t = 0 is
        reported, with or without propagation."""
        g = dissipator_superop(SIGMA_MINUS)
        g[1, 2] = np.nan
        with pytest.raises(IntegrationDivergedError, match=r"^generator sample at t=0 is not finite$") as raised:
            tcl_pass(constant_quantum_generator(g), TimeGrid.uniform(0.1, 1.0), y0)
        assert raised.value.time == 0.0

    @pytest.mark.parametrize(
        "first, second, error, message",
        [
            (np.eye(4, dtype=complex), np.full((4, 4), np.nan), ContractViolationError, "t=0.5 violates trace"),
            (np.full((4, 4), np.inf + 0j), np.eye(4, dtype=complex), IntegrationDivergedError, "t=0.5 is not finite"),
            (np.zeros((3, 3), dtype=complex), np.eye(4, dtype=complex), ContractViolationError, r"t=0.5 has shape \(3, 3\)"),
            (np.full((4, 4), np.nan), np.zeros((3, 3)), IntegrationDivergedError, "t=0.5 is not finite"),
            (np.eye(4, dtype=complex), np.zeros((3, 3)), ContractViolationError, "t=0.5 violates trace"),
        ],
    )
    def test_earliest_bad_sample_named_with_its_class(self, first, second, error, message):
        """Of two bad samples, at t = 0.5 and t = 1.5, the earlier one is
        reported, with the class the propagator build gives it."""
        g = dissipator_superop(SIGMA_Z / np.sqrt(2))
        bad = {0.5: first, 1.5: second}
        gen = TclGenerator(dim=2, kind="quantum", evaluate=pointwise(lambda t: bad.get(round(t, 9), g)))
        for route in (samples_of, build_propagator):
            with pytest.raises(error, match=message) as raised:
                route(gen, TimeGrid.uniform(0.1, 2.0))
            if error is IntegrationDivergedError:
                assert raised.value.time == 0.5

    def test_rk4_pass_hands_on_its_on_grid_samples(self):
        """The maps and the samples of one pass are those of the propagator
        build and of a pass without propagation, from one evaluate call at
        2N - 1 strictly increasing times whose even entries are the grid
        points."""

        grid = TimeGrid.uniform(1e-2, 3.0)
        d = dissipator_superop(SIGMA_Z / np.sqrt(2))
        calls = []
        gen = TclGenerator(
            dim=2, kind="quantum", evaluate=self.recording(lambda t: (1.0 + 0.5 * math.sin(t)) * d, calls)
        )
        maps, samples = tcl_pass(gen, grid, np.eye(4, dtype=complex))
        assert len(calls) == 1
        (times,) = calls
        assert times.shape == (2 * grid.n - 1,) and np.all(np.diff(times) > 0)
        assert np.array_equal(times[::2], grid.points)
        assert np.array_equal(maps, build_propagator(gen, grid).maps)
        assert np.array_equal(samples, samples_of(gen, grid))

    def test_rk4_pass_checks_its_last_sample(self):
        """The last grid sample feeds only the last row: a non-finite one is
        reported as the sample, ahead of the divergence it causes there."""

        grid = TimeGrid.uniform(0.1, 3.0)
        t_last = grid.points[-1]
        d = dissipator_superop(SIGMA_Z / np.sqrt(2))
        gen = TclGenerator(dim=2, kind="quantum", evaluate=pointwise(lambda t: d * (np.nan if t == t_last else 1.0)))
        with pytest.raises(IntegrationDivergedError, match="generator sample") as raised:
            tcl_pass(gen, grid, np.eye(4, dtype=complex))
        assert raised.value.time == t_last


class TestSampleTablesAreNumericArrays:
    """A generator's or kernel's sampled table is read by the one array rule
    of the value types: rectangular, numeric, and real for a classical kind."""

    GRID = TimeGrid.uniform(1e-2, 1.0)

    @staticmethod
    def run_generator(table_of, kind="classical"):
        dd = 2 if kind == "classical" else 4
        gen = TclGenerator(dim=2, kind=kind, evaluate=lambda ts: table_of(len(ts), dd))
        initial = ProbabilityVector([1.0, 0.0]) if kind == "classical" else DensityMatrix(np.eye(2, dtype=complex) / 2)
        return solve_tcl(gen, initial, TestSampleTablesAreNumericArrays.GRID)

    @staticmethod
    def run_kernel(table_of):
        kernel = MemoryKernel(dim=2, kind="classical", evaluate=lambda taus: table_of(len(taus)))
        return solve_tc(kernel, ProbabilityVector([1.0, 0.0]), TestSampleTablesAreNumericArrays.GRID)

    def test_complex_classical_generator_refused(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError, match="^classical generator samples must be real$"):
                self.run_generator(lambda n, dd: np.tile(W_SYM + 1e-3j, (n, 1, 1)))

    def test_complex_classical_kernel_refused(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError, match="^classical kernel samples must be real$"):
                self.run_kernel(lambda n: np.tile(W_SYM + 1e-3j, (n, 1, 1)))

    def test_zero_imaginary_part_is_dropped(self):
        """Complex tables whose imaginary parts are zero give the bits of
        their real parts, with no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            real = self.run_generator(lambda n, dd: np.tile(W_SYM, (n, 1, 1)))
            as_complex = self.run_generator(lambda n, dd: np.tile(W_SYM + 0j, (n, 1, 1)))
            assert np.array_equal(real.states, as_complex.states)
            real = self.run_kernel(lambda n: np.array([math.exp(-0.1 * m) * W_SYM for m in range(n)]))
            as_complex = self.run_kernel(lambda n: np.array([math.exp(-0.1 * m) * W_SYM + 0j for m in range(n)]))
            assert np.array_equal(real.states, as_complex.states)

    @pytest.mark.parametrize("kind", ["classical", "quantum"])
    def test_generator_table_of_strings(self, kind):
        with pytest.raises(ContractViolationError, match=f"^{kind} generator samples must be numeric, got dtype <U1$"):
            self.run_generator(lambda n, dd: np.full((n, dd, dd), "x"), kind)

    def test_kernel_table_of_strings(self):
        with pytest.raises(ContractViolationError, match="^classical kernel samples must be numeric, got dtype <U1$"):
            self.run_kernel(lambda n: np.full((n, 2, 2), "x"))

    def test_ragged_kernel_table(self):
        with pytest.raises(ContractViolationError, match="^classical kernel samples are not a rectangular array$"):
            self.run_kernel(lambda n: [W_SYM] * (n - 1) + [W_SYM[:1]])

    def test_kernel_table_is_not_copied(self):
        import backflow_lab.propagation as propagation

        table = np.array([math.exp(-0.1 * m) * W_SYM for m in range(self.GRID.n)])
        kernel = MemoryKernel(dim=2, kind="classical", evaluate=lambda taus: table)
        assert propagation._kernel_table(kernel, self.GRID) is table


class TestPrefixProduct:
    def test_matmul_calls_grow_like_sqrt_n(self, monkeypatch):
        """A time-dependent family takes about 2 sqrt(N) Python-level
        products: from N to 4N their count at most doubles, with slack."""
        import backflow_lab.propagation as propagation
        from backflow_lab.models import dephasing_qubit

        gen = dephasing_qubit(rate_kind="sinusoidal", lam=0.4, amplitude=1.5, frequency=2.0).tcl_generator
        products = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def matmul(self, *args, **kwargs):
                products.append(1)
                return np.matmul(*args, **kwargs)

        monkeypatch.setattr(propagation, "np", CountingNumpy())
        counts = []
        for t_max in (3.0, 12.0):
            products.clear()
            grid = TimeGrid.uniform(1e-2, t_max)
            propagation.build_propagator(gen, grid)
            counts.append(len(products))
        assert grid.n == 4 * (301 - 1) + 1
        assert 0 < counts[0] and counts[1] <= 2.2 * counts[0]

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 17, 100])
    def test_blocks_of_any_length_match_the_sequential_product(self, m):
        from backflow_lab.propagation import _prefix_product

        rng = np.random.default_rng(m)
        steps = np.eye(3) + 0.1 * rng.standard_normal((m, 3, 3))
        want = [np.eye(3)]
        for step in steps:
            want.append(step @ want[-1])
        assert np.max(np.abs(_prefix_product(steps, np.eye(3)) - np.array(want))) <= 1e-13
