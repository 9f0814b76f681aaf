import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backflow_lab import (
    ContractViolationError,
    DensityMatrix,
    InvalidStateError,
    NotPsdError,
    ProbabilityVector,
    TimeGrid,
    Trajectory,
    devectorize,
    hermitian_eig,
    psd_sqrt,
    vectorize,
)
from backflow_lab.linalg import left_right_superop
from _oracles import random_density_matrix


class TestHermitianEig:
    def test_identity(self):
        w, v = hermitian_eig(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])
        assert np.allclose(v @ v.conj().T, np.eye(2))

    def test_diagonal_descending(self):
        w, _ = hermitian_eig(np.diag([0.3, 0.7]))
        assert np.allclose(w, [0.7, 0.3])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 5):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            m = (a + a.conj().T) / 2
            w, v = hermitian_eig(m)
            err = np.linalg.norm(v @ np.diag(w) @ v.conj().T - m)
            assert err <= 1e-10 * np.linalg.norm(m)
            assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-10
            assert np.all(np.diff(w) <= 0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ContractViolationError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        m = np.diag([4.0, 9.0]) / 13.0
        expected = np.diag([2.0, 3.0]) / np.sqrt(13.0)
        assert np.max(np.abs(psd_sqrt(m) - expected)) < 1e-14

    def test_square_back(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = a @ a.conj().T
        root = psd_sqrt(m)
        assert np.linalg.norm(root @ root - m) <= 1e-9

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPsdError):
            psd_sqrt(np.diag([1.0, -1e-6]))

    def test_noise_band_clipped(self):
        root = psd_sqrt(np.diag([1.0, -5e-11]))
        assert np.allclose(root, np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("c", [0.25, 4.0])
    def test_scaling(self, c):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3))
        m = a @ a.T
        lhs = psd_sqrt(c * m)
        rhs = np.sqrt(c) * psd_sqrt(m)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestVectorize:
    def test_column_stacking_order(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(vectorize(m), [1.0, 3.0, 2.0, 4.0])

    def test_zero(self):
        assert np.array_equal(vectorize(np.zeros((2, 2))), np.zeros(4))

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.array_equal(devectorize(vectorize(m)), m)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 3), st.integers(0, 2**31 - 1))
    def test_kron_identity(self, d, seed):
        rng = np.random.default_rng(seed)
        a, x, b = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(3))
        lhs = vectorize(a @ x @ b)
        rhs = left_right_superop(a, b) @ vectorize(x)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolationError):
            devectorize(np.zeros(3))


class TestDensityMatrix:
    def test_valid(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        assert rho.dim == 2
        assert np.array_equal(rho.entries, np.diag([0.25, 0.75]))

    def test_trace_enforced(self):
        with pytest.raises(ContractViolationError):
            DensityMatrix(np.diag([0.5, 0.6]))

    def test_hermiticity_enforced(self):
        m = np.array([[0.5, 0.2], [0.1, 0.5]], dtype=complex)
        with pytest.raises(ContractViolationError):
            DensityMatrix(m)

    def test_psd_enforced(self):
        with pytest.raises(ContractViolationError):
            DensityMatrix(np.diag([1.2, -0.2]))

    def test_dimension_cap(self):
        with pytest.raises(ContractViolationError):
            DensityMatrix(np.eye(9) / 9.0)

    def test_entries_frozen(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 3.0

    def test_random_states_valid(self):
        rng = np.random.default_rng(0)
        for d in (2, 3):
            for _ in range(10):
                random_density_matrix(d, rng)


class TestProbabilityVector:
    def test_valid(self):
        p = ProbabilityVector([0.2, 0.3, 0.5])
        assert p.dim == 3

    def test_sum_enforced(self):
        with pytest.raises(ContractViolationError):
            ProbabilityVector([0.2, 0.3])

    def test_negativity_enforced(self):
        with pytest.raises(ContractViolationError):
            ProbabilityVector([1.1, -0.1])

    def test_dimension_cap(self):
        with pytest.raises(ContractViolationError):
            ProbabilityVector(np.ones(17) / 17)


class TestTimeGrid:
    def test_uniform(self):
        grid = TimeGrid.uniform(0.1, 1.0)
        assert grid.n == 11
        assert grid.dt == pytest.approx(0.1)
        assert grid.t_max == pytest.approx(1.0)

    def test_must_start_at_zero(self):
        with pytest.raises(ContractViolationError):
            TimeGrid(np.array([0.1, 0.2]))

    def test_strictly_increasing(self):
        with pytest.raises(ContractViolationError):
            TimeGrid(np.array([0.0, 0.1, 0.1]))

    def test_nonuniform_dt_rejected(self):
        grid = TimeGrid(np.array([0.0, 0.1, 0.3]))
        assert not grid.is_uniform()
        with pytest.raises(ContractViolationError):
            _ = grid.dt


class TestTrajectory:
    def test_quantum_validation(self):
        grid = TimeGrid.uniform(0.5, 1.0)
        states = np.array([np.eye(2) / 2] * 3, dtype=complex)
        traj = Trajectory(grid, states, "quantum")
        assert traj.dim == 2
        assert DensityMatrix(traj.states[0]).dim == 2

    def test_bad_state_rejected(self):
        grid = TimeGrid.uniform(0.5, 1.0)
        states = np.array([np.eye(2) / 2] * 3, dtype=complex)
        states[1] = np.diag([0.8, 0.1])
        with pytest.raises(ContractViolationError):
            Trajectory(grid, states, "quantum")

    def test_classical_validation(self):
        grid = TimeGrid.uniform(0.5, 1.0)
        states = np.array([[0.5, 0.5]] * 3)
        traj = Trajectory(grid, states, "classical")
        assert ProbabilityVector(traj.states[2]).entries[0] == 0.5

    def test_invalid_state_names_its_time(self):
        grid = TimeGrid.uniform(0.5, 1.5)
        quantum = np.array([np.eye(2) / 2] * 4, dtype=complex)
        classical = np.array([[0.5, 0.5]] * 4)
        cases = []
        skew = np.array([[0.5, 1.0], [0.0, 0.5]])
        for k, bad in [(1, np.diag([0.8, 0.1])), (2, np.diag([1.2, -0.2])), (3, skew)]:
            states = quantum.copy()
            states[k] = bad  # trace, PSD cone, Hermiticity
            cases.append((k, states, "quantum"))
        for k, bad in [(2, [1.2, -0.2]), (3, [0.5, 0.6])]:
            states = classical.copy()
            states[k] = bad  # simplex, normalization
            cases.append((k, states, "classical"))
        for k, states, kind in cases:
            with pytest.raises(InvalidStateError) as got:
                Trajectory(grid, states, kind)
            assert got.value.time == grid.points[k] and isinstance(got.value.time, float)


class TestTimeGridInputs:
    @pytest.mark.parametrize(
        "dt, t_max", [(float("nan"), 1.0), (0.1, float("nan")), (0.1, float("inf")), (float("inf"), 1.0)]
    )
    def test_non_finite_rejected(self, dt, t_max):
        with pytest.raises(ContractViolationError):
            TimeGrid.uniform(dt, t_max)
