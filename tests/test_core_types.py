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
from backflow_lab.linalg import (
    carrier_dim,
    commutator_superop,
    conservation_row,
    conservation_sums,
    dissipator_superop,
    hermitian_spectra,
    hermiticity_defects,
    left_right_superop,
)
from backflow_lab import models, propagation
from backflow_lab.errors import IntegrationDivergedError
from backflow_lab.models import SIGMA_MINUS, build_model
from backflow_lab.states import _hermitian_trajectory
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


def _hermitian_stack(a, c, b):
    s = np.empty((len(a), 2, 2), dtype=complex)
    s[:, 0, 0], s[:, 1, 1], s[:, 1, 0] = a, c, b
    s[:, 0, 1] = np.conj(b)
    return s


def _exact_spectra(stack):
    """Eigenvalues m -+ sqrt(((a - c)/2)^2 + |b|^2) of each 2x2 Hermitian
    matrix, in 40-digit arithmetic."""
    import mpmath as mp

    out = []
    with mp.workdps(40):
        for m in stack:
            a, c, b = mp.mpf(m[0, 0].real), mp.mpf(m[1, 1].real), m[1, 0]
            r = mp.sqrt(((a - c) / 2) ** 2 + mp.mpf(b.real) ** 2 + mp.mpf(b.imag) ** 2)
            out.append([(a + c) / 2 - r, (a + c) / 2 + r])
    return out


class TestHermitianSpectra:
    """The 2x2 closed form: bit for bit LAPACK's on real off-diagonals,
    within 4 eps of the largest entry of the exact spectrum otherwise."""

    @staticmethod
    def _cases(rng, n, complex_b):
        p = rng.random(n)
        b = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_b else 0.0)
        coherence = np.sqrt(p * (1 - p)) * (b / np.abs(b))
        return {
            "random": _hermitian_stack(rng.standard_normal(n), rng.standard_normal(n), b),
            "states": _hermitian_stack(p, 1 - p, rng.random(n) * coherence),
            "diagonal": _hermitian_stack(rng.random(n), rng.random(n), 0.0 * b),
            "degenerate": _hermitian_stack(np.full(n, 0.5), np.full(n, 0.5), 0.0 * b),
            "pure": _hermitian_stack(p, 1 - p, coherence),
            "tiny_b": _hermitian_stack(p, 1 - p, b * 10.0 ** rng.uniform(-20, -8, n)),
            "scaled": _hermitian_stack(*(x * 10.0 ** rng.uniform(-200, 200, n) for x in (p - 0.5, 1 - p, b))),
        }

    def test_real_off_diagonal_equals_eigvalsh(self):
        rng = np.random.default_rng(11)
        for name, stack in self._cases(rng, 20_000, complex_b=False).items():
            if name != "scaled":  # LAPACK rescales those by a factor that is not a power of two
                assert np.array_equal(hermitian_spectra(stack), np.linalg.eigvalsh(stack)), name
        # |b| at LAPACK's split threshold eps sqrt|a| sqrt|c|, where its two
        # split tests (on |b| and on |b|^2) disagree in the last bit
        n = 400_000
        a, c = rng.random(n), rng.random(n) * 10.0 ** rng.uniform(-3, 0, n)
        b = np.sqrt(a) * np.sqrt(c) * (np.finfo(float).eps / 2) * (1 + rng.uniform(-2e-15, 2e-15, n))
        stack = _hermitian_stack(a, c, b + 0j)
        assert np.array_equal(hermitian_spectra(stack), np.linalg.eigvalsh(stack))

    @pytest.mark.parametrize("complex_b", [False, True])
    def test_within_four_eps_of_the_exact_spectrum(self, complex_b):
        rng = np.random.default_rng(12 + complex_b)
        eps = np.finfo(float).eps
        for name, stack in self._cases(rng, 300, complex_b).items():
            w = hermitian_spectra(stack)
            bound = 4 * eps * np.max(np.abs(stack), axis=(1, 2))
            for i, exact in enumerate(_exact_spectra(stack)):
                assert abs(w[i, 0] - float(exact[0])) <= bound[i], (name, i)
                assert abs(w[i, 1] - float(exact[1])) <= bound[i], (name, i)

    def test_hermitian_part_and_other_sizes(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((50, 3, 3)) + 1j * rng.standard_normal((50, 3, 3))
        herm = (m + m.conj().transpose(0, 2, 1)) / 2
        assert np.array_equal(hermitian_spectra(m), np.linalg.eigvalsh(herm))
        two = m[:, :2, :2]
        assert np.array_equal(hermitian_spectra(two), hermitian_spectra((two + two.conj().transpose(0, 2, 1)) / 2))

    def test_non_finite_input_gives_non_finite_output(self):
        stack = _hermitian_stack(np.array([np.nan, 0.5, np.inf]), np.array([0.5, 0.5, 0.5]), np.array([0, np.nan, 0]))
        with np.errstate(all="raise"):
            w = hermitian_spectra(stack[:0])
        assert w.shape == (0, 2)
        assert not np.isfinite(hermitian_spectra(stack)).all(axis=1).any()


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


def kron_builds(op):
    """Commutator and dissipator superoperators of one operator, built with
    ``np.kron`` as kron(B.T, A) for X -> A X B."""
    op = np.asarray(op, dtype=complex)
    eye = np.eye(op.shape[0])
    ldl = op.conj().T @ op
    commutator = -1j * (np.kron(eye, op) - np.kron(op.T, eye))
    dissipator = np.kron(op.conj(), op) - 0.5 * np.kron(eye, ldl) - 0.5 * np.kron(ldl.T, eye)
    return commutator, dissipator


class TestConservationSums:
    """The rows u selects, added in row order, keep the bits of the product
    with u on real and complex stacks."""

    @pytest.mark.parametrize("kind, dim", [("quantum", 2), ("quantum", 3), ("classical", 2), ("classical", 3)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bits_of_the_product_with_u(self, kind, dim, dtype):
        dd = carrier_dim(kind, dim)
        rng = np.random.default_rng(dd)
        stack = rng.standard_normal((257, dd, dd)) * 10.0 ** rng.integers(-12, 12, (257, dd, dd))
        if dtype is complex:
            stack = stack + 1j * rng.standard_normal((257, dd, dd))
        want = conservation_row(kind, dim) @ stack
        got = conservation_sums(stack, kind, dim)
        assert got.dtype == want.dtype and np.array_equal(got.view(np.uint8), want.view(np.uint8))

    def test_fresh_array_from_a_read_only_stack(self):
        stack = np.eye(4)[None].repeat(3, axis=0)
        stack.setflags(write=False)
        sums = conservation_sums(stack, "quantum", 2)
        sums -= conservation_row("quantum", 2)
        assert not sums.any() and not np.shares_memory(sums, stack)


class TestSuperopBuilders:
    """The batched builders keep the bits of the ``np.kron`` builds, one
    operator at a time and on a stack."""

    RNG = np.random.default_rng(17)
    QUTRIT = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
    STACK = RNG.standard_normal((5, 3, 3)) + 1j * RNG.standard_normal((5, 3, 3))

    @staticmethod
    def same_bits(a, b):
        return a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))

    @pytest.mark.parametrize(
        "op",
        [SIGMA_MINUS, SIGMA_MINUS.T, np.diag([1.0, -1.0]) / np.sqrt(2.0), QUTRIT],
        ids=["sigma_minus", "sigma_plus", "sigma_z_over_sqrt2", "random_qutrit"],
    )
    def test_one_operator(self, op):
        commutator, dissipator = kron_builds(op)
        assert self.same_bits(commutator_superop(op), commutator)
        assert self.same_bits(dissipator_superop(op), dissipator)
        b = self.QUTRIT[: len(op), : len(op)]
        assert self.same_bits(left_right_superop(op, b), np.kron(b.T, op))

    def test_stack(self):
        builds = [kron_builds(op) for op in self.STACK]
        assert self.same_bits(commutator_superop(self.STACK), np.array([c for c, _ in builds]))
        assert self.same_bits(dissipator_superop(self.STACK), np.array([d for _, d in builds]))
        want = np.array([np.kron(self.QUTRIT.T, op) for op in self.STACK])
        assert self.same_bits(left_right_superop(self.STACK, self.QUTRIT), want)


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


class TestOneStateCheck:
    """Single states are one-row stacks of the trajectory's batched check,
    with their own tighter tolerances, and raise with time None."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DensityMatrix([[np.nan, 0], [0, 1]]),
            lambda: DensityMatrix([[0.5, np.inf], [np.inf, 0.5]]),
            lambda: ProbabilityVector([np.nan, 1]),
            lambda: ProbabilityVector([np.inf, 0.5]),
        ],
    )
    def test_non_finite_single_state_is_rejected(self, make):
        with pytest.raises(InvalidStateError, match="non-finite") as got:
            make()
        assert got.value.time is None

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DensityMatrix(np.diag([0.5, 0.6])),
            lambda: DensityMatrix(np.array([[0.5, 0.2], [0.1, 0.5]])),
            lambda: DensityMatrix(np.diag([1.2, -0.2])),
            lambda: ProbabilityVector([0.2, 0.3]),
            lambda: ProbabilityVector([1.1, -0.1]),
        ],
    )
    def test_state_outside_its_set_raises_without_a_time(self, make):
        with pytest.raises(InvalidStateError) as got:
            make()
        assert got.value.time is None

    def test_single_states_keep_the_tighter_tolerances(self):
        grid = TimeGrid.uniform(0.5, 1.0)
        rho = np.diag([0.5, 0.5 + 5e-12]).astype(complex)
        p = np.array([1.0 + 5e-12, -5e-12])
        Trajectory(grid, [rho] * grid.n, "quantum")
        Trajectory(grid, [p] * grid.n, "classical")
        with pytest.raises(InvalidStateError, match="has trace"):
            DensityMatrix(rho)
        with pytest.raises(InvalidStateError, match="negative probability"):
            ProbabilityVector(p)

    def test_zero_dimensional_trajectory_is_a_contract_violation(self):
        grid = TimeGrid.uniform(0.5, 1.0)
        for states, kind in ((np.zeros((grid.n, 0, 0)), "quantum"), (np.zeros((grid.n, 0)), "classical")):
            with pytest.raises(ContractViolationError, match="dimension 0 outside supported range"):
                Trajectory(grid, states, kind)


class TestCarrierDim:
    def test_dd_per_kind(self):
        from backflow_lab.linalg import carrier_dim

        assert [carrier_dim("quantum", d) for d in (1, 2, 8)] == [1, 4, 64]
        assert [carrier_dim("classical", d) for d in (1, 3, 16)] == [1, 3, 16]

    @pytest.mark.parametrize(
        "kind, dim, message",
        [
            ("Quantum", 2, "unknown kind 'Quantum'"),
            ("banana", 5, "unknown kind 'banana'"),
            ("quantum", 0, "dimension 0 outside supported range 1..8"),
            ("quantum", 9, "dimension 9 outside supported range 1..8"),
            ("classical", 17, "dimension 17 outside supported range 1..16"),
            ("classical", 2.0, "dimension 2.0 outside"),
            ("classical", np.nan, "dimension nan outside"),
        ],
    )
    def test_unknown_kind_or_dimension_is_rejected(self, kind, dim, message):
        from backflow_lab.linalg import carrier_dim

        with pytest.raises(ContractViolationError, match=message):
            carrier_dim(kind, dim)

    def test_map_types_check_their_kind(self):
        from backflow_lab.generator_analysis import SampledGenerator
        from backflow_lab.propagation import PropagatorFamily

        grid = TimeGrid.uniform(0.5, 1.0)
        with pytest.raises(ContractViolationError, match="unknown kind 'Quantum'"):
            PropagatorFamily(grid, np.tile(np.eye(4), (grid.n, 1, 1)), "Quantum", 2)
        with pytest.raises(ContractViolationError, match="unknown kind 'banana'"):
            SampledGenerator(grid, np.zeros((3, 7, 7)), "banana", 5)
        with pytest.raises(ContractViolationError, match="expected generator samples of shape"):
            SampledGenerator(grid, np.zeros((3, 7, 7)), "classical", 5)

    def test_non_finite_map_is_rejected_before_extraction(self):
        from backflow_lab.propagation import PropagatorFamily

        grid = TimeGrid.uniform(0.01, 0.2)
        maps = np.tile(np.eye(4, dtype=complex), (grid.n, 1, 1))
        maps[7, 1, 1] = np.nan
        with pytest.raises(ContractViolationError, match="non-finite entry among the maps"):
            PropagatorFamily(grid, maps, "quantum", 2)


class TestTimeGrid:
    @pytest.mark.parametrize("points", [[0.0, np.nan], [0.0, np.inf], [0.0, 1.0, np.inf], [0.0, 1.0, np.nan, 3.0]])
    def test_non_finite_points_are_rejected(self, points):
        with pytest.raises(ContractViolationError):
            TimeGrid(np.array(points))

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


    def test_non_finite_quantum_state_names_the_earliest_time(self):
        """A NaN coherence compares false in every other check, so the
        finiteness check is what rejects it, at the earliest such state."""
        grid = TimeGrid.uniform(0.5, 3.0)
        states = np.array([np.eye(2) / 2] * grid.n, dtype=complex)
        states[2, 0, 1] = states[2, 1, 0] = np.nan
        states[4, 1, 0] = np.inf
        with pytest.raises(InvalidStateError, match="non-finite") as got:
            Trajectory(grid, states, "quantum")
        assert got.value.time == grid.points[2]

    def test_non_finite_probability_names_the_earliest_time(self):
        grid = TimeGrid.uniform(0.5, 3.0)
        states = np.array([[0.5, 0.5]] * grid.n)
        states[3] = [np.nan, 0.5]
        states[5] = [np.inf, -np.inf]
        with pytest.raises(InvalidStateError, match="non-finite") as got:
            Trajectory(grid, states, "classical")
        assert got.value.time == grid.points[3]

    def test_spectrum_is_the_checked_eigenvalues(self):
        rng = np.random.default_rng(7)
        grid = TimeGrid.uniform(0.5, 3.0)
        for d in (2, 3):
            states = np.array([random_density_matrix(d, rng).entries for _ in range(grid.n)])
            traj = Trajectory(grid, states, "quantum")
            assert traj.spectrum.shape == (grid.n, d) and traj.spectrum.dtype == np.float64
            assert not traj.spectrum.flags.writeable
            np.testing.assert_allclose(traj.spectrum, np.linalg.eigvalsh(states), rtol=0.0, atol=1e-15)
        assert Trajectory(grid, np.array([[0.5, 0.5]] * grid.n), "classical").spectrum is None


def _spied(module, states_out, call):
    """``call()``'s trajectory or numerical error, with ``module``'s
    ``_hermitian_trajectory`` spied on: the states it was handed go to
    ``states_out``."""

    def spy(grid, states):
        states_out.append(states.copy())
        return _hermitian_trajectory(grid, states)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_hermitian_trajectory", spy)
        try:
            return call()
        except (IntegrationDivergedError, InvalidStateError) as exc:
            return exc


def _assert_as_full_check(got, grid, states):
    """``got``, from ``_hermitian_trajectory(grid, states)``, is the full
    check's trajectory bit for bit, or its error: class, message and time
    (through finalize, as the cause of an IntegrationDivergedError)."""
    try:
        full = Trajectory(grid, states, "quantum")
    except InvalidStateError as exc:
        err = got.__cause__ if isinstance(got, IntegrationDivergedError) else got
        assert type(err) is InvalidStateError
        assert (str(err), err.time) == (str(exc), exc.time)
        assert (str(got), got.time) == (str(exc), exc.time)
        return
    assert isinstance(got, Trajectory) and got.kind == "quantum" and got.grid is grid
    for a, b in ((got.states, full.states), (got.spectrum, full.spectrum)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert not a.flags.writeable
    assert np.max(hermiticity_defects(got.states)) == 0.0
    traces = np.einsum("nii->n", got.states)
    assert np.max(np.abs(traces - 1.0)) <= 8 * np.finfo(float).eps


class TestHermitianTrajectory:
    """Quantum states the package built Hermitian skip the Hermiticity and
    trace tests of the full check, and nothing else changes: finalize's
    (S + S^H)/2 over its real trace, and the two-state and dephasing closed
    forms, give the full check's trajectory, or its error."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([2, 3]),
        st.integers(2, 30),
        st.integers(0, 2**31 - 1),
        st.sampled_from(["none", "nan", "negative"]),
        st.floats(1e-12, 0.5),
    )
    def test_finalize(self, d, n, seed, defect, size):
        rng = np.random.default_rng(seed)
        grid = TimeGrid.uniform(0.1, 0.1 * (n - 1))
        n = grid.n
        w = rng.random((n, d)) ** 4  # some eigenvalues close to 0
        w /= w.sum(axis=1, keepdims=True)
        k = int(rng.integers(n))
        if defect == "negative":
            w[k] = np.eye(d)[0] * (1.0 + size) - np.eye(d)[1] * size
        u = np.linalg.qr(rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)))[0]
        states = (u * w[:, None, :]) @ u.conj().transpose(0, 2, 1)
        states += 1e-10 * size * (rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)))
        states *= 1.0 + 1e-9 * rng.uniform(-1.0, 1.0, (n, 1, 1))  # trace drift below TRACE_DRIFT_TOL
        raw = states.transpose(0, 2, 1).reshape(n, d * d)  # column-stacked
        if defect == "nan":
            raw[k, rng.integers(d * d)] = np.nan
        handed = []
        got = _spied(propagation, handed, lambda: propagation._finalize_trajectory(raw, grid, "quantum", d))
        assert len(handed) == 1
        _assert_as_full_check(got, grid, handed[0])

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["markov_two_state", "fractional_two_state", "dephasing_qubit"]),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.05, 1.0),
        st.floats(0.1, 5.0),
        st.sampled_from(["constant", "sinusoidal", "cosine_f"]),
        st.floats(-20.0, 20.0),
    )
    def test_closed_forms(self, name, p0, p_eq, alpha, lam, rate_kind, amplitude):
        if name == "dephasing_qubit":
            model = build_model(name, dict(rate_kind=rate_kind, lam=lam, amplitude=amplitude))
        else:
            extra = {"alpha": alpha} if name == "fractional_two_state" else {}
            model = build_model(name, dict(lam=lam, omega=3.0 * lam, p0=p0, p_eq=p_eq, **extra))
        grid = TimeGrid.uniform(0.05, 4.0)
        handed = []
        got = _spied(models, handed, lambda: model.trajectory_fn(grid))
        assert len(handed) == 1
        _assert_as_full_check(got, grid, handed[0])

    def test_hermiticity_defects_are_the_full_form(self):
        """max|A - A^H|/2 per matrix, bit for bit, on finite stacks of
        every size, Hermitian or not."""
        rng = np.random.default_rng(11)
        for d in (1, 2, 3, 5):
            a = rng.standard_normal((64, d, d)) * 10.0 ** rng.integers(-300, 300, (64, 1, 1))
            a = a + 1j * rng.standard_normal((64, d, d))
            a[::2] = (a[::2] + a[::2].conj().transpose(0, 2, 1)) / 2.0
            full = np.max(np.abs(a - a.conj().transpose(0, 2, 1)), axis=(1, 2)) / 2.0
            assert hermiticity_defects(a).tobytes() == full.tobytes()


class TestTimeGridWithin:
    @staticmethod
    def _looped(grid, intervals):
        mask = np.zeros(grid.n, dtype=bool)
        for a, b in intervals:
            mask |= (grid.points >= a) & (grid.points <= b)
        return mask

    def test_matches_the_interval_loop(self):
        rng = np.random.default_rng(3)
        grid = TimeGrid.uniform(1e-2, 5.0)
        for _ in range(300):
            k = int(rng.integers(0, 8))
            ends = rng.uniform(-0.5, 5.5, size=(k, 2))
            if k and rng.random() < 0.5:  # some ends exactly on grid points
                ends[0] = grid.points[rng.integers(0, grid.n, size=2)]
            intervals = [tuple(e) for e in ends]  # unsorted, overlapping, some with a > b
            assert np.array_equal(grid.within(intervals), self._looped(grid, intervals))

    def test_closed_ends_and_edge_cases(self):
        grid = TimeGrid(np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
        assert not grid.within(()).any()
        assert grid.within([(1.0, 1.0)]).tolist() == [False, True, False, False, False]
        assert grid.within([(3.0, 1.0)]).tolist() == [False] * 5
        assert grid.within([(2.0, 9.0), (0.0, 2.5), (2.5, 2.6)]).tolist() == [True] * 5
        assert grid.within([(float("nan"), 2.0), (1.0, float("nan"))]).tolist() == [False] * 5
        assert grid.within([(-float("inf"), 0.5)]).tolist() == [True] + [False] * 4


class TestTimeGridInputs:
    @pytest.mark.parametrize(
        "dt, t_max", [(float("nan"), 1.0), (0.1, float("nan")), (0.1, float("inf")), (float("inf"), 1.0)]
    )
    def test_non_finite_rejected(self, dt, t_max):
        with pytest.raises(ContractViolationError):
            TimeGrid.uniform(dt, t_max)

    @pytest.mark.parametrize(
        "value, message",
        [(True, "must be a number"), ("x", "must be a number"), (10**400, "must be finite")],
        ids=["bool", "str", "10**400"],
    )
    @pytest.mark.parametrize("name", ["dt", "t_max"])
    def test_non_number_rejected(self, name, value, message):
        """A bool, a string or an integer beyond the float range is refused,
        naming the value: the one check of dt and t_max."""
        grid = {"dt": 0.1, "t_max": 1.0, name: value}
        with pytest.raises(ContractViolationError, match=f"grid.{name} {message}"):
            TimeGrid.uniform(**grid)

    @pytest.mark.parametrize("dt, t_max", [(5e-324, 1.0), (1e-300, 40.0)])
    def test_unbuildable_point_count_rejected(self, dt, t_max):
        """t_max/dt overflows to inf, or names more points than numpy can
        address: both fail before any allocation is attempted."""
        with pytest.raises(ContractViolationError, match="point"):
            TimeGrid.uniform(dt, t_max)
