import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backflow_lab import (
    ContractViolationError,
    DensityMatrix,
    InfoSeries,
    InvalidStateError,
    ThermoFieldState,
    TimeGrid,
    Trajectory,
    coincident_rise_intervals,
    decomposed_backflow,
    extended_reduced_density,
    thermofield_vector,
    von_neumann_entropy,
)
from backflow_lab.netfd import two_state_series_from_trajectory
from backflow_lab.models import markov_two_state
from _oracles import binary_entropy, random_density_matrix, two_state_split


def two_state_trajectory(grid, p, c):
    """Trajectory of the states [[p, c], [c*, 1 - p]] on ``grid``."""
    p, c = np.broadcast_to(p, grid.n), np.broadcast_to(c, grid.n)
    states = np.empty((grid.n, 2, 2), dtype=complex)
    states[:, 0, 0], states[:, 1, 1] = p, 1.0 - p
    states[:, 0, 1], states[:, 1, 0] = c, np.conj(c)
    return Trajectory(grid, states, "quantum")


def split(p, c):
    """(s_cl, s_qe) of the state [[p, c], [c*, 1 - p]], read off the
    sector series of a constant two-point trajectory."""
    s_cl, s_qe = two_state_series_from_trajectory(two_state_trajectory(TimeGrid.uniform(1.0, 1.0), p, c))
    return float(s_cl.values[0]), float(s_qe.values[0])


class TestThermofieldVector:
    def test_maximally_mixed_is_maximally_entangled(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
        psi = thermofield_vector(rho)
        expected = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        assert np.max(np.abs(psi.amplitudes - expected)) < 1e-12

    def test_pure_state_is_product(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        psi = thermofield_vector(rho)
        assert np.max(np.abs(psi.amplitudes - [1.0, 0.0, 0.0, 0.0])) < 1e-12

    def test_diagonal_amplitudes(self):
        rho = DensityMatrix(np.diag([0.9, 0.1]).astype(complex))
        psi = thermofield_vector(rho)
        expected = np.array([math.sqrt(0.9), 0.0, 0.0, math.sqrt(0.1)])
        assert np.max(np.abs(psi.amplitudes - expected)) < 1e-12

    def test_norm_validated(self):
        with pytest.raises(ContractViolationError):
            ThermoFieldState(2, np.array([1.0, 0.0, 0.0, 1.0]))


class TestExtendedReducedDensity:
    def test_maximally_entangled_reduces_to_mixed(self):
        psi = ThermoFieldState(2, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
        rho = extended_reduced_density(psi)
        assert np.max(np.abs(rho.entries - np.eye(2) / 2)) < 1e-12

    def test_product_state_reduces_to_projector(self):
        psi = ThermoFieldState(2, np.array([1.0, 0.0, 0.0, 0.0]))
        rho = extended_reduced_density(psi)
        assert np.max(np.abs(rho.entries - np.diag([1.0, 0.0]))) < 1e-12

    def test_roundtrip_on_seeded_states(self):
        rng = np.random.default_rng(123)
        worst = 0.0
        for dim in (2, 3):
            for _ in range(100):
                rho = random_density_matrix(dim, rng)
                back = extended_reduced_density(thermofield_vector(rho))
                worst = max(worst, float(np.max(np.abs(back.entries - rho.entries))))
        assert worst <= 1e-10

    def test_extended_entropy_equals_vn_entropy(self):
        rng = np.random.default_rng(5)
        rho = random_density_matrix(2, rng)
        s_hat = von_neumann_entropy(extended_reduced_density(thermofield_vector(rho)))
        assert s_hat == pytest.approx(von_neumann_entropy(rho), abs=1e-10)


class TestTwoStateDecomposition:
    def test_zero_coherence(self):
        s_cl, s_qe = split(0.3, 0.0)
        assert s_cl == pytest.approx(0.6108643020548935, abs=1e-12)
        assert s_qe == 0.0

    def test_maximal_coherence_pure(self):
        s_cl, s_qe = split(0.5, 0.5)
        assert s_cl == pytest.approx(math.log(2), abs=1e-12)
        assert s_qe == pytest.approx(-math.log(2), abs=1e-12)

    def test_quarter_coherence_value(self):
        # eigenvalues 1/2 +- |c| at p = 1/2
        s_cl, s_qe = split(0.5, 0.25)
        s_hat = entropy_of([0.75, 0.25])
        assert s_cl == pytest.approx(math.log(2), abs=1e-12)
        assert s_qe == pytest.approx(s_hat - math.log(2), abs=1e-12)
        assert s_qe == pytest.approx(-0.1308120359411370, abs=1e-10)

    def test_matches_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            p = rng.uniform(0.0, 1.0)
            c = rng.uniform(0, math.sqrt(p * (1 - p))) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            s_cl, s_qe = split(p, c)
            want_cl, want_qe = two_state_split(p, abs(c) ** 2)
            assert s_cl == pytest.approx(binary_entropy(p), abs=1e-15)
            assert s_cl == pytest.approx(want_cl, abs=1e-15)
            assert s_qe == pytest.approx(want_qe, abs=1e-12)

    def test_sign_always_nonpositive(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = rng.uniform(0.05, 0.95)
            cmax = math.sqrt(p * (1 - p))
            c = rng.uniform(0, cmax) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            _, s_qe = split(p, c)
            assert s_qe <= 1e-14

    def test_phase_invariance(self):
        base = split(0.4, 0.2)
        for k in range(8):
            phase = np.exp(1j * 2 * np.pi * k / 8)
            got = split(0.4, 0.2 * phase)
            assert got[0] == pytest.approx(base[0], abs=1e-12)
            assert got[1] == pytest.approx(base[1], abs=1e-12)

    def test_small_coherence_linear_bound(self):
        for b in (1e-4, 1e-5, 1e-6):
            _, s_qe = split(0.5, math.sqrt(b))
            assert abs(s_qe) <= 5.0 * b

    def test_psd_violation_rejected(self):
        # a state beyond the PSD bound never reaches the split
        with pytest.raises(InvalidStateError):
            two_state_trajectory(TimeGrid.uniform(1.0, 1.0), 0.9, 0.4)

    def test_matrix_matches_entropy_route(self):
        p, c = 0.35, 0.1 + 0.2j
        s_cl, s_qe = split(p, c)
        rho = DensityMatrix(np.array([[p, c], [np.conj(c), 1.0 - p]], dtype=complex))
        assert s_cl + s_qe == pytest.approx(von_neumann_entropy(rho), abs=1e-12)


def entropy_of(probs):
    return float(-sum(p * math.log(p) for p in probs if p > 0))


class TestNanFailsTheTolerances:
    """NaN compares false, so each tolerance comparison is written to fail on it."""

    def test_classify_rejects_nan(self):
        from backflow_lab.netfd import classify

        for n_cl, n_qe in ((np.nan, 0.0), (0.0, np.nan)):
            with pytest.raises(ContractViolationError, match="nonnegative"):
                classify(n_cl, n_qe)

    def test_subadditivity_rejects_nan(self):
        from backflow_lab.netfd import DecomposedBackflow

        for values in ((np.nan, 0.0, 0.0), (0.0, np.nan, 0.0), (0.0, 0.0, np.nan)):
            with pytest.raises(ContractViolationError, match="subadditivity"):
                DecomposedBackflow(*values, "monotone")

    def test_thermofield_norm_rejects_nan(self):
        with pytest.raises(ContractViolationError, match="norm nan"):
            ThermoFieldState(2, np.array([np.nan, 0.0, 0.0, 1.0]))


class TestDecomposedBackflow:
    def test_monotone_sectors(self):
        grid = TimeGrid.uniform(0.01, 2.0)
        s_cl = InfoSeries(grid, np.exp(-grid.points), "s_cl")
        s_qe = InfoSeries(grid, -0.1 * np.ones(grid.n), "s_qe")
        d = decomposed_backflow(s_cl, s_qe)
        assert (d.n_total, d.n_cl, d.n_qe) == (0.0, 0.0, 0.0)
        assert d.regime == "monotone"

    def test_constant_classical_sector(self):
        # s_cl constant, s_qe = sin^2(t) exp(-t): all backflow is intrinsic
        grid = TimeGrid.uniform(1e-3, 20.0)
        s_cl = InfoSeries(grid, np.full(grid.n, 0.3), "s_cl")
        vals = np.sin(grid.points) ** 2 * np.exp(-grid.points)
        s_qe = InfoSeries(grid, vals, "s_qe")
        d = decomposed_backflow(s_cl, s_qe)
        assert d.n_cl == 0.0
        assert d.n_qe > 0.0
        assert d.n_total == pytest.approx(d.n_qe, abs=1e-12)
        # analytic positive variation: rises from each zero (t = k pi) to the
        # following peak at tan t = 2
        t0 = math.atan(2.0)
        peaks = [t0 + k * math.pi for k in range(7) if t0 + k * math.pi <= 20.0]
        oracle = sum(0.8 * math.exp(-t) for t in peaks)
        assert d.n_qe == pytest.approx(oracle, abs=2e-3)

    def test_sharp_additivity_on_coincident_rises(self):
        # build a trajectory whose sector rise intervals coincide by
        # construction: p = 1/2 - a*c(t) with c > 0, so s_cl rises exactly
        # when c falls, which is exactly when s_qe rises
        grid = TimeGrid.uniform(1e-3, 12.0)
        c = 0.3 * np.exp(-grid.points) * (1.0 + 0.3 * np.cos(5.0 * grid.points))
        p = 0.5 - 0.4 * c
        s_cl, s_qe = two_state_series_from_trajectory(two_state_trajectory(grid, p, c))
        assert coincident_rise_intervals(s_cl, s_qe)
        d = decomposed_backflow(s_cl, s_qe)
        assert abs(d.n_total - (d.n_cl + d.n_qe)) <= 1e-6

    def test_detector_rejects_monotone_classical_sector(self):
        model = markov_two_state(lam=1.0, omega=5.0)
        grid = TimeGrid.uniform(1e-3, 10.0)
        traj = model.trajectory_fn(grid)
        s_cl, s_qe = two_state_series_from_trajectory(traj)
        assert not coincident_rise_intervals(s_cl, s_qe)

    def test_grid_mismatch_rejected(self):
        g1 = TimeGrid.uniform(0.1, 1.0)
        g2 = TimeGrid.uniform(0.2, 1.0)
        a = InfoSeries(g1, np.zeros(g1.n), "s_cl")
        b = InfoSeries(g2, np.zeros(g2.n), "s_qe")
        with pytest.raises(ContractViolationError):
            decomposed_backflow(a, b)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=24), st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=24))
    def test_subadditivity_property(self, xs, ys):
        n = min(len(xs), len(ys))
        grid = TimeGrid(np.arange(n) * 0.1)
        a = InfoSeries(grid, np.array(xs[:n]), "s_cl")
        b = InfoSeries(grid, np.array(ys[:n]), "s_qe")
        d = decomposed_backflow(a, b)  # raises if subadditivity fails
        assert d.n_total <= d.n_cl + d.n_qe + 1e-8

    def test_coherence_clipped_to_the_psd_bound(self):
        # |c|^2 above p(1 - p) by rounding, inside the trajectory's PSD
        # floor: the split is that of the pure state at the bound
        grid = TimeGrid.uniform(0.1, 1.0)
        traj = two_state_trajectory(grid, 0.9, math.sqrt(0.09 + 1e-11))
        s_cl, s_qe = two_state_series_from_trajectory(traj)
        assert np.all(np.isfinite(s_qe.values))
        assert np.max(np.abs(s_cl.values + s_qe.values)) <= 1e-15
