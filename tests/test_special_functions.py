import math

import numpy as np
import pytest
from scipy.special import erfcx

import backflow_lab.special_functions as sf
from backflow_lab import ContractViolationError, MlParams, ml_envelope, mittag_leffler
from backflow_lab.special_functions import (
    _asymptotic,
    _asymptotic_batch,
    gamma_lanczos,
    ml_envelope_grid,
    mittag_leffler_neg,
    reciprocal_gamma,
)

from _oracles import ml_reference

# E_{1/2}(-x) = exp(x^2) erfc(x), evaluated via the scaled erfc to avoid
# overflow; this pins the alpha = 1/2 line independently of the reference
ERFCX_HALF_LINE = [0.25, 1.0, 2.0, 5.0, 30.0, 100.0]


class TestOracleSelfConsistency:
    """The test-side reference must agree with the erfc identity before it
    is allowed to judge the implementation."""

    @pytest.mark.parametrize("x", ERFCX_HALF_LINE)
    def test_reference_matches_erfcx(self, x):
        assert ml_reference(0.5, x) == pytest.approx(float(erfcx(x)), abs=1e-13)

    def test_reference_routes_agree(self):
        # Taylor route (cancellation < 400) and quadrature route overlap
        val_series = ml_reference(0.7, 30.0)  # cancellation ~ 129, Taylor
        with_mp = ml_reference(0.7, 30.0, digits=40)
        assert val_series == pytest.approx(with_mp, abs=1e-15)


class TestGamma:
    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.5, 10.0, 50.5, 121.3])
    def test_against_stdlib(self, x):
        assert gamma_lanczos(x) == pytest.approx(math.gamma(x), rel=5e-13)

    def test_reciprocal_at_poles_is_zero(self):
        for k in range(0, 5):
            assert reciprocal_gamma(-float(k)) == 0.0

    def test_reciprocal_reflection(self):
        assert reciprocal_gamma(-0.5) == pytest.approx(1.0 / math.gamma(-0.5), rel=1e-12)


class TestMittagLeffler:
    def test_exponential_case(self):
        assert mittag_leffler(1.0, -1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_at_zero(self):
        assert mittag_leffler(0.7, 0.0) == 1.0

    def test_half_line_value(self):
        # oracle: exp(z^2) erfc(-z) identity at z = -1
        oracle = float(erfcx(1.0))
        value = mittag_leffler(0.5, -1.0)
        assert value == pytest.approx(oracle, abs=1e-10)
        assert abs(value - 0.4275836) <= 1e-6

    def test_alpha_one_matches_exp_relative(self):
        xs = np.linspace(0.0, 30.0, 301)
        vals = mittag_leffler_neg(1.0, xs)
        assert np.max(np.abs(vals / np.exp(-xs) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.3, 0.45, 0.5, 0.6, 0.7, 0.8, 0.9, 0.97])
    def test_absolute_accuracy_lattice(self, alpha):
        xs = [0.2, 0.5, 1.0, 2.0, 3.5, 5.0, 8.0, 13.0, 20.0, 40.0, 70.0, 100.0]
        for x in xs:
            ref = ml_reference(alpha, x)
            val = mittag_leffler(alpha, -x)
            assert abs(val - ref) <= 1e-8, f"alpha={alpha} x={x}"

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9, 1.0])
    def test_complete_monotonicity_probe(self, alpha):
        xs = np.linspace(0.0, 50.0, 1000)
        vals = mittag_leffler_neg(alpha, xs)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)
        assert np.all(vals <= 1.0)

    def test_power_law_tail(self):
        # leading algebraic decay 1/(sqrt(pi) x) at alpha = 1/2
        val = mittag_leffler(0.5, -100.0)
        lead = 1.0 / (math.sqrt(math.pi) * 100.0)
        assert abs(val - lead) / lead <= 0.05

    def test_positive_argument_rejected(self):
        with pytest.raises(ContractViolationError):
            mittag_leffler(0.5, 0.1)

    def test_alpha_out_of_range(self):
        with pytest.raises(ContractViolationError):
            mittag_leffler(1.2, -1.0)
        with pytest.raises(ContractViolationError):
            mittag_leffler(0.0, -1.0)

    def test_batch_matches_scalar(self):
        # the batched series keeps summing until every point converges, so
        # early points may pick up a few extra sub-1e-16 terms
        xs = np.linspace(0.0, 60.0, 173)
        for alpha in (0.35, 0.65, 0.92):
            batch = mittag_leffler_neg(alpha, xs)
            scalar = np.array([mittag_leffler(alpha, -float(x)) for x in xs])
            assert np.max(np.abs(batch - scalar)) <= 1e-13


class TestMlParams:
    def test_validation(self):
        with pytest.raises(ContractViolationError):
            MlParams(alpha=1.5)
        with pytest.raises(ContractViolationError):
            MlParams(alpha=0.5, series_cutoff=0)
        with pytest.raises(ContractViolationError):
            MlParams(alpha=0.5, switch_point=-1.0)

    def test_params_alpha_must_match(self):
        with pytest.raises(ContractViolationError):
            mittag_leffler(0.5, -1.0, params=MlParams(alpha=0.7))


class TestEnvelope:
    def test_exponential_reduction(self):
        assert ml_envelope(1.0, 2.0, 1.0) == pytest.approx(math.exp(-2.0), abs=1e-10)

    def test_at_time_zero(self):
        for alpha in (0.3, 0.7, 1.0):
            assert ml_envelope(alpha, 1.7, 0.0) == 1.0

    def test_half_alpha_value(self):
        assert ml_envelope(0.5, 1.0, 1.0) == pytest.approx(float(erfcx(1.0)), abs=1e-9)
        assert abs(ml_envelope(0.5, 1.0, 1.0) - 0.4275836) <= 1e-6

    def test_grid_form(self):
        ts = np.linspace(0.0, 20.0, 401)
        vals = ml_envelope_grid(0.6, 1.3, ts)
        assert vals[0] == 1.0
        assert np.all(vals > 0.0) and np.all(np.diff(vals) < 0.0)

    def test_invalid_inputs(self):
        with pytest.raises(ContractViolationError):
            ml_envelope(0.5, -1.0, 1.0)
        with pytest.raises(ContractViolationError):
            ml_envelope(0.5, 1.0, -1.0)


class TestAsymptoticBatch:
    """The batched asymptotic branch must reproduce the scalar series bit
    for bit, and the grid evaluator may call the scalar form only inside the
    branch bisection."""

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.6, 0.75, 0.9])
    @pytest.mark.parametrize("max_terms", [400, 7])
    def test_batch_equals_scalar_bitwise(self, alpha, max_terms):
        # x runs from inside the Taylor band (T = x^(1/alpha) <= 10) across
        # the integral band into the accepted asymptotic band
        xs = np.concatenate([np.geomspace(0.2, 400.0, 257), [10.0**alpha, 1.0, 50.0]])
        batch = _asymptotic_batch(alpha, xs, max_terms)
        scalar = np.array([_asymptotic(alpha, float(x), max_terms)[0] for x in xs])
        assert np.array_equal(batch.view(np.int64), scalar.view(np.int64))

    @pytest.mark.parametrize("n", [4001, 8001])
    def test_scalar_calls_only_in_bisection(self, monkeypatch, n):
        scalar_calls = []
        batched = []
        scalar, batch = sf._asymptotic, sf._asymptotic_batch

        def counting_scalar(alpha, x, max_terms):
            scalar_calls.append(x)
            return scalar(alpha, x, max_terms)

        def counting_batch(alpha, xs, max_terms):
            batched.append(len(xs))
            return batch(alpha, xs, max_terms)

        monkeypatch.setattr(sf, "_asymptotic", counting_scalar)
        monkeypatch.setattr(sf, "_asymptotic_batch", counting_batch)
        ml_envelope_grid(0.6, 1.0, np.linspace(0.0, 40.0, n))
        assert sum(batched) > n // 4  # the asymptotic band is well populated
        assert len(scalar_calls) <= 2 * math.log2(n) + 2
