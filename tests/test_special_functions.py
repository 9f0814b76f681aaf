import json
import math
import os
import subprocess
import sys

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


def unchunked_tanh_sinh_theta(alpha, xs, max_level=10):
    """The integral branch before chunking: one (points x nodes) matrix per
    level, negligible weights clamped to the subnormal exp(-745)."""
    xs = np.asarray(xs, dtype=float)
    T = xs ** (1.0 / alpha)
    a = math.pi / 2 - alpha * math.pi
    b = math.pi / 2
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    ca = math.cos(alpha * math.pi)
    sa = math.sin(alpha * math.pi)

    def node_sum(u):
        su = np.sinh(u)
        w = half * (math.pi / 2) * np.cosh(u) / np.cosh((math.pi / 2) * su) ** 2
        th = mid + half * np.tanh((math.pi / 2) * su)
        v = np.maximum(-ca + sa * np.tan(th), 0.0)
        arg = np.minimum(T[:, None] * v[None, :] ** (1.0 / alpha), 745.0)
        return np.exp(-arg) @ w

    h = 1.0
    total = h * node_sum(np.arange(-4.0, 4.0 + 1e-12, h))
    for _ in range(1, max_level):
        h *= 0.5
        new = node_sum(np.arange(-4.0 + h, 4.0, 2 * h))
        refined = 0.5 * total + h * new
        if np.all(np.abs(refined - total) <= 1e-15 * np.maximum(np.abs(refined), 1e-300) + 1e-17):
            total = refined
            break
        total = refined
    return total / (alpha * math.pi)


def integral_band_mismatches():
    """{"mismatches": [(alpha, lam), ...], "largest_band": n}: the pairs for
    which the integral branch of ``ml_envelope_grid`` on 40001 points
    differs in any bit from :func:`unchunked_tanh_sinh_theta`."""
    ts = np.linspace(0.0, 40.0, 40001)
    bands = []
    mismatches = []
    current = sf._tanh_sinh_theta
    for alpha in (0.3, 0.5, 0.6, 0.7, 0.9):
        for lam in (0.95, 1.05, 3.0):

            def compared(a, xs, max_level=10):
                got = current(a, xs, max_level)
                want = unchunked_tanh_sinh_theta(a, xs, max_level)
                bands.append(len(xs))
                if not np.array_equal(got.view(np.int64), want.view(np.int64)):
                    mismatches.append((alpha, lam))
                return got

            sf._tanh_sinh_theta = compared
            try:
                ml_envelope_grid(alpha, lam, ts)
            finally:
                sf._tanh_sinh_theta = current
    return {"mismatches": mismatches, "largest_band": max(bands)}


class TestIntegralBand:
    def test_bit_identical_to_unchunked_sum(self):
        """Chunking the band and zeroing the weights past exp(-708) leave
        every bit in place.  Runs in a child with one BLAS thread: a
        threaded GEMV splits its rows by matrix size, so the last bit of a
        row sum would depend on the thread count, chunked or not."""
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(sf.__file__))
        path = os.pathsep.join(p for p in (src, tests_dir, os.environ.get("PYTHONPATH")) if p)
        threads = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")
        code = "import json, test_special_functions as t; print(json.dumps(t.integral_band_mismatches()))"
        child = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            cwd=tests_dir,
            env=dict(os.environ, PYTHONPATH=path, **threads),
        )
        assert child.returncode == 0, child.stderr
        result = json.loads(child.stdout.strip().splitlines()[-1])
        assert result["mismatches"] == []
        assert result["largest_band"] > 4 * sf.ML_CHUNK_POINTS  # several chunks

    def test_node_matrices_hold_one_chunk(self, monkeypatch):
        rows = []

        class Outer:
            def __getattr__(self, name):
                return getattr(np.multiply, name)

            def outer(self, a, b):
                rows.append(len(a))
                return np.multiply.outer(a, b)

        class RecordingNumpy:
            multiply = Outer()

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(sf, "np", RecordingNumpy())
        ml_envelope_grid(0.6, 1.0, np.linspace(0.0, 40.0, 40001))
        assert max(rows) == sf.ML_CHUNK_POINTS
        assert sum(rows) > 4 * max(rows)
