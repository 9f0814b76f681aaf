import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.special import erfcx

import backflow_lab.special_functions as sf
from backflow_lab import ContractViolationError, ml_envelope, mittag_leffler
from backflow_lab.special_functions import ml_envelope_grid, mittag_leffler_neg

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
        for z in (math.nan, -math.inf):
            with pytest.raises(ContractViolationError):
                mittag_leffler(0.5, z)
        for x in (math.inf, math.nan):
            with pytest.raises(ContractViolationError):
                mittag_leffler_neg(0.5, np.array([1.0, x]))

    def test_alpha_out_of_range(self):
        with pytest.raises(ContractViolationError):
            mittag_leffler(1.2, -1.0)
        with pytest.raises(ContractViolationError):
            mittag_leffler(0.0, -1.0)

    def test_batch_matches_scalar(self):
        xs = np.linspace(0.0, 60.0, 173)
        for alpha in (0.35, 0.65, 0.92):
            batch = mittag_leffler_neg(alpha, xs)
            scalar = np.array([mittag_leffler(alpha, -float(x)) for x in xs])
            assert np.array_equal(batch.view(np.int64), scalar.view(np.int64))
        pair = mittag_leffler_neg(0.8, np.array([4.471172675086376, 6.3]))
        assert pair[0].view(np.int64) == np.float64(mittag_leffler(0.8, -4.471172675086376)).view(np.int64)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.6, 0.8, 0.9, 0.99])
    def test_accuracy_near_unit_cancellation(self, alpha):
        # x up to 10^alpha, where x^(1/alpha) = 10: the Taylor series
        # cancels the most digits just below such a switch point
        for x in 10.0**alpha * np.array([0.99, 0.995, 0.999, 1.0]):
            assert abs(mittag_leffler(alpha, -x) - ml_reference(alpha, float(x))) <= 2e-13, x

    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99])
    def test_absolute_accuracy_wide_range(self, alpha):
        xs = np.geomspace(1e-6, 1e4, 11)
        ref = np.array([ml_reference(alpha, float(x)) for x in xs])
        assert np.max(np.abs(mittag_leffler_neg(alpha, xs) - ref)) <= 2e-13

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 0.99])
    def test_zero_exact_in_batch(self, alpha):
        vals = mittag_leffler_neg(alpha, np.array([0.0, 0.5, 0.0, 3.0, 0.0]))
        assert vals[0] == vals[2] == vals[4] == 1.0
        assert np.all(vals[[1, 3]] < 1.0)

    def test_alpha_one_is_exp_bitwise(self):
        xs = np.concatenate([[0.0], np.geomspace(1e-6, 700.0, 97)])
        assert np.array_equal(mittag_leffler_neg(1.0, xs).view(np.int64), np.exp(-xs).view(np.int64))

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.6, 0.8, 0.99])
    def test_bits_independent_of_order(self, alpha):
        # the nodes and weights depend on alpha only, so reordering or
        # splitting a batch moves each point's bits with it
        xs = np.random.default_rng(7).uniform(0.0, 50.0, 257)
        xs[::31] = 0.0
        whole = mittag_leffler_neg(alpha, xs)
        order = np.random.default_rng(8).permutation(xs.size)
        shuffled = mittag_leffler_neg(alpha, xs[order])
        halves = np.concatenate([mittag_leffler_neg(alpha, xs[:100]), mittag_leffler_neg(alpha, xs[100:])])
        assert np.array_equal(shuffled.view(np.int64), whole[order].view(np.int64))
        assert np.array_equal(halves.view(np.int64), whole.view(np.int64))

    def test_shape_preserved(self):
        xs = np.linspace(0.0, 10.0, 12).reshape(3, 4)
        vals = mittag_leffler_neg(0.6, xs)
        assert vals.shape == (3, 4)
        assert np.array_equal(vals.ravel(), mittag_leffler_neg(0.6, xs.ravel()))
        assert ml_envelope_grid(0.6, 1.3, xs).shape == (3, 4)
        assert mittag_leffler_neg(0.6, []).shape == (0,)


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
        ts = np.linspace(0.0, 1.0, 5)
        for lam in (math.nan, math.inf):
            with pytest.raises(ContractViolationError):
                ml_envelope_grid(0.5, lam, ts)
        for t in (math.nan, math.inf):
            with pytest.raises(ContractViolationError):
                ml_envelope_grid(0.5, 1.0, np.append(ts, t))


# (alpha, lam) pairs whose envelopes on 40001 points reach far into the tail
BAND_PAIRS = [(alpha, lam) for alpha in (0.3, 0.5, 0.6, 0.7, 0.9) for lam in (0.95, 1.05, 3.0)]
BAND_GRID = np.linspace(0.0, 40.0, 40001)


def envelope_digests():
    """sha256 of the bits of ``ml_envelope_grid`` on 40001 points, one per
    pair of ``BAND_PAIRS``."""
    return [hashlib.sha256(ml_envelope_grid(a, lam, BAND_GRID).tobytes()).hexdigest() for a, lam in BAND_PAIRS]


def child_result(call: str, blas_threads: int, module: str = "test_special_functions"):
    """JSON result of ``call`` (a function of the test module ``module``) in
    a child interpreter whose BLAS pools have ``blas_threads`` threads."""
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(sf.__file__))
    path = os.pathsep.join(p for p in (src, tests_dir, os.environ.get("PYTHONPATH")) if p)
    threads = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), str(blas_threads))
    code = f"import json, {module} as t; print(json.dumps(t.{call}()))"
    child = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=tests_dir,
        env=dict(os.environ, PYTHONPATH=path, **threads),
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.strip().splitlines()[-1])


class TestIntegralBand:
    def test_bits_independent_of_blas_threads(self):
        """The contour sum is elementwise array arithmetic, with no BLAS
        call that splits its rows over threads, so one and two BLAS threads
        give the same bits on every pair."""
        one, two = (child_result("envelope_digests", n) for n in (1, 2))
        assert len(one) == len(BAND_PAIRS) and one == two

    @pytest.mark.parametrize("n", [4001, 40001])
    def test_peak_memory_linear_in_points(self, n):
        """The sum runs over the 17 nodes with one complex and one real
        array of the points' size, so the peak holds no (points x nodes)
        matrix and no chunk of one: about 25 bytes a point for
        ``mittag_leffler_neg`` and 33 for ``ml_envelope_grid``."""
        ts = np.linspace(0.0, 40.0, n)
        mittag_leffler_neg(0.6, ts)  # warm the allocator outside the trace
        peaks = []
        for call in (lambda: mittag_leffler_neg(0.6, ts), lambda: ml_envelope_grid(0.6, 1.0, ts)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 32 * n + 256 * 1024
        assert peaks[1] <= 40 * n + 256 * 1024
