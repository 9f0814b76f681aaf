"""One-parameter Mittag-Leffler function E_alpha(z) on the closed negative
real axis, and the fractional relaxation envelope E_alpha(-(lam*t)^alpha).

Evaluation strategy (per point, driven by the cancellation exponent
T = |z|^(1/alpha), which measures how many orders of magnitude the Taylor
series must cancel):

* ``alpha == 1``            -> ``exp(z)`` exactly.
* ``T <= TAYLOR_SWITCH``    -> Kahan-compensated Taylor series
                               sum_k z^k / Gamma(alpha*k + 1).
* large ``T``               -> algebraic asymptotic series
                               -sum_k z^(-k) / Gamma(1 - alpha*k), truncated
                               at the minimum of its smooth term envelope and
                               used only when its internal error estimate is
                               below ``ASYM_ACCEPT``.
* otherwise                 -> exact completely-monotone integral
                               representation evaluated by tanh-sinh
                               quadrature (see below), accurate to ~1e-15.

The points of the last two branches are sorted by x and split once: the
asymptotic error estimate falls monotonically in x, so a bisection with the
scalar series finds the first accepted point.  The integral band shares its
quadrature nodes and is summed in blocks of ``ML_CHUNK_POINTS`` points, so
each (points x nodes) weight matrix stays at 4 MB; weights below exp(-708)
are exactly 0, never subnormal (subnormal exp results and products take a
slow path in numpy and BLAS), which leaves every sum unchanged.  The
asymptotic band is summed as one batch that advances the term index for all
points together and evaluates each Gamma factor once per term, with
per-point arithmetic identical to the scalar series.

The integral form used is obtained from the spectral representation of
E_alpha(-x) by absorbing the Lorentzian denominator into the integration
variable:

    E_alpha(-x) = (1/(alpha*pi)) * int_{pi/2 - alpha*pi}^{pi/2}
                  exp(-T * v(th)^(1/alpha)) dth,
    v(th) = -cos(alpha*pi) + sin(alpha*pi) * tan(th),    T = x^(1/alpha),

whose integrand is bounded, positive, and free of endpoint singularities,
so fixed tanh-sinh nodes converge fast for every alpha in (0, 1).

Gamma comes from ``math.gamma`` and ``math.lgamma``, with the reflection
formula supplying 1/Gamma below 1/2 (exactly zero at the poles).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ContractViolationError

# Branch thresholds and series lengths, validated against high-precision
# references.  The switch is on the cancellation exponent T, not on |z|,
# because the series' cancellation depends on alpha.
TAYLOR_SWITCH = 10.0     # max cancellation exponent for the plain series
TAYLOR_TERMS = 800       # term cap of the Taylor series
ASYM_TERMS = 400         # term cap of the asymptotic series
ASYM_ACCEPT = 1e-12      # asymptotic branch used only below this estimate
_LN_PI = 1.1447298858494002
# integral-band points per quadrature block: bounds each (points x nodes)
# temporary at 4 MB (2048 x 256 doubles) whatever the band size
ML_CHUNK_POINTS = 2048
_EXP_NORMAL_ARG = 708.0  # exp(-x) for x above this is negligible here
_GAMMA_MAX = 171.6       # math.gamma overflows above 171.62
_LN_FLOAT_MAX = math.log(sys.float_info.max)


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x) for real x from ``math.gamma``/``math.lgamma``: exactly
    zero at the poles x = 0, -1, -2, ..., by reflection below 1/2, and 0 or
    +-inf, never an exception, where the value leaves the float range."""
    if x > 0.5:
        return 1.0 / math.gamma(x) if x < _GAMMA_MAX else math.exp(-math.lgamma(x))
    if x == math.floor(x):
        return 0.0
    # 1/Gamma(x) = sin(pi x) Gamma(1 - x) / pi
    s = math.sin(math.pi * x)
    if 1.0 - x < _GAMMA_MAX:
        return s * math.gamma(1.0 - x) / math.pi
    ln = math.log(abs(s) / math.pi) + math.lgamma(1.0 - x)
    return math.copysign(math.exp(ln) if ln < _LN_FLOAT_MAX else math.inf, s)


def _taylor_batch(alpha: float, xs: np.ndarray, max_terms: int) -> np.ndarray:
    # Vectorized compensated Taylor summation over many x at fixed alpha.
    s = np.ones_like(xs)
    c = np.zeros_like(xs)
    p = np.ones_like(xs)
    for k in range(1, max_terms):
        p = p * xs
        rg = reciprocal_gamma(alpha * k + 1.0)
        term = (p if k % 2 == 0 else -p) * rg
        y = term - c
        t = s + y
        c = (t - s) - y
        s = t
        if k > 3 and np.all(np.abs(term) < 1e-18 * np.maximum(np.abs(s), 1e-30)):
            break
    return s


def _asymptotic(alpha: float, x: float, max_terms: int):
    # Algebraic large-|z| series with envelope-driven optimal truncation.
    # Gamma(1 - alpha*k) has poles where the true series coefficient is an
    # exact zero, so truncation is steered by the smooth envelope
    # x^(-k) * Gamma(alpha*k) / pi instead of computed term magnitudes.
    lnx = math.log(x)
    s = 0.0
    c = 0.0
    p = 1.0
    prev_env = None
    min_env = math.inf
    for k in range(1, max_terms):
        ln_env = -k * lnx + math.lgamma(alpha * k) - _LN_PI
        if prev_env is not None and ln_env > prev_env:
            break
        p *= -1.0 / x
        term = -p * reciprocal_gamma(1.0 - alpha * k)
        y = term - c
        t = s + y
        c = (t - s) - y
        s = t
        prev_env = ln_env
        min_env = min(min_env, ln_env)
        if ln_env < -45.0:
            break
    estimate = math.exp(min_env) if math.isfinite(min_env) else math.inf
    if alpha > 2.0 / 3.0:
        # Guard band for the oscillatory exponentially small contribution
        # that the purely algebraic series cannot represent.
        T = x ** (1.0 / alpha)
        estimate += (2.0 / alpha) * math.exp(min(T * math.cos(math.pi / alpha), 50.0))
    return s, estimate


def _asymptotic_batch(alpha: float, xs: np.ndarray, max_terms: int) -> np.ndarray:
    # Values of _asymptotic for many x at fixed alpha: k advances for all
    # points at once, so the Gamma factors are computed once per k, and a
    # point that has stopped keeps its sums (np.copyto where live) while its
    # discarded arithmetic may overflow.  Every live point sees the scalar
    # sequence of operations (same Kahan update, same stops), hence
    # bit-identical sums; ln x comes from math.log because np.log may differ
    # by an ulp and move a truncation.
    xs = np.asarray(xs, dtype=float)
    lnx = np.array([math.log(x) for x in xs.tolist()])
    neg_inv = -1.0 / xs
    s = np.zeros_like(xs)
    c = np.zeros_like(xs)
    p = np.ones_like(xs)
    prev_env = np.full_like(xs, math.inf)
    live = np.ones(xs.shape, dtype=bool)
    for k in range(1, max_terms):
        if not live.any():
            break
        ln_env = -k * lnx + math.lgamma(alpha * k) - _LN_PI
        live &= ~(ln_env > prev_env)
        with np.errstate(all="ignore"):
            pk = p * neg_inv
            term = -pk * reciprocal_gamma(1.0 - alpha * k)
            y = term - c
            t = s + y
            np.copyto(c, (t - s) - y, where=live)
        np.copyto(s, t, where=live)
        np.copyto(p, pk, where=live)
        np.copyto(prev_env, ln_env, where=live)
        live &= ~(ln_env < -45.0)
    return s


def _tanh_sinh_theta(alpha: float, xs: np.ndarray, max_level: int = 10) -> np.ndarray:
    # Vectorized over xs (all > 0) at fixed alpha.
    xs = np.asarray(xs, dtype=float)
    T = xs ** (1.0 / alpha)
    a = math.pi / 2 - alpha * math.pi
    b = math.pi / 2
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    ca = math.cos(alpha * math.pi)
    sa = math.sin(alpha * math.pi)

    def node_sum(u: np.ndarray) -> np.ndarray:
        su = np.sinh(u)
        w = half * (math.pi / 2) * np.cosh(u) / np.cosh((math.pi / 2) * su) ** 2
        th = mid + half * np.tanh((math.pi / 2) * su)
        v = np.maximum(-ca + sa * np.tan(th), 0.0) ** (1.0 / alpha)
        out = np.empty_like(T)
        for lo in range(0, T.size, ML_CHUNK_POINTS):
            # arg[i, j] = T[i] * v(th_j)^(1/alpha); a weight below exp(-708)
            # cannot move a row sum (E_alpha(-x) times O(1) factors), so it
            # is exactly 0 rather than a subnormal, slow to make and to sum
            arg = np.multiply.outer(T[lo : lo + ML_CHUNK_POINTS], v)
            arg[arg > _EXP_NORMAL_ARG] = np.inf
            np.negative(arg, out=arg)
            np.exp(arg, out=arg)
            # einsum, not a GEMV: its row sums do not depend on the BLAS
            # thread count
            out[lo : lo + ML_CHUNK_POINTS] = np.einsum("ij,j->i", arg, w)
        return out

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


def mittag_leffler(alpha: float, z: float) -> float:
    """E_alpha(z) for real z <= 0 and alpha in (0, 1]; the value
    :func:`mittag_leffler_neg` gives at x = -z.

    Absolute accuracy is better than 1e-8 for |z| <= 100 and
    alpha in [0.3, 1]; the alpha = 1 path is exp(z) exactly.
    """
    return float(mittag_leffler_neg(alpha, np.array([-float(z)]))[0])


def mittag_leffler_neg(alpha: float, xs: np.ndarray) -> np.ndarray:
    """Vectorized E_alpha(-x) for an array of x >= 0 (shared alpha).

    Points are dispatched per-branch; the integral branch shares its
    quadrature nodes across all points it serves.
    """
    if not 0.0 < alpha <= 1.0:
        raise ContractViolationError(f"alpha must lie in (0, 1], got {alpha}")
    xs = np.asarray(xs, dtype=float)
    if np.any(xs < 0):
        raise ContractViolationError("x values must be >= 0")
    if alpha == 1.0:
        return np.exp(-xs)
    flat = xs.ravel()
    res = np.empty(flat.shape, dtype=float)
    zero = flat == 0.0
    res[zero] = 1.0
    rest = ~zero
    T = np.zeros_like(flat)
    T[rest] = flat[rest] ** (1.0 / alpha)
    taylor_mask = rest & (T <= TAYLOR_SWITCH)
    if np.any(taylor_mask):
        res[taylor_mask] = _taylor_batch(alpha, flat[taylor_mask], TAYLOR_TERMS)
    hard_idx = np.nonzero(rest & ~taylor_mask)[0]
    if hard_idx.size:
        # the asymptotic error estimate is monotone decreasing in x at fixed
        # alpha, so one bisection splits the sorted points into an integral
        # band and an asymptotic band
        order = hard_idx[np.argsort(flat[hard_idx])]
        xs_sorted = flat[order]

        def passes(x: float) -> bool:
            return _asymptotic(alpha, x, ASYM_TERMS)[1] < ASYM_ACCEPT

        if passes(xs_sorted[0]):
            split = 0
        elif not passes(xs_sorted[-1]):
            split = xs_sorted.size
        else:
            lo, hi = 0, xs_sorted.size - 1
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if passes(xs_sorted[mid]):
                    hi = mid
                else:
                    lo = mid
            split = hi
        if split > 0:
            res[order[:split]] = _tanh_sinh_theta(alpha, flat[order[:split]])
        res[order[split:]] = _asymptotic_batch(alpha, flat[order[split:]], ASYM_TERMS)
    return res.reshape(xs.shape)


def ml_envelope(alpha: float, lam: float, t: float) -> float:
    """Fractional relaxation envelope E_alpha(-(lam*t)^alpha) at one time:
    :func:`ml_envelope_grid` at ``t``.

    Equals exp(-lam*t) at alpha = 1; always in (0, 1] for t >= 0.
    """
    return float(ml_envelope_grid(alpha, lam, np.array([float(t)]))[0])


def ml_envelope_grid(alpha: float, lam: float, ts: np.ndarray) -> np.ndarray:
    """Fractional relaxation envelope E_alpha(-(lam*t)^alpha) over an array
    of times."""
    if lam <= 0:
        raise ContractViolationError(f"lam must be positive, got {lam}")
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0):
        raise ContractViolationError("times must be >= 0")
    return mittag_leffler_neg(alpha, (lam * ts) ** alpha)
