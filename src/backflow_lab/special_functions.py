"""One-parameter Mittag-Leffler function E_alpha(z) on the closed negative
real axis, and the fractional relaxation envelope E_alpha(-(lam*t)^alpha).

Evaluation strategy (per point, driven by the cancellation exponent
T = |z|^(1/alpha), which measures how many orders of magnitude the Taylor
series must cancel):

* ``alpha == 1``            -> ``exp(z)`` exactly.
* ``T <= switch_point``     -> Kahan-compensated Taylor series
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

Gamma is evaluated in-repo by the usual 9-term Lanczos approximation
(g = 7), with the reflection formula supplying 1/Gamma at nonpositive
arguments (exactly zero at the poles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError

# Branch thresholds, validated against high-precision references.
TAYLOR_SWITCH = 10.0     # max cancellation exponent for the plain series
ASYM_ACCEPT = 1e-12      # asymptotic branch used only below this estimate
_LN_PI = 1.1447298858494002
# integral-band points per quadrature block: bounds each (points x nodes)
# temporary at 4 MB (2048 x 256 doubles) whatever the band size
ML_CHUNK_POINTS = 2048
_EXP_NORMAL_ARG = 708.0  # exp(-x) for x above this is negligible here

_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


@dataclass(frozen=True)
class MlParams:
    """Tuning knobs for the Mittag-Leffler evaluator.

    ``switch_point`` is the cancellation-exponent threshold T = |z|^(1/alpha)
    below which the plain Taylor series is used (an |z|-based switch is not
    usable because the series' cancellation depends on alpha).
    """

    alpha: float
    series_cutoff: int = 800
    asym_terms: int = 400
    switch_point: float = TAYLOR_SWITCH

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ContractViolationError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.series_cutoff < 1 or self.asym_terms < 1:
            raise ContractViolationError("series cutoffs must be >= 1")
        if self.switch_point <= 0:
            raise ContractViolationError("switch_point must be positive")


def gamma_lanczos(x: float) -> float:
    """Gamma(x) for real x (reflection below 1/2); inf at the poles."""
    if x < 0.5:
        s = math.sin(math.pi * x)
        if s == 0.0:
            return math.inf
        return math.pi / (s * gamma_lanczos(1.0 - x))
    x -= 1.0
    a = _LANCZOS[0]
    t = x + 7.5
    for i in range(1, 9):
        a += _LANCZOS[i] / (x + i)
    return math.sqrt(2.0 * math.pi) * t ** (x + 0.5) * math.exp(-t) * a


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x) for real x, exactly zero at x = 0, -1, -2, ..."""
    if x > 0.5:
        return 1.0 / gamma_lanczos(x)
    if x == math.floor(x):
        return 0.0
    return math.sin(math.pi * x) * gamma_lanczos(1.0 - x) / math.pi


def _lgamma_pos(x: float) -> float:
    return math.lgamma(x)


def _taylor(alpha: float, x: float, max_terms: int) -> float:
    # E_alpha(-x) by compensated summation; safe only for small T.
    s = 1.0
    c = 0.0
    p = 1.0
    for k in range(1, max_terms):
        p *= x
        if not math.isfinite(p):
            break
        term = (p if k % 2 == 0 else -p) * reciprocal_gamma(alpha * k + 1.0)
        y = term - c
        t = s + y
        c = (t - s) - y
        s = t
        if k > 3 and abs(term) < 1e-18 * max(abs(s), 1e-30):
            return s
    return s


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
        ln_env = -k * lnx + _lgamma_pos(alpha * k) - _LN_PI
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
    # still-active points at once, so the Gamma factors are computed once
    # per k.  Every point sees the scalar sequence of operations (same
    # Kahan update, same stops), hence bit-identical sums; ln x comes from
    # math.log because np.log may differ by an ulp and move a truncation.
    xs = np.asarray(xs, dtype=float)
    lnx = np.array([math.log(x) for x in xs.tolist()])
    s = np.zeros_like(xs)
    c = np.zeros_like(xs)
    p = np.ones_like(xs)
    prev_env = np.full_like(xs, math.inf)
    live = np.arange(xs.size)
    for k in range(1, max_terms):
        if live.size == 0:
            break
        ln_env = -k * lnx[live] + _lgamma_pos(alpha * k) - _LN_PI
        go = ~(ln_env > prev_env[live])
        live, ln_env = live[go], ln_env[go]
        pk = p[live] * (-1.0 / xs[live])
        term = -pk * reciprocal_gamma(1.0 - alpha * k)
        y = term - c[live]
        t = s[live] + y
        c[live] = (t - s[live]) - y
        s[live] = t
        p[live] = pk
        prev_env[live] = ln_env
        live = live[~(ln_env < -45.0)]
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
            out[lo : lo + ML_CHUNK_POINTS] = arg @ w
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


def mittag_leffler(alpha: float, z: float, params: MlParams | None = None) -> float:
    """E_alpha(z) for real z <= 0 and alpha in (0, 1].

    Absolute accuracy is better than 1e-8 for |z| <= 100 and
    alpha in [0.3, 1]; the alpha = 1 path is exp(z) exactly.
    """
    if params is None:
        params = MlParams(alpha)
    elif params.alpha != alpha:
        raise ContractViolationError("params.alpha disagrees with alpha argument")
    if z > 0:
        raise ContractViolationError(f"positive argument z={z} is out of scope")
    if z == 0.0:
        return 1.0
    if alpha == 1.0:
        return math.exp(z)
    x = -float(z)
    T = x ** (1.0 / alpha)
    if T <= params.switch_point:
        return _taylor(alpha, x, params.series_cutoff)
    value, estimate = _asymptotic(alpha, x, params.asym_terms)
    if estimate < ASYM_ACCEPT:
        return value
    return float(_tanh_sinh_theta(alpha, np.array([x]))[0])


def mittag_leffler_neg(alpha: float, xs: np.ndarray, params: MlParams | None = None) -> np.ndarray:
    """Vectorized E_alpha(-x) for an array of x >= 0 (shared alpha).

    Points are dispatched per-branch; the integral branch shares its
    quadrature nodes across all points it serves.
    """
    if params is None:
        params = MlParams(alpha)
    xs = np.asarray(xs, dtype=float)
    if np.any(xs < 0):
        raise ContractViolationError("x values must be >= 0")
    out = np.empty(xs.shape, dtype=float)
    flat = xs.ravel()
    res = np.empty(flat.shape, dtype=float)
    if alpha == 1.0:
        res[:] = np.exp(-flat)
        out[:] = res.reshape(xs.shape)
        return out
    zero = flat == 0.0
    res[zero] = 1.0
    rest = ~zero
    T = np.zeros_like(flat)
    T[rest] = flat[rest] ** (1.0 / alpha)
    taylor_mask = rest & (T <= params.switch_point)
    if np.any(taylor_mask):
        res[taylor_mask] = _taylor_batch(alpha, flat[taylor_mask], params.series_cutoff)
    hard_idx = np.nonzero(rest & ~taylor_mask)[0]
    if hard_idx.size:
        # the asymptotic error estimate is monotone decreasing in x at fixed
        # alpha, so one bisection splits the sorted points into an integral
        # band and an asymptotic band
        order = hard_idx[np.argsort(flat[hard_idx])]
        xs_sorted = flat[order]

        def passes(x: float) -> bool:
            return _asymptotic(alpha, x, params.asym_terms)[1] < ASYM_ACCEPT

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
        res[order[split:]] = _asymptotic_batch(alpha, flat[order[split:]], params.asym_terms)
    out[:] = res.reshape(xs.shape)
    return out


def ml_envelope(alpha: float, lam: float, t: float, params: MlParams | None = None) -> float:
    """Fractional relaxation envelope E_alpha(-(lam*t)^alpha).

    Equals exp(-lam*t) at alpha = 1; always in (0, 1] for t >= 0.
    """
    if lam <= 0:
        raise ContractViolationError(f"lam must be positive, got {lam}")
    if t < 0:
        raise ContractViolationError(f"t must be >= 0, got {t}")
    return mittag_leffler(alpha, -((lam * t) ** alpha), params)


def ml_envelope_grid(alpha: float, lam: float, ts: np.ndarray, params: MlParams | None = None) -> np.ndarray:
    """Vectorized :func:`ml_envelope` over an array of times."""
    if lam <= 0:
        raise ContractViolationError(f"lam must be positive, got {lam}")
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0):
        raise ContractViolationError("times must be >= 0")
    return mittag_leffler_neg(alpha, (lam * ts) ** alpha, params)
