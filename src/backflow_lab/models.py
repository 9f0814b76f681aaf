"""Built-in analytically anchored minimal models.

Every model is a :class:`ModelSpec` bundling its parameters with the
capabilities it can provide (closed-form series, memory kernel, time-local
generator, exact propagator, higher-dimensional embedding), so the rest of
the pipeline is capability-driven rather than model-aware.

Two-state conventions.  The reduced doubled state is parametrized as
[[p(t), c(t)], [c(t), 1 - p(t)]] with intrinsic parameter b_qe = c^2.  One
relaxation envelope env(t) drives both sectors:

    p(t)    = p_eq + (p0 - p_eq) * env(t)
    c(t)    = (1/2) * env(t) * sin(omega * t),      b_qe = c^2

with env(t) = exp(-lam*t) for the Markov model and
env(t) = E_alpha(-(lam*t)^alpha) for the fractional one, so the two
families coincide identically at alpha = 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .errors import ContractViolationError
from .propagation import (
    MemoryKernel,
    PropagatorFamily,
    TclGenerator,
    apply_family,
    rk4_power_table,
)
from .special_functions import ml_envelope_grid
from .states import (
    DensityMatrix,
    ProbabilityVector,
    RateMatrix,
    TimeGrid,
    Trajectory,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)


@dataclass(frozen=True)
class ModelSpec:
    """A named model instance plus everything it knows how to produce."""

    name: str
    kind: str
    params: dict
    outputs: tuple
    description: str = ""
    kernel: MemoryKernel | None = field(default=None, repr=False, compare=False)
    tcl_generator: TclGenerator | None = field(default=None, repr=False, compare=False)
    initial_state: object = field(default=None, repr=False, compare=False)
    reference_state: object = field(default=None, repr=False, compare=False)
    trajectory_fn: Callable | None = field(default=None, repr=False, compare=False)
    propagator_fn: Callable | None = field(default=None, repr=False, compare=False)
    b_qe_fn: Callable | None = field(default=None, repr=False, compare=False)


def _two_state_trajectory(grid: TimeGrid, p: np.ndarray, c: np.ndarray) -> Trajectory:
    states = np.empty((grid.n, 2, 2), dtype=complex)
    states[:, 0, 0] = p
    states[:, 1, 1] = 1.0 - p
    states[:, 0, 1] = c
    states[:, 1, 0] = np.conj(c)
    return Trajectory(grid, states, "quantum")


def _envelope_model(
    name: str,
    env_fn: Callable[[np.ndarray], np.ndarray],
    lam: float,
    omega: float,
    p0: float,
    p_eq: float,
    extra_params: dict,
    description: str,
) -> ModelSpec:
    def trajectory(grid: TimeGrid) -> Trajectory:
        env = env_fn(grid.points)
        p = p_eq + (p0 - p_eq) * env
        c = 0.5 * env * np.sin(omega * grid.points)
        return _two_state_trajectory(grid, p, c)

    def b_qe(ts: np.ndarray) -> np.ndarray:
        env = env_fn(np.asarray(ts, dtype=float))
        return 0.25 * env**2 * np.sin(omega * np.asarray(ts)) ** 2

    reference = DensityMatrix(np.diag([p_eq, 1.0 - p_eq]).astype(complex))
    initial = DensityMatrix(np.array([[p0, 0.0], [0.0, 1.0 - p0]], dtype=complex))
    return ModelSpec(
        name=name,
        kind="quantum",
        params=dict(extra_params, lam=lam, omega=omega, p0=p0, p_eq=p_eq),
        outputs=("closed_form", "netfd_split"),
        description=description,
        initial_state=initial,
        reference_state=reference,
        trajectory_fn=trajectory,
        b_qe_fn=b_qe,
    )


def markov_two_state(lam: float = 1.0, omega: float = 1.0, p0: float = 0.5, p_eq: float = 0.5) -> ModelSpec:
    """Exponential-envelope two-state relaxation with oscillating intrinsic
    coherence c(t) = (1/2) e^{-lam t} sin(omega t), b_qe = c^2."""
    check_params("markov_two_state", dict(lam=lam, omega=omega, p0=p0, p_eq=p_eq))
    env_fn = lambda ts: np.exp(-lam * np.asarray(ts, dtype=float))
    return _envelope_model(
        "markov_two_state", env_fn, lam, omega, p0, p_eq, {},
        "two-state relaxation with exponential envelope",
    )


def fractional_two_state(
    alpha: float = 0.7, lam: float = 1.0, omega: float = 1.0, p0: float = 0.5, p_eq: float = 0.5
) -> ModelSpec:
    """Mittag-Leffler-envelope two-state relaxation; reduces identically to
    :func:`markov_two_state` at alpha = 1."""
    check_params("fractional_two_state", dict(alpha=alpha, lam=lam, omega=omega, p0=p0, p_eq=p_eq))
    env_fn = lambda ts: ml_envelope_grid(alpha, lam, np.asarray(ts, dtype=float))
    return _envelope_model(
        "fractional_two_state", env_fn, lam, omega, p0, p_eq, {"alpha": alpha},
        "two-state relaxation with Mittag-Leffler envelope",
    )


def symmetric_rate_matrix(n: int) -> RateMatrix:
    """All-to-all generator with unit off-diagonal rates (zero column sums)."""
    w = np.ones((n, n)) - n * np.eye(n)
    return RateMatrix(w)


def stationary_distribution(w: RateMatrix) -> ProbabilityVector:
    """Normalized nonnegative null vector of the rate matrix."""
    _, _, vt = np.linalg.svd(w.entries)
    v = vt[-1].real
    if np.sum(v) < 0:
        v = -v
    if np.min(v) < -1e-10:
        raise ContractViolationError("rate matrix has no nonnegative stationary vector")
    v = np.clip(v, 0.0, None)
    return ProbabilityVector(v / np.sum(v))


def classical_exp_kernel(
    n: int = 2,
    gamma: float = 1.0,
    tau_m: float = 1.0,
    w_base: RateMatrix | None = None,
    p0: ProbabilityVector | None = None,
) -> ModelSpec:
    """Classical dynamics with exponential memory kernel
    K(tau) = (gamma/tau_m) exp(-tau/tau_m) W_base, together with its exact
    Markovian embedding (auxiliary flux variables y, initialized to zero):

        dp/dt = y,   dy/dt = (gamma/tau_m) W_base p - y/tau_m.
    """
    check_params("classical_exp_kernel", dict(n=n, gamma=gamma, tau_m=tau_m))
    if w_base is None:
        w_base = symmetric_rate_matrix(n)
    if w_base.dim != n:
        raise ContractViolationError(f"w_base dimension {w_base.dim} != n={n}")
    if p0 is None:
        e0 = np.zeros(n)
        e0[0] = 1.0
        p0 = ProbabilityVector(e0)
    wb = np.asarray(w_base.entries)

    def kernel_lags(taus: np.ndarray) -> np.ndarray:
        # math.exp per lag: np.exp differs from it in the last bit on some lags
        decay = np.array([(gamma / tau_m) * math.exp(-tau / tau_m) for tau in taus.tolist()])
        return decay[:, None, None] * wb

    kernel = MemoryKernel(
        dim=n,
        kind="classical",
        evaluate=lambda tau: (gamma / tau_m) * math.exp(-tau / tau_m) * wb,
        decay_scale=tau_m,
        evaluate_lags=kernel_lags,
    )

    embed = np.zeros((2 * n, 2 * n))
    embed[:n, n:] = np.eye(n)
    embed[n:, :n] = (gamma / tau_m) * wb
    embed[n:, n:] = -np.eye(n) / tau_m

    last = {}  # the family of the last grid, shared by both functions

    def embedded_propagator(grid: TimeGrid) -> PropagatorFamily:
        if last.get("grid") is not grid:
            y0 = np.zeros((2 * n, n))
            y0[:n] = np.eye(n)
            raw = rk4_power_table(embed, y0, grid)
            last.update(grid=grid, family=PropagatorFamily(grid, raw[:, :n, :], "classical", n))
        return last["family"]

    def embedded_trajectory(grid: TimeGrid) -> Trajectory:
        return apply_family(embedded_propagator(grid), p0)

    return ModelSpec(
        name="classical_exp_kernel",
        kind="classical",
        params={"n": n, "gamma": gamma, "tau_m": tau_m},
        outputs=("kernel", "embedding", "propagator"),
        description="classical master equation with exponential memory kernel",
        kernel=kernel,
        initial_state=p0,
        reference_state=stationary_distribution(w_base),
        trajectory_fn=embedded_trajectory,
        propagator_fn=embedded_propagator,
    )


def exp_kernel_difference_mode(gamma: float, tau_m: float, ts: np.ndarray) -> np.ndarray:
    """Closed-form population-difference relaxation x(t)/x(0) for the
    symmetric two-state exponential-kernel model, solving
    x'' + x'/tau_m + (2 gamma/tau_m) x = 0 with x'(0) = 0."""
    check_params("classical_exp_kernel", dict(gamma=gamma, tau_m=tau_m))
    ts = np.asarray(ts, dtype=float)
    disc = 1.0 / tau_m**2 - 8.0 * gamma / tau_m
    if abs(disc) < 1e-14:
        r = -0.5 / tau_m
        return np.exp(r * ts) * (1.0 - r * ts)
    if disc < 0:
        om = 0.5 * math.sqrt(-disc)
        return np.exp(-ts / (2 * tau_m)) * (
            np.cos(om * ts) + np.sin(om * ts) / (2 * om * tau_m)
        )
    root = 0.5 * math.sqrt(disc)
    r1 = -0.5 / tau_m + root
    r2 = -0.5 / tau_m - root
    return (r2 * np.exp(r1 * ts) - r1 * np.exp(r2 * ts)) / (r2 - r1)


def exp_kernel_zero_crossing(gamma: float, tau_m: float) -> float | None:
    """First zero of the difference mode; None in the overdamped regime."""
    disc = 1.0 / tau_m**2 - 8.0 * gamma / tau_m
    if disc >= 0:
        return None
    om = 0.5 * math.sqrt(-disc)
    return (math.pi - math.atan(2.0 * om * tau_m)) / om


def classical_fractional(
    gamma: float = 1.0, alpha: float = 0.7, n: int = 2, p0: ProbabilityVector | None = None
) -> ModelSpec:
    """Symmetric two-state relaxation whose difference mode follows the
    Mittag-Leffler envelope x(t) = x(0) E_alpha(-(gamma t)^alpha); reduces
    to exp(-gamma t) at alpha = 1."""
    # the schema pins n to 2: the closed form covers the symmetric 2-state case only
    check_params("classical_fractional", dict(gamma=gamma, alpha=alpha, n=n))
    if p0 is None:
        p0 = ProbabilityVector(np.array([1.0, 0.0]))
    x0 = float(p0.entries[0] - p0.entries[1])

    def trajectory(grid: TimeGrid) -> Trajectory:
        x = x0 * ml_envelope_grid(alpha, gamma, grid.points)
        states = np.stack([(1.0 + x) / 2.0, (1.0 - x) / 2.0], axis=1)
        return Trajectory(grid, states, "classical")

    return ModelSpec(
        name="classical_fractional",
        kind="classical",
        params={"gamma": gamma, "alpha": alpha, "n": n},
        outputs=("closed_form",),
        description="symmetric two-state fractional relaxation",
        initial_state=p0,
        reference_state=ProbabilityVector(np.array([0.5, 0.5])),
        trajectory_fn=trajectory,
    )


def _dephasing_decoherence(rate_kind: str, lam: float, amplitude: float, frequency: float, mu: float):
    """(f, rate) for the supported decoherence choices; rate is None for
    'cosine_f', whose generator is undefined at the zeros of f."""
    if rate_kind == "constant":
        return (lambda ts: np.exp(-lam * np.asarray(ts, dtype=float))), (lambda t: lam)
    if rate_kind == "sinusoidal":
        def f(ts):
            ts = np.asarray(ts, dtype=float)
            return np.exp(-lam * ts - (amplitude / frequency) * (1.0 - np.cos(frequency * ts)))

        return f, lambda t: lam + amplitude * math.sin(frequency * t)
    # "cosine_f", the last of the schema's choices
    def f(ts):
        ts = np.asarray(ts, dtype=float)
        return np.exp(-lam * ts / 2.0) * np.cos(mu * ts)

    return f, None


def dephasing_qubit(
    rate_kind: str = "constant",
    lam: float = 1.0,
    amplitude: float = 0.5,
    frequency: float = 1.0,
    mu: float = 2.0,
    rho0: DensityMatrix | None = None,
) -> ModelSpec:
    """Pure-dephasing qubit: generator gamma(t) D[sigma_z / sqrt(2)], so the
    off-diagonal evolves exactly as rho_01(t) = f(t) rho_01(0) with
    gamma(t) = -f'(t)/f(t).

    rate_kind 'constant' gives f = exp(-lam t); 'sinusoidal' gives
    gamma(t) = lam + amplitude*sin(frequency*t) (always smooth); 'cosine_f'
    gives f = exp(-lam t/2) cos(mu t), whose generator is undefined at the
    zeros of f (reported as gap intervals by extraction)."""
    check_params(
        "dephasing_qubit", dict(rate_kind=rate_kind, lam=lam, amplitude=amplitude, frequency=frequency, mu=mu)
    )
    if rho0 is None:
        rho0 = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
    f, rate = _dephasing_decoherence(rate_kind, lam, amplitude, frequency, mu)
    dissipator = linalg.dissipator_superop(SIGMA_Z / np.sqrt(2.0))
    matrix = lam * dissipator if rate_kind == "constant" else None
    evaluate = lambda t: rate(t) * dissipator
    gen = None if rate is None else TclGenerator(dim=2, kind="quantum", evaluate=evaluate, matrix=matrix)

    def exact_propagator(grid: TimeGrid) -> PropagatorFamily:
        fv = f(grid.points)
        maps = np.zeros((grid.n, 4, 4), dtype=complex)
        maps[:, 0, 0] = 1.0
        maps[:, 3, 3] = 1.0
        maps[:, 1, 1] = fv
        maps[:, 2, 2] = fv
        return PropagatorFamily(grid, maps, "quantum", 2)

    def trajectory(grid: TimeGrid) -> Trajectory:
        fv = f(grid.points)
        states = np.empty((grid.n, 2, 2), dtype=complex)
        states[:, 0, 0] = rho0.entries[0, 0]
        states[:, 1, 1] = rho0.entries[1, 1]
        states[:, 0, 1] = rho0.entries[0, 1] * fv
        states[:, 1, 0] = rho0.entries[1, 0] * np.conj(fv)
        return Trajectory(grid, states, "quantum")

    reference = DensityMatrix(
        np.diag([rho0.entries[0, 0].real, rho0.entries[1, 1].real]).astype(complex)
    )
    outputs = ["closed_form", "propagator", "netfd_split"]
    if gen is not None:
        outputs.append("tcl_generator")
    return ModelSpec(
        name="dephasing_qubit",
        kind="quantum",
        params={
            "rate_kind": rate_kind,
            "lam": lam,
            "amplitude": amplitude,
            "frequency": frequency,
            "mu": mu,
        },
        outputs=tuple(outputs),
        description="pure-dephasing qubit with selectable decoherence function",
        tcl_generator=gen,
        initial_state=rho0,
        reference_state=reference,
        trajectory_fn=trajectory,
        propagator_fn=exact_propagator,
        b_qe_fn=lambda ts: np.abs(rho0.entries[0, 1] * f(ts)) ** 2,
    )


def amplitude_damping_qubit(
    gamma: float = 1.0, nbar: float = 0.2, p0: float = 0.3, c0: float = 0.35
) -> ModelSpec:
    """Thermal amplitude damping at constant rates: gamma (nbar + 1) on the
    lowering channel, gamma nbar on the raising channel; the stationary
    state is the thermal population mix.  The initial state is
    [[p0, c0], [c0, 1 - p0]]."""
    check_params("amplitude_damping_qubit", dict(gamma=gamma, nbar=nbar, p0=p0, c0=c0))
    if c0 * c0 > p0 * (1.0 - p0):
        raise ContractViolationError("initial coherence exceeds the PSD bound")
    rho0 = DensityMatrix(np.array([[p0, c0], [c0, 1.0 - p0]], dtype=complex))
    g = gamma * (nbar + 1.0) * linalg.dissipator_superop(SIGMA_MINUS)
    g = g + gamma * nbar * linalg.dissipator_superop(SIGMA_PLUS)
    z = 2.0 * nbar + 1.0
    reference = DensityMatrix(np.diag([(nbar + 1.0) / z, nbar / z]).astype(complex))
    return ModelSpec(
        name="amplitude_damping_qubit",
        kind="quantum",
        params={"gamma": gamma, "nbar": nbar, "p0": p0, "c0": c0},
        outputs=("tcl_generator", "netfd_split"),
        description="thermal amplitude damping with constant rates",
        tcl_generator=TclGenerator(dim=2, kind="quantum", evaluate=lambda t: g, matrix=g),
        initial_state=rho0,
        reference_state=reference,
    )


# name -> (factory, JSON-schema-ish parameter description)
MODEL_REGISTRY = {
    "markov_two_state": (
        markov_two_state,
        {
            "lam": {"type": "number", "min": 0, "exclusive_min": True, "default": 1.0},
            "omega": {"type": "number", "min": 0, "exclusive_min": True, "default": 1.0},
            "p0": {"type": "number", "min": 0, "max": 1, "default": 0.5},
            "p_eq": {"type": "number", "min": 0, "max": 1, "default": 0.5},
        },
    ),
    "fractional_two_state": (
        fractional_two_state,
        {
            "alpha": {"type": "number", "min": 0, "max": 1, "exclusive_min": True, "default": 0.7},
            "lam": {"type": "number", "min": 0, "exclusive_min": True, "default": 1.0},
            "omega": {"type": "number", "min": 0, "exclusive_min": True, "default": 1.0},
            "p0": {"type": "number", "min": 0, "max": 1, "default": 0.5},
            "p_eq": {"type": "number", "min": 0, "max": 1, "default": 0.5},
        },
    ),
    "classical_exp_kernel": (
        classical_exp_kernel,
        {
            "n": {"type": "integer", "min": 2, "max": 16, "default": 2},
            "gamma": {"type": "number", "min": 0, "exclusive_min": True, "default": 1.0},
            "tau_m": {"type": "number", "min": 0, "exclusive_min": True, "default": 1.0},
        },
    ),
    "classical_fractional": (
        classical_fractional,
        {
            "gamma": {"type": "number", "min": 0, "exclusive_min": True, "default": 1.0},
            "alpha": {"type": "number", "min": 0, "max": 1, "exclusive_min": True, "default": 0.7},
            "n": {"type": "integer", "min": 2, "max": 2, "default": 2},
        },
    ),
    "dephasing_qubit": (
        dephasing_qubit,
        {
            "rate_kind": {"type": "string", "choices": ["constant", "sinusoidal", "cosine_f"], "default": "constant"},
            "lam": {"type": "number", "min": 0, "exclusive_min": True, "default": 1.0},
            "amplitude": {"type": "number", "default": 0.5},
            "frequency": {"type": "number", "min": 0, "exclusive_min": True, "default": 1.0},
            "mu": {"type": "number", "min": 0, "exclusive_min": True, "default": 2.0},
        },
    ),
    "amplitude_damping_qubit": (
        amplitude_damping_qubit,
        {
            "gamma": {"type": "number", "min": 0, "exclusive_min": True, "default": 1.0},
            "nbar": {"type": "number", "min": 0, "default": 0.2},
            "p0": {"type": "number", "min": 0, "max": 1, "default": 0.3},
            "c0": {"type": "number", "default": 0.35},
        },
    ),
}


def finite_number(where: str, value) -> float:
    """``value`` as a float when it is a finite real number (not a bool),
    else :class:`ContractViolationError` naming ``where``."""
    if isinstance(value, bool):
        raise ContractViolationError(f"{where} must be a number, not a boolean")
    if not isinstance(value, numbers.Real):
        raise ContractViolationError(f"{where} must be a number")
    if not math.isfinite(value):
        raise ContractViolationError(f"{where} must be finite, got {value}")
    return float(value)


def check_params(name: str, params: dict):
    """Check parameter names, types and ranges against the model's schema,
    the one place they are decided (every factory and :func:`build_model`
    call it); raises :class:`ContractViolationError` on the first mismatch."""
    if name not in MODEL_REGISTRY:
        raise ContractViolationError(f"unknown model {name!r}; known: {sorted(MODEL_REGISTRY)}")
    schema = MODEL_REGISTRY[name][1]
    for key, value in params.items():
        if key not in schema:
            raise ContractViolationError(f"model {name} has no parameter {key!r}")
        rule = schema[key]
        if rule["type"] == "number":
            finite_number(f"parameter {key}", value)
        if rule["type"] == "integer" and isinstance(value, bool):
            raise ContractViolationError(f"parameter {key} must be an integer, not a boolean")
        if rule["type"] == "integer" and not isinstance(value, numbers.Integral):
            raise ContractViolationError(f"parameter {key} must be an integer")
        if rule["type"] == "string":
            if not isinstance(value, str):
                raise ContractViolationError(f"parameter {key} must be a string")
            if "choices" in rule and value not in rule["choices"]:
                raise ContractViolationError(f"parameter {key} must be one of {rule['choices']}")
            continue
        lo = rule.get("min")
        if lo is not None:
            if rule.get("exclusive_min") and not value > lo:
                raise ContractViolationError(f"parameter {key}={value} must be > {lo}")
            if not rule.get("exclusive_min") and value < lo:
                raise ContractViolationError(f"parameter {key}={value} must be >= {lo}")
        hi = rule.get("max")
        if hi is not None and value > hi:
            raise ContractViolationError(f"parameter {key}={value} must be <= {hi}")


def build_model(name: str, params: dict | None = None) -> ModelSpec:
    """Instantiate a registered model from primitive parameters."""
    params = params or {}
    check_params(name, params)
    return MODEL_REGISTRY[name][0](**params)


def model_schemas() -> dict:
    """Parameter schemas of the built-in models, for the CLI listing."""
    out = {}
    for name, (factory, schema) in sorted(MODEL_REGISTRY.items()):
        out[name] = {
            "description": factory.__doc__.split("\n")[0].strip() if factory.__doc__ else "",
            "params": schema,
        }
    return out
