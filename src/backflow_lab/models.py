"""Built-in analytically anchored minimal models.

Every model is a :class:`ModelSpec` bundling its parameters with the
capabilities it can provide (closed-form trajectory, memory kernel, time-local
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

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .errors import ContractViolationError, InvalidStateError
from .propagation import (
    MemoryKernel,
    PropagatorFamily,
    TclGenerator,
    apply_family,
    rk4_power_table,
)
from .special_functions import ml_envelope_grid
from .states import (
    DensityMatrix, ProbabilityVector, TimeGrid, Trajectory, finite_number, integer,
    _freeze, _hermitian_trajectory, _trusted,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)
# the models' constant dissipators, built once
_D_MINUS, _D_PLUS = _freeze(linalg.dissipator_superop(SIGMA_MINUS)), _freeze(linalg.dissipator_superop(SIGMA_PLUS))
_D_DEPHASING = _freeze(linalg.dissipator_superop(SIGMA_Z / np.sqrt(2.0)))


@dataclass(frozen=True)
class ModelSpec:
    """A named model instance plus everything it knows how to produce.  A
    point's series (b_qe = |rho_01|^2 among them) are read off its trajectory."""

    name: str
    kind: str
    params: dict
    kernel: MemoryKernel | None = field(default=None, repr=False, compare=False)
    tcl_generator: TclGenerator | None = field(default=None, repr=False, compare=False)
    initial_state: object = field(default=None, repr=False, compare=False)
    reference_state: object = field(default=None, repr=False, compare=False)
    trajectory_fn: Callable | None = field(default=None, repr=False, compare=False)
    propagator_fn: Callable | None = field(default=None, repr=False, compare=False)


def _constant(cls, entries: np.ndarray):
    """``cls(entries)`` unchecked (:func:`states._trusted`), valid by construction from checked parameters."""
    return _trusted(cls, entries=_freeze(entries))


def _envelope_model(
    name: str,
    env_fn: Callable[[np.ndarray], np.ndarray],
    lam: float,
    omega: float,
    p0: float,
    p_eq: float,
    extra_params: dict,
) -> ModelSpec:
    def trajectory(grid: TimeGrid) -> Trajectory:
        env = env_fn(grid.points)
        p = p_eq + (p0 - p_eq) * env
        states = np.empty((grid.n, 2, 2), dtype=complex)
        states[:, 0, 0] = p
        states[:, 1, 1] = 1.0 - p
        states[:, 0, 1] = states[:, 1, 0] = 0.5 * env * np.sin(omega * grid.points)  # c(t), real
        return _hermitian_trajectory(grid, states)

    reference = _constant(DensityMatrix, np.diag([p_eq, 1.0 - p_eq]).astype(complex))
    initial = _constant(DensityMatrix, np.array([[p0, 0.0], [0.0, 1.0 - p0]], dtype=complex))
    return ModelSpec(
        name=name,
        kind="quantum",
        params=dict(extra_params, lam=lam, omega=omega, p0=p0, p_eq=p_eq),
        initial_state=initial,
        reference_state=reference,
        trajectory_fn=trajectory,
    )


def markov_two_state(lam: float = 1.0, omega: float = 1.0, p0: float = 0.5, p_eq: float = 0.5) -> ModelSpec:
    """Exponential-envelope two-state relaxation with oscillating intrinsic
    coherence c(t) = (1/2) e^{-lam t} sin(omega t), b_qe = c^2."""
    check_params("markov_two_state", dict(lam=lam, omega=omega, p0=p0, p_eq=p_eq))
    env_fn = lambda ts: np.exp(-lam * np.asarray(ts, dtype=float))
    return _envelope_model("markov_two_state", env_fn, lam, omega, p0, p_eq, {})


def fractional_two_state(
    alpha: float = 0.7, lam: float = 1.0, omega: float = 1.0, p0: float = 0.5, p_eq: float = 0.5
) -> ModelSpec:
    """Mittag-Leffler-envelope two-state relaxation; reduces identically to
    :func:`markov_two_state` at alpha = 1."""
    check_params("fractional_two_state", dict(alpha=alpha, lam=lam, omega=omega, p0=p0, p_eq=p_eq))
    env_fn = lambda ts: ml_envelope_grid(alpha, lam, np.asarray(ts, dtype=float))
    return _envelope_model("fractional_two_state", env_fn, lam, omega, p0, p_eq, {"alpha": alpha})


def classical_exp_kernel(n: int = 2, gamma: float = 1.0, tau_m: float = 1.0) -> ModelSpec:
    """Classical dynamics with exponential memory kernel
    K(tau) = (gamma/tau_m) exp(-tau/tau_m) W_base, W_base the all-to-all
    generator with unit off-diagonal rates, together with its exact
    Markovian embedding (auxiliary flux variables y, initialized to zero):

        dp/dt = y,   dy/dt = (gamma/tau_m) W_base p - y/tau_m.

    The embedding gives the closed-form propagator family
    (``propagator_fn``); the trajectory (``trajectory_fn``) is that family
    applied to the initial state, the first basis state.  The reference
    state is the uniform stationary distribution.
    """
    check_params("classical_exp_kernel", dict(n=n, gamma=gamma, tau_m=tau_m))
    wb = np.ones((n, n)) - n * np.eye(n)
    p0 = _constant(ProbabilityVector, np.eye(n)[0])

    def kernel_table(taus: np.ndarray) -> np.ndarray:
        # math.exp per lag: np.exp differs from it in the last bit on some lags
        decay = np.array([(gamma / tau_m) * math.exp(-tau / tau_m) for tau in taus.tolist()])
        return decay[:, None, None] * wb

    kernel = MemoryKernel(dim=n, kind="classical", evaluate=kernel_table, decay_scale=tau_m)

    embed = np.zeros((2 * n, 2 * n))
    embed[:n, n:] = np.eye(n)
    embed[n:, :n] = (gamma / tau_m) * wb
    embed[n:, n:] = -np.eye(n) / tau_m

    def embedded_propagator(grid: TimeGrid) -> PropagatorFamily:
        y0 = np.zeros((2 * n, n))
        y0[:n] = np.eye(n)
        raw = rk4_power_table(embed, y0, grid)
        return PropagatorFamily(grid, raw[:, :n, :], "classical", n)

    def embedded_trajectory(grid: TimeGrid) -> Trajectory:
        return apply_family(embedded_propagator(grid), p0)

    return ModelSpec(
        name="classical_exp_kernel",
        kind="classical",
        params={"n": n, "gamma": gamma, "tau_m": tau_m},
        kernel=kernel,
        initial_state=p0,
        reference_state=_constant(ProbabilityVector, np.full(n, 1 / n)),
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


def classical_fractional(gamma: float = 1.0, alpha: float = 0.7, n: int = 2) -> ModelSpec:
    """Symmetric two-state relaxation whose difference mode follows the
    Mittag-Leffler envelope x(t) = x(0) E_alpha(-(gamma t)^alpha); reduces
    to exp(-gamma t) at alpha = 1.  The initial state is (1, 0), so
    x(0) = 1."""
    # the schema pins n to 2: the closed form covers the symmetric 2-state case only
    check_params("classical_fractional", dict(gamma=gamma, alpha=alpha, n=n))

    def trajectory(grid: TimeGrid) -> Trajectory:
        x = ml_envelope_grid(alpha, gamma, grid.points)
        states = np.stack([(1.0 + x) / 2.0, (1.0 - x) / 2.0], axis=1)
        return Trajectory(grid, states, "classical")

    return ModelSpec(
        name="classical_fractional",
        kind="classical",
        params={"gamma": gamma, "alpha": alpha, "n": n},
        initial_state=_constant(ProbabilityVector, np.array([1.0, 0.0])),
        reference_state=_constant(ProbabilityVector, np.array([0.5, 0.5])),
        trajectory_fn=trajectory,
    )


def _dephasing_decoherence(rate_kind: str, lam: float, amplitude: float, frequency: float, mu: float):
    """(f, rate) for the supported decoherence choices, both batched over
    times; rate is None for 'cosine_f', whose generator is undefined at the
    zeros of f."""
    if rate_kind == "constant":
        return (lambda ts: np.exp(-lam * np.asarray(ts, dtype=float))), (lambda ts: np.full(len(ts), lam))
    if rate_kind == "sinusoidal":
        def f(ts):
            ts = np.asarray(ts, dtype=float)
            return np.exp(-lam * ts - (amplitude / frequency) * (1.0 - np.cos(frequency * ts)))

        return f, lambda ts: lam + amplitude * np.sin(frequency * ts)
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
) -> ModelSpec:
    """Pure-dephasing qubit: generator gamma(t) D[sigma_z / sqrt(2)], so the
    off-diagonal evolves exactly as rho_01(t) = f(t) rho_01(0) with
    gamma(t) = -f'(t)/f(t).

    rate_kind 'constant' gives f = exp(-lam t); 'sinusoidal' gives
    gamma(t) = lam + amplitude*sin(frequency*t) (always smooth); 'cosine_f'
    gives f = exp(-lam t/2) cos(mu t), whose generator is undefined at the
    zeros of f (reported as gap intervals by extraction).  The initial
    state is |+><+|."""
    params = dict(rate_kind=rate_kind, lam=lam, amplitude=amplitude, frequency=frequency, mu=mu)
    check_params("dephasing_qubit", params)
    rho0 = _constant(DensityMatrix, np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
    f, rate = _dephasing_decoherence(rate_kind, lam, amplitude, frequency, mu)
    evaluate = lambda ts: rate(ts)[:, None, None] * _D_DEPHASING
    gen = None if rate is None else TclGenerator(dim=2, kind="quantum", evaluate=evaluate)

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
        return _hermitian_trajectory(grid, states)

    reference = _constant(DensityMatrix, np.diag([rho0.entries[0, 0].real, rho0.entries[1, 1].real]).astype(complex))
    return ModelSpec(
        name="dephasing_qubit",
        kind="quantum",
        params=params,
        tcl_generator=gen,
        initial_state=rho0,
        reference_state=reference,
        trajectory_fn=trajectory,
        propagator_fn=exact_propagator,
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
    rho0 = _constant(DensityMatrix, np.array([[p0, c0], [c0, 1.0 - p0]], dtype=complex))
    g = gamma * (nbar + 1.0) * _D_MINUS + gamma * nbar * _D_PLUS
    z = 2.0 * nbar + 1.0
    if not math.isfinite(z):
        raise InvalidStateError(f"parameter nbar={nbar:g} overflows 2 nbar + 1: the thermal state would have trace 0")
    reference = _constant(DensityMatrix, np.diag([(nbar + 1.0) / z, nbar / z]).astype(complex))
    return ModelSpec(
        name="amplitude_damping_qubit",
        kind="quantum",
        params={"gamma": gamma, "nbar": nbar, "p0": p0, "c0": c0},
        tcl_generator=TclGenerator(
            dim=2, kind="quantum", evaluate=lambda ts: np.broadcast_to(g, (len(ts),) + g.shape)
        ),
        initial_state=rho0,
        reference_state=reference,
    )


# name -> (factory, JSON-schema-ish parameter description); the defaults are the factory's keyword defaults
MODEL_REGISTRY = {
    "markov_two_state": (
        markov_two_state,
        {
            "lam": {"type": "number", "min": 0, "exclusive_min": True},
            "omega": {"type": "number", "min": 0, "exclusive_min": True},
            "p0": {"type": "number", "min": 0, "max": 1},
            "p_eq": {"type": "number", "min": 0, "max": 1},
        },
    ),
    "fractional_two_state": (
        fractional_two_state,
        {
            "alpha": {"type": "number", "min": 0, "max": 1, "exclusive_min": True},
            "lam": {"type": "number", "min": 0, "exclusive_min": True},
            "omega": {"type": "number", "min": 0, "exclusive_min": True},
            "p0": {"type": "number", "min": 0, "max": 1},
            "p_eq": {"type": "number", "min": 0, "max": 1},
        },
    ),
    "classical_exp_kernel": (
        classical_exp_kernel,
        {
            "n": {"type": "integer", "min": 2, "max": 16},
            "gamma": {"type": "number", "min": 0, "exclusive_min": True},
            "tau_m": {"type": "number", "min": 0, "exclusive_min": True},
        },
    ),
    "classical_fractional": (
        classical_fractional,
        {
            "gamma": {"type": "number", "min": 0, "exclusive_min": True},
            "alpha": {"type": "number", "min": 0, "max": 1, "exclusive_min": True},
            "n": {"type": "integer", "min": 2, "max": 2},
        },
    ),
    "dephasing_qubit": (
        dephasing_qubit,
        {
            "rate_kind": {"type": "string", "choices": ["constant", "sinusoidal", "cosine_f"]},
            "lam": {"type": "number", "min": 0, "exclusive_min": True},
            "amplitude": {"type": "number"},
            "frequency": {"type": "number", "min": 0, "exclusive_min": True},
            "mu": {"type": "number", "min": 0, "exclusive_min": True},
        },
    ),
    "amplitude_damping_qubit": (
        amplitude_damping_qubit,
        {
            "gamma": {"type": "number", "min": 0, "exclusive_min": True},
            "nbar": {"type": "number", "min": 0},
            "p0": {"type": "number", "min": 0, "max": 1},
            "c0": {"type": "number"},
        },
    ),
}


def check_params(name: str, params: dict):
    """Check parameter names, types and ranges against the model's schema,
    the one place they are decided (every factory and :func:`build_model`
    call it); raises :class:`ContractViolationError` on the first mismatch."""
    if not isinstance(name, str) or name not in MODEL_REGISTRY:
        raise ContractViolationError(f"unknown model {name!r}; known: {sorted(MODEL_REGISTRY)}")
    schema = MODEL_REGISTRY[name][1]
    for key, value in params.items():
        if key not in schema:
            raise ContractViolationError(f"model {name} has no parameter {key!r}")
        rule = schema[key]
        if rule["type"] == "number":
            finite_number(f"parameter {key}", value)
        if rule["type"] == "integer":
            integer(f"parameter {key}", value)
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
    """Parameter schemas of the built-in models, for the CLI listing; each
    parameter's default is its factory's keyword default."""
    out = {}
    for name, (factory, schema) in sorted(MODEL_REGISTRY.items()):
        defaults = inspect.signature(factory).parameters
        out[name] = {
            "description": factory.__doc__.split("\n")[0].strip() if factory.__doc__ else "",
            "params": {key: dict(rule, default=defaults[key].default) for key, rule in schema.items()},
        }
    return out
