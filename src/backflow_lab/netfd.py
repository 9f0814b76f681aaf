"""Thermo-field doubling: purification of states in a doubled space, the
extended entropy, and its classical/intrinsic split for two-state systems,
with the decomposed backflow measures built on that split.

A state rho maps to the doubled-space vector with amplitudes
vectorize(sqrt(rho)) (column stacking, tilde index slow), so tracing out
the tilde sector returns exactly rho; the extended entropy of the reduced
doubled state therefore coincides with the von Neumann entropy of rho.
That identity is asserted and tested rather than assumed silently.

For a 2x2 reduced state [[p, c], [c*, 1-p]] the extended entropy splits as
S_hat = s_cl(p) + s_qe with s_cl the binary mixing entropy and s_qe the
residual intrinsic contribution, a function of b_qe = |c|^2 alone at fixed
p.  The residual is <= 0 (coherence lowers entropy) and vanishes iff c = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ContractViolationError
from .information import InfoSeries, _backflow, backflow_functional
from .states import DensityMatrix, Trajectory, _freeze, _numeric

ROUNDTRIP_TOL = 1e-10
SUBADDITIVITY_SLACK = 1e-8
EPSILON_N = 1e-6


@dataclass(frozen=True)
class ThermoFieldState:
    """Unit vector in the doubled space H (x) H~, basis |n> (x) |n~> with the
    tilde index slow (column-stacking order)."""

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        a = _numeric(self.amplitudes, "amplitudes").astype(complex, copy=False)
        dd = linalg.carrier_dim("quantum", self.dim)
        if a.shape != (dd,):
            raise ContractViolationError(f"expected {dd} amplitudes, got {a.shape}")
        nrm = float(np.linalg.norm(a))
        if not abs(nrm - 1.0) <= ROUNDTRIP_TOL:
            raise ContractViolationError(f"norm {nrm} differs from 1 beyond {ROUNDTRIP_TOL:g}")
        object.__setattr__(self, "amplitudes", _freeze(a))


@dataclass(frozen=True)
class DecomposedBackflow:
    """Backflow of the extended entropy and of its two sectors, plus the
    regime label.  Satisfies n_total <= n_cl + n_qe (positive-part
    subadditivity, exact up to float error)."""

    n_total: float
    n_cl: float
    n_qe: float
    regime: str

    def __post_init__(self):
        if not self.n_total <= self.n_cl + self.n_qe + SUBADDITIVITY_SLACK:
            raise ContractViolationError(
                f"subadditivity violated: {self.n_total} > {self.n_cl} + {self.n_qe}"
            )

    def to_json_dict(self) -> dict:
        return {
            "n_total": float(self.n_total),
            "n_cl": float(self.n_cl),
            "n_qe": float(self.n_qe),
            "regime": self.regime,
        }


def classify(n_cl: float, n_qe: float, epsilon_n: float = EPSILON_N) -> str:
    """Regime label from the two backflow sectors."""
    if not (n_cl >= 0 and n_qe >= 0):
        raise ContractViolationError("backflow measures must be nonnegative")
    cl = n_cl > epsilon_n
    qe = n_qe > epsilon_n
    if cl and qe:
        return "hybrid"
    if cl:
        return "classical_overshoot"
    if qe:
        return "intrinsic_revival"
    return "monotone"


def thermofield_vector(rho: DensityMatrix) -> ThermoFieldState:
    """Doubled-space purification with amplitudes vectorize(sqrt(rho))."""
    root = linalg.psd_sqrt(rho.entries)
    return ThermoFieldState(rho.dim, linalg.vectorize(root))


def extended_reduced_density(psi: ThermoFieldState) -> DensityMatrix:
    """Partial trace of |psi><psi| over the tilde sector, computed directly
    from the amplitudes (the doubled-space projector is never formed)."""
    a = linalg.devectorize(psi.amplitudes, psi.dim)
    rho = a @ a.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return DensityMatrix(rho / np.trace(rho).real)


def _sector_entropies(p: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s_cl, s_qe) over arrays of populations ``p`` and intrinsic
    parameters ``b`` = |c|^2 <= p(1 - p): s_cl is the binary entropy of p
    and s_qe = S_hat - s_cl <= 0, where the eigenvalues of the 2x2 state are
    1/2 +- r with r^2 = (p - 1/2)^2 + b, so s_qe depends on |c| only and
    vanishes iff c = 0."""
    pc = np.clip(p, 1e-300, 1.0)
    qc = np.clip(1.0 - p, 1e-300, 1.0)
    s_cl = -(pc * np.log(pc) + qc * np.log(qc))
    r = np.minimum(np.sqrt((p - 0.5) ** 2 + b), 0.5)
    hi = np.clip(0.5 + r, 1e-300, 1.0)
    lo = np.clip(0.5 - r, 1e-300, 1.0)
    s_hat = -(hi * np.log(hi) + lo * np.log(lo))
    return s_cl, s_hat - s_cl


def two_state_series_from_trajectory(
    traj: Trajectory, skip_intervals=()
) -> tuple[InfoSeries, InfoSeries]:
    """(s_cl, s_qe) series for a two-state quantum trajectory, reading
    p = rho_00(t) and c = rho_01(t); |c|^2 is clipped to p(1 - p), the PSD
    bound the trajectory's states meet up to rounding."""
    if traj.kind != "quantum" or traj.dim != 2:
        raise ContractViolationError("need a two-state quantum trajectory")
    p = traj.states[:, 0, 0].real
    b = np.abs(traj.states[:, 0, 1]) ** 2
    s_cl, s_qe = _sector_entropies(p, np.minimum(b, p * (1 - p)))
    return (
        InfoSeries(traj.grid, s_cl, "s_cl", skip_intervals),
        InfoSeries(traj.grid, s_qe, "s_qe", skip_intervals),
    )


def coincident_rise_intervals(
    s_cl: InfoSeries, s_qe: InfoSeries, rise_floor: float = 1e-12
) -> bool:
    """True when the two series rise on (essentially) the same grid steps.

    The sharp additivity of the decomposed backflow holds exactly on
    trajectories whose sector rise intervals coincide.  Steps on which
    either increment is smaller than ``rise_floor`` carry no resolvable
    slope information (their additivity defect is bounded by the floor) and
    are ignored; among the resolved steps the detector demands fewer than
    two with opposite slopes.
    """
    if s_cl.grid is not s_qe.grid and not np.array_equal(s_cl.grid.points, s_qe.grid.points):
        raise ContractViolationError("series must share a grid")
    mask = s_cl.skipped() | s_qe.skipped()
    ok_pair = (~mask[:-1]) & (~mask[1:])
    d_cl = np.diff(s_cl.values)
    d_qe = np.diff(s_qe.values)
    resolved = ok_pair & (np.abs(d_cl) > rise_floor) & (np.abs(d_qe) > rise_floor)
    if not np.any(resolved & ((d_cl > 0) | (d_qe > 0))):
        return False
    mismatch = int(np.sum(resolved & (np.sign(d_cl) != np.sign(d_qe))))
    return mismatch < 2


def decomposed_backflow(
    s_cl_series: InfoSeries, s_qe_series: InfoSeries, epsilon_n: float = EPSILON_N
) -> DecomposedBackflow:
    """Backflow of each entropy sector and of their sum, classified.

    n_total is the backflow of the pointwise sum (the extended entropy);
    positive-part subadditivity guarantees n_total <= n_cl + n_qe.
    """
    if not np.array_equal(s_cl_series.grid.points, s_qe_series.grid.points):
        raise ContractViolationError("series must share a grid")
    if tuple(s_cl_series.skip_intervals) != tuple(s_qe_series.skip_intervals):
        raise ContractViolationError("series must share skip intervals")
    n_cl, n_qe = backflow_functional(s_cl_series), backflow_functional(s_qe_series)
    n_total = _backflow(s_cl_series.values + s_qe_series.values, s_cl_series.skipped(), "extended_entropy")
    return DecomposedBackflow(
        n_total=n_total, n_cl=n_cl, n_qe=n_qe, regime=classify(n_cl, n_qe, epsilon_n)
    )
