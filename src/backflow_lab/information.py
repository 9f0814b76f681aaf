"""Information measures on states and trajectories, and the backflow
functional (the accumulated increase of an information series).

All entropies use the natural logarithm.  Support mismatches in relative
entropies yield +inf as a value, never an exception, so parameter sweeps
can keep going.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .states import DensityMatrix, ProbabilityVector, TimeGrid, Trajectory

MEASURE_TAGS = (
    "vn_entropy",
    "rel_entropy",
    "kl",
    "trace_distance",
    "extended_entropy",
    "s_cl",
    "s_qe",
)
REFERENCE_TAGS = ("rel_entropy", "kl", "trace_distance")

SUPPORT_EIGENVALUE = 1e-12
SUPPORT_WEIGHT = 1e-10


def check_measure_tags(tags):
    """Raise :class:`ContractViolationError` unless ``tags`` is a list or
    tuple of known measure tags."""
    if not isinstance(tags, (list, tuple)):
        raise ContractViolationError(f"measures must be a list of measure tags, got {tags!r}")
    for tag in tags:
        if not isinstance(tag, str) or tag not in MEASURE_TAGS:
            raise ContractViolationError(f"unknown measure {tag!r}; known: {list(MEASURE_TAGS)}")


@dataclass(frozen=True)
class InfoSeries:
    """Scalar information values on a time grid, with skip intervals marking
    windows excluded from backflow accumulation (propagated from generator
    gaps, or covering non-finite values)."""

    grid: TimeGrid
    values: np.ndarray
    measure_tag: str
    skip_intervals: tuple = ()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise ContractViolationError(f"expected {self.grid.n} values, got shape {vals.shape}")
        skips = tuple((float(a), float(b)) for a, b in self.skip_intervals)
        mask = _skip_mask(self.grid.points, skips)
        if not np.all(np.isfinite(vals[~mask])):
            raise ContractViolationError("non-finite value outside skip intervals")
        vals = np.ascontiguousarray(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "skip_intervals", skips)

    def skipped(self) -> np.ndarray:
        """Boolean mask of grid points inside skip intervals."""
        return _skip_mask(self.grid.points, self.skip_intervals)

    def has_infinite(self) -> bool:
        return bool(np.any(np.isinf(self.values)))

    def tail_residual(self) -> float:
        """Crude indicator of truncating the accumulation window:
        I(t_max) - min_t I(t) over non-skipped points."""
        vals = self.values[~self.skipped()]
        return float(vals[-1] - np.min(vals))


def _skip_mask(ts: np.ndarray, skips) -> np.ndarray:
    mask = np.zeros(ts.size, dtype=bool)
    for a, b in skips:
        mask |= (ts >= a) & (ts <= b)
    return mask


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr(rho log rho) in nats, with 0 log 0 = 0."""
    w = np.clip(rho.eigenvalues(), 0.0, None)
    nz = w[w > 0]
    return max(float(-np.sum(nz * np.log(nz))), 0.0)


def _spectral_entropy(w: np.ndarray) -> float:
    w = np.clip(w, 0.0, None)
    nz = w[w > 0]
    return float(-np.sum(nz * np.log(nz)))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Quantum relative entropy D(rho || sigma) = Tr rho (log rho - log sigma).

    Returns +inf when rho puts weight above ``SUPPORT_WEIGHT`` outside the
    support of sigma (sigma eigenvalues below ``SUPPORT_EIGENVALUE``).
    """
    if rho.dim != sigma.dim:
        raise ContractViolationError("states must share a dimension")
    wr, vr = np.linalg.eigh(rho.entries)
    ws, vs = np.linalg.eigh(sigma.entries)
    wr = np.clip(wr, 0.0, None)
    ws = np.clip(ws, 0.0, None)
    small = ws < SUPPORT_EIGENVALUE
    overlap = np.abs(vs.conj().T @ rho.entries @ vs).diagonal().real
    if np.any(small) and float(np.sum(overlap[small])) > SUPPORT_WEIGHT:
        return float("inf")
    cross = np.abs(vr.conj().T @ vs) ** 2  # |<r_i|s_j>|^2
    log_ws = np.where(small, 0.0, np.log(np.where(small, 1.0, ws)))
    keep = ~small
    tr_rho_log_sigma = float(np.einsum("i,ij,j->", wr, cross[:, keep], log_ws[keep]))
    return max(-_spectral_entropy(wr) - tr_rho_log_sigma, 0.0)


def kl_divergence(p: ProbabilityVector, q: ProbabilityVector) -> float:
    """Classical relative entropy D(p || q) in nats; +inf on support mismatch."""
    if p.dim != q.dim:
        raise ContractViolationError("distributions must share a dimension")
    pv = np.clip(p.entries, 0.0, None)
    qv = np.clip(q.entries, 0.0, None)
    small = qv < SUPPORT_EIGENVALUE
    if np.any(small) and float(np.sum(pv[small])) > SUPPORT_WEIGHT:
        return float("inf")
    keep = (pv > 0) & ~small
    return max(float(np.sum(pv[keep] * (np.log(pv[keep]) - np.log(qv[keep])))), 0.0)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2) sum |eigenvalues(rho - sigma)|, in [0, 1]."""
    if rho.dim != sigma.dim:
        raise ContractViolationError("states must share a dimension")
    w = np.linalg.eigvalsh(rho.entries - sigma.entries)
    return float(0.5 * np.sum(np.abs(w)))


def shannon_entropy(p: np.ndarray) -> float:
    """-sum p log p for a bare nonnegative vector (0 log 0 = 0)."""
    p = np.clip(np.asarray(p, dtype=float), 0.0, None)
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz)))


def _sum_w_log_w(w: np.ndarray) -> np.ndarray:
    """Row sums of w log w for a nonnegative (n, k) array, 0 log 0 = 0."""
    pos = w > 0
    return np.sum(np.where(pos, w * np.log(np.where(pos, w, 1.0)), 0.0), axis=1)


def von_neumann_entropies(states: np.ndarray) -> np.ndarray:
    """:func:`von_neumann_entropy` of each of the stacked (n, d, d) states."""
    w = np.clip(np.linalg.eigvalsh(states)[:, ::-1], 0.0, None)
    return np.maximum(-_sum_w_log_w(w), 0.0)


def relative_entropies(states: np.ndarray, sigma: DensityMatrix) -> np.ndarray:
    """:func:`relative_entropy` D(rho_k || sigma) of each of the stacked
    (n, d, d) states against one reference, whose spectrum is computed
    once."""
    wr, vr = np.linalg.eigh(states)
    ws, vs = np.linalg.eigh(sigma.entries)
    wr = np.clip(wr, 0.0, None)
    ws = np.clip(ws, 0.0, None)
    small = ws < SUPPORT_EIGENVALUE
    keep = ~small
    cross = np.abs(vr.conj().transpose(0, 2, 1) @ vs) ** 2  # |<r_i|s_j>|^2
    tr_rho_log_sigma = np.einsum("ni,nij,j->n", wr, cross[:, :, keep], np.log(ws[keep]))
    vals = np.maximum(_sum_w_log_w(wr) - tr_rho_log_sigma, 0.0)
    if np.any(small):
        overlap = np.abs(vs.conj().T @ states @ vs).diagonal(axis1=1, axis2=2)
        vals[overlap[:, small].sum(axis=1) > SUPPORT_WEIGHT] = np.inf
    return vals


def kl_divergences(ps: np.ndarray, q: ProbabilityVector) -> np.ndarray:
    """:func:`kl_divergence` D(p_k || q) of each row of a stacked (n, m)
    array against one reference."""
    pv = np.clip(ps, 0.0, None)
    qv = np.clip(q.entries, 0.0, None)
    small = qv < SUPPORT_EIGENVALUE
    keep = (pv > 0) & ~small
    log_ratio = np.log(np.where(keep, pv, 1.0)) - np.log(np.where(small, 1.0, qv))
    vals = np.maximum(np.sum(np.where(keep, pv * log_ratio, 0.0), axis=1), 0.0)
    if np.any(small):
        vals[pv[:, small].sum(axis=1) > SUPPORT_WEIGHT] = np.inf
    return vals


def trace_distances(states: np.ndarray, sigma: DensityMatrix) -> np.ndarray:
    """:func:`trace_distance` of each of the stacked (n, d, d) states to one
    reference."""
    w = np.linalg.eigvalsh(states - sigma.entries)
    return 0.5 * np.sum(np.abs(w), axis=1)


def series_from_trajectory(
    traj: Trajectory,
    measure_tag: str,
    reference=None,
    skip_intervals=(),
) -> InfoSeries:
    """Pointwise information series over a trajectory.

    The values come from one batched pass over the stacked states (the
    scalar measures above are the per-state reference); the states are
    first checked as a stack by :meth:`Trajectory.check_states`.

    ``reference`` is required for 'rel_entropy', 'kl' and 'trace_distance'.
    Gap intervals from an upstream divisibility report should be passed as
    ``skip_intervals``; points with non-finite values (support mismatches)
    are folded into the skip list automatically.
    """
    if measure_tag not in MEASURE_TAGS:
        raise ContractViolationError(f"unknown measure tag {measure_tag!r}")
    if measure_tag in REFERENCE_TAGS and reference is None:
        raise ContractViolationError(f"measure {measure_tag!r} needs a reference state")
    if measure_tag in ("vn_entropy", "rel_entropy", "trace_distance", "extended_entropy"):
        if traj.kind != "quantum":
            raise ContractViolationError(f"{measure_tag!r} needs a quantum trajectory")
    if measure_tag == "kl":
        if traj.kind != "classical":
            raise ContractViolationError("'kl' needs a classical trajectory")
    if measure_tag in ("s_cl", "s_qe"):
        if traj.kind != "quantum" or traj.dim != 2:
            raise ContractViolationError(f"{measure_tag!r} needs a two-state quantum trajectory")
        from .netfd import two_state_series_from_trajectory

        s_cl, s_qe = two_state_series_from_trajectory(traj, skip_intervals=skip_intervals)
        return s_cl if measure_tag == "s_cl" else s_qe
    if reference is not None:
        ref_type = DensityMatrix if traj.kind == "quantum" else ProbabilityVector
        if not isinstance(reference, ref_type) or reference.dim != traj.dim:
            raise ContractViolationError(
                f"reference must be a {ref_type.__name__} of dimension {traj.dim}"
            )
    traj.check_states()
    if measure_tag in ("vn_entropy", "extended_entropy"):
        # the extended entropy of the thermofield purification is the von
        # Neumann entropy of the state itself (see netfd)
        vals = von_neumann_entropies(traj.states)
    elif measure_tag == "rel_entropy":
        vals = relative_entropies(traj.states, reference)
    elif measure_tag == "trace_distance":
        vals = trace_distances(traj.states, reference)
    else:
        vals = kl_divergences(traj.states, reference)
    skips = list(skip_intervals)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        ts = traj.grid.points
        h = float(np.min(np.diff(ts)))
        for i in np.nonzero(bad)[0]:
            skips.append((float(ts[i]) - h / 2, float(ts[i]) + h / 2))
    return InfoSeries(traj.grid, vals, measure_tag, tuple(skips))


def backflow_functional(series: InfoSeries) -> float:
    """Total accumulated increase of the series: the sum of positive
    increments over grid-adjacent pairs of non-skipped points.

    Exactly zero for monotone non-increasing samples and invariant under
    adding a constant.  Pairs separated by a skip interval do not
    contribute.
    """
    mask = series.skipped()
    if int(np.sum(~mask)) < 2:
        raise ContractViolationError("need at least two non-skipped points")
    vals = series.values
    ok_pair = (~mask[:-1]) & (~mask[1:])
    inc = np.diff(vals)
    rises = np.where(ok_pair, np.clip(inc, 0.0, None), 0.0)
    return float(np.sum(rises))
