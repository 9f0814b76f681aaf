"""Information measures on states and trajectories, and the backflow
functional (the accumulated increase of an information series).

All entropies use the natural logarithm.  Support mismatches in relative
entropies yield +inf as a value, never an exception, so parameter sweeps
can keep going.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ContractViolationError
from .states import DensityMatrix, ProbabilityVector, TimeGrid, Trajectory, _freeze, _numeric, run_intervals

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


def check_measure_fit(tag: str, kind: str, dim: int):
    """Raise :class:`ContractViolationError` unless measure ``tag`` applies
    to a ``kind`` trajectory of dimension ``dim``: 'kl' needs a classical
    trajectory, 's_cl' and 's_qe' a two-state quantum one, and every other
    measure a quantum one."""
    if tag == "kl":
        if kind != "classical":
            raise ContractViolationError("'kl' needs a classical trajectory")
    elif tag in ("s_cl", "s_qe"):
        if kind != "quantum" or dim != 2:
            raise ContractViolationError(f"{tag!r} needs a two-state quantum trajectory")
    elif kind != "quantum":
        raise ContractViolationError(f"{tag!r} needs a quantum trajectory")


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
        if self.measure_tag not in MEASURE_TAGS:
            raise ContractViolationError(f"unknown measure tag {self.measure_tag!r}")
        vals = _numeric(self.values, "values", real=True).astype(float, copy=False)
        if vals.shape != (self.grid.n,):
            raise ContractViolationError(f"expected {self.grid.n} values, got shape {vals.shape}")
        skips = tuple((float(a), float(b)) for a, b in self.skip_intervals)
        mask = self.grid.within(skips)
        # one pass when every value is finite; else only the values outside the skips must be
        if not np.isfinite(vals).all() and not np.isfinite(vals[~mask]).all():
            raise ContractViolationError("non-finite value outside skip intervals")
        object.__setattr__(self, "values", _freeze(vals))
        object.__setattr__(self, "skip_intervals", skips)
        object.__setattr__(self, "_mask", _freeze(mask))

    def skipped(self) -> np.ndarray:
        """Read-only boolean mask of grid points inside skip intervals."""
        return self._mask

    @functools.cached_property
    def _backflow_sum(self) -> float:  # summed once, on first read
        return _backflow(self.values, self._mask, self.measure_tag)

    @functools.cached_property
    def half_grid_error(self) -> float:
        """|N(h) - N(2h)|, N(2h) the backflow of every other point with its own skip flag."""
        return abs(self._backflow_sum - _backflow(self.values[::2], self._mask[::2], self.measure_tag))

    def has_infinite(self) -> bool:
        return bool(np.any(np.isinf(self.values)))

    def tail_residual(self) -> float:
        """Crude indicator of truncating the accumulation window:
        I(t_max) - min_t I(t) over non-skipped points."""
        vals = self.values[~self.skipped()]
        return float(vals[-1] - np.min(vals))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr(rho log rho) in nats, with 0 log 0 = 0."""
    return float(von_neumann_entropies(linalg.hermitian_spectra(rho.entries[None]))[0])


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Quantum relative entropy D(rho || sigma) = Tr rho (log rho - log sigma).

    Returns +inf when rho puts weight above ``SUPPORT_WEIGHT`` outside the
    support of sigma (sigma eigenvalues below ``SUPPORT_EIGENVALUE``).
    """
    if rho.dim != sigma.dim:
        raise ContractViolationError("states must share a dimension")
    states = rho.entries[None]
    return float(relative_entropies(states, linalg.hermitian_spectra(states), sigma)[0])


def kl_divergence(p: ProbabilityVector, q: ProbabilityVector) -> float:
    """Classical relative entropy D(p || q) in nats; +inf on support mismatch."""
    if p.dim != q.dim:
        raise ContractViolationError("distributions must share a dimension")
    return float(kl_divergences(p.entries[None], q)[0])


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2) sum |eigenvalues(rho - sigma)|, in [0, 1]."""
    if rho.dim != sigma.dim:
        raise ContractViolationError("states must share a dimension")
    return float(trace_distances(rho.entries[None], sigma)[0])


def _sum_w_log_w(w: np.ndarray) -> np.ndarray:
    """Row sums of w log w for a nonnegative (n, k) array, 0 log 0 = 0."""
    pos = w > 0
    return np.sum(np.where(pos, w * np.log(np.where(pos, w, 1.0)), 0.0), axis=1)


def von_neumann_entropies(spectrum: np.ndarray) -> np.ndarray:
    """:func:`von_neumann_entropy` of each state from its (n, d) ascending
    spectrum (:attr:`Trajectory.spectrum`)."""
    w = np.clip(spectrum[:, ::-1], 0.0, None)
    return np.maximum(-_sum_w_log_w(w), 0.0)


def relative_entropies(states: np.ndarray, spectrum: np.ndarray, sigma: DensityMatrix) -> np.ndarray:
    """:func:`relative_entropy` D(rho_k || sigma) of each of the stacked
    (n, d, d) states, whose ascending spectra are ``spectrum``, against one
    reference.

    Tr(rho log rho) comes from the spectrum, and Tr(rho log sigma) is one
    contraction of the states with L = sum_j log s_j |s_j><s_j| over the
    support of sigma, formed once from sigma's own eigenvectors; no state
    is diagonalized.
    """
    ws, vs = np.linalg.eigh(sigma.entries)
    ws = np.clip(ws, 0.0, None)
    small = ws < SUPPORT_EIGENVALUE
    keep = ~small
    log_sigma = (vs[:, keep] * np.log(ws[keep])) @ vs[:, keep].conj().T
    tr_rho_log_sigma = np.einsum("nij,ji->n", states, log_sigma).real
    vals = np.maximum(_sum_w_log_w(np.clip(spectrum, 0.0, None)) - tr_rho_log_sigma, 0.0)
    if np.any(small):  # the weight of each state outside sigma's support
        outside = vs[:, small]
        weight = np.einsum("ik,nij,jk->n", outside.conj(), states, outside).real
        vals[weight > SUPPORT_WEIGHT] = np.inf
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
    w = linalg.hermitian_spectra(states - sigma.entries)
    return 0.5 * np.sum(np.abs(w), axis=1)


def series_from_trajectory(
    traj: Trajectory,
    measure_tag: str,
    reference=None,
    skip_intervals=(),
) -> InfoSeries:
    """Pointwise information series over a trajectory.

    The values come from one batched pass over the stacked states, which
    the :class:`Trajectory` constructor has already checked; the entropies
    read the spectrum that check computed (the scalar measures above are
    the per-state reference).

    ``reference`` is required for 'rel_entropy', 'kl' and 'trace_distance'.
    Gap intervals from an upstream divisibility report should be passed as
    ``skip_intervals``; points with non-finite values (support mismatches)
    are folded into the skip list automatically.
    """
    if measure_tag not in MEASURE_TAGS:
        raise ContractViolationError(f"unknown measure tag {measure_tag!r}")
    if measure_tag in REFERENCE_TAGS and reference is None:
        raise ContractViolationError(f"measure {measure_tag!r} needs a reference state")
    check_measure_fit(measure_tag, traj.kind, traj.dim)
    if measure_tag in ("s_cl", "s_qe"):
        from .netfd import two_state_series_from_trajectory

        s_cl, s_qe = two_state_series_from_trajectory(traj, skip_intervals=skip_intervals)
        return s_cl if measure_tag == "s_cl" else s_qe
    if reference is not None:
        ref_type = DensityMatrix if traj.kind == "quantum" else ProbabilityVector
        if not isinstance(reference, ref_type) or reference.dim != traj.dim:
            raise ContractViolationError(
                f"reference must be a {ref_type.__name__} of dimension {traj.dim}"
            )
    if measure_tag in ("vn_entropy", "extended_entropy"):
        # the extended entropy of the thermofield purification is the von
        # Neumann entropy of the state itself (see netfd)
        vals = von_neumann_entropies(traj.spectrum)
    elif measure_tag == "rel_entropy":
        vals = relative_entropies(traj.states, traj.spectrum, reference)
    elif measure_tag == "trace_distance":
        vals = trace_distances(traj.states, reference)
    else:
        vals = kl_divergences(traj.states, reference)
    skips = tuple(skip_intervals)
    bad = ~np.isfinite(vals)
    if np.any(bad):  # one interval per run of non-finite values
        ts = traj.grid.points
        skips += run_intervals(bad, ts, float(np.min(np.diff(ts))))
    return InfoSeries(traj.grid, vals, measure_tag, skips)


def backflow_functional(series: InfoSeries) -> float:
    """Total accumulated increase of the series: the sum of positive
    increments over grid-adjacent pairs of non-skipped points.

    Exactly zero for monotone non-increasing samples and invariant under
    adding a constant.  Pairs separated by a skip interval do not
    contribute.  Each series sums it once, on first read.
    """
    return series._backflow_sum


def _backflow(values: np.ndarray, mask: np.ndarray, tag: str) -> float:
    skipped = np.count_nonzero(mask)
    if mask.size - skipped < 2:
        raise ContractViolationError(
            f"backflow of {tag!r} needs two points outside the skip intervals (gaps or non-finite "
            f"values), but {skipped} of {mask.size} are skipped"
        )
    if not skipped:  # every pair counts: the masking below would change no value
        return float(np.sum(np.clip(np.diff(values), 0.0, None)))
    # skipped values may be +inf: zeroed, they leave the counted pairs'
    # increments as they are and raise no warning in the difference
    vals = np.where(mask, 0.0, values)
    ok_pair = (~mask[:-1]) & (~mask[1:])
    inc = np.diff(vals)
    rises = np.where(ok_pair, np.clip(inc, 0.0, None), 0.0)
    return float(np.sum(rises))
