"""Exact extraction of time-local generators from propagator families,
the canonical GKSL form of a stack of generators, and divisibility tests.

The generator is recovered as G(t) = dPhi/dt(t) Phi(t)^{-1} with the time
derivative taken by 4th-order finite differences on the grid (one-sided
stencils at the ends).  Where Phi is singular or too ill-conditioned the
point is reported as a gap interval rather than extrapolated; downstream
consumers skip flagged intervals.

The condition gate kappa_2(Phi) > ``CONDITION_LIMIT`` runs in three steps,
each an exact inequality: a screen by column norms (no inversion), a
bracket from the one batched inverse that G also uses, and an SVD only for
the few maps the bracket cannot decide.

Extraction and the divisibility reports walk the grid in row blocks of
``BLOCK_BYTES`` (at least 64 rows), so beyond the family and the output
tables (samples, or rate traces) they hold the temporaries of one block.
Extraction gates each block before its stencil, so a block with no kept
map costs only the gate.
LAPACK inverts, decomposes and diagonalizes each matrix by itself, so the
results do not depend on the block size.

:func:`canonical_forms` is the one decomposition: the Kossakowski matrices
(Gorini, Kossakowski and Sudarshan, JMP 17, 821 (1976)) of a stack of
samples and their eigenvalues, the canonical rates gamma_k(t) that
:func:`check_cp_divisible` reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .errors import ContractViolationError, GeneratorSingularityError
from .propagation import PropagatorFamily, TclGenerator, _sample_defects, _trace_failures, check_map_table
from .states import TimeGrid, _freeze, _trusted, run_intervals

CONDITION_LIMIT = 1e8
RATE_TOLERANCE = 1e-7
EXTRACTION_TRACE_TOL = 1e-7
# Relative distance from CONDITION_LIMIT inside which the gate asks the SVD.
# Near kappa = L the Frobenius kappa of a pivoted-LU inverse is off by about
# d eps kappa <~ 1e-7 and the SVD's kappa by about 1e-8, so bounds outside
# this band give the SVD's decision; a computed Frobenius kappa below L also
# certifies the inverse it came from.
GATE_MARGIN = 1e-6
# Bytes of table rows that extraction and the reports process at a time.
BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class SampledGenerator:
    """Time-local generator known only at grid points, with gap intervals
    where extraction was impossible: finite (n, dd, dd) samples
    (:func:`check_map_table`), zero inside the gaps."""

    grid: TimeGrid
    samples: np.ndarray
    kind: str
    dim: int
    gaps: tuple = ()
    matrix_dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        samples = check_map_table(self.samples, self.grid, self.kind, self.dim, "generator samples")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "matrix_dim", samples.shape[1])
        object.__setattr__(self, "gaps", tuple((float(a), float(b)) for a, b in self.gaps))

    def gap_mask(self) -> np.ndarray:
        """Boolean mask over grid points lying inside a gap interval."""
        return self.grid.within(self.gaps)

    def evaluate(self, ts: np.ndarray) -> np.ndarray:
        """Cubic 4-point Lagrange interpolation between grid samples at the
        times ``ts`` (1-D), stacked (n, dd, dd); the earliest time inside a
        gap raises :class:`GeneratorSingularityError`."""
        ts = np.asarray(ts, dtype=float)
        pts = self.grid.points
        inside = np.zeros(ts.shape, dtype=bool)
        for a, b in self.gaps:
            inside |= (ts >= a) & (ts <= b)
        if inside.any():
            t = float(ts[np.argmax(inside)])
            raise GeneratorSingularityError(f"generator undefined inside gap at t={t:g}", time=t)
        outside = (ts < pts[0]) | (ts > pts[-1])
        if outside.any():
            raise ContractViolationError(f"t={ts[np.argmax(outside)]:g} outside the sampled range")
        if pts.size < 4:
            raise ContractViolationError(f"cubic interpolation needs at least 4 samples, got {pts.size}")
        j = np.clip(np.searchsorted(pts, ts) - 1, 0, pts.size - 2)
        nodes = np.clip(j - 1, 0, pts.size - 4)[:, None] + np.arange(4)  # (n, 4)
        x = pts[nodes]
        off = ~np.eye(4, dtype=bool)
        # w_k = prod over m != k of (t - x_m) / (x_k - x_m)
        ratio = np.where(off, ts[:, None, None] - x[:, None, :], 1.0) / np.where(
            off, x[:, :, None] - x[:, None, :], 1.0
        )
        return np.einsum("nk,nkab->nab", linalg._row_reduce(np.multiply, ratio), self.samples[nodes])

    def as_tcl_generator(self) -> TclGenerator:
        return TclGenerator(dim=self.dim, kind=self.kind, evaluate=self.evaluate)


@dataclass(frozen=True)
class DivisibilityReport:
    divisible: bool
    min_rate: float
    first_violation_time: float | None
    rate_traces: np.ndarray
    grid: TimeGrid
    kind: str
    rate_tolerance: float
    gaps: tuple = ()

    def to_json_dict(self, rates_csv_path: str | None = None) -> dict:
        out = {
            "divisible": bool(self.divisible),
            "min_rate": float(self.min_rate),
            "first_violation_time": (
                None if self.first_violation_time is None else float(self.first_violation_time)
            ),
            "kind": self.kind,
            "rate_tolerance": float(self.rate_tolerance),
            "gaps": [[float(a), float(b)] for a, b in self.gaps],
        }
        if rates_csv_path is not None:
            out["rates_csv_path"] = rates_csv_path
        return out


def _block_rows(table: np.ndarray) -> int:
    """Rows of ``table`` per block: ``BLOCK_BYTES`` of rows, at least 64."""
    return max(64, BLOCK_BYTES // max(1, table[:1].nbytes))


def _derivative_4th(maps: np.ndarray, h: float, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Rows lo..hi-1 (all by default) of the 4th-order finite-difference
    time derivative of a stacked family: interior rows read maps[lo-2:hi+2],
    the two one-sided rows at each end the first or last five maps."""
    n = maps.shape[0]
    if n < 5:
        raise ContractViolationError("need at least 5 grid points for 4th-order stencils")
    hi = n if hi is None else min(hi, n)
    d = np.empty_like(maps[lo:hi])
    a, b = max(lo, 2), min(hi, n - 2)
    if a < b:
        # (maps[i-2] - 8 maps[i-1] + 8 maps[i+1] - maps[i+2]) / (12 h), in
        # that operation order, with one scratch block
        mid = d[a - lo : b - lo]
        np.multiply(8, maps[a - 1 : b - 1], out=mid)
        np.subtract(maps[a - 2 : b - 2], mid, out=mid)
        mid += np.multiply(8, maps[a + 1 : b + 1])
        mid -= maps[a + 2 : b + 2]
        mid /= 12 * h
    ends = {
        0: lambda m: (-25 * m[0] + 48 * m[1] - 36 * m[2] + 16 * m[3] - 3 * m[4]) / (12 * h),
        1: lambda m: (-3 * m[0] - 10 * m[1] + 18 * m[2] - 6 * m[3] + m[4]) / (12 * h),
        n - 2: lambda m: (3 * m[-1] + 10 * m[-2] - 18 * m[-3] + 6 * m[-4] - m[-5]) / (12 * h),
        n - 1: lambda m: (25 * m[-1] - 48 * m[-2] + 36 * m[-3] - 16 * m[-4] + 3 * m[-5]) / (12 * h),
    }
    for i, row in ends.items():
        if lo <= i < hi:
            d[i - lo] = row(maps)
    return d


def _svd_gaps(maps: np.ndarray) -> np.ndarray:
    """kappa_2 > ``CONDITION_LIMIT`` from the singular values of each map."""
    sv = np.linalg.svd(maps, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(sv[:, -1] > 0, sv[:, 0] / sv[:, -1], np.inf) > CONDITION_LIMIT


def _column_squares(maps: np.ndarray) -> np.ndarray:
    """Squared Euclidean column norms (n, d) of stacked matrices: one einsum
    over a complex stack's real view, whose (re, im) column pairs are added."""
    flat = maps.view(maps.real.dtype) if np.iscomplexobj(maps) else maps
    squares = np.einsum("nab,nab->nb", flat, flat)
    return squares if flat is maps else squares[:, ::2] + squares[:, 1::2]


def _condition_gate(maps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The SVD's gap decision kappa_2 > L = ``CONDITION_LIMIT`` for every
    map, and the inverses of the kept maps in grid order.

    1. sigma_max >= max column norm and sigma_min <= min column norm, so a
       column-norm ratio above L(1 + ``GATE_MARGIN``) is a gap.
    2. The rest are inverted in one batch (X = Phi^{-1}), and
       maxcol(Phi) maxcol(X) <= kappa_2 <= |Phi|_F |X|_F: a point is kept
       below L(1 - margin) and is a gap above L(1 + margin).
    3. Points in between are decided by :func:`_svd_gaps`.  When the batched
       inverse meets an exact zero pivot, the maps whose ``det`` (the same
       LU pivots) is exactly 0 go to the SVD and the rest to the bracket.

    LAPACK inverts each map on its own, so the kept inverses carry the bits
    of inverting the kept maps alone.
    """
    upper_limit = CONDITION_LIMIT * (1 + GATE_MARGIN)
    lower_limit = CONDITION_LIMIT * (1 - GATE_MARGIN)
    squares = _column_squares(maps)
    big = linalg._row_reduce(np.maximum, squares)
    flagged = np.sqrt(big) > upper_limit * np.sqrt(linalg._row_reduce(np.minimum, squares))
    rest = np.flatnonzero(~flagged)
    try:
        inv = np.linalg.inv(maps if rest.size == flagged.size else maps[rest])
    except np.linalg.LinAlgError:
        zero = rest[np.linalg.det(maps[rest]) == 0]
        flagged[zero] = _svd_gaps(maps[zero])
        rest = np.flatnonzero(~flagged)
        inv = np.linalg.inv(maps[rest])
    inv_squares = _column_squares(inv)
    with np.errstate(over="ignore", invalid="ignore"):
        lower = np.sqrt(big[rest] * linalg._row_reduce(np.maximum, inv_squares))
        upper = np.sqrt(linalg._row_reduce(np.add, squares[rest]) * linalg._row_reduce(np.add, inv_squares))
    gaps = lower > upper_limit
    unsure = np.flatnonzero(~gaps & ~(upper < lower_limit))
    if unsure.size:
        gaps[unsure] = _svd_gaps(maps[rest[unsure]])
    flagged[rest] = gaps
    return flagged, inv[~gaps] if gaps.any() else inv


def extract_tcl_generator(family: PropagatorFamily) -> SampledGenerator:
    """Recover G(t) = dPhi/dt Phi^{-1} on the grid.

    Points where Phi is singular beyond ``CONDITION_LIMIT`` (or where the
    recovered sample fails trace annihilation, the symptom of a
    near-singular inversion) become gap intervals.  The grid is walked in
    row blocks (:func:`_block_rows`), so the memory held is the family,
    the sample table and one block's temporaries.  Each block is gated
    first (:func:`_condition_gate`: a column-norm screen, a kappa_2
    bracket from the inverse that G is built from, an SVD for the maps
    left undecided); a block with no kept map ends there, the others take
    the stencil, G, the trace test (:func:`propagation._trace_failures`)
    and the trace-row projection on their kept rows, which must be finite
    (else :class:`ContractViolationError`; the result skips the constructor's
    check).  No point surviving raises :class:`GeneratorSingularityError`."""
    maps = np.asarray(family.maps)
    h = family.grid.dt
    ts = family.grid.points
    u = linalg.conservation_row(family.kind, family.dim)
    samples = np.zeros(maps.shape, maps.dtype)  # lazily zeroed: gap rows are never written
    flagged = np.ones(maps.shape[0], dtype=bool)
    step = _block_rows(maps)
    for lo in range(0, maps.shape[0], step):
        gaps, inv = _condition_gate(maps[lo : lo + step])
        ok = np.flatnonzero(~gaps)
        if not ok.size:
            continue
        deriv = _derivative_4th(maps, h, lo, lo + step)
        g = np.einsum("nab,nbc->nac", deriv[ok] if ok.size < gaps.size else deriv, inv)
        residual = linalg.conservation_sums(g, family.kind, family.dim)
        bad = _trace_failures(linalg._row_reduce(np.maximum, np.abs(residual)), g, EXTRACTION_TRACE_TOL)
        # project out the residual trace-row defect for downstream stability:
        # u holds only 0s and 1s, so only the rows it selects change
        g[:, u == 1] -= (residual / float(u @ u))[:, None]
        g = g[~bad] if bad.any() else g
        if not np.isfinite(g).all():
            raise ContractViolationError("non-finite entry among the generator samples")
        kept = lo + ok[~bad]
        flagged[kept] = False
        samples[kept] = g
    if np.all(flagged):
        raise GeneratorSingularityError(
            f"propagator singular at every grid point (first t={ts[0]:g})", time=float(ts[0])
        )
    fields = dict(kind=family.kind, dim=family.dim, gaps=run_intervals(flagged, ts, h), matrix_dim=maps.shape[1])
    return _trusted(SampledGenerator, grid=family.grid, samples=_freeze(samples), **fields)


@lru_cache(maxsize=8)
def gell_mann_basis(dim: int) -> np.ndarray:
    """Generalized Gell-Mann matrices: (d^2 - 1, d, d) Hermitian, traceless,
    HS-orthonormal.  Ordering: for each pair j < k the symmetric then the
    antisymmetric element, followed by the d - 1 diagonal elements."""
    mats = []
    for j in range(dim):
        for k in range(j + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
            mats.append(sym)
            asym = np.zeros((dim, dim), dtype=complex)
            asym[j, k] = -1j / np.sqrt(2.0)
            asym[k, j] = 1j / np.sqrt(2.0)
            mats.append(asym)
    for l in range(1, dim):
        diag = np.zeros((dim, dim), dtype=complex)
        for j in range(l):
            diag[j, j] = 1.0
        diag[l, l] = -float(l)
        diag /= np.sqrt(l * (l + 1))
        mats.append(diag)
    return _freeze(np.array(mats))


@lru_cache(maxsize=8)
def _full_basis(dim: int) -> np.ndarray:
    ident = np.eye(dim, dtype=complex) / np.sqrt(dim)
    return np.concatenate([ident[None], gell_mann_basis(dim)], axis=0)


def _kossakowski(samples: np.ndarray, dim: int) -> np.ndarray:
    """Hermitian parts of the expansion coefficients c[t] with
    A_t(rho) = sum_{ab} c[t,a,b] F_a rho F_b^dagger over the HS-orthonormal
    basis {F_0 = I/sqrt(d), Gell-Mann...}, for stacked (n, d^2, d^2)
    superoperator matrices; c[t, 1:, 1:] is the Kossakowski matrix.

    c[A,B] = sum conj(F[B][c,a]) conj(F[A][d,e]) M[a,d,c,e] is two matrix
    products, over (a, c) and then over (d, e): the steps, operand layouts
    and bits of ``np.einsum`` on its ``optimize=True`` path, without the
    path's per-call parsing."""
    basis = _full_basis(dim).conj()
    dd = dim * dim
    m4 = np.asarray(samples, dtype=complex).reshape(-1, dim, dim, dim, dim)
    n = len(m4)
    x = m4.transpose(0, 2, 4, 1, 3).reshape(n * dd, dd) @ basis.transpose(2, 1, 0).reshape(dd, dd)  # [t d e, B]
    y = x.reshape(n, dim, dim, dd).transpose(0, 3, 1, 2).reshape(n * dd, dd) @ basis.transpose(1, 2, 0).reshape(dd, dd)
    c = y.reshape(n, dd, dd).transpose(0, 2, 1)  # y is [t B, A]
    return (c + c.conj().transpose(0, 2, 1)) / 2.0


@dataclass(frozen=True)
class CanonicalGkslForm:
    """Canonical GKSL form of n trace-annihilating quantum generators.

    ``coefficients`` (n, d^2, d^2) is the Hermitian :func:`_kossakowski`
    stack, whose [:, 1:, 1:] block is the Kossakowski matrix; ``rates``
    (n, d^2 - 1) are its eigenvalues, descending.  The Hamiltonians and the
    jump operators (one batched ``eigh``) are computed only when read.
    """

    dim: int
    coefficients: np.ndarray
    rates: np.ndarray

    @cached_property
    def jump_ops(self) -> np.ndarray:
        """HS-orthonormal traceless jump operators (n, d^2 - 1, d, d), in
        the order of ``rates``."""
        vecs = np.linalg.eigh(self.coefficients[:, 1:, 1:])[1][:, :, ::-1]
        return np.einsum("nik,iab->nkab", vecs, gell_mann_basis(self.dim))

    @cached_property
    def hamiltonian(self) -> np.ndarray:
        """Hermitian traceless Hamiltonians (n, d, d)."""
        b = np.einsum("ni,iab->nab", self.coefficients[:, 1:, 0], gell_mann_basis(self.dim)) / np.sqrt(self.dim)
        h = 1j * (b - b.conj().transpose(0, 2, 1)) / 2.0
        return h - np.einsum("nii->n", h)[:, None, None] / self.dim * np.eye(self.dim)

    def reassemble(self) -> np.ndarray:
        """The (n, d^2, d^2) generators rebuilt from the canonical pieces."""
        return assemble_gksl(self.hamiltonian, self.rates, self.jump_ops)


def canonical_forms(samples: np.ndarray, dim: int, ts: np.ndarray | None = None, at=slice(None)) -> CanonicalGkslForm:
    """Canonical GKSL form (Hall, Cresser, Li and Andersson, PRA 89, 042120
    (2014)) of stacked (n, d^2, d^2) quantum generators.

    The first sample whose trace defect exceeds ``EXTRACTION_TRACE_TOL``
    times max(1, max|G|) raises :class:`ContractViolationError` naming its
    index in the stack or, given the grid times ``ts`` and the samples'
    place ``at`` on that grid (a slice or an index array), its grid index
    and time.  A broadcast stack (leading stride 0: the one form
    :func:`propagation.tcl_pass` gives a constant generator) has one
    Kossakowski matrix decomposed and broadcast to every row."""
    samples = np.asarray(samples)
    constant = samples.strides[0] == 0
    distinct = samples[:1] if constant else samples
    defect, bad = _sample_defects(distinct, "quantum", dim, EXTRACTION_TRACE_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        k = i if ts is None else int(np.arange(ts.size)[at][i])
        t = None if ts is None else float(ts[k])
        where = f"{k}" if t is None else f"{k} at t={t:g}"
        raise ContractViolationError(
            f"generator sample {where} does not annihilate the trace (defect {defect[i]:.3e})", time=t
        )
    c = _kossakowski(distinct, dim)
    rates = np.linalg.eigvalsh(c[:, 1:, 1:])[:, ::-1]
    if constant:
        c, rates = np.broadcast_to(c, samples.shape), np.repeat(rates, len(samples), axis=0)
    return CanonicalGkslForm(dim, c, rates)


def check_cp_divisible(gen: SampledGenerator, rate_tolerance: float = RATE_TOLERANCE) -> DivisibilityReport:
    """Divisibility via the sign of the canonical rates at every grid point.
    The rates are taken block by block (:func:`_report_from_traces`), so
    beyond the samples and the rate table it holds one block's Kossakowski
    and ``eigvalsh`` temporaries."""
    if gen.kind != "quantum":
        raise ContractViolationError("canonical rates exist only for quantum generators")
    rates = lambda kept, at: canonical_forms(kept, gen.dim, gen.grid.points, at).rates
    return _report_from_traces(gen, rates, rate_tolerance)


def check_classical_divisible(gen: SampledGenerator, rate_tolerance: float = RATE_TOLERANCE) -> DivisibilityReport:
    """Divisibility via the sign of the off-diagonal effective rates."""
    if gen.kind != "classical":
        raise ContractViolationError("classical divisibility needs a classical generator")
    off = ~np.eye(gen.dim, dtype=bool)
    return _report_from_traces(gen, lambda kept, at: kept[:, off].real, rate_tolerance)


def check_divisible(gen: SampledGenerator, rate_tolerance: float = RATE_TOLERANCE) -> DivisibilityReport:
    """:func:`check_cp_divisible` for a quantum generator,
    :func:`check_classical_divisible` for a classical one."""
    if gen.kind == "quantum":
        return check_cp_divisible(gen, rate_tolerance)
    return check_classical_divisible(gen, rate_tolerance)


def _report_from_traces(gen, traces_of, rate_tolerance: float) -> DivisibilityReport:
    """The report on the (n, m) rate traces: ``traces_of`` maps the non-gap
    samples of one row block (:func:`_block_rows`) at a time, and their
    place on the grid (a slice or an index array), to their rows, and gap
    rows are NaN.  A broadcast stack (leading stride 0, the form
    :func:`propagation.tcl_pass` gives a constant generator) without gaps
    has every row equal to its first: the report reads that one row (a
    violation is at t_0), and ``rate_traces`` is it broadcast read-only to
    all n rows."""
    samples = gen.samples
    n = len(samples)
    keep = ~gen.gap_mask() if gen.gaps else None
    if keep is None and samples.strides[0] == 0:
        rows = traces_of(samples[:1], slice(0, 1)).astype(float, copy=False)
        traces = np.broadcast_to(rows, (n,) + rows.shape[1:])
    else:
        traces = None
        step = _block_rows(samples)
        for lo in range(0, n, step):
            at = slice(lo, lo + step) if keep is None else lo + np.flatnonzero(keep[lo : lo + step])
            block = samples[at]
            if len(block):
                rows = traces_of(block, at)
                if traces is None:
                    traces = np.full((n,) + rows.shape[1:], np.nan)
                traces[at] = rows
        rows = traces
    # fmin ignores NaN like nanmin (whose call np.fmin.reduce is); a row is
    # all NaN (a gap) exactly when its minimum is
    per_point = linalg._row_reduce(np.fmin, rows) if rows is not None and rows.shape[1] else np.full(n, np.nan)
    min_rate = float(np.fmin.reduce(per_point)) if len(per_point) else math.nan
    if math.isnan(min_rate):
        raise GeneratorSingularityError("no usable grid points outside gaps")
    violating = per_point < -rate_tolerance  # False on gap rows
    first = int(np.argmax(violating))
    divisible = not violating[first]
    return DivisibilityReport(
        divisible=divisible,
        min_rate=min_rate,
        first_violation_time=None if divisible else float(gen.grid.points[first]),
        rate_traces=traces,
        grid=gen.grid,
        kind=gen.kind,
        rate_tolerance=rate_tolerance,
        gaps=gen.gaps,
    )


def assemble_gksl(hamiltonian, rates, jump_ops) -> np.ndarray:
    """Superoperator matrix of -i[H, .] + sum_k gamma_k D[L_k]: H (..., d, d),
    rates (..., K) and jump operators (..., K, d, d) give (..., d^2, d^2)."""
    return linalg.commutator_superop(hamiltonian) + np.einsum(
        "...k,...kab->...ab", rates, linalg.dissipator_superop(jump_ops)
    )
