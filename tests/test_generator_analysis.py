import math

import numpy as np
import pytest
from scipy.linalg import expm

from backflow_lab import (
    ContractViolationError,
    ProbabilityVector,
    TimeGrid,
    assemble_gksl,
    canonical_forms,
    check_classical_divisible,
    check_cp_divisible,
    extract_tcl_generator,
    gell_mann_basis,
    ml_envelope_grid,
    solve_tcl,
)
from backflow_lab.generator_analysis import SampledGenerator
from backflow_lab.linalg import commutator_superop, dissipator_superop, left_right_superop
from backflow_lab.models import (
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    classical_exp_kernel,
    dephasing_qubit,
    exp_kernel_zero_crossing,
)
from backflow_lab.propagation import PropagatorFamily
from backflow_lab.states import _trusted


def expm_family(g, grid):
    maps = np.array([expm(t * g) for t in grid.points])
    return PropagatorFamily(grid, maps, "quantum", 2)


class TestGellMannBasis:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthonormal_traceless_hermitian(self, d):
        basis = gell_mann_basis(d)
        assert basis.shape == (d * d - 1, d, d)
        for i, f in enumerate(basis):
            assert abs(np.trace(f)) < 1e-14
            assert np.max(np.abs(f - f.conj().T)) < 1e-14
            for j, g in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert np.trace(f.conj().T @ g) == pytest.approx(expected, abs=1e-13)

    def test_qubit_basis_is_scaled_paulis(self):
        basis = gell_mann_basis(2)
        assert np.max(np.abs(basis[0] - SIGMA_X / np.sqrt(2))) < 1e-15
        assert np.max(np.abs(basis[2] - SIGMA_Z / np.sqrt(2))) < 1e-15


class TestExtraction:
    def test_identity_family_zero_generator(self):
        grid = TimeGrid.uniform(0.01, 0.1)
        maps = np.array([np.eye(4, dtype=complex)] * grid.n)
        family = PropagatorFamily(grid, maps, "quantum", 2)
        gen = extract_tcl_generator(family)
        assert np.max(np.abs(gen.samples)) < 1e-12
        assert gen.gaps == ()

    def test_non_finite_kept_sample_rejected(self):
        """A map entry of 1e308 gaps its own row, but the stencil overflows on
        the neighbours, whose trace residual stays finite: they are kept
        with non-finite samples, and extraction raises for them."""
        grid = TimeGrid.uniform(1e-3, 1.0)
        maps = np.array(dephasing_qubit(rate_kind="sinusoidal", amplitude=0.5).propagator_fn(grid).maps)
        maps[500, 1, 1] = 1e308
        family = PropagatorFamily(grid, maps, "quantum", 2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ContractViolationError, match="^non-finite entry among the generator samples$"):
                extract_tcl_generator(family)

    @pytest.mark.parametrize("name", ["dephasing_qubit", "classical_exp_kernel"])
    def test_result_is_the_checked_generator(self, name):
        """The extracted generator skips the constructor's check; it equals,
        field by field and bit for bit, the checked one of its samples."""
        # the dephasing family's cos(mu t) vanishes at the grid point t = 1: a gap there
        gapped = dephasing_qubit(rate_kind="cosine_f", mu=math.pi / 2)
        model = gapped if name == "dephasing_qubit" else classical_exp_kernel()
        grid = TimeGrid.uniform(1e-2, 4.0)
        gen = extract_tcl_generator(model.propagator_fn(grid))
        checked = SampledGenerator(grid, gen.samples, gen.kind, gen.dim, gen.gaps)
        assert gen.samples.dtype == checked.samples.dtype and gen.samples.tobytes() == checked.samples.tobytes()
        assert not gen.samples.flags.writeable and gen.samples.flags.c_contiguous
        assert (gen.grid, gen.kind, gen.dim, gen.gaps, gen.matrix_dim) == (
            checked.grid, checked.kind, checked.dim, checked.gaps, checked.matrix_dim
        )
        assert all(type(end) is float for gap in gen.gaps for end in gap)
        assert name != "dephasing_qubit" or gen.gaps

    def test_constant_gksl_recovery(self):
        g = dissipator_superop(SIGMA_MINUS) + commutator_superop(0.7 * SIGMA_X)
        grid = TimeGrid.uniform(1e-3, 2.0)
        gen = extract_tcl_generator(expm_family(g, grid))
        err = np.max(np.abs(gen.samples - g))
        assert err <= 1e-5  # interior and one-sided stencils both

    def test_dephasing_rate_recovery(self):
        # f(t) = exp(-t) cos(t): gamma(t) = -f'/f = 1 + tan(t) on [0.1, 1.4]
        grid = TimeGrid.uniform(1e-3, 1.45)
        f = np.exp(-grid.points) * np.cos(grid.points)
        maps = np.zeros((grid.n, 4, 4), dtype=complex)
        maps[:, 0, 0] = maps[:, 3, 3] = 1.0
        maps[:, 1, 1] = maps[:, 2, 2] = f
        family = PropagatorFamily(grid, maps, "quantum", 2)
        gen = extract_tcl_generator(family)
        # coherence sector of the generator equals f'/f = -(1 + tan t)
        recovered = -gen.samples[:, 1, 1].real
        expected = 1.0 + np.tan(grid.points)
        mask = (grid.points >= 0.1) & (grid.points <= 1.4)
        assert np.max(np.abs(recovered[mask] - expected[mask])) <= 1e-4

    def test_singular_points_become_gaps(self):
        grid = TimeGrid.uniform(0.1, 0.8)
        f = np.array([1.0, 0.8, 0.5, 0.2, 1e-12, 0.2, 0.5, 0.8, 1.0])
        maps = np.zeros((grid.n, 4, 4), dtype=complex)
        maps[:, 0, 0] = maps[:, 3, 3] = 1.0
        maps[:, 1, 1] = maps[:, 2, 2] = f
        family = PropagatorFamily(grid, maps, "quantum", 2)
        gen = extract_tcl_generator(family)
        assert len(gen.gaps) == 1
        lo, hi = gen.gaps[0]
        assert lo <= 0.4 <= hi
        assert list(gen.gap_mask()[[1, 4]]) == [False, True]
        from backflow_lab import GeneratorSingularityError

        with pytest.raises(GeneratorSingularityError, match="t=0.4") as raised:
            gen.evaluate(np.array([0.1, 0.4, 0.45]))
        assert raised.value.time == 0.4

    def test_interpolation_matches_smooth_generator(self):
        g = dissipator_superop(SIGMA_MINUS)
        grid = TimeGrid.uniform(1e-2, 1.0)
        gen = extract_tcl_generator(expm_family(g, grid))
        probe = gen.evaluate(np.array([0.0, 0.123, 1.0]))
        assert probe.shape == (3, 4, 4) and np.max(np.abs(probe - g)) < 1e-6

    def test_batched_interpolation_matches_pointwise_lagrange(self):
        """Against the per-time 4-point Lagrange loop, at the ends, on grid
        points and between them."""
        grid = TimeGrid.uniform(0.1, 1.0)
        rng = np.random.default_rng(3)
        gen = SampledGenerator(grid, rng.standard_normal((grid.n, 2, 2)), "classical", 2)
        ts = np.concatenate([[0.0, 0.05, 0.3, 0.95, 1.0], rng.uniform(0.0, 1.0, 20)])
        pts = grid.points

        def lagrange(t):
            j = min(max(int(np.searchsorted(pts, t) - 1), 0), pts.size - 2)
            idx = range(min(max(j - 1, 0), pts.size - 4), min(max(j - 1, 0), pts.size - 4) + 4)
            return sum(
                math.prod((t - pts[m]) / (pts[k] - pts[m]) for m in idx if m != k) * gen.samples[k] for k in idx
            )

        want = np.array([lagrange(t) for t in ts.tolist()])
        assert np.max(np.abs(gen.evaluate(ts) - want)) <= 1e-13
        assert np.array_equal(gen.evaluate(pts), gen.samples)

    def test_interpolation_needs_four_samples(self):
        """A 3-point grid has no 4-point stencil: a contract error that
        names the sample count, not a wrapped node index and +-inf."""
        from backflow_lab.analysis import propagate

        model = dephasing_qubit(rate_kind="sinusoidal")
        _, gen = propagate(model, TimeGrid.uniform(1.0, 2.0), "tcl", trajectory=False)
        assert gen.samples.shape[0] == 3
        with pytest.raises(ContractViolationError, match="at least 4 samples, got 3"):
            gen.evaluate(np.array([0.5, 1.5]))


class TestStencilOrder:
    def test_derivative_4th_observed_order_four(self):
        """On the exact sinusoidal dephasing family, f' = -gamma(t) f with
        gamma(t) = lam + amplitude sin(frequency t): halving h from 0.02 to
        0.01 divides the stencil error by about 2^4 = 16 on the interior
        points and on the one-sided end points alike."""
        from backflow_lab.generator_analysis import _derivative_4th

        lam, amplitude, frequency = 1.0, 0.5, 1.0
        model = dephasing_qubit(rate_kind="sinusoidal", lam=lam, amplitude=amplitude, frequency=frequency)
        errors = []
        for h in (0.02, 0.01):
            grid = TimeGrid.uniform(h, 4.0)
            f = model.propagator_fn(grid).maps[:, 1, 1]
            exact = -(lam + amplitude * np.sin(frequency * grid.points)) * f
            err = np.abs(_derivative_4th(f, h) - exact)
            errors.append((np.max(err[2:-2]), np.max(err[[0, 1, -2, -1]])))
        (interior_coarse, ends_coarse), (interior_fine, ends_fine) = errors
        assert interior_coarse / interior_fine >= 14.0
        assert ends_coarse / ends_fine >= 14.0

    def test_interior_stencil_bitwise_equal_to_one_expression(self):
        """The interior stencil is written in place with one scratch table,
        in the operation order of the one-expression form."""
        from backflow_lab.generator_analysis import _derivative_4th

        h = 1e-3
        maps = dephasing_qubit(rate_kind="sinusoidal", amplitude=1.3).propagator_fn(TimeGrid.uniform(h, 5.0)).maps
        want = (maps[:-4] - 8 * maps[1:-3] + 8 * maps[3:-1] - maps[4:]) / (12 * h)
        got = _derivative_4th(maps, h)[2:-2]
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def gap_intervals_loop(flagged, ts, h):
    """The per-point run scan the gap intervals were first built with."""
    n = flagged.shape[0]
    gaps = []
    i = 0
    while i < n:
        if flagged[i]:
            j = i
            while j + 1 < n and flagged[j + 1]:
                j += 1
            lo = ts[i] - (h / 2 if i > 0 else 0.0)
            hi = ts[j] + (h / 2 if j < n - 1 else 0.0)
            gaps.append((float(lo), float(hi)))
            i = j + 1
        else:
            i += 1
    return tuple(gaps)


class TestGapIntervals:
    def masks(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 7, 64, 1001):
            yield np.zeros(n, dtype=bool)
            yield np.ones(n, dtype=bool)
            for density in (0.05, 0.5, 0.95):
                yield rng.random(n) < density
            for k in {0, n // 2, n - 1}:
                single = np.zeros(n, dtype=bool)
                single[k] = True
                yield single  # one flagged point: first, middle or last
                yield ~single  # flagged everywhere but one point
        edges = np.zeros(50, dtype=bool)
        edges[[0, 1, 2, 20, 47, 48, 49]] = True
        yield edges

    def test_matches_per_point_loop(self):
        from backflow_lab.states import run_intervals

        for flagged in self.masks():
            grid = TimeGrid.uniform(0.013, 0.013 * (flagged.size - 1)) if flagged.size > 1 else None
            ts = grid.points if grid is not None else np.array([0.0])
            h = grid.dt if grid is not None else 0.013
            got = run_intervals(flagged, ts, h)
            want = gap_intervals_loop(flagged, ts, h)
            assert got == want and all(type(x) is float for gap in got for x in gap)
            assert [a.hex() for gap in got for a in gap] == [a.hex() for gap in want for a in gap]


def extract_with_copies(family, condition_limit=1e8):
    """Generator extraction as first batched: the well-conditioned maps and
    derivatives copied out, a separate zero sample table, and the
    trace-row projection built from full temporaries."""
    from backflow_lab.generator_analysis import EXTRACTION_TRACE_TOL, _derivative_4th
    from backflow_lab.linalg import conservation_row
    from backflow_lab.states import run_intervals

    maps = np.asarray(family.maps)
    h = family.grid.dt
    ts = family.grid.points
    deriv = _derivative_4th(maps, h)
    u = conservation_row(family.kind, family.dim)
    sv = np.linalg.svd(maps, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        conds = np.where(sv[:, -1] > 0, sv[:, 0] / sv[:, -1], np.inf)
    flagged = conds > condition_limit
    samples = np.zeros_like(maps)
    ok = ~flagged
    inv_ok = np.linalg.inv(maps[ok])
    g_ok = np.einsum("nab,nbc->nac", deriv[ok], inv_ok)
    defects = np.max(np.abs(np.einsum("a,nab->nb", u, g_ok)), axis=1)
    scales = np.maximum(1.0, np.max(np.abs(g_ok), axis=(1, 2)))
    bad = defects > EXTRACTION_TRACE_TOL * scales
    g_ok = g_ok - np.einsum("a,nb->nab", u, np.einsum("a,nab->nb", u, g_ok)) / float(u @ u)
    g_ok[bad] = 0.0
    samples[ok] = g_ok
    flagged[np.nonzero(ok)[0][bad]] = True
    return samples, run_intervals(flagged, ts, h)


# on dt = 1e-3, t_max = 15, 926 of its maps lie within 1e-12 of
# [[.5, .5], [.5, .5]] and are exactly singular to LU: they pass the
# column-norm screen and make the batched inverse raise
EXACTLY_SINGULAR_KERNEL = classical_exp_kernel(gamma=0.84, tau_m=0.1526)
# its inverse bracket leaves a few hundred maps near the limit to the SVD
BRACKETED_KERNEL = classical_exp_kernel(n=3, gamma=1.0, tau_m=0.3)


def svd_gap_mask(maps, condition_limit=1e8):
    """kappa_2 > condition_limit from every map's singular values."""
    sv = np.linalg.svd(maps, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(sv[:, -1] > 0, sv[:, 0] / sv[:, -1], np.inf) > condition_limit


def conditioned_stack(rng, kappas, d, complex_):
    """Random (n, d, d) maps with condition numbers ``kappas``: singular
    values 1 and 1/kappa with the rest log-uniform between, rotated by
    random orthogonal (or unitary) factors and scaled by up to 1e3 either way."""
    n = kappas.size
    shape = (n, d, d)

    def rotation():
        z = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_ else 0.0)
        return np.linalg.qr(z)[0]

    inner = kappas[:, None] ** -rng.uniform(0.0, 1.0, (n, d - 2))
    sv = np.concatenate([np.ones((n, 1)), inner, 1.0 / kappas[:, None]], axis=1)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, (n, 1, 1))
    return scale * np.einsum("nab,nb,ncb->nac", rotation(), sv, rotation().conj())


def count_svd_rows(monkeypatch):
    """Patch ``np.linalg.svd`` to record the number of maps of each call."""
    rows = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        rows.append(np.shape(a)[0])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return rows


def bracket_undecided(maps):
    """The number of invertible maps whose inverse bracket
    maxcol(Phi) maxcol(Phi^-1) <= kappa_2 <= |Phi|_F |Phi^-1|_F meets the
    band CONDITION_LIMIT (1 +- GATE_MARGIN), widened by 1e-12 either way."""
    from backflow_lab.generator_analysis import CONDITION_LIMIT, GATE_MARGIN

    cols = np.sum(np.abs(maps) ** 2, axis=1)
    inv_cols = np.sum(np.abs(np.linalg.inv(maps)) ** 2, axis=1)
    lower = np.sqrt(cols.max(axis=1) * inv_cols.max(axis=1))
    upper = np.sqrt(cols.sum(axis=1) * inv_cols.sum(axis=1))
    band = CONDITION_LIMIT * (1 + GATE_MARGIN) * (1 + 1e-12), CONDITION_LIMIT * (1 - GATE_MARGIN) * (1 - 1e-12)
    return int(np.count_nonzero((lower <= band[0]) & (upper >= band[1])))


class TestConditionGate:
    """The gate's screen and inverse bracket give the SVD's decision
    kappa_2 > CONDITION_LIMIT on every map, and hand back the kept maps'
    inverses with the bits of inverting those maps alone."""

    SHAPES = [(4, True), (2, False), (3, False)]

    def check(self, maps):
        from backflow_lab.generator_analysis import _condition_gate

        flagged, inv = _condition_gate(maps)
        want = svd_gap_mask(maps)
        assert np.array_equal(flagged, want)
        kept = np.linalg.inv(maps[~want])
        assert inv.shape == kept.shape
        assert np.array_equal(inv.view(np.uint8), kept.view(np.uint8))
        return flagged

    @pytest.mark.parametrize("d, complex_", SHAPES)
    def test_log_uniform_conditions(self, monkeypatch, d, complex_):
        rng = np.random.default_rng(16 + d)
        kappas = 10.0 ** rng.uniform(6.0, 10.0, 4000)
        maps = conditioned_stack(rng, kappas, d, complex_)
        rows = count_svd_rows(monkeypatch)
        flagged = self.check(maps)
        assert 0 < flagged.sum() < flagged.size
        # the bounds decide most maps; the SVD sees only the rest (and the
        # reference's own call on every map)
        assert rows[-1] == maps.shape[0] and 0 < sum(rows[:-1]) < maps.shape[0] // 2

    @pytest.mark.parametrize("d, complex_", SHAPES)
    def test_conditions_pinned_at_the_limit(self, d, complex_):
        from backflow_lab.generator_analysis import CONDITION_LIMIT

        rng = np.random.default_rng(160 + d)
        offsets = np.concatenate([-np.logspace(-9, -5, 9), np.logspace(-9, -5, 9)])
        kappas = np.repeat(CONDITION_LIMIT * (1.0 + offsets), 40)
        flagged = self.check(conditioned_stack(rng, kappas, d, complex_))
        assert flagged[kappas > CONDITION_LIMIT * (1 + 1e-7)].all()
        assert not flagged[kappas < CONDITION_LIMIT * (1 - 1e-7)].any()

    def test_exactly_singular_maps(self):
        rng = np.random.default_rng(1616)
        for d, complex_ in self.SHAPES:
            maps = conditioned_stack(rng, 10.0 ** rng.uniform(0.0, 10.0, 200), d, complex_)
            # duplicated power-of-two columns: LU elimination meets an exact zero pivot
            column = 0.5 ** np.arange(d)
            maps[::7, :, 0] = maps[::7, :, 1] = column
            maps[3] = 0.0
            flagged = self.check(maps)
            assert flagged[::7].all() and flagged[3]
        half = np.full((2, 2), 0.5)
        self.check(np.stack([half, np.eye(2), half, [[1.0, 2.0], [0.0, 1.0]]]))


class TestExtractionWithoutCopies:
    """Extraction uses the family itself when every point is
    well-conditioned and projects in place; the samples keep every bit."""

    def families(self):
        yield "sinusoidal, no gaps", dephasing_qubit(rate_kind="sinusoidal", amplitude=0.5).propagator_fn(
            TimeGrid.uniform(1e-3, 10.0)
        )
        yield "sinusoidal, gap at the end", dephasing_qubit(rate_kind="sinusoidal", amplitude=1.5).propagator_fn(
            TimeGrid.uniform(1e-3, 40.0)
        )
        # mu = pi puts the zeros of f on grid points (t = 0.5, 1.5, ...)
        yield "cosine_f, gaps at the zeros", dephasing_qubit(rate_kind="cosine_f", mu=math.pi).propagator_fn(
            TimeGrid.uniform(1e-3, 8.0)
        )
        model = classical_exp_kernel(n=3, gamma=1.0, tau_m=1.0)
        yield "3-state kernel", model.propagator_fn(TimeGrid.uniform(2e-3, 10.0))
        # most of this family's gap points fail the trace check after an
        # ill-conditioned but allowed inversion, rather than the condition limit
        model = classical_exp_kernel(gamma=1.0, tau_m=0.5)
        yield "kernel, trace-check gaps", model.propagator_fn(TimeGrid.uniform(1e-3, 15.0))
        yield "kernel, exactly singular maps", EXACTLY_SINGULAR_KERNEL.propagator_fn(TimeGrid.uniform(1e-3, 15.0))
        yield "3-state kernel, SVD-decided points", BRACKETED_KERNEL.propagator_fn(TimeGrid.uniform(1e-3, 15.0))

    def test_samples_bitwise_equal_to_copying_version(self):
        gap_counts = {}
        for label, family in self.families():
            got = extract_tcl_generator(family)
            want_samples, want_gaps = extract_with_copies(family)
            assert got.samples.dtype == want_samples.dtype, label
            assert np.array_equal(got.samples.view(np.uint8), want_samples.view(np.uint8)), label
            assert got.gaps == want_gaps, label
            gap_counts[label] = len(got.gaps)
        assert gap_counts["sinusoidal, no gaps"] == gap_counts["3-state kernel"] == 0
        assert gap_counts["sinusoidal, gap at the end"] > 0 and gap_counts["cosine_f, gaps at the zeros"] > 0
        assert gap_counts["kernel, trace-check gaps"] > 0
        assert gap_counts["kernel, exactly singular maps"] > 0 and gap_counts["3-state kernel, SVD-decided points"] > 0

    def test_block_edges(self, monkeypatch):
        """With 64-row blocks, gap runs and exactly singular maps straddle
        block edges, and short grids end in a partial block or one block of
        5 rows; samples and gaps keep the bits of the copying version, and
        both reports' rate traces keep the bits of a one-block run."""
        import backflow_lab.generator_analysis as ga

        # dt = 1/128 puts the zeros of f (t = 0.5, 1.5, ...) on rows 64, 192, ...
        model = dephasing_qubit(rate_kind="cosine_f", mu=math.pi)
        short = [(f"cosine_f, N = {n}", model.propagator_fn(TimeGrid.uniform(1 / 128, (n - 1) / 128))) for n in (5, 63, 64, 65, 131)]
        gapped = {}
        for label, family in list(self.families()) + short:
            monkeypatch.setattr(ga, "BLOCK_BYTES", 1)
            got = extract_tcl_generator(family)
            want_samples, want_gaps = extract_with_copies(family)
            assert np.array_equal(got.samples.view(np.uint8), want_samples.view(np.uint8)), label
            assert got.gaps == want_gaps, label
            gapped[label] = bool(got.gaps)
            check = check_cp_divisible if got.kind == "quantum" else check_classical_divisible
            blocked = check(got).rate_traces
            monkeypatch.setattr(ga, "BLOCK_BYTES", 1 << 40)
            whole = check(got).rate_traces
            assert np.array_equal(blocked.view(np.uint8), whole.view(np.uint8)), label
        assert gapped["cosine_f, N = 65"] and gapped["cosine_f, N = 131"]

    def test_blocks_of_one_and_seven_rows(self, monkeypatch):
        """Blocks smaller than the stencil's reach split its end rows and
        interior across blocks; the bits stay."""
        import backflow_lab.generator_analysis as ga

        family = dephasing_qubit(rate_kind="cosine_f", mu=math.pi).propagator_fn(TimeGrid.uniform(1 / 128, 1.5))
        want_samples, want_gaps = extract_with_copies(family)
        whole = check_cp_divisible(extract_tcl_generator(family)).rate_traces
        for rows in (1, 7):
            monkeypatch.setattr(ga, "_block_rows", lambda table: rows)
            got = extract_tcl_generator(family)
            assert np.array_equal(got.samples.view(np.uint8), want_samples.view(np.uint8)), rows
            assert got.gaps == want_gaps and got.gaps, rows
            assert np.array_equal(check_cp_divisible(got).rate_traces.view(np.uint8), whole.view(np.uint8)), rows

    @pytest.mark.parametrize("amplitude, t_max", [(0.5, 10.0), (1.5, 40.0)])
    def test_peak_allocation_bounded(self, amplitude, t_max):
        """Beyond the family, extraction holds the sample table and one
        block's temporaries (the copying version reached 6.2 tables without
        gaps, the whole-grid stencil 3.04)."""
        import tracemalloc

        from backflow_lab.generator_analysis import BLOCK_BYTES

        family = dephasing_qubit(rate_kind="sinusoidal", amplitude=amplitude).propagator_fn(
            TimeGrid.uniform(1e-3, t_max)
        )
        extract_tcl_generator(family)
        tracemalloc.start()
        try:
            extract_tcl_generator(family)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= family.maps.nbytes + 8 * BLOCK_BYTES


class TestGateCost:
    def test_dephasing_extraction_passes_few_maps_to_the_svd(self, monkeypatch):
        """The cli-mixed dephasing family: the screen and the inverse
        bracket decide all but a few percent of the 40 001 maps."""
        family = dephasing_qubit(rate_kind="sinusoidal", amplitude=1.32).propagator_fn(TimeGrid.uniform(1e-3, 40.0))
        rows = count_svd_rows(monkeypatch)
        gen = extract_tcl_generator(family)
        assert gen.gaps and sum(rows) <= 0.05 * family.maps.shape[0]

    def test_stencil_runs_only_on_blocks_with_a_kept_point(self, monkeypatch):
        """The cli-mixed dephasing family: 24 of its 40 blocks of 1 024 rows
        lie wholly in the screened gap and get no stencil, so at most 16
        blocks of rows are differentiated, exactly the blocks holding a kept point."""
        import backflow_lab.generator_analysis as ga

        family = dephasing_qubit(rate_kind="sinusoidal", amplitude=1.32).propagator_fn(TimeGrid.uniform(1e-3, 40.0))
        step = ga._block_rows(family.maps)
        assert step == 1024
        derivative, blocks = ga._derivative_4th, []

        def counting(maps, h, lo=0, hi=None):
            out = derivative(maps, h, lo, hi)
            blocks.append((lo, len(out)))
            return out

        monkeypatch.setattr(ga, "_derivative_4th", counting)
        gen = extract_tcl_generator(family)
        kept = ~gen.gap_mask()
        assert sum(rows for _, rows in blocks) <= 16 * step
        assert {lo // step for lo in np.flatnonzero(kept)} == {lo // step for lo, _ in blocks}

    def test_families_take_the_fallback_and_the_bracket(self, monkeypatch):
        """The two kernel families added to the bit-equality test reach the
        gate's SVD: the exactly singular maps (``det`` exactly 0) go to it
        and the other maps of their block keep the bracket, so the SVD sees
        no more than the det-zero maps and the maps the bracket leaves
        undecided."""
        for family, zero in [
            (EXACTLY_SINGULAR_KERNEL.propagator_fn(TimeGrid.uniform(1e-3, 15.0)), 926),
            (BRACKETED_KERNEL.propagator_fn(TimeGrid.uniform(1e-3, 15.0)), 0),
        ]:
            singular = np.linalg.det(family.maps) == 0
            assert np.count_nonzero(singular) == zero
            rows = count_svd_rows(monkeypatch)
            extract_tcl_generator(family)
            assert 0 < sum(rows) <= zero + bracket_undecided(family.maps[~singular])
            assert sum(rows) < 0.1 * family.maps.shape[0]


def canonical_form(g, dim=2):
    """The canonical form of one generator, as a one-sample stack."""
    return canonical_forms(np.asarray(g)[None], dim)


class TestKossakowskiContraction:
    @pytest.mark.parametrize("dim", range(2, 9))
    def test_bits_of_the_optimized_einsum(self, dim):
        """The two matrix products give ``np.einsum``'s bits on its
        ``optimize=True`` path, for one sample, a broadcast row and stacks."""
        from backflow_lab.generator_analysis import _full_basis, _kossakowski

        basis = _full_basis(dim).conj()
        rng = np.random.default_rng(dim)
        dd = dim * dim
        stacks = [rng.standard_normal((n, dd, dd)) + 1j * rng.standard_normal((n, dd, dd)) for n in (1, 5, 300)]
        stacks += [np.broadcast_to(stacks[0], (4, dd, dd)), rng.standard_normal((3, dd, dd))]
        for samples in stacks:
            m4 = np.asarray(samples, dtype=complex).reshape(-1, dim, dim, dim, dim)
            c = np.einsum("Bca,Ade,tadce->tAB", basis, basis, m4, optimize=True)
            want = (c + c.conj().transpose(0, 2, 1)) / 2.0
            got = _kossakowski(samples, dim)
            assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


class TestCanonicalDecomposition:
    def test_amplitude_damping(self):
        g = assemble_gksl(np.zeros((2, 2)), [1.0], [SIGMA_MINUS])
        form = canonical_form(g)
        assert np.allclose(form.rates[0], [1.0, 0.0, 0.0], atol=1e-12)
        # dominant jump operator is the lowering operator up to phase
        overlap = abs(np.trace(form.jump_ops[0, 0].conj().T @ SIGMA_MINUS))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_unitary_generator_rates_vanish(self):
        g = commutator_superop(0.9 * SIGMA_X + 0.4 * SIGMA_Z)
        form = canonical_form(g)
        assert np.max(np.abs(form.rates)) <= 1e-9
        assert np.max(np.abs(form.hamiltonian[0] - (0.9 * SIGMA_X + 0.4 * SIGMA_Z))) < 1e-10

    def test_dephasing_rate_and_jump(self):
        gamma = 0.7
        g = gamma * dissipator_superop(SIGMA_Z / np.sqrt(2.0))
        form = canonical_form(g)
        assert form.rates[0, 0] == pytest.approx(gamma, abs=1e-12)
        assert np.max(np.abs(form.rates[0, 1:])) <= 1e-12
        overlap = abs(np.trace(form.jump_ops[0, 0].conj().T @ (SIGMA_Z / np.sqrt(2.0))))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_broadcast_stack_known_constant_by_its_stride(self, monkeypatch):
        """A stack of one row in memory is decomposed once, with no
        elementwise compare, and reads like its contiguous copy."""
        g = dissipator_superop(SIGMA_MINUS) + commutator_superop(0.3 * SIGMA_Z)
        stack = np.broadcast_to(g, (50, 4, 4))
        copy = canonical_forms(np.ascontiguousarray(stack), 2)
        monkeypatch.setattr(np, "all", None)  # the compare would call it
        form = canonical_forms(stack, 2)
        assert form.rates.tobytes() == copy.rates.tobytes()
        assert np.array_equal(form.coefficients, copy.coefficients)

    def test_reassembly_roundtrip(self):
        rng = np.random.default_rng(13)
        h = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
        h = (h + h.conj().transpose(0, 2, 1)) / 2
        rates = rng.uniform(0.1, 2.0, size=(5, 2))
        g = assemble_gksl(h, rates, [SIGMA_MINUS, SIGMA_Z / np.sqrt(2.0)])
        assert g.shape == (5, 4, 4)
        assert np.max(np.abs(canonical_forms(g, 2).reassemble() - g)) <= 1e-8

    def test_assemble_matches_the_loop_over_jumps(self):
        """The batched sum over jump operators against -i[H, .] plus one
        rate times D[L_k] at a time, per sample: equal up to the summation
        order, within 16 eps of the largest entry."""
        rng = np.random.default_rng(41)
        a = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        h = (a + a.conj().transpose(0, 2, 1)) / 2
        rates = rng.uniform(-1.0, 2.0, size=(4, 5))
        jumps = rng.standard_normal((4, 5, 3, 3)) + 1j * rng.standard_normal((4, 5, 3, 3))
        loop = []
        for n in range(4):
            g = commutator_superop(h[n])
            for k in range(5):
                g = g + rates[n, k] * dissipator_superop(jumps[n, k])
            loop.append(g)
        loop = np.array(loop)
        got = assemble_gksl(h, rates, jumps)
        assert got.shape == (4, 9, 9)
        assert np.max(np.abs(got - loop)) <= 16 * np.finfo(float).eps * np.max(np.abs(loop))

    def test_rates_basis_independent(self):
        rng = np.random.default_rng(23)
        g = assemble_gksl(0.3 * SIGMA_X, [1.0, 0.4], [SIGMA_MINUS, SIGMA_Z / np.sqrt(2.0)])
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u, _ = np.linalg.qr(a)
        # conjugated generator: rho -> U^dag A(U rho U^dag) U
        conj = left_right_superop(u.conj().T, u)
        conj_inv = left_right_superop(u, u.conj().T)
        g2 = conj @ g @ conj_inv
        r1, r2 = canonical_forms(np.stack([g, g2]), 2).rates
        assert np.max(np.abs(np.sort(r1) - np.sort(r2))) <= 1e-8

    def test_qutrit_round_trip_and_unitary_invariance(self):
        """d = 3: a random Hamiltonian, three rates and three jump
        operators reassemble within 1e-8, and a unitary conjugation moves
        no canonical rate by more than 1e-8."""
        rng = np.random.default_rng(31)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        jumps = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        g = assemble_gksl((a + a.conj().T) / 2, rng.uniform(0.1, 2.0, 3), jumps)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        g2 = left_right_superop(u.conj().T, u) @ g @ left_right_superop(u, u.conj().T)
        forms = canonical_forms(np.stack([g, g2]), 3)
        assert forms.rates.shape == (2, 8)
        assert np.max(np.abs(forms.reassemble() - np.stack([g, g2]))) <= 1e-8
        assert np.max(np.abs(forms.rates[0] - forms.rates[1])) <= 1e-8
        assert np.all(forms.rates[:, :3] > 0.1)

    def test_jump_ops_orthonormal(self):
        g = assemble_gksl(0.2 * SIGMA_X, [1.3, 0.5], [SIGMA_MINUS, SIGMA_Z / np.sqrt(2.0)])
        jumps = canonical_form(g).jump_ops[0]
        for i, li in enumerate(jumps):
            assert abs(np.trace(li)) < 1e-9
            for j, lj in enumerate(jumps):
                expected = 1.0 if i == j else 0.0
                assert np.trace(li.conj().T @ lj) == pytest.approx(expected, abs=1e-9)

    def test_constant_stack_decomposes_one_sample(self, monkeypatch):
        import backflow_lab.generator_analysis as ga

        g = assemble_gksl(0.2 * SIGMA_X, [1.3, 0.5], [SIGMA_MINUS, SIGMA_Z / np.sqrt(2.0)])
        one = canonical_form(g)
        decomposed = []
        kossakowski = ga._kossakowski
        monkeypatch.setattr(ga, "_kossakowski", lambda s, d: decomposed.append(len(s)) or kossakowski(s, d))
        forms = canonical_forms(np.broadcast_to(g, (4,) + g.shape), 2)
        assert decomposed == [1]
        assert np.array_equal(forms.rates, np.repeat(one.rates, 4, axis=0))
        assert np.max(np.abs(forms.reassemble() - g)) <= 1e-8
        # equal rows that are not one broadcast row are decomposed row by row, to the same bits
        assert np.array_equal(canonical_forms(np.stack([g] * 4), 2).rates, forms.rates)

    def test_non_generator_rejected(self):
        """The trace check names the first failing sample of the stack."""
        good = dissipator_superop(SIGMA_MINUS)
        with pytest.raises(ContractViolationError, match="sample 1 does not annihilate the trace"):
            canonical_forms(np.stack([good, np.eye(4, dtype=complex), good]), 2)


class TestCpDivisibility:
    @pytest.mark.parametrize("rate_kind, params, t_max", [("cosine_f", {"mu": math.pi}, 8.0), ("sinusoidal", {"amplitude": 1.5}, 40.0)])
    def test_canonical_rates_skip_gap_rows_with_equal_bits(self, monkeypatch, rate_kind, params, t_max):
        """Gap rows are never decomposed; they are NaN, and the other rows
        keep the bits of the full-grid decomposition.  The report reads no
        jump operator, so no ``eigh`` runs."""
        import backflow_lab.generator_analysis as ga

        family = dephasing_qubit(rate_kind=rate_kind, **params).propagator_fn(TimeGrid.uniform(1e-3, t_max))
        gen = extract_tcl_generator(family)
        gap = gen.gap_mask()
        assert 0 < gap.sum() < gap.size
        c = ga._kossakowski(gen.samples, gen.dim)
        want = np.ascontiguousarray(np.linalg.eigvalsh(c[:, 1:, 1:])[:, ::-1].real)
        want[gap] = np.nan
        decomposed = []
        kossakowski = ga._kossakowski

        def counting(samples, dim):
            decomposed.append(np.shape(samples)[0])
            return kossakowski(samples, dim)

        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(ga, "_kossakowski", counting)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        got = check_cp_divisible(gen).rate_traces
        assert sum(decomposed) == np.count_nonzero(~gap)
        assert max(decomposed) <= ga._block_rows(gen.samples)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))

    def test_constant_stack_decomposed_once(self, monkeypatch):
        """A constant stack of several blocks, broadcast from one row as the
        ``tcl`` route gives it, is one block: one sample is decomposed and its
        rates fill every row.  The same rows copied out are decomposed block
        by block, to the same bits."""
        import backflow_lab.generator_analysis as ga

        grid = TimeGrid.uniform(1e-3, 3.0)
        g = dissipator_superop(SIGMA_MINUS)
        stack = np.broadcast_to(g, (grid.n,) + g.shape)
        gen = _trusted(SampledGenerator, grid=grid, samples=stack, kind="quantum", dim=2, gaps=(), matrix_dim=4)
        assert grid.n > 2 * ga._block_rows(gen.samples)
        decomposed = []
        kossakowski = ga._kossakowski
        monkeypatch.setattr(ga, "_kossakowski", lambda s, d: decomposed.append(len(s)) or kossakowski(s, d))
        traces = check_cp_divisible(gen).rate_traces
        assert decomposed == [1]
        assert np.array_equal(traces, np.repeat(canonical_form(g).rates, grid.n, axis=0))
        assert np.array_equal(check_cp_divisible(SampledGenerator(grid, stack, "quantum", 2)).rate_traces, traces)

    def test_peak_allocation_bounded(self):
        """Beyond the samples, the report holds the rate table and one
        block's Kossakowski and ``eigvalsh`` temporaries."""
        import tracemalloc

        from backflow_lab.generator_analysis import BLOCK_BYTES

        family = dephasing_qubit(rate_kind="sinusoidal", amplitude=1.5).propagator_fn(TimeGrid.uniform(1e-3, 40.0))
        gen = extract_tcl_generator(family)
        del family
        check_cp_divisible(gen)
        tracemalloc.start()
        try:
            report = check_cp_divisible(gen)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gen.gaps and peak <= report.rate_traces.nbytes + 8 * BLOCK_BYTES

    def test_constant_gksl_divisible(self):
        g = dissipator_superop(SIGMA_MINUS)
        grid = TimeGrid.uniform(1e-3, 2.0)
        gen = extract_tcl_generator(expm_family(g, grid))
        report = check_cp_divisible(gen)
        assert report.divisible
        assert abs(report.min_rate) <= 1e-9  # two vanishing canonical rates
        assert report.first_violation_time is None

    def test_sinusoidal_dephasing_divisible(self):
        model = dephasing_qubit(rate_kind="sinusoidal", lam=1.0, amplitude=0.5, frequency=1.0)
        grid = TimeGrid.uniform(1e-3, 10.0)
        gen = extract_tcl_generator(model.propagator_fn(grid))
        report = check_cp_divisible(gen)
        assert report.divisible
        # the dominant canonical rate dips to 1 - 0.5 = 0.5
        dominant = np.nanmax(report.rate_traces, axis=1)
        assert np.nanmin(dominant) == pytest.approx(0.5, abs=1e-3)

    def test_oscillatory_dephasing_breaks(self):
        # f = exp(-t/2) cos(2t): rate = 1/2 + 2 tan(2t), negative right after
        # the zero of f at t = pi/4
        model = dephasing_qubit(rate_kind="cosine_f", lam=1.0, mu=2.0)
        grid = TimeGrid.uniform(1e-3, 1.6)
        gen = extract_tcl_generator(model.propagator_fn(grid))
        report = check_cp_divisible(gen)
        assert not report.divisible
        assert report.min_rate < -1.0
        assert math.pi / 4 - 2e-3 <= report.first_violation_time <= math.pi / 4 + 0.05

    def test_report_serialization(self):
        g = dissipator_superop(SIGMA_MINUS)
        grid = TimeGrid.uniform(1e-2, 1.0)
        gen = extract_tcl_generator(expm_family(g, grid))
        payload = check_cp_divisible(gen).to_json_dict(rates_csv_path="rates.csv")
        assert payload["divisible"] is True
        assert payload["rates_csv_path"] == "rates.csv"
        assert payload["gaps"] == []

    @pytest.mark.parametrize("gaps", [(), ((0.5, 0.6),), ((1.9, 1.99),)])
    def test_trace_error_names_the_grid_index_and_time(self, gaps):
        """A hand-built stack whose sample 2000 fails trace annihilation is
        named by its grid index and time, whatever the gaps ahead of it and
        the row blocks (1 024 rows at d = 2) are."""
        grid = TimeGrid.uniform(1e-3, 3.0)
        g = 1.3 * dissipator_superop(SIGMA_MINUS) + 0.3 * dissipator_superop(SIGMA_MINUS.conj().T)
        samples = (1.0 + grid.points)[:, None, None] * g
        samples[2000] = np.eye(4)
        gen = SampledGenerator(grid, samples, "quantum", 2, gaps)
        with pytest.raises(ContractViolationError, match=r"sample 2000 at t=2 does not annihilate") as info:
            check_cp_divisible(gen)
        assert info.value.time == grid.points[2000]


class TestClassicalDivisibility:
    def test_constant_positive_rates_divisible(self):
        w = np.array([[-1.0, 0.5], [1.0, -0.5]])
        grid = TimeGrid.uniform(1e-2, 2.0)
        samples = np.array([w] * grid.n)
        gen = SampledGenerator(grid, samples, "classical", 2)
        report = check_classical_divisible(gen)
        assert report.divisible
        assert report.min_rate == pytest.approx(0.5)

    def test_underdamped_kernel_breaks_near_oracle_zero(self):
        model = classical_exp_kernel(gamma=1.0, tau_m=1.0)
        grid = TimeGrid.uniform(1e-3, 4.0)
        gen = extract_tcl_generator(model.propagator_fn(grid))
        report = check_classical_divisible(gen)
        assert not report.divisible
        t_star = exp_kernel_zero_crossing(1.0, 1.0)
        assert abs(report.first_violation_time - t_star) <= 5e-3

    def test_overdamped_kernel_divisible(self):
        model = classical_exp_kernel(gamma=1.0, tau_m=0.05)
        grid = TimeGrid.uniform(1e-3, 4.0)
        gen = extract_tcl_generator(model.propagator_fn(grid))
        report = check_classical_divisible(gen)
        assert report.divisible

    def test_kind_mismatch_rejected(self):
        grid = TimeGrid.uniform(1e-2, 0.1)
        samples = np.zeros((grid.n, 4, 4), dtype=complex)
        gen = SampledGenerator(grid, samples, "quantum", 2)
        with pytest.raises(ContractViolationError):
            check_classical_divisible(gen)

    @pytest.mark.parametrize("alpha, lam", [(0.3, 3.0), (0.6, 1.0), (0.9, 3.0), (0.99, 1.0)])
    def test_mittag_leffler_family_divisible(self, alpha, lam):
        # the symmetric two-state family relaxing with x(t) = E_alpha(-(lam t)^alpha):
        # its one rate, -x'/(2x), is positive because the envelope is
        # completely monotone, so the envelope's absolute error must not
        # push the stencil's rate below zero or open a gap in the tail
        grid = TimeGrid.uniform(1e-3, 40.0)
        x = ml_envelope_grid(alpha, lam, grid.points)
        maps = np.empty((grid.n, 2, 2))
        maps[:, 0, 0] = maps[:, 1, 1] = (1.0 + x) / 2.0
        maps[:, 0, 1] = maps[:, 1, 0] = (1.0 - x) / 2.0
        gen = extract_tcl_generator(PropagatorFamily(grid, maps, "classical", 2))
        report = check_classical_divisible(gen)
        assert gen.gaps == () and report.gaps == ()
        assert report.divisible and report.min_rate > 0.0


def broadcast_generator(g, kind, dim, grid):
    """The sampled generator the ``tcl`` route hands a constant generator on:
    ``tcl_pass``'s read-only samples, one row broadcast (leading stride 0)."""
    from backflow_lab.propagation import TclGenerator, tcl_pass

    samples = tcl_pass(TclGenerator(dim, kind, lambda ts: np.broadcast_to(g, (len(ts),) + g.shape)), grid)[1]
    assert samples.strides[0] == 0
    return _trusted(SampledGenerator, grid=grid, samples=samples, kind=kind, dim=dim, gaps=(), matrix_dim=g.shape[0])


class TestOneSampleReport:
    """A broadcast, gap-free stack is reported from its one decomposed row;
    the same rows materialized take the block path, to the same bits."""

    @pytest.mark.parametrize(
        "g, kind, dim, t_max, divisible",
        [
            (dissipator_superop(SIGMA_MINUS) + 0.4 * dissipator_superop(SIGMA_Z / np.sqrt(2)), "quantum", 2, 3.0, True),
            (dissipator_superop(SIGMA_MINUS) - 0.4 * dissipator_superop(SIGMA_Z / np.sqrt(2)), "quantum", 2, 3.0, False),
            (np.array([[-1.0, 0.5], [1.0, -0.5]]), "classical", 2, 20.0, True),
            (np.array([[0.3, 0.5], [-0.3, -0.5]]), "classical", 2, 20.0, False),
        ],
        ids=["cp", "negative-canonical-rate", "classical", "classical-negative-rate"],
    )
    def test_matches_materialized_rows_bit_for_bit(self, g, kind, dim, t_max, divisible):
        from backflow_lab.generator_analysis import _block_rows
        from backflow_lab.serialize import rate_traces_csv

        check = check_cp_divisible if kind == "quantum" else check_classical_divisible
        grid = TimeGrid.uniform(1e-3, t_max)
        broadcast = broadcast_generator(g, kind, dim, grid)
        materialized = SampledGenerator(grid, np.ascontiguousarray(broadcast.samples), kind, dim)
        assert materialized.samples.strides[0] != 0 and grid.n > 2 * _block_rows(materialized.samples)
        got, want = check(broadcast), check(materialized)
        assert got.divisible is want.divisible is divisible
        assert np.float64(got.min_rate).tobytes() == np.float64(want.min_rate).tobytes()
        assert got.first_violation_time == want.first_violation_time == (None if divisible else grid.points[0])
        assert got.rate_traces.shape == want.rate_traces.shape and got.rate_traces.strides[0] == 0
        assert np.array_equal(np.ascontiguousarray(got.rate_traces).view(np.uint8), want.rate_traces.view(np.uint8))
        with pytest.raises(ValueError, match="read-only"):
            got.rate_traces[0, 0] = 1.0
        assert rate_traces_csv(got) == rate_traces_csv(want)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["cp", "negative-canonical-rate"])
    def test_reduces_one_row(self, monkeypatch, sign):
        """The broadcast report reduces its one rate row, no table of n rows."""
        import backflow_lab.linalg as linalg

        g = dissipator_superop(SIGMA_MINUS) + sign * 0.4 * dissipator_superop(SIGMA_Z / np.sqrt(2))
        grid = TimeGrid.uniform(1e-3, 3.0)
        gen = broadcast_generator(g, "quantum", 2, grid)
        rows, row_reduce = [], linalg._row_reduce
        monkeypatch.setattr(linalg, "_row_reduce", lambda ufunc, table: rows.append(len(table)) or row_reduce(ufunc, table))
        report = check_cp_divisible(gen)
        assert report.divisible is (sign > 0)
        assert report.first_violation_time == (None if sign > 0 else grid.points[0])
        assert report.rate_traces.shape == (grid.n, 3) and rows and max(rows) == 1


class TestTcTclEquivalence:
    def test_overdamped_model_routes_agree(self):
        # memory-kernel trajectory vs time-local re-solve on the extracted
        # generator, sup-norm over [0, 10]; parameters kept mildly damped so
        # the propagator stays well-conditioned over the whole window
        from backflow_lab.propagation import solve_tc

        model = classical_exp_kernel(gamma=0.2, tau_m=0.3)
        grid = TimeGrid.uniform(2e-3, 10.0)
        tc_traj = solve_tc(model.kernel, model.initial_state, grid)
        gen = extract_tcl_generator(model.propagator_fn(grid))
        assert gen.gaps == ()
        tcl_traj = solve_tcl(gen.as_tcl_generator(), model.initial_state, grid)
        assert np.max(np.abs(tc_traj.states - tcl_traj.states)) <= 5e-5

    def test_underdamped_model_routes_agree_before_singularity(self):
        # the underdamped generator blows up at the difference-mode zero
        # (t ~ 1.46 for gamma = tau_m = 1), so equivalence is checked on a
        # window ending before it
        from backflow_lab.propagation import solve_tc

        model = classical_exp_kernel(gamma=1.0, tau_m=1.0)
        grid = TimeGrid.uniform(1e-3, 1.3)
        tc_traj = solve_tc(model.kernel, model.initial_state, grid)
        gen = extract_tcl_generator(model.propagator_fn(grid))
        assert gen.gaps == ()
        tcl_traj = solve_tcl(gen.as_tcl_generator(), model.initial_state, grid)
        assert np.max(np.abs(tc_traj.states - tcl_traj.states)) <= 5e-5
