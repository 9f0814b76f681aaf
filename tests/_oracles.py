"""Independent reference implementations used only by the tests.

The Mittag-Leffler reference runs either an adaptive-precision Taylor sum
(mpmath, working precision scaled to the cancellation requirement) or
arbitrary-precision adaptive quadrature of the spectral integral; the two
routes are mutually consistent to far below test tolerances, and the
alpha = 1/2 line is pinned by the scaled complementary error function.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np


def ml_reference(alpha: float, x: float, digits: int = 30) -> float:
    """High-precision E_alpha(-x) for x >= 0, independent of the package."""
    if x == 0:
        return 1.0
    if alpha == 1.0:
        return float(mp.e ** (-mp.mpf(x)))
    cancellation = float(mp.mpf(x) ** (1 / mp.mpf(alpha)))
    if cancellation < 400:
        dps = int(cancellation * 0.4343) + digits + 15
        with mp.workdps(dps):
            alm = mp.mpf(alpha)
            xm = mp.mpf(x)
            total = mp.mpf(0)
            k = 0
            while True:
                term = (-xm) ** k / mp.gamma(alm * k + 1)
                total += term
                if k > 5 and abs(term) < mp.mpf(10) ** (-dps):
                    break
                k += 1
                if k > 200000:
                    raise RuntimeError("reference series did not converge")
            return float(total)
    with mp.workdps(digits + 10):
        alm = mp.mpf(alpha)
        big_t = mp.mpf(x) ** (1 / alm)
        ca = mp.cos(alm * mp.pi)
        layer = float((mp.mpf(40) / big_t) ** alm)

        def integrand(v):
            return mp.e ** (-(v ** (1 / alm)) * big_t) / (v * v + 2 * v * ca + 1)

        points = [0, min(layer, 0.5), 1, mp.inf]
        val = mp.sin(alm * mp.pi) / (alm * mp.pi) * mp.quad(integrand, points)
        return float(val)


def positive_variation(values: np.ndarray) -> float:
    """Brute-force positive variation of a sampled series."""
    d = np.diff(np.asarray(values, dtype=float))
    return float(np.sum(d[d > 0]))


def kl_scalar(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def entropy_scalar(p) -> float:
    p = np.asarray(p, dtype=float)
    mask = p > 0
    return float(-np.sum(p[mask] * np.log(p[mask])))


def binary_entropy(p: float) -> float:
    """-p log p - (1 - p) log(1 - p) in nats, 0 log 0 = 0."""
    return entropy_scalar([p, 1.0 - p])


def two_state_split(p: float, b: float) -> tuple[float, float]:
    """(s_cl, s_qe) of the 2x2 state [[p, c], [c*, 1 - p]] with |c|^2 = b:
    s_cl is the binary entropy of p, and s_qe is the entropy of the
    eigenvalues 1/2 +- r, r = sqrt((p - 1/2)^2 + b), less s_cl."""
    r = float(np.sqrt((p - 0.5) ** 2 + b))
    s_cl = binary_entropy(p)
    return s_cl, entropy_scalar([0.5 + r, 0.5 - r]) - s_cl


# Per-state measures written independently of the package's batched ones
# (one eigendecomposition per state): the reference the batched series are
# checked against.

def _spectral_entropy(w: np.ndarray) -> float:
    w = np.clip(w, 0.0, None)
    nz = w[w > 0]
    return float(-np.sum(nz * np.log(nz)))


def von_neumann_entropy_oracle(rho) -> float:
    """-Tr(rho log rho) in nats from the descending spectrum, 0 log 0 = 0."""
    return max(_spectral_entropy(np.linalg.eigvalsh(rho.entries)[::-1]), 0.0)


def _support_mismatch(rho, ws, vs) -> bool:
    """Whether rho puts weight above SUPPORT_WEIGHT on the eigenvectors of
    sigma (eigenvalues ``ws``, vectors ``vs``) below SUPPORT_EIGENVALUE."""
    from backflow_lab.information import SUPPORT_EIGENVALUE, SUPPORT_WEIGHT

    small = ws < SUPPORT_EIGENVALUE
    overlap = np.abs(vs.conj().T @ rho.entries @ vs).diagonal().real
    return bool(np.any(small)) and float(np.sum(overlap[small])) > SUPPORT_WEIGHT


def relative_entropy_oracle(rho, sigma) -> float:
    """D(rho || sigma) = Tr rho log rho - Tr rho log sigma, +inf when rho has
    weight outside sigma's support; log sigma is sum_j log s_j |s_j><s_j|
    over that support, from sigma's own eigendecomposition."""
    from backflow_lab.information import SUPPORT_EIGENVALUE

    wr = np.clip(np.linalg.eigvalsh(rho.entries), 0.0, None)
    ws, vs = np.linalg.eigh(sigma.entries)
    ws = np.clip(ws, 0.0, None)
    if _support_mismatch(rho, ws, vs):
        return float("inf")
    keep = ws >= SUPPORT_EIGENVALUE
    log_sigma = (vs[:, keep] * np.log(ws[keep])) @ vs[:, keep].conj().T
    tr_rho_log_sigma = float(np.einsum("ij,ji->", rho.entries, log_sigma).real)
    return max(-_spectral_entropy(wr) - tr_rho_log_sigma, 0.0)


def relative_entropy_overlap_oracle(rho, sigma) -> float:
    """D(rho || sigma) through both eigenbases: Tr rho log sigma as
    sum_ij r_i |<r_i|s_j>|^2 log s_j over sigma's support."""
    from backflow_lab.information import SUPPORT_EIGENVALUE

    wr, vr = np.linalg.eigh(rho.entries)
    ws, vs = np.linalg.eigh(sigma.entries)
    wr = np.clip(wr, 0.0, None)
    ws = np.clip(ws, 0.0, None)
    if _support_mismatch(rho, ws, vs):
        return float("inf")
    keep = ws >= SUPPORT_EIGENVALUE
    cross = np.abs(vr.conj().T @ vs) ** 2  # |<r_i|s_j>|^2
    tr_rho_log_sigma = float(np.einsum("i,ij,j->", wr, cross[:, keep], np.log(ws[keep])))
    return max(-_spectral_entropy(wr) - tr_rho_log_sigma, 0.0)


def kl_divergence_oracle(p, q) -> float:
    """D(p || q) in nats, +inf on support mismatch."""
    from backflow_lab.information import SUPPORT_EIGENVALUE, SUPPORT_WEIGHT

    pv = np.clip(p.entries, 0.0, None)
    qv = np.clip(q.entries, 0.0, None)
    small = qv < SUPPORT_EIGENVALUE
    if np.any(small) and float(np.sum(pv[small])) > SUPPORT_WEIGHT:
        return float("inf")
    keep = (pv > 0) & ~small
    return max(float(np.sum(pv[keep] * (np.log(pv[keep]) - np.log(qv[keep])))), 0.0)


def trace_distance_oracle(rho, sigma) -> float:
    """(1/2) sum |eigenvalues(rho - sigma)|."""
    w = np.linalg.eigvalsh(rho.entries - sigma.entries)
    return float(0.5 * np.sum(np.abs(w)))


def random_density_matrix(dim: int, rng: np.random.Generator):
    """Full-rank random state from a seeded generator."""
    from backflow_lab import DensityMatrix

    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T + 1e-3 * np.eye(dim)
    return DensityMatrix(m / np.trace(m).real)


def pointwise(sample):
    """A batched ``TclGenerator.evaluate`` built from a per-time function:
    the samples ``sample(t)`` of the given times, in order, as a list."""
    return lambda ts: [sample(t) for t in ts.tolist()]


def constant(matrix):
    """A batched ``TclGenerator.evaluate`` giving ``matrix`` at every time."""
    matrix = np.asarray(matrix)
    return lambda ts: np.broadcast_to(matrix, (len(ts),) + matrix.shape)
