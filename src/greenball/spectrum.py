"""Eigenvalue engines: shooting on the differential problem and Nystrom
discretization of covariance kernels, plus the infinite eigenvalue-product
evaluator used for weight comparisons.

The shooting route integrates the order-2n system for a batch of spectral
parameters zeta with a shared-step adaptive Runge-Kutta 7(8) and locates the
sign-change roots of the boundary determinant F(zeta); eigenvalues are
mu_k = zeta_k^{2n}.  The Nystrom route discretizes the weighted kernel on a
composite Gauss-Legendre grid with an exact correction for the |t-s| kink and
solves the dense symmetric eigenproblem.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import (GridTooCoarse, MissedRoot, NonConvergence,
                     NormalizationMismatch, StepFailure)
from .kernels import apply_weight
from .model import BVProblem, normalization_integral
from .quadrature import Grid, _kink_full_moments

# ---------------------------------------------------------------------------
# Runge-Kutta 7(8) (Fehlberg), 13 stages, shared adaptive step over a batch

_RK_C = np.array([0, 2 / 27, 1 / 9, 1 / 6, 5 / 12, 1 / 2, 5 / 6, 1 / 6,
                  2 / 3, 1 / 3, 1, 0, 1])
_RK_A = np.zeros((13, 13))
_RK_A[1, 0] = 2 / 27
_RK_A[2, :2] = [1 / 36, 1 / 12]
_RK_A[3, :3] = [1 / 24, 0, 1 / 8]
_RK_A[4, :4] = [5 / 12, 0, -25 / 16, 25 / 16]
_RK_A[5, :5] = [1 / 20, 0, 0, 1 / 4, 1 / 5]
_RK_A[6, :6] = [-25 / 108, 0, 0, 125 / 108, -65 / 27, 125 / 54]
_RK_A[7, :7] = [31 / 300, 0, 0, 0, 61 / 225, -2 / 9, 13 / 900]
_RK_A[8, :8] = [2, 0, 0, -53 / 6, 704 / 45, -107 / 9, 67 / 90, 3]
_RK_A[9, :9] = [-91 / 108, 0, 0, 23 / 108, -976 / 135, 311 / 54, -19 / 60,
                17 / 6, -1 / 12]
_RK_A[10, :10] = [2383 / 4100, 0, 0, -341 / 164, 4496 / 1025, -301 / 82,
                  2133 / 4100, 45 / 82, 45 / 164, 18 / 41]
_RK_A[11, :11] = [3 / 205, 0, 0, 0, 0, -6 / 41, -3 / 205, -3 / 41, 3 / 41,
                  6 / 41, 0]
_RK_A[12, :12] = [-1777 / 4100, 0, 0, -341 / 164, 4496 / 1025, -289 / 82,
                  2193 / 4100, 51 / 82, 33 / 164, 12 / 41, 0, 1]
_RK_B = np.array([0, 0, 0, 0, 0, 34 / 105, 9 / 35, 9 / 35, 9 / 280, 9 / 280,
                  0, 41 / 840, 41 / 840])
_RK_ERR = np.zeros(13)
_RK_ERR[[0, 10, 11, 12]] = [41 / 840, 41 / 840, -41 / 840, -41 / 840]

#: default integrator tolerance for the shooting route
ODE_RTOL = 1e-12
#: root refinement stops at this relative bracket width
ROOT_RTOL = 1e-12
#: rescale fundamental columns above this sup-norm (roots are scale-free)
RESCALE_LIMIT = 1e80


def _integrate_batch(rhs, y0, t0, t1, rtol=ODE_RTOL, atol=1e-14,
                     rescale=False):
    """Shared-step adaptive integration of a batched first-order system.

    y has shape (B, d, c); with rescale=True the trailing axis (fundamental
    columns) is renormalized by its sup-norm whenever it exceeds
    RESCALE_LIMIT, which leaves determinant roots in place.
    """
    t = t0
    y = np.array(y0, dtype=float)
    h = (t1 - t0) * 0.01
    steps = 0
    k = np.empty((13,) + y.shape)
    while t < t1 - 1e-14:
        if h < 1e-13:
            raise StepFailure("adaptive step size underflow in the "
                              "fundamental-system integration")
        if steps > 10 ** 6:
            raise StepFailure("step budget exhausted")
        h = min(h, t1 - t)
        for i in range(13):
            yi = y + h * np.tensordot(_RK_A[i, :i], k[:i], axes=(0, 0)) \
                if i else y
            k[i] = rhs(t + _RK_C[i] * h, yi)
        ynew = y + h * np.tensordot(_RK_B, k, axes=(0, 0))
        errv = h * np.tensordot(_RK_ERR, k, axes=(0, 0))
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(ynew))
        err = np.sqrt(np.mean((errv / sc) ** 2, axis=tuple(range(1, y.ndim))))
        emax = err.max()
        if emax <= 1.0:
            t += h
            y = ynew
            steps += 1
            if rescale:
                colmax = np.abs(y).max(axis=1, keepdims=True)
                big = colmax > RESCALE_LIMIT
                if big.any():
                    y = np.where(big, y / np.where(big, colmax, 1.0), y)
        h *= min(5.0, max(0.2, 0.9 * (emax + 1e-300) ** (-1.0 / 8.0)))
    return y


def _make_rhs(problem, zetas):
    """Right-hand side of the companion system for L v = zeta^{2n} psi v.

    v^{(2n)} = (-1)^n [zeta^{2n} psi v - sum_m (p_m v^{(m)})^{(m)}], with the
    product derivative expanded through binomial terms in p_m^{(j)} v^{(2m-j)}.
    """
    op = problem.op
    n = op.n
    sgn = (-1.0) ** n
    z2n = np.asarray(zetas, dtype=float) ** (2 * n)
    psi = problem.weight

    # (derivative-order, binomial factor, m, j) for every expanded term
    terms = []
    for m in range(n):
        c = op.p[m]
        if not isinstance(c, tuple):
            if c != 0.0:
                terms.append((2 * m, 1.0, m, 0, float(c)))
            continue
        for j in range(m + 1):
            terms.append((2 * m - j, float(comb(m, j)), m, j, None))

    def rhs(t, Y):
        dY = np.empty_like(Y)
        dY[:, :-1, :] = Y[:, 1:, :]
        top = (z2n * float(psi(t)))[:, None] * Y[:, 0, :]
        for d, c, m, j, const in terms:
            pv = const if const is not None else float(op.p_derivative(m, j, t))
            top -= (c * pv) * Y[:, d, :]
        dY[:, -1, :] = sgn * top
        return dY

    return rhs


def fundamental_system(problem, zeta, rtol=ODE_RTOL):
    """Canonical solutions phi_j (phi_j^{(i)}(0) = delta_ij) of
    L v = zeta^{2n} psi v, integrated across [0,1].

    Returns (Y0, Y1) where Y0 is the identity initial data and
    Y1[i, j] = phi_j^{(i)}(1).  Accepts a scalar or a 1-d array of zeta
    values (leading batch axis in the result).
    """
    zetas = np.atleast_1d(np.asarray(zeta, dtype=float))
    if (zetas < 0).any():
        raise ValueError("zeta must be nonnegative")
    d = 2 * problem.op.n
    Y0 = np.broadcast_to(np.eye(d), (len(zetas), d, d)).copy()
    Y1 = _integrate_batch(_make_rhs(problem, zetas), Y0, 0.0, 1.0, rtol=rtol)
    if np.isscalar(zeta) or np.asarray(zeta).ndim == 0:
        return np.eye(d), Y1[0]
    return np.broadcast_to(np.eye(d), Y1.shape), Y1


def _boundary_matrix(problem, Y1):
    """Apply the boundary forms to the fundamental solutions.

    M[nu, j] = alpha_nu phi_j^{(k_nu)}(0) + gamma_nu phi_j^{(k_nu)}(1)
               + lower-order contributions; phi_j^{(i)}(0) = delta_ij.
    """
    d = Y1.shape[-1]
    B = Y1.shape[0]
    M = np.zeros((B, d, d))
    for nu, bc in enumerate(problem.bcs):
        row = bc.alpha * np.eye(d)[bc.k] + bc.gamma * Y1[:, bc.k, :]
        for j in range(bc.k):
            a = bc.lower_coefficient(0, j)
            g = bc.lower_coefficient(1, j)
            if a:
                row = row + a * np.eye(d)[j]
            if g:
                row = row + g * Y1[:, j, :]
        M[:, nu, :] = row
    return M


def _equilibrated_det(M):
    """Determinant after scaling each row by its sup-norm (positive factors,
    so sign changes and roots are preserved)."""
    scale = np.abs(M).max(axis=2, keepdims=True)
    scale = np.where(scale == 0.0, 1.0, scale)
    return np.linalg.det(M / scale)


def characteristic_function(problem, zeta, rtol=ODE_RTOL):
    """Boundary determinant F(zeta); its positive roots give mu = zeta^{2n}.

    Rescaled row-wise (and column-wise during integration for growing
    solutions), which moves no roots.  Vectorized over a 1-d zeta array.
    """
    zetas = np.atleast_1d(np.asarray(zeta, dtype=float))
    vals = _characteristic_batch(problem, zetas, rtol=rtol)
    if np.isscalar(zeta) or np.asarray(zeta).ndim == 0:
        return float(vals[0])
    return vals


#: batch chunk size for the shared-step integrator; one shared pass is
#: cheapest because the per-step cost is dominated by fixed overhead
_CHUNK = 4096


def _characteristic_batch(problem, zetas, rtol=ODE_RTOL):
    zetas = np.asarray(zetas, dtype=float)
    order = np.argsort(zetas)
    out = np.empty(len(zetas))
    d = 2 * problem.op.n
    for start in range(0, len(zetas), _CHUNK):
        idx = order[start:start + _CHUNK]
        zc = zetas[idx]
        Y0 = np.broadcast_to(np.eye(d), (len(zc), d, d)).copy()
        Y1 = _integrate_batch(_make_rhs(problem, zc), Y0, 0.0, 1.0,
                              rtol=rtol, rescale=True)
        out[idx] = _equilibrated_det(_boundary_matrix(problem, Y1))
    return out


# ---------------------------------------------------------------------------
# Spectra

@dataclass(frozen=True)
class SpectrumResult:
    """Ascending eigenvalues mu_1..mu_K with per-eigenvalue relative error
    estimates; theta_norm records the weight normalization integral."""

    mu: np.ndarray
    method: str
    err: np.ndarray
    theta_norm: float

    def __post_init__(self):
        mu = np.asarray(self.mu)
        if (mu <= 0).any():
            raise ValueError("eigenvalues must be positive")
        tol = np.maximum(np.asarray(self.err), 1e-15) * mu
        if (np.diff(mu) < -tol[1:]).any():
            raise ValueError("eigenvalues must be ascending (ties within err)")

    def __len__(self):
        return len(self.mu)


def weyl_tail(n, theta, k):
    """Leading-order eigenvalue growth model (pi k / theta)^{2n}."""
    return (np.pi * np.asarray(k) / theta) ** (2 * n)


def _refine_roots(problem, lo, hi, flo, fhi, rtol_root=ROOT_RTOL, maxit=80):
    """Safeguarded secant/bisection, batched over all bracketed roots."""
    a, b = lo.copy(), hi.copy()
    fa, fb = flo.copy(), fhi.copy()
    x0, f0 = a.copy(), fa.copy()
    x1, f1 = b.copy(), fb.copy()
    for _ in range(maxit):
        active = (b - a) > rtol_root * np.abs(b)
        if not active.any():
            break
        denom = f1 - f0
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = x1 - f1 * (x1 - x0) / denom
        mid = 0.5 * (a + b)
        take = np.isfinite(xs) & (xs > a) & (xs < b)
        xp = np.where(take, xs, mid)
        fp = np.zeros_like(xp)
        fp[active] = _characteristic_batch(problem, xp[active])
        # keep the sign-change bracket; an exact zero collapses it
        hit = active & (fp == 0.0)
        same_as_left = np.sign(fp) == np.sign(fa)
        x0, f0 = x1.copy(), f1.copy()
        x1, f1 = xp.copy(), fp.copy()
        a = np.where(active & same_as_left, xp, a)
        fa = np.where(active & same_as_left, fp, fa)
        b = np.where(active & ~same_as_left, xp, b)
        fb = np.where(active & ~same_as_left, fp, fb)
        a = np.where(hit, xp, a)
        b = np.where(hit, xp, b)
    width = b - a
    root = np.where(np.abs(fa) < np.abs(fb), a, b)
    exact = fa == 0.0
    root = np.where(exact, a, root)
    return root, width


def eigenvalues_shooting(problem, K, rtol=ODE_RTOL):
    """First K eigenvalues of L v = mu psi v by characteristic-root search.

    Scans F(zeta) on a grid of spacing pi/(4 theta) up to (K+2) pi / theta,
    brackets sign changes, refines each root to relative 1e-12, and checks
    the count against the leading-order growth model.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    n = problem.op.n
    theta = normalization_integral(problem.weight, n)
    spacing = np.pi / (4 * theta)
    zmax = (K + 2) * np.pi / theta

    # rare fallback: if the standard window holds fewer than K roots
    # (large boundary-induced offsets), rescan a wider window from scratch
    for attempt in range(3):
        z_hi = zmax * (attempt + 1)
        grid = np.arange(spacing, z_hi + 0.5 * spacing, spacing)
        # extra points near the origin in case of a low first root
        grid = np.concatenate(([1e-4, 1e-3, 1e-2, 0.1 * spacing], grid))
        F = _characteristic_batch(problem, grid, rtol=rtol)
        sign_change = np.where(np.sign(F[:-1]) * np.sign(F[1:]) < 0)[0]
        node_hits = np.where(F == 0.0)[0]
        if len(sign_change) + len(node_hits) >= K:
            break
    if len(sign_change) + len(node_hits) < K:
        raise MissedRoot(f"found only {len(sign_change) + len(node_hits)} "
                         f"roots up to zeta={z_hi:.3g} but {K} were requested")
    roots, widths = _refine_roots(problem, grid[sign_change],
                                  grid[sign_change + 1], F[sign_change],
                                  F[sign_change + 1])
    if len(node_hits):
        roots = np.concatenate([roots, grid[node_hits]])
        widths = np.concatenate([widths, np.zeros(len(node_hits))])
        order = np.argsort(roots)
        roots, widths = roots[order], widths[order]

    # count sanity check against the growth model over the first scan window
    in_first = roots <= zmax
    predicted = theta * zmax / np.pi
    if abs(in_first.sum() - predicted) > n + 1:
        raise MissedRoot(
            f"root count {in_first.sum()} on [0, {zmax:.3g}] is inconsistent "
            f"with the expected {predicted:.1f} +- {n + 1}")

    roots, widths = roots[:K], widths[:K]
    mu = roots ** (2 * n)
    err = 2 * n * (widths / roots) + 10 * rtol
    return SpectrumResult(mu=mu, method="shooting", err=err, theta_norm=theta)


def nystrom_eigenvalues(kern, w, K, grid=None):
    """First K eigenvalues mu = 1/lambda of the weighted covariance operator.

    A weight `w` is applied with `apply_weight`; pass None when `kern` is
    unweighted or already carries its weight.  The kernel is sampled on a
    composite Gauss-Legendre grid (`grid`: a Grid, a node count, or None
    for the kernel's own grid), the diagonal panels are corrected for the
    |t-s| kink exactly, the sqrt(quadrature-weight) similarity gives a
    symmetric matrix, and the dense eigenproblem is solved.  The same solve
    on the doubled grid supplies the returned eigenvalues; `err` is their
    relative gap to the solve on `grid`, and GridTooCoarse is raised when
    it exceeds 1e-4.  theta_norm is the normalization integral of the
    kernel's weight (1 when unweighted).
    """
    g = kern.grid if grid is None else grid
    if isinstance(g, int):
        g = Grid.composite(g, kern.grid.order)
    if g.n < 8 * K:
        raise GridTooCoarse(f"grid size {g.n} < 8K = {8 * K}")
    if w is not None:
        kern = apply_weight(kern, w)

    lam = _nystrom_lambdas(kern, K, g)
    lam_fine = _nystrom_lambdas(kern, K, g.doubled())
    rel = np.abs(lam - lam_fine) / np.abs(lam_fine)
    if (rel > 1e-4).any():
        raise GridTooCoarse(
            f"grid-doubling moved an eigenvalue by {rel.max():.2e} relative "
            "(> 1e-4); increase the grid")
    theta = (1.0 if kern.weight is None
             else normalization_integral(kern.weight, kern.half_order))
    return SpectrumResult(mu=1.0 / lam_fine, method="nystrom", err=rel,
                          theta_norm=theta)


def _nystrom_lambdas(kern, K, g):
    values, odd = kern.evaluate_on(g)
    sw = np.sqrt(g.w)
    S = values * np.outer(sw, sw)
    if odd is not None:
        # exact |t-s| moments on the diagonal panels replace the plain rule
        q = g.order
        MD = _kink_full_moments(q)
        h2 = g.h ** 2
        for p in range(g.panels):
            sl = slice(p * q, (p + 1) * q)
            corr = odd[sl, sl] * (h2 * MD)
            S[sl, sl] += sw[sl, None] * corr / sw[None, sl]
    S = 0.5 * (S + S.T)
    lam = np.linalg.eigvalsh(S)[::-1][:K]
    if (lam <= 0).any():
        raise GridTooCoarse(
            "requested eigenvalues reach the discretization noise floor "
            "(nonpositive Nystrom eigenvalue); increase the grid")
    return lam


def eigenvalue_product(s1, s2, tol=None):
    """Limit of prod_k mu_k^{(1)}/mu_k^{(2)} from two equal-length spectra.

    Partial products are accumulated in log space and extrapolated by Aitken
    delta-squared over the last third of indices, cross-checked against an
    a/K + b/K^2 fit of the log-partial-product tail.  Returns (value, err).
    """
    if len(s1) != len(s2):
        raise ValueError("spectra must have equal length")
    if abs(s1.theta_norm - s2.theta_norm) > 1e-6 * max(s1.theta_norm,
                                                       s2.theta_norm):
        raise NormalizationMismatch(
            f"normalization integrals differ ({s1.theta_norm:.9g} vs "
            f"{s2.theta_norm:.9g}); the eigenvalue product diverges")
    K = len(s1)
    S = np.cumsum(np.log(np.asarray(s1.mu)) - np.log(np.asarray(s2.mu)))
    if K < 12:
        return float(np.exp(S[-1])), float(abs(S[-1] - S[K // 2]))

    start = 2 * K // 3
    tail = S[start:]
    d1 = np.diff(tail)
    d2 = np.diff(d1)
    safe = np.abs(d2) > 1e-15
    ait = tail[2:] - np.where(safe, d1[1:] ** 2 / np.where(safe, d2, 1.0), 0.0)
    aitken_ok = safe[-5:].all() if len(safe) >= 5 else safe.all()

    # cross-check: fit log P_K ~ s_inf + a/K + b/K^2 on the tail
    ks = np.arange(start + 1, K + 1, dtype=float)
    X = np.stack([np.ones_like(ks), 1 / ks, 1 / ks ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(X, tail, rcond=None)
    fit_val = coef[0]

    main = float(ait[-1]) if aitken_ok else float(fit_val)
    spread = float(np.ptp(ait[-5:])) if len(ait) >= 5 else float(np.ptp(ait))
    err_log = max(spread, abs(main - fit_val))
    value = float(np.exp(main))
    err = value * err_log
    if tol is not None and err_log > tol:
        raise NonConvergence(
            f"product extrapolants disagree by {err_log:.3e} in log, beyond "
            f"the requested {tol:.3e}")
    return value, err
