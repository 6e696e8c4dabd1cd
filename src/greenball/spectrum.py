"""Eigenvalue engines: shooting on the differential problem and Nystrom
discretization of covariance kernels, plus the infinite eigenvalue-product
evaluator used for weight comparisons.

The shooting route propagates the order-2n companion system for a batch of
spectral parameters zeta across a fixed mesh of cells, whose size depends
only on the scan window: one 4th-order Magnus step per cell (psi and the
operator coefficients sampled once at two Gauss nodes), Richardson
extrapolation over a mesh halving, and positive rescaling that moves no
roots.  It locates the sign-change roots of the boundary determinant
F(zeta); eigenvalues are mu_k = zeta_k^{2n}.  The Nystrom route discretizes
the weighted kernel on a composite Gauss-Legendre grid with an exact
correction for the |t-s| kink and solves the dense symmetric eigenproblem.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.linalg import expm

from .errors import (GridTooCoarse, MissedRoot, NonConvergence,
                     NormalizationMismatch, StepFailure)
from .kernels import apply_weight
from .model import normalization_integral
from .quadrature import Grid, _kink_full_moments

# ---------------------------------------------------------------------------
# Fixed-mesh Magnus-4 propagation of the companion system

#: Gauss-Legendre nodes of a cell, as fractions of its width
_GAUSS = 0.5 + np.array([-0.5, 0.5]) / np.sqrt(3.0)
#: root refinement stops at this relative bracket width
ROOT_RTOL = 1e-12
#: relative accuracy of the shooting eigenvalues; StepFailure beyond it
SHOOT_TOL = 1e-8
#: coarse cells whose exponentials are formed at once (a power of two)
_CELLS_PER_CHUNK = 64


def _mesh(problem, zmax):
    """Magnus-4 exponents (Omega0, Omega1) on N and on 2N equal cells.

    A(t, zeta) = A_0(t) + zeta^{2n} psi(t) E is the traceless companion
    matrix of v^{(2n)} = (-1)^n [zeta^{2n} psi v - sum_m (p_m v^{(m)})^{(m)}],
    E = (-1)^n in the bottom-left corner.  With A sampled at the two Gauss
    nodes of a cell, Omega = h/2 (A_1 + A_2) + (sqrt(3)/12) h^2 [A_2, A_1]
    = Omega0 + zeta^{2n} Omega1, since [E, E] = 0.  N resolves the largest
    local frequency omega = zmax max(psi)^(1/2n) for zeta up to zmax: at
    h omega <= 0.62 the extrapolated eigenvalues are good to about 1e-11
    relative (the error goes like h^6 omega^4.3 on the weighted-Wiener
    problem), and N >= 2048 keeps small windows at the rounding level.
    """
    n = problem.op.n
    d = 2 * n
    omega = zmax * problem.weight.samples.max() ** (1.0 / (2 * n))
    N = 1 << int(np.ceil(np.log2(max(2048.0, 1.6 * omega))))
    E = np.zeros((d, d))
    E[-1, 0] = (-1.0) ** n
    out = []
    for cells in (N, 2 * N):
        h = 1.0 / cells
        t = ((np.arange(cells)[:, None] + _GAUSS) * h).ravel()
        A = np.zeros((t.size, d, d))
        A[:, np.arange(d - 1), np.arange(1, d)] = 1.0
        for m in range(n):
            for j in range(m + 1):
                A[:, -1, 2 * m - j] -= ((-1.0) ** n * comb(m, j)
                                        * problem.op.p_derivative(m, j, t))
        A1, A2 = A[0::2], A[1::2]
        psi1, psi2 = problem.weight(t).reshape(-1, 2).T[:, :, None, None]
        c = np.sqrt(3.0) / 12.0 * h * h
        om0 = 0.5 * h * (A1 + A2) + c * (A2 @ A1 - A1 @ A2)
        om1 = 0.5 * h * (psi1 + psi2) * E + c * (
            psi1 * (A2 @ E - E @ A2) - psi2 * (A1 @ E - E @ A1))
        out.append((om0, om1))
    return N, out


def _expm_cells(om):
    """exp of a stack of traceless exponents, shape (..., d, d).

    For d = 2, Omega^2 = s^2 I with s^2 = -det Omega, so exp(Omega) is
    cosh(s) I + sinh(s)/s Omega (cos/sin when s^2 < 0); larger systems use
    scipy's expm.
    """
    if om.shape[-1] > 2:
        return expm(om)
    s2 = om[..., 0, 0] ** 2 + om[..., 0, 1] * om[..., 1, 0]
    r = np.sqrt(np.abs(s2))
    cs, sn = np.cos(r), np.sin(r)
    grow = s2 > 0.0
    if grow.any():
        cs[grow], sn[grow] = np.cosh(r[grow]), np.sinh(r[grow])
    sn = np.divide(sn, r, out=np.ones_like(r), where=r > 0.0)
    out = sn[..., None, None] * om
    out[..., 0, 0] += cs
    out[..., 1, 1] += cs
    return out


def _propagate(problem, zetas, mesh):
    """Fundamental matrices at t = 1 for a batch of zeta values.

    Both meshes of `mesh` advance the batch a chunk of cells at a time in
    the scaled variables (v, v'/sigma, ..., v^{(2n-1)}/sigma^{2n-1}),
    sigma = max(zeta, 1), rescaled per zeta after every chunk.  Returns
    (Y, Y_fine, log_growth): the Richardson extrapolant
    Y_fine + (Y_fine - Y_coarse)/15 and Y_fine, in the original variables
    and divided by exp(log_growth), the growth of the scaled variables.
    """
    N, meshes = mesh
    d = meshes[0][0].shape[-1]
    z = np.asarray(zetas, dtype=float)
    sigma = np.maximum(z, 1.0)
    ij = np.arange(d)
    # diag(sigma^-i) Omega diag(sigma^i) scales entry (i, j) by sigma^(j-i)
    scale = sigma[:, None, None] ** (ij[None, :] - ij[:, None])
    z2n = (z ** d)[:, None, None, None]
    Y = [np.broadcast_to(np.eye(d), (z.size, d, d)).copy() for _ in meshes]
    logs = [np.zeros(z.size) for _ in meshes]
    for start in range(0, N, _CELLS_PER_CHUNK):
        for k, (om0, om1) in enumerate(meshes):
            sl = slice((k + 1) * start, (k + 1) * (start + _CELLS_PER_CHUNK))
            P = _expm_cells((om0[sl] + z2n * om1[sl]) * scale[:, None])
            while P.shape[1] > 1:
                P = P[:, 1::2] @ P[:, 0::2]
            Y[k] = P[:, 0] @ Y[k]
            s = np.abs(Y[k]).max(axis=(1, 2))
            Y[k] /= s[:, None, None]
            logs[k] += np.log(s)
    Y_coarse = Y[0] * np.exp(logs[0] - logs[1])[:, None, None]
    Y_rich = Y[1] + (Y[1] - Y_coarse) / 15.0
    return Y_rich / scale, Y[1] / scale, logs[1]


def fundamental_system(problem, zeta):
    """Canonical solutions phi_j (phi_j^{(i)}(0) = delta_ij) of
    L v = zeta^{2n} psi v, propagated across [0,1].

    Returns (Y0, Y1) where Y0 is the identity initial data and
    Y1[i, j] = phi_j^{(i)}(1).  Accepts a scalar or a 1-d array of zeta
    values (leading batch axis in the result).
    """
    zetas = np.atleast_1d(np.asarray(zeta, dtype=float))
    if (zetas < 0).any():
        raise ValueError("zeta must be nonnegative")
    Y1, _, log_growth = _propagate(problem, zetas,
                                   _mesh(problem, zetas.max()))
    Y1 = Y1 * np.exp(log_growth)[:, None, None]
    Y0 = np.eye(Y1.shape[-1])
    if np.ndim(zeta) == 0:
        return Y0, Y1[0]
    return np.broadcast_to(Y0, Y1.shape), Y1


def _boundary_matrix(problem, Y1, w0=1.0):
    """Apply the boundary forms to the fundamental solutions.

    M[nu, j] = alpha_nu phi_j^{(k_nu)}(0) + gamma_nu phi_j^{(k_nu)}(1)
               + lower-order contributions; phi_j^{(i)}(0) = delta_ij.
    When Y1 is the fundamental matrix times a positive per-zeta factor w0,
    the t = 0 terms of every row that reads Y1 are scaled by w0 as well,
    which multiplies that row by w0 and so moves no roots.  Each row is
    divided by the sum of the sup-norms of its terms (the t = 0 terms, each
    Y1 term): positive, continuous in zeta and nonzero where they cancel.
    """
    w0 = np.reshape(w0, (-1, 1))
    I = np.eye(Y1.shape[-1])
    M = np.zeros(Y1.shape)
    for nu, bc in enumerate(problem.bcs):
        a = [bc.lower_coefficient(0, j) for j in range(bc.k)] + [bc.alpha]
        g = [bc.lower_coefficient(1, j) for j in range(bc.k)] + [bc.gamma]
        terms = [c * Y1[:, j, :] for j, c in enumerate(g) if c]
        if any(a):
            row = sum(c * I[j] for j, c in enumerate(a) if c)
            terms.append(w0 * row if terms else row)
        scale = sum(np.abs(t).max(axis=-1, keepdims=True) for t in terms)
        M[:, nu, :] = sum(terms) / scale
    return M


def characteristic_function(problem, zeta):
    """Boundary determinant F(zeta); its positive roots give mu = zeta^{2n}.

    Evaluated from the Richardson-extrapolated fundamental matrix on a mesh
    fixed by the largest zeta, rescaled by positive factors (which move no
    roots).  Vectorized over a 1-d zeta array.
    """
    zetas = np.atleast_1d(np.asarray(zeta, dtype=float))
    vals = _characteristic_batch(problem, zetas,
                                 _mesh(problem, zetas.max()))[0]
    if np.ndim(zeta) == 0:
        return float(vals[0])
    return vals


def _characteristic_batch(problem, zetas, mesh):
    """(F, F_fine - F, log_growth) on a fixed mesh: the extrapolated and
    fine-mesh determinants and the growth of the scaled solutions."""
    Y, Y_fine, log_growth = _propagate(problem, zetas, mesh)
    w0 = np.exp(-log_growth)
    F = np.linalg.det(_boundary_matrix(problem, Y, w0))
    F_fine = np.linalg.det(_boundary_matrix(problem, Y_fine, w0))
    return F, F_fine - F, log_growth


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


def _refine_roots(f, a, b, fa, fb, rtol_root=ROOT_RTOL, maxit=80):
    """Safeguarded secant/bisection of f, batched over all brackets whose
    ends differ in sign bit.  Returns the roots, interpolated linearly
    across the final brackets, and the bracket widths."""
    x0, f0, x1, f1 = a, fa, b, fb
    for _ in range(maxit):
        active = (b - a) > rtol_root * np.abs(b)
        if not active.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = x1 - f1 * (x1 - x0) / (f1 - f0)
        take = np.isfinite(xs) & (xs >= a) & (xs <= b)
        # a step within half the tolerance of a bracket end is pushed to that
        # distance, so a converged iterate or an exact zero at an end lands
        # across the root and closes the bracket (Dekker)
        tol = 0.5 * rtol_root * np.abs(b)
        xp = np.clip(np.where(take, xs, 0.5 * (a + b)), a + tol, b - tol)
        fp = np.zeros_like(xp)
        fp[active] = f(xp[active])
        left = active & ((fp < 0) == (fa < 0))
        right = active & ~left
        a, fa = np.where(left, xp, a), np.where(left, fp, fa)
        b, fb = np.where(right, xp, b), np.where(right, fp, fb)
        x0, f0, x1, f1 = x1, f1, xp, fp
    return a - fa * (b - a) / (fb - fa), b - a


def eigenvalues_shooting(problem, K):
    """First K eigenvalues of L v = mu psi v by characteristic-root search.

    Scans F(zeta) on a grid of spacing pi/(4 theta) up to (K+2) pi / theta,
    brackets sign changes, refines each root to relative 1e-12, and checks
    the count against the leading-order growth model.  F comes from a
    fixed-mesh Magnus-4 propagator with Richardson extrapolation, its mesh
    set by the scan window.  `err` is the relative error bound on mu from
    the mesh-halving gap (the shift between the fine-mesh and extrapolated
    roots), the final bracket width and the rounding that the growth of the
    solutions amplifies.  StepFailure is raised when it exceeds SHOOT_TOL,
    before any root is refined when the rounding at the scan brackets alone
    does.
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
        mesh = _mesh(problem, z_hi)
        F, _, scan_growth = _characteristic_batch(problem, grid, mesh)
        # a bracket wherever the sign bit flips, so an exact zero at a node
        # closes one bracket
        lo = np.flatnonzero((F[:-1] < 0) != (F[1:] < 0))
        if len(lo) >= K:
            break
    if len(lo) < K:
        raise MissedRoot(f"found only {len(lo)} roots up to zeta={z_hi:.3g} "
                         f"but {K} were requested")
    # fail before refining when rounding alone, amplified by the smaller
    # growth at the ends of one of the first K brackets, breaks the tolerance
    first = lo[:K]
    floor = (2 * n * np.finfo(float).eps / grid[first + 1] * np.exp(
        np.minimum(scan_growth[first], scan_growth[first + 1])))
    _check_resolved(floor, scan_growth[first])
    roots, widths = _refine_roots(
        lambda z: _characteristic_batch(problem, z, mesh)[0],
        grid[lo], grid[lo + 1], F[lo], F[lo + 1])

    # count sanity check against the growth model over the first scan window
    in_first = roots <= zmax
    predicted = theta * zmax / np.pi
    if abs(in_first.sum() - predicted) > n + 1:
        raise MissedRoot(
            f"root count {in_first.sum()} on [0, {zmax:.3g}] is inconsistent "
            f"with the expected {predicted:.1f} +- {n + 1}")

    roots, widths, lo = roots[:K], widths[:K], lo[:K]
    # error bar in zeta: the fine-mesh root's shift from the extrapolated
    # one (F difference over the scan slope of F), the bracket width, and
    # rounding, which the growth G of the scaled solutions amplifies to
    # about eps * G (the equilibrated determinant's slope falls like 1/G)
    _, dF, log_growth = _characteristic_batch(problem, roots, mesh)
    gap = np.abs(dF) * np.diff(grid)[lo] / np.abs(np.diff(F)[lo])
    rounding = np.finfo(float).eps * np.exp(log_growth)
    err = 2 * n * (gap + widths + rounding) / roots
    _check_resolved(err, log_growth)
    return SpectrumResult(mu=roots ** (2 * n), method="shooting", err=err,
                          theta_norm=theta)


def _check_resolved(err, log_growth):
    """StepFailure at the first relative error bound `err` > SHOOT_TOL."""
    if not (err <= SHOOT_TOL).all():
        k = np.argmin(err <= SHOOT_TOL)
        raise StepFailure(
            f"eigenvalue {k + 1} is resolved only to relative {err[k]:.1e} "
            f"> {SHOOT_TOL:.0e} (the solutions grow by "
            f"{np.exp(log_growth[k]):.1e} across [0, 1])")


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
        P, q = g.panels, g.order
        p = np.arange(P)
        swb = sw.reshape(P, q)
        corr = odd * (g.h ** 2 * _kink_full_moments(q))
        S.reshape(P, q, P, q)[p, :, p] += (swb[:, :, None] * corr
                                           / swb[:, None, :])
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
