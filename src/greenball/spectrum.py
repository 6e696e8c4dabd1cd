"""Eigenvalue engines: shooting on the differential problem and Nystrom
discretization of covariance kernels, plus the infinite eigenvalue-product
evaluator used for weight comparisons.

The shooting route propagates the order-2n companion system for a batch of
spectral parameters zeta across a fixed mesh of cells at equal steps of
int psi^(1/2n), as many as the scan window times theta needs: one
4th-order Magnus step per cell (psi and the operator coefficients sampled
once at two Gauss nodes), Richardson extrapolation over halved cells, and
positive rescaling that moves no roots.  The cells are kept in component
layout, matrix axes first ((d, d, cells, batch) arrays), so exponentials
and products are passes over contiguous rows, not a matmul per matrix.
The route locates the sign-change roots of the boundary determinant
F(zeta); eigenvalues are mu_k = zeta_k^{2n}.  The Nystrom route discretizes
the weighted kernel on composite Gauss-Legendre grids with an exact
correction for the |t-s| kink.  One dense eigensolve runs on the coarsest
grid with at least 8K nodes; the requested grid and its doubling get block
Krylov Rayleigh-Ritz solves seeded with the previous grid's interpolated
eigenvectors, each certified by a Cholesky factorization.  Its dense
linear algebra runs in scipy's BLAS/LAPACK only: numpy's wheel bundles a
second OpenBLAS, whose thread pool would fight scipy's for the cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.linalg import blas, eigh, lapack, qr

from .errors import (GridTooCoarse, MissedRoot, NonConvergence,
                     NormalizationMismatch, StepFailure)
from .kernels import _scale_outer, apply_weight
from .model import WEIGHT_GRID, normalization_integral
from .quadrature import (Grid, _kink_full_moments, _lagrange_coefficients,
                         _panel_rule)

# ---------------------------------------------------------------------------
# Fixed-mesh Magnus-4 propagation of the companion system

#: Gauss-Legendre nodes of a cell, as fractions of its width
_GAUSS = 0.5 + np.array([-0.5, 0.5]) / np.sqrt(3.0)
#: root refinement stops at this relative bracket width
ROOT_RTOL = 1e-12
#: relative accuracy of the shooting eigenvalues; StepFailure beyond it
SHOOT_TOL = 1e-8
#: coarse cells whose exponentials are formed at once: at least this many,
#: doubled while (fine cells) x batch <= _CHUNK_ENTRIES, up to 512 cells,
#: whose growth e^{0.5 * 512} stays far below the overflow at e^709; and
#: the fewest coarse cells of a mesh
_CELLS_PER_CHUNK, _CHUNK_ENTRIES, _MIN_CELLS = 64, 16384, 1024


def _mesh(problem, zmax):
    """Magnus-4 exponents (Omega0, Omega1) on N graded cells and their halves.

    A(t, zeta) = A_0(t) + zeta^{2n} psi(t) E is the traceless companion
    matrix of v^{(2n)} = (-1)^n [zeta^{2n} psi v - sum_m (p_m v^{(m)})^{(m)}],
    E = (-1)^n in the bottom-left corner.  With A sampled at the two Gauss
    nodes of a cell of width h, Omega = h/2 (A_1 + A_2) + (sqrt(3)/12) h^2
    [A_2, A_1] = Omega0 + zeta^{2n} Omega1, since [E, E] = 0.  The coarse
    edges are equal steps of X(t) = int_0^t psi^(1/2n) / theta (summed to
    each WEIGHT_GRID node and panel end, inverted linearly; equal cells for
    psi = 1), in which omega = zeta psi^(1/2n) is uniform: N, the power of
    two >= max(_MIN_CELLS, 2 zmax theta), holds h omega <= 1/2 in each cell.
    """
    n = problem.op.n
    d = 2 * n
    P, q = WEIGHT_GRID.panels, WEIGHT_GRID.order
    X = (problem.weight.samples ** (1.0 / d)).reshape(P, q) @ _panel_rule(q).T
    X = np.append(0.0, X + np.append(0.0, np.cumsum(X[:-1, -1]))[:, None]) / P
    t = np.append(0.0, np.column_stack((WEIGHT_GRID.x.reshape(P, q),
                                        np.arange(1, P + 1) / P)))
    N = 1 << int(np.ceil(np.log2(max(_MIN_CELLS, 2.0 * zmax * X[-1]))))
    edges = np.interp(np.arange(N + 1) / N, X / X[-1], t)
    E = np.zeros((d, d))
    E[-1, 0] = (-1.0) ** n
    out = []
    for edges in (edges, np.interp(np.arange(2 * N + 1) / 2,
                                   np.arange(N + 1), edges)):
        h = np.diff(edges)[:, None, None]
        t = (edges[:-1, None] + _GAUSS * h[:, 0]).ravel()
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


def _expm_cells(X):
    """exp of traceless exponents in component layout, shape (d, d, ...):
    X[i, j] holds entry (i, j) of every matrix.  X may be overwritten.

    For d = 2, Omega^2 = s^2 I with s^2 = -det Omega, so exp(Omega) is
    cosh(s) I + sinh(s)/s Omega (cos/sin when s^2 < 0), formed entrywise on
    the component arrays.  Larger ones sum the Taylor series of 2^-s X
    (1-norms nu <= 1) to the least degree m with nu^(m+1)/(m+1)! < 2^-56
    (m <= 18) by Horner's rule, and square it s times (`_mul`).
    """
    if X.shape[0] > 2:
        nu = np.abs(X).sum(axis=0).max()
        s = max(0, int(np.frexp(nu)[1]))
        X *= 0.5 ** s
        nu *= 0.5 ** s
        m = next((m for m in range(1, 18)
                  if nu ** (m + 1) / factorial(m + 1) < 2.0 ** -56), 18)
        P, Q, diag = X / m, np.empty_like(X), np.arange(X.shape[0])
        for k in range(m - 1, 0, -1):
            P[diag, diag] += 1.0
            P, Q = _mul(X, P, out=Q), P
            P /= k
        P[diag, diag] += 1.0
        for _ in range(s):
            P, Q = _mul(P, P, out=Q), P
        return P
    s2 = X[0, 0] ** 2 + X[0, 1] * X[1, 0]
    r = np.sqrt(np.abs(s2))
    cs, sn = np.cos(r), np.sin(r)
    grow = s2 > 0.0
    if grow.any():
        cs[grow], sn[grow] = np.cosh(r[grow]), np.sinh(r[grow])
    sn = np.divide(sn, r, out=np.ones_like(r), where=r > 0.0)
    X *= sn
    X[0, 0] += cs
    X[1, 1] += cs
    return X


def _mul(A, B, out=None):
    """Matrix product over the two leading axes of component-layout arrays
    (A[i, j] an array over cells and batch), into `out` if given (it must
    not overlap A or B).  Entry (i, j) is sum_k A[i, k] B[k, j], summed in
    order over whole contiguous rows by one einsum, instead of a matmul
    per matrix."""
    return np.einsum("ik...,kj...->ij...", A, B, out=out)


def _bit_reversed(c):
    """The permutation p -> p with its log2(c) bits reversed, c = 2^L."""
    bits = c.bit_length() - 1
    p = np.arange(c)
    return sum(((p >> b) & 1) << (bits - 1 - b) for b in range(bits))


def _propagate(problem, zetas, mesh):
    """Fundamental matrices at t = 1 for a batch of zeta values.

    Both meshes of `mesh` advance the batch a chunk of cells at a time in
    the scaled variables (v, v'/sigma, ..., v^{(2n-1)}/sigma^{2n-1}),
    sigma = max(zeta, 1), rescaled per zeta after every chunk.  The cells
    are kept in component layout, matrix axes first: a chunk's exponents
    form one (d, d, cells, batch) array, so the exponentials, the pairwise
    product down the chunk, the update of the (d, d, batch) solution and
    its rescaling are passes over contiguous cells x batch rows (`_mul`).
    A small batch takes longer chunks, so that it pays for fewer passes.
    Returns (Y, Y_fine, log_growth): the Richardson extrapolant
    Y_fine + (Y_fine - Y_coarse)/15 and Y_fine, shape (batch, d, d), in the
    original variables and divided by exp(log_growth), the growth of the
    scaled variables.
    """
    N, meshes = mesh
    d = meshes[0][0].shape[-1]
    z = np.asarray(zetas, dtype=float)
    sigma = np.maximum(z, 1.0)
    ij = np.arange(d)
    # diag(sigma^-i) Omega diag(sigma^i) scales entry (i, j) by sigma^(j-i)
    scale = sigma ** (ij[None, :, None] - ij[:, None, None])
    z2n = z ** d
    cells = _CELLS_PER_CHUNK
    while cells < 512 and 4 * cells * z.size <= _CHUNK_ENTRIES:
        cells *= 2
    # Per mesh: the exponents in component layout and two work buffers.
    # Within each chunk the cells go in bit-reversed order: the first half
    # holds the even cells and the second the odd ones, again in
    # bit-reversed order, so each step of the pairwise product multiplies
    # two contiguous halves, cell 2m+1 times cell 2m.  The steps write
    # alternately into the buffers, never into the one they read.
    layouts = []
    for k, pair in enumerate(meshes):
        c = (k + 1) * cells
        order = np.arange(pair[0].shape[0]).reshape(-1, c)
        order = order[:, _bit_reversed(c)].ravel()
        om0, om1 = (np.moveaxis(om[order], 0, -1).copy() for om in pair)
        work = (np.empty((d, d, c, z.size)), np.empty((d, d, c // 2, z.size)))
        layouts.append((c, om0, om1, work))
    Y = [np.broadcast_to(np.eye(d)[:, :, None], (d, d, z.size)).copy()
         for _ in meshes]
    logs = [np.zeros(z.size) for _ in meshes]
    for chunk in range(N // cells):
        for k, (c, om0, om1, work) in enumerate(layouts):
            sl = slice(chunk * c, (chunk + 1) * c)
            X = np.multiply(om1[:, :, sl, None], z2n, out=work[0])
            X += om0[:, :, sl, None]
            X *= scale[:, :, None]
            P = _expm_cells(X)
            step = 1
            while P.shape[2] > 1:
                half = P.shape[2] // 2
                P = _mul(P[:, :, half:], P[:, :, :half],
                         out=work[step][:, :, :half])
                step ^= 1
            Y[k] = _mul(P[:, :, 0], Y[k])
            s = np.abs(Y[k]).max(axis=(0, 1))
            Y[k] /= s
            logs[k] += np.log(s)
    Y_coarse = Y[0] * np.exp(logs[0] - logs[1])
    Y_rich = Y[1] + (Y[1] - Y_coarse) / 15.0
    return (np.moveaxis(Y_rich / scale, -1, 0),
            np.moveaxis(Y[1] / scale, -1, 0), logs[1])


def _boundary_matrix(problem, Y1, w0):
    """Apply the boundary forms to the fundamental solutions.

    M[nu, j] = alpha_nu phi_j^{(k_nu)}(0) + gamma_nu phi_j^{(k_nu)}(1)
               + lower-order contributions; phi_j^{(i)}(0) = delta_ij.
    Y1 is the fundamental matrix times a positive per-zeta factor w0, so
    the t = 0 terms of every row that reads Y1 are scaled by w0 as well,
    which multiplies that row by w0 and so moves no roots.
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
        M[:, nu, :] = sum(terms)
    return M


def _characteristic_batch(problem, zetas, mesh):
    """(F, [F_fine - F, log_growth]) on a fixed mesh: the extrapolated
    determinant, and its gap to the fine-mesh one stacked with the growth
    of the scaled solutions."""
    Y, Y_fine, log_growth = _propagate(problem, zetas, mesh)
    w0 = np.exp(-log_growth)
    F = np.linalg.det(_boundary_matrix(problem, Y, w0))
    F_fine = np.linalg.det(_boundary_matrix(problem, Y_fine, w0))
    return F, np.stack((F_fine - F, log_growth))


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


def _refine_roots(f, a, b, fa, fb, aux):
    """Safeguarded secant/bisection of f, batched over all brackets whose
    ends differ in sign bit.  f(x) returns the values and an array of
    per-point data stacked along its last axis; each bracket keeps the data
    of its last evaluation in `aux` (which holds each bracket's data to
    start), for 80 steps or until each is ROOT_RTOL narrow.  Returns the
    roots (linear across the final brackets), the bracket widths, `aux` and
    the secant slope over each bracket's last step wider than 1e-7 relative,
    which rounding in f cannot swamp."""
    x0, f0, x1, f1 = a, fa, b, fb
    slope = (fb - fa) / (b - a)
    for _ in range(80):
        active = (b - a) > ROOT_RTOL * np.abs(b)
        if not active.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = x1 - f1 * (x1 - x0) / (f1 - f0)
        take = np.isfinite(xs) & (xs >= a) & (xs <= b)
        # a step within half the tolerance of a bracket end is pushed to that
        # distance, so a converged iterate or an exact zero at an end lands
        # across the root and closes the bracket (Dekker)
        tol = 0.5 * ROOT_RTOL * np.abs(b)
        xp = np.clip(np.where(take, xs, 0.5 * (a + b)), a + tol, b - tol)
        fp = np.zeros_like(xp)
        fp[active], aux[..., active] = f(xp[active])
        wide = active & (np.abs(xp - x1) > 1e-7 * np.abs(xp))
        slope[wide] = (fp[wide] - f1[wide]) / (xp[wide] - x1[wide])
        left = active & ((fp < 0) == (fa < 0))
        right = active & ~left
        a, fa = np.where(left, xp, a), np.where(left, fp, fa)
        b, fb = np.where(right, xp, b), np.where(right, fp, fb)
        x0, f0, x1, f1 = x1, f1, xp, fp
    return a - fa * (b - a) / (fb - fa), b - a, aux, slope


def eigenvalues_shooting(problem, K):
    """First K eigenvalues of L v = mu psi v by characteristic-root search.

    Scans F(zeta) on a grid of spacing pi/(4 theta) up to (K+2) pi / theta,
    brackets sign changes (MissedRoot if fewer than K, or more than n + 1
    off the K + 2 of the leading-order growth model) and refines each root
    to relative 1e-12.  F comes from a Magnus-4 propagator with Richardson
    extrapolation on one mesh, set by the scan window, for every n.  `err`
    is the relative error bound on mu from the mesh-halving gap (F_fine - F
    over the slope of F near the root), the final bracket width and the
    rounding that the growth of the solutions amplifies.  StepFailure is
    raised when it exceeds SHOOT_TOL, and before any root is refined when
    the rounding at the scan brackets alone does.
    """
    _check_count(K)
    n = problem.op.n
    theta = normalization_integral(problem.weight, n)
    roots, err, log_growth = _shoot(problem, K, theta)
    _check_resolved(err, log_growth)
    return SpectrumResult(mu=roots ** (2 * n), method="shooting", err=err,
                          theta_norm=theta)


def _shoot(problem, K, theta):
    """Roots zeta_1..zeta_K of F on `_mesh(problem, z)` for its one scan
    window up to z, each mu_k's relative error bound, and the growth there."""
    n = problem.op.n
    spacing = np.pi / (4 * theta)
    zmax = (K + 2) * np.pi / theta

    grid = np.arange(spacing, zmax + 0.5 * spacing, spacing)
    # extra points near the origin in case of a low first root
    grid = np.concatenate(([1e-4, 1e-3, 1e-2, 0.1 * spacing], grid))
    mesh = _mesh(problem, zmax)
    F, scan = _characteristic_batch(problem, grid, mesh)
    # a bracket wherever the sign bit flips, so an exact zero at a node
    # closes one bracket
    lo = np.flatnonzero((F[:-1] < 0) != (F[1:] < 0))
    if len(lo) < K:
        raise MissedRoot(f"found only {len(lo)} roots up to zeta={zmax:.3g} "
                         f"but {K} were requested")
    # fail before refining when rounding alone, amplified by the smaller
    # growth at the ends of one of the first K brackets, breaks the tolerance
    first, scan_growth = lo[:K], scan[1]
    floor = (2 * n * np.finfo(float).eps / grid[first + 1] * np.exp(
        np.minimum(scan_growth[first], scan_growth[first + 1])))
    _check_resolved(floor, scan_growth[first])
    # count sanity check against the growth model, which puts theta zmax / pi
    # = K + 2 roots in the scan window
    if abs(len(lo) - (K + 2)) > n + 1:
        raise MissedRoot(f"root count {len(lo)} on [0, {zmax:.3g}] is "
                         f"inconsistent with the expected {K + 2} +- {n + 1}")
    roots, widths, (dF, log_growth), slope = _refine_roots(
        lambda z: _characteristic_batch(problem, z, mesh), grid[first],
        grid[first + 1], F[first], F[first + 1], scan[:, first])
    # error bar in zeta: the fine-mesh root's shift from the extrapolated
    # one (F difference over F's slope near the root), the bracket width,
    # and rounding, which the growth G of the scaled solutions amplifies to
    # about eps * G (the determinant of the growth-scaled rows has a slope
    # that falls like 1/G); dF and G come from each bracket's last
    # evaluation, within its width
    rounding = np.finfo(float).eps * np.exp(log_growth)
    err = 2 * n * (np.abs(dF / slope) + widths + rounding) / roots
    return roots, err, log_growth


def _check_resolved(err, log_growth):
    """StepFailure at the first relative error bound `err` > SHOOT_TOL."""
    if not (err <= SHOOT_TOL).all():
        k = np.argmin(err <= SHOOT_TOL)
        raise StepFailure(
            f"eigenvalue {k + 1} is resolved only to relative {err[k]:.1e} "
            f"> {SHOOT_TOL:.0e} (the solutions grow by "
            f"{np.exp(log_growth[k]):.1e} across [0, 1])")


#: Krylov blocks a seeded Ritz solve may append
_KRYLOV_BLOCKS = 8


def nystrom_eigenvalues(kern, w, K, grid=None):
    """First K eigenvalues mu = 1/lambda of the weighted covariance operator.

    A weight `w` is applied with `apply_weight`; pass None when `kern` is
    unweighted or already carries its weight.  The kernel is sampled on
    composite Gauss-Legendre grids of the order of `grid` (a Grid, a node
    count, or None for the kernel's own grid), with the |t-s| kink of the
    diagonal panels corrected exactly, in the symmetric sqrt(weight) form.
    A dense solve gives the top b = K + K//4 + 8 eigenpairs on the coarsest
    grid with >= 8K nodes, or on `grid` if that has over half its nodes.
    `grid` and then its doubling get a block Krylov Rayleigh-Ritz solve
    seeded with the previous grid's interpolated eigenfunctions
    (`_ritz_top`, NonConvergence if it does not settle), and a Cholesky
    guard (`_guard`) proves that it missed no eigenvalue above its top K.
    The doubled grid's are returned; `err` is their relative gap to those
    on `grid`, at least the rounding floor 8 eps lambda_1/lambda_k, and
    GridTooCoarse is raised when that gap exceeds 1e-4 or a guard fails.
    theta_norm is the normalization integral of the weight (1 if none).
    """
    _check_count(K)
    g = kern.grid if grid is None else grid
    if isinstance(g, int):
        g = Grid.composite(g, kern.grid.order)
    if g.n < 8 * K:
        raise GridTooCoarse(f"grid size {g.n} < 8K = {8 * K}")
    if w is not None:
        kern = apply_weight(kern, w)

    src = Grid.composite(-(-8 * K // g.order) * g.order, g.order)
    src = src if 2 * src.n <= g.n else g
    b = min(K + K // 4 + 8, src.n)
    # S is symmetric, so its Fortran view S.T goes to LAPACK uncopied
    lam, V = eigh(_nystrom_matrix(kern, src).T,
                  subset_by_index=(src.n - b, src.n - 1), driver="evr",
                  overwrite_a=True, check_finite=False)
    lam = lam[::-1]
    _check_above_noise(lam[:K])
    fine = g.doubled()
    for dst in (g, fine)[src is g:]:
        prev = lam[:K]
        # the seed's temporaries come and go before the matrix of `dst`
        # exists, so they do not add to the solve's peak memory
        seed = _interpolated_seed(V, src, dst)
        del V
        S = _nystrom_matrix(kern, dst)
        lam, V = _ritz_top(S, seed, K)
        _check_above_noise(lam[:K])
        if dst is fine:
            rel = np.abs(prev - lam[:K]) / np.abs(lam[:K])
            if (rel > 1e-4).any():
                raise GridTooCoarse(
                    f"grid-doubling moved an eigenvalue by {rel.max():.2e} "
                    "relative (> 1e-4); increase the grid")
        _guard(S, lam, V, K)  # consumes S
        del S, seed
        src = dst
    lam = lam[:K]
    theta = (1.0 if kern.weight is None
             else normalization_integral(kern.weight, kern.half_order))
    floor = 8 * np.finfo(float).eps * lam[0] / lam  # rounding
    return SpectrumResult(mu=1.0 / lam, method="nystrom",
                          err=np.maximum(rel, floor), theta_norm=theta)


def _check_count(K):
    """ValueError unless K, the number of eigenvalues, is an integer >= 1."""
    if not isinstance(K, (int, np.integer)) or K < 1:
        raise ValueError("K must be >= 1")


def _check_above_noise(lam):
    if not (lam > 0).all():  # NaN fails too
        raise GridTooCoarse(
            "requested eigenvalues reach the discretization noise floor "
            "(nonpositive Nystrom eigenvalue); increase the grid")


def _nystrom_matrix(kern, g):
    """The symmetric Nystrom matrix of `kern` on `g`: S = G(x_i, x_j)
    (sqrt(w_i) sqrt(w_j)) is as symmetric as the sample, and only the
    diagonal panel blocks, which the kink correction skews, are averaged.

    S overwrites the sample, which `Kernel.evaluate_on` hands over writable
    and C-ordered, so that S.T is the Fortran view LAPACK and BLAS work
    in."""
    values, odd = kern.evaluate_on(g)
    sw = np.sqrt(g.w)
    S = _scale_outer(values, sw)
    if odd is not None:
        # exact |t-s| moments on the diagonal panels replace the plain rule
        P, q = g.panels, g.order
        p = np.arange(P)
        swb = sw.reshape(P, q)
        corr = odd * (g.h ** 2 * _kink_full_moments(q))
        D = S.reshape(P, q, P, q)[p, :, p]
        D += swb[:, :, None] * corr / swb[:, None, :]
        S.reshape(P, q, P, q)[p, :, p] = 0.5 * (D + D.transpose(0, 2, 1))
    return S


def _interpolated_seed(V, coarse, fine):
    """Orthonormal basis on `fine` from eigenvectors V of the Nystrom
    matrix on `coarse`, a grid of the same order: the eigenfunction samples
    V / sqrt(w) are interpolated from each coarse panel to the fine nodes
    inside it by that panel's Lagrange basis (exact to degree order - 1)
    and weighted by sqrt(w_fine)."""
    q, c = coarse.order, coarse.panels
    x = fine.x * c  # in coarse panels
    panel = np.minimum(x.astype(int), c - 1)
    T = np.stack([npoly.polyval(x - panel, coef)
                  for coef in _lagrange_coefficients(q)], axis=1)
    bounds = np.searchsorted(panel, np.arange(c + 1))
    phi = (V / np.sqrt(coarse.w)[:, None]).reshape(c, q, -1)
    # Fortran order, so that `_orthonormalize` works in the seed's place
    seed = np.empty((fine.n, V.shape[1]), order="F")
    for p in range(c):
        rows = slice(bounds[p], bounds[p + 1])
        np.einsum("ij,jk->ik", T[rows], phi[p], out=seed[rows])
    seed *= np.sqrt(fine.w)[:, None]
    return _orthonormalize(seed)


def _orthonormalize(W):
    """Orthonormalize the columns of the Fortran-ordered n x b array W in
    place by three Cholesky QR passes W <- W R^-1, R^T R = W^T W + s I, the
    first shifted by s = 11 (n b + b^2 + b) eps ||W||_F^2 so that the other
    two see a well-conditioned W (level-3 BLAS, where Householder QR, the
    fallback, factors its panels a column at a time)."""
    n, b = W.shape
    s = 11 * (n * b + b * b + b) * np.finfo(float).eps
    for shift in (s * np.einsum("ij,ij->", W, W), 0.0, 0.0):
        G = blas.dsyrk(1.0, W, trans=1)
        G.flat[::b + 1] += shift
        R, info = lapack.dpotrf(G, overwrite_a=True)
        if info:
            W[:] = qr(W, mode="economic", overwrite_a=True,
                      check_finite=False)[0]
            break
        blas.dtrsm(1.0, R, W, side=1, overwrite_b=True)
    return W


def _ritz_top(S, Q, K):
    """Top b Ritz pairs (theta descending, U) of symmetric S in the block
    Krylov space of the orthonormal n x b seed Q.

    Blocks S Q_j, orthogonalized twice against the basis, are appended
    until each of the top K Ritz pairs has an error bound
    min(|r|, |r|^2/gap) <= 8 eps theta_1, r its residual and gap the
    distance to the nearest Ritz value outside its cluster (neighbours
    closer than their residuals are one cluster, as are multiple
    eigenvalues), or until the basis spans the whole space, where
    Rayleigh-Ritz is the dense solve.  NonConvergence after
    `_KRYLOV_BLOCKS` appended blocks.
    """
    n, b = Q.shape
    tol = 8 * np.finfo(float).eps
    # S is symmetric, so its Fortran view S.T goes to BLAS uncopied; the
    # basis is column-major, so its first m columns are contiguous and only
    # the pages it has reached are touched
    basis = np.empty((n, min(n, (_KRYLOV_BLOCKS + 1) * b)), order="F")
    images = np.empty_like(basis)
    basis[:, :b] = Q
    blas.dgemm(1.0, S.T, basis[:, :b], c=images[:, :b], overwrite_c=True)
    m, last = b, slice(0, b)
    while True:
        Qm, SQm = basis[:, :m], images[:, :m]
        H = blas.dgemm(1.0, Qm, SQm, trans_a=True)
        # MRRR keeps the small Ritz values accurate relative to themselves
        # (divide and conquer loses up to eps theta_1 absolute in them)
        theta, Y = eigh(0.5 * (H + H.T), driver="evr", check_finite=False)
        theta, Y = theta[::-1], np.asfortranarray(Y[:, ::-1][:, :b])
        U = blas.dgemm(1.0, Qm, Y)
        R = blas.dgemm(1.0, SQm, Y, -1.0, U * theta[:b], overwrite_c=True)
        r = np.zeros(m)
        r[:b] = np.sqrt(np.einsum("ij,ij->j", R, R))
        if m == n or (_ritz_bounds(theta, r)[:K] <= tol * theta[0]).all():
            # theta inherits the rounding of H's n-term sums (10 eps theta_1
            # at n = 1600): the Rayleigh quotient theta + u.r / u.u does not
            return theta[:b] + (np.einsum("ij,ij->j", U, R)
                                / np.einsum("ij,ij->j", U, U)), U
        if m == basis.shape[1]:
            raise NonConvergence(
                f"the seeded solve on {n} nodes did not resolve the top {K} "
                f"eigenvalues in {_KRYLOV_BLOCKS} Krylov blocks")
        new = slice(m, min(m + b, basis.shape[1]))
        W = basis[:, new]
        W[:] = images[:, last][:, :W.shape[1]]
        # where the basis nearly spans a column of S Q_j, the first pass
        # scales its rounding up to unit norm and the second removes it
        for _ in range(2):
            blas.dgemm(-1.0, Qm, blas.dgemm(1.0, Qm, W, trans_a=True),
                       beta=1.0, c=W, overwrite_c=True)
            _orthonormalize(W)
        blas.dgemm(1.0, S.T, W, c=images[:, new], overwrite_c=True)
        m, last = new.stop, new


def _ritz_bounds(theta, r):
    """min(r, r^2/gap) per Ritz value (theta descending), gap measured
    between clusters: neighbours closer than the larger of their residuals
    are linked.  Nothing lies above the top cluster; below the bottom one
    the gap is unknown and taken as 0."""
    d = -np.diff(theta)
    split = d > np.maximum(r[:-1], r[1:])
    cluster = np.concatenate(([0], np.cumsum(split)))
    between = d[split]
    above = np.concatenate(([np.inf], between))
    below = np.concatenate((between, [0.0]))
    gap = np.minimum(above, below)[cluster]
    ratio = np.divide(r, gap, out=np.ones_like(r), where=gap > r)
    return r * ratio


def _guard(S, theta, U, K):
    """GridTooCoarse unless the Ritz pairs (theta descending, U) hold every
    eigenvalue of S above sigma, the midpoint of theta_K and theta_b.

    S is overwritten with sigma I - S + U_T Theta_T U_T^T, U_T the Ritz
    vectors with theta > sigma, and Cholesky-factored in place: it is
    positive definite exactly when no eigenvalue of S outside span(U_T)
    exceeds sigma (to within the Ritz residuals).  Only the triangle the
    factorization reads, the lower one of S.T, gets the rank-t update.
    """
    sigma = 0.5 * (theta[K - 1] + theta[-1])
    t = np.count_nonzero(theta > sigma)
    S *= -1.0
    S.flat[::S.shape[0] + 1] += sigma
    # S is symmetric: its Fortran view S.T is updated and factored in place,
    # by one dsyrk of U_T Theta_T^(1/2) (theta_T > sigma > 0)
    blas.dsyrk(1.0, U[:, :t] * np.sqrt(theta[:t]), beta=1.0, c=S.T,
               lower=True, overwrite_c=True)
    _, info = lapack.dpotrf(S.T, lower=True, clean=False, overwrite_a=True)
    if info != 0:
        raise GridTooCoarse(
            f"the seeded solve on {S.shape[0]} nodes missed an eigenvalue "
            f"above {sigma:.3e} (guard factorization failed at column "
            f"{info}); increase the grid")


def eigenvalue_product(s1, s2):
    """Limit of prod_k mu_k^{(1)}/mu_k^{(2)} from two equal-length spectra.

    The log partial products S_k converge like 1/k, a logarithmic sequence
    no Aitken-type accelerator speeds up, so the limit is exp of the
    constant term of the least-squares fit of S_k on 1, 1/k, 1/k^2, 1/k^3
    over k > K//4.  err is value times its gap to the degree-4 constant
    plus the summed relative error bars of both spectra.  Spectra too short
    for that fit (K < 8) give the last partial product, its change since
    K//2 taking the gap's place.  Returns (value, err).
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
    bars = float(np.sum(s1.err) + np.sum(s2.err))
    if K < 8:
        value = float(np.exp(S[-1]))
        return value, value * (abs(S[-1] - S[K // 2]) + bars)
    x = 1.0 / np.arange(K // 4 + 1, K + 1)
    c3, c4 = (npoly.polyfit(x, S[K // 4:], deg)[0] for deg in (3, 4))
    value = float(np.exp(c3))
    return value, value * (abs(c3 - c4) + bars)
