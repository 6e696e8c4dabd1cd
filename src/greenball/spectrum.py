"""Eigenvalue engines: shooting on the differential problem and Nystrom
discretization of covariance kernels, plus the infinite eigenvalue-product
evaluator used for weight comparisons.

The shooting route propagates the order-2n companion system for a batch of
spectral parameters zeta across a fixed mesh of cells, whose size depends
only on the scan window: one 4th-order Magnus step per cell (psi and the
operator coefficients sampled once at two Gauss nodes), Richardson
extrapolation over a mesh halving, and positive rescaling that moves no
roots.  The cells are kept in component layout, the matrix axes first
((d, d, cells, batch) arrays), so that the exponentials and the products
are a few passes over contiguous rows rather than a matmul per matrix.
The route locates the sign-change roots of the boundary determinant
F(zeta); eigenvalues are mu_k = zeta_k^{2n}.  The Nystrom route discretizes
the weighted kernel on a composite Gauss-Legendre grid with an exact
correction for the |t-s| kink and solves the dense symmetric eigenproblem
on that grid only: the check on the doubled grid is a block Krylov
Rayleigh-Ritz solve seeded with the interpolated eigenvectors, and a
Cholesky factorization certifies that it missed no eigenvalue.  Its dense
linear algebra runs in scipy's BLAS/LAPACK only: numpy's wheel bundles a
second OpenBLAS, whose thread pool would fight scipy's for the cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.linalg import blas, eigh, expm, lapack, qr

from .errors import (GridTooCoarse, MissedRoot, NonConvergence,
                     NormalizationMismatch, StepFailure)
from .kernels import apply_weight
from .model import normalization_integral
from .quadrature import (Grid, _kink_full_moments, _lagrange_coefficients,
                         _reference_rule)

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


def _expm_cells(X):
    """exp of traceless exponents in component layout, shape (d, d, ...):
    X[i, j] holds entry (i, j) of every matrix.  X may be overwritten.

    For d = 2, Omega^2 = s^2 I with s^2 = -det Omega, so exp(Omega) is
    cosh(s) I + sinh(s)/s Omega (cos/sin when s^2 < 0), formed entrywise on
    the component arrays; larger systems move the matrix axes last for
    scipy's expm and back.
    """
    if X.shape[0] > 2:
        # expm walks its stack matrix by matrix: hand it contiguous ones
        E = expm(np.ascontiguousarray(np.moveaxis(X, (0, 1), (-2, -1))))
        return np.ascontiguousarray(np.moveaxis(E, (-2, -1), (0, 1)))
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
    # Per mesh: the exponents in component layout and two work buffers.
    # Within each chunk the cells go in bit-reversed order: the first half
    # holds the even cells and the second the odd ones, again in
    # bit-reversed order, so each step of the pairwise product multiplies
    # two contiguous halves, cell 2m+1 times cell 2m.  The steps write
    # alternately into the buffers, never into the one they read.
    layouts = []
    for k, pair in enumerate(meshes):
        c = (k + 1) * _CELLS_PER_CHUNK
        order = np.arange(pair[0].shape[0]).reshape(-1, c)
        order = order[:, _bit_reversed(c)].ravel()
        om0, om1 = (np.moveaxis(om[order], 0, -1).copy() for om in pair)
        work = (np.empty((d, d, c, z.size)), np.empty((d, d, c // 2, z.size)))
        layouts.append((c, om0, om1, work))
    Y = [np.broadcast_to(np.eye(d)[:, :, None], (d, d, z.size)).copy()
         for _ in meshes]
    logs = [np.zeros(z.size) for _ in meshes]
    for chunk in range(N // _CELLS_PER_CHUNK):
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


def _refine_roots(f, a, b, fa, fb, aux, rtol_root=ROOT_RTOL, maxit=80):
    """Safeguarded secant/bisection of f, batched over all brackets whose
    ends differ in sign bit.  f(x) returns the values and an array of
    per-point data stacked along its last axis; each bracket keeps the data
    of its last evaluation in `aux` (which holds each bracket's data to
    start).  Returns the roots, interpolated linearly across the final
    brackets, the bracket widths and `aux`."""
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
        fp[active], aux[..., active] = f(xp[active])
        left = active & ((fp < 0) == (fa < 0))
        right = active & ~left
        a, fa = np.where(left, xp, a), np.where(left, fp, fa)
        b, fb = np.where(right, xp, b), np.where(right, fp, fb)
        x0, f0, x1, f1 = x1, f1, xp, fp
    return a - fa * (b - a) / (fb - fa), b - a, aux


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
        F, scan = _characteristic_batch(problem, grid, mesh)
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
    first, scan_growth = lo[:K], scan[1]
    floor = (2 * n * np.finfo(float).eps / grid[first + 1] * np.exp(
        np.minimum(scan_growth[first], scan_growth[first + 1])))
    _check_resolved(floor, scan_growth[first])
    roots, widths, aux = _refine_roots(
        lambda z: _characteristic_batch(problem, z, mesh),
        grid[lo], grid[lo + 1], F[lo], F[lo + 1], scan[:, lo])

    # count sanity check against the growth model over the first scan window
    in_first = roots <= zmax
    predicted = theta * zmax / np.pi
    if abs(in_first.sum() - predicted) > n + 1:
        raise MissedRoot(
            f"root count {in_first.sum()} on [0, {zmax:.3g}] is inconsistent "
            f"with the expected {predicted:.1f} +- {n + 1}")

    roots, widths, lo, (dF, log_growth) = (roots[:K], widths[:K], lo[:K],
                                           aux[:, :K])
    # error bar in zeta: the fine-mesh root's shift from the extrapolated
    # one (F difference over the scan slope of F), the bracket width, and
    # rounding, which the growth G of the scaled solutions amplifies to
    # about eps * G (the equilibrated determinant's slope falls like 1/G);
    # dF and G come from each bracket's last evaluation, within its width
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


#: Krylov blocks the seeded doubled-grid solve may append
_KRYLOV_BLOCKS = 8


def nystrom_eigenvalues(kern, w, K, grid=None):
    """First K eigenvalues mu = 1/lambda of the weighted covariance operator.

    A weight `w` is applied with `apply_weight`; pass None when `kern` is
    unweighted or already carries its weight.  The kernel is sampled on a
    composite Gauss-Legendre grid (`grid`: a Grid, a node count, or None
    for the kernel's own grid), the diagonal panels are corrected for the
    |t-s| kink exactly, and the sqrt(quadrature-weight) similarity gives a
    symmetric matrix.  A dense solve on `grid` gives its top b = K + K//4
    + 8 eigenpairs.  Their eigenfunctions, interpolated panel-wise to the
    doubled grid, seed a block Krylov Rayleigh-Ritz solve there
    (`_ritz_top`, NonConvergence if it does not settle), and its top K
    Ritz values are returned; a Cholesky guard (`_guard`) proves that the
    seeded space missed no eigenvalue of the doubled grid above them.
    `err` is their relative gap to the solve on `grid`, and GridTooCoarse
    is raised when it exceeds 1e-4 or the guard fails.  theta_norm is the
    normalization integral of the kernel's weight (1 when unweighted).
    """
    g = kern.grid if grid is None else grid
    if isinstance(g, int):
        g = Grid.composite(g, kern.grid.order)
    if g.n < 8 * K:
        raise GridTooCoarse(f"grid size {g.n} < 8K = {8 * K}")
    if w is not None:
        kern = apply_weight(kern, w)

    b = min(K + K // 4 + 8, g.n)
    # S is symmetric, so its Fortran view S.T goes to LAPACK uncopied
    lam, V = eigh(_nystrom_matrix(kern, g).T, subset_by_index=(g.n - b,
                                                               g.n - 1),
                  driver="evr", overwrite_a=True, check_finite=False)
    lam = lam[::-1][:K]
    _check_above_noise(lam)
    fine = g.doubled()
    S = _nystrom_matrix(kern, fine)
    ritz, U = _ritz_top(S, _refine_seed(V, g, fine), K)
    lam_fine = ritz[:K]
    _check_above_noise(lam_fine)
    rel = np.abs(lam - lam_fine) / np.abs(lam_fine)
    if (rel > 1e-4).any():
        raise GridTooCoarse(
            f"grid-doubling moved an eigenvalue by {rel.max():.2e} relative "
            "(> 1e-4); increase the grid")
    _guard(S, ritz, U, K)  # consumes S
    theta = (1.0 if kern.weight is None
             else normalization_integral(kern.weight, kern.half_order))
    return SpectrumResult(mu=1.0 / lam_fine, method="nystrom", err=rel,
                          theta_norm=theta)


def _check_above_noise(lam):
    if not (lam > 0).all():  # NaN fails too
        raise GridTooCoarse(
            "requested eigenvalues reach the discretization noise floor "
            "(nonpositive Nystrom eigenvalue); increase the grid")


def _nystrom_matrix(kern, g):
    """The symmetric Nystrom matrix of `kern` on `g`: S = G(x_i, x_j)
    (sqrt(w_i) sqrt(w_j)) is as symmetric as the sample, and only the
    diagonal panel blocks, which the kink correction skews, are averaged."""
    values, odd = kern.evaluate_on(g)
    sw = np.sqrt(g.w)
    # C order, so that S.T is the Fortran view LAPACK and BLAS work in
    S = np.multiply.outer(sw, sw)
    S *= values
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


def _refine_seed(V, g, fine):
    """Orthonormal basis on the doubled grid `fine` from eigenvectors V of
    the Nystrom matrix on `g`: the eigenfunction samples V / sqrt(w) are
    interpolated from each panel to its two halves by the panel's Lagrange
    basis (exact to degree order - 1) and weighted by sqrt(w_fine)."""
    q = g.order
    xq, _ = _reference_rule(q)
    halves = np.concatenate((0.5 * xq, 0.5 + 0.5 * xq))
    T = np.stack([npoly.polyval(halves, c)
                  for c in _lagrange_coefficients(q)], axis=1)
    phi = (V / np.sqrt(g.w)[:, None]).reshape(g.panels, q, -1)
    seed = np.einsum("ij,pjk->pik", T, phi).reshape(fine.n, -1)
    seed *= np.sqrt(fine.w)[:, None]
    return qr(seed, mode="economic", overwrite_a=True, check_finite=False)[0]


def _ritz_top(S, Q, K, blocks=_KRYLOV_BLOCKS):
    """Top b Ritz pairs (theta descending, U) of symmetric S in the block
    Krylov space of the orthonormal n x b seed Q.

    Blocks S Q_j, orthogonalized twice against the basis, are appended
    until each of the top K Ritz pairs has an error bound
    min(|r|, |r|^2/gap) <= 8 eps theta_1, r its residual and gap the
    distance to the nearest Ritz value outside its cluster (neighbours
    closer than their residuals are one cluster, as are multiple
    eigenvalues), or until the basis spans the whole space, where
    Rayleigh-Ritz is the dense solve.  NonConvergence after `blocks`
    appended blocks.
    """
    n, b = Q.shape
    tol = 8 * np.finfo(float).eps
    # S is symmetric, so its Fortran view S.T goes to BLAS uncopied; the
    # basis is column-major, so its first m columns are contiguous and only
    # the pages it has reached are touched
    basis = np.empty((n, min(n, (blocks + 1) * b)), order="F")
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
            return theta[:b], U
        if m == basis.shape[1]:
            raise NonConvergence(
                f"the seeded doubled-grid solve did not resolve the top {K} "
                f"eigenvalues in {blocks} Krylov blocks")
        new = slice(m, min(m + b, basis.shape[1]))
        W = basis[:, new]
        W[:] = images[:, last][:, :W.shape[1]]
        for _ in range(2):
            blas.dgemm(-1.0, Qm, blas.dgemm(1.0, Qm, W, trans_a=True),
                       beta=1.0, c=W, overwrite_c=True)
        W[:] = qr(W, mode="economic", overwrite_a=True, check_finite=False)[0]
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
            f"the seeded doubled-grid solve missed an eigenvalue above "
            f"{sigma:.3e} (guard factorization failed at column {info}); "
            "increase the grid")


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
