"""Composite Gauss-Legendre grids and kink-aware quadrature operators.

All sampling in the library happens on a composite Gauss-Legendre grid of
`panels` uniform panels with `order` nodes each.  Smooth integrands are
integrated to machine precision.  Covariance kernels carry a |t-s| component
whose derivative jump sits on the diagonal; plain panel quadrature then stalls
at O(h^2).  The operators below restore full accuracy by using exact panel
moments of l_j(x)*|x - x_k| for the kink component (the kink always lies at a
grid node, so the moments are precomputable per panel shape).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.linalg import blas

#: rows of an n x n matrix that `integrate_cols` transforms per dgemm
_ROWS = 32


@dataclass(eq=False, frozen=True)
class Grid:
    """Composite Gauss-Legendre quadrature grid on [0,1]."""

    panels: int
    order: int
    x: np.ndarray
    w: np.ndarray

    @classmethod
    def composite(cls, nodes, order=8):
        """Grid with `nodes` total points (panels = nodes/order)."""
        if nodes <= 0 or nodes % order:
            raise ValueError("nodes must be a positive multiple of the panel "
                             "order")
        panels = nodes // order
        xq, wq = _reference_rule(order)
        h = 1.0 / panels
        starts = np.arange(panels) * h
        x = (starts[:, None] + h * xq[None, :]).ravel()
        w = np.tile(h * wq, panels)
        return cls(panels, order, x, w)

    @property
    def n(self):
        return self.panels * self.order

    @property
    def h(self):
        return 1.0 / self.panels

    def integrate(self, values):
        """Quadrature of values sampled at the grid nodes."""
        return float(self.w @ np.asarray(values))

    def doubled(self):
        """Same rule at twice the panel count."""
        return Grid.composite(self.n * 2, self.order)


@lru_cache(maxsize=None)
def _reference_rule(order):
    x, w = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=None)
def _lagrange_coefficients(order):
    """Coefficient arrays (ascending powers) of the Lagrange basis on the
    reference nodes."""
    xq, _ = _reference_rule(order)
    out = []
    for j in range(order):
        c = np.array([1.0])
        for m in range(order):
            if m != j:
                c = npoly.polymul(c, np.array([-xq[m], 1.0])) / (xq[j] - xq[m])
        out.append(c)
    return out


@lru_cache(maxsize=None)
def _partial_weights(order):
    """Q[i,j] = integral of l_j over [0, x_i] on the reference panel."""
    xq, _ = _reference_rule(order)
    Q = np.empty((order, order))
    for j, c in enumerate(_lagrange_coefficients(order)):
        ci = npoly.polyint(c)
        Q[:, j] = npoly.polyval(xq, ci)
    Q.setflags(write=False)
    return Q


@lru_cache(maxsize=None)
def _panel_rule(order):
    """The partial weights Q of the reference panel with its full weights
    appended as a last row, (order + 1) x order: one product with a panel's
    samples gives its partial integrals and its total."""
    W = np.vstack((_partial_weights(order), _reference_rule(order)[1]))
    W.setflags(write=False)
    return W


def _kink_integral(c, a, upper):
    """Exact integral of poly(c)(x)*|x - a| over [0, upper] (a in [0,1])."""
    lo = npoly.polymul(c, np.array([a, -1.0]))   # poly * (a - x)
    hi = npoly.polymul(c, np.array([-a, 1.0]))   # poly * (x - a)
    lo_i = npoly.polyint(lo)
    hi_i = npoly.polyint(hi)
    if upper <= a:
        return npoly.polyval(upper, lo_i) - npoly.polyval(0.0, lo_i)
    below = npoly.polyval(a, lo_i) - npoly.polyval(0.0, lo_i)
    above = npoly.polyval(upper, hi_i) - npoly.polyval(a, hi_i)
    return below + above


@lru_cache(maxsize=None)
def _kink_full_moments(order):
    """MD[k,j]: exact-minus-naive full-panel quadrature of l_j(x)|x - x_k|."""
    xq, wq = _reference_rule(order)
    cs = _lagrange_coefficients(order)
    M = np.empty((order, order))
    for k in range(order):
        for j in range(order):
            M[k, j] = _kink_integral(cs[j], xq[k], 1.0)
    MD = M - wq[None, :] * np.abs(xq[:, None] - xq[None, :])
    MD.setflags(write=False)
    return MD


@lru_cache(maxsize=None)
def _kink_partial_moments(order):
    """MDp[i,k,j]: exact-minus-naive quadrature of l_j(x)|x - x_k| over
    [0, x_i] on the reference panel."""
    xq, _ = _reference_rule(order)
    cs = _lagrange_coefficients(order)
    Q = _partial_weights(order)
    MDp = np.empty((order, order, order))
    for i in range(order):
        for k in range(order):
            for j in range(order):
                MDp[i, k, j] = (_kink_integral(cs[j], xq[k], xq[i])
                                - Q[i, j] * abs(xq[j] - xq[k]))
    MDp.setflags(write=False)
    return MDp


def _kink_totals(grid, odd):
    """Exact-minus-naive panel totals of the |t-s| kink, (panels, order)."""
    return (np.einsum("pmj,jm->pj", odd, _kink_full_moments(grid.order))
            * grid.h ** 2)


def integrate_full(grid, values, odd=None):
    """Full integrals of a two-argument function over its first argument.

    Returns the vector r with r[j] ~ integral over u in [0,1] of K(u, x_j),
    with the same kink handling as `integrate_rows` when `odd` is given.
    """
    full = blas.dgemv(1.0, np.asarray(values, dtype=float).T, grid.w)
    if odd is not None:
        full = full + _kink_totals(grid, odd).ravel()
    return full


def integrate_rows(grid, values, odd=None, lower=0):
    """Row-cumulative integration of a two-argument function on the grid,
    in place.

    Returns J with J[i, j] ~ integral over u in [lower, x_i] of K(u, x_j),
    where K is `values` sampled at grid x grid (any number of columns).  If
    `odd` is given, K is understood as smooth + odd(u,s)*|u - s|, with odd
    of shape (panels, order, order) holding the coefficient on the diagonal
    panel blocks, and the |u - s| kink (at the node u = x_j) is integrated
    with exact panel moments.

    `lower` is 0 or 1; lower = 1 yields the signed integral from 1.

    J overwrites `values` when that is a writable C-ordered float array and
    is built in one copy of it otherwise.  Panel by panel (from the last
    one when lower = 1), one dgemm of the panel's rows against its partial
    weights, with the full weights as an extra row, gives its partial
    integrals and its total; the totals of the panels already passed are
    carried in one row vector.
    """
    q, P = grid.order, grid.panels
    J = np.require(values, float, "CW")
    blocks = J.reshape(P, q, -1)
    # T = B^T W^T (Fortran order) for a panel's rows B: T.T = W B is
    # C-ordered like B
    Wt = (grid.h * _panel_rule(q)).T
    T = np.empty((blocks.shape[2], q + 1), order="F")
    run = np.zeros(blocks.shape[2])
    if odd is not None:
        # the kink of column s lies in the panel holding s: exact moments
        # correct that panel's partial integrals and its total (MDp axes:
        # row upper-limit node, kink node, basis node)
        kink = np.einsum("pmj,ijm->pij", odd,
                         _kink_partial_moments(q)) * grid.h ** 2
        totals = _kink_totals(grid, odd)
    for p in (range(P - 1, -1, -1) if lower else range(P)):
        R = blas.dgemm(1.0, blocks[p].T, Wt, c=T, overwrite_c=True).T
        if odd is not None:
            cols = slice(p * q, (p + 1) * q)
            R[:q, cols] += kink[p]
            R[q, cols] += totals[p]
        if lower:  # from 1: minus this panel's and the later panels' totals
            run += R[q]
            np.subtract(R[:q], run, out=blocks[p])
        else:
            np.add(R[:q], run, out=blocks[p])
            run += R[q]
    return J


def integrate_cols(grid, values, lower=0):
    """`integrate_rows` of values.T for K smooth across the diagonal, in
    place: J[i, j] ~ integral over u in [lower, x_j] of K(x_i, u).

    J overwrites `values` when that is a writable C-ordered float array and
    is built in one copy of it otherwise.  A block of rows at a time, one
    dgemm on their contiguous panel segments (q nodes each) gives every
    segment's partial integrals and, in the extra row, its total."""
    q, P = grid.order, grid.panels
    J = np.require(values, float, "CW")
    Wt = (grid.h * _panel_rule(q)).T
    # column k of T holds node k's partial integrals of every segment (the
    # totals in column q), so each write below runs over a whole block
    T = np.empty((_ROWS * P, q + 1), order="F")
    for rows in range(0, len(J), _ROWS):
        X = J[rows:rows + _ROWS].reshape(-1, q)
        Y = blas.dgemm(1.0, X.T, Wt, trans_a=True, c=T[:len(X)],
                       overwrite_c=True)
        ahead = np.zeros((P + 1, len(X) // P))
        ahead[1:] = Y[:, q].reshape(-1, P).T
        starts = _panel_starts(ahead, lower).T.ravel()
        for k in range(q):
            np.add(Y[:, k], starts, out=X[:, k])
    return J


def _panel_starts(ahead, lower):
    """Integrals from `lower` to each panel's start, in place: ``ahead``
    holds zeros in row 0 and the P panel totals below; returns ahead[:-1]."""
    np.cumsum(ahead, axis=0, out=ahead)
    ahead -= lower * ahead[-1]
    return ahead[:-1]
