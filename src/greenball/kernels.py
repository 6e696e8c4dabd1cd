"""Covariance calculus on the quadrature grid.

Base covariances for the catalog processes, and the transforms -- iterated
integration, centering, conditioning, weighting -- that realize derived
processes as dense kernel matrices for the Nystrom eigenvalue route and for
Monte Carlo sampling of the squared weighted norm.  One registry holds each
family's aliases and the boundary-value problem of its Green function, which
`catalog_problem` hands to the shooting and determinant routes.

A `Kernel` is lazy: it wraps a sampler mapping a composite Gauss-Legendre
grid to the kernel matrix on that grid together with the smooth coefficient
of its |t-s| component (``odd``) on the diagonal panel blocks, which hold the
derivative jump that quadrature integrates exactly there.  Nothing is
sampled at construction or kept afterwards: `Kernel.evaluate_on` samples
whatever grid is asked for -- the kernel's own (1024 nodes by default), or
the grids the Nystrom solve and its grid-doubling check pick.  A catalog
kernel, weighted or not, also carries generators privately: the columns
u, v with G(t, s) = u(t) . v(s) for t <= s, a Green function's
semiseparable form, which the Nystrom solve uses in place of the matrix.

Transforms pass the generators on: integration adds one column to each
side (up to half order 3), centering two (of a kernel of half order 1)
and conditioning on q functionals q, all computed from smooth columns on
the grid asked for, and columns a transform makes dependent are folded
into their partners.  The columns of u are integrated from 0 and those
of v from 1, so that their products stay of the kernel's size
(`_row_integrals`).  A transformed kernel with generators is sampled
from them, by one dgemm.  A kernel without them (a user's, a custom
Bogolyubov covariance, omega > 700, and the transforms past those limits)
composes by closure: integrating or centering it produces a new sampler
that re-runs the whole chain from the base formula on whatever grid is
requested.  The constructors validate their arguments eagerly.
Weighting is terminal -- every other transform refuses a weighted kernel,
which enforces the "weight applied last" rule at the API level.  Every
catalog sample is bitwise symmetric -- by construction, or by one in-place
`_symmetrize` after integrating or conditioning.

A sample belongs to whoever asked for it, so one n x n buffer carries it
through a chain: the base sampler (or the generators' dgemm) fills it, and
each transform -- and finally the Nystrom solve -- writes its result into
the sample it was handed, a row block or a panel at a time.  `evaluate_on`
alone fixes the layout: it hands on a writable C-ordered float array, and
copies a user sampler's read-only or Fortran-ordered one once.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from math import comb, factorial
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.linalg import blas, eigh, pinvh, qr, solve_triangular

from .errors import SingularConditioning, UnsupportedFamily
from .expr import constant, evaluate, parse_expression, scale
from .model import (BoundaryCondition as BC, BVProblem, OperatorSpec, Weight,
                    classify_boundary_conditions)
from .quadrature import Grid, integrate_cols, integrate_full, integrate_rows

DEFAULT_GRID = Grid.composite(1024, 8)

#: condition-number ceiling for the conditioning Gram matrix
CONDITION_LIMIT = 1e12
#: a generator column, sqrt(w)-weighted and of unit norm, is dropped when
#: its distance from the span of the columns kept before it is at most
#: this (`_fold`), and a term u_j v_j when it is at most this fraction of
#: the largest (`_significant`)
_DEPENDENT = 1e-12
#: side of the square tiles `_symmetrize` averages in place, and the height
#: of the row blocks in which the stages overwrite a sample
_TILE = 64


def _row_blocks(n):
    """Slices of the `_TILE`-row blocks of an n-row matrix."""
    return [slice(i, i + _TILE) for i in range(0, n, _TILE)]


def _tile_pairs(n):
    """Slices (a, b) of the tiles A[a, b] on and above the diagonal."""
    cuts = _row_blocks(n)
    return [(a, b) for k, a in enumerate(cuts) for b in cuts[k:]]


def _scale_outer(A, a):
    """A_ij <- (a_i a_j) A_ij in place, a row block at a time; return A.

    Each entry is one product with a_i a_j, as in outer(a, a) * A, so a
    symmetric A stays bitwise symmetric."""
    for r in _row_blocks(len(A)):
        A[r] *= np.multiply.outer(a[r], a)
    return A


def _symmetrize(A):
    """A <- (A + A^T)/2 in place and return A.

    A tile and its mirror are averaged at a time, so no second n x n array
    is allocated; the entries equal 0.5 * (A + A.T).
    """
    for a, b in _tile_pairs(len(A)):
        avg = 0.5 * (A[a, b] + A[b, a].T)
        A[a, b] = avg
        A[b, a] = avg.T
    return A


def _as_grid(grid):
    if grid is None:
        return DEFAULT_GRID
    if isinstance(grid, int):
        return Grid.composite(grid, 8)
    return grid


@dataclass(frozen=True, eq=False)
class Kernel:
    """Covariance G(t, s) of a mean-zero process, sampled on demand.

    ``sampler`` maps a Grid to (values, odd) with values[i, j] = G(x_i, x_j)
    and ``odd`` the smooth symmetric coefficient O in the decomposition
    G = S + O(t, s)|t - s| on the diagonal panel blocks, where the kink lies:
    shape (grid.panels, grid.order, grid.order), block p holding O(x_i, x_j)
    for the nodes of panel p (None when G is C^1 across the diagonal); the
    quadrature operators integrate the kink with exact panel moments.
    ``half_order`` is the n for which the associated differential operator
    has order 2n (it sets the Weyl tail rate of the spectrum).
    ``weight`` is the Weight applied by `apply_weight`, None before.
    ``symmetric`` marks a sampler whose values are symmetric by
    construction (the catalog bases and transforms).

    `evaluate_on` is the only sampling path.  The first sample of each
    kernel is checked to be finite and, unless ``symmetric`` is set,
    symmetric to 1e-14, tile by tile.

    Ownership: a sampler hands over the arrays it returns.  `evaluate_on`
    returns a fresh sample that the caller owns, with ``values`` a writable
    C-ordered float array -- the sampler's own when it already is one, else
    one copy of it -- which the transforms and the Nystrom solve overwrite
    in place.  A sampler that keeps its arrays returns them read-only.
    """

    grid: Grid
    label: str
    half_order: int
    sampler: Callable
    weight: object = None
    symmetric: bool = False

    @property
    def weighted(self):
        return self.weight is not None

    def evaluate_on(self, grid):
        """(values, odd) of this kernel sampled on `grid`, a fresh sample
        that the caller owns; ``values`` is writable and C-ordered."""
        values, odd = self.sampler(grid)
        v = np.require(values, float, "CW")
        if not getattr(self, "_checked", False):
            # max and min propagate NaN: a finite bound means a finite v
            bound = 1e-14 * (max(float(v.max()), -float(v.min())) or 1.0)
            if not np.isfinite(bound) or not np.isfinite(
                    0.0 if odd is None else odd).all():
                raise ValueError(f"kernel {self.label} has non-finite samples")
            if not self.symmetric and any(
                    np.abs(v[a, b] - v[b, a].T).max() > bound
                    for a, b in _tile_pairs(len(v))):
                raise ValueError("kernel matrix is not symmetric to 1e-14")
            object.__setattr__(self, "_checked", True)
        return v, odd

    def __repr__(self):  # the matrices are big; keep repr readable
        return (f"Kernel({self.label!r}, n={self.half_order}, "
                f"grid={self.grid.n}, weighted={self.weighted})")


# ---------------------------------------------------------------------------
# base families


def _panel_lags(g):
    """In-panel lags x_i - x_j, shape (panels, order, order)."""
    xb = g.x.reshape(g.panels, g.order)
    return xb[:, :, None] - xb[:, None, :]


def _panel_constant(g, c):
    """A kink coefficient that is the constant c on every panel block."""
    return np.full((g.panels, g.order, g.order), c)


def _lags(g):
    """|x_i - x_j| in one n x n array."""
    u = np.subtract.outer(g.x, g.x)
    return np.abs(u, out=u)


def _radial_split(g, f, diag_slope):
    """Sample f(|t-s|), f applied elementwise a row block at a time in the
    buffer of the lags, together with its kink coefficient (`_radial_odd`).
    """
    values = _lags(g)
    for r in _row_blocks(g.n):
        values[r] = f(values[r])
    return values, _radial_odd(g, f, diag_slope)


def _radial_odd(g, f, diag_slope):
    """The |t-s| kink coefficient (f(u) - f(-u)) / (2u) of f(|t-s|), f
    extended to signed lags, with the supplied limit on the diagonal."""
    u = _panel_lags(g)
    den = np.where(u == 0.0, 1.0, 2.0 * u)
    return np.where(u == 0.0, diag_slope, (f(u) - f(-u)) / den)


def _wiener_values(g):
    t = g.x
    return np.minimum.outer(t, t), _panel_constant(g, -0.5)


def _bridge_values(g):
    t = g.x
    values = np.minimum.outer(t, t)
    for r in _row_blocks(g.n):
        values[r] -= np.multiply.outer(t[r], t)
    return values, _panel_constant(g, -0.5)


def _ou_values(g):
    values = _lags(g)
    np.exp(np.negative(values, out=values), out=values)
    return values, _ou_odd(g)


def _ou_odd(g):
    u = _panel_lags(g)
    den = np.where(u == 0.0, 1.0, u)
    return np.where(u == 0.0, -1.0, -np.sinh(u) / den)


def _slepian_values(g):
    u = _lags(g)
    return np.subtract(1.0, u, out=u), _panel_constant(g, -1.0)


def _matern_sampler(n):
    # ((n-1)!/(2n-2)!) e^{-r} sum_k (n+k-1)!/(k!(n-k-1)!) (2r)^{n-k-1}
    c = factorial(n - 1) / factorial(2 * n - 2)
    coef = np.zeros(n)
    for k in range(n):
        coef[n - k - 1] = (factorial(n + k - 1)
                           / (factorial(k) * factorial(n - k - 1))
                           * 2.0 ** (n - k - 1))

    def f(r):  # c e^{-r} poly(r), Horner in place: two arrays of r's size
        out = np.full_like(r, coef[-1])
        for a in coef[-2::-1]:
            out *= r
            out += a
        e = np.negative(r)
        np.exp(e, out=e)
        e *= c
        return np.multiply(e, out, out=e)

    slope = c * ((coef[1] if n > 1 else 0.0) - coef[0])
    shifted = [[comb(i + j, j) * coef[i + j] for i in range(n - j)]
               for j in range(n)]

    def generators(g):  # poly(s - t) = sum_j s^j sum_i shifted[j][i] (-t)^i
        x, e = g.x, c * np.exp(g.x)
        return ([e * npoly.polyval(-x, a) for a in shifted],
                [np.exp(-x) * x ** j for j in range(n)],
                _radial_odd(g, f, slope))

    return (lambda g: _radial_split(g, f, slope)), generators


def _bogolyubov_sampler(omega, covariance):
    if covariance is None:
        raise UnsupportedFamily(
            "no covariance formula configured for the Bogolyubov family")
    if covariance == "default":
        # standard literature form; an external input, not derived here
        s = 2.0 * omega * np.sinh(omega / 2.0)

        def f(r):
            return np.cosh(omega * (r - 0.5)) / s

        def generators(g):  # two positive terms, normal doubles to omega 700
            x, e, m = g.x, np.exp(omega * g.x), np.exp(omega * (g.x - 0.5))
            return ((1.0 / e, e), (m / (2 * s), 1.0 / (2 * s * m)),
                    _radial_odd(g, f, -0.5))

        return ((lambda g: _radial_split(g, f, -0.5)),
                generators if omega <= 700 else None)
    if not isinstance(covariance, str):
        raise UnsupportedFamily(
            "Bogolyubov covariance must be 'default' or an expression in t "
            "(the signed lag)")
    tree = parse_expression(covariance)
    h = 1e-6
    f0, fp, fm = (evaluate(tree, u) for u in (0.0, h, -h))
    # a form even in the lag (written with abs) loses the kink coefficient,
    # its odd part; its one-sided slopes at 0 disagree
    right, left = (fp - f0) / h, (f0 - fm) / h
    if abs(right - left) > 1e-3 * max(abs(f0), abs(right), abs(left)):
        raise ValueError(
            f"Bogolyubov covariance {covariance!r} has one-sided slopes "
            f"{right:.6g} and {left:.6g} at lag 0; write it in the signed "
            "lag t, for example exp(-t) rather than exp(-abs(t))")
    slope = (fp - fm) / (2.0 * h)
    return lambda g: _radial_split(g, lambda r: evaluate(tree, r), slope), None


#: generators: the grid g -> (u, v, odd), u and v the columns (arrays on
#: the nodes, or constants) with G(t, s) = u(t) . v(s) for t <= s, odd the
#: kink coefficient
_GENERATORS = {
    "wiener": lambda g: ((g.x,), (1.0,), _panel_constant(g, -0.5)),
    "bridge": lambda g: ((g.x,), (1.0 - g.x,), _panel_constant(g, -0.5)),
    "ou": lambda g: ((np.exp(g.x),), (np.exp(-g.x),), _ou_odd(g)),
    "slepian": lambda g: ((1.0 + g.x, 1.0), (1.0, -g.x),
                          _panel_constant(g, -1.0)),
}


def _carrying(k, generators):
    """`k`, carrying `generators` (as in `_GENERATORS`, or None) privately
    for `_generators_on`; the transforms pass them on (`_derived`), and
    `dataclasses.replace` drops them."""
    object.__setattr__(k, "_generators", generators)
    return k


def _generators_on(k, g):
    """(u, v, odd) of `k` on the grid g, weighted where `k` is, or None."""
    generators = getattr(k, "_generators", None)
    return generators and generators(g)


def _columns(g, cols):
    """The columns `cols` (arrays on the nodes of g, or constants) as one
    fresh C-ordered (n, r) array."""
    return np.column_stack([np.broadcast_to(c, g.x.shape) for c in cols])


def _generator_sample(generators, g):
    """The sample of a kernel from its generators on g: one dgemm gives
    u(x_i) . v(x_j) for every i, j, and the tiles above the diagonal are
    mirrored below it, so the sample is bitwise symmetric."""
    u, v, odd = generators(g)
    values = blas.dgemm(1.0, _columns(g, v), _columns(g, u), trans_b=True).T
    for a, b in _tile_pairs(g.n):
        if a == b:
            lower = np.tril_indices(len(values[a, a]), -1)
            values[a, a][lower] = values[a, a].T[lower]
        else:
            values[b, a] = values[a, b].T
    return values, odd


def _fold(g, a, b):
    """(a, b) with each column of a that the others span up to rounding
    folded into the partner columns b: if the dropped a_d are a_kept C,
    then sum a_k b_k = a_kept . (b_kept + b_dropped C^T).  A pivoted QR of
    a's sqrt(w)-weighted unit columns picks the kept ones; when it keeps
    them all, a and b come back as they were."""
    A = _columns(g, a)
    # scaled by its largest entry first, as a column may pass 1e154
    norms = np.abs(A).max(axis=0)
    norms[norms == 0.0] = 1.0
    W = A * (np.sqrt(g.w)[:, None] / norms)
    unit = np.sqrt(np.einsum("ir,ir->r", W, W))
    unit[unit == 0.0] = 1.0
    norms *= unit
    R, piv = qr(W / unit, mode="r", pivoting=True)
    k = np.count_nonzero(np.abs(np.diag(R)) > _DEPENDENT * abs(R[0, 0]))
    if k == A.shape[1]:
        return a, b
    kept, dropped = piv[:k], piv[k:]
    C = solve_triangular(R[:k, :k], R[:k, k:])
    C *= norms[dropped] / norms[kept][:, None]
    B = _columns(g, b)
    B = B[:, kept] + np.einsum("id,kd->ik", B[:, dropped], C)
    return list(A[:, kept].T), list(B.T)


def _significant(g, u, v):
    """(u, v) without the terms u_j(t) v_j(s) that stay at most
    _DEPENDENT of the largest term on t <= s: rounding, such as the integral
    of a centred kernel's zero row integral, which `_fold` would take for
    a column of its own."""
    U, V = _columns(g, u), _columns(g, v)
    size = (np.maximum.accumulate(np.abs(U), axis=0) * np.abs(V)).max(axis=0)
    keep = size > _DEPENDENT * size.max()
    if keep.all():
        return u, v
    return list(U[:, keep].T), list(V[:, keep].T)


def _row_integrals(g, u, v):
    """(U_1, V_1, r) of the generators u, v on g: U_1 = int_0^t u,
    V_1 = -int_t^1 v and the row integral r(t) = int_0^1 G(t, s) ds =
    U_1(t) . v(t) - u(t) . V_1(t).  Each column is integrated over the side
    of t on which G uses it, so every product U_1(t) V_1(s), t <= s, stays
    of the kernel's size: a decaying v integrated from 0 (Bogolyubov's
    e^{-omega s}) would leave a constant that cancels against the growing
    U_1 ~ e^{omega t} to e^omega eps."""
    U, V = _columns(g, u), _columns(g, v)
    U1, V1 = integrate_rows(g, U.copy()), integrate_rows(g, V.copy(), lower=1)
    return U1, V1, np.einsum("ir,ir->i", U1, V) - np.einsum("ir,ir->i", U, V1)


def _derived(k, label, half_order, sample, step):
    """The kernel a transform makes of `k`, sampled by the closure `sample`
    of `k`'s samples -- or, when `k` carries generators and `step` is not
    None, with generators step(g, u, v, odd) of `k`'s and sampled from
    them.  Negligible terms are dropped (`_significant`), and the dependent
    columns of u are folded into v, then those of v into u (`_fold`),
    which keeps u's columns independent."""
    parent = step and getattr(k, "_generators", None)
    if parent is None:
        return Kernel(k.grid, label, half_order, sample, symmetric=True)

    def generators(g):
        u, v, odd = step(g, *parent(g))
        u, v = _fold(g, *_significant(g, u, v))
        v, u = _fold(g, v, u)
        return u, v, odd

    return _carrying(Kernel(k.grid, label, half_order,
                            partial(_generator_sample, generators),
                            symmetric=True), generators)


#: canonical family -> (aliases, boundary-value problem or None).  A problem
#: is (p_0 as a function of the spec, boundary conditions, weight factor) for
#: -v'' + p_0 v = mu (factor psi) v, the classical identifications that
#: `eigs` and `validate` check against the kernels:
#:   wiener      -v'' = mu psi v,        v(0) = v'(1) = 0
#:   bridge      -v'' = mu psi v,        v(0) = v(1) = 0
#:   ou          -v''+v = mu (2 psi) v,  v'(0)=v(0), v'(1)=-v(1)
#:   slepian     -v'' = mu (2 psi) v,    v'(0)+v'(1)=0, v(0)+v(1)-v'(0)=0
#:   bogolyubov  -v''+omega^2 v = mu psi v, periodic
#: The periodic problem cannot be shot: at its double eigenvalues the
#: characteristic determinant touches zero without a sign change.
_FAMILIES = {
    "wiener": (("brownian", "brownianmotion"),
               (lambda spec: 0.0, (BC(0, 1, 0), BC(1, 0, 1)), 1)),
    "bridge": (("brownianbridge",),
               (lambda spec: 0.0, (BC(0, 1, 0), BC(0, 0, 1)), 1)),
    "ou": (("ornsteinuhlenbeck",),
           (lambda spec: 1.0, (BC(1, 1, 0, alpha_lower=(-1.0,)),
                               BC(1, 0, 1, gamma_lower=(1.0,))), 2)),
    "slepian": ((), (lambda spec: 0.0,
                     (BC(1, 1, 1), BC(1, -1, 0, alpha_lower=(1.0,),
                                      gamma_lower=(1.0,))), 2)),
    "matern": ((), None),
    "bogolyubov": ((), (lambda spec: spec.omega * spec.omega,
                        (BC(0, 1, -1), BC(1, 1, -1)), 1)),
    "ciw": (("conditionalintegratedwiener",), None),
}
_ALIASES = {alias: fam for fam, (aliases, _) in _FAMILIES.items()
            for alias in (fam, *aliases)}


def _canonical_family(name):
    key = "".join(ch for ch in str(name).lower() if ch.isalnum())
    if key not in _ALIASES:
        raise UnsupportedFamily(f"unknown process family {name!r}")
    return _ALIASES[key]


def _family_list(problem=False, shooting=False):
    """Family names in registry order, comma-separated: all of them, those
    with a boundary-value problem (problem=True), or those whose problem is
    not periodic and so can be shot (shooting=True)."""
    def keep(bvp):
        if bvp is None:
            return not (problem or shooting)
        return not shooting or \
            classify_boundary_conditions(bvp[1]).tag != "periodic"
    return ", ".join(fam for fam, (_, bvp) in _FAMILIES.items() if keep(bvp))


def base_kernel(family, params=None, grid=None):
    """Covariance kernel of a base catalog process.

    family: Wiener | Bridge | OrnsteinUhlenbeck | Slepian | Matern |
    Bogolyubov (case/punctuation-insensitive).  params supplies the family
    parameters: {"n": order} for Matern, {"omega": w, "covariance": ...} for
    Bogolyubov.  The Bogolyubov covariance defaults to the literature form
    cosh(omega(|t-s|-1/2)) / (2 omega sinh(omega/2)), an external input;
    pass covariance=None to disable it (raises UnsupportedFamily) or an
    expression in the signed lag t to replace it; the expression is
    evaluated checked (`expr.evaluate`), so one that leaves its domain
    raises EvaluationDomainError.
    """
    fam = _canonical_family(family)
    params = dict(params or {})
    g = _as_grid(grid)
    if fam == "ciw":
        raise UnsupportedFamily(
            "the conditional integrated Wiener process is a derived kernel; "
            "use build_process")
    if fam == "matern":
        n = int(params.pop("n"))
        if n < 1:
            raise ValueError("Matern order n must be >= 1")
        sampler, generators = _matern_sampler(n)
        label, half = f"matern({n})", n
    elif fam == "bogolyubov":
        omega = float(params.pop("omega"))
        if not omega > 0:
            raise ValueError("Bogolyubov omega must be positive")
        cov = params.pop("covariance", "default")
        sampler, generators = _bogolyubov_sampler(omega, cov)
        label, half = f"bogolyubov({omega:g})", 1
    else:
        sampler = {"wiener": _wiener_values, "bridge": _bridge_values,
                   "ou": _ou_values, "slepian": _slepian_values}[fam]
        generators = _GENERATORS[fam]
        label, half = {"ou": "ornstein-uhlenbeck"}.get(fam, fam), 1
    if params:
        raise ValueError(f"unused parameters for family {fam}: "
                         f"{sorted(params)}")
    return _carrying(Kernel(g, label, half, sampler, symmetric=True),
                     generators)


# ---------------------------------------------------------------------------
# transforms


def _require_unweighted(k, op):
    if k.weight is not None:
        raise ValueError(
            f"{op} cannot follow apply_weight; the weight is applied last")


def integrate_kernel(k, beta):
    """Kernel of the integrated process t -> (-1)^beta int_beta^t X.

    The sign cancels in the covariance, so the result is
    K'(t, s) = int_beta^t int_beta^s K(u, v) dv du for beta = 0 or 1.
    Iterated integrals are C^1 across the diagonal, hence odd = None.
    Without generators both integrations and the symmetrization overwrite
    the sample of `k`.  With them, and U_1, V_1 and the row integral r of
    `_row_integrals`, the result has generators (U_1, R), (V_1, 1) for
    beta = 0, R = int_0^t r, and (U_1, 1), (V_1, -R) for beta = 1,
    R = -int_t^1 r -- any antiderivatives of u and v would do, and these
    keep every product of the kernel's size -- up to half order 3.
    Beyond it the closure is kept: three-fold integrated bridges and
    Wiener processes, with columns integrated from beta, miscounted at up
    to 5 of 38 midpoints on 2048 nodes (sigma near 1e-11 lambda_1); with
    these columns they matched, but on those two chains only.
    """
    if beta not in (0, 1):
        raise ValueError("beta must be 0 or 1")
    _require_unweighted(k, "integrate_kernel")

    def sample(g):
        v, o = k.evaluate_on(g)
        A = integrate_rows(g, v, o, lower=beta)
        # the second integral runs along A's contiguous rows
        return _symmetrize(integrate_cols(g, A, lower=beta)), None

    def step(g, u, v, odd):
        U1, V1, r = _row_integrals(g, u, v)
        R = integrate_rows(g, r[:, None], lower=beta)[:, 0]
        u, v = list(U1.T), list(V1.T)
        return ((u + [R], v + [1.0]) if beta == 0
                else (u + [1.0], v + [-R])) + (None,)

    return _derived(k, f"int[{beta}]({k.label})", k.half_order + 1, sample,
                    step if k.half_order < 3 else None)


def center_kernel(k):
    """Kernel of the centered process X - int_0^1 X.

    K'(t,s) = K(t,s) - r(t) - r(s) + c with r(t) = int K(t,u) du and
    c = int int K; the result annihilates constants, and the |t-s| kink
    coefficient is untouched (only smooth rank-one terms are subtracted).
    Without generators the subtraction overwrites the sample of `k`, a row
    block at a time.  With them, r is that of `_row_integrals` and the
    result has generators (u, c/2 - r, 1), (v, 1, c/2 - r) -- for a kernel
    of half order 1 only.  The constant
    columns lie in the null space of the centred kernel, so the eigenvalue
    count's carry grows like 1/sigma along them, and at the depths the
    faster-decaying spectra reach (sigma below 1e-8 lambda_1) its rounding
    passed sigma: centred Matern(2) miscounted at up to 59 of 119
    midpoints on 2048 nodes, and integrated then centred OU and Wiener
    processes at up to 7 and 9.  Those keep the closure.
    """
    _require_unweighted(k, "center_kernel")

    def sample(g):
        v, o = k.evaluate_on(g)
        r = integrate_full(g, v, o)
        # (r_i - c/2) + (r_j - c/2) is bitwise symmetric, so v minus it is
        s = r - 0.5 * g.integrate(r)
        for rows in _row_blocks(g.n):
            v[rows] -= np.add.outer(s[rows], s)
        return v, o

    def step(g, u, v, odd):
        r = _row_integrals(g, u, v)[2]
        q = 0.5 * g.integrate(r) - r
        return [*u, q, 1.0], [*v, 1.0, q], odd

    return _derived(k, f"center({k.label})", k.half_order, sample,
                    step if k.half_order == 1 else None)


def condition_kernel(k, cross, gram):
    """Condition on linear functionals Z being zero.

    cross: callable mapping a node array t (shape (N,)) to the (N, q)
    matrix of cross-covariances Cov(X(t_i), Z_j); gram: the (q, q)
    covariance matrix of Z.  Returns the kernel of (X | Z = 0),
    K'(t,s) = K(t,s) - c(t)^T Sigma^+ c(s), via a symmetric pseudo-solve;
    without generators one dgemm subtracts the rank-q term from the sample
    of `k` in place, and with them it adds the columns -c Sigma^+ to u and
    c to v.
    """
    _require_unweighted(k, "condition_kernel")
    S = np.atleast_2d(np.asarray(gram, dtype=float))
    S = 0.5 * (S + S.T)
    if S.shape[0] != S.shape[1]:
        raise ValueError("gram matrix must be square")
    # S is symmetric: its condition number is a ratio of |eigenvalues|
    ev = (np.abs(eigh(S, eigvals_only=True)) if np.isfinite(S).all()
          else np.zeros(1))
    cond = ev.max() / ev.min() if ev.min() > 0 else np.inf
    if cond > CONDITION_LIMIT:
        raise SingularConditioning(
            f"conditioning Gram matrix has condition number {cond:.3e} "
            f"(limit {CONDITION_LIMIT:g})")
    P = pinvh(S)

    def cross_on(g):
        C = np.asarray(cross(g.x), dtype=float)
        if C.ndim == 1:
            C = C[:, None]
        if C.shape != (g.n, S.shape[0]):
            raise ValueError(
                f"cross-covariance shape {C.shape} does not match "
                f"{(g.n, S.shape[0])}")
        return C

    def sample(g):
        v, o = k.evaluate_on(g)
        C = cross_on(g)
        # v -= C P C^T, written as v^T -= C (C P)^T in v's Fortran view:
        # one dgemm that writes into v
        blas.dgemm(-1.0, C, np.einsum("ik,kl->il", C, P), 1.0, v.T,
                   trans_b=True, overwrite_c=True)
        return _symmetrize(v), o

    def step(g, u, v, odd):
        C = cross_on(g)
        return ([*u, *(-np.einsum("ik,kl->il", C, P)).T], [*v, *C.T], odd)

    return _derived(k, f"cond[{S.shape[0]}]({k.label})", k.half_order,
                    sample, step)


def apply_weight(k, w):
    """Multiply by sqrt(psi(t) psi(s)); terminal transform.

    The weighted kernel is what the squared-psi-norm quadratic form and the
    Nystrom matrix are built from; it records `w` as its ``weight``.  No
    further transform accepts it.  The sample of `k` is scaled in place.
    """
    if k.weight is not None:
        raise ValueError("kernel is already weighted; apply_weight is "
                         "terminal and cannot be repeated")

    def weigh(g, o):  # sqrt(psi) on the nodes, and o scaled by it
        half = np.sqrt(np.asarray(w(g.x), dtype=float))
        if o is not None:
            hb = half.reshape(g.panels, g.order)
            o = o * (hb[:, :, None] * hb[:, None, :])
        return half, o

    def sample(g):
        v, o = k.evaluate_on(g)
        half, o = weigh(g, o)
        return _scale_outer(v, half), o

    def generators(g):
        u, v, o = _generators_on(k, g)
        half, o = weigh(g, o)
        return [c * half for c in u], [c * half for c in v], o

    return _carrying(Kernel(k.grid, f"weight[{w.text}]({k.label})",
                            k.half_order, sample, weight=w, symmetric=True),
                     getattr(k, "_generators", None) and generators)


# ---------------------------------------------------------------------------
# process construction


@dataclass(frozen=True)
class ProcessSpec:
    """A catalog process: a base family plus a transform chain.

    Applied in order: ``centerings`` repetitions of [center, integrate from
    0] -- the recursion that builds the multiply centered-integrated bridge
    -- then ``m`` integrations with lower limits ``betas`` (each 0 or 1,
    the X_m^{[beta_1..beta_m]} construction), then an optional final
    centering.  Family parameters: ``level`` for the conditional integrated
    Wiener process, ``n`` for Matern, ``omega`` for Bogolyubov.
    """

    family: str
    m: int = 0
    betas: tuple = ()
    centerings: int = 0
    center_final: bool = False
    level: int = None
    n: int = None
    omega: float = None

    def __post_init__(self):
        object.__setattr__(self, "betas",
                           tuple(int(b) for b in self.betas))
        fam = _canonical_family(self.family)
        if len(self.betas) != self.m:
            raise ValueError("betas must have length m")
        if any(b not in (0, 1) for b in self.betas):
            raise ValueError("each beta must be 0 or 1")
        if self.m < 0 or self.centerings < 0:
            raise ValueError("m and centerings must be nonnegative")
        if fam == "matern" and (self.n is None or self.n < 1):
            raise ValueError("Matern requires n >= 1")
        if fam == "bogolyubov" and (self.omega is None or not self.omega > 0):
            raise ValueError("Bogolyubov requires omega > 0")
        if fam == "ciw" and (self.level is None or self.level < 0):
            raise ValueError("conditional integrated Wiener requires "
                             "level >= 0")


def _ciw_cross(m):
    """Cross-covariances of the m-times integrated Wiener W_m(t) with the
    functionals W_j(1), j = 0..m.

    From W_m(t) = int_0^t (t-u)^m/m! dW(u):
    Cov(W_m(t), W_j(1)) = (1/(m! j!)) int_0^t (t-u)^m (1-u)^j du, expanded
    binomially in (1-u) = (1-t) + (t-u).
    """

    def cross(x):
        x = np.asarray(x, dtype=float)
        out = np.empty((x.size, m + 1))
        for j in range(m + 1):
            acc = np.zeros_like(x)
            for r in range(j + 1):
                acc += (comb(j, r) * (1.0 - x) ** (j - r)
                        * x ** (m + r + 1) / (m + r + 1))
            out[:, j] = acc / (factorial(m) * factorial(j))
        return out

    return cross


def _ciw_gram(m):
    """Gram matrix Cov(W_j(1), W_k(1)) = 1/((j+k+1) j! k!)."""
    j = np.arange(m + 1)
    return 1.0 / ((j[:, None] + j[None, :] + 1.0)
                  * np.array([factorial(v) for v in j])[:, None]
                  * np.array([factorial(v) for v in j])[None, :])


def _conditional_integrated_wiener(level, g):
    k = base_kernel("wiener", grid=g)
    for _ in range(level):
        k = integrate_kernel(k, 0)
    k = condition_kernel(k, _ciw_cross(level), _ciw_gram(level))
    return _carrying(dataclasses.replace(
        k, label=f"conditional-integrated-wiener({level})"),
        getattr(k, "_generators", None))


def build_process(spec, grid=None):
    """Kernel of the process described by a ProcessSpec (lazy: nothing is
    sampled until `Kernel.evaluate_on` is called)."""
    g = _as_grid(grid)
    fam = _canonical_family(spec.family)
    if fam == "ciw":
        k = _conditional_integrated_wiener(spec.level, g)
    elif fam == "matern":
        k = base_kernel(fam, {"n": spec.n}, g)
    elif fam == "bogolyubov":
        k = base_kernel(fam, {"omega": spec.omega}, g)
    else:
        k = base_kernel(fam, grid=g)
    for _ in range(spec.centerings):
        k = integrate_kernel(center_kernel(k), 0)
    for b in spec.betas:
        k = integrate_kernel(k, b)
    if spec.center_final:
        k = center_kernel(k)
    return k


def catalog_problem(spec, psi=None):
    """BVProblem whose eigenvalues are the reciprocals of the covariance
    eigenvalues of `spec` in the psi-weighted norm (psi a Weight, None for
    psi = 1), or None for Matern, ciw and every transform chain.  psi is
    scaled by the family's weight factor (2 for OU and Slepian), exactly."""
    bvp = _FAMILIES[_canonical_family(spec.family)][1]
    if bvp is None or spec.m or spec.centerings or spec.center_final:
        return None
    p0, bcs, factor = bvp
    tree = constant(1.0) if psi is None else psi.expr
    return BVProblem(OperatorSpec(1, (p0(spec),)), bcs,
                     Weight.from_tree(scale(tree, factor)),
                     normalized_system=True)
