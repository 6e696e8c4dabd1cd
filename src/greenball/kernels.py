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
sampled at construction; the matrices on the kernel's own grid (1024 nodes
by default) are computed on first access and cached, and any other grid --
the Nystrom solve and its grid-doubling check pick their own -- is sampled
on demand.

Transforms compose by closure: integrating or centering a kernel produces a
new sampler that re-runs the whole chain from the base formula on whatever
grid is requested.  The constructors validate their arguments eagerly.
Weighting is terminal -- every other transform refuses a weighted kernel,
which enforces the "weight applied last" rule at the API level.  Every
catalog sample is bitwise symmetric -- by construction, or by one in-place
`_symmetrize` after integrating or conditioning.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from math import comb, factorial
from typing import Callable

import numpy as np
from scipy.linalg import blas, eigh, pinvh

from .errors import SingularConditioning, UnsupportedFamily
from .expr import compile_callable, constant, parse_expression, scale
from .model import (BoundaryCondition as BC, BVProblem, OperatorSpec, Weight,
                    classify_boundary_conditions)
from .quadrature import Grid, integrate_cols, integrate_full, integrate_rows

DEFAULT_GRID = Grid.composite(1024, 8)

#: condition-number ceiling for the conditioning Gram matrix
CONDITION_LIMIT = 1e12
#: side of the square tiles `_symmetrize` averages in place
_TILE = 64


def _tile_pairs(n):
    """Slices (a, b) of the tiles A[a, b] on and above the diagonal."""
    cuts = [slice(i, i + _TILE) for i in range(0, n, _TILE)]
    return [(a, b) for k, a in enumerate(cuts) for b in cuts[k:]]


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

    `evaluate_on` is the only sampling path; ``values`` and ``odd`` are the
    sample on ``grid``, computed on first access and cached.  The first
    sample of each kernel is checked to be finite and symmetric.
    """

    grid: Grid
    label: str
    half_order: int
    sampler: Callable
    weight: object = None

    @property
    def weighted(self):
        return self.weight is not None

    @property
    def values(self):
        return self.evaluate_on(self.grid)[0]

    @property
    def odd(self):
        return self.evaluate_on(self.grid)[1]

    def evaluate_on(self, grid):
        """(values, odd) of this kernel sampled on `grid`."""
        own = getattr(self, "_own", None)
        if grid is self.grid and own is not None:
            return own
        values, odd = self.sampler(grid)
        if not getattr(self, "_symmetric", False):
            v = np.asarray(values, dtype=float)
            # max and min propagate NaN: a finite bound means a finite v
            bound = 1e-14 * (max(float(v.max()), -float(v.min())) or 1.0)
            if not np.isfinite(bound) or not np.isfinite(
                    0.0 if odd is None else odd).all():
                raise ValueError(f"kernel {self.label} has non-finite samples")
            if any(np.abs(v[a, b] - v[b, a].T).max() > bound
                   for a, b in _tile_pairs(len(v))):
                raise ValueError("kernel matrix is not symmetric to 1e-14")
            object.__setattr__(self, "_symmetric", True)
        if grid is self.grid:
            object.__setattr__(self, "_own", (values, odd))
        return values, odd

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


def _radial_split(g, f, diag_slope):
    """Sample f(|t-s|) together with its |t-s| kink coefficient.

    f must accept signed arguments (analytic extension of the radial
    profile); the coefficient is (f(u) - f(-u)) / (2u) with the supplied
    limit on the diagonal.
    """
    values = f(np.abs(g.x[:, None] - g.x[None, :]))
    u = _panel_lags(g)
    den = np.where(u == 0.0, 1.0, 2.0 * u)
    odd = np.where(u == 0.0, diag_slope, (f(u) - f(-u)) / den)
    return values, odd


def _wiener_values(g):
    t = g.x
    return np.minimum.outer(t, t), _panel_constant(g, -0.5)


def _bridge_values(g):
    t = g.x
    return np.minimum.outer(t, t) - np.outer(t, t), _panel_constant(g, -0.5)


def _ou_values(g):
    values = np.exp(-np.abs(g.x[:, None] - g.x[None, :]))
    u = _panel_lags(g)
    den = np.where(u == 0.0, 1.0, u)
    odd = np.where(u == 0.0, -1.0, -np.sinh(u) / den)
    return values, odd


def _slepian_values(g):
    u = np.abs(g.x[:, None] - g.x[None, :])
    return 1.0 - u, _panel_constant(g, -1.0)


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
    return lambda g: _radial_split(g, f, slope)


def _bogolyubov_sampler(omega, covariance):
    if covariance is None:
        raise UnsupportedFamily(
            "no covariance formula configured for the Bogolyubov family")
    if covariance == "default":
        # standard literature form; an external input, not derived here
        s = 2.0 * omega * np.sinh(omega / 2.0)

        def f(r):
            return np.cosh(omega * (r - 0.5)) / s

        return lambda g: _radial_split(g, f, -0.5)
    if isinstance(covariance, str):
        fn = compile_callable(parse_expression(covariance))
    elif callable(covariance):
        fn = covariance
    else:
        raise UnsupportedFamily(
            "Bogolyubov covariance must be 'default', an expression in t "
            "(the signed lag), or a callable")
    h = 1e-6
    f0, fp, fm = (float(fn(u)) for u in (0.0, h, -h))
    # a form even in the lag (written with abs) loses the kink coefficient,
    # its odd part; its one-sided slopes at 0 disagree
    right, left = (fp - f0) / h, (f0 - fm) / h
    if abs(right - left) > 1e-3 * max(abs(f0), abs(right), abs(left)):
        raise ValueError(
            f"Bogolyubov covariance {covariance!r} has one-sided slopes "
            f"{right:.6g} and {left:.6g} at lag 0; write it in the signed "
            "lag t, for example exp(-t) rather than exp(-abs(t))")
    slope = (fp - fm) / (2.0 * h)
    return lambda g: _radial_split(
        g, lambda r: np.asarray(fn(r), dtype=float), slope)


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
    expression/callable in the signed lag to replace it.
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
        sampler, label, half = _matern_sampler(n), f"matern({n})", n
    elif fam == "bogolyubov":
        omega = float(params.pop("omega"))
        if not omega > 0:
            raise ValueError("Bogolyubov omega must be positive")
        cov = params.pop("covariance", "default")
        sampler = _bogolyubov_sampler(omega, cov)
        label, half = f"bogolyubov({omega:g})", 1
    else:
        sampler = {"wiener": _wiener_values, "bridge": _bridge_values,
                   "ou": _ou_values, "slepian": _slepian_values}[fam]
        label, half = {"ou": "ornstein-uhlenbeck"}.get(fam, fam), 1
    if params:
        raise ValueError(f"unused parameters for family {fam}: "
                         f"{sorted(params)}")
    return Kernel(g, label, half, sampler)


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
    """
    if beta not in (0, 1):
        raise ValueError("beta must be 0 or 1")
    _require_unweighted(k, "integrate_kernel")

    def sample(g):
        v, o = k.evaluate_on(g)
        A = integrate_rows(g, v, o, lower=beta)
        del v, o
        # the second integral runs along A's contiguous rows
        return _symmetrize(integrate_cols(g, A, lower=beta)), None

    return Kernel(k.grid, f"int[{beta}]({k.label})", k.half_order + 1, sample)


def center_kernel(k):
    """Kernel of the centered process X - int_0^1 X.

    K'(t,s) = K(t,s) - r(t) - r(s) + c with r(t) = int K(t,u) du and
    c = int int K; the result annihilates constants, and the |t-s| kink
    coefficient is untouched (only smooth rank-one terms are subtracted).
    """
    _require_unweighted(k, "center_kernel")

    def sample(g):
        v, o = k.evaluate_on(g)
        r = integrate_full(g, v, o)
        # (r_i - c/2) + (r_j - c/2) is bitwise symmetric, so v minus it is
        s = r - 0.5 * g.integrate(r)
        out = np.add.outer(s, s)
        return np.subtract(v, out, out=out), o

    return Kernel(k.grid, f"center({k.label})", k.half_order, sample)


def condition_kernel(k, cross, gram):
    """Condition on linear functionals Z being zero.

    cross: callable mapping a node array t (shape (N,)) to the (N, q)
    matrix of cross-covariances Cov(X(t_i), Z_j); gram: the (q, q)
    covariance matrix of Z.  Returns the kernel of (X | Z = 0),
    K'(t,s) = K(t,s) - c(t)^T Sigma^+ c(s), via a symmetric pseudo-solve.
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

    def sample(g):
        v, o = k.evaluate_on(g)
        C = np.asarray(cross(g.x), dtype=float)
        if C.ndim == 1:
            C = C[:, None]
        if C.shape != (g.n, S.shape[0]):
            raise ValueError(
                f"cross-covariance shape {C.shape} does not match "
                f"{(g.n, S.shape[0])}")
        # (C (C P)^T)^T = C P C^T, one dgemm whose transpose is C-ordered
        out = blas.dgemm(1.0, C, np.einsum("ik,kl->il", C, P), trans_b=True).T
        np.subtract(v, out, out=out)
        return _symmetrize(out), o

    return Kernel(k.grid, f"cond[{S.shape[0]}]({k.label})", k.half_order,
                  sample)


def apply_weight(k, w):
    """Multiply by sqrt(psi(t) psi(s)); terminal transform.

    The weighted kernel is what the squared-psi-norm quadratic form and the
    Nystrom matrix are built from; it records `w` as its ``weight``.  No
    further transform accepts it.
    """
    if k.weight is not None:
        raise ValueError("kernel is already weighted; apply_weight is "
                         "terminal and cannot be repeated")

    def sample(g):
        v, o = k.evaluate_on(g)
        half = np.sqrt(np.asarray(w(g.x), dtype=float))
        if o is not None:
            hb = half.reshape(g.panels, g.order)
            o = o * (hb[:, :, None] * hb[:, None, :])
        out = np.multiply.outer(half, half)
        return np.multiply(out, v, out=out), o

    return Kernel(k.grid, f"weight[{w.text}]({k.label})", k.half_order,
                  sample, weight=w)


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
    return dataclasses.replace(
        k, label=f"conditional-integrated-wiener({level})")


def build_process(spec, grid=None):
    """Kernel of the process described by a ProcessSpec (lazy: nothing is
    sampled until its values are asked for)."""
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
