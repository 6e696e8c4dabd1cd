"""Domain model: weights, boundary conditions, operators, classification.

The central objects are `Weight` (a positive function on [0,1] given by an
expression tree plus cached samples) and `BVProblem` (an order-2n self-adjoint
differential operator with 2n boundary conditions and a weight).  Boundary
conditions are classified into the structural classes that admit closed-form
comparison ratios: fully separated, one non-separated pair, periodic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as _expr
from .errors import NormalizationMismatch
from .quadrature import Grid

#: fixed quadrature for weight functionals (2048 nodes, composite GL)
WEIGHT_GRID = Grid.composite(2048, 8)


@dataclass(eq=False, frozen=True)
class Weight:
    """Weight function psi on [0,1], strictly positive.

    Parameters
    ----------
    expr : tuple
        Expression tree over the variable t (see `greenball.expr`).
    samples : ndarray
        Values on WEIGHT_GRID.x.
    psi0, psi1 : float
        Endpoint values psi(0), psi(1), evaluated from the expression (the
        comparison formulas depend only on these).

    `from_tree` reads all three from the expression's compiled form, the
    one that calls use, so ``w.samples`` equals ``w(WEIGHT_GRID.x)`` bitwise.
    """

    expr: tuple
    samples: np.ndarray
    psi0: float
    psi1: float

    def __post_init__(self):
        s = np.asarray(self.samples)
        if s.min() <= 0.0:
            raise ValueError("weight must be strictly positive on [0,1]")
        if self.psi0 <= 0.0 or self.psi1 <= 0.0:
            raise ValueError("weight endpoint values must be positive")

    @classmethod
    def from_text(cls, text):
        return cls.from_tree(_expr.parse_expression(text))

    @classmethod
    def from_tree(cls, tree):
        samples = _expr.evaluate(tree, WEIGHT_GRID.x)
        return cls(tree, samples, _expr.evaluate(tree, 0.0),
                   _expr.evaluate(tree, 1.0))

    @cached_property
    def _fast(self):
        # construction evaluated this form on the grid with numpy's divide
        # and invalid flags raised, so inner loops may call it unchecked
        return _expr.compile_callable(self.expr)

    def __call__(self, t):
        """Evaluate the weight at arbitrary points."""
        out = self._fast(t)
        if np.ndim(out) == 0 and np.ndim(t) > 0:
            return np.full(np.shape(t), float(out))
        return out

    @property
    def text(self):
        return _expr.pretty(self.expr)


@dataclass(frozen=True)
class BoundaryCondition:
    """One condition alpha*v^(k)(0) + gamma*v^(k)(1) + lower-order terms = 0.

    `alpha_lower[j]` multiplies v^(j)(0) and `gamma_lower[j]` multiplies
    v^(j)(1) for j < k; omitted entries are zero.
    """

    k: int
    alpha: float
    gamma: float
    alpha_lower: tuple = ()
    gamma_lower: tuple = ()

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("order must be nonnegative")
        if self.alpha == 0.0 and self.gamma == 0.0:
            raise ValueError("boundary condition needs a nonzero leading coefficient")
        if len(self.alpha_lower) > self.k or len(self.gamma_lower) > self.k:
            raise ValueError("lower-order coefficient lists exceed the order")

    def lower_coefficient(self, side, j):
        arr = self.alpha_lower if side == 0 else self.gamma_lower
        return arr[j] if j < len(arr) else 0.0


@dataclass(frozen=True)
class OperatorSpec:
    """Operator (-1)^n v^(2n) + sum_m (p_m v^(m))^(m) of order 2n.

    Coefficients p_0..p_{n-1} are constants or expression trees.
    """

    n: int
    p: tuple = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("half-order n must be >= 1")
        if len(self.p) != self.n:
            raise ValueError("need exactly n coefficient entries (zeros allowed)")

    def p_values(self, m, t):
        """Values of p_m at points t."""
        c = self.p[m]
        t = np.asarray(t, dtype=float)
        if isinstance(c, tuple):
            return np.asarray(_expr.evaluate(c, t))
        return np.full(t.shape, float(c))

    def p_derivative(self, m, j, t):
        """j-th derivative of p_m at t.  Constants are exact; an expression
        takes a central difference at spacing h = 1e-6 for j = 1 (good to
        about 1e-10), and raises ValueError for j >= 2, where a fixed-h
        difference is wrong (for p = e^t up to 3.5e-4 relative at j = 2 and
        955 at j = 3; ROADMAP item 4 drops the derivatives)."""
        if j == 0:
            return self.p_values(m, t)
        c = self.p[m]
        t = np.asarray(t, dtype=float)
        if not isinstance(c, tuple):
            return np.zeros(t.shape)
        if j >= 2:
            raise ValueError(
                f"derivative {j} of the expression coefficient p_{m} is not "
                "available: a fixed-step difference is wrong for j >= 2 "
                "(ROADMAP item 4)")
        h = 1e-6
        return (np.asarray(_expr.evaluate(c, t + 0.5 * h))
                - np.asarray(_expr.evaluate(c, t - 0.5 * h))) / h


@dataclass(eq=False, frozen=True)
class BVProblem:
    """Eigenvalue problem L v = mu * psi * v with 2n boundary conditions."""

    op: OperatorSpec
    bcs: tuple
    weight: Weight
    normalized_system: bool = False

    def __post_init__(self):
        n2 = 2 * self.op.n
        if len(self.bcs) != n2:
            raise ValueError(f"need exactly {n2} boundary conditions")
        for bc in self.bcs:
            if bc.k > n2 - 1:
                raise ValueError("boundary-condition order exceeds 2n-1")
        if not self.normalized_system:
            warnings.warn(
                "boundary system is assumed normalized (minimal total order); "
                "this is not verified for user-supplied systems",
                UserWarning, stacklevel=3)

    @property
    def n(self):
        return self.op.n


@dataclass(frozen=True)
class BCClass:
    """Structural class of a boundary-condition system.

    tag is one of "separated", "one-pair", "periodic", "general".  For the
    separated part: kappa0/kappa1 are the order sums at the endpoints and
    orders0/orders1 the order lists.  For "one-pair": ell is the lower order
    of the non-separated pair and (a, b) its leading coefficients.
    """

    tag: str
    kappa0: int | None = None
    kappa1: int | None = None
    orders0: tuple = ()
    orders1: tuple = ()
    ell: int | None = None
    a: float | None = None
    b: float | None = None


def _is_periodic_template(bcs, n):
    # v^(nu)(0) - v^(nu)(1) + lower = 0 for nu = 0..2n-1, up to row scaling
    orders = sorted(bc.k for bc in bcs)
    if orders != list(range(2 * n)):
        return False
    for bc in bcs:
        if bc.alpha == 0.0 or bc.gamma == 0.0:
            return False
        if abs(bc.gamma + bc.alpha) > 1e-12 * max(abs(bc.alpha), abs(bc.gamma)):
            return False
    return True


def classify_boundary_conditions(problem):
    """Classify a problem's boundary conditions by their leading structure.

    Returns a BCClass; ambiguous systems fall through to "general".
    Invariant under permutation of the condition list.
    """
    bcs = problem.bcs if isinstance(problem, BVProblem) else tuple(problem)
    n = (problem.op.n if isinstance(problem, BVProblem)
         else max(bc.k for bc in bcs) // 2 + 1)

    if _is_periodic_template(bcs, n):
        return BCClass(tag="periodic")

    mixed = [bc for bc in bcs if bc.alpha != 0.0 and bc.gamma != 0.0]
    if not mixed:
        at0 = sorted(bc.k for bc in bcs if bc.alpha != 0.0)
        at1 = sorted(bc.k for bc in bcs if bc.gamma != 0.0)
        return BCClass(tag="separated", kappa0=sum(at0), kappa1=sum(at1),
                       orders0=tuple(at0), orders1=tuple(at1))

    if len(mixed) == 2:
        first, second = sorted(mixed, key=lambda bc: bc.k)
        ell = first.k
        if second.k == 2 * n - 1 - ell:
            # cross-matching: (alpha2, gamma2) proportional to (gamma1, alpha1)
            cross = first.alpha * second.alpha - first.gamma * second.gamma
            scale = max(abs(first.alpha * second.alpha),
                        abs(first.gamma * second.gamma))
            if abs(cross) <= 1e-12 * scale:
                rest = [bc for bc in bcs if bc.alpha == 0.0 or bc.gamma == 0.0]
                if len(rest) == 2 * n - 2:
                    at0 = sorted(bc.k for bc in rest if bc.alpha != 0.0)
                    at1 = sorted(bc.k for bc in rest if bc.gamma != 0.0)
                    return BCClass(tag="one-pair", kappa0=sum(at0),
                                   kappa1=sum(at1), orders0=tuple(at0),
                                   orders1=tuple(at1), ell=ell,
                                   a=first.alpha, b=first.gamma)
    return BCClass(tag="general")


def normalization_integral(w, n):
    """Integral of psi^(1/2n) over [0,1] on the fixed quadrature grid."""
    return WEIGHT_GRID.integrate(w.samples ** (1.0 / (2 * n)))


def normalize_weight(w, n):
    """Rescale psi to c*psi with unit normalization integral; returns (w~, c).

    c = theta^(-2n).  Norms map as ||X||_{c psi} = sqrt(c)*||X||_psi, so a
    ball of radius eps in the rescaled norm is a ball of radius eps/sqrt(c) in
    the original one.
    """
    theta = normalization_integral(w, n)
    c = theta ** (-2 * n)
    if abs(c - 1.0) <= 1e-14:
        return w, 1.0
    return Weight.from_tree(_expr.scale(w.expr, c)), c


def require_equal_normalization(w1, w2, n):
    """Check the equal-normalization hypothesis the comparison limits need."""
    t1 = normalization_integral(w1, n)
    t2 = normalization_integral(w2, n)
    if abs(t1 - t2) > 1e-6 * max(t1, t2):
        raise NormalizationMismatch(
            f"normalization integrals differ: {t1:.12g} vs {t2:.12g}; the two "
            "weights give different logarithmic asymptotics and no finite "
            "comparison ratio exists")
    return 0.5 * (t1 + t2)
