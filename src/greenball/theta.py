"""Weight-comparison ratios via boundary determinants.

For an order-2n self-adjoint problem, the limit of the eigenvalue products
mu_k(psi1)/mu_k(psi2) (and hence of small-ball probability quotients) is a
ratio of 2n x 2n determinants built from the boundary-condition leading data
and the endpoint values of the weights.  This module computes that ratio
directly, plus the closed forms available for separated, one-pair and
periodic boundary structures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTheta
from .model import (Weight, classify_boundary_conditions,
                    require_equal_normalization)

ROUTE_DIRECT = "direct-determinant"
ROUTE_SEPARATED = "separated-closed-form"
ROUTE_NONSEPARATED = "nonseparated-closed-form"
ROUTE_PERIODIC = "periodic-closed-form"

#: scale-aware zero threshold for determinants (relative to max-entry^{2n})
DEGENERATE_TOL = 1e-12


def omega(n, k):
    """Root of unity exp(i*k*pi/n)."""
    if n < 1 or not 0 <= k <= 2 * n - 1:
        raise ValueError("need n >= 1 and 0 <= k <= 2n-1")
    return complex(np.exp(1j * np.pi * k / n))


def vandermonde(xs):
    """prod_{i<j} (x_j - x_i); empty and singleton lists give 1."""
    xs = list(xs)
    out = 1.0 + 0.0j
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            out *= xs[j] - xs[i]
    return out


@dataclass(frozen=True)
class ThetaInput:
    """Leading boundary data (orders and coefficients) plus endpoint weights."""

    n: int
    ks: tuple
    alphas: tuple
    gammas: tuple
    psi0: float
    psi1: float

    def __post_init__(self):
        if len(self.ks) != 2 * self.n or len(self.alphas) != 2 * self.n \
                or len(self.gammas) != 2 * self.n:
            raise ValueError("need 2n orders and coefficient pairs")
        if self.psi0 <= 0 or self.psi1 <= 0:
            raise ValueError("endpoint weights must be positive")

    @classmethod
    def from_problem(cls, problem, weight=None):
        w = problem.weight if weight is None else weight
        p0, p1 = _endpoints(w)
        return cls(problem.op.n,
                   tuple(bc.k for bc in problem.bcs),
                   tuple(bc.alpha for bc in problem.bcs),
                   tuple(bc.gamma for bc in problem.bcs),
                   p0, p1)


@dataclass(frozen=True)
class ComparisonResult:
    """Limiting probability ratio P(||X||_{psi1} <= eps) / P(||X||_{psi2} <= eps).

    `product` is the corresponding eigenvalue-product limit, ratio**2 by
    construction.
    """

    ratio: float
    route: str

    @property
    def product(self):
        return self.ratio ** 2


def _endpoints(w):
    if isinstance(w, Weight):
        return w.psi0, w.psi1
    p0, p1 = w
    return float(p0), float(p1)


def _theta_matrix(inp, sign):
    n = inp.n
    e = np.array(inp.ks) / (2 * n) - (2 * n - 1) / (4 * n)
    at = np.array(inp.alphas) * inp.psi0 ** e
    gt = np.array(inp.gammas) * inp.psi1 ** e
    om = np.array([omega(n, j) for j in range(2 * n)])
    M = np.empty((2 * n, 2 * n), dtype=complex)
    for nu in range(2 * n):
        pw = om ** inp.ks[nu]
        if sign == -1:
            M[nu, :n] = at[nu] * pw[:n]
            M[nu, n:] = gt[nu] * pw[n:]
        elif sign == +1:
            M[nu, 0] = gt[nu]
            M[nu, 1:n + 1] = at[nu] * pw[1:n + 1]
            M[nu, n + 1:] = gt[nu] * pw[n + 1:]
        else:
            raise ValueError("sign must be +1 or -1")
    return M


def theta_det(inp, sign):
    """Boundary determinant theta_{sign}; LU with partial pivoting."""
    return complex(np.linalg.det(_theta_matrix(inp, sign)))


def _checked_theta(inp):
    M = _theta_matrix(inp, -1)
    det = complex(np.linalg.det(M))
    scale = np.abs(M).max() ** (2 * inp.n)
    if abs(det) < DEGENERATE_TOL * scale:
        raise DegenerateTheta(
            "boundary determinant vanishes; the comparison ratio is not "
            "defined for this configuration")
    return det


def ratio_limit(problem, psi1, psi2):
    """Probability-quotient limit by direct determinant evaluation.

    Requires equal normalization integrals of the weights (otherwise the two
    norms give different logarithmic asymptotics and the limit is 0 or inf).
    """
    n = problem.op.n
    require_equal_normalization(psi1, psi2, n)
    t1 = _checked_theta(ThetaInput.from_problem(problem, psi1))
    t2 = _checked_theta(ThetaInput.from_problem(problem, psi2))
    return ComparisonResult(ratio=abs(t2 / t1) ** 0.5, route=ROUTE_DIRECT)


def separated_ratio(n, kappa0, kappa1, psi1_endpoints, psi2_endpoints):
    """Closed form for fully separated leading boundary terms."""
    p10, p11 = _endpoints(psi1_endpoints)
    p20, p21 = _endpoints(psi2_endpoints)
    e0 = -n / 4 + 0.125 + kappa0 / (4 * n)
    e1 = -n / 4 + 0.125 + kappa1 / (4 * n)
    ratio = (p20 / p10) ** e0 * (p21 / p11) ** e1
    return ComparisonResult(ratio=ratio, route=ROUTE_SEPARATED)


def _pair_bracket(n, ell, a, b, M1, M2, p0, p1):
    e = (2 * n - 2 * ell - 1) / (4 * n)
    return M1 * a ** 2 * (p1 / p0) ** e + M2 * b ** 2 * (p0 / p1) ** e


def nonseparated_ratio(n, ell, a, b, kappa0, kappa1, orders0, orders1,
                       psi1_endpoints, psi2_endpoints):
    """Closed form when exactly one boundary pair couples the endpoints.

    The pair has orders ell and 2n-ell-1 with coefficient patterns (a, b) and
    (b, a); orders0/orders1 are the remaining separated orders at 0 and 1.
    """
    p10, p11 = _endpoints(psi1_endpoints)
    p20, p21 = _endpoints(psi2_endpoints)
    w1 = omega(n, 1)
    M1 = (vandermonde([w1 ** k for k in orders0] + [w1 ** ell])
          * vandermonde([w1 ** (2 * n - ell - 1)] + [w1 ** k for k in orders1]))
    M2 = (vandermonde([w1 ** k for k in orders0] + [w1 ** (2 * n - ell - 1)])
          * vandermonde([w1 ** ell] + [w1 ** k for k in orders1]))
    b1 = _pair_bracket(n, ell, a, b, M1, M2, p10, p11)
    b2 = _pair_bracket(n, ell, a, b, M1, M2, p20, p21)
    scale = abs(M1) * a * a + abs(M2) * b * b
    if min(abs(b1), abs(b2)) <= 1e-12 * scale:
        raise DegenerateTheta(
            "bracket combination vanishes for one of the weights; no finite "
            "comparison ratio")
    e0 = kappa0 / (4 * n) - (n - 1) * (2 * n - 1) / (8 * n)
    e1 = kappa1 / (4 * n) - (n - 1) * (2 * n - 1) / (8 * n)
    ratio = (p20 / p10) ** e0 * (p21 / p11) ** e1 * abs(b2 / b1) ** 0.5
    return ComparisonResult(ratio=ratio, route=ROUTE_NONSEPARATED)


def periodic_ratio(n, psi1_endpoints, psi2_endpoints):
    """Closed form for boundary conditions periodic in the leading terms."""
    p10, p11 = _endpoints(psi1_endpoints)
    p20, p21 = _endpoints(psi2_endpoints)

    def nodes(p0, p1):
        r0, r1 = p0 ** (1 / (2 * n)), p1 ** (1 / (2 * n))
        return ([r0 * omega(n, j) for j in range(n)]
                + [r1 * omega(n, j) for j in range(n, 2 * n)])

    quot = abs(vandermonde(nodes(p20, p21)) / vandermonde(nodes(p10, p11)))
    pref = (p10 * p11 / (p20 * p21)) ** ((2 * n - 1) / 8)
    return ComparisonResult(ratio=pref * quot ** 0.5, route=ROUTE_PERIODIC)


def closed_form_ratio(problem, psi1, psi2):
    """Dispatch on the boundary classification; falls back to determinants.

    Checks the equal-normalization hypothesis first, like `ratio_limit`.
    """
    n = problem.op.n
    require_equal_normalization(psi1, psi2, n)
    cls = classify_boundary_conditions(problem)
    e1, e2 = _endpoints(psi1), _endpoints(psi2)
    if cls.tag == "separated":
        return separated_ratio(n, cls.kappa0, cls.kappa1, e1, e2)
    if cls.tag == "one-pair":
        return nonseparated_ratio(n, cls.ell, cls.a, cls.b, cls.kappa0,
                                  cls.kappa1, cls.orders0, cls.orders1, e1, e2)
    if cls.tag == "periodic":
        return periodic_ratio(n, e1, e2)
    return ratio_limit(problem, psi1, psi2)
