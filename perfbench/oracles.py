"""Independent references for the benchmark's checks.

Nothing here imports greenball: every value comes from a classical closed
form or a transcendental equation solved with scipy, so a check compares two
independent computations.  scipy is imported inside the functions, which run
after the timed set-up.  `self_check` tests each reference against a
published constant before any workload uses it.

References
    Wiener / bridge spectra       mu_k = ((k - 1/2) pi)^2, (k pi)^2
    bridge weighted by psi_a      mu_k = (k pi)^2 for every a (Liouville
                                  transform of a unit-normalized weight)
    Ornstein-Uhlenbeck            mu = (1 + w^2)/2, (w^2 - 1) sin w = 2 w cos w
    integrated Wiener             mu = x^4, cantilever 1 + cos x cosh x = 0
    conditional integrated
      Wiener, level 1             mu = x^4, clamped beam cos x cosh x = 1
    Cramer-von Mises limit law    P(int B^2 <= x), Anderson & Darling, Ann.
                                  Math. Stat. 23 (1952); series of Csorgo &
                                  Faraway, JRSS B 58 (1996)
    Wiener small-ball asymptotic  P(||W|| <= eps) ~ (4/sqrt(pi)) eps
                                  exp(-1/(8 eps^2))
    Weyl constants                1 for integrated Wiener / bridge chains,
                                  sqrt(2) for Matern(2)
    comparison limits for psi_a   product 1/a^2, probability ratio 1/a
"""

from __future__ import annotations

import math

import numpy as np

#: first root of 1 + cos x cosh x = 0 (cantilever beam)
CANTILEVER_X1 = 1.87510406871196
#: first nonzero root of cos x cosh x = 1 (clamped-clamped beam)
CLAMPED_X1 = 4.73004074486270
#: Anderson & Darling's 5 % critical value: P(omega^2 <= 0.46136) = 0.95
CVM_CRITICAL = (0.46136, 0.95)
#: E int_0^1 W^2 = 1/2 and E int_0^1 B^2 = 1/6
WIENER_MEAN, BRIDGE_MEAN = 0.5, 1.0 / 6.0
WIENER_PREFACTOR = 4.0 / math.sqrt(math.pi)
#: Matern(2) covariance e^-r (1 + r) has spectral density 4/(1 + w^2)^2, so
#: mu_k ~ (pi k)^4 / 4 and the fitted Weyl constant is 4^(1/4)
MATERN2_WEYL_THETA = math.sqrt(2.0)


def psi_a_text(a):
    """psi_a(t) = (a + (1/a - a) t)^(-4), whose normalization integral
    int psi_a^(1/2) is 1 for every a > 0."""
    return f"({a!r}+{1.0 / a - a!r}*t)^(-4)"


def wiener_mu(K):
    k = np.arange(1, K + 1, dtype=float)
    return ((k - 0.5) * np.pi) ** 2


def bridge_mu(K):
    k = np.arange(1, K + 1, dtype=float)
    return (k * np.pi) ** 2


def _bracketed_roots(f, brackets):
    from scipy import optimize
    return np.array([optimize.brentq(f, lo, hi, xtol=1e-300, rtol=1e-15,
                                     maxiter=200) for lo, hi in brackets])


def ou_mu(K):
    """Ornstein-Uhlenbeck (covariance e^-|t-s|): the k-th root w_k of
    (w^2 - 1) sin w = 2 w cos w lies in ((k-1) pi, k pi)."""
    def f(w):
        return (w * w - 1.0) * math.sin(w) - 2.0 * w * math.cos(w)
    w = _bracketed_roots(f, [(max((k - 1) * math.pi, 1e-3), k * math.pi)
                             for k in range(1, K + 1)])
    return 0.5 * (1.0 + w * w)


def _sech(x):
    return 2.0 * math.exp(-x) / (1.0 + math.exp(-2.0 * x))


def cantilever_mu(K):
    """Integrated Wiener: 1 + cos x cosh x = 0, scaled to cos x + sech x;
    the k-th root lies in ((k-1) pi, k pi)."""
    x = _bracketed_roots(lambda x: math.cos(x) + _sech(x),
                         [((k - 1) * math.pi, k * math.pi)
                          for k in range(1, K + 1)])
    return x ** 4


def clamped_mu(K):
    """Conditional integrated Wiener, level 1: cos x cosh x = 1, scaled to
    cos x - sech x; the k-th nonzero root lies in (k pi, (k+1) pi)."""
    x = _bracketed_roots(lambda x: math.cos(x) - _sech(x),
                         [(k * math.pi, (k + 1) * math.pi)
                          for k in range(1, K + 1)])
    return x ** 4


def cvm_cdf_series(x):
    """Limit law of the Cramer-von Mises statistic, P(int B^2 <= x), by the
    Csorgo-Faraway series in modified Bessel functions K_{1/4}."""
    from scipy import special
    if x <= 0:
        return 0.0
    total = 0.0
    for k in range(50):
        u = (4 * k + 1) ** 2 / (16.0 * x)
        term = (math.exp(special.gammaln(k + 0.5) - special.gammaln(0.5)
                         - special.gammaln(k + 1.0))
                * math.sqrt(4 * k + 1) * math.exp(-u) * special.kv(0.25, u))
        total += term
        if term < 1e-20 * total:
            break
    return total / (math.pi * math.sqrt(x))


def cvm_cdf(x):
    """P(int_0^1 B(t)^2 dt <= x); scipy's implementation when present."""
    try:
        from scipy.stats._hypotests import _cdf_cvm_inf
    except ImportError:  # private in scipy; absent in some versions
        return cvm_cdf_series(x)
    return float(_cdf_cvm_inf(x))


def wiener_small_ball(eps):
    """Leading small-ball asymptotic of the unweighted Wiener L2 norm."""
    return WIENER_PREFACTOR * eps * math.exp(-1.0 / (8.0 * eps * eps))


def comparison_limits(a):
    """(eigenvalue-product limit, probability-ratio limit) of psi_a against
    psi = 1 on the Wiener problem: psi_a(0)^(1/4) = 1/a, psi_a(1) cancels."""
    return 1.0 / (a * a), 1.0 / a


def rel_err(value, ref):
    return abs(float(value) - float(ref)) / abs(float(ref))


def digits(err, cap=15.0):
    """-log10 of a relative error, capped (an exact match reads `cap`)."""
    if err <= 10.0 ** -cap:
        return cap
    return min(cap, -math.log10(err))


def self_check():
    """Each reference against a published constant; raises on a miss."""
    problems = []
    x1 = cantilever_mu(1)[0] ** 0.25
    if rel_err(x1, CANTILEVER_X1) > 1e-13:
        problems.append(f"cantilever x1 {x1!r} != {CANTILEVER_X1}")
    x1 = clamped_mu(1)[0] ** 0.25
    if rel_err(x1, CLAMPED_X1) > 1e-13:
        problems.append(f"clamped x1 {x1!r} != {CLAMPED_X1}")
    x, p = CVM_CRITICAL
    series = cvm_cdf_series(x)
    # the tabulated quantile carries five digits
    if abs(series - p) > 1e-5 or abs(cvm_cdf(x) - p) > 1e-5:
        problems.append(f"CvM cdf at {x} is {series!r}, not {p}")
    if abs(cvm_cdf(0.2) - cvm_cdf_series(0.2)) > 1e-12:
        problems.append("scipy and series CvM cdf disagree")
    # sum of lambda_k = E||X||^2; 10^6 terms leave a 1/(pi^2 10^6) tail
    if abs((1.0 / wiener_mu(10 ** 6)).sum() - WIENER_MEAN) > 1e-6 \
            or abs((1.0 / bridge_mu(10 ** 6)).sum() - BRIDGE_MEAN) > 1e-6:
        problems.append("trig spectra do not sum to E||X||^2")
    from scipy import integrate
    density = 2.0 * integrate.quad(lambda r: math.exp(-r) * (1.0 + r),
                                   0.0, math.inf, weight="cos", wvar=0.5)[0]
    if abs(density - 4.0 / 1.25 ** 2) > 1e-10:
        problems.append(f"Matern(2) spectral density {density!r} != 2.56")
    w = np.sqrt(2.0 * ou_mu(5) - 1.0)
    if np.abs((w * w - 1) * np.sin(w) - 2 * w * np.cos(w)).max() > 1e-12:
        problems.append("OU roots do not solve their equation")
    if problems:
        raise AssertionError("; ".join(problems))
