"""Sharp small-deviation asymptotics and exact-distribution oracles.

Three ways to get at P(||X||_psi <= eps):

* closed asymptotic forms for the catalog processes (iterated-integrated
  Wiener/bridge/Ornstein-Uhlenbeck/Slepian, conditional integrated Wiener,
  Matern, Bogolyubov, multiply centered-integrated bridge), packaged as
  `AsymptoticForm` and evaluated by `evaluate_asymptotic`;
* the exact chi-square-form distribution P(sum lam_j xi_j^2 <= r^2) by
  saddle-point-anchored Bromwich inversion of the Laplace transform
  L(s) = prod(1+2 s lam_j)^{-1/2}, with an optional Weyl-model continuation
  of the eigenvalue sequence beyond the computed truncation.  log L and its
  first two s-derivatives come from one sum (`_log_laplace_sums`) over the
  computed eigenvalues plus `WeylTailModel.log_laplace(s, k)` for the
  continuation; the saddle point, the contour integrand and its end
  corrections all read them through that pair.  log L itself takes exact
  logs only up to one split index per call and one power series for the
  rest; the saddle point is a safeguarded Newton iteration in
  (log s, log m).  The continuation costs the same at every s: a fixed
  block of model eigenvalues, then a closed-form remainder;
* plain Monte Carlo over the same quadratic form.

`comparison_convergence` tabulates P_1(eps)/P_2(eps) from two weights'
spectra: this layer consumes spectra and never computes them.

The asymptotic forms assume the weight is normalized for the process
order (int psi^{1/(2n)} = 1); `process_asymptotic` enforces this and
raises NotNormalized otherwise.  Under the scaling psi -> c psi the norm
scales by sqrt(c), so the caller can always normalize the weight and pass
eps/sqrt(c) instead.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateTheta, InversionUnstable, NotNormalized,
                     TiltNotFound, UnsupportedFamily)
from .kernels import _canonical_family, build_process
from .model import normalization_integral
from .theta import vandermonde

# ---------------------------------------------------------------------------
# notation block: z_n, eps-transforms, D_n, index sums


def constants(n):
    """(z_n, D_n) = (exp(i pi/n), (2n-1)/(2n sin(pi/2n)))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    z = complex(np.exp(1j * np.pi / n))
    d = (2 * n - 1) / (2 * n * math.sin(math.pi / (2 * n)))
    return z, d


def epsilon_transforms(eps, n):
    """(eps_n, eps_tilde_n, eps_hat_n, c_n) for radius eps and order n.

    eps_n    = (eps sqrt(2n sin(pi/2n)))^{1/(2n-1)}
    tilde    = (eps sqrt( n sin(pi/2n)))^{1/(2n-1)}
    hat      = (eps sqrt(2n/c_n sin(pi/2n)))^{1/(2n-1)},
    c_n      = 2 sqrt(pi) Gamma(n)/Gamma(n - 1/2).
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be positive and finite")
    s = math.sin(math.pi / (2 * n))
    p = 1.0 / (2 * n - 1)
    c_n = 2 * math.sqrt(math.pi) * math.gamma(n) / math.gamma(n - 0.5)
    e_n = (eps * math.sqrt(2 * n * s)) ** p
    e_tilde = (eps * math.sqrt(n * s)) ** p
    e_hat = (eps * math.sqrt(2 * n / c_n * s)) ** p
    return e_n, e_tilde, e_hat, c_n


def K_of(betas):
    """sum (2 nu + 1) beta_nu over nu = 1..m."""
    _check_betas(betas)
    return sum((2 * nu + 1) * b for nu, b in enumerate(betas, start=1))


def K_tilde_of(betas):
    """sum (2 nu + 3) beta_nu over nu = 1..m."""
    _check_betas(betas)
    return sum((2 * nu + 3) * b for nu, b in enumerate(betas, start=1))


def _check_betas(betas):
    if any(b not in (0, 1) for b in betas):
        raise ValueError("betas must be 0/1")


# ---------------------------------------------------------------------------
# asymptotic forms

_TRANSFORM_INDEX = {"eps_n": 0, "eps_tilde_n": 1, "eps_hat_n": 2}


@dataclass(frozen=True)
class AsymptoticForm:
    """P(||X||_psi <= eps) ~ endpoint_correction * C * E^gamma
    * exp(-D/(2 E^2)) with E the selected eps-transform of order `order`."""

    C: float
    gamma: float
    D: float
    transform: str
    order: int
    endpoint_correction: float = 1.0
    label: str = ""

    def __post_init__(self):
        if not (self.C > 0 and np.isfinite(self.C)):
            raise ValueError("prefactor C must be positive and finite")
        if not (self.D > 0 and np.isfinite(self.D)):
            raise ValueError("rate D must be positive and finite")
        if self.transform not in _TRANSFORM_INDEX:
            raise ValueError(f"unknown transform {self.transform!r}")
        if not (self.endpoint_correction > 0
                and np.isfinite(self.endpoint_correction)):
            raise ValueError("endpoint correction must be positive and "
                             "finite")


def log_evaluate_asymptotic(form, eps):
    """log of the asymptotic value; finite even when the value underflows.
    ValueError for an eps so small that the log is not a finite double."""
    e = epsilon_transforms(eps, form.order)[_TRANSFORM_INDEX[form.transform]]
    logv = (math.log(form.endpoint_correction) + math.log(form.C)
            + form.gamma * math.log(e) - form.D / (2.0 * e * e)
            if e * e > 0.0 else -math.inf)
    if not math.isfinite(logv):
        raise ValueError(f"eps = {eps:g} is out of range: the log of the "
                         "asymptotic value is not a finite double")
    return logv


def evaluate_asymptotic(form, eps):
    """Numeric value of the asymptotic at radius eps (0.0 on underflow)."""
    logv = log_evaluate_asymptotic(form, eps)
    if logv < -745.0:  # exp underflows; the log route stays informative
        return 0.0
    return math.exp(logv)


def _psi_endpoints(psi):
    if psi is None:
        return 1.0, 1.0
    return float(psi.psi0), float(psi.psi1)


def _require_normalized(psi, n):
    if psi is None:
        return
    theta = normalization_integral(psi, n)
    if abs(theta - 1.0) > 1e-6:
        raise NotNormalized(
            f"int psi^(1/{2 * n}) = {theta:.9g} differs from 1; normalize "
            "the weight and rescale eps by 1/sqrt(c)")


def _beta_nodes(m, betas, shift):
    """Exponents k_nu = nu - (2 nu + shift) beta_nu for nu = 1..m."""
    return [nu - (2 * nu + shift) * b
            for nu, b in enumerate(betas, start=1)]


def _endpoint_bracket(n, ks, p0, p1, flip):
    """| prod |1+z^k|^2 (p0/p1)^a + prod |1+z^{flip-k}|^2 (p1/p0)^a |^{-1/2}

    with a = 1/(4n); shared by the Bogolyubov and centered-integrated-bridge
    forms.  Raises DegenerateTheta when both products vanish.
    """
    z, _ = constants(n)
    a = 1.0 / (4.0 * n)
    prod1 = 1.0
    prod2 = 1.0
    for k in ks:
        prod1 *= abs(1.0 + z ** k) ** 2
        prod2 *= abs(1.0 + z ** (flip - k)) ** 2
    inner = prod1 * (p0 / p1) ** a + prod2 * (p1 / p0) ** a
    if inner <= 1e-12:
        raise DegenerateTheta(
            "both root-of-unity products vanish; the closed formula "
            "degenerates for this beta pattern")
    return inner ** -0.5


def _wiener_form(m, betas, p0, p1):
    n = m + 1
    z, d = constants(n)
    kk = K_of(betas)
    nodes = [complex(1.0)] + [z ** k for k in _beta_nodes(m, betas, 1)]
    c = ((2 * m + 2) ** (m / 2.0 + 1)
         / (abs(vandermonde(nodes)) * math.sqrt(math.pi * d)))
    endpoint = (p1 / p0) ** (-(m + 1) / 8.0 + kk / (4.0 * (m + 1)))
    return AsymptoticForm(C=c, gamma=1.0, D=d, transform="eps_n", order=n,
                          endpoint_correction=endpoint,
                          label=f"integrated-wiener(m={m}, betas={betas})")


def _bridge_form(m, betas, p0, p1):
    n = m + 1
    z, d = constants(n)
    kk = K_of(betas)
    nodes = [z ** k for k in _beta_nodes(m, betas, 1)]
    c = ((2 * m + 2) ** ((m + 1) / 2.0)
         * math.sqrt(2.0 * math.sin(math.pi / (2 * m + 2)))
         / (abs(vandermonde(nodes)) * math.sqrt(math.pi * d)))
    endpoint = (p0 ** ((m + 1) / 8.0 - kk / (4.0 * (m + 1)))
                * p1 ** ((kk + 1) / (4.0 * (m + 1)) - (m + 1) / 8.0))
    return AsymptoticForm(C=c, gamma=0.0, D=d, transform="eps_n", order=n,
                          endpoint_correction=endpoint,
                          label=f"integrated-bridge(m={m}, betas={betas})")


def _conditional_form(m, p0, p1):
    n = m + 1
    z, d = constants(n)
    nodes = [z ** j for j in range(m + 1)]
    prod = 1.0
    for j in range(m + 1):
        prod *= math.factorial(j) / math.factorial(m + 1 + j)
    c = ((2 * m + 2) ** (m / 2.0 + 1) * math.sqrt(prod)
         / (abs(vandermonde(nodes)) * math.sqrt(math.pi * d)))
    endpoint = (p0 * p1) ** 0.125
    return AsymptoticForm(C=c, gamma=-m * (m + 2.0), D=d, transform="eps_n",
                          order=n, endpoint_correction=endpoint,
                          label=f"conditional-integrated-wiener({m})")


def _ou_form(m, betas, p0, p1, slepian=False):
    n = m + 1
    z, d = constants(n)
    kk = K_of(betas)
    nodes = [z ** k for k in _beta_nodes(m, betas, 1)]
    c = ((2 * m + 2) ** ((m + 1) / 2.0) * 2.0 * math.sqrt(math.e)
         * math.sqrt(math.sin(math.pi / (2 * m + 2)))
         / (abs(vandermonde(nodes)) * math.sqrt(math.pi * d)))
    # endpoint exponents asymmetric ((K+1) at psi(0), K at psi(1)) as
    # in closed form; the m = 0 case is cross-checked against the separated
    # closed-form ratio in the tests
    endpoint = (p0 ** ((m + 1) / 8.0 - (kk + 1) / (4.0 * (m + 1)))
                * p1 ** (kk / (4.0 * (m + 1)) - (m + 1) / 8.0))
    name = "slepian" if slepian else "ornstein-uhlenbeck"
    if slepian:
        c *= math.sqrt(2.0 / math.e)
    return AsymptoticForm(C=c, gamma=2.0, D=d, transform="eps_tilde_n",
                          order=n, endpoint_correction=endpoint,
                          label=f"{name}(m={m}, betas={betas})")


def _matern_form(n, p0, p1):
    z, d = constants(n)
    nodes = [z ** j for j in range(n)]
    c = (math.sqrt(2.0 ** (n * n + n + 1) * n ** (n + 1) * math.e ** n)
         / (abs(vandermonde(nodes)) * math.sqrt(math.pi * d)))
    endpoint = (p0 * p1) ** (-n / 8.0)
    return AsymptoticForm(C=c, gamma=n * n + 1.0, D=d, transform="eps_hat_n",
                          order=n, endpoint_correction=endpoint,
                          label=f"matern({n})")


def _bogolyubov_form(m, betas, omega, p0, p1):
    n = m + 1
    z, d = constants(n)
    kk = K_of(betas)
    ks = _beta_nodes(m, betas, 1)
    bracket = _endpoint_bracket(n, ks, p0, p1, 2 * m + 1)
    c = (2.0 ** (m + 2) * (m + 1) ** (m + 1) * math.sinh(omega / 2.0)
         / (abs(vandermonde([z ** k for k in ks]))
            * math.sqrt(math.pi * d)))
    endpoint = ((p0 / p1) ** (m * (m + 2.0) / (8.0 * (m + 1))
                              - kk / (4.0 * (m + 1))) * bracket)
    return AsymptoticForm(C=c, gamma=1.0, D=d, transform="eps_n", order=n,
                          endpoint_correction=endpoint,
                          label=f"bogolyubov(m={m}, betas={betas}, "
                                f"omega={omega:g})")


def _centered_integrated_bridge_form(m, betas, p0, p1):
    n = m + 2
    z, d = constants(n)
    kt = K_tilde_of(betas)
    ks = _beta_nodes(m, betas, 3)
    bracket = _endpoint_bracket(n, ks, p0, p1, 2 * m + 3)
    c = ((2 * m + 4) ** ((m + 2) / 2.0)
         * math.sqrt(2.0 * math.sin(3.0 * math.pi / (2 * m + 4)))
         / (abs(vandermonde([z ** k for k in ks]))
            * math.sqrt(math.pi * d)))
    endpoint = (p0 ** ((m * m - 3) / (8.0 * n) - kt / (4.0 * n))
                * p1 ** (kt / (4.0 * n) - (m * m + 8 * m + 3) / (8.0 * n))
                * bracket)
    return AsymptoticForm(C=c, gamma=-2.0, D=d, transform="eps_n", order=n,
                          endpoint_correction=endpoint,
                          label=f"centered-integrated-bridge(m={m}, "
                                f"betas={betas})")


def _multiply_centered_bridge_form(m, p0, p1):
    n = m + 1
    z, d = constants(n)
    root0 = p0 ** (1.0 / (2 * n))
    root1 = p1 ** (1.0 / (2 * n))
    nodes = ([root0 * z ** j for j in range(m + 1)]
             + [root1 * z ** j for j in range(m + 1, 2 * m + 2)])
    c = (2 * m + 2) ** ((m + 2) / 2.0) / math.sqrt(math.pi * d)
    endpoint = ((p0 * p1) ** ((2 * m + 1) / 8.0)
                * abs(vandermonde(nodes)) ** -0.5)
    return AsymptoticForm(C=c, gamma=-(2 * m + 1.0), D=d, transform="eps_n",
                          order=n, endpoint_correction=endpoint,
                          label=f"multiply-centered-bridge({m})")


def process_asymptotic(spec, psi=None):
    """Closed small-ball asymptotic for a catalog ProcessSpec.

    psi: Weight (or None for psi == 1), required to satisfy the process
    order's normalization int psi^{1/(2n)} = 1 to 1e-6.  Raises
    UnsupportedFamily when the requested transform chain carries no closed
    formula, DegenerateTheta when the closed formula degenerates for the
    beta pattern.
    """
    fam = _canonical_family(spec.family)
    n = build_process(spec).half_order
    _require_normalized(psi, n)
    p0, p1 = _psi_endpoints(psi)
    plain = spec.centerings == 0 and not spec.center_final
    if fam == "wiener" and plain:
        return _wiener_form(spec.m, spec.betas, p0, p1)
    if fam == "bridge" and plain:
        return _bridge_form(spec.m, spec.betas, p0, p1)
    if fam == "ciw" and plain and spec.m == 0:
        return _conditional_form(spec.level, p0, p1)
    if fam == "ou" and plain:
        return _ou_form(spec.m, spec.betas, p0, p1)
    if fam == "slepian" and plain:
        return _ou_form(spec.m, spec.betas, p0, p1, slepian=True)
    if fam == "matern" and plain and spec.m == 0:
        return _matern_form(spec.n, p0, p1)
    if fam == "bogolyubov" and plain:
        return _bogolyubov_form(spec.m, spec.betas, spec.omega, p0, p1)
    if fam == "bridge" and spec.centerings == 1 and not spec.center_final:
        return _centered_integrated_bridge_form(spec.m, spec.betas, p0, p1)
    if fam == "bridge" and spec.center_final and spec.m == 0:
        return _multiply_centered_bridge_form(spec.centerings, p0, p1)
    raise UnsupportedFamily(
        f"no closed asymptotic form for process spec {spec}")


# ---------------------------------------------------------------------------
# exact distribution of sum lam_j xi_j^2: saddle-point Bromwich inversion


@dataclass(frozen=True)
class ProbabilityEstimate:
    p: float
    err: float
    method: str
    log_p: float = None
    truncation_bias: float = 0.0

    def __post_init__(self):
        if self.method in ("saddlepoint", "montecarlo"):
            if not 0.0 <= self.p <= 1.0:
                raise ValueError("probability out of [0, 1]")
            if self.log_p is not None and self.log_p > 0.0:
                raise ValueError("log probability above 0")
        if self.err < 0:
            raise ValueError("negative error")


#: model eigenvalues summed before the closed-form remainder; n >= 5 takes
#: ceil(6.4/sin(pi/4n)) (41 at n = 5) to keep Y sin(pi/4n) >= 6.4 as below
_BLOCK = 32
#: |2 s lam_Y| up to which the remainder is a power series of _SERIES terms;
#: nearer s = 0 the root form's second derivative loses about
#: (2n-1)(4n-1)/(2n) |2 s lam_Y|^{1/n-2} ulps (45 at 0.5 for n = 4)
_SWITCH, _SERIES = 0.5, 60
#: (2m, B_2m), m = 1..10: Stirling's series meets |z| = Y sin(pi/4n) = 6.4
#: at n = 4, K = 0, where six terms would leave 1e-12
_BERNOULLI = ((2, 1 / 6), (4, -1 / 30), (6, 1 / 42), (8, -1 / 30),
              (10, 5 / 66), (12, -691 / 2730), (14, 7 / 6),
              (16, -3617 / 510), (18, 43867 / 798), (20, -174611 / 330))


def _scaled_zeta(p, y):
    """y^p zeta(p, y) = sum_i (y/(y+i))^p, in [1, 1 + y/(p-1)] even where
    zeta(p, y) and y^p leave the double range: terms summed up to
    z >= 3(p + 13), then Euler-Maclaurin, exact to rounding from there."""
    m = max(0, math.ceil(3 * (p + 13) - y))
    z, rising, em = y + m, float(p), (y + m) / (p - 1) + 0.5
    for j, b in _BERNOULLI:  # rising = (p)_{j-1}, a rising factorial
        em += b / math.factorial(j) * rising / z ** (j - 1)
        rising *= (p + j - 1) * (p + j)
    return float(np.sum((y / (y + np.arange(m))) ** p) + (y / z) ** p * em)


class WeylTailModel:
    """Continuation lam_j = (theta/(pi (j+delta)))^{2n} for j > K.

    `log_laplace(s, k)` is the k-th s-derivative of its share of the
    log-Laplace transform, -(1/2) sum_{j>K} log(1 + 2 s lam_j), in the same
    work at every s; the model is immutable.  It sums a block of `_BLOCK`
    model eigenvalues (more for n >= 5); with Y = K + 1 + delta + block and
    c = 2 s (theta/pi)^{2n} the rest, G = sum_{i>=0} log(1 + c/(Y+i)^{2n}),
    is in closed form.  Where |u| = |2 s lam_Y| <= `_SWITCH` (s = 0, the
    mean, included) it is the power series sum_p (-1)^{p+1} t_p u^p/p,
    t_p = S_p/lam_Y^p = `_scaled_zeta`(2np, Y).  Elsewhere it is
    sum_k [log Gamma(Y) - log Gamma(Y - rho_k)] over the 2n roots
    rho_k = c^{1/2n} e^{i pi (2k+1)/2n} of x^{2n} = -c, which sum to zero,
    by Stirling's series.  For Re s > 0 no rho_k lies on [Y, inf), so G is
    analytic along the Bromwich contour.  The two forms are verified to agree
    to 1e-13 relative at the seam only for n <= 6 (n = 7 reaches 1.0e-13).
    """

    def __init__(self, n, theta, delta, K):
        if K + 1 + delta <= 0:
            raise ValueError("delta too negative for the truncation index")
        self.n = n
        self.theta = theta
        self.delta = delta
        self.K = K
        block = (_BLOCK if n <= 4
                 else math.ceil(6.4 / math.sin(math.pi / (4 * n))))
        j = np.arange(K + 1, K + 1 + block)
        self._block = (theta / (np.pi * (j + delta))) ** (2 * n)
        self._Y = K + 1 + delta + block
        self._lam_Y = (theta / (math.pi * self._Y)) ** (2 * n)
        p = np.arange(1, _SERIES + 1)  # G's coefficients of u^0, u^1, ...
        t = np.array([_scaled_zeta(2 * n * q, self._Y) for q in p])
        coef = np.concatenate(([0.0], (-1.0) ** (p + 1) * t / p))
        # power-series coefficients in u of G and its first two
        # s-derivatives (du/ds = 2 lam_Y)
        self._coef = tuple((2.0 * self._lam_Y) ** k
                           * np.polynomial.polynomial.polyder(coef, k)
                           for k in range(3))
        self._roots = np.exp(1j * np.pi * (2 * np.arange(2 * n) + 1) / (2 * n))

    @classmethod
    def calibrated(cls, n, theta, K, lam_K):
        """Model with delta chosen so that lam(K) = lam_K exactly."""
        delta = theta / (math.pi * lam_K ** (1.0 / (2 * n))) - K
        return cls(n, theta, delta, K)

    @classmethod
    def fitted(cls, n, lams):
        """Model with theta and delta both fitted to the computed spectrum.

        lam_j^{-1/(2n)}/pi is asymptotically (j + delta)/theta, so a linear
        fit over the trailing 20 eigenvalues (all of them when there are
        fewer) recovers both parameters; averaging over a window also
        tolerates spectra with multiplicity pairs, where single-point
        calibration is ill-posed.  A line needs at least two eigenvalues.
        """
        lam = np.asarray(lams, dtype=float)
        K = lam.size
        if K < 2:
            raise ValueError("fitting a tail model needs at least 2 "
                             f"eigenvalues, got {K}")
        w = min(20, K)
        j = np.arange(K - w + 1, K + 1, dtype=float)
        y = lam[-w:] ** (-1.0 / (2 * n)) / math.pi
        slope, intercept = np.polyfit(j, y, 1)
        if slope <= 0:
            raise ValueError("spectrum tail is not decreasing; cannot fit "
                             "a growth model")
        return cls(n, 1.0 / slope, intercept / slope, K)

    def mean(self):
        """sum_{j>K} lam_j, the mean of the dropped part of Q."""
        return -float(self.log_laplace(0.0, 1))

    def log_laplace(self, s, k=0):
        """k-th s-derivative (k = 0, 1, 2) of
        -(1/2) sum_{j>K} log(1 + 2 s lam_j); s a real or complex scalar or
        array with Re s > 0, or s = 0."""
        s = np.asarray(s)
        flat = s.reshape(-1)
        u = 2.0 * flat * self._lam_Y
        near = np.abs(u) <= _SWITCH
        rem = np.empty(flat.shape, dtype=np.result_type(flat, float))
        rem[near] = self._series(u[near], k)
        rem[~near] = self._stirling(flat[~near], k)
        return (_log_laplace_sums(s, self._block, k)
                - 0.5 * rem.reshape(s.shape))

    def _series(self, u, k):
        """k-th s-derivative of G by its power series in u
        (`_power_series`)."""
        return _power_series(u, self._coef[k])

    def _stirling(self, s, k):
        """k-th s-derivative of G by the root form: with z_k = Y - rho_k,
        L_k = log(1 - rho_k/Y), psi_k = digamma(z_k) - log Y (log Y cancels
        over k) and d rho_k/ds = rho_k/(2 n s), G = sum_k [(rho_k - Y + 1/2)
        L_k + sum_m B_2m (Y^{1-2m} - z_k^{1-2m})/(2m(2m-1))], G' = sum_k
        rho_k psi_k/(2ns), G'' = sum_k [(1-2n) rho_k psi_k - rho_k^2
        trigamma(z_k)]/(2ns)^2."""
        n2, Y = 2 * self.n, self._Y
        rho = Y * np.multiply.outer((2.0 * s * self._lam_Y) ** (1.0 / n2),
                                    self._roots)
        z, L = Y - rho, np.log1p(-rho / Y)
        if k == 0:
            out = (rho - Y + 0.5) * L + sum(
                b / (m * (m - 1)) * (Y ** (1 - m) - z ** (1 - m))
                for m, b in _BERNOULLI)
        else:
            out = rho * (L - 0.5 / z
                         - sum(b / m * z ** -m for m, b in _BERNOULLI))
            if k == 2:
                out = (1 - n2) * out - rho ** 2 * (1 / z + 0.5 / z ** 2 + sum(
                    b * z ** -(m + 1) for m, b in _BERNOULLI))
            out = out / (n2 * s[:, None]) ** k
        out = out.sum(axis=-1)
        return out.real if np.isrealobj(s) else out


#: entries of the largest (points x eigenvalues) outer product, and of each
#: worker's (samples x columns) Monte Carlo block; 4 MB of complex values
#: (the k = 1, 2 sums) or a few 2 MB real arrays (the real-arithmetic logs)
#: stay below the 8 MB work arrays of shooting, so freeing a chunk does not
#: raise the allocator's mmap threshold for later solves
_OUTER_ENTRIES = 1 << 18

#: terms with |2 s lam_j| <= _SPLIT are summed as one power series in
#: u = 2 s lam_J, G(u) = -(1/2) sum_p (-1)^{p+1} T_p u^p/p up to
#: p = _SPLIT_TERMS; the first term dropped is below 0.1^17/18 of the
#: leading one
_SPLIT, _SPLIT_TERMS = 0.1, 17
#: fewest terms, over all points of a call, the series must take over for
#: the split to pay for its fixed cost (a few dozen numpy calls), so a
#: scalar s takes the exact sum unless K > 4096
_SPLIT_MIN = 4096
#: u^p coefficient of G over T_p, p = 0.._SPLIT_TERMS (G(0) = 0)
_SPLIT_FACTORS = np.array([0.0] + [-0.5 * (-1.0) ** (p + 1) / p
                                   for p in range(1, _SPLIT_TERMS + 1)])


def _power_series(u, c):
    """sum_p c_p u^p for each u: the powers u^0, u^1, ... come from one
    cumulative product, so a scalar u costs a few numpy calls rather than
    one per term; the terms are summed from the highest power down, the
    order Horner's rule adds them in.  Chunked so that the power table stays
    within `_OUTER_ENTRIES` entries."""
    u = np.asarray(u)
    flat = u.reshape(-1)
    out = np.empty(flat.shape, np.result_type(u, float))
    step = max(1, _OUTER_ENTRIES // c.size)
    for i in range(0, flat.size, step):
        terms = np.empty((flat[i:i + step].size, c.size), out.dtype)
        terms[:, 0] = 1.0
        terms[:, 1:] = flat[i:i + step, None]
        np.cumprod(terms, axis=-1, out=terms)
        terms *= c
        out[i:i + step] = terms[:, ::-1].sum(axis=-1)
    return out.reshape(u.shape)


def _exact_log_sums(flat, lam, k):
    """k-th s-derivative (k = 0, 1, 2) of -(1/2) sum_j log(1 + 2 s lam_j),
    term by term, for a 1-d array of abscissae; the points are taken in
    chunks so that no (points x eigenvalues) outer product exceeds
    `_OUTER_ENTRIES` entries.  For k = 0 and complex s (Re s >= 0) the logs
    are real arithmetic: with 2 s lam = a + ib, log(1 + a + ib) =
    (1/2) log1p(a(2+a) + b^2) + i atan2(b, 1+a), free of cancellation for
    a >= 0 and 2-3 times faster than numpy's complex log1p, which can lose
    the real part of small Im-dominated terms; where b^2 overflows
    (|2 s lam| past ~1e154) the real part is log hypot(1+a, b)."""
    step = max(1, _OUTER_ENTRIES // lam.size)
    out = []
    for i in range(0, flat.size, step):
        if k == 0 and np.iscomplexobj(flat):
            a = np.multiply.outer(2.0 * flat[i:i + step].real, lam)
            b = np.multiply.outer(2.0 * flat[i:i + step].imag, lam)
            with np.errstate(over="ignore"):  # inf entries replaced below
                m = np.log1p((2.0 + a) * a + b * b)
            big = np.isinf(m)
            m[big] = 2.0 * np.log(np.hypot(1.0 + a[big], b[big]))
            a += 1.0
            out.append(-0.25 * m.sum(axis=-1)
                       - 0.5j * np.arctan2(b, a, out=a).sum(axis=-1))
            del a, b, m, big  # before the next chunk's arrays exist
            continue
        x = 2.0 * np.multiply.outer(flat[i:i + step], lam)
        if k == 0:
            out.append(-0.5 * np.sum(np.log1p(x), axis=-1))
        elif k == 1:
            out.append(-np.sum(lam / (1.0 + x), axis=-1))
        else:
            # squared after the division: (1 + x)^2 would overflow past
            # |2 s lam| ~ 1e154, where the term is just 0
            out.append(np.sum(2.0 * (lam / (1.0 + x)) ** 2, axis=-1))
    return np.concatenate(out)


def _suffix_power_sums(lam, J, P):
    """T[p] = sum_{j >= J} (lam_j/lam_J)^p for p = 0..P, J < K.  Normalized
    by lam_J, every term lies in [0, 1] and T in [1, K - J]: nothing
    overflows, and terms that underflow are below rounding of the j = J
    term."""
    ratio = lam[J:] / lam[J]
    power = np.ones_like(ratio)
    T = np.empty(P + 1)
    for p in range(P + 1):  # one power at a time: O(K) memory at any P
        T[p] = power.sum()
        power *= ratio
    return T


def _log_laplace_sums(s, lam, k):
    """k-th s-derivative (k = 0, 1, 2) of -(1/2) sum_j log(1 + 2 s lam_j).

    s is a real or complex scalar or array; lam is positive and descending.
    For k = 0 the spectrum splits at one index J per call, the first j with
    |2 s lam_j| <= `_SPLIT` at every point, so at the largest |s|.  The
    terms j < J are summed exactly (`_exact_log_sums`); the rest are one
    power series -(1/2) sum_p (-1)^{p+1} T_p u^p/p in u = 2 s lam_J, with
    T_p = sum_{j>=J} (lam_j/lam_J)^p the normalized suffix power sums
    (`_suffix_power_sums`), so a point costs J logs plus `_SPLIT_TERMS`
    products instead of K logs.  Where the series would take over fewer
    than `_SPLIT_MIN` terms in all (J = K, or a scalar s), the call is the
    exact sum alone, and so is every k = 1, 2 call: those are scalars (the
    saddle point, sigma, the contour's end data and the tail model's mean).
    """
    s = np.asarray(s)
    flat = s.reshape(-1)
    K = lam.size
    with np.errstate(divide="ignore"):  # s = 0: every term is small
        J = int(np.searchsorted(-lam, -(0.5 * _SPLIT) / np.abs(flat).max()))
    if k or J == K or (K - J) * flat.size < _SPLIT_MIN:
        return _exact_log_sums(flat, lam, k).reshape(s.shape)
    coef = _SPLIT_FACTORS * _suffix_power_sums(lam, J, _SPLIT_TERMS)
    out = _power_series(2.0 * lam[J] * flat, coef)
    if J:
        out = out + _exact_log_sums(flat, lam[:J], 0)
    return out.reshape(s.shape)


def _positive_spectrum(lams):
    """lams as a float array, checked to be 1-d, nonempty, positive and
    finite."""
    lam = np.asarray(lams, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("need a nonempty 1-d eigenvalue array")
    if not (np.isfinite(lam) & (lam > 0)).all():  # NaN fails too
        raise ValueError("eigenvalues must be positive and finite")
    return lam


def smallball_probability_exact(lams, r, tail=None):
    """P(sum_j lam_j xi_j^2 <= r^2) by saddle-point Bromwich inversion.

    lams: positive eigenvalues in descending order; tail: optional
    WeylTailModel continuing the sequence beyond len(lams).  The integrand
    e^{s r^2} L(s)/s, with L(s) = prod(1+2 s lam_j)^{-1/2} (times the tail
    factor), is integrated by trapezoid along the vertical contour through
    its saddle point, from step sigma/4 on |Im s| <= 40 sigma (sigma the
    integrand's width there), with the truncated ends restored by
    integration by parts; self-checks on step halving and end decay guard
    the result.  The abscissa is found by `_solve_tilt`, a few Newton steps
    from s = 1/r^2.  Nested node sets let a step halving evaluate only the
    new odd nodes and a contour doubling only the new stretch, and each
    batch of nodes sums exact logs only up to one split index
    (`_log_laplace_sums`).
    `err` bounds the quadrature error only (the gap between the last two
    sums and the end terms, but no less than the rounding of the finer
    sum), not that of the truncated spectrum or of the tail model.  log_p
    is clipped at 0, so p = exp(log_p) <= 1.  InversionUnstable is raised
    when the sums have not settled before a step halving or contour
    doubling would pass `_MAX_NODES` nodes, TiltNotFound when the saddle
    point lies outside [`_S_MIN`, `_S_MAX`], and ValueError when r or r^2
    is not a positive finite double.
    """
    q = r * r
    if not (r > 0 and 0.0 < q < math.inf):
        raise ValueError(f"eps = {r:g} is out of range: the radius and its "
                         "square must be positive finite doubles")
    lam = _positive_spectrum(lams)
    if (np.diff(lam) > 0).any():
        raise ValueError("eigenvalues must be in descending order")

    def cgf(s, k):  # k-th derivative of log L(s), head plus tail
        out = _log_laplace_sums(s, lam, k)
        if tail is not None:
            out = out + tail.log_laplace(s, k)
        return out

    sstar = _solve_tilt(q, cgf)

    def log_integrand(u):  # s q + log L(s) - log s at s = s* + i u
        s = sstar + 1j * u
        return s * q + cgf(s, 0) - np.log(s)

    g0 = float(np.real(log_integrand(0.0)))  # Phi(0) is real
    sigma = 1.0 / math.sqrt(float(cgf(sstar, 2)) + 1.0 / sstar ** 2)

    def end_data(T, G):
        """Tail restoration and end-derivative data at the truncation point
        T, where G = e^{Phi(T) - g0}.

        tail_int: int_T^inf e^Phi du ~ -G(T)/Phi'(T) (1 + Phi''/Phi'^2);
        d1/d3: first/third u-derivatives of Re e^Phi at T, which feed the
        Euler-Maclaurin end corrections of the trapezoid (the u = 0 end
        contributes nothing because the integrand is even there).
        """
        sT = sstar + 1j * T
        p1v = 1j * (q + cgf(sT, 1) - 1.0 / sT)
        p2v = -(cgf(sT, 2) + 1.0 / sT ** 2)
        tail_int = (-G / p1v * (1.0 + p2v / p1v ** 2)).real
        tail_err = abs(G) * abs(p2v) ** 2 / abs(p1v) ** 5 * 3.0
        d1 = (p1v * G).real
        d3 = ((p1v ** 3 + 3.0 * p1v * p2v) * G).real
        return tail_int, tail_err, d1, d3

    def extend(vals, n, h):  # vals on to u = n h, and the end data there
        G = np.exp(log_integrand(np.arange(vals.size, n + 1) * h) - g0)
        return np.concatenate((vals, G.real)), end_data(n * h, G[-1])

    def quadrature(vals, h, end):  # trapezoid over u = 0, h, ..., T
        tail_int, _, d1, d3 = end
        S = h * (vals.sum() - 0.5 * vals[0] - 0.5 * vals[-1])
        S += -h * h / 12.0 * d1 + h ** 4 / 720.0 * d3
        return S + tail_int

    # trapezoid error on the Gaussian core e^{-u^2/(2 sigma^2)}: about
    # e^{-2 pi^2 (sigma/h)^2}, e^{-32 pi^2} at h = sigma/4, which one
    # halving confirms.  T = 40 sigma; node 0 is e^{Phi(0) - g0} = 1
    h = sigma / 4.0
    vals, end = extend(np.ones(1), 160, h)
    cand = quadrature(vals, h, end)
    total = None
    while True:  # each pass doubles the nodes or leaves the loop
        if not np.isfinite(cand) or 2 * vals.size - 1 > _MAX_NODES:
            # no step or contour length makes a non-finite sum finite, and
            # sums that still disagree at the node cap will not settle
            break
        # end of contour must be resolved: integrand below 1e-16 of peak
        # or the integration-by-parts correction self-certified
        if abs(vals[-1]) > 1e-16 and end[1] > 1e-14 * max(abs(cand), 1e-300):
            vals, end = extend(vals, 2 * (vals.size - 1), h)  # T *= 2
            cand = quadrature(vals, h, end)
            continue
        fine = np.empty(2 * vals.size - 1)  # h /= 2; T and its end data stay
        fine[0::2] = vals
        fine[1::2] = np.exp(log_integrand(
            np.arange(1, fine.size, 2) * (0.5 * h)) - g0).real
        cand2 = quadrature(fine, 0.5 * h, end)
        diff = abs(cand2 - cand)
        if diff < 1e-12 * abs(cand2) + 1e-300:
            total = cand2
            # two sums that agree bit for bit still carry the rounding of
            # the finer one: eps times its absolute mass
            rel_err = max(diff + end[1], np.finfo(float).eps * 0.5 * h
                          * np.abs(fine).sum()) / abs(cand2)
            break
        h, vals, cand = 0.5 * h, fine, cand2
    if total is None or total <= 0.0 or not np.isfinite(total):
        raise InversionUnstable(
            "Bromwich trapezoid failed its self-checks (refinement did not "
            f"converge within {_MAX_NODES} nodes or the integral lost "
            "positivity)")
    logp = min(g0 + math.log(total / math.pi), 0.0)  # so p <= 1
    p = math.exp(logp)
    return ProbabilityEstimate(p=p, err=p * rel_err, method="saddlepoint",
                               log_p=logp)


#: most trapezoid nodes of one inversion, 8 MB of integrand values; the
#: test suite reaches 20481 and the benchmark 5121
_MAX_NODES = 1 << 20
#: the saddle point is searched for on [_S_MIN, _S_MAX]; outside it is
#: reported as not found
_S_MIN, _S_MAX = 1e-300, 1e280
_ULP = np.finfo(float).eps
#: largest Newton step in log s while the root is bracketed on one side only
_MAX_LOG_STEP = 30.0


def _solve_tilt(q, cgf):
    """Contour abscissa: the saddle of the integrand e^{sq} L(s)/s, the root
    of m(s) = 1/s - cgf'(s) = q, which always exists on s > 0 since m falls
    from inf to 0.  cgf(s, k) is the k-th derivative of log L at a real
    scalar s.  `_log_newton` finds it from s = 1/q, which lies left of the
    root because m(s) > 1/s."""
    return _log_newton(q, lambda s: 1.0 / s - float(cgf(s, 1)),
                       lambda s: s * float(cgf(s, 2)) + 1.0 / s, 1.0 / q)


def _log_newton(q, m, dm, s):
    """Root of m(s) = q, m > 0 decreasing on s > 0 and dm(s) = -s m'(s).

    Newton's method on log m - log q in log s, where the power-law decay of
    m is nearly a straight line, kept inside a bracket lo < hi with
    m(lo) >= q > m(hi): a step that leaves it is replaced by the geometric
    midpoint, and so is one that does not halve the step before it.  Until
    both ends are known a step is at most a factor e^`_MAX_LOG_STEP`.  A
    step below 1e-10 has converged to rounding, so it is pushed 2 ulps on
    (twice as far each time it does not cross) to land past the root; once
    the bracket spans at most 64 ulps it is bisected, with no derivative.
    The slope is re-evaluated only while steps exceed 1e-4.  The search
    stops when lo and hi are adjacent doubles and returns hi; outside
    [`_S_MIN`, `_S_MAX`] it raises TiltNotFound."""
    lo, hi = 0.0, math.inf
    last, push = math.inf, 2.0 * _ULP
    while True:
        if not _S_MIN <= s <= _S_MAX:
            raise TiltNotFound(
                f"eps = {math.sqrt(q):g}: the saddle-point search passed "
                f"out of [{_S_MIN:g}, {_S_MAX:g}] at s = {s:g}")
        v = m(s)
        if v == q:
            return s
        if v > q:
            lo = s
        else:
            hi = s
        if math.nextafter(lo, math.inf) >= hi:
            return hi
        if hi - lo <= 64.0 * _ULP * lo:
            s = lo + 0.5 * (hi - lo)
            continue
        if last > 1e-4:  # else the last slope is still good to ~1e-4
            scale = v / dm(s)
        # v/q, not log v - log q: near the root only the quotient keeps the
        # sign of v - q, which fixes the direction of the step
        way = 1.0 if v > q else -1.0
        step = math.log(v / q) * scale
        if not abs(step) <= _MAX_LOG_STEP:  # a flat m, or no derivative
            step = way * _MAX_LOG_STEP
        if abs(step) < 1e-10 or step * way <= 0.0:
            t = s * math.exp(way * (abs(step) + push))
            push *= 2.0  # a push that does not cross the root doubles
        else:
            t = s * math.exp(step)
            if lo > 0.0 and hi < math.inf and not (
                    lo < t < hi and abs(step) <= 0.5 * last):
                t = lo * math.sqrt(hi / lo)
                step = math.log(t / s)
        s, last = t, abs(step)


# ---------------------------------------------------------------------------
# Monte Carlo oracle


#: samples per Monte Carlo batch; each batch draws from its own spawned seed
_MC_BATCH = 100_000


def _mc_chunks(K):
    """(lo, hi) column ranges of the Monte Carlo chunks over K eigenvalues:
    one column, then 1, 2, 4, ... columns, so chunk k ends at column 2^k and
    a sample dropped after column c has drawn fewer than 2c normals; the
    width is capped at `_OUTER_ENTRIES` so one row of a chunk always fits
    the buffer."""
    lo = 0
    while lo < K:
        hi = min(lo + min(max(lo, 1), _OUTER_ENTRIES), K)
        yield lo, hi
        lo = hi


def monte_carlo_probability(lams, eps, N, seed, tail=None):
    """Empirical P(sum lam_j xi_j^2 <= eps^2) from N Gaussian samples.

    lams: positive eigenvalues, in any order.  Sampling happens in the
    Karhunen-Loeve eigenbasis, where the squared norm is exactly the
    weighted chi-square sum, so no path construction is needed.  Batches of
    `_MC_BATCH` samples draw from seeds spawned off `seed` and run on a
    thread pool, one worker per available core.  A batch draws its normals
    in chunks of eigenvalue columns, largest lam first: one column, then
    1, 2, 4, ... columns (`_mc_chunks`).  After each chunk the samples
    whose partial sum exceeds eps^2 are dropped.  This early exit is exact:
    the terms are nonnegative and a rounded sum of nonnegative terms never
    decreases, so a dropped sample could never have become a hit, and the
    samples left after the last column are the hits.  Every draw is fresh
    from the batch's stream, so each sample's xi are i.i.d. N(0, 1) under
    this schedule and the estimator is plain Monte Carlo.  Chunks are drawn
    in row blocks of at most `_OUTER_ENTRIES` normals into one reused
    buffer, which bounds the memory.  Hit counts are integers and the
    schedule depends only on the batch, so a fixed (seed, N) pair gives the
    same p on any number of cores and for any order of lams.  The optional
    tail model only reports the mean of the dropped remainder as
    `truncation_bias` (the estimate itself uses the given eigenvalues).
    """
    lam = _positive_spectrum(lams)
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("radius must be positive and finite")
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError("N, the number of samples, must be an integer >= 1")
    q = eps * eps
    lam = -np.sort(-lam)  # largest first: partial sums pass q soonest
    chunks = list(_mc_chunks(lam.size))
    children = np.random.SeedSequence(seed).spawn(-(-N // _MC_BATCH))

    def batch(i):  # hits among the samples of batch i
        rng = np.random.default_rng(children[i])
        b = min(_MC_BATCH, N - i * _MC_BATCH)
        buf = np.empty(min(_OUTER_ENTRIES, b * lam.size))
        sums = np.zeros(b)  # partial sums of the live samples, compacted
        live = b
        for lo, hi in chunks:
            w = hi - lo
            rows = _OUTER_ENTRIES // w
            for start in range(0, live, rows):
                n = min(rows, live - start)
                block = buf[:n * w].reshape(n, w)
                rng.standard_normal(out=block)
                np.square(block, out=block)
                sums[start:start + n] += block @ lam[lo:hi]
            keep = sums[:live] <= q
            live = int(np.count_nonzero(keep))
            sums[:live] = sums[:keep.size][keep]
            if live == 0:
                break
        return live

    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    with ThreadPoolExecutor(min(cores, len(children))) as pool:
        p = sum(pool.map(batch, range(len(children)))) / N
    err = math.sqrt(max(p * (1.0 - p), 1.0 / N) / N)
    bias = tail.mean() if tail is not None else 0.0
    return ProbabilityEstimate(p=p, err=err, method="montecarlo",
                               log_p=(math.log(p) if p > 0 else -math.inf),
                               truncation_bias=bias)


# ---------------------------------------------------------------------------
# probability ratio of two weights, from their spectra


@dataclass(frozen=True)
class ComparisonTable:
    """Exact-oracle probabilities on an eps grid for two weights, with their
    empirical ratio."""

    eps: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    ratio: np.ndarray


def comparison_convergence(s1, s2, n, eps_values):
    """Table of (eps, p1, p2, p1/p2), eps descending, from two spectra.

    s1 and s2 are the SpectrumResults of one half-order-n problem under the
    two weights.  Each is continued by a Weyl-tail model calibrated on its
    last eigenvalue, with theta the normalization integral of the weight
    that was solved (its `theta_norm`), and probabilities come from the
    saddle-point oracle.  The ratio is exp(log p1 - log p2), finite where
    both p underflow to 0.
    """
    eps_values = np.asarray(sorted(eps_values, reverse=True), dtype=float)
    logp = np.empty((2, eps_values.size))
    for row, res in zip(logp, (s1, s2)):
        lam = 1.0 / np.asarray(res.mu)
        tail = WeylTailModel.calibrated(n, res.theta_norm, lam.size,
                                        float(lam[-1]))
        row[:] = [smallball_probability_exact(lam, e, tail=tail).log_p
                  for e in eps_values]
    p = np.exp(logp)
    return ComparisonTable(eps=eps_values, p1=p[0], p2=p[1],
                           ratio=np.exp(logp[0] - logp[1]))
