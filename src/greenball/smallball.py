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
  continuation; the tilt, the contour integrand and its end corrections all
  read them through that pair.  The continuation costs the same at every s:
  a fixed block of 32 model eigenvalues, then a closed-form remainder;
* plain Monte Carlo over the same quadratic form.

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
from scipy.special import gamma as gamma_fn

from .errors import (DegenerateTheta, InversionUnstable, NotNormalized,
                     TiltNotFound, UnsupportedFamily)
from .kernels import _canonical_family, build_process
from .model import normalization_integral
from .spectrum import eigenvalues_shooting
from .theta import ratio_limit, vandermonde

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
    if eps <= 0:
        raise ValueError("eps must be positive")
    s = math.sin(math.pi / (2 * n))
    p = 1.0 / (2 * n - 1)
    c_n = 2 * math.sqrt(math.pi) * gamma_fn(n) / gamma_fn(n - 0.5)
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
    """log of the asymptotic value; finite even when the value underflows."""
    e = epsilon_transforms(eps, form.order)[_TRANSFORM_INDEX[form.transform]]
    return (math.log(form.endpoint_correction) + math.log(form.C)
            + form.gamma * math.log(e) - form.D / (2.0 * e * e))


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
        if self.method in ("saddlepoint", "montecarlo") \
                and not 0.0 <= self.p <= 1.0:
            raise ValueError("probability out of [0, 1]")
        if self.err < 0:
            raise ValueError("negative error")


_BLOCK = 32  # model eigenvalues summed before the closed-form remainder
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
    work at every s; the model is immutable.  It sums `_BLOCK` model
    eigenvalues; with Y = K + 1 + delta + _BLOCK and c = 2 s (theta/pi)^{2n}
    the rest, G = sum_{i>=0} log(1 + c/(Y+i)^{2n}), is in closed form.
    Where |u| = |2 s lam_Y| <= `_SWITCH` (s = 0, the mean, included) it is
    the power series sum_p (-1)^{p+1} t_p u^p/p, t_p = S_p/lam_Y^p =
    `_scaled_zeta`(2np, Y).  Elsewhere it is sum_k [log Gamma(Y) -
    log Gamma(Y - rho_k)] over the 2n roots rho_k = c^{1/2n} e^{i pi (2k+1)/2n}
    of x^{2n} = -c, which sum to zero, by Stirling's series.  For Re s > 0 no
    rho_k lies on [Y, inf), so G is analytic along the Bromwich contour.
    """

    def __init__(self, n, theta, delta, K):
        if K + 1 + delta <= 0:
            raise ValueError("delta too negative for the truncation index")
        self.n = n
        self.theta = theta
        self.delta = delta
        self.K = K
        j = np.arange(K + 1, K + 1 + _BLOCK)
        self._block = (theta / (np.pi * (j + delta))) ** (2 * n)
        self._Y = K + 1 + delta + _BLOCK
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
        """k-th s-derivative of G by its power series in u.  The powers
        u^0, u^1, ... come from one cumulative product, so a scalar u costs
        a few numpy calls rather than one per term; the terms are summed
        from the highest power down, the order Horner's rule adds them in."""
        c = self._coef[k]
        terms = np.empty(np.shape(u) + c.shape, np.result_type(u, float))
        terms[..., 0] = 1.0
        terms[..., 1:] = np.expand_dims(u, -1)
        np.cumprod(terms, axis=-1, out=terms)
        terms *= c
        return terms[..., ::-1].sum(axis=-1)

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
#: worker's (samples x eigenvalues) Monte Carlo block; 4 MB of complex values
#: stays below the 8 MB work arrays of shooting, so freeing a chunk does not
#: raise the allocator's mmap threshold for later solves
_OUTER_ENTRIES = 1 << 18


def _log_laplace_sums(s, lam, k):
    """k-th s-derivative (k = 0, 1, 2) of -(1/2) sum_j log(1 + 2 s lam_j).

    s is a real or complex scalar or array; its points are taken in chunks
    so that no (points x eigenvalues) outer product exceeds
    `_OUTER_ENTRIES` entries.
    """
    s = np.asarray(s)
    flat = s.reshape(-1)
    step = max(1, _OUTER_ENTRIES // lam.size)
    out = []
    for i in range(0, flat.size, step):
        x = 2.0 * np.multiply.outer(flat[i:i + step], lam)
        if k == 0:
            out.append(-0.5 * np.sum(np.log1p(x), axis=-1))
        elif k == 1:
            out.append(-np.sum(lam / (1.0 + x), axis=-1))
        else:
            out.append(np.sum(2.0 * lam ** 2 / (1.0 + x) ** 2, axis=-1))
    return np.concatenate(out).reshape(s.shape)


def _positive_spectrum(lams):
    """lams as a float array, checked to be 1-d, nonempty and positive."""
    lam = np.asarray(lams, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("need a nonempty 1-d eigenvalue array")
    if (lam <= 0).any():
        raise ValueError("eigenvalues must be positive")
    return lam


def smallball_probability_exact(lams, r, tail=None):
    """P(sum_j lam_j xi_j^2 <= r^2) by saddle-point Bromwich inversion.

    lams: positive eigenvalues in descending order; tail: optional
    WeylTailModel continuing the sequence beyond len(lams).  The Laplace
    transform prod(1+2 s lam_j)^{-1/2} (times the tail factor) is tilted to
    the saddle of the integrand and integrated by trapezoid along the
    vertical contour, with the truncated ends restored by integration by
    parts; self-checks on step halving and end decay guard the result.
    """
    lam = _positive_spectrum(lams)
    if (np.diff(lam) > 0).any():
        raise ValueError("eigenvalues must be in descending order")
    if r <= 0:
        raise ValueError("radius must be positive")
    q = r * r

    def cgf(s, k):  # k-th derivative of log L(s), head plus tail
        out = _log_laplace_sums(s, lam, k)
        if tail is not None:
            out = out + tail.log_laplace(s, k)
        return out

    sstar = _solve_tilt(q, cgf)

    def log_integrand(u):  # s q + log L(s) - log s at s = s* + i u
        s = sstar + 1j * u
        return s * q + cgf(s, 0) - np.log(s)

    g0 = float(np.real(log_integrand(0.0)))
    sigma = 1.0 / math.sqrt(float(cgf(sstar, 2)) + 1.0 / sstar ** 2)

    def end_data(T):
        """Tail restoration and end-derivative data at the truncation point.

        tail_int: int_T^inf e^Phi du ~ -G(T)/Phi'(T) (1 + Phi''/Phi'^2);
        d1/d3: first/third u-derivatives of Re e^Phi at T, which feed the
        Euler-Maclaurin end corrections of the trapezoid (the u = 0 end
        contributes nothing because the integrand is even there).
        """
        sT = sstar + 1j * T
        G = np.exp(log_integrand(T) - g0)
        p1v = 1j * (q + cgf(sT, 1) - 1.0 / sT)
        p2v = -(cgf(sT, 2) + 1.0 / sT ** 2)
        tail_int = (-G / p1v * (1.0 + p2v / p1v ** 2)).real
        tail_err = abs(G) * abs(p2v) ** 2 / abs(p1v) ** 5 * 3.0
        d1 = (p1v * G).real
        d3 = ((p1v ** 3 + 3.0 * p1v * p2v) * G).real
        return tail_int, tail_err, d1, d3

    def quadrature(h, T):
        u = np.arange(0.0, T + 0.5 * h, h)
        vals = np.real(np.exp(log_integrand(u) - g0))
        S = h * (vals.sum() - 0.5 * vals[0] - 0.5 * vals[-1])
        tail_int, tail_err, d1, d3 = end_data(u[-1])
        S += -h * h / 12.0 * d1 + h ** 4 / 720.0 * d3
        return S + tail_int, tail_err, vals[-1]

    h = sigma / 8.0
    T = 40.0 * sigma
    total = None
    rel_err = None
    for _ in range(60):
        cand, end_err, last = quadrature(h, T)
        if not np.isfinite(cand):
            break  # no step or contour length makes a non-finite sum finite
        # end of contour must be resolved: integrand below 1e-16 of peak
        # or the integration-by-parts correction self-certified
        if abs(last) > 1e-16 and end_err > 1e-14 * max(abs(cand), 1e-300):
            T *= 2.0
            continue
        cand2, end_err2, _ = quadrature(0.5 * h, T)
        diff = abs(cand2 - cand)
        if diff < 1e-12 * abs(cand2) + 1e-300:
            total = cand2
            rel_err = (diff + end_err2) / abs(cand2)
            break
        h *= 0.5
    if total is None or total <= 0.0 or not np.isfinite(total):
        raise InversionUnstable(
            "Bromwich trapezoid failed its self-checks (refinement did not "
            "converge or the integral lost positivity)")
    logp = g0 + math.log(total / math.pi)
    p = min(math.exp(logp), 1.0)
    return ProbabilityEstimate(p=p, err=p * rel_err, method="saddlepoint",
                               log_p=logp)


def _solve_tilt(q, cgf):
    """Contour abscissa: the tilt solving q + cgf'(s) = 0 when it is well
    separated from the s = 0 pole, else the saddle of the full integrand
    (q + cgf'(s) = 1/s), which always exists on s > 0.  cgf(s, k) is the
    k-th derivative of log L at a real scalar s."""

    def bisect(fn):
        lo, hi = 1e-300, 1.0
        while not fn(hi) > 0:
            hi *= 2.0
            if hi > 1e280:
                raise TiltNotFound("tilt bracketing failed")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:  # adjacent doubles: mid is final
                break
            if fn(mid) > 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    if q < -float(cgf(0.0, 1)):  # below the mean of Q
        sstar = bisect(lambda s: q + float(cgf(s, 1)))
        curv = float(cgf(sstar, 2))
        sigma = 1.0 / math.sqrt(curv) if curv > 0 else np.inf
        if sstar >= 2.0 * sigma:
            return sstar
    # pole-anchored saddle of e^{sq} L(s)/s
    return bisect(lambda s: q + float(cgf(s, 1)) - 1.0 / s)


# ---------------------------------------------------------------------------
# Monte Carlo oracle


#: samples per Monte Carlo batch; each batch draws from its own spawned seed
_MC_BATCH = 100_000


def monte_carlo_probability(lams, eps, N, seed, tail=None):
    """Empirical P(sum lam_j xi_j^2 <= eps^2) from N Gaussian samples.

    lams: positive eigenvalues, in any order.  Sampling happens in the
    Karhunen-Loeve eigenbasis, where the squared norm is exactly the
    weighted chi-square sum, so no path construction is needed.  Batches of
    `_MC_BATCH` samples draw from seeds spawned off `seed` and run on a
    thread pool, one worker per available core; each draws its rows in
    blocks of at most `_OUTER_ENTRIES` normals into one reused buffer, which
    bounds the memory.  Hit counts are integers and a block-wise draw reads
    the same stream as a whole-batch draw, so a fixed (seed, N) pair gives
    the same p on any number of cores.  The optional tail model only
    reports the mean of the dropped remainder as `truncation_bias` (the
    estimate itself uses the given eigenvalues).
    """
    lam = _positive_spectrum(lams)
    if eps <= 0:
        raise ValueError("radius must be positive")
    if N < 1:
        raise ValueError("need at least one sample")
    q = eps * eps
    children = np.random.SeedSequence(seed).spawn(-(-N // _MC_BATCH))
    rows = max(1, _OUTER_ENTRIES // lam.size)

    def batch(i):  # hits among the samples of batch i
        rng = np.random.default_rng(children[i])
        b = min(_MC_BATCH, N - i * _MC_BATCH)
        buf = np.empty((min(rows, b), lam.size))
        hits = 0
        for start in range(0, b, rows):
            block = buf[:min(rows, b - start)]
            rng.standard_normal(out=block)
            np.square(block, out=block)
            hits += int(np.count_nonzero(block @ lam <= q))
        return hits

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
# probability-ratio convergence toward the determinant limit


@dataclass(frozen=True)
class ComparisonTable:
    """Exact-oracle probabilities on an eps grid for two weights, with the
    empirical ratio and the theoretical determinant limit."""

    eps: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    ratio: np.ndarray
    limit: float
    K: int


def comparison_convergence(problem, psi1, psi2, eps_values, K=200):
    """Table of (eps, p1, p2, p1/p2) plus the determinant-ratio limit.

    Spectra come from the shooting solver with K eigenvalues each and are
    continued by calibrated Weyl-tail models; probabilities from the
    saddle-point oracle.
    """
    limit = ratio_limit(problem, psi1, psi2)
    eps_values = np.asarray(sorted(eps_values, reverse=True), dtype=float)
    lams = []
    tails = []
    for w in (psi1, psi2):
        theta = normalization_integral(w, problem.op.n)
        spec = eigenvalues_shooting(problem.with_weight(w), K)
        lam = 1.0 / np.asarray(spec.mu)
        lams.append(lam)
        tails.append(WeylTailModel.calibrated(problem.op.n, theta, K,
                                              float(lam[-1])))
    p1 = np.empty(eps_values.size)
    p2 = np.empty(eps_values.size)
    for i, e in enumerate(eps_values):
        p1[i] = smallball_probability_exact(lams[0], e, tail=tails[0]).p
        p2[i] = smallball_probability_exact(lams[1], e, tail=tails[1]).p
    return ComparisonTable(eps=eps_values, p1=p1, p2=p2, ratio=p1 / p2,
                           limit=float(limit.ratio), K=K)
