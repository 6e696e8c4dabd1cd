"""Tests for the small-deviation module.

Hand-derived reference values used below:

* single standard eigenvalue: P(xi^2 <= r^2) = erf(r/sqrt(2));
  two unit eigenvalues: P(xi1^2+xi2^2 <= r^2) = 1 - exp(-r^2/2).
* integrated-Wiener case m = 0: prefactor in plain eps is 4/sqrt(pi)
  (C * sqrt(2) with C = 2/sqrt(pi/2)), rate exp(-1/(8 eps^2)).
* centered bridge: eigenfunctions cos(2 pi k t), sin(2 pi k t), so the
  eigenvalues are (2 pi k)^{-2} each with multiplicity two; steepest
  descent on L(s) = y/sinh(y), y = sqrt(s/2), gives
  P(||.|| <= eps) ~ sqrt(2/pi) eps^{-1} exp(-1/(8 eps^2)), which the
  m = 0 multiply-centered-bridge form must reproduce.
* the default Bogolyubov kernel is a 1-periodic convolution kernel, so it
  diagonalizes in the Fourier basis with lam_k = 1/(omega^2 + 4 pi^2 k^2),
  k in Z (k = 0 simple, k >= 1 twice).
* OU/Slepian eigenvalues behave like (sqrt(2)/(pi(k+delta)))^2, so their
  tail models carry theta_eff = sqrt(2) (the tilde transform absorbs it).
"""

import math
import os
import re
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest
from scipy.optimize import brentq

import greenball.smallball as smallball
from greenball.errors import (DegenerateTheta, GreenballError,
                              InversionUnstable, NotNormalized, TiltNotFound,
                              UnsupportedFamily)
from greenball.kernels import ProcessSpec, base_kernel, build_process, \
    catalog_problem, center_kernel
from greenball.model import Weight
from greenball.smallball import (AsymptoticForm, ProbabilityEstimate,
                                 WeylTailModel, _MC_BATCH,
                                 _OUTER_ENTRIES, _SWITCH, _exact_log_sums,
                                 _log_laplace_sums, _mc_chunks, _solve_tilt,
                                 comparison_convergence,
                                 constants, epsilon_transforms,
                                 evaluate_asymptotic, K_of, K_tilde_of,
                                 log_evaluate_asymptotic,
                                 monte_carlo_probability,
                                 process_asymptotic,
                                 smallball_probability_exact)
from greenball.spectrum import eigenvalues_shooting, nystrom_eigenvalues
from greenball.theta import ratio_limit, separated_ratio

UNIT = Weight.from_text("1")
# normalized for n = 1: int (0.5+1.5t)^{-2} dt = 1, endpoints 16 and 1/16
RATIO2 = Weight.from_text("(0.5+1.5*t)^(-4)")


def wiener_lams(K):
    return 1.0 / (((np.arange(1, K + 1) - 0.5) * np.pi) ** 2)


def bridge_lams(K):
    return 1.0 / ((np.arange(1, K + 1) * np.pi) ** 2)


class ExactTail:
    """The Wiener (Cameron-Martin) or bridge (Anderson-Darling) law past K
    eigenvalues, duck-typed as a tail model: the k-th s-derivative of
    log L(s) minus the first K terms, with L = cosh(y)^{-1/2} or
    (sinh(y)/y)^{-1/2}, y = sqrt(2 s).  log cosh and log sinh are written
    through e^{-2y}, which keeps the branch continuous for Re s > 0."""

    def __init__(self, kind, K):
        self.kind = kind
        self.head = wiener_lams(K) if kind == "wiener" else bridge_lams(K)
        # E Q = sum_j lam_j = 1/2 (Wiener), 1/6 (bridge)
        self.mean = (0.5 if kind == "wiener" else 1.0 / 6.0) - self.head.sum()

    def log_laplace(self, s, k=0):
        s = np.asarray(s)
        if k == 1 and s.ndim == 0 and s == 0:
            return -self.mean
        y = np.sqrt(2.0 * s)
        e = np.exp(-2.0 * y)
        if self.kind == "wiener":
            # log cosh y = y + log(1 + e) - log 2; its y-derivative is tanh y
            f = [y + np.log1p(e) - math.log(2.0), (1.0 - e) / (1.0 + e)]
            f.append(1.0 - f[1] ** 2)
        else:
            # log(sinh y/y) = y + log(1 - e) - log 2 - log y
            coth = (1.0 + e) / (1.0 - e)
            f = [y + np.log1p(-e) - math.log(2.0) - np.log(y),
                 coth - 1.0 / y]
            f.append(1.0 - coth ** 2 + 1.0 / y ** 2)
        # s-derivatives of -(1/2) log(...) by dy/ds = 1/y
        full = [-0.5 * f[0], -0.5 * f[1] / y,
                -0.5 * (f[2] - f[1] / y) / y ** 2]
        x = 2.0 * np.multiply.outer(s, self.head)
        head = [0.5 * np.log1p(x).sum(-1), (self.head / (1.0 + x)).sum(-1),
                -(2.0 * self.head ** 2 / (1.0 + x) ** 2).sum(-1)]
        return full[k] + head[k]


# ---------------------------------------------------------------------------
# constants, transforms, index sums


def test_constants():
    z1, d1 = constants(1)
    assert z1 == pytest.approx(-1.0)
    assert d1 == 0.5
    z2, d2 = constants(2)
    assert z2 == pytest.approx(1j)
    assert d2 == pytest.approx(3.0 / (2.0 * math.sqrt(2.0)), rel=1e-15)
    with pytest.raises(ValueError):
        constants(0)


def test_epsilon_transforms_order_one():
    e_n, e_t, e_h, c1 = epsilon_transforms(0.3, 1)
    assert e_n == pytest.approx(0.3 * math.sqrt(2.0), rel=1e-15)
    assert e_t == pytest.approx(0.3)
    assert e_h == pytest.approx(0.3)  # c_1 = 2 cancels the 2n
    assert c1 == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(ValueError):
        epsilon_transforms(0.0, 1)


def test_epsilon_transforms_order_two():
    s = math.sin(math.pi / 4.0)
    e_n, e_t, e_h, c2 = epsilon_transforms(0.1, 2)
    assert e_n == pytest.approx((0.1 * math.sqrt(4.0 * s)) ** (1 / 3),
                                rel=1e-14)
    assert e_t == pytest.approx((0.1 * math.sqrt(2.0 * s)) ** (1 / 3),
                                rel=1e-14)
    assert c2 == pytest.approx(2.0 * math.sqrt(math.pi) / (math.sqrt(math.pi)
                               / 2.0), rel=1e-13)  # Gamma(2)/Gamma(3/2)
    assert e_h == pytest.approx((0.1 * math.sqrt(4.0 / c2 * s)) ** (1 / 3),
                                rel=1e-14)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -0.1])
def test_non_finite_eps_is_rejected(eps):
    # a NaN eps used to give a NaN value and an infinite one a log value
    # of +inf, a log-probability above 0
    form = process_asymptotic(ProcessSpec("wiener"))
    for fn in (evaluate_asymptotic, log_evaluate_asymptotic):
        with pytest.raises(ValueError, match="positive and finite"):
            fn(form, eps)
    with pytest.raises(ValueError, match="positive and finite"):
        epsilon_transforms(eps, 1)


def test_index_sums():
    assert K_of(()) == 0
    assert K_of((1,)) == 3
    assert K_of((0, 1)) == 5
    assert K_of((1, 1)) == 8
    assert K_tilde_of((1,)) == 5
    assert K_tilde_of((1, 1)) == 12
    with pytest.raises(ValueError):
        K_of((2,))


# ---------------------------------------------------------------------------
# asymptotic forms: exact constants and internal consistency


def test_wiener_m0_prefactor():
    form = process_asymptotic(ProcessSpec("wiener"))
    # value = C (eps sqrt2) exp(-1/(8 eps^2)); plain-eps prefactor 4/sqrt(pi)
    assert form.C * math.sqrt(2.0) == pytest.approx(
        4.0 / math.sqrt(math.pi), abs=1e-12)
    assert form.gamma == 1.0
    assert form.D == 0.5
    v = evaluate_asymptotic(form, 0.1)
    expect = 4.0 / math.sqrt(math.pi) * 0.1 * math.exp(-12.5)
    assert v == pytest.approx(expect, rel=1e-12)
    assert v == pytest.approx(8.41e-7, rel=2e-4)


def test_weighted_wiener_ratio_two():
    f1 = process_asymptotic(ProcessSpec("wiener"), RATIO2)
    f2 = process_asymptotic(ProcessSpec("wiener"))
    v1 = evaluate_asymptotic(f1, 0.1)
    v2 = evaluate_asymptotic(f2, 0.1)
    assert v1 / v2 == pytest.approx(2.0, rel=1e-12)
    assert v1 == pytest.approx(1.682e-6, rel=2e-4)


def test_bridge_and_conditional_level0_coincide():
    fb = process_asymptotic(ProcessSpec("bridge"))
    fc = process_asymptotic(ProcessSpec("ciw", level=0))
    assert fb.C == pytest.approx(fc.C, rel=1e-12)
    assert fb.gamma == fc.gamma == 0.0
    assert fb.D == fc.D


def test_matern_one_is_ou():
    fm = process_asymptotic(ProcessSpec("matern", n=1))
    fo = process_asymptotic(ProcessSpec("ou"))
    assert fm.C == pytest.approx(fo.C, rel=1e-12)
    assert fm.gamma == fo.gamma == 2.0
    for eps in (0.2, 0.1, 0.05):
        assert evaluate_asymptotic(fm, eps) == pytest.approx(
            evaluate_asymptotic(fo, eps), rel=1e-12)


def test_slepian_is_sqrt_two_over_e_times_ou():
    fs = process_asymptotic(ProcessSpec("slepian"))
    fo = process_asymptotic(ProcessSpec("ou"))
    assert fs.C / fo.C == pytest.approx(math.sqrt(2.0 / math.e), rel=1e-12)
    assert fs.gamma == fo.gamma and fs.D == fo.D


def test_endpoint_exponents_match_comparison_closed_forms():
    """Weighted-to-unweighted ratios of the closed forms must agree with
    the boundary-determinant closed forms for the same problems (n = 1,
    separated conditions with the matching endpoint orders)."""
    pair1 = (RATIO2.psi0, RATIO2.psi1)
    pair2 = (1.0, 1.0)
    cases = [
        (ProcessSpec("wiener"), 0, 1),   # value + derivative ends
        (ProcessSpec("bridge"), 0, 0),   # value + value
        (ProcessSpec("ou"), 1, 1),       # Robin: leading order 1 both ends
        (ProcessSpec("slepian"), 1, 1),
    ]
    for spec, k0, k1 in cases:
        fw = process_asymptotic(spec, RATIO2)
        fu = process_asymptotic(spec)
        got = evaluate_asymptotic(fw, 0.07) / evaluate_asymptotic(fu, 0.07)
        want = separated_ratio(1, k0, k1, pair1, pair2).ratio
        assert got == pytest.approx(want, rel=1e-10), spec.family


def test_not_normalized_rejected():
    with pytest.raises(NotNormalized):
        process_asymptotic(ProcessSpec("wiener"), Weight.from_text("2"))
    # normalization is order-sensitive: this weight is normalized for n = 1
    # but not for the twice-integrated process (n = 3)
    with pytest.raises(NotNormalized):
        process_asymptotic(ProcessSpec("wiener", m=2, betas=(0, 0)),
                               RATIO2)


def test_unsupported_transform_chains():
    for spec in (ProcessSpec("ou", centerings=1),
                 ProcessSpec("wiener", center_final=True),
                 ProcessSpec("bridge", m=1, betas=(0,), center_final=True),
                 ProcessSpec("bridge", centerings=2),
                 ProcessSpec("matern", n=2, m=1, betas=(0,)),
                 ProcessSpec("ciw", level=1, m=1, betas=(1,))):
        with pytest.raises(UnsupportedFamily):
            process_asymptotic(spec)


def test_degenerate_centered_integrated_bridge_patterns():
    # both endpoint products vanish exactly when the last two
    # integration-limit flags are 1 (possible only for m >= 2)
    for m, betas in ((2, (1, 1)), (3, (0, 1, 1)), (3, (1, 1, 1))):
        with pytest.raises(DegenerateTheta):
            process_asymptotic(
                ProcessSpec("bridge", m=m, betas=betas, centerings=1))
    for m, betas in ((0, ()), (1, (0,)), (1, (1,)), (2, (0, 1)),
                     (2, (1, 0)), (3, (1, 0, 1))):
        form = process_asymptotic(
            ProcessSpec("bridge", m=m, betas=betas, centerings=1))
        assert np.isfinite(form.endpoint_correction)


def test_positivity_and_finiteness_sweep():
    specs = []
    for m in range(4):
        for betas in product((0, 1), repeat=m):
            specs.append(ProcessSpec("wiener", m=m, betas=betas))
            specs.append(ProcessSpec("bridge", m=m, betas=betas))
            specs.append(ProcessSpec("ou", m=m, betas=betas))
            specs.append(ProcessSpec("slepian", m=m, betas=betas))
            specs.append(ProcessSpec("bogolyubov", m=m, betas=betas,
                                     omega=0.7))
            if not (m >= 2 and betas[-2:] == (1, 1)):
                specs.append(ProcessSpec("bridge", m=m, betas=betas,
                                         centerings=1))
    for n in range(1, 5):
        specs.append(ProcessSpec("matern", n=n))
    for level in range(4):
        specs.append(ProcessSpec("ciw", level=level))
    for c in range(4):
        specs.append(ProcessSpec("bridge", centerings=c, center_final=True))
    for spec in specs:
        form = process_asymptotic(spec)
        v = evaluate_asymptotic(form, 0.2)
        assert v > 0 and np.isfinite(v), spec
        assert np.isfinite(log_evaluate_asymptotic(form, 0.2)), spec


def test_underflow_reports_log():
    form = process_asymptotic(ProcessSpec("wiener"))
    assert evaluate_asymptotic(form, 0.005) == 0.0
    logv = log_evaluate_asymptotic(form, 0.005)
    assert np.isfinite(logv) and logv < -4000
    # past that the log itself leaves the doubles: eps_n^2 underflows to 0
    # at 1e-170, and D / (2 eps_n^2) overflows at 1e-160
    for eps in (1e-160, 1e-170):
        for fn in (evaluate_asymptotic, log_evaluate_asymptotic):
            with pytest.raises(ValueError, match=f"eps = {eps:g} is out"):
                fn(form, eps)


def test_asymptotic_form_validation():
    with pytest.raises(ValueError):
        AsymptoticForm(C=-1.0, gamma=0.0, D=1.0, transform="eps_n", order=1)
    with pytest.raises(ValueError):
        AsymptoticForm(C=1.0, gamma=0.0, D=0.0, transform="eps_n", order=1)
    with pytest.raises(ValueError):
        AsymptoticForm(C=1.0, gamma=0.0, D=1.0, transform="nope", order=1)


# ---------------------------------------------------------------------------
# exact distribution oracle


def test_single_eigenvalue_is_erf():
    est = smallball_probability_exact(np.array([1.0]), 1.0)
    assert est.method == "saddlepoint"
    assert abs(est.p - math.erf(1.0 / math.sqrt(2.0))) < 1e-8


def test_two_equal_eigenvalues_exponential():
    est = smallball_probability_exact(np.array([1.0, 1.0]), math.sqrt(2.0))
    assert abs(est.p - (1.0 - math.exp(-1.0))) < 1e-8


@pytest.mark.parametrize("r", [0.05, 0.3, 2.5])
def test_erf_oracle_across_radii(r):
    est = smallball_probability_exact(np.array([1.0]), r)
    ref = math.erf(r / math.sqrt(2.0))
    assert est.p == pytest.approx(ref, rel=1e-9)


def test_scaling_identity():
    lam = np.array([2.0, 0.7, 0.3, 0.1])
    c = 3.7
    a = smallball_probability_exact(c * lam, 0.8)
    b = smallball_probability_exact(lam, 0.8 / math.sqrt(c))
    assert a.p == pytest.approx(b.p, rel=1e-10)


def test_exact_oracle_input_validation():
    with pytest.raises(ValueError):
        smallball_probability_exact(np.array([1.0, 2.0]), 1.0)  # ascending
    with pytest.raises(ValueError):
        smallball_probability_exact(np.array([1.0, -1.0]), 1.0)
    with pytest.raises(ValueError):
        smallball_probability_exact(np.array([]), 1.0)
    with pytest.raises(ValueError):
        smallball_probability_exact(np.array([1.0]), 0.0)
    for r in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="radius"):
            smallball_probability_exact(np.array([1.0, 0.5]), r)


@pytest.mark.parametrize("lams", [[1.0, math.nan], [math.nan, 1.0],
                                  [1.0, math.inf], [math.inf, 1.0],
                                  [1.0, -math.inf]],
                         ids=["nan-last", "nan-first", "inf-last",
                              "inf-first", "minus-inf"])
def test_exact_oracle_refuses_non_finite_eigenvalues(lams):
    # NaN once reached the saddle search (TiltNotFound) and +inf the order
    # check; both are input errors, named as such before any numerics
    with pytest.raises(ValueError, match="positive and finite"):
        smallball_probability_exact(np.array(lams), 1.0)


@pytest.mark.parametrize("tail", [False, True], ids=["head", "tail"])
@pytest.mark.parametrize("r", [0.05, 0.2, 0.5, 1.0])
def test_tilt_bisection_stops_when_bracket_is_tight(r, tail):
    # every r solves for the pole-anchored saddle from s = 1/r^2, below and
    # above the mean alike.  Newton steps shrink the bracket to 64 ulps,
    # bisection to adjacent doubles, and s* ends it: the saddle equation
    # changes sign within s* (1 +- 4 eps).  The solve takes at most 16
    # transform evaluations (a bisection from the first double took about
    # 115, a tilt solved first and the saddle from it up to 27)
    lam = wiener_lams(200)
    model = (WeylTailModel.calibrated(1, 1.0, 200, float(lam[-1]))
             if tail else None)
    calls = []

    def cgf(s, k):
        calls.append(k)
        out = _log_laplace_sums(s, lam, k)
        return out if model is None else out + model.log_laplace(s, k)

    q = r * r
    sstar = _solve_tilt(q, cgf)
    used = len(calls)

    def equation(s):  # negative left of the root, positive right of it
        return q + float(cgf(s, 1)) - 1.0 / s

    u = np.finfo(float).eps
    assert equation(sstar * (1 - 4 * u)) <= 0.0 < equation(sstar * (1 + 4 * u))
    assert used <= 16, used


def test_tilt_failure_reported():
    # r^2 = 1e-300 and 1e-310 are positive doubles, but the saddle point lies
    # past _S_MAX; the message names the eps and the searched range
    for r in (1e-150, 1e-155):
        with pytest.raises(TiltNotFound, match=re.escape(
                f"eps = {r:g}: the saddle-point search passed out of "
                "[1e-300, 1e+280]")):
            smallball_probability_exact(np.array([1.0]), r)
    # a radius whose square is 0 or inf is refused before any tilt search
    for r in (1e-200, 1e300):
        with pytest.raises(ValueError, match=re.escape(f"eps = {r:g} is")):
            smallball_probability_exact(np.array([1.0]), r)


def test_tiny_eps_ends_in_an_estimate_or_a_typed_error():
    """eps from 1e-20 to 1e-150 on Wiener K = 200 with its fitted tail and
    on the bare bridge K = 200: each call returns an estimate or raises
    GreenballError or ValueError, with no warning on the way (the suite
    turns a RuntimeWarning into an error).  The bare bridge is a finite sum
    of 200 weighted chi-squares, whose law at such radii is the volume of
    its ellipsoid, P = r^K prod (2 lam_j)^{-1/2} / Gamma(K/2 + 1); its
    estimates match that to 1e-12 in log p."""
    K = 200
    wiener, bridge = wiener_lams(K), bridge_lams(K)
    law = (-0.5 * math.fsum(np.log(2.0 * bridge)) - math.lgamma(K / 2 + 1))
    found = 0
    for lam, tail in ((wiener, WeylTailModel.fitted(1, wiener)),
                      (bridge, None)):
        for eps in np.geomspace(1e-20, 1e-150, 27):
            try:
                est = smallball_probability_exact(lam, eps, tail=tail)
            except (GreenballError, ValueError):
                continue
            assert isinstance(est, ProbabilityEstimate)
            if tail is None:
                want = K * math.log(eps) + law
                assert abs(est.log_p - want) <= 1e-12 * abs(want), eps
                found += 1
    assert found >= 12, found  # every bridge eps down to 1e-75


@pytest.mark.parametrize("r", [1e3, 1e10, 1e40])
@pytest.mark.parametrize("with_tail", [False, True], ids=["bare", "tail"])
def test_err_bounds_the_error_near_the_pole(r, with_tail):
    """At radii far above the mean the saddle point s* ~ 1/r^2 sits next to
    the pole of 1/s at 0, and the integrand decays only like 1/u along the
    contour: there the Phi^(3)/Phi'^3 term of the restored end is as large
    as the Phi''^2/Phi'^4 one.  Wiener K = 200 has 1 - p below 1e-300 at
    these radii, so |1 - p| is the error, which err must bound (it read
    6.3e-13 against an err of 1.7e-14 when the restoration stopped at
    Phi'')."""
    lam = wiener_lams(200)
    tail = WeylTailModel.fitted(1, lam) if with_tail else None
    est = smallball_probability_exact(lam, r, tail=tail)
    assert abs(1.0 - est.p) <= est.err, (1.0 - est.p, est.err)


def test_estimate_invariants():
    with pytest.raises(ValueError):
        ProbabilityEstimate(p=1.5, err=0.0, method="saddlepoint")
    with pytest.raises(ValueError):
        ProbabilityEstimate(p=0.5, err=-1.0, method="saddlepoint")
    for method in ("saddlepoint", "montecarlo"):
        with pytest.raises(ValueError, match="log probability"):
            ProbabilityEstimate(p=1.0, err=0.0, method=method, log_p=1e-14)
    # asymptotic evaluations may legitimately exceed 1 outside their range
    ProbabilityEstimate(p=1.5, err=0.0, method="asymptotic")


def test_deep_tail_logs_are_finite():
    est = smallball_probability_exact(wiener_lams(200), 0.04)
    assert est.p >= 0.0
    assert np.isfinite(est.log_p) and est.log_p < -30


def test_small_radius_memory_is_bounded():
    # the contour is chunked so that no (points x eigenvalues) outer product
    # exceeds a fixed number of entries; log p is the exact Wiener law's,
    # -(1/2) log cosh sqrt(2 s) through the same inversion
    lam = wiener_lams(200)
    tail = WeylTailModel.calibrated(1, 1.0, 200, float(lam[-1]))
    tracemalloc.start()
    try:
        est = smallball_probability_exact(lam, 5e-3, tail=tail)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.log_p == pytest.approx(-5004.484487923366, rel=1e-12)
    assert peak < 100e6


def test_non_finite_transform_fails_the_self_check():
    # a tail whose transform is NaN off the real axis leaves the tilt
    # intact but poisons the contour: the trapezoid must stop at once and
    # raise, not halve its step on a NaN sum

    class BrokenTail:
        def log_laplace(self, s, k=0):
            return np.full(np.shape(s), np.nan if np.iscomplexobj(s) else 0.0)

    with np.errstate(invalid="ignore"), pytest.raises(InversionUnstable):
        smallball_probability_exact(wiener_lams(50), 0.2, tail=BrokenTail())


def test_unsettled_sums_stop_at_the_node_cap():
    # a transform perturbed by 1e-3 noise at every contour node: the
    # trapezoid sums never agree to 1e-12, and each step halving doubles
    # the nodes.  They stop below `_MAX_NODES` (2^20) with InversionUnstable
    # instead of growing until memory runs out

    class NoisyTail:
        rng = np.random.default_rng(7)

        def log_laplace(self, s, k=0):
            if k or not np.iscomplexobj(s):
                return np.zeros(np.shape(s))
            return 1e-3 * self.rng.standard_normal(np.shape(s))

    tracemalloc.start()
    try:
        with pytest.raises(InversionUnstable, match="1048576 nodes"):
            smallball_probability_exact(wiener_lams(50), 0.2,
                                        tail=NoisyTail())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6, peak / 1e6


def test_contour_nodes_are_evaluated_once():
    # a tail that adds nothing records each complex abscissa at which a
    # derivative of log L is taken; r = 0.05 takes one step halving, r = 0.5
    # contour doublings and a step halving, and no (derivative, abscissa)
    # pair repeats: halving evaluates the odd nodes only, doubling the new
    # stretch only, and the end data at an unchanged T carry over

    class RecordingTail:
        def __init__(self):
            self.calls = []

        def log_laplace(self, s, k=0):
            if np.iscomplexobj(s):
                self.calls.append((k, np.ravel(s).copy()))
            return np.zeros(np.shape(s))

    for r, want in ((0.05, {"halving"}), (0.5, {"halving", "doubling"})):
        tail = RecordingTail()
        smallball_probability_exact(wiener_lams(200), r, tail=tail)
        seen = [(k, x) for k, s in tail.calls for x in s.tolist()]
        assert len(seen) == len(set(seen)), r
        # node batches after the first: a doubling lies past every node
        # evaluated so far, a halving in between them
        batches = [s.imag for k, s in tail.calls if k == 0 and s.size > 1]
        kinds = {"doubling" if u.min() > top else "halving"
                 for u, top in zip(batches[1:], np.maximum.accumulate(
                     [u.max() for u in batches]))}
        assert kinds == want, r


def _cantilever_lams(K):
    # integrated Wiener: mu = x^4 with cos x + sech x = 0, x in ((k-1)pi, k pi)
    f = lambda x: math.cos(x) + 1.0 / math.cosh(x)
    x = np.array([brentq(f, (k - 1) * math.pi, k * math.pi, xtol=1e-14)
                  for k in range(1, K + 1)])
    return 1.0 / x ** 4


def test_err_is_honest_on_benchmark_saddle_inputs():
    # the benchmark's saddle-point set: Cramer-von Mises radii on the bridge
    # (K = 500, calibrated tail), the Wiener and cantilever eps grids with
    # fitted tails, and a radius bisection to p = 1e-2 on bare Wiener
    # K = 200.  err stays within 1e-8 of p, and never falls below the
    # rounding of the trapezoid sum, even where two sums agree bit for bit
    bridge = bridge_lams(500)
    wiener = wiener_lams(500)
    cant = _cantilever_lams(200)
    calls = [(bridge, WeylTailModel.calibrated(1, 1.0, 500, bridge[-1]),
              [math.sqrt(x) for x in (0.02, 0.03, 0.05, 0.0833, 0.11888,
                                      0.2, 0.3473, 0.46136, 0.74346)]),
             (wiener, WeylTailModel.fitted(1, wiener),
              np.geomspace(0.2, 0.03, 8)),
             (cant, WeylTailModel.fitted(2, cant),
              np.geomspace(0.05, 0.005, 6))]
    ests = [smallball_probability_exact(lam, r, tail=tail)
            for lam, tail, radii in calls for r in radii]
    lam = wiener_lams(200)
    lo, hi = 1e-6 * math.sqrt(lam.sum()), 4.0 * math.sqrt(lam.sum())
    for _ in range(41):
        mid = 0.5 * (lo + hi)
        ests.append(smallball_probability_exact(lam, mid))
        lo, hi = (mid, hi) if ests[-1].p < 1e-2 else (lo, mid)
    rel = np.array([e.err / e.p for e in ests])
    assert (rel <= 1e-8).all(), rel.max()
    assert (rel >= np.finfo(float).eps).all(), rel.min()


def test_complex_log_terms_match_high_precision():
    # the k = 0 terms at complex s, in real arithmetic, against a 40-digit
    # reference: Im-dominated |2 s lam| ~ 1e-12 (where numpy's complex
    # log1p can lose the whole real part), moderate values, and |2 s lam| up
    # to 1e300 (where a(2+a) + b^2 overflows), alone and in one row with a
    # small term, all without a warning
    mpmath = pytest.importorskip("mpmath")

    def reference(s, lam):
        with mpmath.workdps(40):
            return -mpmath.fsum(mpmath.log(1 + 2 * mpmath.mpc(s) * x)
                                for x in lam) / 2

    s = np.array([5e-20 + 5e-13j, 1e-25 + 1e-12j, 3e-13 + 4e-13j, 1e-13 + 0j,
                  0.3 + 0.7j, 2.0 + 1e4j, 1e3 + 1e-3j, 1e150 + 1e152j,
                  1e153 + 1e153j, 1.0 + 5e299j, 5e299 + 1e2j,
                  3e299 + 4e299j])
    rows = [(s, np.array([1.0])), (np.array([1e150 + 1e152j]),
                                   np.array([1.0, 1e-160]))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [_log_laplace_sums(x, lam, 0) for x, lam in rows]
    for (x, lam), g in zip(rows, got):
        for si, gi in zip(x, g):
            want = reference(si, lam)
            for part, ref in ((gi.real, want.real), (gi.imag, want.imag)):
                assert abs(part - float(ref)) <= 4e-16 * abs(ref), si


def _exact_terms(s, lam, k):
    """The K terms of `_log_laplace_sums` one by one, k = 0 at complex s in
    the real-arithmetic log form (checked against 40 digits above)."""
    x = 2.0 * s * lam
    if k == 1:
        return -lam / (1.0 + x)
    if k == 2:
        return 2.0 * (lam / (1.0 + x)) ** 2
    if not np.iscomplexobj(x):
        return -0.5 * np.log1p(x)
    a, b = x.real, x.imag
    with np.errstate(over="ignore"):
        m = np.log1p((2.0 + a) * a + b * b)
    big = np.isinf(m)
    m[big] = 2.0 * np.log(np.hypot(1.0 + a[big], b[big]))
    return -0.25 * m - 0.5j * np.arctan2(b, 1.0 + a)


@pytest.mark.parametrize("K", [1, 32, 500])
def test_split_sums_match_exact_terms(K, monkeypatch):
    # exact logs for |2 s lam_j| > 0.1 at every point of a call plus one
    # power series for the rest, against the correctly rounded sum of all K
    # exact terms: within 4 eps of sum |terms| for k = 0, 1, 2, real and
    # complex s from 1e-3 to 1e300.  Each prefix of the ascending points is
    # one call (one split index, at its largest |s|, and one pass of power
    # sums), so small points ride in batches split at every J; a single
    # point is the exact sum bit for bit.  The spectra decay like j^-2, j^-4
    # and j^-10 (lam_1/lam_K up to 1e27 at K = 500); normalized power sums
    # neither overflow nor lose the terms
    series = []
    suffix = smallball._suffix_power_sums
    monkeypatch.setattr(smallball, "_suffix_power_sums",
                        lambda lam, J, P: series.append(J) or
                        suffix(lam, J, P))
    j = np.arange(1, K + 1)
    mags = np.geomspace(1e-3, 1e300, 61)
    eps = np.finfo(float).eps
    for power in (2, 4, 10):
        lam = (1.0 / (math.pi * (j - 0.5))) ** power
        for phase in (0.0, 0.3, 1.2, 1.5):
            s = mags * np.exp(1j * phase) if phase else mags
            for k in (0, 1, 2):
                want, size = [], []
                for si in s:
                    terms = _exact_terms(si, lam, k)
                    size.append(np.abs(terms).sum())
                    want.append(complex(math.fsum(terms.real),
                                        math.fsum(terms.imag))
                                if np.iscomplexobj(terms)
                                else math.fsum(terms))
                want, size = np.array(want), np.array(size)
                for i, si in enumerate(s):
                    got = _log_laplace_sums(s[:i + 1], lam, k)
                    assert (np.abs(got - want[:i + 1])
                            <= 4 * eps * size[:i + 1]).all(), \
                        (power, phase, k, si)
                    assert _log_laplace_sums(si, lam, k) == \
                        _exact_log_sums(s[i:i + 1], lam, k)[0]
                if K > 1:  # the series took part, for this k too
                    assert series, (power, phase, k)
                series.clear()


def test_split_sums_keep_exact_path_where_nothing_is_small():
    # compare's K = 60 Wiener spectrum at its tilts (|2 s lam_K| > 0.1 for
    # every point) and any scalar s: the split adds nothing and the sums are
    # the exact ones bit for bit
    lam = wiener_lams(60)
    s = 2e4 + 1j * np.linspace(0.0, 1e5, 400)
    for k in (0, 1, 2):
        assert np.array_equal(_log_laplace_sums(s, lam, k),
                              _exact_log_sums(s, lam, k))
        for x in (1e-3, 3.0, 2e4 + 5e3j):
            assert _log_laplace_sums(x, lam, k) == \
                _exact_log_sums(np.array([x]), lam, k)[0]


def test_saddle_work_is_bounded_on_benchmark_inputs(monkeypatch):
    # the benchmark's saddle-point set (as in the err test above): the
    # saddle solves take at most 16 transform evaluations each (a bisection
    # took about 115, a tilt solved before the saddle up to 27) and the sums
    # evaluate about 3.02e6 exact terms (3.06e6 when every tail call summed
    # a block of 32 model eigenvalues, 5.3e6 with a trapezoid started at
    # sigma/8, 2.3e7 all-exact); any of these sliding back fails here
    solves, terms = [], [0]
    solve_tilt, exact = smallball._solve_tilt, smallball._exact_log_sums

    def counted_solve(q, cgf):
        def counted(s, k):
            solves[-1] += 1
            return cgf(s, k)
        solves.append(0)
        return solve_tilt(q, counted)

    def counted_exact(flat, lam, k):
        terms[0] += flat.size * lam.size
        return exact(flat, lam, k)

    monkeypatch.setattr(smallball, "_solve_tilt", counted_solve)
    monkeypatch.setattr(smallball, "_exact_log_sums", counted_exact)
    bridge, wiener, cant = bridge_lams(500), wiener_lams(500), \
        _cantilever_lams(200)
    runs = [(bridge, WeylTailModel.calibrated(1, 1.0, 500, bridge[-1]),
             [math.sqrt(x) for x in (0.02, 0.03, 0.05, 0.0833, 0.11888,
                                     0.2, 0.3473, 0.46136, 0.74346)]),
            (wiener, WeylTailModel.fitted(1, wiener),
             np.geomspace(0.2, 0.03, 8)),
            (cant, WeylTailModel.fitted(2, cant),
             np.geomspace(0.05, 0.005, 6))]
    for lam, tail, radii in runs:
        for r in radii:
            smallball_probability_exact(lam, r, tail=tail)
    lam = wiener_lams(200)
    lo, hi = 1e-6 * math.sqrt(lam.sum()), 4.0 * math.sqrt(lam.sum())
    for _ in range(41):
        mid = 0.5 * (lo + hi)
        p = smallball_probability_exact(lam, mid).p
        lo, hi = (mid, hi) if p < 1e-2 else (lo, mid)
    assert len(solves) == 64
    assert max(solves) <= 16, max(solves)
    assert terms[0] <= 3.03e6, terms[0]


# ---------------------------------------------------------------------------
# Weyl tail model


def test_tail_model_far_out_matches_exact_law():
    # s = 1e15 (and a contour point past it) costs the same constant work
    # as any other s and lands on the bridge law
    tail = WeylTailModel(1, 1.0, 0.0, 10)
    exact = ExactTail("bridge", 10)
    for s in (1e15, 1e15 + 3e14j):
        want = complex(exact.log_laplace(s))
        got = complex(tail.log_laplace(np.array([s]))[0])
        assert abs(got - want) <= 1e-14 * abs(want), s


@pytest.mark.parametrize("kind, K", product(("wiener", "bridge"), (5, 200)))
def test_tail_model_matches_exact_continuations(kind, K):
    """log L past K and its first two s-derivatives, against the exact
    laws, along the real axis and at contour points out to |s| = 1e12."""
    tail = WeylTailModel(1, 1.0, -0.5 if kind == "wiener" else 0.0, K)
    exact = ExactTail(kind, K)
    s = np.array([1.0, 30.0, 1e3, 1e6, 1e8, 1e10, 1e12, 5.0 + 3.0j,
                  50.0 + 300.0j, 1e4 + 1e5j, 1e6 + 1e8j, 1e12 + 1e11j,
                  2e8 + 7e11j])
    for k in (0, 1, 2):
        got = tail.log_laplace(s, k)
        want = exact.log_laplace(s, k)
        bound = 1e-14 * np.maximum(1.0, np.abs(want))
        assert (np.abs(got - want) <= bound).all(), k


def test_tail_model_split_invariant():
    """The power series and the Stirling root form agree where the model
    switches between them, |2 s lam_Y| = _SWITCH, to 1e-13 relative in the
    remainder and its first two s-derivatives; the mean is the Hurwitz
    value sum_{j>50} (pi(j-1/2))^{-2}."""
    from scipy.special import zeta as hurwitz_zeta
    exact_mean = hurwitz_zeta(2, 50.5) / np.pi ** 2
    assert WeylTailModel(1, 1.0, -0.5, 50).mean() == \
        pytest.approx(exact_mean, rel=1e-14)
    for n, (K, delta) in product(range(1, 7),
                                 ((0, 0.3), (50, -0.5), (2000, 0.25))):
        tail = WeylTailModel(n, 1.0, delta, K)
        u = _SWITCH * np.exp(1j * np.array([0.0, 0.4, 0.8, 1.2, 1.5]))
        s = u / (2.0 * tail._lam_Y)
        for k in (0, 1, 2):
            series = tail._series(u, k)
            roots = tail._stirling(s, k)
            assert np.abs(series - roots).max() <= \
                1e-13 * np.abs(roots).min(), (n, K, k)


def test_tail_series_matches_horner():
    """The power-table series equals Horner's rule (polyval) to within
    2e-16 of sum |c_p u^p| on the split-invariance grid, and a scalar
    takes the same path as an array."""
    for n, (K, delta) in product((1, 2, 3, 4),
                                 ((0, 0.3), (50, -0.5), (2000, 0.25))):
        tail = WeylTailModel(n, 1.0, delta, K)
        u = _SWITCH * np.exp(1j * np.array([0.0, 0.4, 0.8, 1.2, 1.5]))
        for k in (0, 1, 2):
            c = tail._coef[k]
            want = np.polynomial.polynomial.polyval(u, c)
            size = np.abs(u[:, None]) ** np.arange(c.size) @ np.abs(c)
            got = tail._series(u, k)
            assert (np.abs(got - want) <= 2e-16 * size).all(), (n, K, k)
            assert tail._series(u[2], k) == got[2]


def _split_series_coefficients():
    """The head's split-series coefficients (`_log_laplace_sums`) on spectra
    decaying like j^-2, j^-4 and j^-10, K = 500, split at J = 0, 10, 200,
    for k = 0, 1, 2, with the 19 powers that |u| = 0.1 reads."""
    j = np.arange(1, 501)
    out = []
    for power, J in product((2, 4, 10), (0, 10, 200)):
        lam = (1.0 / (math.pi * (j - 0.5))) ** power
        T = smallball._suffix_power_sums(lam, J, 19)
        out += [-0.5 * smallball._log_series(T, lam[J], k) for k in range(3)]
    return out


def test_split_series_takes_the_powers_its_points_read(monkeypatch):
    """A batch whose largest |u| = |2 s lam_J| is at most 1e-3 needs no
    power sum past T_8 (`_REACH`), so it computes at most 8 of them, for
    k = 0, 1, 2 alike; whether a call splits does not depend on k."""
    sums = []
    suffix = smallball._suffix_power_sums
    monkeypatch.setattr(smallball, "_suffix_power_sums",
                        lambda lam, J, P: sums.append(P) or
                        suffix(lam, J, P))
    lam = wiener_lams(500)
    s = 1e-3 / (2.0 * lam[0]) * np.exp(1j * np.linspace(0.0, 1.5, 20))
    for x in (s, 0.01 * s, s.real):
        for k in (0, 1, 2):
            _log_laplace_sums(x, lam, k)
    assert len(sums) == 9 and max(sums) <= 8, sums


def test_truncated_series_match_full_degree():
    """Each point's Horner sum stops at the degree its |u| needs; from |u| =
    1e-12 to _SWITCH, real and at the phases above, that is within
    2e-16 sum |c_p u^p| of the full-degree polyval, for the tail's
    coefficients (n = 1..4, k = 0, 1, 2) and the head's split series, and
    every point alone gives the bits it gives in the mixed-degree batch."""
    mags = np.geomspace(1e-12, _SWITCH, 40)
    phases = np.exp(1j * np.array([0.0, 0.4, 0.8, 1.2, 1.5]))
    coefs = _split_series_coefficients()
    for n, (K, delta) in product((1, 2, 3, 4),
                                 ((0, 0.3), (50, -0.5), (2000, 0.25))):
        coefs += WeylTailModel(n, 1.0, delta, K)._coef
    for c in coefs:
        for u in (mags, np.outer(mags, phases).ravel()):
            want = np.polynomial.polynomial.polyval(u, c)
            size = np.abs(u[:, None]) ** np.arange(c.size) @ np.abs(c)
            got = smallball._power_series(u, c)
            assert (np.abs(got - want) <= 2e-16 * size).all()
            assert all(smallball._power_series(x, c) == g
                       for x, g in zip(u, got))
    # the degrees differ: |u| = 1e-4 never reads past u^7 of the tail's 61
    # terms, alone or next to a point that needs them all
    c = WeylTailModel(1, 1.0, -0.5, 500)._coef[0].copy()
    full = smallball._power_series(np.array([1e-4, 0.4j]), c)
    c[8:] = np.nan
    with np.errstate(invalid="ignore"):
        cut = smallball._power_series(np.array([1e-4, 0.4j]), c)
    assert cut[0] == full[0] == smallball._power_series(1e-4, c)
    assert np.isnan(cut[1])


def test_tail_block_only_lifts_y_to_the_floor():
    """Model eigenvalues are summed only while K + 1 + delta is below the
    floor (32 for n <= 4, 41 at n = 5); past it the tail is the closed
    form alone, and a block-free and a padded model describe the same
    eigenvalues."""
    for n, delta, K in ((1, -0.5, 32), (4, 0.0, 31), (5, 0.0, 40),
                        (1, -0.5, 500)):
        tail = WeylTailModel(n, 1.0, delta, K)
        assert tail._block.size == 0 and tail._Y == K + 1 + delta, (n, K)
    short = WeylTailModel(1, 1.0, -0.5, 30)
    assert short._block.size == 2 and short._Y == 32.5
    # the two padded eigenvalues plus the K = 32 tail are the K = 30 tail
    lam = wiener_lams(32)[30:]
    far = WeylTailModel(1, 1.0, -0.5, 32)
    for s in (0.5, 40.0, 3e4 + 2e5j, 1e9):
        for k in (0, 1, 2):
            want = far.log_laplace(s, k) + _log_laplace_sums(s, lam, k)
            assert abs(short.log_laplace(s, k) - want) <= \
                1e-15 * abs(want), (s, k)


def test_tail_runs_only_the_forms_its_points_need(monkeypatch):
    """A batch whose points all lie on one side of |2 s lam_Y| = _SWITCH
    never calls the other form; a batch across it calls each once."""
    calls = {"_series": 0, "_stirling": 0}
    for name in calls:
        form = getattr(WeylTailModel, name)

        def counted(self, x, k, name=name, form=form):
            calls[name] += 1
            return form(self, x, k)
        monkeypatch.setattr(WeylTailModel, name, counted)
    tail = WeylTailModel(1, 1.0, -0.5, 200)
    edge = _SWITCH / (2.0 * tail._lam_Y)
    for s, want in (([0.5 * edge, 0.9 * edge + 1j * edge / 3], (1, 0)),
                    ([2.0 * edge, 1e3 * edge * (1 + 1j)], (0, 1)),
                    ([0.5 * edge, 2.0 * edge], (1, 1)),
                    (0.5 * edge, (1, 0)), (3.0 * edge, (0, 1))):
        for k in (0, 1, 2):
            calls.update(_series=0, _stirling=0)
            tail.log_laplace(np.array(s), k)
            assert (calls["_series"], calls["_stirling"]) == want, (s, k)


def test_tail_model_is_finite_far_out():
    """Stirling's series at |s| = 1e40 ... 1e280, real and s(1 + i), for
    k = 0, 1, 2: finite, with no overflow on the way (the suite turns a
    RuntimeWarning into an error), with and without a block."""
    mags = 10.0 ** np.arange(40, 281, 20)
    for n, delta, K in ((1, -0.5, 0), (2, 0.3, 10), (4, 0.0, 500)):
        tail = WeylTailModel(n, 1.0, delta, K)
        for s in (mags, mags * (1 + 1j)):
            for k in (0, 1, 2):
                got = tail.log_laplace(s, k)
                assert np.isfinite(got).all(), (n, K, k)
                assert all(np.isfinite(tail.log_laplace(x, k)) for x in s)


def test_tail_model_derivatives_consistent():
    # step sized so the second difference stays above roundoff in f ~ 0.1
    tail = WeylTailModel(1, 1.0, -0.5, 50)
    s0, h = 40.0, 0.5
    f = lambda s: float(tail.log_laplace(s))
    d1 = float(tail.log_laplace(s0, 1))
    d2 = float(tail.log_laplace(s0, 2))
    assert d1 == pytest.approx((f(s0 + h) - f(s0 - h)) / (2 * h), rel=1e-4)
    assert d2 == pytest.approx((f(s0 + h) - 2 * f(s0) + f(s0 - h)) / h ** 2,
                               rel=1e-3)


def test_tail_model_fit_needs_two_eigenvalues():
    # a line through one point is undetermined (numpy only warns)
    with pytest.raises(ValueError, match="at least 2"):
        WeylTailModel.fitted(1, wiener_lams(1))
    assert WeylTailModel.fitted(1, wiener_lams(2)).delta == \
        pytest.approx(-0.5, abs=1e-9)


def test_tail_calibration_wiener_delta_is_minus_half():
    lam = wiener_lams(500)
    tail = WeylTailModel.calibrated(1, 1.0, 500, float(lam[-1]))
    assert tail.delta == pytest.approx(-0.5, abs=1e-10)


def test_tail_model_changes_deep_probabilities():
    """Dropping the spectral tail overstates deep small-ball decay by
    orders of magnitude; the continuation restores the asymptotic value."""
    lam = wiener_lams(500)
    tail = WeylTailModel.calibrated(1, 1.0, 500, float(lam[-1]))
    form = process_asymptotic(ProcessSpec("wiener"))
    with_tail = smallball_probability_exact(lam, 0.05, tail=tail)
    without = smallball_probability_exact(lam, 0.05)
    asym = log_evaluate_asymptotic(form, 0.05)
    assert math.exp(with_tail.log_p - asym) == pytest.approx(1.0, abs=0.05)
    # dropping the tail removes factors < 1 from the transform, inflating p
    assert without.log_p - asym > math.log(5.0)


def test_head_tail_seam_is_invisible():
    """Wiener with 200 computed eigenvalues and a calibrated tail, and with
    500 and a calibrated tail, describe the exact law: moving eigenvalues
    201..500 from the tail model into the head must not change p, and both
    match the exact law through the same inversion, down to r = 1e-3."""
    short, long = wiener_lams(200), wiener_lams(500)
    t200 = WeylTailModel.calibrated(1, 1.0, 200, float(short[-1]))
    t500 = WeylTailModel.calibrated(1, 1.0, 500, float(long[-1]))
    exact = ExactTail("wiener", 200)
    for r in (0.3, 0.1, 0.05, 0.02, 0.01, 5e-3, 2e-3, 1e-3):
        want = smallball_probability_exact(short, r, tail=exact).log_p
        for lam, tail in ((short, t200), (long, t500)):
            got = smallball_probability_exact(lam, r, tail=tail).log_p
            assert abs(got - want) <= 1e-12 * abs(want), (r, lam.size)


# ---------------------------------------------------------------------------
# closed forms vs the exact oracle on real spectra


def test_centered_bridge_spectrum_and_form():
    # Nystrom route must reproduce the analytic multiplicity-two spectrum
    kern = center_kernel(base_kernel("bridge"))
    res = nystrom_eigenvalues(kern, None, 20, grid=256)
    analytic = 1.0 / (2.0 * np.pi * np.repeat(np.arange(1, 11), 2)) ** 2
    assert np.max(np.abs(1.0 / res.mu - analytic) / analytic) < 1e-10
    # and the closed form must match the exact distribution
    lam = 1.0 / (2.0 * np.pi * np.repeat(np.arange(1, 1001), 2)) ** 2
    tail = WeylTailModel(1, 1.0, 0.5, 2000)
    form = process_asymptotic(ProcessSpec("bridge", center_final=True))
    for eps in (0.05, 0.03):
        sad = smallball_probability_exact(lam, eps, tail=tail)
        ratio = math.exp(sad.log_p - log_evaluate_asymptotic(form, eps))
        assert ratio == pytest.approx(1.0, abs=5e-3), eps


def test_periodic_kernel_spectrum_and_form():
    om = 1.3
    kern = base_kernel("bogolyubov", {"omega": om})
    res = nystrom_eigenvalues(kern, None, 20, grid=256)
    ks = np.arange(1, 11)
    analytic = np.sort(np.concatenate(
        [[1.0 / om ** 2], np.repeat(1.0 / (om ** 2 + 4 * np.pi ** 2 * ks ** 2),
                                    2)]))[::-1][:20]
    assert np.max(np.abs(1.0 / res.mu - analytic) / analytic) < 1e-10
    ks = np.arange(1, 2000)
    lam = np.sort(np.concatenate(
        [[1.0 / om ** 2],
         np.repeat(1.0 / (om ** 2 + 4 * np.pi ** 2 * ks ** 2), 2)]))[::-1]
    tail = WeylTailModel(1, 1.0, 0.5, lam.size)
    form = process_asymptotic(ProcessSpec("bogolyubov", omega=om))
    ratios = []
    for eps in (0.1, 0.06, 0.04):
        sad = smallball_probability_exact(lam, eps, tail=tail)
        ratios.append(math.exp(sad.log_p - log_evaluate_asymptotic(form, eps)))
    assert abs(ratios[-1] - 1.0) < 0.02
    assert abs(ratios[2] - 1.0) < abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)


def test_bridge_form_matches_exact():
    lam = bridge_lams(2000)
    tail = WeylTailModel.calibrated(1, 1.0, 2000, float(lam[-1]))
    form = process_asymptotic(ProcessSpec("bridge"))
    sad = smallball_probability_exact(lam, 0.04, tail=tail)
    assert math.exp(sad.log_p - log_evaluate_asymptotic(form, 0.04)) == \
        pytest.approx(1.0, abs=0.01)


def test_ou_and_slepian_forms_match_exact():
    for family in ("ou", "slepian"):
        res = nystrom_eigenvalues(base_kernel(family), None, 60, grid=512)
        lam = 1.0 / np.asarray(res.mu)
        tail = WeylTailModel.calibrated(1, math.sqrt(2.0), 60, float(lam[-1]))
        form = process_asymptotic(ProcessSpec(family))
        sad = smallball_probability_exact(lam, 0.04, tail=tail)
        ratio = math.exp(sad.log_p - log_evaluate_asymptotic(form, 0.04))
        assert ratio == pytest.approx(1.0, abs=0.02), family


def test_conditional_integrated_wiener_form_matches_exact():
    kern = build_process(ProcessSpec("ciw", level=1), grid=512)
    res = nystrom_eigenvalues(kern, None, 20, grid=512)
    lam = 1.0 / np.asarray(res.mu)
    tail = WeylTailModel.calibrated(2, 1.0, 20, float(lam[-1]))
    form = process_asymptotic(ProcessSpec("ciw", level=1))
    gaps = []
    for eps in (0.02, 0.01, 0.005):
        sad = smallball_probability_exact(lam, eps, tail=tail)
        gaps.append(abs(math.exp(
            sad.log_p - log_evaluate_asymptotic(form, eps)) - 1.0))
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 0.02


# ---------------------------------------------------------------------------
# Monte Carlo


def test_mc_single_eigenvalue():
    est = monte_carlo_probability(np.array([1.0]), 1.0, 10 ** 6,
                                  seed=20260825)
    assert est.method == "montecarlo"
    assert abs(est.p - 0.6827) < 0.0015
    assert est.err == pytest.approx(
        math.sqrt(est.p * (1 - est.p) / 10 ** 6), rel=1e-6)


def test_mc_two_eigenvalues():
    est = monte_carlo_probability(np.array([1.0, 1.0]), math.sqrt(2.0),
                                  10 ** 6, seed=7)
    assert abs(est.p - 0.6321) < 0.0015


def test_mc_reproducible():
    a = monte_carlo_probability(np.array([1.0, 0.5]), 1.0, 10 ** 5, seed=42)
    b = monte_carlo_probability(np.array([1.0, 0.5]), 1.0, 10 ** 5, seed=42)
    assert a.p == b.p
    c = monte_carlo_probability(np.array([1.0, 0.5]), 1.0, 10 ** 5, seed=43)
    assert c.p != a.p


def test_mc_agrees_with_saddlepoint():
    lam = wiener_lams(300)
    sad = smallball_probability_exact(lam, 0.26)
    mc = monte_carlo_probability(lam, 0.26, 2 * 10 ** 5, seed=1234)
    assert abs(sad.p - mc.p) < 3.0 * mc.err
    assert 1e-3 < sad.p < 0.2


def test_mc_truncation_bias_reported():
    lam = wiener_lams(100)
    tail = WeylTailModel.calibrated(1, 1.0, 100, float(lam[-1]))
    est = monte_carlo_probability(lam, 0.3, 10 ** 4, seed=0, tail=tail)
    assert est.truncation_bias == pytest.approx(tail.mean())
    assert est.truncation_bias > 0


@pytest.mark.parametrize("lams, eps, match", [
    ([], 0.5, "nonempty 1-d"),
    ([-1.0, 0.5], 0.5, "positive"),
    ([1.0, math.nan], 0.5, "positive and finite"),
    ([math.inf, 0.5], 0.5, "positive and finite"),
    ([1.0, -math.inf], 0.5, "positive and finite"),
    ([[1.0, 0.5]], 0.5, "nonempty 1-d"),
    ([1.0, 0.5], 0.0, "radius"),
    ([1.0, 0.5], -1.0, "radius"),
    ([1.0, 0.5], math.nan, "radius"),
    ([1.0, 0.5], math.inf, "radius"),
    ([1.0, 0.5], -math.inf, "radius"),
], ids=["empty", "negative", "nan", "inf", "minus-inf", "2-d", "zero-eps",
        "negative-eps", "nan-eps", "inf-eps", "minus-inf-eps"])
def test_mc_input_validation(lams, eps, match):
    with pytest.raises(ValueError, match=match):
        monte_carlo_probability(np.array(lams), eps, 1000, seed=0)


@pytest.mark.parametrize("N", [0, -5, 1e5, 100.0, 2.5, "1000", None])
def test_mc_sample_count_must_be_an_integer(N):
    # a float such as 1e5 is refused with the reason, not passed on to
    # SeedSequence.spawn; numpy integers are counts too
    with pytest.raises(ValueError, match="integer >= 1"):
        monte_carlo_probability(np.array([1.0, 0.5]), 1.0, N, seed=0)
    est = monte_carlo_probability(np.array([1.0, 0.5]), 1.0, np.int64(1000),
                                  seed=0)
    assert 0.0 < est.p < 1.0


def _mc_hits_serial(lam, q, N, seed):
    """Hits of the one-thread loop that draws each batch's column chunks
    whole: the largest eigenvalue, then 1, 2, 4, ... columns, for the
    samples whose partial sum has not yet passed q."""
    lam = np.sort(lam)[::-1].copy()
    hits, done = 0, 0
    for child in np.random.SeedSequence(seed).spawn(-(-N // _MC_BATCH)):
        rng = np.random.default_rng(child)
        b = min(_MC_BATCH, N - done)
        sums = np.zeros(b)
        lo = 0
        while lo < lam.size and sums.size:
            hi = min(2 * lo if lo else 1, lam.size)
            xi = rng.standard_normal((sums.size, hi - lo))
            sums = sums + (xi * xi) @ lam[lo:hi]
            sums = sums[sums <= q]
            lo = hi
        hits += sums.size
        done += b
    return hits


@pytest.mark.parametrize("N", [1, 99_999, 100_001, 350_000, 10 ** 6])
def test_mc_matches_serial_reference(N):
    # threads, row blocks and the in-place compaction change neither the
    # streams nor the integer sum
    lam = wiener_lams(200)
    est = monte_carlo_probability(lam, 0.6, N, seed=N)
    assert est.p == _mc_hits_serial(lam, 0.36, N, seed=N) / N


def test_mc_one_worker_matches_all_cores(monkeypatch):
    lam = wiener_lams(200)
    full = monte_carlo_probability(lam, 0.3, 350_000, seed=5)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert monte_carlo_probability(lam, 0.3, 350_000, seed=5).p == full.p


def test_mc_eigenvalue_order_is_irrelevant():
    # the chunks always take the largest eigenvalues first
    lam = wiener_lams(50)
    a = monte_carlo_probability(lam, 0.3, 200_000, seed=9)
    b = monte_carlo_probability(lam[::-1], 0.3, 200_000, seed=9)
    assert a.p == b.p


@pytest.mark.parametrize("K", [1, 2, 3])
def test_mc_short_spectrum_matches_serial_reference(K):
    # one, two and three columns: the chunks [0, 1), [1, 2) and [2, 3), the
    # last one shorter than its doubling, each drawn as one chunk whole
    lam = np.array([1.0, 0.5, 0.25])[:K]
    est = monte_carlo_probability(lam, 1.0, 250_000, seed=42)
    assert 0.0 < est.p < 1.0
    assert est.p == _mc_hits_serial(lam, 1.0, 250_000, seed=42) / 250_000


@pytest.mark.parametrize("K", [1, 2, 3, 8, 9, 200, (1 << 18) + 5,
                               (1 << 20) + 3])
def test_mc_chunks_tile_the_columns(K):
    # widths 1, 1, 2, 4, ... from column 0 to K with no gap or overlap, all
    # but the last at their doubled width, capped at _OUTER_ENTRIES
    chunks = list(_mc_chunks(K))
    assert chunks[0][0] == 0 and chunks[-1][1] == K
    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
    widths = [hi - lo for lo, hi in chunks]
    want = [min(1 << max(i - 1, 0), _OUTER_ENTRIES)
            for i in range(len(chunks))]
    assert widths[:-1] == want[:-1]
    assert 1 <= widths[-1] <= want[-1]


def test_mc_draws_few_normals_at_small_p(monkeypatch):
    # at p ~ 1e-2 on Wiener K = 200 most samples pass eps^2 within their
    # first few columns; every normal drawn is counted through the batch's
    # generator.  One column first keeps the mean below 5 normals per
    # sample (the ideal, each sample dropped at its first column past eps^2,
    # is about 3.7; 8 columns first cost 10.5)
    lam = wiener_lams(200)
    r = brentq(lambda x: smallball_probability_exact(lam, x).p - 1e-2,
               0.1, 0.3, xtol=1e-12)
    drawn = []
    default_rng = np.random.default_rng

    class Counting:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, *args, out=None, **kwargs):
            x = self.rng.standard_normal(*args, out=out, **kwargs)
            drawn.append(np.size(x))
            return x

    monkeypatch.setattr(np.random, "default_rng", Counting)
    N = 2 * 10 ** 5
    est = monte_carlo_probability(lam, r, N, seed=11)
    assert abs(est.p - 1e-2) < 4.0 * est.err
    assert sum(drawn) <= 5 * N, sum(drawn) / N


def test_mc_extreme_radii():
    lam = wiener_lams(200)
    assert monte_carlo_probability(lam, 1e3, 10 ** 4, seed=3).p == 1.0
    tiny = monte_carlo_probability(lam, 1e-3, 10 ** 4, seed=3)
    assert tiny.p == 0.0
    assert tiny.log_p == -math.inf


def test_mc_memory_is_bounded():
    # one block of at most _OUTER_ENTRIES normals per worker; a whole batch
    # drawn at once held two 160 MB arrays
    tracemalloc.start()
    try:
        monte_carlo_probability(wiener_lams(200), 0.6, 10 ** 6, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


# ---------------------------------------------------------------------------
# convergence table


def test_comparison_convergence_table():
    spectra = [eigenvalues_shooting(catalog_problem(ProcessSpec("wiener"), w),
                                    40) for w in (RATIO2, UNIT)]
    table = comparison_convergence(*spectra, 1, [0.15, 0.1])
    limit = ratio_limit(catalog_problem(ProcessSpec("wiener")), RATIO2, UNIT)
    assert limit.ratio == pytest.approx(2.0, abs=1e-10)
    assert table.eps[0] > table.eps[1]
    assert np.all(table.p1 > 0) and np.all(table.p2 > 0)
    assert np.allclose(table.ratio, table.p1 / table.p2)
    # gap to the limit shrinks as eps decreases
    assert abs(table.ratio[1] - 2.0) < abs(table.ratio[0] - 2.0)
    assert abs(table.ratio[1] - 2.0) < 0.12
