"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (visible in the pytest summary via -rA).  Reference values
are classical closed forms, independent of the implementation under test:

1. Wiener eigenvalues mu_k = ((k-1/2) pi)^2 and bridge mu_k = (k pi)^2,
   reproduced by shooting (rel 1e-8) and a 1024-point Nystrom grid
   (rel 1e-6) for k <= 10, in under 10 s.
2. For psi1 = (0.5+1.5t)^(-4) (unit normalization integral) against
   psi2 = 1 on the Wiener problem, the extrapolated eigenvalue-ratio
   product over K = 200 eigenvalues equals 4 within 1e-2, and the
   boundary-determinant route gives exactly 4 to 1e-10, in under 60 s.
3. For >= 100 randomized separated / one-coupled-pair / periodic boundary
   configurations with n <= 3, the closed-form comparison ratios match
   direct determinant-quotient evaluation to rel 1e-10.
4. The saddle-point probability ratio p_{psi1}(eps)/p_{psi2}(eps) for the
   criterion-2 pair reaches 2 +- 2% at eps = 0.05, with |ratio - 2|
   decreasing monotonically over eps in {0.15, 0.10, 0.07, 0.05}, in
   under 120 s.
5. The closed small-deviation form for the Wiener process carries the
   prefactor 4/sqrt(pi) (to 1e-12), and the saddle-point probability on
   the analytic Wiener spectrum (500 eigenvalues plus tail model) agrees
   with that form within 5% at eps = 0.05.
6. Monte Carlo (N = 10^6, fixed seeds) agrees with the saddle-point
   inversion within 3 standard errors at a radius where p ~ 1e-2, for
   the Wiener, bridge, Ornstein-Uhlenbeck, and Slepian processes, in
   under 120 s.
7. The first-order Matern kernel reproduces the exponential-covariance
   (Ornstein-Uhlenbeck) spectrum: first 20 Nystrom eigenvalues coincide
   to rel 1e-6.
8. Property suites: determinant-ratio symmetry and transitivity,
   permutation invariance of boundary classification, kernel positive
   semidefiniteness and centering annihilation, and the scaling identity
   of the exact-distribution evaluator.
"""

import itertools
import math
import time

import numpy as np
import pytest

from greenball.kernels import (ProcessSpec, base_kernel, build_process,
                               catalog_problem, center_kernel)
from greenball.model import (BoundaryCondition, BVProblem, OperatorSpec,
                             Weight, classify_boundary_conditions)
from greenball.quadrature import Grid
from greenball.smallball import (WeylTailModel, comparison_convergence,
                                 evaluate_asymptotic, monte_carlo_probability,
                                 process_asymptotic,
                                 smallball_probability_exact)
from greenball.spectrum import (eigenvalue_product, eigenvalues_shooting,
                                nystrom_eigenvalues)
from greenball.theta import (ThetaInput, nonseparated_ratio, periodic_ratio,
                             ratio_limit, separated_ratio, theta_det)

BC = BoundaryCondition
UNIT = Weight.from_text("1")
RATIO2 = Weight.from_text("(0.5+1.5*t)^(-4)")  # normalization integral 1


def report(num, ok, detail):
    print(f"ACCEPTANCE CRITERION {num}: {'PASS' if ok else 'FAIL'} "
          f"({detail})")
    assert ok, f"criterion {num}: {detail}"


WIENER = catalog_problem(ProcessSpec("wiener"))
BRIDGE = catalog_problem(ProcessSpec("bridge"))


def wiener_lams(K):
    k = np.arange(1, K + 1)
    return 1.0 / ((k - 0.5) * np.pi) ** 2


def bridge_lams(K):
    k = np.arange(1, K + 1)
    return 1.0 / (k * np.pi) ** 2


# ---------------------------------------------------------------------------


def test_criterion_1_analytic_spectra():
    t0 = time.perf_counter()
    worst_shoot = worst_nys = 0.0
    for problem, kern_name, exact in (
            (WIENER, "wiener", 1.0 / wiener_lams(10)),
            (BRIDGE, "bridge", 1.0 / bridge_lams(10))):
        mu_s = eigenvalues_shooting(problem, 10).mu
        worst_shoot = max(worst_shoot,
                          float(np.max(np.abs(mu_s - exact) / exact)))
        mu_n = nystrom_eigenvalues(base_kernel(kern_name), None, 10,
                                   grid=1024).mu
        worst_nys = max(worst_nys,
                        float(np.max(np.abs(mu_n - exact) / exact)))
    dt = time.perf_counter() - t0
    ok = worst_shoot < 1e-8 and worst_nys < 1e-6 and dt < 10.0
    report(1, ok, f"shooting rel {worst_shoot:.2e} < 1e-8, Nystrom rel "
                  f"{worst_nys:.2e} < 1e-6, runtime {dt:.1f}s < 10s")


def test_criterion_2_product_identity():
    t0 = time.perf_counter()
    limit = ratio_limit(WIENER, RATIO2, UNIT)
    det_gap = abs(limit.product - 4.0)
    s1 = eigenvalues_shooting(catalog_problem(ProcessSpec("wiener"), RATIO2),
                              200)
    s2 = eigenvalues_shooting(catalog_problem(ProcessSpec("wiener"), UNIT),
                              200)
    prod, perr = eigenvalue_product(s1, s2)
    prod_gap = abs(prod - 4.0)
    dt = time.perf_counter() - t0
    ok = det_gap <= 1e-10 and prod_gap <= 1e-2 and dt < 60.0
    report(2, ok, f"determinant route |.-4| = {det_gap:.1e} <= 1e-10, "
                  f"K=200 product |.-4| = {prod_gap:.1e} <= 1e-2 "
                  f"(est err {perr:.1e}), runtime {dt:.1f}s < 60s")


def test_criterion_3_closed_form_sweep():
    rng = np.random.default_rng(20260825)
    count, worst = 0, 0.0

    def endpoints():
        return tuple(np.exp(rng.uniform(-1.5, 1.5, 2)))

    def direct(n, bcs, p1, p2):
        ts = [theta_det(ThetaInput(n, tuple(bc.k for bc in bcs),
                                   tuple(bc.alpha for bc in bcs),
                                   tuple(bc.gamma for bc in bcs), *p), -1)
              for p in (p1, p2)]
        return abs(ts[1] / ts[0]) ** 0.5

    for n in (1, 2, 3):
        for _ in range(12):
            # separated: n distinct orders at each endpoint
            at0 = sorted(rng.permutation(2 * n)[:n].tolist())
            at1 = sorted(rng.permutation(2 * n)[:n].tolist())
            bcs = [BC(int(k), float(rng.uniform(0.5, 2.0)), 0.0)
                   for k in at0]
            bcs += [BC(int(k), 0.0, float(rng.uniform(0.5, 2.0)))
                    for k in at1]
            p1, p2 = endpoints(), endpoints()
            closed = separated_ratio(n, sum(at0), sum(at1), p1, p2).ratio
            worst = max(worst, abs(closed / direct(n, bcs, p1, p2) - 1.0))
            count += 1

            # one coupled pair with orders (ell, 2n-1-ell), remainder split
            ell = int(rng.integers(0, n))
            rest = [k for k in range(2 * n) if k not in (ell, 2 * n - 1 - ell)]
            rest = rng.permutation(rest).tolist()
            o0 = tuple(sorted(rest[:n - 1]))
            o1 = tuple(sorted(rest[n - 1:]))
            a, b = rng.uniform(0.4, 2.2, 2)
            bcs = ([BC(int(k), float(rng.uniform(0.5, 2.0)), 0.0)
                    for k in o0]
                   + [BC(int(k), 0.0, float(rng.uniform(0.5, 2.0)))
                      for k in o1]
                   + [BC(ell, float(a), float(b)),
                      BC(2 * n - 1 - ell, float(b), float(a))])
            p1, p2 = endpoints(), endpoints()
            closed = nonseparated_ratio(n, ell, a, b, sum(o0), sum(o1),
                                        o0, o1, p1, p2).ratio
            worst = max(worst, abs(closed / direct(n, bcs, p1, p2) - 1.0))
            count += 1

            # periodic template with random row scalings
            bcs = [BC(k, c, -c) for k, c in
                   zip(range(2 * n), rng.uniform(0.5, 2.0, 2 * n))]
            p1, p2 = endpoints(), endpoints()
            closed = periodic_ratio(n, p1, p2).ratio
            worst = max(worst, abs(closed / direct(n, bcs, p1, p2) - 1.0))
            count += 1

    ok = count >= 100 and worst < 1e-10
    report(3, ok, f"{count} random configurations, worst closed-vs-direct "
                  f"rel diff {worst:.2e} < 1e-10")


def test_criterion_4_probability_ratio_convergence():
    t0 = time.perf_counter()
    eps = (0.15, 0.10, 0.07, 0.05)
    limit = ratio_limit(WIENER, RATIO2, UNIT)
    spectra = [eigenvalues_shooting(catalog_problem(ProcessSpec("wiener"), w),
                                    200) for w in (RATIO2, UNIT)]
    table = comparison_convergence(*spectra, 1, eps)
    gaps = [abs(r - 2.0) for r in table.ratio]
    monotone = all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    final = gaps[-1]
    dt = time.perf_counter() - t0
    ok = (limit.ratio == pytest.approx(2.0, abs=1e-10) and monotone
          and final <= 0.04 and dt < 120.0)
    ratios = ", ".join(f"{r:.4f}" for r in table.ratio)
    report(4, ok, f"ratios [{ratios}] at eps {eps}, final gap "
                  f"{final:.3f} <= 0.04 (2%), monotone={monotone}, "
                  f"runtime {dt:.1f}s < 120s")


def test_criterion_5_wiener_prefactor_and_tail():
    form = process_asymptotic(ProcessSpec("wiener"))
    # value = C eps_1 exp(-D/(2 eps_1^2)) with eps_1 = eps sqrt(2), so the
    # prefactor in front of eps is C sqrt(2)
    prefactor_gap = abs(form.C * math.sqrt(2.0) - 4.0 / math.sqrt(math.pi))

    lam = wiener_lams(500)
    tail = WeylTailModel.calibrated(1, 1.0, 500, lam[-1])
    est = smallball_probability_exact(lam, 0.05, tail=tail)
    agree = abs(est.p / evaluate_asymptotic(form, 0.05) - 1.0)
    ok = prefactor_gap <= 1e-12 and agree <= 0.05
    report(5, ok, f"|prefactor - 4/sqrt(pi)| = {prefactor_gap:.1e} <= 1e-12, "
                  f"saddle-vs-asymptotic rel gap {agree:.4f} <= 0.05 at "
                  f"eps=0.05 on 500 eigenvalues + tail")


def test_criterion_6_monte_carlo_cross_check():
    t0 = time.perf_counter()
    specs = {
        "wiener": (wiener_lams(500), 101),
        "bridge": (bridge_lams(500), 202),
        "ou": (None, 303),
        "slepian": (None, 404),
    }
    details, ok = [], True
    for fam, (lam, seed) in specs.items():
        if lam is None:
            res = nystrom_eigenvalues(base_kernel(fam), None, 60, grid=512)
            lam = 1.0 / np.asarray(res.mu)
        # bisect the exact distribution to a radius where p ~ 1e-2
        lo, hi = 1e-3 * math.sqrt(lam.sum()), 4.0 * math.sqrt(lam.sum())
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if smallball_probability_exact(lam, mid).p < 1e-2:
                lo = mid
            else:
                hi = mid
        r = 0.5 * (lo + hi)
        sad = smallball_probability_exact(lam, r)
        mc = monte_carlo_probability(lam, r, 10 ** 6, seed)
        dev = abs(sad.p - mc.p) / mc.err
        ok &= dev <= 3.0
        details.append(f"{fam} {dev:.2f}se")
    dt = time.perf_counter() - t0
    ok &= dt < 120.0
    report(6, ok, f"N=1e6 deviations [{', '.join(details)}] all <= 3se, "
                  f"runtime {dt:.1f}s < 120s")


def test_criterion_7_matern1_is_ou():
    a = nystrom_eigenvalues(base_kernel("matern", {"n": 1}), None, 20,
                            grid=256)
    b = nystrom_eigenvalues(base_kernel("ou"), None, 20, grid=256)
    rel = float(np.max(np.abs(a.mu - b.mu) / b.mu))
    ok = rel <= 1e-6
    report(7, ok, f"first 20 Nystrom eigenvalues rel diff {rel:.2e} <= 1e-6")


def test_criterion_8_property_suites():
    checks = []

    # determinant-ratio symmetry and transitivity
    w3 = Weight.from_text("(0.8+0.45*t)^(-4)")  # unit normalization integral
    r12 = ratio_limit(WIENER, RATIO2, UNIT).ratio
    r21 = ratio_limit(WIENER, UNIT, RATIO2).ratio
    r13 = ratio_limit(WIENER, RATIO2, w3).ratio
    r23 = ratio_limit(WIENER, UNIT, w3).ratio
    checks.append(("symmetry", abs(r12 * r21 - 1.0) < 1e-12))
    checks.append(("transitivity", abs(r13 / (r12 * r23) - 1.0) < 1e-10))

    # classification is invariant under permutations of the condition list
    systems = [
        (1, (BC(0, 1, 0), BC(1, 0, 1))),
        (1, (BC(0, 1.2, 0.7), BC(1, 0.7, 1.2))),
        (2, tuple(BC(k, 1, -1) for k in range(4))),
        (2, (BC(0, 1, 0), BC(3, 0, 1), BC(1, 1.5, 0.6), BC(2, 0.6, 1.5))),
    ]
    perm_ok = True
    for n, bcs in systems:
        ref = classify_boundary_conditions(
            BVProblem(OperatorSpec(n, (0.0,) * n), bcs, UNIT,
                      normalized_system=True))
        for perm in itertools.permutations(bcs):
            got = classify_boundary_conditions(
                BVProblem(OperatorSpec(n, (0.0,) * n), perm, UNIT,
                          normalized_system=True))
            perm_ok &= (got.tag, got.kappa0, got.kappa1) == \
                       (ref.tag, ref.kappa0, ref.kappa1)
    checks.append(("classification-permutation", perm_ok))

    # kernels are positive semidefinite under the quadrature similarity
    g = Grid.composite(128, 8)
    sw = np.sqrt(g.w)
    psd_ok = True
    for spec in (ProcessSpec("wiener"), ProcessSpec("bridge", m=1, betas=(1,)),
                 ProcessSpec("ciw", level=1), ProcessSpec("ou", centerings=1)):
        vals, _ = build_process(spec).evaluate_on(g)
        psd_ok &= float(np.linalg.eigvalsh(
            vals * np.outer(sw, sw)).min()) > -1e-10
    checks.append(("kernel-psd", psd_ok))

    # centering annihilates constants: kink-corrected row integrals of the
    # centered kernel vanish
    from greenball.quadrature import integrate_full
    cen, codd = center_kernel(base_kernel("ou")).evaluate_on(g)
    rowint = np.abs(integrate_full(g, cen, codd)).max()
    checks.append(("centering-annihilation", rowint < 1e-12))

    # scaling identity: P(sum c lam xi^2 <= c r^2) = P(sum lam xi^2 <= r^2)
    lam = wiener_lams(50)
    c = 3.7
    pa = smallball_probability_exact(lam, 0.4)
    pb = smallball_probability_exact(c * lam, math.sqrt(c) * 0.4)
    checks.append(("scaling-identity", abs(pb.p / pa.p - 1.0) < 1e-10))

    failed = [name for name, good in checks if not good]
    ok = not failed
    report(8, ok, "all invariants hold: " + ", ".join(n for n, _ in checks)
           if ok else "failed: " + ", ".join(failed))
