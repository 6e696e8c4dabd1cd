import numpy as np
import pytest

from greenball.errors import DegenerateTheta, NormalizationMismatch
from greenball.kernels import ProcessSpec, catalog_problem
from greenball.model import (BoundaryCondition, BVProblem, OperatorSpec,
                             Weight)
from greenball.theta import (ComparisonResult, ThetaInput, closed_form_ratio,
                             nonseparated_ratio, omega, periodic_ratio,
                             ratio_limit, separated_ratio, theta_det,
                             vandermonde)

BC = BoundaryCondition


def problem(n, bcs, weight_text="1"):
    return BVProblem(OperatorSpec(n, (0.0,) * n), tuple(bcs),
                     Weight.from_text(weight_text), normalized_system=True)


def wiener_problem():
    return catalog_problem(ProcessSpec("wiener"))


class TestOmega:
    def test_values(self):
        assert omega(1, 1) == pytest.approx(-1)
        assert omega(2, 1) == pytest.approx(1j)
        assert omega(2, 3) == pytest.approx(-1j)
        assert abs(omega(5, 3)) == pytest.approx(1.0)

    def test_range_check(self):
        with pytest.raises(ValueError):
            omega(2, 4)


class TestVandermonde:
    def test_small_cases(self):
        assert vandermonde([]) == 1
        assert vandermonde([3.7j]) == 1
        assert vandermonde([1, 1j]) == pytest.approx(1j - 1)
        assert abs(vandermonde([1, 1j])) == pytest.approx(np.sqrt(2))

    def test_matches_power_matrix_determinant(self):
        xs = [omega(2, k) for k in range(4)]
        V = np.vander(xs, increasing=True).T  # row i = xs**i
        assert vandermonde(xs) == pytest.approx(np.linalg.det(V), rel=1e-12)

    def test_random_against_determinant(self):
        rng = np.random.default_rng(11)
        for m in (2, 3, 5):
            xs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            V = np.vander(xs, increasing=True).T
            assert vandermonde(xs) == pytest.approx(np.linalg.det(V),
                                                    rel=1e-10)


class TestThetaDet:
    def test_wiener_unit_weight(self):
        ti = ThetaInput(1, (0, 1), (1, 0), (0, 1), 1.0, 1.0)
        assert theta_det(ti, -1) == pytest.approx(-1.0, abs=1e-14)
        assert abs(theta_det(ti, +1)) == pytest.approx(1.0, abs=1e-14)

    def test_sign_relation_random(self):
        # theta_{+1} = -omega_1^kappa * theta_{-1} with kappa = sum of orders
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            for _ in range(50):
                ks = tuple(int(v) for v in rng.integers(0, 2 * n, size=2 * n))
                ti = ThetaInput(n, ks,
                                tuple(rng.standard_normal(2 * n)),
                                tuple(rng.standard_normal(2 * n)),
                                float(np.exp(rng.standard_normal())),
                                float(np.exp(rng.standard_normal())))
                t_plus = theta_det(ti, +1)
                t_minus = theta_det(ti, -1)
                pred = -omega(n, 1) ** sum(ks) * t_minus
                assert t_plus == pytest.approx(pred, abs=1e-10 * max(1.0, abs(t_plus)))
                assert abs(t_plus) == pytest.approx(abs(t_minus),
                                                    abs=1e-10 * max(1.0, abs(t_plus)))

    def test_endpoint_scaling_matches_separated_form(self):
        ti1 = ThetaInput(1, (0, 1), (1, 0), (0, 1), 16.0, 1 / 16)
        ti2 = ThetaInput(1, (0, 1), (1, 0), (0, 1), 1.0, 1.0)
        direct = abs(theta_det(ti2, -1) / theta_det(ti1, -1)) ** 0.5
        closed = separated_ratio(1, 0, 1, (16.0, 1 / 16), (1.0, 1.0))
        assert direct == pytest.approx(closed.ratio, rel=1e-12)


class TestRatioLimit:
    def test_identical_weights(self):
        res = ratio_limit(wiener_problem(), Weight.from_text("1"),
                          Weight.from_text("1"))
        assert res.ratio == pytest.approx(1.0, rel=1e-14)
        assert res.route == "direct-determinant"

    def test_wiener_affine_power_weight(self):
        res = ratio_limit(wiener_problem(), Weight.from_text("(0.5+1.5*t)^(-4)"),
                          Weight.from_text("1"))
        assert res.ratio == pytest.approx(2.0, rel=1e-12)
        assert res.product == pytest.approx(4.0, rel=1e-12)

    def test_mismatched_normalization(self):
        with pytest.raises(NormalizationMismatch):
            ratio_limit(wiener_problem(), Weight.from_text("1"),
                        Weight.from_text("16"))

    def test_product_is_ratio_squared(self):
        res = ComparisonResult(ratio=1.7, route="direct-determinant")
        assert res.product == 1.7 ** 2


class TestSeparatedRatio:
    def test_wiener_example(self):
        res = separated_ratio(1, 0, 1, (16.0, 1 / 16), (1.0, 1.0))
        assert res.ratio == pytest.approx(2.0, rel=1e-14)
        assert res.route == "separated-closed-form"

    def test_equal_endpoints(self):
        res = separated_ratio(3, 2, 5, (2.0, 3.0), (2.0, 3.0))
        assert res.ratio == pytest.approx(1.0, rel=1e-14)

    def test_symmetric_collapse(self):
        # equal endpoint values at both ends collapse to a single power
        n, k = 2, 3
        res = separated_ratio(n, k, k, (5.0, 5.0), (2.0, 2.0))
        expected = (2.0 / 5.0) ** (2 * (-n / 4 + 1 / 8) + 2 * k / (4 * n))
        assert res.ratio == pytest.approx(expected, rel=1e-14)


class TestNonseparatedRatio:
    def test_singleton_vandermondes(self):
        # n=1, ell=0: both M factors are singleton products, bracket is
        # a^2 x^{1/4} + b^2 x^{-1/4} with x = psi(1)/psi(0)
        a, b, p0, p1 = 1.3, 0.4, 9.0, 0.25
        res = nonseparated_ratio(1, 0, a, b, 0, 0, (), (), (p0, p1), (1.0, 1.0))
        br = lambda q0, q1: (a * a * (q1 / q0) ** 0.25
                             + b * b * (q0 / q1) ** 0.25)
        assert res.ratio == pytest.approx((br(1, 1) / br(p0, p1)) ** 0.5,
                                          rel=1e-13)

    def test_equal_coefficients_swap_symmetry(self):
        # a=b makes the bracket symmetric under endpoint exchange, so a
        # weight and its endpoint-swap compare at ratio 1
        res = nonseparated_ratio(1, 0, 2.0, 2.0, 0, 0, (), (),
                                 (9.0, 0.25), (0.25, 9.0))
        assert res.ratio == pytest.approx(1.0, rel=1e-13)

    def test_matches_direct_determinant_n2(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p1 = tuple(np.exp(rng.uniform(-2, 2, 2)))
            p2 = tuple(np.exp(rng.uniform(-2, 2, 2)))
            a, b = rng.uniform(0.5, 2.0, 2)
            # orders: separated k=0 at 0, k'=3 at 1; pair at ell=1, 2
            bcs = (BC(0, 1, 0), BC(3, 0, 1), BC(1, a, b), BC(2, b, a))
            t1 = theta_det(ThetaInput(2, tuple(bc.k for bc in bcs),
                                      tuple(bc.alpha for bc in bcs),
                                      tuple(bc.gamma for bc in bcs),
                                      *p1), -1)
            t2 = theta_det(ThetaInput(2, tuple(bc.k for bc in bcs),
                                      tuple(bc.alpha for bc in bcs),
                                      tuple(bc.gamma for bc in bcs),
                                      *p2), -1)
            res = nonseparated_ratio(2, 1, a, b, 0, 3, (0,), (3,), p1, p2)
            assert res.ratio == pytest.approx(abs(t2 / t1) ** 0.5, rel=1e-10)


class TestPeriodicRatio:
    def test_identical(self):
        res = periodic_ratio(2, (3.0, 0.5), (3.0, 0.5))
        assert res.ratio == pytest.approx(1.0, rel=1e-14)

    def test_flat_endpoint_power_law(self):
        # psi_i constant at both ends: Vandermonde scales as value^{(2n-1)/2}
        # per node set, giving an explicit power of q/p
        n, p, q = 2, 4.0, 9.0
        res = periodic_ratio(n, (p, p), (q, q))
        vand_power = (1 / (2 * n)) * n * (2 * n - 1)  # homogeneity degree
        expected = (p * p / (q * q)) ** ((2 * n - 1) / 8) \
            * (q / p) ** (0.5 * vand_power)
        assert res.ratio == pytest.approx(expected, rel=1e-12)

    def test_matches_direct_determinant_n1(self):
        res = periodic_ratio(1, (16.0, 1 / 16), (1.0, 1.0))
        t = [theta_det(ThetaInput(1, (0, 1), (1, 1), (-1, -1), *e), -1)
             for e in ((16.0, 1 / 16), (1.0, 1.0))]
        assert res.ratio == pytest.approx(abs(t[1] / t[0]) ** 0.5, rel=1e-10)

    def test_matches_direct_determinant_random_n(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            ks = tuple(range(2 * n))
            for _ in range(10):
                p1 = tuple(np.exp(rng.uniform(-1.5, 1.5, 2)))
                p2 = tuple(np.exp(rng.uniform(-1.5, 1.5, 2)))
                t1 = theta_det(ThetaInput(n, ks, (1,) * 2 * n, (-1,) * 2 * n,
                                          *p1), -1)
                t2 = theta_det(ThetaInput(n, ks, (1,) * 2 * n, (-1,) * 2 * n,
                                          *p2), -1)
                res = periodic_ratio(n, p1, p2)
                assert res.ratio == pytest.approx(abs(t2 / t1) ** 0.5,
                                                  rel=1e-10)


class TestProperties:
    def test_symmetry(self):
        w1 = Weight.from_text("(0.5+1.5*t)^(-4)")
        w2 = Weight.from_text("1")
        p = wiener_problem()
        r12 = ratio_limit(p, w1, w2).ratio
        r21 = ratio_limit(p, w2, w1).ratio
        assert r12 * r21 == pytest.approx(1.0, rel=1e-12)

    def test_transitivity(self):
        # equal-normalization triple: 1, (0.5+1.5t)^{-4}, (a+bt)^{-4} scaled
        w1 = Weight.from_text("1")
        w2 = Weight.from_text("(0.5+1.5*t)^(-4)")
        # int (a+bt)^{-2} dt = 1/(a(a+b)); a = 0.8, b = 0.45 gives 1
        w3 = Weight.from_text("(0.8+0.45*t)^(-4)")
        p = wiener_problem()
        r13 = ratio_limit(p, w1, w3).ratio
        r12 = ratio_limit(p, w1, w2).ratio
        r23 = ratio_limit(p, w2, w3).ratio
        assert r13 == pytest.approx(r12 * r23, rel=1e-10)

    def test_closed_form_dispatch(self):
        w1 = Weight.from_text("(0.5+1.5*t)^(-4)")
        w2 = Weight.from_text("1")
        res = closed_form_ratio(wiener_problem(), w1, w2)
        assert res.route == "separated-closed-form"
        assert res.ratio == pytest.approx(2.0, rel=1e-12)
        per = problem(1, [BC(0, 1, -1), BC(1, 1, -1)])
        res2 = closed_form_ratio(per, w1, w2)
        assert res2.route == "periodic-closed-form"
        direct = ratio_limit(per, w1, w2)
        assert res2.ratio == pytest.approx(direct.ratio, rel=1e-10)

    def test_interior_values_do_not_matter_for_closed_forms(self):
        # two weights with identical endpoints but different interiors give
        # bit-identical separated ratios
        r1 = separated_ratio(2, 1, 3, (2.0, 0.7), (1.0, 1.0))
        r2 = separated_ratio(2, 1, 3, (2.0, 0.7), (1.0, 1.0))
        assert r1.ratio == r2.ratio

    def test_degenerate_detected(self):
        # duplicated boundary row forces a vanishing determinant
        p = problem(1, [BC(0, 1, 0.5), BC(0, 1, 0.5)])
        with pytest.raises(DegenerateTheta):
            ratio_limit(p, Weight.from_text("1"), Weight.from_text("1"))
