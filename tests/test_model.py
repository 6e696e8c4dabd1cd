import numpy as np
import pytest

from greenball.errors import NormalizationMismatch
from greenball.model import (BCClass, BoundaryCondition, BVProblem,
                             WEIGHT_GRID, OperatorSpec, Weight,
                             classify_boundary_conditions,
                             normalization_integral, normalize_weight,
                             require_equal_normalization)

BC = BoundaryCondition


def problem(n, bcs, weight_text="1"):
    return BVProblem(OperatorSpec(n, (0.0,) * n), tuple(bcs),
                     Weight.from_text(weight_text), normalized_system=True)


class TestWeight:
    def test_values(self):
        w = Weight.from_text("(0.5+1.5*t)^(-4)")
        assert w.psi0 == pytest.approx(16.0)
        assert w.psi1 == pytest.approx(0.0625)
        assert w(0.5) == pytest.approx(1.25 ** -4)

    @pytest.mark.parametrize("text", ["1+t^2", "(1+t)^0.5", "1/(1+t)^2",
                                      "(1+t)^(-1)", "(0.5+1.5*t)^(-4)"])
    def test_samples_are_the_calls_bitwise(self, text):
        # numpy's power takes fast paths for some exponents, so samples and
        # calls agree to the bit only when both come from one evaluator
        w = Weight.from_text(text)
        assert np.array_equal(w.samples, w(WEIGHT_GRID.x))
        assert (w.psi0, w.psi1) == (w(0.0), w(1.0))

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            Weight.from_text("t - 0.5")
        with pytest.raises(ValueError):
            Weight.from_text("0")


class TestNormalization:
    def test_unit_weight(self):
        w = Weight.from_text("1")
        assert normalization_integral(w, 1) == pytest.approx(1.0, abs=1e-14)
        assert normalization_integral(w, 3) == pytest.approx(1.0, abs=1e-14)

    def test_affine_power_weight_is_normalized(self):
        # (0.5+1.5t)^{-4} has int psi^{1/2} = int (0.5+1.5t)^{-2} = 1
        w = Weight.from_text("(0.5+1.5*t)^(-4)")
        assert normalization_integral(w, 1) == pytest.approx(1.0, abs=1e-13)

    def test_constant_sixteen(self):
        w = Weight.from_text("16")
        assert normalization_integral(w, 1) == pytest.approx(4.0, abs=1e-13)

    def test_normalize_weight(self):
        w = Weight.from_text("16")
        wn, c = normalize_weight(w, 1)
        assert c == pytest.approx(1 / 16, rel=1e-13)
        assert wn.psi0 == pytest.approx(1.0, rel=1e-13)
        assert normalization_integral(wn, 1) == pytest.approx(1.0, rel=1e-12)
        # built from the scaled tree, which multiplies by c last
        for w in (w, Weight.from_text("1+t^2")):
            wn, c = normalize_weight(w, 1)
            assert np.array_equal(wn.samples, c * w.samples)

    def test_normalize_already_normalized_is_identity(self):
        w = Weight.from_text("1")
        wn, c = normalize_weight(w, 2)
        assert c == 1.0 and wn is w

    def test_mismatch_detected(self):
        w1 = Weight.from_text("1")
        w2 = Weight.from_text("16")
        with pytest.raises(NormalizationMismatch):
            require_equal_normalization(w1, w2, 1)

    def test_equal_within_tolerance_passes(self):
        w1 = Weight.from_text("1")
        w2 = Weight.from_text("1 + 0.0000001*t")
        assert require_equal_normalization(w1, w2, 1) == pytest.approx(1.0, rel=1e-6)


class TestBoundaryCondition:
    def test_invalid_leading_pair(self):
        with pytest.raises(ValueError):
            BC(0, 0.0, 0.0)

    def test_lower_order_storage(self):
        bc = BC(2, 1.0, 0.0, alpha_lower=(0.5,), gamma_lower=(0.0, -1.0))
        assert bc.lower_coefficient(0, 0) == 0.5
        assert bc.lower_coefficient(0, 1) == 0.0
        assert bc.lower_coefficient(1, 1) == -1.0

    def test_lower_order_length_check(self):
        with pytest.raises(ValueError):
            BC(1, 1.0, 0.0, alpha_lower=(1.0, 2.0))


class TestClassification:
    def test_wiener_is_separated(self):
        cls = classify_boundary_conditions(
            problem(1, [BC(0, 1, 0), BC(1, 0, 1)]))
        assert cls == BCClass(tag="separated", kappa0=0, kappa1=1,
                              orders0=(0,), orders1=(1,))

    def test_one_pair(self):
        cls = classify_boundary_conditions(
            problem(1, [BC(0, 2, 1), BC(1, 1, 2)]))
        assert cls.tag == "one-pair"
        assert (cls.ell, cls.a, cls.b) == (0, 2, 1)
        assert cls.kappa0 == 0 and cls.kappa1 == 0

    def test_periodic(self):
        cls = classify_boundary_conditions(
            problem(1, [BC(0, 1, -1), BC(1, 1, -1)]))
        assert cls.tag == "periodic"

    def test_periodic_beats_one_pair_template(self):
        # n=1 periodic is also a valid cross-matched pair (a=1, b=-1);
        # the periodic reading takes precedence
        cls = classify_boundary_conditions(
            problem(1, [BC(0, 3, -3), BC(1, 0.5, -0.5)]))
        assert cls.tag == "periodic"

    def test_general_fallback(self):
        # two mixed conditions whose orders do not sum to 2n-1
        cls = classify_boundary_conditions(
            problem(2, [BC(0, 1, 1), BC(1, 1, 1), BC(2, 1, 0), BC(3, 0, 1)]))
        assert cls.tag == "general"

    def test_not_cross_matched_is_general(self):
        cls = classify_boundary_conditions(
            problem(1, [BC(0, 2, 1), BC(1, 2, 1)]))
        assert cls.tag == "general"

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        bcs = [BC(0, 1, 0), BC(3, 0, 1), BC(1, 2, 3), BC(2, 3, 2)]
        ref = classify_boundary_conditions(problem(2, bcs))
        assert ref.tag == "one-pair" and ref.ell == 1
        for _ in range(10):
            perm = list(rng.permutation(4))
            got = classify_boundary_conditions(
                problem(2, [bcs[i] for i in perm]))
            assert got == ref

    def test_separated_order_sums(self):
        bcs = [BC(0, 1, 0), BC(2, 1, 0), BC(1, 0, 1), BC(3, 0, 1)]
        cls = classify_boundary_conditions(problem(2, bcs))
        assert cls == BCClass(tag="separated", kappa0=2, kappa1=4,
                              orders0=(0, 2), orders1=(1, 3))


class TestBVProblem:
    def test_counts_enforced(self):
        with pytest.raises(ValueError):
            problem(1, [BC(0, 1, 0)])
        with pytest.raises(ValueError):
            problem(1, [BC(0, 1, 0), BC(2, 0, 1)])  # order exceeds 2n-1

    def test_user_supplied_warns(self):
        with pytest.warns(UserWarning):
            BVProblem(OperatorSpec(1, (0.0,)),
                      (BC(0, 1, 0), BC(1, 0, 1)), Weight.from_text("1"))


class TestOperatorSpec:
    def test_coefficient_values(self):
        from greenball.expr import parse_expression
        op = OperatorSpec(2, (parse_expression("t^2"), 3.0))
        t = np.array([0.0, 0.5, 1.0])
        np.testing.assert_allclose(op.p_values(0, t), t ** 2)
        np.testing.assert_allclose(op.p_values(1, t), 3.0)
        np.testing.assert_allclose(op.p_derivative(1, 1, t), 0.0)
        np.testing.assert_allclose(op.p_derivative(0, 1, 0.5), 1.0, atol=1e-8)

    def test_higher_derivatives_of_expressions_raise(self):
        # a fixed-step difference is up to 3.5e-4 off at j = 2 and 955 at
        # j = 3 for p = e^t, so j >= 2 of an expression is refused;
        # constants and j <= 1 keep their values
        from greenball.expr import parse_expression
        op = OperatorSpec(3, (parse_expression("exp(t)"), 2.0, 0.0))
        t = np.array([0.25, 0.5])
        np.testing.assert_allclose(op.p_derivative(0, 1, t), np.exp(t),
                                   rtol=1e-9)
        for j in (2, 3):
            with pytest.raises(ValueError, match="ROADMAP item 4"):
                op.p_derivative(0, j, t)
            np.testing.assert_array_equal(op.p_derivative(1, j, t), 0.0)
