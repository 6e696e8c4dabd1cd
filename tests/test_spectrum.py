import numpy as np
import pytest
from scipy.optimize import brentq

from greenball.errors import (GridTooCoarse, MissedRoot, NonConvergence,
                             NormalizationMismatch, StepFailure)
from greenball.kernels import ProcessSpec, build_process
from greenball.model import (BoundaryCondition, BVProblem, OperatorSpec,
                             Weight)
from greenball.quadrature import Grid
from greenball.spectrum import (SpectrumResult, characteristic_function,
                                eigenvalue_product, eigenvalues_shooting,
                                fundamental_system, nystrom_eigenvalues)

BC = BoundaryCondition
UNIT = Weight.from_text("1")


def make_problem(n, bcs, weight=UNIT, p=None):
    op = OperatorSpec(n, tuple(p) if p is not None else (0.0,) * n)
    return BVProblem(op, tuple(bcs), weight, normalized_system=True)


def wiener(weight=UNIT):
    return make_problem(1, [BC(0, 1, 0), BC(1, 0, 1)], weight)


def bridge(weight=UNIT):
    return make_problem(1, [BC(0, 1, 0), BC(0, 0, 1)], weight)


class _ClosedFormKernel:
    """Minimal kernel stand-in: closed-form values and odd |t-s| coefficient."""

    half_order = 1
    label = "closed-form"
    weight = None

    def __init__(self, fn, grid=None):
        self.fn = fn
        self.grid = grid if grid is not None else Grid.composite(1024, 8)

    def evaluate_on(self, g):
        return self.fn(g)


# the |t-s| coefficient is sampled on the diagonal panel blocks only,
# shape (panels, order, order), where the Nystrom kink correction reads it


def wiener_kernel_values(g):
    vals = np.minimum.outer(g.x, g.x)
    odd = np.full((g.panels, g.order, g.order), -0.5)
    return vals, odd


def bridge_kernel_values(g):
    vals = np.minimum.outer(g.x, g.x) - np.outer(g.x, g.x)
    odd = np.full((g.panels, g.order, g.order), -0.5)
    return vals, odd


def ou_kernel_values(g):
    vals = np.exp(-np.abs(np.subtract.outer(g.x, g.x)))
    xb = g.x.reshape(g.panels, g.order)
    u = np.abs(xb[:, :, None] - xb[:, None, :])
    odd = -np.where(u > 1e-8, np.sinh(u) / np.where(u > 1e-8, u, 1.0),
                    1.0 + u * u / 6)
    return vals, odd


class TestFundamentalSystem:
    def test_unit_weight_trig(self):
        _, Y1 = fundamental_system(wiener(), np.pi)
        assert Y1[0, 0] == pytest.approx(-1.0, abs=1e-11)
        assert Y1[0, 1] == pytest.approx(0.0, abs=1e-11)

    def test_zero_parameter_polynomials(self):
        _, Y1 = fundamental_system(wiener(), 0.0)
        # phi_j(t) = t^j / j!
        assert Y1[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert Y1[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert Y1[1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_constant_potential_cosh(self):
        prob = make_problem(1, [BC(0, 1, 0), BC(1, 0, 1)], p=(1.0,))
        _, Y1 = fundamental_system(prob, 0.0)
        assert Y1[0, 0] == pytest.approx(np.cosh(1), rel=1e-11)
        assert Y1[0, 1] == pytest.approx(np.sinh(1), rel=1e-11)

    def test_batched_shape(self):
        _, Y1 = fundamental_system(wiener(), np.array([1.0, 2.0, 3.0]))
        assert Y1.shape == (3, 2, 2)
        np.testing.assert_allclose(Y1[:, 0, 0], np.cos([1, 2, 3]), atol=1e-11)


class TestCharacteristicFunction:
    def test_wiener_roots_are_cosine_zeros(self):
        zs = (np.arange(1, 6) - 0.5) * np.pi
        F = characteristic_function(wiener(), zs)
        np.testing.assert_allclose(F, 0.0, atol=1e-10)

    def test_bridge_roots_are_sine_zeros(self):
        F = characteristic_function(bridge(), np.arange(1, 6) * np.pi)
        np.testing.assert_allclose(F, 0.0, atol=1e-10)

    def test_zero_is_not_a_root(self):
        assert abs(characteristic_function(wiener(), 0.0)) > 0.5


class TestShooting:
    def test_wiener_spectrum(self):
        res = eigenvalues_shooting(wiener(), 10)
        exact = ((np.arange(1, 11) - 0.5) * np.pi) ** 2
        np.testing.assert_allclose(res.mu, exact, rtol=1e-8)
        assert res.method == "shooting"
        assert res.theta_norm == pytest.approx(1.0, abs=1e-12)
        assert (res.err < 1e-8).all()

    def test_bridge_spectrum(self):
        res = eigenvalues_shooting(bridge(), 10)
        np.testing.assert_allclose(res.mu, (np.arange(1, 11) * np.pi) ** 2,
                                   rtol=1e-8)

    def test_weighted_wiener_matches_transcendental_roots(self):
        # for psi = (0.5+1.5t)^{-4} the exact characteristic equation is
        # 3 sin x + x cos x = 0
        res = eigenvalues_shooting(wiener(Weight.from_text("(0.5+1.5*t)^(-4)")),
                                   20)
        f = lambda x: 3 * np.sin(x) + x * np.cos(x)
        exact = np.array([brentq(f, (k - 1) * np.pi + 1e-9, k * np.pi - 1e-9,
                                 xtol=1e-13) ** 2 for k in range(1, 21)])
        np.testing.assert_allclose(res.mu, exact, rtol=1e-10)

    def test_double_roots_raise_missed_root(self):
        # periodic conditions give double eigenvalues: no sign change, so
        # the count check must fire rather than silently dropping half the
        # spectrum
        per = make_problem(1, [BC(0, 1, -1), BC(1, 1, -1)])
        with pytest.raises(MissedRoot):
            eigenvalues_shooting(per, 5)

    def test_err_bounds_the_actual_error(self):
        # psi = (0.5+1.5t)^{-4}: Wiener roots solve 3 sin x + x cos x = 0,
        # and the weighted bridge keeps mu = (k pi)^2
        w = Weight.from_text("(0.5+1.5*t)^(-4)")
        f = lambda x: 3 * np.sin(x) + x * np.cos(x)
        exact = np.array([brentq(f, (k - 1) * np.pi + 1e-9, k * np.pi - 1e-9,
                                 xtol=1e-13) ** 2 for k in range(1, 21)])
        for problem, mu in ((wiener(w), exact),
                            (bridge(w), (np.arange(1, 11) * np.pi) ** 2)):
            res = eigenvalues_shooting(problem, len(mu))
            rel = np.abs(res.mu - mu) / mu
            assert (rel <= res.err).all(), (rel / res.err).max()

    def test_slepian_roots_where_a_boundary_row_vanishes(self):
        # -v'' = mu (2) v, v'(0) + v'(1) = 0, v(0) + v(1) - v'(0) = 0: at
        # mu_2 = pi^2/2 and mu_4 = 9 pi^2/2 the whole row v'(0) + v'(1) of
        # the boundary matrix vanishes, so F must stay continuous there
        prob = make_problem(1, [BC(1, 1, 1),
                                BC(1, -1, 0, alpha_lower=(1.0,),
                                   gamma_lower=(1.0,))],
                            Weight.from_text("2"))
        mu = eigenvalues_shooting(prob, 4).mu
        assert mu[1] == pytest.approx(np.pi ** 2 / 2, rel=1e-14)
        assert mu[3] == pytest.approx(9 * np.pi ** 2 / 2, rel=1e-14)

    def test_cantilever_n2(self):
        # v'''' = mu v, v(0) = v'(0) = 0, v''(1) = v'''(1) = 0: mu = x^4 with
        # 1 + cos x cosh x = 0.  The fundamental matrix grows like e^x, so
        # the determinant loses digits with every root: a large K must raise
        # rather than return a silently wrong spectrum
        prob = make_problem(2, [BC(0, 1, 0), BC(1, 1, 0), BC(2, 0, 1),
                                BC(3, 0, 1)])
        f = lambda x: np.cos(x) + 1.0 / np.cosh(x)
        exact = np.array([brentq(f, (k - 1) * np.pi, k * np.pi, xtol=1e-14)
                          for k in range(1, 11)]) ** 4
        res = eigenvalues_shooting(prob, 5)
        np.testing.assert_allclose(res.mu, exact[:5], rtol=1e-10)
        try:
            res = eigenvalues_shooting(prob, 10)
        except (StepFailure, MissedRoot):
            return
        rel = np.abs(res.mu - exact) / exact
        assert (rel <= np.maximum(res.err, 1e-8)).all()


class TestNystrom:
    def test_wiener_kernel(self):
        res = nystrom_eigenvalues(_ClosedFormKernel(wiener_kernel_values),
                                  None, 10)
        exact = ((np.arange(1, 11) - 0.5) * np.pi) ** 2
        np.testing.assert_allclose(res.mu, exact, rtol=1e-8)
        assert res.method == "nystrom"

    def test_bridge_kernel(self):
        res = nystrom_eigenvalues(_ClosedFormKernel(bridge_kernel_values),
                                  None, 10)
        np.testing.assert_allclose(res.mu, (np.arange(1, 11) * np.pi) ** 2,
                                   rtol=1e-8)

    def test_weighted_matches_shooting(self):
        w = Weight.from_text("(0.5+1.5*t)^(-4)")
        res = nystrom_eigenvalues(_ClosedFormKernel(wiener_kernel_values),
                                  w, 10)
        shoot = eigenvalues_shooting(wiener(w), 10)
        np.testing.assert_allclose(res.mu, shoot.mu, rtol=1e-6)

    def test_ou_kernel_matches_shooting_on_half_operator(self):
        # e^{-|t-s|} is the Green function of (-y'' + y)/2 with boundary
        # conditions y'(0) = y(0), y'(1) = -y(1)
        res = nystrom_eigenvalues(_ClosedFormKernel(ou_kernel_values),
                                  None, 10)
        prob = make_problem(
            1, [BC(1, 1, 0, alpha_lower=(-1.0,)),
                BC(1, 0, 1, gamma_lower=(1.0,))], p=(1.0,))
        shoot = eigenvalues_shooting(prob, 10)
        np.testing.assert_allclose(res.mu, shoot.mu / 2, rtol=1e-6)

    def test_integrated_wiener_matches_cantilever_roots(self):
        # integrated Wiener is the cantilever beam, mu = x^4 with
        # 1 + cos x cosh x = 0; its |t-s|^3 kink limits Nystrom to O(h^4),
        # so the doubled-grid solve is the accurate one to report
        kern = build_process(ProcessSpec("wiener", m=1, betas=(0,)))
        res = nystrom_eigenvalues(kern, None, 80, grid=1600)
        f = lambda x: np.cos(x) + 1.0 / np.cosh(x)
        x = np.array([brentq(f, (k - 1) * np.pi, k * np.pi, xtol=1e-14)
                      for k in range(1, 81)])
        np.testing.assert_allclose(res.mu, x ** 4, rtol=1e-6)

    def test_grid_precondition(self):
        with pytest.raises(GridTooCoarse):
            nystrom_eigenvalues(
                _ClosedFormKernel(wiener_kernel_values,
                                  Grid.composite(64, 8)), None, 10)


class TestEigenvalueProduct:
    def _result(self, mu, theta=1.0):
        return SpectrumResult(mu=np.asarray(mu), method="analytic",
                              err=np.zeros(len(mu)), theta_norm=theta)

    def test_identical_spectra(self):
        s = self._result(((np.arange(1, 101) - 0.5) * np.pi) ** 2)
        val, err = eigenvalue_product(s, s)
        assert val == 1.0 and err == 0.0

    def test_known_product(self):
        # mu1/mu2 = exp(1/k^2): infinite product exp(pi^2/6).  The partial
        # sums close like 1/K, for which Aitken removes about half the
        # remaining tail; the reported error bar must cover the rest.
        k = np.arange(1, 201)
        base = ((k - 0.5) * np.pi) ** 2
        s1 = self._result(base * np.exp(1 / k ** 2))
        s2 = self._result(base)
        val, err = eigenvalue_product(s1, s2)
        exact = np.exp(np.pi ** 2 / 6)
        assert val == pytest.approx(exact, rel=6e-3)
        assert abs(val - exact) < 3 * err
        assert err < 0.02 * val

    def test_disagreeing_extrapolants_raise(self):
        # prod (1 + 1/k) grows like K: Aitken and the 1/K fit disagree
        k = np.arange(1, 41)
        base = ((k - 0.5) * np.pi) ** 2
        with pytest.raises(NonConvergence):
            eigenvalue_product(self._result(base * (1 + 1 / k)),
                               self._result(base), tol=1e-12)

    def test_normalization_guard(self):
        k = np.arange(1, 51)
        s1 = self._result(k ** 2.0, theta=1.0)
        s2 = self._result(k ** 2.0, theta=2.0)
        with pytest.raises(NormalizationMismatch):
            eigenvalue_product(s1, s2)

    def test_length_guard(self):
        s1 = self._result([1.0, 2.0])
        s2 = self._result([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            eigenvalue_product(s1, s2)


class TestSpectrumResult:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SpectrumResult(mu=np.array([1.0, -2.0]), method="analytic",
                           err=np.zeros(2), theta_norm=1.0)
        with pytest.raises(ValueError):
            SpectrumResult(mu=np.array([2.0, 1.0]), method="analytic",
                           err=np.zeros(2), theta_norm=1.0)
        # ties within err are allowed
        SpectrumResult(mu=np.array([1.0, 1.0 - 1e-12]), method="analytic",
                       err=np.full(2, 1e-10), theta_norm=1.0)
