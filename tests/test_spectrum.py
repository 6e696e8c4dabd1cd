import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.linalg import blas, eigh, expm
from scipy.optimize import brentq

from greenball import kernels, spectrum
from greenball.cli import main
from greenball.errors import (GridTooCoarse, MissedRoot, NonConvergence,
                             NormalizationMismatch, StepFailure)
from greenball.kernels import (ProcessSpec, _radial_split, apply_weight,
                               base_kernel, build_process, catalog_problem,
                               center_kernel, integrate_kernel)
from greenball.model import (BoundaryCondition, BVProblem, OperatorSpec,
                             Weight, normalization_integral)
from greenball.quadrature import Grid, _kink_full_moments
from greenball.spectrum import (_CELLS_PER_CHUNK, SpectrumResult,
                                _characteristic_batch, _check_above_noise,
                                _expm_cells, _guard, _mesh,
                                _nystrom_matrix, _propagate, _ritz_top,
                                eigenvalue_product, eigenvalues_shooting,
                                nystrom_eigenvalues)

BC = BoundaryCondition
UNIT = Weight.from_text("1")


def make_problem(n, bcs, weight=UNIT, p=None):
    op = OperatorSpec(n, tuple(p) if p is not None else (0.0,) * n)
    return BVProblem(op, tuple(bcs), weight, normalized_system=True)


def wiener(weight=None):
    return catalog_problem(ProcessSpec("wiener"), weight)


def bridge(weight=None):
    return catalog_problem(ProcessSpec("bridge"), weight)


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


def fundamental_system(problem, zeta):
    """Y1[i, j] = phi_j^{(i)}(1) of the canonical solutions (phi_j^{(i)}(0)
    = delta_ij), propagated on the mesh of the largest zeta; a leading
    batch axis for array zeta."""
    zs = np.atleast_1d(np.asarray(zeta, dtype=float))
    Y1, _, log_growth = _propagate(problem, zs, _mesh(problem, zs.max()))
    Y1 = Y1 * np.exp(log_growth)[:, None, None]
    return Y1 if np.ndim(zeta) else Y1[0]


def characteristic_function(problem, zeta):
    """The extrapolated boundary determinant F on the mesh of the largest
    zeta; its positive roots give mu = zeta^{2n}."""
    zs = np.atleast_1d(np.asarray(zeta, dtype=float))
    F = _characteristic_batch(problem, zs, _mesh(problem, zs.max()))[0]
    return F if np.ndim(zeta) else float(F[0])


class TestFundamentalSystem:
    def test_unit_weight_trig(self):
        Y1 = fundamental_system(wiener(), np.pi)
        assert Y1[0, 0] == pytest.approx(-1.0, abs=1e-11)
        assert Y1[0, 1] == pytest.approx(0.0, abs=1e-11)

    def test_zero_parameter_polynomials(self):
        Y1 = fundamental_system(wiener(), 0.0)
        # phi_j(t) = t^j / j!
        assert Y1[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert Y1[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert Y1[1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_constant_potential_cosh(self):
        prob = make_problem(1, [BC(0, 1, 0), BC(1, 0, 1)], p=(1.0,))
        Y1 = fundamental_system(prob, 0.0)
        assert Y1[0, 0] == pytest.approx(np.cosh(1), rel=1e-11)
        assert Y1[0, 1] == pytest.approx(np.sinh(1), rel=1e-11)

    def test_batched_shape(self):
        Y1 = fundamental_system(wiener(), np.array([1.0, 2.0, 3.0]))
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


def _expm_stacked(om):
    """exp of a (..., d, d) stack of traceless exponents: the closed form
    for d = 2, scipy's expm otherwise."""
    if om.shape[-1] > 2:
        return expm(om)
    s2 = om[..., 0, 0] ** 2 + om[..., 0, 1] * om[..., 1, 0]
    r = np.sqrt(np.abs(s2))
    cs, sn = np.cos(r), np.sin(r)
    grow = s2 > 0.0
    if grow.any():
        cs[grow], sn[grow] = np.cosh(r[grow]), np.sinh(r[grow])
    sn = np.divide(sn, r, out=np.ones_like(r), where=r > 0.0)
    out = sn[..., None, None] * om
    out[..., 0, 0] += cs
    out[..., 1, 1] += cs
    return out


def _propagate_stacked(problem, zetas, mesh):
    """Reference propagator on (batch, cells, d, d) stacks, one matmul per
    matrix: the same Magnus steps, chunking, rescaling and Richardson
    extrapolation as `spectrum._propagate`."""
    N, meshes = mesh
    d = meshes[0][0].shape[-1]
    z = np.asarray(zetas, dtype=float)
    sigma = np.maximum(z, 1.0)
    ij = np.arange(d)
    scale = sigma[:, None, None] ** (ij[None, :] - ij[:, None])
    z2n = (z ** d)[:, None, None, None]
    Y = [np.broadcast_to(np.eye(d), (z.size, d, d)).copy() for _ in meshes]
    logs = [np.zeros(z.size) for _ in meshes]
    for start in range(0, N, _CELLS_PER_CHUNK):
        for k, (om0, om1) in enumerate(meshes):
            sl = slice((k + 1) * start, (k + 1) * (start + _CELLS_PER_CHUNK))
            P = _expm_stacked((om0[sl] + z2n * om1[sl]) * scale[:, None])
            while P.shape[1] > 1:
                P = P[:, 1::2] @ P[:, 0::2]
            Y[k] = P[:, 0] @ Y[k]
            s = np.abs(Y[k]).max(axis=(1, 2))
            Y[k] /= s[:, None, None]
            logs[k] += np.log(s)
    Y_coarse = Y[0] * np.exp(logs[0] - logs[1])[:, None, None]
    Y_rich = Y[1] + (Y[1] - Y_coarse) / 15.0
    return Y_rich / scale, Y[1] / scale, logs[1]


def _layout_cases():
    """(problem, zetas, zmax) for the two layout checks: psi_0.5-weighted
    Wiener on its K = 200 scan window (every fourth scan point and zmax),
    and the cantilever around the zeta where its solutions grow by 1e8."""
    w = wiener(Weight.from_text("(0.5+1.5*t)^(-4)"))
    theta = normalization_integral(w.weight, 1)
    zmax = 202 * np.pi / theta
    scan = np.arange(np.pi / (4 * theta), zmax, np.pi / theta)
    cantilever = make_problem(2, [BC(0, 1, 0), BC(1, 1, 0), BC(2, 0, 1),
                                  BC(3, 0, 1)])
    return {"d2_weighted_wiener_K200": (w, np.append(scan, zmax), zmax),
            "d4_cantilever_growth_1e8": (cantilever,
                                         np.array([19.0, 19.6, 20.2]),
                                         12 * np.pi)}


class TestComponentLayout:
    @pytest.mark.parametrize("case", ["d2_weighted_wiener_K200",
                                      "d4_cantilever_growth_1e8"])
    def test_matches_stacked_matmul_loop(self, case, monkeypatch):
        problem, zetas, zmax = _layout_cases()[case]
        mesh = _mesh(problem, zmax)
        runs = {}
        for name, fn in (("stacked", _propagate_stacked),
                         ("component", spectrum._propagate)):
            def recorded(*args, fn=fn, name=name):
                runs[name] = fn(*args)
                return runs[name]
            monkeypatch.setattr(spectrum, "_propagate", recorded)
            runs[name + "_F"] = _characteristic_batch(problem, zetas, mesh)
        (Y, Yf, logs), (Y2, Yf2, logs2) = runs["stacked"], runs["component"]
        assert np.shape(Y2) == np.shape(Y) and np.shape(Yf2) == np.shape(Yf)
        d = Y.shape[-1]
        ij = np.arange(d)
        # compare in the scaled variables the propagator works in, each
        # zeta against its largest entry
        scale = np.maximum(zetas, 1.0)[:, None, None] ** (ij[None, :]
                                                         - ij[:, None])
        for ref, new in ((Y, Y2), (Yf, Yf2)):
            ref, new = ref * scale, new * scale
            gap = np.abs(new - ref).max(axis=(1, 2))
            assert (gap <= 1e-13 * np.abs(ref).max(axis=(1, 2))).all()
        np.testing.assert_allclose(logs2, logs, rtol=1e-13, atol=1e-13)
        # F magnifies the rounding of Y: the growth G of the solutions
        # cancels in the determinant of the growth-scaled rows (the layouts
        # differ by 7e-15 of max|F| at d = 2 and by 1.3e-8 at d = 4, where
        # G = 1.5e8), so F is compared at 1e-13 max(G, 10) max|F|; the
        # signs, and so every scan bracket, agree
        F, F2 = runs["stacked_F"][0], runs["component_F"][0]
        growth = np.exp(logs).max()
        assert np.abs(F2 - F).max() <= 1e-13 * max(growth, 10.0) * np.abs(
            F).max()
        assert ((F2 < 0) == (F < 0)).all()

    @staticmethod
    def _readme_scan():
        """psi_0.5-weighted Wiener and the 252 points of its K = 60 scan,
        the README compare's window, with its mesh."""
        w = wiener(Weight.from_text(PSI_HALF))
        theta = normalization_integral(w.weight, 1)
        spacing, zmax = np.pi / (4 * theta), 62 * np.pi / theta
        grid = np.arange(spacing, zmax + 0.5 * spacing, spacing)
        grid = np.concatenate(([1e-4, 1e-3, 1e-2, 0.1 * spacing], grid))
        return w, grid, _mesh(w, zmax)

    def test_small_batches_match_the_scan(self):
        # a 1-point batch runs 512-cell chunks, the 252-point scan 64-cell
        # ones: the chunk length moves F only by rounding
        w, grid, mesh = self._readme_scan()
        assert grid.size == 252
        F = _characteristic_batch(w, grid, mesh)[0]
        single = np.array([_characteristic_batch(w, grid[i:i + 1], mesh)[0][0]
                           for i in range(grid.size)])
        assert (np.abs(single - F) <= 1e-13 * np.abs(F)).all()

    def test_chunk_length_moves_the_cantilever_by_rounding(self,
                                                          monkeypatch):
        # 1-point cantilever batches are run once with their own 512-cell
        # chunks and once held to the 64-cell chunks of a scan, through the
        # solutions' growth to 1e8
        problem, zetas, zmax = _layout_cases()["d4_cantilever_growth_1e8"]
        zetas = np.append(zetas, [0.5, 4.7, 11.0])
        mesh = _mesh(problem, zmax)

        def singles():
            return np.array([_characteristic_batch(problem, [z], mesh)[0][0]
                             for z in zetas])

        F512 = singles()
        monkeypatch.setattr(spectrum, "_CHUNK_ENTRIES", 0)
        F64 = singles()
        assert np.abs(F512 - F64).max() <= 1e-13 * np.abs(F64).max()

    @pytest.mark.parametrize("batch, passes", [(1, 4), (12, 4), (16, 4),
                                               (17, 8), (252, 32)])
    def test_chunk_passes_follow_the_batch(self, batch, passes, monkeypatch):
        # a chunk doubles from 64 cells while its fine-mesh cells times the
        # batch stay within 16384, up to 512: a refinement step of at most
        # 16 zetas makes 4 passes per mesh at N = 2048, a scan 32; the
        # scan's own mesh, N = 1024, takes half as many
        w, grid, mesh = self._readme_scan()
        assert mesh[0] == 1024
        with monkeypatch.context() as m:
            m.setattr(spectrum, "_MIN_CELLS", 2048)
            wide = _mesh(w, grid[-1])
        assert wide[0] == 2048
        for N, mesh_passes in ((1024, passes // 2), (2048, passes)):
            calls = []

            def counted(X):
                calls.append(X.shape[2])
                return _expm_cells(X)

            with monkeypatch.context() as m:
                m.setattr(spectrum, "_expm_cells", counted)
                spectrum._propagate(w, grid[:batch],
                                    mesh if N == 1024 else wide)
            assert len(calls) == 2 * mesh_passes
            assert sorted(set(calls)) == [N // mesh_passes,
                                          2 * N // mesh_passes]


class TestGradedMesh:
    def test_unit_weight_gives_equal_cells(self):
        # with p = 0, Omega0 = h A_0: its (0, 1) entries are the cell widths
        N, ((coarse, _), (fine, _)) = _mesh(wiener(), 10.0)
        assert N == spectrum._MIN_CELLS
        for cells, om in ((N, coarse), (2 * N, fine)):
            edges = np.append(0.0, np.cumsum(om[:, 0, 1]))
            np.testing.assert_allclose(edges, np.arange(cells + 1) / cells,
                                       rtol=0.0, atol=1e-15)

    def test_cells_follow_theta_not_max_psi(self):
        # psi_a = (a + (1/a - a) t)^{-4} has theta = 1 for every a, while
        # its peak psi_a(0)^{1/2} = 1/a^2 ranges from 2.4 to 4.9: the K = 100
        # window gets one mesh size, that of psi = 1
        psi_a = [Weight.from_text(f"({a}+{1 / a - a}*t)^(-4)")
                 for a in (0.45, 0.5, 0.65)]
        sizes = {_mesh(wiener(w), 102 * np.pi)[0] for w in [UNIT] + psi_a}
        assert len(sizes) == 1


class TestEigenvalueCount:
    @pytest.mark.parametrize("K", [0, -1, 1.5, None, "3"])
    def test_non_integer_or_nonpositive_k_raises(self, K):
        with pytest.raises(ValueError, match="K must be >= 1"):
            nystrom_eigenvalues(base_kernel("ou"), None, K)
        with pytest.raises(ValueError, match="K must be >= 1"):
            eigenvalues_shooting(wiener(), K)

    def test_numpy_integer_k_is_accepted(self):
        K = np.int64(3)
        assert len(nystrom_eigenvalues(base_kernel("ou"), None, K)) == 3
        assert len(eigenvalues_shooting(wiener(), K)) == 3


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

    def test_short_first_window_raises_on_one_mesh(self, monkeypatch):
        # for n = 1 a window with fewer than K brackets holds at least 3
        # roots fewer than the K + 2 the count check expects, which allows
        # n + 1 = 2: no wider window is scanned
        per = make_problem(1, [BC(0, 1, -1), BC(1, 1, -1)])
        windows = []

        def counted(problem, zmax):
            windows.append(zmax)
            return _mesh(problem, zmax)

        monkeypatch.setattr(spectrum, "_mesh", counted)
        with pytest.raises(MissedRoot):
            eigenvalues_shooting(per, 200)
        assert len(windows) == 1

    def test_weighted_bridge_is_good_to_rounding(self):
        # psi = (0.5+1.5t)^{-4} keeps the bridge at mu = (k pi)^2: on the
        # Liouville-graded mesh all 200 are exact to rounding
        res = eigenvalues_shooting(bridge(Weight.from_text(PSI_HALF)), 200)
        np.testing.assert_allclose(res.mu, (np.arange(1, 201) * np.pi) ** 2,
                                   rtol=1e-13)

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
        mu = eigenvalues_shooting(catalog_problem(ProcessSpec("slepian")),
                                  4).mu
        assert mu[1] == pytest.approx(np.pi ** 2 / 2, rel=1e-14)
        assert mu[3] == pytest.approx(9 * np.pi ** 2 / 2, rel=1e-14)

    @pytest.mark.parametrize("family", ["wiener", "bridge", "ou", "slepian"])
    def test_one_mesh_and_err_bounds_a_finer_mesh_error(self, family,
                                                       monkeypatch):
        # with psi = (0.5+1.5t)^{-4}, err takes F's slope near each root, so
        # one mesh serves the solve and err still bounds the error against a
        # mesh sized for a 4x wider window with a 4x higher floor, so
        # exactly 4x finer.  F's rows are not divided by their norms, so F
        # does not saturate between OU and Slepian roots and the secant does
        # not fall back to bisection: each family takes at most 11
        # refinement passes (Wiener 10, bridge 1, OU 9, Slepian 10)
        problem = catalog_problem(ProcessSpec(family),
                                  Weight.from_text("(0.5+1.5*t)^(-4)"))
        sizes, batches = [], []

        def sized(problem, zmax, scale=1):
            with monkeypatch.context() as m:
                m.setattr(spectrum, "_MIN_CELLS", scale * spectrum._MIN_CELLS)
                mesh = _mesh(problem, scale * zmax)
            sizes.append(mesh[0])
            return mesh

        def counted(*args):
            batches.append(len(args[1]))
            return _characteristic_batch(*args)

        monkeypatch.setattr(spectrum, "_mesh", sized)
        monkeypatch.setattr(spectrum, "_characteristic_batch", counted)
        res = eigenvalues_shooting(problem, 60)
        assert len(sizes) == 1
        # the scan, then one batch per refinement pass
        assert len(batches) - 1 <= 11, batches
        monkeypatch.setattr(spectrum, "_mesh",
                            lambda problem, zmax: sized(problem, zmax, 4))
        ref = eigenvalues_shooting(problem, 60)
        assert sizes[-1] == 4 * sizes[0]
        rel = np.abs(res.mu - ref.mu) / ref.mu
        assert (res.err <= spectrum.SHOOT_TOL).all()
        assert (rel <= res.err).all(), (rel / res.err).max()

    def test_cantilever_n2(self, monkeypatch):
        # v'''' = mu v, v(0) = v'(0) = 0, v''(1) = v'''(1) = 0: mu = x^4 with
        # 1 + cos x cosh x = 0.  The fundamental matrix grows like e^x, so
        # the determinant loses digits with every root: a large K must raise
        # rather than return a silently wrong spectrum
        prob = make_problem(2, [BC(0, 1, 0), BC(1, 1, 0), BC(2, 0, 1),
                                BC(3, 0, 1)])
        f = lambda x: np.cos(x) + 1.0 / np.cosh(x)
        exact = np.array([brentq(f, (k - 1) * np.pi, k * np.pi, xtol=1e-14)
                          for k in range(1, 6)]) ** 4
        windows = []

        def counted(problem, zmax):
            windows.append(zmax)
            return _mesh(problem, zmax)

        monkeypatch.setattr(spectrum, "_mesh", counted)
        res = eigenvalues_shooting(prob, 5)
        np.testing.assert_allclose(res.mu, exact, rtol=1e-10)
        assert len(windows) == 1
        # mu_8 is resolved only to about 1.6e-7: one mesh, then StepFailure
        with pytest.raises(StepFailure):
            eigenvalues_shooting(prob, 10)
        assert len(windows) == 2


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
        # conditions y'(0) = y(0), y'(1) = -y(1): the catalog problem
        # carries the factor 2 in its weight
        res = nystrom_eigenvalues(_ClosedFormKernel(ou_kernel_values),
                                  None, 10)
        shoot = eigenvalues_shooting(catalog_problem(ProcessSpec("ou")), 10)
        np.testing.assert_allclose(res.mu, shoot.mu, rtol=1e-6)

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

    def test_err_is_not_below_the_rounding_floor(self):
        # Wiener m = 2: the 30th eigenvalue is about 5e-11 lambda_1, and the
        # grid-doubling gap of the small ones falls below eps lambda_1/lambda_k
        kern = build_process(ProcessSpec("wiener", m=2, betas=(0, 1)))
        res = nystrom_eigenvalues(kern, None, 30, grid=1024)
        assert (res.err >= np.finfo(float).eps * res.mu / res.mu[0]).all()

    def test_grid_precondition(self):
        with pytest.raises(GridTooCoarse):
            nystrom_eigenvalues(
                _ClosedFormKernel(wiener_kernel_values,
                                  Grid.composite(64, 8)), None, 10)

    def test_noise_floor_rejects_nan(self):
        _check_above_noise(np.array([2.0, 1.0]))
        for lam in ([1.0, 0.0], [1.0, np.nan]):
            with pytest.raises(GridTooCoarse, match="noise floor"):
                _check_above_noise(np.array(lam))


def _dense_top(kern, g, K, rayleigh=False):
    """Top K eigenvalues of the Nystrom matrix by a dense eigvalsh, the
    matrix assembled with plain temporaries (outer product, S + S.T); with
    `rayleigh`, the Rayleigh quotients of the eigenvectors of a dense eigh,
    summed pairwise."""
    values, odd = kern.evaluate_on(g)
    sw = np.sqrt(g.w)
    S = values * np.outer(sw, sw)
    if odd is not None:
        P, q = g.panels, g.order
        p = np.arange(P)
        swb = sw.reshape(P, q)
        corr = odd * (g.h ** 2 * _kink_full_moments(q))
        S.reshape(P, q, P, q)[p, :, p] += (swb[:, :, None] * corr
                                           / swb[:, None, :])
    S = 0.5 * (S + S.T)
    if not rayleigh:
        return np.linalg.eigvalsh(S)[::-1][:K]
    X = eigh(S, subset_by_index=(g.n - K, g.n - 1))[1][:, ::-1]
    # the rows of the transposed products are contiguous, so they are
    # summed pairwise
    return (np.ascontiguousarray((S @ X * X).T).sum(axis=1)
            / np.ascontiguousarray((X * X).T).sum(axis=1))


def _dense(S):
    """The product of `_ritz_top` for a dense symmetric S: one dgemm into
    the Fortran-ordered output."""
    return lambda X, out: blas.dgemm(1.0, S.T, X, c=out, overwrite_c=True)


PSI_HALF = "(0.5+1.5*t)^(-4)"
#: the cases of `test_matches_dense_doubled_grid` held to Rayleigh
#: quotients: the eigvalsh of integrated Wiener's generator matrix on 1600
#: nodes is 13 eps lambda_1 off them, where eigh's subset driver is 0.5
RAYLEIGH = {"integrated_wiener"}


class TestSeededNystrom:
    """The requested grid and its doubling are solved by Rayleigh-Ritz
    from the previous grid's interpolated eigenvectors; each must reproduce
    the dense solve of its grid."""

    @pytest.mark.parametrize("name, make, weight, K, grid", [
        ("wiener", lambda: base_kernel("wiener"), None, 10, 512),
        ("bridge_psi", lambda: base_kernel("bridge"), PSI_HALF, 40, 512),
        ("ou", lambda: base_kernel("ou"), None, 50, 512),
        ("integrated_wiener",
         lambda: build_process(ProcessSpec("wiener", m=1, betas=(0,))),
         None, 80, 1600),
        ("centred_integrated_bridge",
         lambda: build_process(ProcessSpec("bridge", m=1, betas=(0,),
                                           centerings=1)), None, 30, 512),
        ("ciw1", lambda: build_process(ProcessSpec("ciw", level=1)),
         PSI_HALF, 40, 512),
        ("matern2", lambda: build_process(ProcessSpec("matern", n=2)),
         None, 30, 512),
        # lambda_0 is simple and the rest come in pairs: K = 12 keeps one
        # eigenvalue of the pair (12, 13)
        ("bogolyubov_split_pair",
         lambda: build_process(ProcessSpec("bogolyubov", omega=1.0)),
         None, 12, 512),
        ("K1_grid8", lambda: base_kernel("wiener"), None, 1, 8),
        ("grid_8K", lambda: base_kernel("bridge"), None, 64, 512),
        # n = 3: its smallest eigenvalues sit at the 8 eps lambda_1 floor
        ("wiener_m2",
         lambda: build_process(ProcessSpec("wiener", m=2, betas=(0, 1))),
         None, 30, 512),
        # the dense solve on 480 nodes, Ritz on the kernel's own grid
        ("bridge_psi_own_grid", lambda: base_kernel("bridge"), PSI_HALF, 60,
         1024),
        ("matern2_own_grid", lambda: build_process(ProcessSpec("matern", n=2)),
         None, 40, 1024),
        # 125 panels, which the 10-panel dense grid does not divide
        ("odd_panels", lambda: base_kernel("ou"), None, 10, 1000),
        ("K1", lambda: base_kernel("wiener"), None, 1, 512),
        ("K2", lambda: base_kernel("bridge"), None, 2, 512),
    ])
    def test_matches_dense_doubled_grid(self, name, make, weight, K, grid,
                                        monkeypatch):
        kern = make()
        w = None if weight is None else Weight.from_text(weight)
        ritz = {}

        def recorded(product, Q, K, *args):
            out = _ritz_top(product, Q, K, *args)
            ritz[Q.shape[0]] = out[0][:K]
            return out

        monkeypatch.setattr(spectrum, "_ritz_top", recorded)
        res = nystrom_eigenvalues(kern, w, K, grid=grid)
        kw = kern if w is None else apply_weight(kern, w)
        g = Grid.composite(grid, kw.grid.order)
        # a transformed kernel is compared with the dense solve of the
        # matrix its generators sample
        rayleigh = name in RAYLEIGH
        fine = _dense_top(kw, g.doubled(), K, rayleigh)
        coarse = _dense_top(kw, g, K, rayleigh)
        eps = np.finfo(float).eps
        # the dense solve runs on the coarsest grid with >= 8K nodes when
        # that has at most half the nodes of g; g then gets a Ritz solve
        dense_n = -(-8 * K // g.order) * g.order
        cascade = 2 * dense_n <= g.n
        assert sorted(ritz) == [g.n, 2 * g.n][not cascade:], name
        assert np.array_equal(res.mu, 1.0 / ritz[2 * g.n]), name
        for n, want in ((g.n, coarse), (2 * g.n, fine)):
            if n in ritz:
                gap = np.abs(ritz[n] - want).max()
                assert gap <= 8 * eps * want[0], (name, n, gap / eps / want[0])
        # err is a relative gap of eigenvalues known to 8 eps lambda_1
        # absolute; beyond that rounding floor it must agree to 1e-6
        want = np.abs(coarse - fine) / fine
        floor = 2 * 8 * eps * fine[0] / fine
        assert (np.abs(res.err - want) <= 1e-6 * want + floor).all(), name

    def test_repeated_calls_are_bitwise_equal(self):
        # the CLI output digests hash the printed eigenvalues
        def solve():
            kern = build_process(ProcessSpec("bridge", m=1, betas=(0,)))
            return nystrom_eigenvalues(kern, Weight.from_text(PSI_HALF), 30,
                                       grid=512).mu
        assert solve().tobytes() == solve().tobytes()

    def test_small_ritz_values_keep_relative_accuracy(self):
        # the README eigs size: lambda_10 ~ lambda_1 / 40 must not take
        # the eps lambda_1 absolute error of a divide-and-conquer solve
        kern = base_kernel("ou")
        lam = 1.0 / nystrom_eigenvalues(kern, None, 10, grid=1024).mu
        fine = _dense_top(kern, Grid.composite(2048, 8), 10)
        assert (np.abs(lam - fine) <= 32 * np.finfo(float).eps * fine).all()

    def test_double_eigenvalues_stay_paired(self):
        kern = build_process(ProcessSpec("bogolyubov", omega=1.0))
        lam = 1.0 / nystrom_eigenvalues(kern, None, 13, grid=512).mu
        np.testing.assert_allclose(lam[1:13:2], lam[2:13:2], rtol=1e-12)

    def test_double_eigenvalues_come_back_ascending(self):
        # the Rayleigh correction can swap the two members of a pair; at
        # omega = 3 it did at three pairs, by up to 1.3e-11 in mu
        kern = build_process(ProcessSpec("bogolyubov", omega=3.0))
        mu = nystrom_eigenvalues(kern, None, 40, grid=512).mu
        assert (np.diff(mu) >= 0).all()

    def test_guard_catches_a_missing_leading_mode(self, monkeypatch):
        # a seed without the leading eigenvector, and no Krylov block to
        # bring it back: the Ritz values are lambda_2.. and converge, so
        # only the guard can tell
        monkeypatch.setattr(spectrum, "_KRYLOV_BLOCKS", 0)
        K, g = 5, Grid.composite(256, 8)
        S = _nystrom_matrix(base_kernel("wiener"), g)
        lam, V = np.linalg.eigh(S)
        b = K + K // 4 + 8
        theta, U = _ritz_top(_dense(S), V[:, -b - 1:-1], K)
        np.testing.assert_allclose(theta[:K], lam[-2:-K - 2:-1],
                                   rtol=1e-12)
        with pytest.raises(GridTooCoarse, match="missed an eigenvalue"):
            _guard(S.copy(), theta, U, K)
        # with the leading mode present the same guard passes
        theta, U = _ritz_top(_dense(S), V[:, -b:], K)
        _guard(S.copy(), theta, U, K)

    def test_exhausted_krylov_space_keeps_the_basis_orthonormal(self):
        # rank 5: the first block already spans the range of S, so the
        # next ones project to rounding, which each block's orthonormalized
        # first pass scales up and its second pass removes.  Orthonormalized
        # only once, after two projections, the basis lost orthogonality
        # and the solve stalled until NonConvergence
        rng = np.random.default_rng(1)
        n, K = 300, 2
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        lam = np.zeros(n)
        lam[:5] = [1.0, 0.8, 0.6, 0.4, 0.2]
        S = (Q * lam) @ Q.T
        S = 0.5 * (S + S.T)
        seed = np.linalg.qr(rng.standard_normal((n, K + 8)))[0]
        theta, U = _ritz_top(_dense(S), seed, K)
        np.testing.assert_allclose(theta[:K], lam[:K], rtol=0,
                                   atol=8 * np.finfo(float).eps)
        assert np.abs(U.T @ U - np.eye(U.shape[1])).max() <= 1e-13

    def test_block_limit_raises_nonconvergence(self):
        # eigenvalues 1 .. 0.9 in a random basis: relative gaps of 3e-4
        # leave a random seed far from converged after eight blocks
        rng = np.random.default_rng(3)
        n, K = 300, 5
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        S = (Q * np.linspace(1.0, 0.9, n)) @ Q.T
        seed = np.linalg.qr(rng.standard_normal((n, K + 8)))[0]
        with pytest.raises(NonConvergence, match="8 Krylov blocks"):
            _ritz_top(_dense(S), seed, K)

    @staticmethod
    def _peak_mib(kern, weight, K):
        tracemalloc.start()
        try:
            got = nystrom_eigenvalues(kern, weight, K, grid=1024).mu
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return got, peak / 2 ** 20

    def test_assembly_peak_memory(self):
        # each sample of the doubled grid (n = 2048) lives in one 32 MiB
        # buffer, which the base formula fills and the sqrt(w) similarity
        # overwrites; the Krylov workspace adds about 6 MiB.  Building S
        # beside the sample peaked at 65 MiB.  A copy of the kernel carries
        # no generators, so it is assembled densely
        peak = self._peak_mib(dataclasses.replace(base_kernel("ou")), None,
                              10)[1]
        assert peak < 44, peak

    def test_semiseparable_peak_memory(self):
        # the generators keep the doubled grid's n x n matrix (32 MiB) from
        # ever existing: the Krylov workspace (about 6 MiB) is the peak
        peak = self._peak_mib(base_kernel("ou"), None, 10)[1]
        assert peak < 8, peak

    @pytest.mark.parametrize("make, weight", [
        (lambda: build_process(ProcessSpec("wiener", m=1, betas=(0,))), None),
        (lambda: build_process(ProcessSpec("ciw", level=1)), None),
        (lambda: build_process(ProcessSpec("bridge", m=1, betas=(0,),
                                           centerings=1)), None),
        (lambda: base_kernel("bridge"), PSI_HALF),
    ], ids=["integrated_wiener", "ciw1", "centred_integrated_bridge",
            "bridge_psi"])
    def test_chain_assembly_peak_memory(self, make, weight):
        # the integrations, centering, conditioning and weight overwrite the
        # sample too, so a chain peaks as a base kernel does; a stage that
        # allocated its result beside its input peaked at 65-69 MiB
        w = None if weight is None else Weight.from_text(weight)
        peak = self._peak_mib(make(), w, 10)[1]
        assert peak < 44, peak

    def test_matern_sampler_peak_memory(self):
        # the Matern profile c e^{-r} poly(r) is evaluated a row block at a
        # time in the buffer of |t-s|: one 32 MiB array on the doubled grid
        # (n = 2048) beside the Krylov workspace of K = 40 (about 17 MiB),
        # where whole-matrix temporaries peaked at 96 MiB and
        # c * exp(-r) * polyval(r, coef) at about 160 MiB; the eigenvalues
        # are those of that expression.  A copy carries no generators, so
        # it takes the dense path, which samples the kernel
        kern = dataclasses.replace(base_kernel("matern", {"n": 2}))
        got, peak = self._peak_mib(kern, None, 40)
        assert peak <= 56, peak

        def profile(r):  # n = 2: (1/2) e^{-r} (2 + 2r)
            return 0.5 * np.exp(-r) * npoly.polyval(r, [2.0, 2.0])

        ref = dataclasses.replace(
            kern, sampler=lambda g: _radial_split(g, profile, 0.0))
        want = nystrom_eigenvalues(ref, None, 40, grid=1024).mu
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


BASE_FAMILIES = {
    "wiener": lambda: base_kernel("wiener"),
    "bridge": lambda: base_kernel("bridge"),
    "ou": lambda: base_kernel("ou"),
    "slepian": lambda: base_kernel("slepian"),
    "matern2": lambda: base_kernel("matern", {"n": 2}),
    "bogolyubov3": lambda: base_kernel("bogolyubov", {"omega": 3.0}),
}

#: transformed chains: integration, centering and conditioning pass the
#: generators on
CHAINS = {
    "integrated_wiener": ProcessSpec("wiener", m=1, betas=(0,)),
    "integrated_wiener_from_1": ProcessSpec("wiener", m=1, betas=(1,)),
    "ciw1": ProcessSpec("ciw", level=1),
    "centred_integrated_bridge": ProcessSpec("bridge", m=1, betas=(0,),
                                             centerings=1),
    "wiener_m2": ProcessSpec("wiener", m=2, betas=(0, 1)),
    "ou_centred": ProcessSpec("ou", center_final=True),
    "ciw2": ProcessSpec("ciw", level=2),
    "integrated_matern2": ProcessSpec("matern", n=2, m=1, betas=(0,)),
    "bridge_m2_00": ProcessSpec("bridge", m=2, betas=(0, 0)),
    "bridge_m2_11": ProcessSpec("bridge", m=2, betas=(1, 1)),
    "bridge_m2_10": ProcessSpec("bridge", m=2, betas=(1, 0)),
    "ou_m2_00": ProcessSpec("ou", m=2, betas=(0, 0)),
    "ou_m2_11": ProcessSpec("ou", m=2, betas=(1, 1)),
    # its generators grow like e^{40 t}
    "integrated_bogolyubov40": ProcessSpec("bogolyubov", omega=40.0, m=1,
                                           betas=(0,)),
}


def _base_kernel(family, weight):
    kern = (BASE_FAMILIES[family]() if family in BASE_FAMILIES
            else build_process(CHAINS[family]))
    return kern if weight is None else apply_weight(
        kern, Weight.from_text(weight))


class TestSemiseparable:
    """A catalog base kernel, and a chain of transforms of one that keeps
    its generators, weighted or not, keeps its Nystrom matrix in
    semiseparable form: products and the eigenvalue count it offers must
    be those of the dense matrix (`_nystrom_matrix` of a copy, which
    carries no generators and samples the same formula: the base one, or
    a chain's generators)."""

    @pytest.mark.parametrize("n", [256, 512, 2048])
    @pytest.mark.parametrize("weight", [None, PSI_HALF], ids=["1", "psi"])
    @pytest.mark.parametrize("family", sorted(BASE_FAMILIES) + sorted(CHAINS))
    def test_count_matches_the_dense_inertia(self, family, weight, n):
        kern, g = _base_kernel(family, weight), Grid.composite(n, 8)
        parts = spectrum._semiseparable(kern, g)
        lam = np.linalg.eigvalsh(_nystrom_matrix(dataclasses.replace(kern),
                                                 g))[::-1]
        top = lam[:120]
        # distinct: apart by more than the 8 eps lambda_1 the dense solve
        # resolves (the Bogolyubov pairs are double eigenvalues)
        apart = np.flatnonzero(-np.diff(top) > 8 * np.finfo(float).eps
                               * top[0])
        assert apart.size >= 50, apart.size
        for j in apart:
            # sigma = (top_j + top_j+1)/2, with j + 1 Ritz values above it:
            # the guard passes exactly when it counts j + 1 eigenvalues
            theta = np.append(top[:j + 1], top[j + 1])
            spectrum._count_guard(*parts, theta, j + 1)
        # one Ritz value short of them, it raises
        with pytest.raises(GridTooCoarse, match="missed an eigenvalue"):
            spectrum._count_guard(*parts, theta[1:], j)

    @pytest.mark.parametrize("n", [512, 2048])
    @pytest.mark.parametrize("weight", [None, PSI_HALF], ids=["1", "psi"])
    @pytest.mark.parametrize("family", sorted(BASE_FAMILIES) + sorted(CHAINS))
    def test_product_matches_the_dense_product(self, family, weight, n):
        kern, g = _base_kernel(family, weight), Grid.composite(n, 8)
        S = _nystrom_matrix(dataclasses.replace(kern), g)
        X = np.asfortranarray(
            np.random.default_rng(5).standard_normal((n, 20)))
        # the product writes into the columns of a larger Fortran array, as
        # the Krylov solve's images
        images = np.zeros((n, 40), order="F")
        spectrum._semiseparable_product(*spectrum._semiseparable(kern, g),
                                        X, images[:, 10:30])
        want = blas.dgemm(1.0, S.T, X)
        scale = (np.abs(S) @ np.abs(X)).max()
        gap = np.abs(images[:, 10:30] - want).max()
        assert gap <= 4 * np.finfo(float).eps * scale, gap / scale
        assert not images[:, :10].any() and not images[:, 30:].any()

    def test_large_omega_takes_the_dense_path(self):
        # past omega = 700 the generators e^{omega t} and e^{-omega (s -
        # 1/2)}/(4 omega sinh(omega/2)) leave the normal doubles; the dense
        # formula does not
        g = Grid.composite(64, 8)
        for omega, dense in ((700.0, False), (701.0, True), (1000.0, True)):
            kern = base_kernel("bogolyubov", {"omega": omega})
            parts = spectrum._semiseparable(kern, g)
            assert (parts is None) == dense, omega
            if parts is not None:
                assert all(np.isfinite(a).all() for a in parts)

    def test_transforms_keep_the_generators(self):
        g = Grid.composite(64, 8)
        for spec in CHAINS.values():
            kern = build_process(spec)
            assert spectrum._semiseparable(kern, g) is not None, spec
            assert spectrum._semiseparable(apply_weight(
                kern, Weight.from_text(PSI_HALF)), g) is not None, spec
            # a copy carries none
            assert spectrum._semiseparable(dataclasses.replace(kern),
                                           g) is None, spec
        # a centred kernel's row integral is zero, so the column R that
        # integrating it adds is rounding, and it is dropped
        kern = build_process(ProcessSpec("bridge", centerings=1))
        assert len(kernels._generators_on(kern, g)[0]) == 3
        # centering a kernel of half order 2 or more, and integrating one
        # of half order 3, keep the closure
        for spec in (ProcessSpec("matern", n=2, center_final=True),
                     ProcessSpec("ou", m=1, betas=(0,), center_final=True),
                     ProcessSpec("wiener", m=3, betas=(0, 1, 0))):
            assert spectrum._semiseparable(build_process(spec), g) is None
        # a custom covariance and omega > 700 have none to pass on
        for kern in (base_kernel("bogolyubov", {"omega": 3.0,
                                                "covariance": "cosh(t)"}),
                     base_kernel("bogolyubov", {"omega": 701.0})):
            for k in (kern, integrate_kernel(kern, 0), center_kernel(kern)):
                assert spectrum._semiseparable(k, g) is None, k

    @pytest.mark.parametrize("beta, exact", [
        (0, lambda t, s: t * t * s / 2.0 - t ** 3 / 6.0),
        (1, lambda t, s: ((1.0 - s * s) / 2.0 - (1.0 - s ** 3) / 6.0
                          - t * t * (1.0 - s) / 2.0)),
    ])
    @pytest.mark.parametrize("n", [256, 1024])
    def test_generator_samples_are_exact(self, beta, exact, n):
        # the closure chain's second integration takes the once-integrated
        # kernel as smooth across the diagonal, which it is not: 5.7e-9
        # relative on 256 nodes.  The generators integrate smooth columns
        g = Grid.composite(n, 8)
        kern = build_process(ProcessSpec("wiener", m=1, betas=(beta,)), g)
        values, odd = kern.evaluate_on(g)
        want = exact(np.minimum.outer(g.x, g.x), np.maximum.outer(g.x, g.x))
        assert odd is None
        assert np.abs(values - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("omega", [3.0, 40.0])
    @pytest.mark.parametrize("beta", [0, 1])
    def test_integrated_bogolyubov_samples_are_exact(self, omega, beta):
        # int_0^t int_0^s f(|x - y|) = Phi(t) + Phi(s) - Phi(t - s) - Phi(0)
        # for the even Phi with Phi'' = f(|.|), and the kernel is
        # stationary, so beta = 1 mirrors it.  Integrated from 0, the
        # decaying column e^{-omega s} would leave a constant that cancels
        # against e^{omega t} to e^omega eps, 0.4 of the kernel at omega =
        # 40
        g = Grid.composite(512, 8)
        S = 2.0 * omega * np.sinh(omega / 2.0)

        def phi(z):
            z = np.abs(z)
            return (np.cosh(omega * (z - 0.5)) / S + 0.5 * z) / omega ** 2

        x = g.x if beta == 0 else 1.0 - g.x
        want = phi(x)[:, None] + phi(x) - phi(np.subtract.outer(x, x)) \
            - phi(0.0)
        kern = integrate_kernel(base_kernel("bogolyubov", {"omega": omega}),
                                beta)
        assert spectrum._semiseparable(kern, g) is not None
        values, _ = kern.evaluate_on(g)
        assert np.abs(values - want).max() <= 1e-13 * np.abs(want).max()
        # centred, the kernel loses its constant row integral 1/omega^2
        kern = center_kernel(base_kernel("bogolyubov", {"omega": omega}))
        want = base_kernel("bogolyubov", {"omega": omega}).evaluate_on(g)[0]
        want -= 1.0 / omega ** 2
        values, _ = kern.evaluate_on(g)
        assert np.abs(values - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("run", [
        *(functools.partial(nystrom_eigenvalues, build_process(spec),
                            None if w is None else Weight.from_text(w), K,
                            grid=grid)
          for spec, K, w, grid in (
              (CHAINS["integrated_wiener"], 80, None, 1600),
              (CHAINS["ciw1"], 40, None, None),
              (ProcessSpec("ou"), 100, None, None),
              (ProcessSpec("bridge"), 60, PSI_HALF, None),
              (CHAINS["centred_integrated_bridge"], 60, None, None),
              (ProcessSpec("matern", n=2), 40, None, None),
              (CHAINS["wiener_m2"], 30, None, None))),
        # the README defaults at K = 200; the second exits 3 on its
        # doubling check
        functools.partial(main, ["prob", "--process", "bridge", "-m", "1",
                                 "--betas", "0"]),
        functools.partial(main, ["mc", "--process", "ciw", "--level", "1"]),
    ], ids=["integrated_wiener", "ciw1", "ou", "bridge_psi",
            "centred_integrated_bridge", "matern2", "wiener_m2",
            "prob_integrated_bridge", "mc_ciw1"])
    def test_chains_keep_off_the_dense_path(self, run, monkeypatch, capsys):
        # the benchmark's Nystrom chains: the requested and doubled grids
        # are semiseparable and counted, never assembled or factored, and
        # nothing there is sampled by the closure chain (the base formula,
        # then integrations and centering), which a transformed kernel
        # never runs at all
        calls = []

        def recorded(name, f):
            def call(*args, **kw):
                out = f(*args, **kw)
                calls.append((name, next((a.n for a in args
                                          if isinstance(a, Grid)), 0),
                              out is not None))
                return out
            return call

        monkeypatch.setattr(spectrum, "_semiseparable",
                            recorded("semi", spectrum._semiseparable))
        monkeypatch.setattr(spectrum, "_guard",
                            recorded("guard", spectrum._guard))
        for name in ("_wiener_values", "_bridge_values"):
            monkeypatch.setattr(kernels, name,
                                recorded("base", getattr(kernels, name)))
        for name in ("integrate_cols", "integrate_full"):
            monkeypatch.setattr(kernels, name,
                                recorded("closure", getattr(kernels, name)))
        run()
        capsys.readouterr()
        ritz = {n for name, n, _ in calls if name == "semi"}
        assert ritz and all(ok for name, _, ok in calls if name == "semi")
        assert not [c for c in calls if c[0] in ("guard", "closure")], calls
        assert not ritz & {n for name, n, _ in calls if name == "base"}

    def test_count_guard_catches_a_missing_leading_mode(self, monkeypatch):
        # as the dense guard's test: a seed without the leading eigenvector
        # and no Krylov block to bring it back
        monkeypatch.setattr(spectrum, "_KRYLOV_BLOCKS", 0)
        K, g = 5, Grid.composite(256, 8)
        kern = base_kernel("wiener")
        parts = spectrum._semiseparable(kern, g)
        product = functools.partial(spectrum._semiseparable_product, *parts)
        lam, V = np.linalg.eigh(_nystrom_matrix(kern, g))
        b = K + K // 4 + 8
        theta, U = _ritz_top(product, V[:, -b - 1:-1], K)
        np.testing.assert_allclose(theta[:K], lam[-2:-K - 2:-1], rtol=1e-12)
        with pytest.raises(GridTooCoarse, match="missed an eigenvalue"):
            spectrum._count_guard(*parts, theta, K)
        theta, U = _ritz_top(product, V[:, -b:], K)
        spectrum._count_guard(*parts, theta, K)


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
        # sums close like 1/K, which the fit in 1/k extrapolates to about
        # 2e-11; the reported error bar must cover the rest.
        k = np.arange(1, 201)
        base = ((k - 0.5) * np.pi) ** 2
        s1 = self._result(base * np.exp(1 / k ** 2))
        s2 = self._result(base)
        val, err = eigenvalue_product(s1, s2)
        exact = np.exp(np.pi ** 2 / 6)
        assert val == pytest.approx(exact, rel=1e-9)
        assert abs(val - exact) < 3 * err
        assert err < 1e-9 * val

    def test_divergent_product_reports_its_error(self):
        # prod (1 + 1/k) grows like K: the degree-3 and degree-4 fits in 1/k
        # disagree, and the error bar says so
        k = np.arange(1, 41)
        base = ((k - 0.5) * np.pi) ** 2
        val, err = eigenvalue_product(self._result(base * (1 + 1 / k)),
                                      self._result(base))
        assert err >= 0.1 * val

    def test_spectra_error_bars_reach_the_product(self):
        # the fit alone is far inside 1e-4 here: the spectra's own 1e-4
        # error bars must reach the product's err
        k = np.arange(1, 61)
        base = ((k - 0.5) * np.pi) ** 2
        s1 = SpectrumResult(mu=base * np.exp(1 / k ** 2), method="nystrom",
                            err=np.full(60, 1e-4), theta_norm=1.0)
        val, err = eigenvalue_product(s1, self._result(base))
        assert err >= 60 * 1e-4 * val

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
