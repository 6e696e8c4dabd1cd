"""Covariance kernels: base families, transforms, process chains.

Closed-form oracles used below (t <= s throughout; symmetrize for t > s):

  integrated Wiener      K1(t,s) = t^2 s/2 - t^3/6
  twice-integrated       K2(t,s) = t^5/120 + t^3 s^2/12 - t^4 s/24
                         (K2(1,1) = 1/20)
  int from 1 of Wiener   C(t,s)  = (1-s^2)/2 - (1-s^3)/6 - t^2(1-s)/2
                         (C(0,0) = 1/3)
  centered bridge        Kc(t,s) = min(t,s) - ts - t(1-t)/2 - s(1-s)/2 + 1/12
"""

import tracemalloc

import numpy as np
import pytest

from greenball.cli import main
from greenball.errors import (NormalizationMismatch, SingularConditioning,
                              UnsupportedFamily)
from greenball.kernels import (_FAMILIES, _TILE, DEFAULT_GRID, Kernel,
                               ProcessSpec, _symmetrize, apply_weight,
                               base_kernel, build_process, catalog_problem,
                               center_kernel, condition_kernel,
                               integrate_kernel)
from greenball.model import Weight, classify_boundary_conditions
from greenball.quadrature import Grid, integrate_full
from greenball.spectrum import (eigenvalue_product, eigenvalues_shooting,
                                nystrom_eigenvalues)
from greenball.theta import ROUTE_PERIODIC, closed_form_ratio, ratio_limit

GRID = Grid.composite(256, 8)


def _sym_closed_form(f, x):
    """Sample a t<=s closed form symmetrically on the grid."""
    t = np.minimum.outer(x, x)
    s = np.maximum.outer(x, x)
    return f(t, s)


def _k1(t, s):
    return t * t * s / 2.0 - t ** 3 / 6.0


def _k2(t, s):
    return t ** 5 / 120.0 + t ** 3 * s * s / 12.0 - t ** 4 * s / 24.0


def _int_from_one(t, s):
    return (1.0 - s * s) / 2.0 - (1.0 - s ** 3) / 6.0 - t * t * (1.0 - s) / 2.0


def _centered_bridge(t, s):
    return (np.minimum(t, s) - t * s - t * (1.0 - t) / 2.0
            - s * (1.0 - s) / 2.0 + 1.0 / 12.0)


def _panel_lags(g=GRID):
    """In-panel lags x_i - x_j, shape (panels, order, order)."""
    xb = g.x.reshape(g.panels, g.order)
    return xb[:, :, None] - xb[:, None, :]


def _diag_blocks(m, g=GRID):
    """Diagonal panel blocks of a grid x grid matrix, the blocks on which a
    kernel's kink coefficient is defined."""
    p = np.arange(g.panels)
    return m.reshape(g.panels, g.order, g.panels, g.order)[p, :, p]


def _panel_constant(c, g=GRID):
    return np.full((g.panels, g.order, g.order), c)


def _gram_min_eig(k):
    sw = np.sqrt(k.grid.w)
    v, _ = k.evaluate_on(k.grid)
    return np.linalg.eigvalsh(v * np.outer(sw, sw)).min()


# ---------------------------------------------------------------------------
# base families


def test_wiener_and_bridge_values():
    x = GRID.x
    kw = base_kernel("wiener", grid=GRID)
    kb = base_kernel("Bridge", grid=GRID)
    vw, odd = kw.evaluate_on(GRID)
    assert np.array_equal(vw, np.minimum.outer(x, x))
    assert np.array_equal(kb.evaluate_on(GRID)[0],
                          np.minimum.outer(x, x) - np.outer(x, x))
    # smooth + odd*|t-s| must reassemble the kernel on the diagonal panel
    # blocks, where odd is defined; for min the smooth part is (t+s)/2
    assert odd.shape == (GRID.panels, GRID.order, GRID.order)
    xb = x.reshape(GRID.panels, GRID.order)
    smooth = _diag_blocks(vw) - odd * np.abs(_panel_lags())
    assert np.allclose(smooth, (xb[:, :, None] + xb[:, None, :]) / 2.0,
                       atol=1e-15)
    assert kw.half_order == 1 and kb.half_order == 1


def test_ou_decomposition():
    k = base_kernel("ornstein-uhlenbeck", grid=GRID)
    x = GRID.x
    u = x[:, None] - x[None, :]
    v, odd = k.evaluate_on(GRID)
    assert np.allclose(v, np.exp(-np.abs(u)), rtol=1e-15, atol=0)
    # exp(-|u|) = cosh(u) - (sinh(u)/u)|u| on the diagonal panel blocks
    ub = _panel_lags()
    smooth = _diag_blocks(v) - odd * np.abs(ub)
    assert np.allclose(smooth, np.cosh(ub), rtol=0, atol=1e-15)
    assert np.allclose(np.diagonal(odd, axis1=1, axis2=2), -1.0, atol=0)


def test_slepian_values():
    k = base_kernel("slepian", grid=GRID)
    u = np.abs(GRID.x[:, None] - GRID.x[None, :])
    assert np.array_equal(k.evaluate_on(GRID)[0], 1.0 - u)
    # covariance of W(t+1)-W(t) vanishes at lag 1
    assert abs(1.0 - abs(0.0 - 1.0)) == 0.0


def test_matern_1_equals_ou():
    km = base_kernel("matern", {"n": 1}, GRID)
    (vm, om), (vo, oo) = (k.evaluate_on(GRID)
                          for k in (km, base_kernel("ou", grid=GRID)))
    assert np.allclose(vm, vo, rtol=1e-15, atol=0)
    assert np.allclose(om, oo, rtol=1e-13, atol=1e-13)


def test_matern_2_formula_and_smoothness():
    k = base_kernel("matern", {"n": 2}, GRID)
    u = np.abs(GRID.x[:, None] - GRID.x[None, :])
    v, odd = k.evaluate_on(GRID)
    assert np.allclose(v, np.exp(-u) * (1.0 + u), rtol=1e-14, atol=0)
    # C^1 kernel: the |t-s| coefficient vanishes on the diagonal
    assert np.allclose(np.diagonal(odd, axis1=1, axis2=2), 0.0,
                       atol=1e-15)
    assert k.half_order == 2


def test_bogolyubov_default_and_custom():
    om = 1.7
    v, odd = base_kernel("bogolyubov", {"omega": om}, GRID).evaluate_on(GRID)
    assert np.allclose(np.diag(v),
                       np.cosh(om / 2) / (2 * om * np.sinh(om / 2)),
                       rtol=1e-15)
    assert np.allclose(np.diagonal(odd, axis1=1, axis2=2), -0.5,
                       atol=1e-14)
    # a custom expression in the signed lag reproduces OU exactly
    kc = base_kernel("bogolyubov", {"omega": 1.0, "covariance": "exp(-t)"},
                     GRID)
    (vc, oc), (vo, oo) = (k.evaluate_on(GRID)
                          for k in (kc, base_kernel("ou", grid=GRID)))
    assert np.allclose(vc, vo, rtol=1e-15, atol=0)
    assert np.allclose(oc, oo, rtol=0, atol=1e-9)
    with pytest.raises(UnsupportedFamily):
        base_kernel("bogolyubov", {"omega": 1.0, "covariance": None}, GRID)


def test_bogolyubov_covariance_must_be_signed_lag():
    # an expression even in the lag has no kink coefficient to give: refused
    with pytest.raises(ValueError, match="signed lag"):
        base_kernel("bogolyubov", {"omega": 1.0,
                                   "covariance": "exp(-abs(t))"}, GRID)
    # signed-lag forms and smooth even ones are accepted
    for cov in ("exp(-t)", "default", "exp(-t^2)"):
        base_kernel("bogolyubov", {"omega": 1.0, "covariance": cov}, GRID)
    assert main(["prob", "--process", "bogolyubov", "--omega", "1",
                 "--covariance", "exp(-abs(t))", "-K", "20"]) == 2


def test_family_rejects():
    with pytest.raises(UnsupportedFamily):
        base_kernel("poisson", grid=GRID)
    with pytest.raises(UnsupportedFamily):
        base_kernel("conditional-integrated-wiener", grid=GRID)
    with pytest.raises(ValueError):
        base_kernel("bogolyubov", {"omega": -1.0}, GRID)
    with pytest.raises(ValueError):
        base_kernel("wiener", {"n": 3}, GRID)


def test_kernel_symmetry_guard():
    bad = np.array([[0.0, 1.0], [0.5, 0.0]])
    k = Kernel(grid=GRID, label="bad", half_order=1,
               sampler=lambda g: (bad, None))
    # construction samples nothing; the first sample is checked
    with pytest.raises(ValueError):
        k.evaluate_on(GRID)
    # the check walks tiles against their mirrors: an asymmetry only in the
    # last, partial tile -- on the diagonal or off it -- is caught too, and
    # a symmetric matrix passes
    x = np.linspace(0.0, 1.0, 2 * _TILE + 3)
    good = np.minimum.outer(x, x)
    Kernel(grid=GRID, label="good", half_order=1,
           sampler=lambda g: (good, None)).evaluate_on(GRID)
    for entry in ((-2, -1), (0, -1)):
        tail = good.copy()
        tail[entry] += 1e-12
        k = Kernel(grid=GRID, label="bad_tail", half_order=1,
                   sampler=lambda g: (tail, None))
        with pytest.raises(ValueError, match="not symmetric"):
            k.evaluate_on(GRID)


@pytest.mark.parametrize("n", [1, 7, _TILE + 3, 1031])
def test_symmetrize_is_the_plain_average(n):
    A = np.random.default_rng(n).standard_normal((n, n))
    want = 0.5 * (A + A.T)
    assert _symmetrize(A) is A
    assert np.array_equal(A, want)


def test_kernel_rejects_non_finite_samples():
    good = np.eye(GRID.n)
    nan, inf = good.copy(), good.copy()
    nan[3, 3], inf[0, 5] = np.nan, np.inf
    odd = np.full((GRID.panels, GRID.order, GRID.order), -0.5)
    odd[1, 2, 0] = np.nan
    for values, o in ((nan, None), (inf, None), (good, odd)):
        k = Kernel(grid=GRID, label="broken", half_order=1,
                   sampler=lambda g, v=values, o=o: (v, o))
        with pytest.raises(ValueError, match="kernel broken has non-finite"):
            k.evaluate_on(GRID)


def test_non_finite_covariance_is_a_specification_error(capsys):
    # sqrt of a negative lag, a constant 1/0 and a negative base to a
    # fractional power leave the expression's domain.  The covariance is
    # evaluated checked, so each is refused with one message and no
    # RuntimeWarning (the test configuration makes a warning an error)
    for covariance in ("sqrt(t)", "1/0+exp(-t)", "(-8)^(1/3)*exp(-t)"):
        assert main(["prob", "--process", "bogolyubov", "--omega", "1",
                     "--covariance", covariance, "-K", "5",
                     "--eps", "0.3"]) == 2, covariance
        err = capsys.readouterr().err
        assert "left its domain" in err, covariance
        assert len(err.splitlines()) == 1, err


#: 131 panels of 8: the last row and column of tiles are partial
ODD_GRID = Grid.composite(1048, 8)
PSI_A = Weight.from_text("(0.5+1.5*t)^(-4)")


@pytest.mark.parametrize("kern", [
    *(build_process(ProcessSpec(fam, n=2, omega=1.0, level=1), ODD_GRID)
      for fam in _FAMILIES),
    build_process(ProcessSpec("wiener", m=1, betas=(0,)), ODD_GRID),
    build_process(ProcessSpec("bridge", m=1, betas=(0,), centerings=1),
                  ODD_GRID),
    build_process(ProcessSpec("wiener", m=2, betas=(0, 1)), ODD_GRID),
    build_process(ProcessSpec("ou", center_final=True), ODD_GRID),
    apply_weight(base_kernel("bridge", grid=ODD_GRID), PSI_A),
], ids=repr)
def test_samples_are_bitwise_symmetric(kern):
    v, odd = kern.evaluate_on(ODD_GRID)
    assert np.array_equal(v, v.T)
    if odd is not None:
        assert np.array_equal(odd, odd.transpose(0, 2, 1))


def test_evaluate_on_hands_over_a_fresh_sample():
    # no sample is kept: two calls on the kernel's own grid return two
    # distinct arrays, each writable and C-ordered, that the caller owns
    kern = apply_weight(base_kernel("bridge", grid=GRID), PSI_A)
    (v1, o1), (v2, o2) = kern.evaluate_on(GRID), kern.evaluate_on(GRID)
    assert v1 is not v2 and o1 is not o2
    assert not np.shares_memory(v1, v2)
    for v in (v1, v2):
        assert v.flags.writeable and v.flags.c_contiguous
    assert np.array_equal(v1, v2) and np.array_equal(o1, o2)


def _fortran_read_only(v, o):
    v, o = np.asfortranarray(v), np.asfortranarray(o)
    v.setflags(write=False)
    o.setflags(write=False)
    return v, o


def test_nystrom_reads_any_sample_layout():
    # a user sampler may hand back Fortran-ordered, read-only arrays;
    # `evaluate_on` copies them once into the layout the solve writes in
    bridge = base_kernel("bridge", grid=GRID)
    kern = Kernel(GRID, "fortran(bridge)", 1,
                  lambda g: _fortran_read_only(*bridge.evaluate_on(g)))
    handed = kern.sampler(GRID.doubled())[0]
    assert not handed.flags.c_contiguous and not handed.flags.writeable
    values = kern.evaluate_on(GRID.doubled())[0]
    assert values.flags.c_contiguous and values.flags.writeable
    got = nystrom_eigenvalues(kern, None, 8)
    want = nystrom_eigenvalues(bridge, None, 8)
    assert np.array_equal(got.mu, want.mu)
    assert np.array_equal(got.err, want.err)


def _four_stages(base):
    """integrate, center, condition and weight `base`, in that order."""
    return apply_weight(condition_kernel(
        center_kernel(integrate_kernel(base, 0)), lambda x: x,
        np.array([[1.0]])), PSI_A)


def test_stages_write_into_the_sample_they_are_handed():
    # a writable C-ordered sample is the buffer of the whole chain, on the
    # kernel's own grid and off it: integration, centering, conditioning
    # and weight each return the array the sampler handed over, overwritten
    handed = []

    def sampler(g):
        handed.append(np.minimum.outer(g.x, g.x))
        return handed[-1], _panel_constant(-0.5, g)

    kern = _four_stages(Kernel(GRID, "wiener", 1, sampler))
    for g in (GRID, GRID.doubled()):
        values, _ = kern.evaluate_on(g)
        assert values is handed[-1]
        assert np.array_equal(values, values.T)


def test_chain_copies_a_read_only_fortran_sample_once():
    # the base kernel's `evaluate_on` copies the user's read-only Fortran
    # sample; the four stages above it then work in that one copy, so the
    # chain's peak holds one n x n matrix beyond the user's
    g = Grid.composite(1024, 8)
    sample = _fortran_read_only(np.minimum.outer(g.x, g.x),
                                _panel_constant(-0.5, g))
    kern = _four_stages(Kernel(GRID, "user", 1, lambda _: sample))
    tracemalloc.start()
    try:
        values, _ = kern.evaluate_on(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not np.shares_memory(values, sample[0])
    assert values.nbytes <= peak < 1.5 * values.nbytes, peak


def test_catalog_kernels_are_symmetric_by_construction():
    # catalog bases and transforms skip the tiled symmetry check of their
    # first sample; a user-built Kernel keeps it, and every kernel keeps the
    # finite check
    kerns = [base_kernel("ou", grid=GRID),
             build_process(ProcessSpec("ciw", level=1), GRID),
             center_kernel(build_process(
                 ProcessSpec("bridge", m=1, betas=(0,)), GRID)),
             apply_weight(base_kernel("bridge", grid=GRID), PSI_A)]
    assert all(k.symmetric for k in kerns)
    user = Kernel(GRID, "user", 1, lambda g: (np.eye(g.n), None))
    assert not user.symmetric
    nan = np.eye(GRID.n)
    nan[2, 2] = np.nan
    trusted = Kernel(GRID, "trusted", 1, lambda g: (nan, None),
                     symmetric=True)
    with pytest.raises(ValueError, match="non-finite"):
        trusted.evaluate_on(GRID)


def test_build_process_samples_lazily(monkeypatch):
    import greenball.kernels as kernels
    calls = []
    wiener = kernels._wiener_values

    def counted(g):
        calls.append(g.n)
        return wiener(g)

    monkeypatch.setattr(kernels, "_wiener_values", counted)
    k = build_process(ProcessSpec("wiener", m=2, betas=(0, 1)), GRID)
    assert calls == []
    assert k.evaluate_on(GRID)[1] is None
    assert calls == [GRID.n]
    # nothing is kept: every call samples its grid anew
    k.evaluate_on(GRID.doubled())
    k.evaluate_on(GRID)
    assert calls == [GRID.n, 2 * GRID.n, GRID.n]


# ---------------------------------------------------------------------------
# integration


def test_integrate_wiener_closed_form():
    k1 = integrate_kernel(base_kernel("wiener", grid=GRID), 0)
    expect = _sym_closed_form(_k1, GRID.x)
    # second-axis quadrature of the C^1 integrand leaves an O(h^3) residue
    v, odd = k1.evaluate_on(GRID)
    assert np.abs(v - expect).max() < 5e-9
    assert odd is None
    assert k1.half_order == 2
    # total mass int int min = Var W_1(1) = 1/3
    kw = base_kernel("wiener", grid=GRID)
    total = GRID.integrate(integrate_full(GRID, *kw.evaluate_on(GRID)))
    assert abs(total - 1.0 / 3.0) < 1e-14


def test_twice_integrated_closed_form():
    k2 = integrate_kernel(
        integrate_kernel(base_kernel("wiener", grid=GRID), 0), 0)
    expect = _sym_closed_form(_k2, GRID.x)
    assert np.abs(k2.evaluate_on(GRID)[0] - expect).max() < 5e-9
    # brute-force double quadrature of the K1 closed form pins the
    # variance at (1,1) to 1/20
    k1c = _sym_closed_form(_k1, GRID.x)
    total = GRID.integrate(integrate_full(GRID, k1c, None))
    assert abs(total - 1.0 / 20.0) < 1e-11


def test_integrate_from_one():
    k = integrate_kernel(base_kernel("wiener", grid=GRID), 1)
    expect = _sym_closed_form(_int_from_one, GRID.x)
    v, _ = k.evaluate_on(GRID)
    assert np.abs(v - expect).max() < 5e-9
    # vanishes where the integration range is empty (t = 1); the nearest
    # node sits 1-x[-1] away and the kernel decays linearly there
    assert np.abs(v[-1, :]).max() < 2.0 * (1.0 - GRID.x[-1])
    # Var at t = 0 is int int min = 1/3
    assert abs(v[0, 0] - 1.0 / 3.0) < 1e-6


def test_integrate_vanishes_at_lower_limit():
    k = integrate_kernel(base_kernel("bridge", grid=GRID), 0)
    assert np.abs(k.evaluate_on(GRID)[0][0, :]).max() < 1e-6
    with pytest.raises(ValueError):
        integrate_kernel(base_kernel("wiener", grid=GRID), 2)


def test_recipe_resamples_on_other_grids():
    k1 = integrate_kernel(base_kernel("wiener", grid=GRID), 0)
    gg = GRID.doubled()
    vals, odd = k1.evaluate_on(gg)
    assert np.abs(vals - _sym_closed_form(_k1, gg.x)).max() < 1e-9
    assert odd is None


# ---------------------------------------------------------------------------
# centering


def test_center_bridge_annihilates_constants():
    c = center_kernel(base_kernel("bridge", grid=GRID))
    v, odd = c.evaluate_on(GRID)
    expect = _sym_closed_form(_centered_bridge, GRID.x)
    assert np.abs(v - expect).max() < 1e-13
    # kink coefficient untouched by the rank-one smooth subtraction
    assert np.array_equal(odd, _panel_constant(-0.5))
    rows = integrate_full(GRID, v, odd)
    assert np.abs(rows).max() < 1e-10


def test_center_idempotent():
    c1 = center_kernel(base_kernel("bridge", grid=GRID))
    c2 = center_kernel(c1)
    v1, v2 = (c.evaluate_on(GRID)[0] for c in (c1, c2))
    assert np.abs(v1 - v2).max() < 1e-12


def test_centered_bridge_variance_at_zero():
    # Kc(0,0) = int int (min - uv) = 1/3 - 1/4 = 1/12
    assert abs(_centered_bridge(0.0, 0.0) - 1.0 / 12.0) < 1e-15
    kb = base_kernel("bridge", grid=GRID)
    total = GRID.integrate(integrate_full(GRID, *kb.evaluate_on(GRID)))
    assert abs(total - 1.0 / 12.0) < 1e-14


# ---------------------------------------------------------------------------
# conditioning


def test_condition_wiener_on_endpoint_gives_bridge():
    k = base_kernel("wiener", grid=GRID)
    cond = condition_kernel(k, lambda x: x, [[1.0]])
    (vc, oc), (vb, ob) = (c.evaluate_on(GRID)
                          for c in (cond, base_kernel("bridge", grid=GRID)))
    assert np.abs(vc - vb).max() < 1e-12
    assert np.array_equal(oc, ob)


def test_condition_on_grid_node_zeroes_row():
    i0 = 100
    t0 = GRID.x[i0]
    k = base_kernel("wiener", grid=GRID)
    cond = condition_kernel(k, lambda x: np.minimum(x, t0), [[t0]])
    assert np.abs(cond.evaluate_on(GRID)[0][i0, :]).max() < 1e-12


def test_conditional_integrated_wiener_level1_oracle():
    got = build_process(ProcessSpec("ciw", level=1), GRID)
    x = GRID.x
    k1 = _sym_closed_form(_k1, x)
    cross = np.column_stack([x * x / 2.0, x * x / 2.0 - x ** 3 / 6.0])
    gram = np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
    expect = k1 - cross @ np.linalg.solve(gram, cross.T)
    v, _ = got.evaluate_on(GRID)
    assert np.abs(v - expect).max() < 1e-8
    assert _gram_min_eig(got) > -1e-10
    # pinned to zero at t = 1 together with its integral
    assert v[-1, -1] < 1e-5
    assert got.half_order == 2


def test_conditional_level0_is_bridge():
    got = build_process(ProcessSpec("ConditionalIntegratedWiener", level=0),
                        GRID)
    kb = base_kernel("bridge", grid=GRID)
    assert np.abs(got.evaluate_on(GRID)[0]
                  - kb.evaluate_on(GRID)[0]).max() < 1e-12


def test_singular_conditioning():
    k = base_kernel("wiener", grid=GRID)
    with pytest.raises(SingularConditioning):
        condition_kernel(k, lambda x: np.column_stack([x, x]),
                         [[1.0, 1.0], [1.0, 1.0]])


# ---------------------------------------------------------------------------
# weighting


def test_apply_weight_identity_and_scaling():
    k = base_kernel("wiener", grid=GRID)
    w1 = Weight.from_text("1")
    w4 = Weight.from_text("4")
    v, odd = k.evaluate_on(GRID)
    assert np.array_equal(apply_weight(k, w1).evaluate_on(GRID)[0], v)
    k4 = apply_weight(k, w4)
    v4, odd4 = k4.evaluate_on(GRID)
    assert np.allclose(v4, 4.0 * v, rtol=1e-15)
    assert np.allclose(odd4, 4.0 * odd, rtol=1e-15)
    assert k4.weighted


def test_weighted_kernel_matches_weight_argument_route():
    k = base_kernel("wiener", grid=GRID)
    w = Weight.from_text("(0.5+1.5*t)^(-4)")
    s_pre = nystrom_eigenvalues(apply_weight(k, w), None, 8)
    s_arg = nystrom_eigenvalues(k, w, 8)
    assert np.allclose(s_pre.mu, s_arg.mu, rtol=1e-12)
    assert s_pre.theta_norm == s_arg.theta_norm


def test_preweighted_kernel_carries_its_normalization():
    # int sqrt(4) = 2, so the product against the unweighted spectrum
    # diverges and must be refused on both routes
    k = base_kernel("wiener", grid=GRID)
    w = Weight.from_text("4")
    plain = nystrom_eigenvalues(k, None, 8)
    s_pre = nystrom_eigenvalues(apply_weight(k, w), None, 8)
    assert s_pre.theta_norm == pytest.approx(2.0, rel=1e-14)
    for s in (s_pre, nystrom_eigenvalues(k, w, 8)):
        with pytest.raises(NormalizationMismatch):
            eigenvalue_product(s, plain)


def test_weight_is_terminal():
    k = apply_weight(base_kernel("wiener", grid=GRID), Weight.from_text("1"))
    with pytest.raises(ValueError):
        apply_weight(k, Weight.from_text("1"))
    with pytest.raises(ValueError):
        integrate_kernel(k, 0)
    with pytest.raises(ValueError):
        center_kernel(k)
    with pytest.raises(ValueError):
        condition_kernel(k, lambda x: x, [[1.0]])


# ---------------------------------------------------------------------------
# process chains


def test_build_process_plain_families():
    kw = build_process(ProcessSpec("wiener"), GRID)
    assert np.array_equal(kw.evaluate_on(GRID)[0],
                          np.minimum.outer(GRID.x, GRID.x))
    k1 = build_process(ProcessSpec("wiener", m=1, betas=(1,)), GRID)
    assert np.abs(k1.evaluate_on(GRID)[0]
                  - _sym_closed_form(_int_from_one, GRID.x)).max() < 5e-9


def test_build_process_centered_integrated_bridge():
    spec = ProcessSpec("bridge", centerings=1)
    got = build_process(spec, GRID)
    # independent route: integrate the closed-form centered-bridge kernel
    from greenball.quadrature import integrate_rows
    kc = _sym_closed_form(_centered_bridge, GRID.x)
    A = integrate_rows(GRID, kc, _panel_constant(-0.5), lower=0)
    expect = integrate_rows(GRID, A.T, None, lower=0).T
    expect = 0.5 * (expect + expect.T)
    assert np.abs(got.evaluate_on(GRID)[0] - expect).max() < 1e-10
    assert _gram_min_eig(got) > -1e-10
    assert got.half_order == 2


def test_build_process_final_centering_annihilates():
    spec = ProcessSpec("bridge", centerings=2, center_final=True)
    got = build_process(spec, GRID)
    rows = integrate_full(GRID, *got.evaluate_on(GRID))
    assert np.abs(rows).max() < 1e-10
    assert _gram_min_eig(got) > -1e-10
    assert got.half_order == 3


def test_process_spec_validation():
    with pytest.raises(ValueError):
        ProcessSpec("wiener", m=1, betas=())
    with pytest.raises(ValueError):
        ProcessSpec("wiener", m=1, betas=(2,))
    with pytest.raises(ValueError):
        ProcessSpec("matern")
    with pytest.raises(ValueError):
        ProcessSpec("bogolyubov", omega=0.0)
    with pytest.raises(ValueError):
        ProcessSpec("ciw")
    assert ProcessSpec("bridge", m=2, betas=(0, 1)).betas == (0, 1)


def test_build_process_half_order_bookkeeping():
    spec = ProcessSpec("bridge", centerings=1, m=2, betas=(0, 1))
    assert build_process(spec, GRID).half_order == 4


@pytest.mark.parametrize("spec", [
    ProcessSpec("wiener"),
    ProcessSpec("bridge"),
    ProcessSpec("ou"),
    ProcessSpec("slepian"),
    ProcessSpec("matern", n=2),
    ProcessSpec("bogolyubov", omega=1.0),
    ProcessSpec("wiener", m=2, betas=(0, 1)),
    ProcessSpec("ciw", level=2),
    ProcessSpec("bridge", centerings=1, m=1, betas=(1,)),
])
def test_constructed_kernels_are_psd(spec):
    k = build_process(spec, GRID)
    assert _gram_min_eig(k) > -1e-10



# ---------------------------------------------------------------------------
# family registry: catalog boundary-value problems

README_WEIGHT = Weight.from_text("(0.5+1.5*t)^(-4)")


@pytest.mark.parametrize("family", ["wiener", "bridge", "ou", "slepian"])
def test_catalog_problem_matches_kernel_spectrum(family):
    # the Green-function identification: shooting the boundary-value
    # problem and Nystrom on the weighted covariance give the same spectrum
    spec = ProcessSpec(family)
    shoot = eigenvalues_shooting(catalog_problem(spec, README_WEIGHT), 5)
    nys = nystrom_eigenvalues(build_process(spec), README_WEIGHT, 5,
                              grid=1024)
    np.testing.assert_allclose(shoot.mu, nys.mu, rtol=1e-6)


def test_catalog_problem_bogolyubov_is_periodic():
    problem = catalog_problem(ProcessSpec("bogolyubov", omega=1.5))
    assert problem.op.p == (1.5 * 1.5,)
    assert classify_boundary_conditions(problem).tag == "periodic"
    unit = Weight.from_text("1")
    closed = closed_form_ratio(problem, unit, README_WEIGHT)
    assert closed.route == ROUTE_PERIODIC
    assert closed.ratio == pytest.approx(
        ratio_limit(problem, unit, README_WEIGHT).ratio, rel=1e-10)


@pytest.mark.parametrize("spec", [
    ProcessSpec("matern", n=1),
    ProcessSpec("ciw", level=1),
    ProcessSpec("wiener", m=1, betas=(0,)),
    ProcessSpec("bridge", centerings=1),
    ProcessSpec("ou", center_final=True),
])
def test_catalog_problem_none_without_a_formulation(spec):
    assert catalog_problem(spec) is None


@pytest.mark.parametrize("alias, family", [
    ("Brownian-Motion", "wiener"), ("brownian_bridge", "bridge"),
    ("ornstein-uhlenbeck", "ou"), ("Conditional Integrated Wiener", "ciw"),
])
def test_family_aliases_resolve(alias, family):
    spec, ref = ProcessSpec(alias, level=0), ProcessSpec(family, level=0)
    assert build_process(spec, GRID).label == build_process(ref, GRID).label
    got, want = catalog_problem(spec), catalog_problem(ref)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.bcs == want.bcs and got.op == want.op
