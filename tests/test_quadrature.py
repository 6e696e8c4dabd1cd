import numpy as np
import pytest

from greenball.quadrature import (Grid, _kink_full_moments,
                                  _kink_partial_moments, _partial_weights,
                                  integrate_cols, integrate_full,
                                  integrate_rows)


@pytest.fixture(scope="module")
def grid():
    return Grid.composite(1024, 8)


def _kink_blocks(grid, c):
    """A |t-s| coefficient that is the constant c, on the diagonal panel
    blocks where quadrature reads it."""
    return np.full((grid.panels, grid.order, grid.order), c)


def test_composite_grid_shape(grid):
    assert grid.n == 1024
    assert grid.panels == 128
    assert grid.x.shape == (1024,) and grid.w.shape == (1024,)
    assert 0.0 < grid.x[0] and grid.x[-1] < 1.0
    assert np.all(np.diff(grid.x) > 0)
    assert grid.w.sum() == pytest.approx(1.0, abs=1e-14)


def test_composite_validates_node_count():
    with pytest.raises(ValueError):
        Grid.composite(1003, 8)  # not a multiple of the panel order
    for nodes in (0, -8):
        with pytest.raises(ValueError, match="positive multiple"):
            Grid.composite(nodes, 8)


def test_polynomial_exactness(grid):
    # order-8 panels integrate degree-15 polynomials exactly
    assert grid.integrate(grid.x ** 15) == pytest.approx(1 / 16, rel=1e-14)


def test_smooth_integral(grid):
    val = grid.integrate(np.sin(3 * grid.x))
    assert val == pytest.approx((1 - np.cos(3)) / 3, rel=1e-14)


def test_doubled(grid):
    assert grid.doubled().n == 2048
    v = grid.doubled().integrate(np.exp(grid.doubled().x))
    assert v == pytest.approx(np.e - 1, rel=1e-13)


def test_cumulative_matrix_smooth(grid):
    # the cumulative integral of a single column, x -> int_0^x sin(3u) du
    F = integrate_rows(grid, np.sin(3 * grid.x)[:, None])
    np.testing.assert_allclose(F[:, 0], (1 - np.cos(3 * grid.x)) / 3,
                               atol=1e-13)


def test_integrate_rows_smooth(grid):
    x = grid.x
    vals = 0.5 * np.add.outer(x, x)
    J = integrate_rows(grid, vals)
    exact = 0.5 * (np.outer(x, x) + 0.5 * x[:, None] ** 2)
    np.testing.assert_allclose(J, exact, atol=1e-13)


def test_integrate_rows_matches_dense_cumulative_matrix():
    # reference: the dense n x n matrix whose row i holds the weights of
    # the integral over [0, x_i]; the panel prefix sum must reproduce it
    g = Grid.composite(64, 8)
    q = g.order
    C = np.zeros((g.n, g.n))
    for p in range(g.panels):
        rows = slice(p * q, (p + 1) * q)
        C[rows, :p * q] = g.w[:p * q]
        C[rows, rows] = g.h * _partial_weights(q)
    vals = np.random.default_rng(3).standard_normal((g.n, 5))
    # the integrators overwrite their input: each call gets a copy
    np.testing.assert_allclose(integrate_rows(g, vals.copy()), C @ vals,
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(integrate_rows(g, vals.copy(), lower=1),
                               C @ vals - g.w @ vals, rtol=0, atol=1e-14)


@pytest.mark.parametrize("rows", [5, 64])
@pytest.mark.parametrize("lower", [0, 1])
def test_integrate_cols_is_integrate_rows_transposed(rows, lower):
    g = Grid.composite(64, 8)
    vals = np.random.default_rng(rows).standard_normal((rows, g.n))
    np.testing.assert_allclose(integrate_cols(g, vals.copy(), lower=lower),
                               integrate_rows(g, vals.T, lower=lower).T,
                               rtol=0, atol=1e-14)


def test_integrators_overwrite_only_writable_c_ordered_input():
    # a writable C-ordered sample is integrated in place; a read-only or
    # Fortran-ordered one is copied once and left as it was
    g = Grid.composite(64, 8)
    vals = np.random.default_rng(9).standard_normal((g.n, g.n))
    frozen = vals.copy()
    frozen.setflags(write=False)
    fortran = np.asfortranarray(vals)
    for integrate in (integrate_rows, integrate_cols):
        buf = vals.copy()
        assert integrate(g, buf) is buf
        assert np.array_equal(integrate(g, frozen), buf)
        assert np.array_equal(integrate(g, fortran), buf)
        assert np.array_equal(frozen, vals) and np.array_equal(fortran, vals)


def test_integrate_rows_kinked(grid):
    # min(a, b) = (a + b - |a - b|)/2 has a diagonal kink; the corrected
    # scheme must integrate it to near machine precision anyway
    x = grid.x
    vals = 0.5 * np.add.outer(x, x) - 0.5 * np.abs(np.subtract.outer(x, x))
    J = integrate_rows(grid, vals, odd=_kink_blocks(grid, -0.5))
    exact = np.where(x[:, None] <= x[None, :], 0.5 * x[:, None] ** 2,
                     x[None, :] * x[:, None] - 0.5 * x[None, :] ** 2)
    np.testing.assert_allclose(J, exact, atol=1e-12)


def test_integrate_rows_kinked_from_one(grid):
    x = grid.x
    vals = 0.5 * np.add.outer(x, x) - 0.5 * np.abs(np.subtract.outer(x, x))
    J = integrate_rows(grid, vals, odd=_kink_blocks(grid, -0.5), lower=1)
    full = x[None, :] - 0.5 * x[None, :] ** 2
    exact = np.where(x[:, None] <= x[None, :], 0.5 * x[:, None] ** 2,
                     x[None, :] * x[:, None] - 0.5 * x[None, :] ** 2) - full
    np.testing.assert_allclose(J, exact, atol=1e-12)


def test_kink_blocks_match_panel_loop():
    # reference: a loop over the panels that adds the exact-moment
    # correction of each diagonal block to the columns of its panel; a
    # random, unsymmetric coefficient catches transposed block axes
    g = Grid.composite(64, 8)
    P, q, h2 = g.panels, g.order, g.h ** 2
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((g.n, g.n))
    odd = rng.standard_normal((P, q, q))
    J, full = integrate_rows(g, vals.copy()), g.w @ vals
    for p in range(P):
        blk = slice(p * q, (p + 1) * q)
        total = np.einsum("mj,jm->j", odd[p], _kink_full_moments(q)) * h2
        J[blk, blk] += np.einsum("mj,ijm->ij", odd[p],
                                 _kink_partial_moments(q)) * h2
        J[(p + 1) * q:, blk] += total
        full[blk] += total
    np.testing.assert_allclose(integrate_rows(g, vals.copy(), odd), J,
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(integrate_full(g, vals, odd), full,
                               rtol=0, atol=1e-14)


def test_uncorrected_kink_is_visibly_worse(grid):
    # justifies carrying the odd-part correction through the pipeline
    x = grid.x
    odd = np.full((grid.n, grid.n), -0.5)
    vals = 0.5 * np.add.outer(x, x) + odd * np.abs(np.subtract.outer(x, x))
    J = integrate_rows(grid, vals)  # no correction
    exact = np.where(x[:, None] <= x[None, :], 0.5 * x[:, None] ** 2,
                     x[None, :] * x[:, None] - 0.5 * x[None, :] ** 2)
    assert np.abs(J - exact).max() > 1e-9
