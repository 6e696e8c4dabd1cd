"""Two weights, one process: the eigenvalue-ratio limit three ways.

Take the Wiener problem with psi1(t) = (0.5+1.5t)^-4 and psi2 = 1.  Both
weights have unit normalization integral (the integral of sqrt(psi)), so
the eigenvalue ratio mu_k^(2)/mu_k^(1) tends to 1 and three quantities
agree in the limit:

  * the boundary-determinant ratio |theta_2 / theta_1|^(1/2)  (exact),
  * the product of eigenvalue ratios, fitted in 1/k              (spectral),
  * the small-ball probability ratio P_1(eps)/P_2(eps)          (as eps->0).

Here all three are printed, the last one along a shrinking eps grid.  Each
weight's boundary-value problem comes from `catalog_problem`, is shot once,
and its spectrum feeds both the product and the probability table.
"""

import numpy as np

from greenball import (ProcessSpec, Weight, catalog_problem,
                       comparison_convergence, eigenvalue_product,
                       eigenvalues_shooting, ratio_limit)

spec = ProcessSpec("wiener")
wiener = catalog_problem(spec)
w1 = Weight.from_text("(0.5+1.5*t)^(-4)")
w2 = Weight.from_text("1")

limit = ratio_limit(wiener, w1, w2)
print(f"determinant route: ratio = {limit.ratio:.12f}  "
      f"(product {limit.product:.12f})")

K = 80
s1 = eigenvalues_shooting(catalog_problem(spec, w1), K)
s2 = eigenvalues_shooting(catalog_problem(spec, w2), K)
prod, err = eigenvalue_product(s1, s2)
print(f"eigenvalue route:  product = {prod:.12f} +- {err:.1e}  (K = {K}, "
      "fit in 1/k)")

partial = np.cumprod(s1.mu / s2.mu)
print("\n  K     partial product")
for k in (1, 5, 20, 40, 80):
    print(f"  {k:>3} {partial[k - 1]:>18.10f}")

eps_grid = (0.20, 0.12, 0.08, 0.05)
table = comparison_convergence(s1, s2, wiener.n, eps_grid)
print("\n  eps        P1(eps)        P2(eps)      ratio")
for e, p1, p2, r in zip(table.eps, table.p1, table.p2, table.ratio):
    print(f"  {e:.2f} {p1:14.6e} {p2:14.6e} {r:10.5f}")
print(f"\nprobability ratios approach the determinant limit "
      f"{limit.ratio:.6f} as eps -> 0")
