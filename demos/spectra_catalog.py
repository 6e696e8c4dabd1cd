"""Spectra of the catalog processes, two independent routes.

For each family we compute the first eigenvalues mu_k of the weighted
covariance operator twice: by shooting on the boundary value problem
(counting roots of the characteristic determinant) and by Nystrom
discretization of the covariance kernel.  Where a closed form exists we
print it next to the numbers.
"""

import numpy as np

from greenball import (ProcessSpec, Weight, base_kernel, catalog_problem,
                       eigenvalues_shooting, nystrom_eigenvalues)

K = 6

closed_forms = {
    # family -> closed form of mu_k, or None
    "wiener": lambda k: ((k - 0.5) * np.pi) ** 2,
    "bridge": lambda k: (k * np.pi) ** 2,
    # e^{-|t-s|} inverts to (-D^2 + 1)/2 with Robin conditions
    "ou": None,
    "slepian": None,
}

for fam, closed in closed_forms.items():
    problem = catalog_problem(ProcessSpec(fam))
    mu_shoot = eigenvalues_shooting(problem, K).mu
    mu_nys = nystrom_eigenvalues(base_kernel(fam), None, K, grid=512).mu
    print(f"\n{fam}")
    print(f"  {'k':>2} {'shooting':>18} {'nystrom':>18} "
          f"{'closed form':>18}")
    for k in range(K):
        ref = f"{closed(k + 1):18.10f}" if closed else f"{'-':>18}"
        print(f"  {k + 1:>2} {mu_shoot[k]:18.10f} {mu_nys[k]:18.10f} {ref}")
    gap = np.max(np.abs(mu_shoot - mu_nys) / mu_shoot)
    print(f"  cross-route agreement: {gap:.2e}")

# a weight changes every eigenvalue but the two routes still agree
w = Weight.from_text("(0.5+1.5*t)^(-4)")
problem = catalog_problem(ProcessSpec("wiener"), w)
mu_shoot = eigenvalues_shooting(problem, K).mu
mu_nys = nystrom_eigenvalues(base_kernel("wiener"), w, K, grid=512).mu
print("\nwiener with psi(t) = (0.5+1.5t)^-4")
for k in range(K):
    print(f"  {k + 1:>2} {mu_shoot[k]:18.10f} {mu_nys[k]:18.10f}")
print(f"  cross-route agreement: "
      f"{np.max(np.abs(mu_shoot - mu_nys) / mu_shoot):.2e}")
