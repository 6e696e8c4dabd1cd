"""One distribution, three evaluation routes.

The squared weighted L2 norm of a Green Gaussian process is a weighted sum
of independent chi-square variables, sum_j lam_j xi_j^2.  We evaluate
P(||X|| <= eps) for the Brownian bridge by

  1. saddle-point inversion of the Laplace transform on the truncated
     spectrum plus a growth-model tail,
  2. plain Monte Carlo over the truncated spectrum, next to the saddle
     point on that same bare spectrum,
  3. the closed asymptotic form,

and watch the columns line up as eps shrinks.  Monte Carlo samples only
the K computed terms, so it is compared with the bare-spectrum saddle
point, with which it agrees within 3 standard errors; the gap to the
tail-model column is the truncation, whose mean (the dropped part of
E||X||^2, `truncation_bias`) is printed once.  Monte Carlo dies first: at
eps = 0.1 the probability is ~1e-5 and a 10^6-sample run sees a handful
of hits at best.
"""

import numpy as np

from greenball import (ProcessSpec, WeylTailModel, evaluate_asymptotic,
                       monte_carlo_probability, process_asymptotic,
                       smallball_probability_exact)

K = 300
k = np.arange(1, K + 1)
lam = 1.0 / (k * np.pi) ** 2          # bridge spectrum, exact
tail = WeylTailModel.calibrated(1, 1.0, K, lam[-1])
form = process_asymptotic(ProcessSpec("bridge"))

print(f"bridge norm distribution, K = {K} eigenvalues")
print(f"{'eps':>6} {'saddle+tail':>14} {'saddle bare':>14} "
      f"{'monte carlo':>14} {'mc err':>9} {'(mc-bare)/err':>13} "
      f"{'asymptotic':>14}")
for eps in (0.5, 0.35, 0.25, 0.18, 0.13, 0.10):
    sad = smallball_probability_exact(lam, eps, tail=tail)
    bare = smallball_probability_exact(lam, eps)
    mc = monte_carlo_probability(lam, eps, 10 ** 6, seed=20260825,
                                 tail=tail)
    asym = evaluate_asymptotic(form, eps)
    print(f"{eps:>6.2f} {sad.p:>14.6e} {bare.p:>14.6e} {mc.p:>14.6e} "
          f"{mc.err:>9.1e} {(mc.p - bare.p) / mc.err:>13.2f} "
          f"{asym:>14.6e}")
print(f"Monte Carlo truncation_bias (mean of the dropped terms): "
      f"{mc.truncation_bias:.3e}")

# deep in the tail only the saddle point and the closed form survive;
# their ratio tends to 1
print("\ndeep tail (log scale)")
print(f"{'eps':>6} {'log p (saddle)':>16} {'log p (asympt)':>16} "
      f"{'ratio':>8}")
for eps in (0.06, 0.04, 0.03):
    sad = smallball_probability_exact(lam, eps, tail=tail)
    la = np.log(evaluate_asymptotic(form, eps))
    print(f"{eps:>6.2f} {sad.log_p:>16.3f} {la:>16.3f} "
          f"{np.exp(sad.log_p - la):>8.4f}")
