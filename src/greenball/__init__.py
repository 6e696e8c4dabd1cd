"""Small-ball probabilities and spectra of Green Gaussian processes.

The package computes, for mean-zero Gaussian processes whose covariance is
the Green function of a self-adjoint two-point boundary value problem on
[0, 1], the weighted-L2 norm distribution near zero.  It provides

* ``model``     problem descriptions: operators, boundary conditions,
                weight expressions, normalization integrals;
* ``theta``     boundary determinants and the limiting eigenvalue-ratio
                comparison between two weights;
* ``spectrum``  eigenvalues by characteristic-determinant shooting and by
                Nystrom discretization of the covariance;
* ``kernels``   covariance kernels and boundary-value problems of the catalog
                families; integrate / center / condition / weight transforms;
* ``smallball`` closed small-deviation asymptotics, saddle-point inversion
                of the exact distribution, spectral tail models, and Monte
                Carlo estimates;
* ``cli``       the ``greenball`` command-line tool.
"""

from .errors import (DegenerateTheta, EvaluationDomainError,
                     ExpressionSyntaxError, GreenballError, GridTooCoarse,
                     InversionUnstable, MissedRoot, NonConvergence,
                     NormalizationMismatch, NotNormalized,
                     SingularConditioning, StepFailure, TiltNotFound,
                     UnsupportedFamily)
from .kernels import (Kernel, ProcessSpec, apply_weight, base_kernel,
                      build_process, catalog_problem, center_kernel,
                      condition_kernel, integrate_kernel)
from .model import (BoundaryCondition, BVProblem, OperatorSpec, Weight,
                    normalization_integral, normalize_weight,
                    require_equal_normalization)
from .smallball import (AsymptoticForm, ComparisonTable, ProbabilityEstimate,
                        WeylTailModel, comparison_convergence,
                        evaluate_asymptotic, log_evaluate_asymptotic,
                        monte_carlo_probability, process_asymptotic,
                        smallball_probability_exact)
from .spectrum import (SpectrumResult, eigenvalue_product,
                       eigenvalues_shooting, nystrom_eigenvalues)
from .theta import (ComparisonResult, ThetaInput, closed_form_ratio,
                    ratio_limit, separated_ratio, theta_det)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticForm", "BVProblem", "BoundaryCondition", "ComparisonResult",
    "ComparisonTable", "DegenerateTheta", "EvaluationDomainError",
    "ExpressionSyntaxError", "GreenballError", "GridTooCoarse",
    "InversionUnstable", "Kernel", "MissedRoot", "NonConvergence",
    "NormalizationMismatch", "NotNormalized", "OperatorSpec",
    "ProbabilityEstimate", "ProcessSpec", "SingularConditioning",
    "SpectrumResult", "StepFailure", "ThetaInput", "TiltNotFound",
    "UnsupportedFamily", "Weight", "WeylTailModel", "apply_weight",
    "base_kernel", "build_process", "catalog_problem", "center_kernel",
    "closed_form_ratio", "comparison_convergence", "condition_kernel",
    "eigenvalue_product", "eigenvalues_shooting", "evaluate_asymptotic",
    "integrate_kernel", "log_evaluate_asymptotic", "monte_carlo_probability",
    "normalization_integral", "normalize_weight", "nystrom_eigenvalues",
    "process_asymptotic", "ratio_limit", "require_equal_normalization",
    "separated_ratio", "smallball_probability_exact", "theta_det",
    "__version__",
]
