"""Command-line front end.

Subcommands
    eigs      eigenvalues by shooting and by Nystrom, with cross-check column
    theta     boundary determinants and limiting comparison ratio
    compare   determinant route vs eigenvalue-product route (+ optional
              probability-ratio convergence table)
    asympt    closed small-deviation forms evaluated on an eps grid
    prob      exact-distribution probabilities (saddle point, optionally MC)
    mc        Monte Carlo probabilities
    validate  end-to-end pipeline checks with a PASS/FAIL report

Exit codes: 0 success, 2 specification/parse error (an expression that
leaves its domain included), 3 numerical failure, 4 normalization
mismatch, 5 validation failure.  CSV output uses '.' decimal
separator, ',' field separator, a header row, and 17 significant digits;
JSON output additionally records method, tolerances, and module version.
Identical configuration (including seed) produces byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np
from scipy.linalg import eigh

from . import __version__
from .errors import (EvaluationDomainError, ExpressionSyntaxError,
                     GreenballError, NormalizationMismatch, NotNormalized,
                     UnsupportedFamily)
from .kernels import (ProcessSpec, _canonical_family, _family_list,
                      apply_weight, base_kernel, build_process,
                      catalog_problem)
from .model import Weight, classify_boundary_conditions
from .quadrature import Grid
from .smallball import (WeylTailModel, comparison_convergence,
                        evaluate_asymptotic, log_evaluate_asymptotic,
                        monte_carlo_probability, process_asymptotic,
                        smallball_probability_exact)
from .spectrum import (eigenvalue_product, eigenvalues_shooting,
                       nystrom_eigenvalues)
from .theta import ThetaInput, closed_form_ratio, ratio_limit, theta_det


class CLIError(ValueError):
    """Configuration problem detected before any numerics ran."""


# ---------------------------------------------------------------------------
# config plumbing


def _catalog_problem(args):
    """The configured `catalog_problem`, or None for a custom covariance and
    for a periodic problem, which cannot be shot."""
    if args.covariance is not None:
        return None
    problem = catalog_problem(args.spec, args.psi)
    if problem is not None \
            and classify_boundary_conditions(problem).tag == "periodic":
        return None
    return problem


def _build_kernel(args):
    if args.covariance is not None:
        kern = base_kernel("bogolyubov", {"omega": args.omega,
                                          "covariance": args.covariance})
    else:
        kern = build_process(args.spec)
    return kern if args.psi is None else apply_weight(kern, args.psi)


def _nystrom_grid(args, K, floor=512):
    return max(floor, 8 * K) if args.grid is None else args.grid


def _eigenvalue_lambdas(args):
    """(lam descending, tail model, route) for the configured process."""
    problem = _catalog_problem(args)
    if problem is not None:
        res, half = eigenvalues_shooting(problem, args.K), 1
    else:
        kern = _build_kernel(args)
        res = nystrom_eigenvalues(kern, None, args.K,
                                  grid=_nystrom_grid(args, args.K))
        half = kern.half_order
    lam = 1.0 / np.asarray(res.mu)
    return lam, WeylTailModel.fitted(half, lam), res.method


# ---------------------------------------------------------------------------
# output


def _emit(args, columns, rows, meta):
    if args.format == "json":
        doc = {"command": args.command, "version": __version__}
        doc.update(meta)
        doc["columns"] = list(columns)
        doc["rows"] = [list(r) for r in rows]
        text = json.dumps(doc, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, delimiter=",", lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        text = buf.getvalue()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(v):
    if isinstance(v, float):
        return "%.17g" % v
    return "" if v is None else str(v)


# ---------------------------------------------------------------------------
# subcommands


def cmd_eigs(args):
    problem = _catalog_problem(args)
    if problem is None:
        raise CLIError(
            "eigs needs a catalog family with a boundary-value formulation "
            f"({_family_list(shooting=True)}) and no transforms")
    shoot = eigenvalues_shooting(problem, args.K)
    nys = nystrom_eigenvalues(_build_kernel(args), None, args.K,
                              grid=_nystrom_grid(args, args.K, floor=1024))
    rows = []
    for k in range(args.K):
        ms, mn = float(shoot.mu[k]), float(nys.mu[k])
        rows.append((k + 1, ms, mn, abs(ms - mn) / ms))
    _emit(args, ("k", "mu_shooting", "mu_nystrom", "rel_diff"), rows,
          {"method": "shooting+nystrom", "process": args.process,
           "weight": args.weight,
           "tolerances": {"grid_doubling": 1e-4}})
    return 0


def cmd_theta(args):
    problem = catalog_problem(args.spec, args.psi)
    if problem is None:
        raise CLIError("theta needs a catalog family "
                       f"({_family_list(problem=True)}) and no transforms")
    w1, w2 = args.w1, args.w2
    rows = []
    t1m = abs(theta_det(ThetaInput.from_problem(problem, w1), -1))
    t1p = abs(theta_det(ThetaInput.from_problem(problem, w1), +1))
    rows.append(("abs_theta_minus_weight1", t1m, None))
    rows.append(("abs_theta_plus_weight1", t1p, None))
    if w2 is not None:
        t2m = abs(theta_det(ThetaInput.from_problem(problem, w2), -1))
        rows.append(("abs_theta_minus_weight2", t2m, None))
        res = ratio_limit(problem, w1, w2)
        rows.append(("ratio_direct", res.ratio, None))
        rows.append(("product_direct", res.product, None))
        try:
            closed = closed_form_ratio(problem, w1, w2)
            rows.append(("ratio_closed_form", closed.ratio, closed.route))
        except (GreenballError, ValueError):
            pass
    _emit(args, ("quantity", "value", "note"), rows,
          {"method": "boundary-determinants", "process": args.process,
           "weights": [args.weight, args.weight2],
           "tolerances": {}})
    return 0


def cmd_compare(args):
    if args.weight2 is None:
        raise CLIError("compare needs two weights (--weight and --weight2)")
    problem = _catalog_problem(args)
    if problem is None:
        raise CLIError("compare needs a catalog family "
                       f"({_family_list(shooting=True)}) and no transforms")
    limit = ratio_limit(problem, args.w1, args.w2)
    s1, s2 = (eigenvalues_shooting(catalog_problem(args.spec, w), args.K)
              for w in (args.w1, args.w2))
    prod, perr = eigenvalue_product(s1, s2)

    rel = abs(prod - limit.product) / limit.product
    status = "PASS" if rel <= args.tol else "FAIL"
    rows = [
        ("ratio_determinant", limit.ratio, None, None),
        ("product_determinant", limit.product, None, None),
        ("product_eigenvalues", prod, perr, None),
        ("agreement_rel_diff", rel, args.tol, status),
    ]
    if args.table:
        table = comparison_convergence(s1, s2, problem.n, args.eps)
        for e, r in zip(table.eps, table.ratio):
            rows.append((f"prob_ratio_eps={e:g}", r, None, None))
        rows.append(("prob_ratio_limit", limit.ratio, None, None))
    _emit(args, ("quantity", "value", "err", "status"), rows,
          {"method": "theta-determinant+eigenvalue-product",
           "process": args.process, "weights": [args.weight, args.weight2],
           "K": args.K, "tolerances": {"product_rel": args.tol}})
    return 0 if status == "PASS" else 5


def cmd_asympt(args):
    form = process_asymptotic(args.spec, args.psi)
    rows = []
    for e in args.eps:
        rows.append((e, evaluate_asymptotic(form, e),
                     log_evaluate_asymptotic(form, e), form.C, form.gamma,
                     form.D, form.transform, form.order,
                     form.endpoint_correction))
    _emit(args, ("eps", "value", "log_value", "C", "gamma", "D", "transform",
                "order", "endpoint_correction"), rows,
          {"method": "closed-asymptotic", "process": args.process,
           "label": form.label, "weight": args.weight, "tolerances": {}})
    return 0


def cmd_prob(args):
    lam, tail, route = _eigenvalue_lambdas(args)
    rows = []
    for e in args.eps:
        if args.method in ("saddlepoint", "both"):
            est = smallball_probability_exact(lam, e, tail=tail)
            rows.append((e, est.p, est.err, est.log_p, est.method))
        if args.method in ("montecarlo", "both"):
            est = monte_carlo_probability(lam, e, args.N, args.seed,
                                          tail=tail)
            rows.append((e, est.p, est.err, est.log_p, est.method))
    _emit(args, ("eps", "p", "err", "log_p", "method"), rows,
          {"method": args.method, "process": args.process,
           "weight": args.weight,
           "K": args.K, "spectrum_route": route, "seed": args.seed,
           "tolerances": {"inversion_rel": 1e-12}})
    return 0


def cmd_mc(args):
    lam, tail, route = _eigenvalue_lambdas(args)
    rows = []
    for e in args.eps:
        est = monte_carlo_probability(lam, e, args.N, args.seed, tail=tail)
        rows.append((e, est.p, est.err, est.truncation_bias, args.N,
                     args.seed))
    _emit(args, ("eps", "p", "err", "truncation_bias", "N", "seed"), rows,
          {"method": "montecarlo", "process": args.process,
           "weight": args.weight, "K": args.K, "spectrum_route": route,
           "seed": args.seed, "tolerances": {}})
    return 0


# --- validate -------------------------------------------------------------


def _radius_for_probability(lam):
    """Radius where the exact distribution of the finite spectrum `lam`
    reaches 0.02 (bisection on the monotone map r -> p)."""
    mean = lam.sum()
    lo, hi = 1e-6 * math.sqrt(mean), 4.0 * math.sqrt(mean)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if smallball_probability_exact(lam, mid).p < 0.02:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _check(rows, name, ok, value, threshold):
    rows.append((name, "PASS" if ok else "FAIL", value, threshold))
    return ok


def cmd_validate(args):
    rows = []
    all_ok = True
    kern = _build_kernel(args)

    # positive semidefiniteness of the discretized covariance
    g = Grid.composite(256, 8)
    vals, _ = kern.evaluate_on(g)
    sw = np.sqrt(g.w)
    min_eig = float(eigh(vals * np.outer(sw, sw), eigvals_only=True).min())
    all_ok &= _check(rows, "kernel_psd", min_eig > -1e-10, min_eig, -1e-10)

    # spectral cross-check against the boundary-value route
    problem = _catalog_problem(args)
    if problem is not None:
        shoot = eigenvalues_shooting(problem, 10)
        nys = nystrom_eigenvalues(kern, None, 10, grid=1024)
        rel = float(np.max(np.abs(shoot.mu - nys.mu) / shoot.mu))
        all_ok &= _check(rows, "shooting_vs_nystrom", rel < 1e-6, rel, 1e-6)

    # first-order Matern must reproduce the exponential-covariance spectrum
    if _canonical_family(args.process) == "matern" and args.n == 1:
        a = nystrom_eigenvalues(base_kernel("matern", {"n": 1}), None, 20,
                                grid=256)
        b = nystrom_eigenvalues(base_kernel("ou"), None, 20, grid=256)
        rel = float(np.max(np.abs(a.mu - b.mu) / b.mu))
        all_ok &= _check(rows, "matern1_equals_ou_spectrum", rel < 1e-6,
                         rel, 1e-6)

    # closed asymptotic form vs exact distribution on the computed spectrum
    half = kern.half_order
    try:
        form = process_asymptotic(args.spec, args.psi)
    except (UnsupportedFamily, GreenballError):
        form = None
        rows.append(("asymptotic_vs_exact", "SKIP", None, None))
    if form is not None and args.covariance is None and half <= 2:
        K, eps_chk, tol = (60, 0.04, 0.06) if half == 1 else (20, 0.01, 0.12)
        res = nystrom_eigenvalues(kern, None, K,
                                  grid=_nystrom_grid(args, K))
        lam = 1.0 / np.asarray(res.mu)
        tail = WeylTailModel.fitted(half, lam)
        sad = smallball_probability_exact(lam, eps_chk, tail=tail)
        gap = abs(math.exp(sad.log_p - log_evaluate_asymptotic(form, eps_chk))
                  - 1.0)
        all_ok &= _check(rows, "asymptotic_vs_exact", gap < tol, gap, tol)
        # Monte Carlo against the inversion at a moderate radius; both sides
        # use the same truncated spectrum so the comparison is unbiased
        r = _radius_for_probability(lam)
        sadr = smallball_probability_exact(lam, r, tail=None)
        mc = monte_carlo_probability(lam, r, args.N, args.seed)
        dev = abs(sadr.p - mc.p)
        all_ok &= _check(rows, "mc_vs_saddlepoint_3se", dev <= 3 * mc.err,
                         dev, 3 * mc.err)
    elif form is not None:
        rows.append(("asymptotic_vs_exact", "SKIP", None, None))

    _emit(args, ("check", "status", "value", "threshold"), rows,
          {"method": "validation-suite", "process": args.process,
           "weight": args.weight, "seed": args.seed,
           "tolerances": {"spectra_rel": 1e-6, "psd_min_eig": -1e-10,
                          "mc_sigmas": 3.0}})
    return 0 if all_ok else 5


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    top = argparse.ArgumentParser(
        prog="greenball",
        description="Spectra, comparison ratios, and small-deviation "
                    "probabilities of Green Gaussian processes in weighted "
                    "L2 norms.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--process", default="wiener",
                        help=f"process family ({_family_list()})")
    common.add_argument("-m", type=int, default=0,
                        help="number of integrations")
    common.add_argument("--betas", default="",
                        help="comma-separated 0/1 integration-limit flags")
    common.add_argument("--centerings", type=int, default=0)
    common.add_argument("--center-final", action="store_true")
    common.add_argument("--level", type=int, default=None,
                        help="conditioning level for ciw")
    common.add_argument("-n", type=int, default=None, help="Matern order")
    common.add_argument("--omega", type=float, default=None,
                        help="Bogolyubov frequency")
    common.add_argument("--covariance", default=None,
                        help="custom Bogolyubov covariance expression")
    common.add_argument("--weight", default="1",
                        help="weight expression psi(t)")
    common.add_argument("--eps", type=float, nargs="+", default=None)
    common.add_argument("--eps-start", type=float, default=None)
    common.add_argument("--eps-stop", type=float, default=None)
    common.add_argument("--eps-count", type=int, default=None)
    common.add_argument("--eps-log", action="store_true",
                        help="log-spaced eps grid")
    common.add_argument("-K", type=int, default=None,
                        help="number of eigenvalues")
    common.add_argument("-N", type=int, default=10 ** 5,
                        help="Monte Carlo sample count")
    common.add_argument("--seed", type=int, default=12345)
    common.add_argument("--grid", type=int, default=None,
                        help="Nystrom grid size")
    common.add_argument("-o", "--output", default=None)
    common.add_argument("--format", choices=("csv", "json"), default="csv")

    sub.add_parser("eigs", parents=[common],
                   help="eigenvalues by shooting and Nystrom")
    p_theta = sub.add_parser("theta", parents=[common],
                             help="boundary determinants")
    p_theta.add_argument("--weight2", default=None)
    p_cmp = sub.add_parser("compare", parents=[common],
                           help="comparison-ratio routes")
    p_cmp.add_argument("--weight2", default=None)
    p_cmp.add_argument("--table", action="store_true",
                       help="append the probability-ratio convergence table")
    p_cmp.add_argument("--tol", type=float, default=1e-2)
    sub.add_parser("asympt", parents=[common],
                   help="closed small-deviation forms")
    p_prob = sub.add_parser("prob", parents=[common],
                            help="exact-distribution probabilities")
    p_prob.add_argument("--method",
                        choices=("saddlepoint", "montecarlo", "both"),
                        default="saddlepoint")
    sub.add_parser("mc", parents=[common], help="Monte Carlo probabilities")
    sub.add_parser("validate", parents=[common],
                   help="end-to-end validation report")
    return top


_DEFAULT_K = {"eigs": 10, "theta": 10, "compare": 200, "asympt": 10,
              "prob": 200, "mc": 200, "validate": 60}


def config_from_args(args):
    """Check the parsed arguments and complete them in place.

    Adds K (the command's default if not given), eps (descending), the
    ProcessSpec `spec`, the weights `w1` (always a Weight), `psi` (w1, or
    None for "1") and `w2` (None without --weight2); each weight text is
    parsed once, here.
    """
    if args.K is None:
        args.K = _DEFAULT_K[args.command]
    if args.K < 1:
        raise CLIError("K must be >= 1")
    if args.N < 1:
        raise CLIError("N must be >= 1")
    if args.eps is not None:
        eps = args.eps
    elif args.eps_start is not None:
        if args.eps_stop is None or args.eps_count is None:
            raise CLIError("eps grid needs --eps-start, --eps-stop and "
                           "--eps-count together")
        space = np.geomspace if args.eps_log else np.linspace
        eps = space(args.eps_start, args.eps_stop, args.eps_count)
    else:
        eps = (0.1,)
    eps = tuple(float(e) for e in eps)
    if not eps or not all(math.isfinite(e) and e > 0 for e in eps):
        raise CLIError("eps must be one or more positive, finite values")
    args.eps = tuple(sorted(eps, reverse=True))
    if hasattr(args, "tol") and not (math.isfinite(args.tol) and args.tol > 0):
        raise CLIError("tol must be positive and finite")
    args.spec = ProcessSpec(
        args.process, m=args.m,
        betas=tuple(int(b) for b in args.betas.split(",") if b != ""),
        centerings=args.centerings, center_final=args.center_final,
        level=args.level, n=args.n, omega=args.omega)
    if args.covariance is not None:
        if _canonical_family(args.process) != "bogolyubov" or args.m \
                or args.centerings or args.center_final:
            raise CLIError("--covariance only applies to the plain "
                           "Bogolyubov family")
        if args.command in ("theta", "asympt"):
            raise CLIError(f"{args.command} has no formula for a custom "
                           "--covariance")
    args.w1 = Weight.from_text(args.weight)
    args.psi = None if args.weight == "1" else args.w1
    weight2 = getattr(args, "weight2", None)
    args.w2 = None if weight2 is None else Weight.from_text(weight2)
    return args


_DISPATCH = {"eigs": cmd_eigs, "theta": cmd_theta, "compare": cmd_compare,
             "asympt": cmd_asympt, "prob": cmd_prob, "mc": cmd_mc,
             "validate": cmd_validate}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](config_from_args(args))
    except (NormalizationMismatch, NotNormalized) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (CLIError, UnsupportedFamily, ExpressionSyntaxError,
            EvaluationDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GreenballError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
