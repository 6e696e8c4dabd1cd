"""The benchmark's three workloads: inputs from a seed, tasks, and checks.

A task is one operation a user of greenball would run: a CLI command (run
in-process through `greenball.cli.main`) or a short library pipeline.  Its
`run` is timed; its `check` is not, and compares the output with the
references in `oracles`.  Every greenball function is looked up through its
module at call time, so the tracer's wrappers see the calls.

Check kinds
    exact   closed-form reference; the relative error feeds `digits_min`
    tol     truncation-limited quantity held to a tolerance
    stat    Monte Carlo against another route, within 3 standard errors
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

#: weight parameter of the README's comparison command
README_A = 0.5


@dataclass
class Check:
    name: str
    kind: str
    ok: bool
    value: float
    limit: float


@dataclass
class Task:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], list]
    argv: list = None
    #: CLI tasks that cost well under a second are re-run to test that their
    #: bytes repeat; the costly ones are compared across runs only
    repeat: bool = False


@dataclass
class Inputs:
    workload: str
    seed: int
    a: float
    mc_seed: int
    tasks: list = field(default_factory=list)


def seeded_parameters(seed):
    """(a, mc_seed): a in [0.45, 0.65] for psi_a and the Monte Carlo seed."""
    rng = np.random.default_rng(seed)
    return float(rng.uniform(0.45, 0.65)), int(rng.integers(1, 2 ** 31))


# ---------------------------------------------------------------------------
# CLI tasks


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str

    def rows(self):
        return list(csv.reader(io.StringIO(self.stdout)))[1:]

    def table(self):
        return {r[0]: r[1:] for r in self.rows()}


def run_cli(argv):
    import greenball.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = greenball.cli.main(list(argv))
    return CliOutput(code, out.getvalue(), err.getvalue())


def cli_task(name, argv, check=None, repeat=False):
    """A CLI command; without `check` it only has to exit 0 with the same
    bytes as before."""
    return Task(name, lambda ref: run_cli(argv), check or _no_checks,
                argv=list(argv), repeat=repeat)


def _no_checks(out, ref):
    return []


#: pass limits of exact checks: closed forms and determinants as in the
#: acceptance suite; spectra at the accuracy each route promises (shooting
#: 1e-8; Nystrom 1e-4, the grid-doubling tolerance it enforces).  digits_min
#: reports how far inside its limit each check lands.
CLOSED_FORM_LIMIT, SHOOTING_LIMIT, NYSTROM_LIMIT = 1e-10, 1e-8, 1e-4


def _exact(name, value, ref, limit=CLOSED_FORM_LIMIT):
    err = oracles.rel_err(value, ref)
    return Check(name, "exact", err <= limit, err, limit)


def _exact_spectrum(name, mu, ref, limit):
    err = float(np.max(np.abs(np.asarray(mu, float) - ref) / ref))
    return Check(name, "exact", err <= limit, err, limit)


def _tol(name, ok, value, limit):
    return Check(name, "tol", bool(ok), float(value), float(limit))


def _converging(prefix, gaps, limit, last=1):
    """gaps = |ratio / limit - 1| over falling eps: they shrink at every
    step, and the `last` smallest-eps ones are within `limit`."""
    worst = max(gaps[-last:])
    return [_tol(f"{prefix}_monotone",
                 all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:])),
                 gaps[-1], gaps[0]),
            _tol(f"{prefix}_gap", worst <= limit, worst, limit)]


def _eigs_check(ref_fn):
    def check(out, ref):
        rows = out.rows()
        mu_s = np.array([float(r[1]) for r in rows])
        mu_n = np.array([float(r[2]) for r in rows])
        exact = ref_fn(len(rows))
        return [_exact_spectrum("shooting", mu_s, exact, SHOOTING_LIMIT),
                _exact_spectrum("nystrom", mu_n, exact, NYSTROM_LIMIT)]
    return check


def _compare_check(a):
    product, ratio = oracles.comparison_limits(a)

    def check(out, ref):
        t = out.table()
        checks = [_exact("product_determinant",
                         float(t["product_determinant"][0]), product),
                  _exact("ratio_determinant",
                         float(t["ratio_determinant"][0]), ratio),
                  _exact("prob_ratio_limit",
                         float(t["prob_ratio_limit"][0]), ratio),
                  _tol("product_pass", t["agreement_rel_diff"][2] == "PASS",
                       float(t["agreement_rel_diff"][0]), 1e-2)]
        gaps = [abs(float(v[0]) - ratio) / ratio for k, v in t.items()
                if k.startswith("prob_ratio_eps=")]
        return checks + _converging("prob_ratio", gaps, 0.02)
    return check


def _theta_check(a):
    product, ratio = oracles.comparison_limits(a)

    def check(out, ref):
        t = out.table()
        return [_exact("theta_product_direct",
                       float(t["product_direct"][0]), product),
                _exact("theta_ratio_direct", float(t["ratio_direct"][0]),
                       ratio),
                _exact("theta_ratio_closed_form",
                       float(t["ratio_closed_form"][0]), ratio)]
    return check


def _validate_check(out, ref):
    return [_tol(f"validate_{r[0]}", r[1] in ("PASS", "SKIP"),
                 float(r[2]) if r[2] else 0.0, float(r[3]) if r[3] else 0.0)
            for r in out.rows()]


def _asympt_wiener_check(out, ref):
    e, value = (float(v) for v in out.rows()[0][:2])
    return [_exact("asympt_wiener", value, oracles.wiener_small_ball(e))]


def _asympt_chain_check(out, ref):
    rows = out.rows()
    worst = max(abs(math.log(float(r[1])) - float(r[2])) for r in rows)
    return [_tol("asympt_chain_log_consistent",
                 len(rows) == 6 and worst <= 1e-12, worst, 1e-12)]


# ---------------------------------------------------------------------------
# library pipelines


def _chain(spec_kwargs, K, ref_key, weight=None, grid=None):
    """build_process + nystrom_eigenvalues, then WeylTailModel.fitted and
    one saddle-point probability at a fifth of the root-mean-square norm.

    ref_key names an exact spectrum in the references; a float instead is
    the Weyl constant the fitted tail must recover (spectra without a
    closed form)."""
    import greenball as gb

    def run(ref):
        kern = gb.build_process(gb.ProcessSpec(**spec_kwargs))
        res = gb.nystrom_eigenvalues(kern, weight, K, grid=grid)
        lam = 1.0 / np.asarray(res.mu)
        tail = gb.WeylTailModel.fitted(kern.half_order, lam)
        r = 0.2 * math.sqrt(lam.sum() + tail.mean())
        return res, tail, gb.smallball_probability_exact(lam, r, tail=tail)

    def check(out, ref):
        res, tail, est = out
        checks = [_tol("saddle_self_check",
                       0.0 < est.p < 1.0 and est.err <= 1e-8 * est.p,
                       est.err / est.p, 1e-8)]
        if isinstance(ref_key, str):
            checks.append(_exact_spectrum("nystrom", res.mu, ref[ref_key],
                                          NYSTROM_LIMIT))
        else:
            gap = abs(tail.theta / ref_key - 1.0)
            checks.append(_tol("weyl_theta", gap <= 0.02, gap, 0.02))
        return checks

    return run, check


def _saddle_grid(lam_key, tail_fn, radii):
    import greenball as gb

    def run(ref):
        lam = 1.0 / ref[lam_key]
        tail = tail_fn(lam)
        return [gb.smallball_probability_exact(lam, r, tail=tail)
                for r in radii]

    return run


def _form_gaps(ests, asym):
    """|saddle point / closed asymptotic form - 1| at each eps."""
    return [abs(e.p / a - 1.0) for e, a in zip(ests, asym)]


def _bisect_radius(lam, target):
    """Radius where the saddle-point probability crosses `target`."""
    import greenball as gb
    mean = float(lam.sum())
    lo, hi = 1e-6 * math.sqrt(mean), 4.0 * math.sqrt(mean)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if gb.smallball_probability_exact(lam, mid).p < target:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)
    return r, gb.smallball_probability_exact(lam, r)


# ---------------------------------------------------------------------------
# workloads


def compare_tasks(a):
    w_readme = oracles.psi_a_text(README_A)
    w_a = oracles.psi_a_text(a)
    return [
        cli_task("compare_readme",
                 ["compare", "--process", "wiener", "--weight", w_readme,
                  "--weight2", "1", "-K", "60", "--table",
                  "--eps", "0.15", "0.1", "0.07", "0.05"],
                 _compare_check(README_A)),
        cli_task("eigs_bridge_readme",
                 ["eigs", "--process", "bridge", "--weight", w_readme,
                  "-K", "10"], _eigs_check(oracles.bridge_mu)),
        cli_task("eigs_ou", ["eigs", "--process", "ou", "-K", "10"],
                 _eigs_check(oracles.ou_mu)),
        cli_task("theta_psi_a",
                 ["theta", "--process", "wiener", "--weight", w_a,
                  "--weight2", "1"], _theta_check(a), repeat=True),
    ]


def chains_tasks(a, mc_seed):
    import greenball as gb
    psi_a = gb.Weight.from_text(oracles.psi_a_text(a))
    chains = [
        ("integrated_wiener", dict(family="wiener", m=1, betas=(0,)), 80,
         "cantilever_80", None, 1600),
        ("ciw_level1", dict(family="ciw", level=1), 40, "clamped_40", None,
         None),
        ("ou", dict(family="ou"), 100, "ou_100", None, None),
        ("bridge_psi_a", dict(family="bridge"), 60, "bridge_60", psi_a,
         None),
        ("centred_integrated_bridge",
         dict(family="bridge", m=1, betas=(0,), centerings=1), 60, 1.0,
         None, None),
        ("matern2", dict(family="matern", n=2), 40,
         oracles.MATERN2_WEYL_THETA, None, None),
        ("wiener_m2", dict(family="wiener", m=2, betas=(0, 1)), 30, 1.0,
         None, None),
    ]
    tasks = []
    for name, spec, K, ref_key, weight, grid in chains:
        run, check = _chain(spec, K, ref_key, weight, grid)
        tasks.append(Task(name, run, check))
    seed = str(mc_seed)
    tasks += [
        cli_task("validate_matern1",
                 ["validate", "--process", "matern", "-n", "1",
                  "--seed", seed], _validate_check),
        # README defaults at K = 200; both exit 3 on grid doubling today
        cli_task("prob_integrated_bridge",
                 ["prob", "--process", "bridge", "-m", "1", "--betas", "0"]),
        cli_task("mc_ciw1", ["mc", "--process", "ciw", "--level", "1",
                             "--seed", seed]),
    ]
    return tasks


CVM_POINTS = (0.02, 0.03, 0.05, 0.0833, 0.11888, 0.2, 0.3473, 0.46136,
              0.74346)
WIENER_EPS = tuple(float(e) for e in np.geomspace(0.2, 0.03, 8))
CANTILEVER_EPS = tuple(float(e) for e in np.geomspace(0.05, 0.005, 6))


def tails_tasks(mc_seed):
    import greenball as gb
    wiener_m1 = gb.ProcessSpec("wiener", m=1, betas=(0,))
    tasks = []

    cvm = _saddle_grid("bridge_500",
                       lambda lam: gb.WeylTailModel.calibrated(
                           1, 1.0, lam.size, float(lam[-1])),
                       [math.sqrt(x) for x in CVM_POINTS])

    def cvm_check(ests, ref):
        return [_exact(f"cvm_{x:g}", e.p, ref["cvm"][i])
                for i, (x, e) in enumerate(zip(CVM_POINTS, ests))]

    wiener = _saddle_grid("wiener_500",
                          lambda lam: gb.WeylTailModel.fitted(1, lam),
                          WIENER_EPS)

    def wiener_run(ref):
        form = gb.process_asymptotic(gb.ProcessSpec("wiener"))
        asym = [gb.evaluate_asymptotic(form, e) for e in WIENER_EPS]
        return wiener(ref), asym

    def wiener_check(out, ref):
        ests, asym = out
        checks = [_exact(f"wiener_form_eps={e:.4g}", v,
                         oracles.wiener_small_ball(e))
                  for e, v in zip(WIENER_EPS, asym)]
        # within 5 % at every eps <= 0.05
        small = sum(e <= 0.05 for e in WIENER_EPS)
        return checks + _converging("wiener_saddle_vs_form",
                                    _form_gaps(ests, asym), 0.05, small)

    cant = _saddle_grid("cantilever_200",
                        lambda lam: gb.WeylTailModel.fitted(2, lam),
                        CANTILEVER_EPS)

    def cant_run(ref):
        form = gb.process_asymptotic(wiener_m1)
        return cant(ref), [gb.evaluate_asymptotic(form, e)
                           for e in CANTILEVER_EPS]

    def cant_check(out, ref):
        ests, asym = out
        return _converging("cantilever_saddle_vs_form",
                           _form_gaps(ests, asym), 0.05)

    def mc_run(ref):
        lam = 1.0 / ref["wiener_200"]
        r, sad = _bisect_radius(lam, 1e-2)
        return r, sad, gb.monte_carlo_probability(lam, r, 10 ** 6, mc_seed)

    def mc_check(out, ref):
        r, sad, mc = out
        dev = abs(mc.p - sad.p)
        return [_tol("bisection_target", abs(sad.p - 1e-2) <= 1e-6,
                     abs(sad.p - 1e-2), 1e-6),
                Check("mc_vs_saddle_3se", "stat", dev <= 3 * mc.err, dev,
                      3 * mc.err)]

    for name, run, check in (("cvm_bridge", cvm, cvm_check),
                             ("wiener_vs_asymptotic", wiener_run,
                              wiener_check),
                             ("cantilever_tail", cant_run, cant_check),
                             ("radius_bisection_mc", mc_run, mc_check)):
        tasks.append(Task(name, run, check))
    tasks += [
        cli_task("asympt_wiener", ["asympt", "--process", "wiener",
                                   "--eps", "0.1"], _asympt_wiener_check,
                 repeat=True),
        cli_task("asympt_centred_bridge",
                 ["asympt", "--process", "bridge", "-m", "1", "--betas", "0",
                  "--centerings", "1", "--eps-start", "0.2", "--eps-stop",
                  "0.05", "--eps-count", "6", "--eps-log"],
                 _asympt_chain_check, repeat=True),
    ]
    return tasks


def build(workload, seed):
    """Inputs of one workload: weights, problems and specs, no numerics."""
    a, mc_seed = seeded_parameters(seed)
    if workload == "compare":
        tasks = compare_tasks(a)
    elif workload == "chains":
        tasks = chains_tasks(a, mc_seed)
    elif workload == "tails":
        tasks = tails_tasks(mc_seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Inputs(workload, seed, a, mc_seed, tasks)


def references(workload):
    """Oracle values the workload's checks (and the tails inputs) need."""
    if workload == "chains":
        return {"cantilever_80": oracles.cantilever_mu(80),
                "clamped_40": oracles.clamped_mu(40),
                "ou_100": oracles.ou_mu(100),
                "bridge_60": oracles.bridge_mu(60)}
    if workload == "tails":
        return {"bridge_500": oracles.bridge_mu(500),
                "wiener_500": oracles.wiener_mu(500),
                "wiener_200": oracles.wiener_mu(200),
                "cantilever_200": oracles.cantilever_mu(200),
                "cvm": [oracles.cvm_cdf(x) for x in CVM_POINTS]}
    return {}
