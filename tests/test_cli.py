"""Command-line interface tests.

Each test drives greenball.cli.main with an argv list and inspects the
return code plus the CSV/JSON it writes.  Reference values used here:

* Wiener eigenvalues mu_k = ((k - 1/2) pi)^2, bridge mu_k = (k pi)^2.
* The P(||X|| <= eps) asymptotic for the unweighted Wiener process is
  (4/sqrt(pi)) eps exp(-1/(8 eps^2)) ~ 8.4102e-7 at eps = 0.1.
* With psi(t) = (0.5 + 1.5 t)^(-4) (unit normalization integral) against
  psi = 1, the limiting eigenvalue ratio is 2, so the product limit is 4.
"""

import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import greenball
from greenball.cli import main
from greenball.kernels import ProcessSpec, catalog_problem
from greenball.model import Weight
from greenball.smallball import (WeylTailModel, comparison_convergence,
                                 smallball_probability_exact)
from greenball.spectrum import eigenvalues_shooting

RATIO2 = "(0.5+1.5*t)^(-4)"
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


def rows_of(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return [dict(zip(header, row)) for row in reader]


# ---------------------------------------------------------------------------
# eigs


def test_eigs_wiener_closed_form(capsys):
    rc, out, _ = run_cli(["eigs", "--process", "wiener", "-K", "3"], capsys)
    assert rc == 0
    rows = rows_of(out)
    assert len(rows) == 3
    for k, row in enumerate(rows, start=1):
        exact = ((k - 0.5) * math.pi) ** 2
        assert abs(float(row["mu_shooting"]) - exact) < 1e-8 * exact
        assert float(row["rel_diff"]) < 1e-6


def test_eigs_bridge_closed_form(capsys):
    rc, out, _ = run_cli(["eigs", "--process", "bridge", "-K", "3"], capsys)
    assert rc == 0
    mu = [float(r["mu_shooting"]) for r in rows_of(out)]
    exact = [(k * math.pi) ** 2 for k in (1, 2, 3)]
    assert np.allclose(mu, exact, rtol=1e-8)


def test_eigs_weighted_routes_agree(capsys):
    rc, out, _ = run_cli(["eigs", "--process", "wiener", "--weight", RATIO2,
                          "-K", "3"], capsys)
    assert rc == 0
    for row in rows_of(out):
        assert float(row["rel_diff"]) < 1e-5


def test_eigs_ou_and_slepian(capsys):
    for fam in ("ou", "slepian"):
        rc, out, _ = run_cli(["eigs", "--process", fam, "-K", "2"], capsys)
        assert rc == 0
        for row in rows_of(out):
            assert float(row["rel_diff"]) < 1e-6


def test_eigs_rejects_family_without_bvp(capsys):
    rc, _, err = run_cli(["eigs", "--process", "matern", "-n", "2"], capsys)
    assert rc == 2
    assert "eigs" in err


# ---------------------------------------------------------------------------
# theta


def test_theta_two_weights_consistent(capsys):
    rc, out, _ = run_cli(["theta", "--process", "wiener", "--weight", "1",
                          "--weight2", RATIO2], capsys)
    assert rc == 0
    vals = {r["quantity"]: float(r["value"]) for r in rows_of(out)}
    assert vals["ratio_direct"] == pytest.approx(0.5, rel=1e-10)
    assert vals["product_direct"] == pytest.approx(
        vals["ratio_direct"] ** 2, rel=1e-12)
    assert vals["ratio_closed_form"] == pytest.approx(
        vals["ratio_direct"], rel=1e-10)


def test_theta_periodic_closed_form(capsys):
    rc, out, _ = run_cli(["theta", "--process", "bogolyubov", "--omega", "1",
                          "--weight", "1", "--weight2", RATIO2], capsys)
    assert rc == 0
    vals = {r["quantity"]: float(r["value"]) for r in rows_of(out)}
    assert vals["ratio_closed_form"] == pytest.approx(
        vals["ratio_direct"], rel=1e-10)


@pytest.mark.parametrize("weight", ["1/(t-0.3)^2", "(t-0.3)^2"])
def test_theta_refuses_a_pole_or_zero_between_nodes(capsys, weight):
    # positive on every weight-grid node, so it used to print a finite
    # |theta_-| for a weight whose int psi^(1/2) diverges (the pole)
    rc, out, err = run_cli(["theta", "--process", "wiener", "--weight",
                            weight], capsys)
    assert rc == 2
    assert out == ""
    assert "is not resolved" in err


def test_theta_rejects_custom_covariance(capsys):
    # the determinants come from the catalog boundary-value problem, which a
    # custom covariance does not have
    rc, out, err = run_cli(["theta", "--process", "bogolyubov", "--omega",
                            "1", "--covariance", "exp(-abs(t))", "--weight2",
                            RATIO2], capsys)
    assert rc == 2 and out == ""
    assert "--covariance" in err


# ---------------------------------------------------------------------------
# compare


def test_compare_product_limit_four(capsys):
    # the fit in 1/k puts the K = 60 product within 2e-7 of 4 (Aitken's
    # extrapolant was 2e-2 off), and the err column covers the gap
    rc, out, _ = run_cli(["compare", "--process", "wiener",
                          "--weight", RATIO2, "--weight2", "1",
                          "-K", "60", "--tol", "0.02"], capsys)
    assert rc == 0
    vals = {r["quantity"]: r for r in rows_of(out)}
    assert float(vals["product_determinant"]["value"]) == pytest.approx(
        4.0, abs=1e-10)
    assert vals["agreement_rel_diff"]["status"] == "PASS"
    product = vals["product_eigenvalues"]
    gap = abs(float(product["value"]) - 4.0)
    assert gap <= 4e-7
    assert float(product["err"]) >= gap


@pytest.mark.parametrize("family, weight2", [
    ("wiener", "1"), ("bridge", "1"), ("ou", "1"), ("slepian", "1"),
    ("wiener", "(2-1.5*t)^(-4)")])
def test_compare_product_err_bounds_its_error(capsys, family, weight2):
    # the determinant route is exact to about 1e-12: the eigenvalue
    # product's err must cover its distance from it
    rc, out, _ = run_cli(["compare", "--process", family, "--weight", RATIO2,
                          "--weight2", weight2, "-K", "60"], capsys)
    assert rc == 0
    vals = {r["quantity"]: r for r in rows_of(out)}
    product = vals["product_eigenvalues"]
    gap = abs(float(product["value"])
              - float(vals["product_determinant"]["value"]))
    assert gap <= float(product["err"])


def test_compare_identical_weights(capsys):
    rc, out, _ = run_cli(["compare", "--process", "bridge", "--weight", "1",
                          "--weight2", "1", "-K", "12"], capsys)
    assert rc == 0
    vals = {r["quantity"]: float(r["value"]) for r in rows_of(out)}
    assert vals["ratio_determinant"] == pytest.approx(1.0, abs=1e-12)
    assert vals["product_eigenvalues"] == pytest.approx(1.0, abs=1e-9)


def test_compare_normalization_mismatch_exits_4(capsys):
    rc, _, err = run_cli(["compare", "--process", "wiener", "--weight", "1",
                          "--weight2", "16", "-K", "10"], capsys)
    assert rc == 4
    assert "normalization" in err.lower()


def test_compare_convergence_table(capsys):
    rc, out, _ = run_cli(["compare", "--process", "wiener",
                          "--weight", RATIO2, "--weight2", "1",
                          "-K", "20", "--tol", "0.05", "--table",
                          "--eps", "0.3", "0.2"], capsys)
    assert rc == 0
    rows = rows_of(out)
    table = [r for r in rows if r["quantity"].startswith("prob_ratio_eps")]
    assert len(table) == 2
    for r in table:
        assert math.isfinite(float(r["value"]))
    limit = [r for r in rows if r["quantity"] == "prob_ratio_limit"]
    assert float(limit[0]["value"]) == pytest.approx(2.0, abs=1e-8)


def test_compare_table_ratio_survives_underflow(capsys):
    # at eps = 0.01 both probabilities underflow to 0 (log p near -1254);
    # the ratio comes from their logs, not from 0/0
    rc, out, _ = run_cli(["compare", "--process", "wiener",
                          "--weight", RATIO2, "--weight2", "1", "-K", "200",
                          "--table", "--eps", "0.03", "0.02", "0.015",
                          "0.01"], capsys)
    assert rc == 0
    table = {r["quantity"]: float(r["value"]) for r in rows_of(out)}
    assert table["prob_ratio_eps=0.01"] == pytest.approx(2.00326, abs=1e-5)


def test_compare_shoots_each_weight_once(capsys, monkeypatch):
    # the table reuses the spectra the product route computed: two shooting
    # solves, not four, and the same bytes as without the counter
    args = ["compare", "--process", "wiener", "--weight", RATIO2,
            "--weight2", "1", "-K", "40", "--tol", "0.05", "--table",
            "--eps", "0.15", "0.1"]
    rc, plain, _ = run_cli(args, capsys)
    calls = []
    shoot = greenball.cli.eigenvalues_shooting

    def counted(problem, K):
        calls.append(K)
        return shoot(problem, K)

    monkeypatch.setattr(greenball.cli, "eigenvalues_shooting", counted)
    rc2, out, _ = run_cli(args, capsys)
    assert rc == rc2 == 0
    assert calls == [40, 40]
    assert out == plain


@pytest.mark.parametrize("family", ["ou", "slepian"])
def test_compare_table_reads_catalog_spectra(capsys, family):
    # the table's probabilities come from the catalog problem of each weight,
    # whose weight carries the family's factor (2 psi for OU and Slepian)
    rc, out, _ = run_cli(["compare", "--process", family, "--weight", RATIO2,
                          "--weight2", "1", "-K", "40", "--tol", "0.05",
                          "--table", "--eps", "0.3", "0.2", "0.1"], capsys)
    assert rc == 0
    printed = [float(r["value"]) for r in rows_of(out)
               if r["quantity"].startswith("prob_ratio_eps")]
    spectra = [eigenvalues_shooting(
        catalog_problem(ProcessSpec(family), Weight.from_text(text)), 40)
        for text in (RATIO2, "1")]
    table = comparison_convergence(*spectra, 1, (0.3, 0.2, 0.1))
    assert printed == table.ratio.tolist()
    # each tail takes the theta of the weight that was shot (2 psi): at
    # eps = 0.3 a tail fitted to the same spectrum agrees to 2e-4, a tail
    # on theta = 1 is 6 % off
    for res, p in zip(spectra, (table.p1[0], table.p2[0])):
        lam = 1.0 / res.mu
        fitted = smallball_probability_exact(
            lam, 0.3, tail=WeylTailModel.fitted(1, lam)).p
        assert p == pytest.approx(fitted, rel=1e-3)


# ---------------------------------------------------------------------------
# asympt


def test_asympt_wiener_value(capsys):
    rc, out, _ = run_cli(["asympt", "--process", "wiener", "--eps", "0.1"],
                         capsys)
    assert rc == 0
    row = rows_of(out)[0]
    eps = 0.1
    exact = 4.0 / math.sqrt(math.pi) * eps * math.exp(-1.0 / (8 * eps * eps))
    assert float(row["value"]) == pytest.approx(exact, rel=1e-9)
    assert float(row["log_value"]) == pytest.approx(math.log(exact),
                                                    rel=1e-9)


def test_asympt_json_metadata(capsys):
    rc, out, _ = run_cli(["asympt", "--process", "ou", "--eps", "0.2",
                          "--format", "json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "asympt"
    assert doc["version"] == greenball.__version__
    assert doc["method"] == "closed-asymptotic"
    assert doc["label"]
    assert doc["columns"][0] == "eps"
    assert len(doc["rows"]) == 1


def test_asympt_eps_grid_descending(capsys):
    rc, out, _ = run_cli(["asympt", "--process", "bridge",
                          "--eps-start", "0.05", "--eps-stop", "0.2",
                          "--eps-count", "4", "--eps-log"], capsys)
    assert rc == 0
    eps = [float(r["eps"]) for r in rows_of(out)]
    assert eps == sorted(eps, reverse=True)
    assert len(eps) == 4


def test_asympt_degenerate_pattern_exits_3(capsys):
    rc, _, err = run_cli(["asympt", "--process", "bridge", "-m", "2",
                          "--betas", "1,1", "--centerings", "1",
                          "--eps", "0.1"], capsys)
    assert rc == 3
    assert err


@pytest.mark.parametrize("process", [["bogolyubov", "--omega", "1"],
                                     ["wiener"]])
def test_asympt_rejects_custom_covariance(capsys, process):
    rc, out, err = run_cli(["asympt", "--process", *process, "--covariance",
                            "exp(-abs(t))"], capsys)
    assert rc == 2 and out == ""
    assert "--covariance" in err


def test_asympt_not_normalized_exits_4(capsys):
    rc, _, err = run_cli(["asympt", "--process", "wiener", "--weight", "4",
                          "--eps", "0.1"], capsys)
    assert rc == 4
    assert "normaliz" in err.lower()


# ---------------------------------------------------------------------------
# prob / mc


def test_prob_tracks_asymptotic(capsys):
    rc, out, _ = run_cli(["prob", "--process", "wiener", "-K", "100",
                          "--eps", "0.1"], capsys)
    assert rc == 0
    row = rows_of(out)[0]
    asym = 4.0 / math.sqrt(math.pi) * 0.1 * math.exp(-1.0 / 0.08)
    assert float(row["p"]) == pytest.approx(asym, rel=0.1)
    assert row["method"] == "saddlepoint"


def test_prob_both_methods(capsys):
    rc, out, _ = run_cli(["prob", "--process", "bridge", "-K", "40",
                          "--eps", "0.3", "--method", "both",
                          "-N", "20000", "--seed", "11"], capsys)
    assert rc == 0
    rows = rows_of(out)
    assert [r["method"] for r in rows] == ["saddlepoint", "montecarlo"]
    p_sad, p_mc = float(rows[0]["p"]), float(rows[1]["p"])
    err_mc = float(rows[1]["err"])
    assert abs(p_sad - p_mc) < 4 * err_mc + 5e-3


def test_prob_nystrom_route_for_derived_process(capsys):
    rc, out, _ = run_cli(["prob", "--process", "wiener", "-m", "1",
                          "--betas", "0", "-K", "20", "--eps", "0.05",
                          "--format", "json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["spectrum_route"] == "nystrom"
    p = doc["rows"][0][1]
    assert 0 < p < 1


def test_prob_err_keeps_a_rounding_floor(capsys):
    # at eps = 0.05 the two finest trapezoid sums agree bit for bit; err
    # must still carry their rounding, not read 1e-56 relative
    rc, out, _ = run_cli(["prob", "--process", "wiener", "-K", "500",
                          "--eps", "0.05"], capsys)
    assert rc == 0
    row = rows_of(out)[0]
    rel = float(row["err"]) / float(row["p"])
    assert np.finfo(float).eps <= rel <= 1e-8


def test_prob_near_one_has_log_p_at_most_0(capsys):
    # p is clipped at 1 where the inversion lands a few ulps above it, and
    # log p with it, so that p = exp(log p)
    rc, out, _ = run_cli(["prob", "--process", "wiener", "-K", "200",
                          "--eps", "10"], capsys)
    assert rc == 0
    row = rows_of(out)[0]
    assert float(row["p"]) == 1.0 and float(row["log_p"]) == 0.0


def test_mc_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["mc", "--process", "bridge", "-K", "30", "--eps", "0.3",
            "-N", "20000", "--seed", "5"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_mc_reports_truncation_bias(capsys):
    rc, out, _ = run_cli(["mc", "--process", "wiener", "-K", "30",
                          "--eps", "0.3", "-N", "10000", "--seed", "2"],
                         capsys)
    assert rc == 0
    row = rows_of(out)[0]
    assert float(row["truncation_bias"]) > 0
    assert row["N"] == "10000" and row["seed"] == "2"


# ---------------------------------------------------------------------------
# validate


def test_validate_wiener_all_pass(capsys):
    rc, out, _ = run_cli(["validate", "--process", "wiener"], capsys)
    assert rc == 0
    rows = rows_of(out)
    names = {r["check"] for r in rows}
    assert {"kernel_psd", "shooting_vs_nystrom", "asymptotic_vs_exact",
            "mc_vs_saddlepoint_3se"} <= names
    assert all(r["status"] == "PASS" for r in rows)


def test_validate_matern1_checks_ou_match(capsys):
    rc, out, _ = run_cli(["validate", "--process", "matern", "-n", "1"],
                         capsys)
    assert rc == 0
    rows = {r["check"]: r["status"] for r in rows_of(out)}
    assert rows["matern1_equals_ou_spectrum"] == "PASS"


def test_validate_derived_chain(capsys):
    rc, out, _ = run_cli(["validate", "--process", "wiener", "-m", "1",
                          "--betas", "1"], capsys)
    assert rc == 0
    assert all(r["status"] in ("PASS", "SKIP") for r in rows_of(out))


# ---------------------------------------------------------------------------
# config handling / exit codes / formats


@pytest.mark.parametrize("argv", [
    ["eigs", "--process", "bridge", "--weight", RATIO2, "-K", "5"],
    ["compare", "--process", "wiener", "--weight", RATIO2, "--weight2", "1",
     "-K", "20", "--tol", "0.05"],
    ["theta", "--process", "wiener", "--weight", RATIO2, "--weight2", "1"],
    ["validate", "--process", "wiener", "--weight", "1+t"],
    ["prob", "--process", "matern", "-n", "1", "--weight", RATIO2, "-K",
     "20"],
], ids=lambda argv: argv[0])
def test_each_weight_text_is_parsed_once(capsys, monkeypatch, argv):
    # config_from_args parses --weight and --weight2; the commands reuse
    # the Weights it made
    texts = []
    parse = Weight.from_text

    def counted(cls, text):
        texts.append(text)
        return parse(text)

    monkeypatch.setattr(Weight, "from_text", classmethod(counted))
    rc, _, err = run_cli(argv, capsys)
    assert rc == 0, err
    given = [argv[i + 1] for i, a in enumerate(argv)
             if a in ("--weight", "--weight2")]
    assert sorted(texts) == sorted(given)


def test_unknown_family_exits_2(capsys):
    rc, _, err = run_cli(["asympt", "--process", "plaid"], capsys)
    assert rc == 2
    assert "plaid" in err


def test_missing_family_parameter_exits_2(capsys):
    assert run_cli(["asympt", "--process", "bogolyubov"], capsys)[0] == 2
    assert run_cli(["asympt", "--process", "matern"], capsys)[0] == 2
    assert run_cli(["asympt", "--process", "ciw"], capsys)[0] == 2


def test_bad_expression_exits_2(capsys):
    rc, _, err = run_cli(["eigs", "--weight", "1+*2"], capsys)
    assert rc == 2
    assert err
    # a weight that leaves its domain is a specification error too
    rc, out, err = run_cli(["eigs", "--process", "wiener", "--weight",
                            "log(t)+2", "-K", "3"], capsys)
    assert rc == 2 and out == ""
    assert "left its domain" in err


def test_too_coarse_grid_exits_3(capsys):
    rc, _, _ = run_cli(["eigs", "--process", "wiener", "-K", "10",
                        "--grid", "64"], capsys)
    assert rc == 3


def test_readme_default_prob_passes_grid_doubling(capsys):
    # K = 200 on the 1600-node grid: sampled from its generators, the
    # integrated bridge passes the doubled-grid check (the closure chain's
    # sampling error moved an eigenvalue by 2.47e-4 there)
    rc, out, err = run_cli(["prob", "--process", "bridge", "-m", "1",
                            "--betas", "0"], capsys)
    assert rc == 0, err
    row = next(csv.DictReader(io.StringIO(out)))
    assert abs(float(row["p"]) - 0.393962868) < 1e-9


def test_integrated_bogolyubov_at_omega_40_passes_grid_doubling(capsys):
    # its generators grow like e^{40 t}; integrated from the side where
    # each column is small they sample the kernel to 1e-13, where the
    # closure chain moved an eigenvalue by 2.47e-4 on the doubled grid
    rc, out, err = run_cli(["prob", "--process", "bogolyubov", "--omega",
                            "40", "-m", "1", "--betas", "0"], capsys)
    assert rc == 0, err
    row = next(csv.DictReader(io.StringIO(out)))
    # E ||X||^2 is about 1/(2 omega^2) = 3e-4, far below eps^2 = 0.01:
    # P(||X|| < 0.1) is 1 - 2.2e-10
    assert 0.0 < 1.0 - float(row["p"]) < 1e-9


@pytest.mark.parametrize("argv, gap", [
    (["mc", "--process", "ciw", "--level", "1"], "1.13e-04"),
])
def test_readme_defaults_exit_3_on_grid_doubling(capsys, argv, gap):
    # K = 200 on the 1600-node grid, which has no coarser dense level: the
    # doubled-grid check still refuses this spectrum (ROADMAP item 5)
    rc, out, err = run_cli(argv, capsys)
    assert rc == 3 and out == ""
    assert f"grid-doubling moved an eigenvalue by {gap} relative" in err


def test_double_eigenvalues_keep_prob_going(capsys):
    # the Ritz values of the periodic kernel's double eigenvalues are
    # sorted again after their Rayleigh correction; unsorted, mu was not
    # ascending and prob exited 2
    rc, out, err = run_cli(["prob", "--process", "bogolyubov", "--omega",
                            "3", "-K", "40", "--eps", "0.3"], capsys)
    assert rc == 0, err
    assert 0.0 < float(next(csv.DictReader(io.StringIO(out)))["p"]) < 1.0


def test_invalid_eps_exits_2(capsys):
    rc, _, _ = run_cli(["asympt", "--eps", "-0.1"], capsys)
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["eigs", "--grid", "0"],
    ["eigs", "--grid", "-8"],
    ["asympt", "--eps-start", "0.2", "--eps-stop", "0.1", "--eps-count", "0"],
    ["compare", "--weight", RATIO2, "--weight2", "1", "--tol", "nan"],
    ["compare", "--weight", RATIO2, "--weight2", "1", "--tol", "-1"],
    ["eigs", "-K", "0"],
    ["mc", "-N", "0"],
], ids=["grid-0", "grid-neg8", "eps-count-0", "tol-nan", "tol-neg1", "K-0",
        "N-0"])
def test_malformed_option_exits_2(argv, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("cmd", ["mc", "prob"])
@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_nonfinite_eps_exits_2(cmd, eps, capsys):
    rc, out, err = run_cli([cmd, "--process", "wiener", "-K", "20", "--eps",
                            eps, "-N", "1000"], capsys)
    assert rc == 2
    assert out == ""
    assert "finite" in err


def test_prob_single_eigenvalue_exits_2(capsys):
    # one eigenvalue cannot fix the two parameters of the fitted tail
    rc, out, err = run_cli(["prob", "--process", "wiener", "-K", "1",
                            "--eps", "0.5"], capsys)
    assert rc == 2
    assert out == ""
    assert "at least 2 eigenvalues" in err


@pytest.mark.parametrize("argv", [
    ["asympt", "--process", "wiener", "--eps", "1e-170"],
    ["asympt", "--process", "wiener", "--eps", "1e-160"],
    ["prob", "--eps", "1e-300"],
    ["prob", "--eps", "1e300"],
    ["compare", "--weight2", "1", "-K", "10", "--table", "--eps", "1e-300"],
    ["prob", "--process", "wiener", "--eps", "1e-20"],
    ["prob", "--process", "wiener", "--eps", "1e-40"],
    ["prob", "--process", "wiener", "--eps", "1e-60"],
    ["prob", "--process", "bridge", "--eps", "1e-30"],
    ["compare", "--process", "ou", "--weight", "(0.5+1.5*t)^(-4)",
     "--weight2", "1", "-K", "5", "--table", "--eps", "1e-30"],
], ids=" ".join)
def test_eps_out_of_double_range_exits_2(capsys, argv):
    # eps_n^2 or r^2 leaves the positive finite doubles, or the doubles do
    # not resolve the integrand at the saddle point: a specification error
    # that names the eps, not a traceback or a failed tilt search
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: eps = {float(argv[-1]):g} is out of range")


def test_huge_eps_gives_p_one_within_err(capsys):
    # sigma ~ 1e-120 and Phi' ~ 1e121 at the contour's end: the end data
    # are carried in units of sigma, so nothing overflows (the suite turns
    # a RuntimeWarning into an error) and p = 1 to within err
    rc, out, _ = run_cli(["prob", "--process", "wiener", "--eps", "1e60"],
                         capsys)
    assert rc == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert abs(1.0 - float(row["p"])) <= float(row["err"])


def test_asympt_small_eps_keeps_a_finite_log(capsys):
    rc, out, _ = run_cli(["asympt", "--process", "wiener", "--eps", "1e-100"],
                         capsys)
    assert rc == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert float(row["value"]) == 0.0
    assert math.isfinite(float(row["log_value"]))


def _readme_commands():
    """argv of every `greenball ...` line in README's bash blocks, with the
    backslash continuations joined and the comments dropped."""
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["greenball"]:
                commands.append(argv[1:])
    return commands


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_exits_0(capsys, argv):
    # the documented commands and defaults do not fail
    rc, out, err = run_cli(argv, capsys)
    assert rc == 0, err
    assert out


@pytest.mark.parametrize("block", range(2))
def test_readme_python_block_exits_0(block):
    # each ```python block of the README runs in a fresh interpreter on the
    # source tree, with numerical warnings turned into errors
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(README.parent / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", blocks[block]],
        cwd=README.parent, env=env, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_unknown_subcommand_raises_argparse_exit():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_csv_uses_17_significant_digits(capsys):
    rc, out, _ = run_cli(["asympt", "--process", "wiener", "--eps", "0.1"],
                         capsys)
    assert rc == 0
    assert out.splitlines()[1].startswith("0.10000000000000001,")


def test_json_rows_match_csv(capsys):
    args = ["theta", "--process", "wiener", "--weight", "1",
            "--weight2", RATIO2]
    rc1, csv_out, _ = run_cli(args, capsys)
    rc2, json_out, _ = run_cli(args + ["--format", "json"], capsys)
    assert rc1 == rc2 == 0
    doc = json.loads(json_out)
    csv_rows = rows_of(csv_out)
    assert len(doc["rows"]) == len(csv_rows)
    for jrow, crow in zip(doc["rows"], csv_rows):
        assert float(crow["value"]) == pytest.approx(jrow[1], rel=1e-15)
