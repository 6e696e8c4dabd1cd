import numpy as np
import pytest

from greenball.errors import EvaluationDomainError, ExpressionSyntaxError
from greenball.expr import evaluate, parse_expression, pretty, scale


def ev(text, t):
    return evaluate(parse_expression(text), t)


def test_powers_of_affine():
    tree = parse_expression("(0.5+1.5*t)^(-4)")
    assert ev("(0.5+1.5*t)^(-4)", 0.0) == pytest.approx(16.0, abs=1e-14)
    assert evaluate(tree, 1.0) == pytest.approx(0.0625, abs=1e-16)


def test_constants_and_arithmetic():
    assert ev("16", 0.3) == 16.0
    assert ev("2 - t", 0.25) == 1.75
    assert ev("2*3+4", 0.0) == 10.0
    assert ev("2+3*4", 0.0) == 14.0
    assert ev("(2+3)*4", 0.0) == 20.0
    assert ev("7/2", 0.0) == 3.5


def test_power_precedence():
    # right-associative, binds tighter than unary minus
    assert ev("2^3^2", 0.0) == 512.0
    assert ev("-2^2", 0.0) == -4.0
    assert ev("(-2)^2", 0.0) == 4.0
    assert ev("2^-1", 0.0) == 0.5


def test_functions():
    assert ev("exp(0*t)", 0.5) == 1.0
    assert ev("sqrt(4+0*t)", 0.1) == 2.0
    assert ev("log(exp(1))", 0.0) == pytest.approx(1.0, abs=1e-15)
    assert ev("sin(t)^2 + cos(t)^2", 0.7) == pytest.approx(1.0, abs=1e-15)
    assert ev("cosh(t)^2 - sinh(t)^2", 0.9) == pytest.approx(1.0, abs=1e-12)
    assert ev("abs(-3)", 0.0) == 3.0


def test_vectorized_evaluation():
    t = np.linspace(0, 1, 17)
    vals = ev("1 + 2*t", t)
    assert isinstance(vals, np.ndarray)
    assert vals.shape == t.shape
    np.testing.assert_allclose(vals, 1 + 2 * t, rtol=0, atol=0)
    assert isinstance(ev("1 + 2*t", 0.5), float)


def test_syntax_error_positions():
    with pytest.raises(ExpressionSyntaxError) as ei:
        parse_expression("exp(t")
    assert ei.value.position == 5
    with pytest.raises(ExpressionSyntaxError) as ei:
        parse_expression("1 + * 2")
    assert ei.value.position == 4
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("")
    with pytest.raises(ExpressionSyntaxError) as ei:
        parse_expression("2 t")  # trailing input
    assert ei.value.position == 2
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("bogus(t)")


def test_domain_errors():
    with pytest.raises(EvaluationDomainError):
        ev("log(t - 2)", 0.5)
    with pytest.raises(EvaluationDomainError):
        ev("sqrt(t - 2)", 0.5)
    with pytest.raises(EvaluationDomainError):
        ev("1/(t - 0.5)", 0.5)
    with pytest.raises(EvaluationDomainError):
        ev("exp(1000)", 0.0)  # overflow -> non-finite
    # numpy's flags name the cause, in the array and in constant subtrees
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(EvaluationDomainError, match="divide by zero"):
        ev("exp(-1/t)", t)
    with pytest.raises(EvaluationDomainError, match="invalid value"):
        ev("t/t", 0.0)
    with pytest.raises(EvaluationDomainError, match="invalid value"):
        ev("(-8)^(1/3)", t)
    with pytest.raises(EvaluationDomainError, match="divide by zero"):
        ev("1/(0^(-1))", 0.5)  # the infinity is absorbed, the flag is not


def test_domain_error_restores_numpy_error_state():
    before = np.geterr()
    with pytest.raises(EvaluationDomainError):
        ev("log(t)", 0.0)
    assert np.geterr() == before


@pytest.mark.parametrize("text", [
    "(0.5+1.5*t)^(-4)",
    "1 + 2*t - 3*t^2",
    "exp(-t)*cos(3*t)",
    "-t^2",
    "2^3^2",
    "1/(1+t)",
    "sqrt(abs(t - 0.5))",
])
def test_pretty_round_trip(text):
    tree = parse_expression(text)
    assert parse_expression(pretty(tree)) == tree


def test_scale_helper():
    tree = parse_expression("1 + t")
    assert evaluate(scale(tree, 3.0), 1.0) == 6.0
    assert scale(tree, 1.0) == tree
