import math

import numpy as np
import pytest

from conftest import count_calls
from hamorbit import BadIndexError, DomainError, ExpressionParseError, expressions, parse_potential
from hamorbit.expressions import (
    compile_expression,
    evaluate,
    evaluate_gradient,
    parse_expression,
    to_source,
)


def ev(src, n, point):
    return parse_potential(src, n).value(np.asarray(point, dtype=float))


def test_norm_expression_value():
    assert ev("0.5*|q|^2", 2, (3.0, 4.0)) == pytest.approx(12.5, abs=1e-14)


def test_variable_expression_value():
    assert ev("q1^2 - q2", 2, (2.0, 7.0)) == pytest.approx(-3.0, abs=1e-14)


def test_unclosed_paren_reports_position():
    with pytest.raises(ExpressionParseError) as err:
        parse_expression("0.5*(|q|^2", 2)
    assert err.value.position == 11
    assert "')'" in err.value.expected


def test_bad_variable_index():
    with pytest.raises(BadIndexError) as err:
        parse_expression("q3", 2)
    assert err.value.position == 1
    with pytest.raises(BadIndexError):
        parse_expression("q0", 2)


def test_unknown_name_and_garbage():
    with pytest.raises(ExpressionParseError):
        parse_expression("foo(1)", 1)
    with pytest.raises(ExpressionParseError):
        parse_expression("1 + ", 1)
    with pytest.raises(ExpressionParseError):
        parse_expression("", 1)
    with pytest.raises(ExpressionParseError):
        parse_expression("q1 $ 2", 1)


@pytest.mark.parametrize(
    "src,expected",
    [
        ("2^3^2", 512.0),  # right-associative
        ("-2^2", -4.0),  # ^ binds tighter than unary minus
        ("2^-1", 0.5),
        ("2*3^2", 18.0),
        ("1-2-3", -4.0),
        ("6/3/2", 1.0),
        (" 1 +  2 ", 3.0),
        ("-(q1)", -5.0),
    ],
)
def test_precedence(src, expected):
    n = 1
    point = np.array([5.0])
    assert ev(src, n, point) == pytest.approx(expected, abs=1e-14)


def test_gradient_of_half_norm_squared():
    g = parse_potential("0.5*|q|^2", 2).gradient(np.array([3.0, 4.0]))
    assert np.allclose(g, [3.0, 4.0], atol=1e-12)


def test_gradient_zero_at_origin_for_even_norm_powers():
    g = parse_potential("0.5*|q|^2", 2).gradient(np.zeros(2))
    assert np.all(g == 0.0)


@pytest.mark.parametrize(
    "src,n,low,high",
    [
        ("exp(q1) + sin(q2)*cos(q1)", 2, -1.0, 1.0),
        ("log(1 + |q|^2)", 3, -2.0, 2.0),
        ("sqrt(1 + q1^2)", 1, -2.0, 2.0),
        ("abs(q1)^3 / (1 + q2^2)", 2, 0.2, 2.0),
        ("2^q1", 1, -1.0, 1.0),
        ("|q|^3 - 0.25*|q|^4 + q1*q2", 2, 0.3, 1.5),
    ],
)
def test_gradient_matches_finite_differences(src, n, low, high):
    pot = parse_potential(src, n)
    rng = np.random.default_rng(17)
    pts = rng.uniform(low, high, size=(100, n))
    grad = pot.gradient(pts)
    step = 1e-5
    for i in range(n):
        plus = pts.copy()
        plus[:, i] += step
        minus = pts.copy()
        minus[:, i] -= step
        fd = (pot.value(plus) - pot.value(minus)) / (2 * step)
        scale = np.abs(grad[:, i]).max() + 1.0
        assert np.abs(grad[:, i] - fd).max() / scale < 1e-6


@pytest.mark.parametrize(
    "src,point",
    [
        ("log(q1)", [-1.0]),
        ("log(q1)", [0.0]),
        ("sqrt(q1)", [-0.5]),
        ("1/q1", [0.0]),
        ("q1^0.5", [-2.0]),
        ("(0-2)^q1", [0.5]),
    ],
)
def test_domain_errors(src, point):
    with pytest.raises(DomainError):
        parse_potential(src, 1).value(np.asarray(point))


def test_roundtrip_through_source():
    rng = np.random.default_rng(23)
    sources = [
        "0.5*|q|^2",
        "q1^2 - q2 + 3.5",
        "-q1^2 + 2^-2",
        "exp(q1)*sin(q2) + log(2 + |q|)",
        "1/(1 + |q|^2)",
    ]
    for src in sources:
        tree = parse_expression(src, 2)
        again = parse_expression(to_source(tree), 2)
        pts = rng.uniform(0.2, 1.5, size=(50, 2))
        a = evaluate(compile_expression(tree), pts)
        b = evaluate(compile_expression(again), pts)
        assert np.abs(a - b).max() <= 1e-12 * (1 + np.abs(a).max())


def test_gradient_of_constant_expression_is_zero():
    g = evaluate_gradient(compile_expression(parse_expression("3.5", 2)), np.ones((4, 2)))
    assert np.all(g == 0.0)


@pytest.mark.parametrize(
    "src,value_sum,gradient_sum",
    [
        ("0.5*|q|^2 + 0.1*q1^4", "0x1.4b62d74a6d621p+5", "0x1.3338f43a038ddp+3"),
        ("|q|^3 - 0.25*|q|^4 + q1*q2", "0x1.e3b6de9cd7877p+5", "0x1.60c158a924edcp+4"),
        ("exp(q1)*sin(q2) + log(2 + |q|)", "0x1.b02c89a8e27a0p+5", "0x1.b7ed041321db6p+5"),
        ("1/(1 + |q|^2)", "0x1.7eba4d887647ep+4", "-0x1.a24093354b95ep+1"),
        ("2^q1", "0x1.01a4067dd4d7bp+6", "0x1.652a774e12626p+5"),
    ],
)
def test_compiled_bits_are_pinned(src, value_sum, gradient_sum):
    # Sums of the tree-walking evaluator's values and gradients, to the bit.
    pot = parse_potential(src, 2)
    pts = np.random.default_rng(31).uniform(-1.5, 1.5, size=(50, 2))
    assert float.hex(math.fsum(pot.value(pts))) == value_sum
    assert float.hex(math.fsum(pot.gradient(pts).ravel())) == gradient_sum


@pytest.mark.parametrize(
    "src,message",
    [
        ("q1^2 + 1/0", "division by zero"),
        ("q1^2 + log(0-1)", "log of a non-positive value"),
        ("q1^2 + exp(1000)", "expression evaluated to a non-finite value"),
    ],
)
def test_constant_that_fails_to_fold_fails_at_evaluation(src, message):
    pot = parse_potential(src, 1)  # builds: folding leaves the failing part alone
    with np.errstate(over="ignore"), pytest.raises(DomainError, match=message):
        pot.value(np.array([0.5]))


def test_integer_powers():
    cube = parse_potential("q1^3", 1)
    assert cube.value(np.array([-2.0])) == -8.0
    assert cube.gradient(np.array([-2.0]))[0] == 12.0
    inverse = parse_potential("q1^-2", 1)
    assert inverse.value(np.array([2.0])) == 0.25
    with pytest.raises(DomainError, match="zero base with negative exponent"):
        inverse.value(np.array([0.0]))


def test_expression_compiles_once(monkeypatch):
    calls = count_calls(monkeypatch, expressions, "compile_expression")
    pot = parse_potential("0.5*|q|^2 + 0.1*q1^4", 2)
    pts = np.ones((8, 2))
    for _ in range(3):
        pot.value(pts)
        pot.gradient(pts)
    assert len(calls) == 1
