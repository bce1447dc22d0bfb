import math

import numpy as np
import pytest

from conftest import count_calls
from hamorbit import BadIndexError, DomainError, ExpressionParseError, expressions, parse_potential
from hamorbit.expressions import (
    evaluate,
    evaluate_gradient,
    evaluate_hessian,
    parse_expression,
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
        ("+q1", 5.0),
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
        ("exp(q1/(2 + q2^2))", 2, -1.5, 1.5),
        ("2^q1*q2 + |q|^2", 2, -1.5, 1.5),
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
        ("(0-2)^q1", [2.0]),
        ("q1^q2", [-2.0, 2.0]),
        ("0^q1", [1.0]),
    ],
)
def test_domain_errors(src, point):
    # The value and the gradient reject the same points.
    pot = parse_potential(src, len(point))
    with pytest.raises(DomainError):
        pot.value(np.asarray(point))
    with pytest.raises(DomainError):
        pot.gradient(np.asarray(point))


def test_gradient_of_constant_expression_is_zero():
    g = evaluate_gradient(parse_expression("3.5", 2), np.ones((4, 2)))
    assert np.all(g == 0.0)


PINNED = [
    ("0.5*|q|^2 + 0.1*q1^4", "0x1.4b62d74a6d621p+5", "0x1.3338f43a038ddp+3",
     "0x1.233d2f3469ec3p+7"),
    ("|q|^3 - 0.25*|q|^4 + q1*q2", "0x1.e3b6de9cd7877p+5", "0x1.60c158a924edcp+4",
     "0x1.43b0f873aec4ap+8"),
    ("exp(q1)*sin(q2) + log(2 + |q|)", "0x1.b02c89a8e27a0p+5", "0x1.b7ed041321db6p+5",
     "0x1.ede760b425150p+6"),
    ("1/(1 + |q|^2)", "0x1.7eba4d887647ep+4", "-0x1.a24093354b95ep+1",
     "-0x1.7226cb7bdf119p+3"),
    ("2^q1", "0x1.01a4067dd4d7bp+6", "0x1.652a774e12626p+5", "0x1.ef2315ad59c8ep+4"),
]

# One tree per gradient rule and operand kind.
EXACT_DUALS = [
    "-q1 + 2", "2 - q2", "3 - |q|", "q1*q2 + q1*3 + 3*q2", "q1/3 + 3/(1 + q2^2)",
    "|q|^2.5 + q1^3 + q2^-2", "sin(q1) + cos(q2) + exp(q1)", "log(1 + |q|) + sqrt(1 + q1^2)",
    "abs(q1) - q2^2", "q1", "|q|", "(2 + 1)^0.5*q1",
]


@pytest.mark.parametrize("src,value_sum,gradient_sum,hessian_sum", PINNED)
def test_compiled_bits_are_pinned(src, value_sum, gradient_sum, hessian_sum):
    # Sums of the tree-walking evaluator's values and gradients, to the bit,
    # and of the Hessian blocks whose rules read those gradients.
    pot = parse_potential(src, 2)
    pts = np.random.default_rng(31).uniform(-1.5, 1.5, size=(50, 2))
    assert float.hex(math.fsum(pot.value(pts))) == value_sum
    assert float.hex(math.fsum(pot.gradient(pts).ravel())) == gradient_sum
    assert float.hex(math.fsum(pot.hessian(pts).ravel())) == hessian_sum


@pytest.mark.parametrize(
    "src,message",
    [
        ("q1^2 + 1/0", "division by zero"),
        ("q1^2 + log(0-1)", "log of a non-positive value"),
        ("q1^2 + sqrt(0-1)", "sqrt of a negative value"),
    ],
)
def test_constant_that_fails_to_fold_fails_at_evaluation(src, message):
    pot = parse_potential(src, 1)  # builds: folding leaves the failing part alone
    with pytest.raises(DomainError, match=message):
        pot.value(np.array([0.5]))


@pytest.mark.parametrize("src", ["q1^2 + exp(1000)", "q1^2 + 0*exp(1000)"])
def test_non_finite_constant_folds_and_fails_at_evaluation(src):
    # exp(1000) is folded to inf at parse time, so evaluation computes no
    # overflow of its own: the error is the finiteness gate's.
    pot = parse_potential(src, 1)
    with np.errstate(all="raise"), pytest.raises(
            DomainError, match="expression evaluated to a non-finite value"):
        pot.value(np.array([0.5]))


def test_integer_powers():
    cube = parse_potential("q1^3", 1)
    assert cube.value(np.array([-2.0])) == -8.0
    assert cube.gradient(np.array([-2.0]))[0] == 12.0
    inverse = parse_potential("q1^-2", 1)
    assert inverse.value(np.array([2.0])) == 0.25
    with pytest.raises(DomainError, match="zero base with negative exponent"):
        inverse.value(np.array([0.0]))


# (source, q1, value or its error, gradient or its error): exponents without q
# whose constants evaluate to inf or nan.
NON_FINITE_EXPONENTS = [
    ("q1^exp(1000)", -0.5, 0.0, "power not differentiable here"),
    ("q1^exp(1000)", 0.0, 0.0, "power not differentiable here"),
    ("q1^exp(1000)", 0.5, 0.0, "power not differentiable here"),
    ("q1^exp(1000)", 1.0, 1.0, None),
    ("q1^exp(1000)", 2.0, "non-finite value", None),
    ("q1^(0*exp(1000))", -0.5, "negative base with non-integer exponent",
     "negative base with non-integer exponent"),
    ("q1^(0*exp(1000))", 1.0, 1.0, None),
    ("q1^(0-exp(1000))", 0.0, "zero base with negative exponent",
     "zero base with negative exponent"),
    ("q1^(0-exp(1000))", 2.0, 0.0, None),
]


@pytest.mark.parametrize("src,q1,value,gradient", NON_FINITE_EXPONENTS)
def test_non_finite_constant_exponents(src, q1, value, gradient):
    pot = parse_potential(src, 1)
    q = np.array([q1])
    with np.errstate(all="ignore"):
        if isinstance(value, str):
            with pytest.raises(DomainError, match=value):
                pot.value(q)
        else:
            assert pot.value(q) == value
        if gradient is not None:
            with pytest.raises(DomainError, match=gradient):
                pot.gradient(q)


def test_expression_compiles_once(monkeypatch):
    calls = count_calls(monkeypatch, expressions, "parse_expression")
    pot = parse_potential("0.5*|q|^2 + 0.1*q1^4", 2)
    pts = np.ones((8, 2))
    for _ in range(3):
        pot.value(pts)
        pot.gradient(pts)
    assert len(calls) == 1


# Trees whose rules compute their derivatives from intermediates of their
# own: a division with q on both sides (1/w) and powers with q in the
# exponent (exp(e * log(b))).  Their values are still the value rules'.
INEXACT_DUALS = ["q1/(2 + q2^2)", "2^q1", "(2 + q1^2)^(0.5*q2)"]


@pytest.mark.parametrize("src", list(dict.fromkeys(
    EXACT_DUALS + INEXACT_DUALS + [src for src, *_ in PINNED])))
def test_other_dual_rules_give_the_plain_values(src):
    run = parse_expression(src, 2)
    pts = np.random.default_rng(34).uniform(0.1, 1.5, size=(5000, 2))
    pts[::2] *= -1.0
    pair = run(pts, 1)
    assert pair[0].tobytes() == run(pts, 0).tobytes()
    # Order 2 carries the values and the gradient of order 1, bit for bit.
    assert [x.tobytes() for x in run(pts, 2)[:2]] == [x.tobytes() for x in pair]


def test_value_and_gradient_makes_no_plain_pass(monkeypatch):
    # Every entry runs each node's value rule once: no entry makes a second
    # pass for its values.
    divisions = count_calls(monkeypatch, expressions, "_divide")
    powers = count_calls(monkeypatch, expressions, "_power_variable")
    pot = parse_potential("q1/(2 + q2^2) + 2^q1", 2)
    pts = np.random.default_rng(36).uniform(-1.5, 1.5, size=(8, 2))
    for entry in (pot.value, pot.gradient, pot.value_and_gradient, pot.hessian):
        del divisions[:], powers[:]
        entry(pts)
        assert (len(divisions), len(powers)) == (1, 1), entry.__name__


@pytest.mark.parametrize("src", list(dict.fromkeys(
    [src for src, *_ in PINNED] + INEXACT_DUALS + EXACT_DUALS
    + ["exp(q1/(2 + q2^2))", "2^q1*q2 + |q|^2"])))
def test_value_and_gradient_has_the_bits_of_value_and_gradient(src):
    pot = parse_potential(src, 2)
    pts = np.random.default_rng(35).uniform(0.1, 1.5, size=(500, 2))
    pts[::2] *= -1.0
    val, grad = pot.value_and_gradient(pts)
    assert val.tobytes() == pot.value(pts).tobytes()
    assert grad.tobytes() == pot.gradient(pts).tobytes()
    for q in pts[:4]:
        v, g = pot.value_and_gradient(q)
        assert type(v) is float and float.hex(v) == float.hex(pot.value(q))
        assert g.shape == (2,) and g.tobytes() == pot.gradient(q).tobytes()


def test_value_and_gradient_does_not_alias_the_points():
    pot = parse_potential("q2", 2)
    pts = np.ones((3, 2))
    val, _ = pot.value_and_gradient(pts)
    val[:] = 5.0
    assert (pts == 1.0).all()


@pytest.mark.parametrize(
    "src,point,message",
    [
        ("log(q1)", (-1.0, 0.5), "log of a non-positive value"),
        ("exp(q1^2)", (30.0, 0.5), "expression evaluated to a non-finite value"),
        ("sqrt(q1^2 + q2^2)", (0.0, 0.0), "sqrt not differentiable at zero"),
        ("|q|^0.5", (0.0, 0.0), "power not differentiable here"),
        # the order-1 pass meets the sqrt first, order 0 fails at the log
        ("sqrt(q1^2) + log(q2)", (0.0, -1.0), "log of a non-positive value"),
        ("q1/q2", (1.0, 0.0), "division by zero"),
        ("q1^q2", (-1.0, 1.0), "power with variable exponent needs positive base"),
        ("(0-2)^q1", (2.0, 0.5), "power with variable exponent needs positive base"),
    ],
)
def test_value_and_gradient_raises_where_value_then_gradient_does(src, point, message):
    pot = parse_potential(src, 2)
    q = np.array(point)
    for batch in (q, q[None]):
        with np.errstate(all="ignore"):
            with pytest.raises(DomainError, match=message) as separate:
                pot.value(batch)
                pot.gradient(batch)
            with pytest.raises(DomainError) as fused:
                pot.value_and_gradient(batch)
        assert str(fused.value) == str(separate.value)


def test_non_finite_gradient_at_a_finite_value_raises():
    # The value is 1e200 * sin(0) = 0, but the derivative 1e400 * cos(0)
    # overflows: the gradient gate, not the value's, must catch it.
    pot = parse_potential("1e200*sin(1e200*q1)", 1)
    q = np.zeros((1, 1))
    with np.errstate(over="ignore"):
        assert pot.value(q)[0] == 0.0
        for evaluate_both in (pot.gradient, pot.value_and_gradient):
            with pytest.raises(DomainError) as err:
                evaluate_both(q)
            assert str(err.value) == "gradient evaluated to a non-finite value"


def test_parse_expression_needs_a_dimension():
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        parse_expression("q1", 0)


def test_hessian_gate_rejects_a_non_finite_hessian():
    # At q1 = 1e-300, sqrt has a finite value and gradient, and its second
    # derivative overflows to -inf.
    program = parse_expression("sqrt(q1)", 1)
    q = np.array([[1e-300]])
    assert np.isfinite(evaluate(program, q)).all()
    assert np.isfinite(evaluate_gradient(program, q)).all()
    # The order-2 pass runs without warnings, so under the suite's
    # RuntimeWarning error filter the gate's DomainError is what raises,
    # through the evaluator and through the model alike.
    with pytest.raises(DomainError, match="hessian evaluated to a non-finite value"):
        evaluate_hessian(program, q)
    model = parse_potential("sqrt(q1) + 0*q2", 2)
    with pytest.raises(DomainError, match="hessian evaluated to a non-finite value"):
        model.hessian(np.array([1e-300, 0.0]))


@pytest.mark.parametrize("form", ["{c}*({x})", "({x})*{c}", "{c} + ({x})", "({x}) + {c}",
                                  "{c} - ({x})", "({x}) - {c}"])
@pytest.mark.parametrize("c", ["2", "(-2)", "0"])
def test_constant_operand_hessians_have_the_lifted_bits(form, c):
    # Each operator's one Hessian rule lifts a constant operand c to zero
    # derivative blocks.  (0*q1 + c) is the same constant in a node with q,
    # whose blocks the rule computes: the Hessians agree to the byte, signed
    # zeros included, and so does the overflow of q1*1e308 to a non-finite one.
    vals = [0.0, -0.0, 1.5, -1.5, -3.0]
    pts = np.array([(a, b) for a in vals for b in vals])
    for x in ["q1*q2", "-(q1*q2)", "0 - q1^3", "q1^2*q2 + q2", "q1*1e308*q2"]:
        own = parse_potential(form.format(c=c, x=x), 2)
        lifted = parse_potential(form.format(c=f"(0*q1 + {c})", x=x), 2)
        for q in [pts, *pts[:, None]]:
            try:
                expected = lifted.hessian(q).tobytes()
            except DomainError as err:
                with pytest.raises(DomainError, match=str(err)):
                    own.hessian(q)
            else:
                assert own.hessian(q).tobytes() == expected
