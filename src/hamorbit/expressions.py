"""Parsed potential expressions with forward-mode differentiation.

Grammar (whitespace-insensitive, 1-based character positions in errors)::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := ('+'|'-') unary | factor
    factor := base ('^' unary)?
    base   := number | 'q'index | '|q|' | func '(' expr ')' | '(' expr ')'

``^`` is right-associative and binds tighter than unary minus, so ``-q1^2``
is ``-(q1^2)`` and ``2^-1`` is ``0.5``.  Functions: exp, log, sin, cos,
sqrt, abs.

The parser compiles as it reads (syntax-directed translation): each node's
closures are built when the node has been read, so no syntax tree is kept,
:func:`parse_expression` returns the :class:`Program`, and evaluation never
dispatches on node type.  Every node has a plain closure, giving values on a
(M, n) batch of points, and a dual one, giving the pair (values, (M, n)
Jacobian block) of forward-mode differentiation, so one pass yields all
partial derivatives.  At q = 0 the norm primitive ``|q|`` uses the
subgradient 0, matching the usual convention for abs.

A third, second-order closure gives the triple (values, (M, n) Jacobian,
(M, n, n) Hessian blocks), which :func:`evaluate_hessian` returns the last
of.  Its values are computed as the plain rule computes them; a binary node
lifts a constant operand to zero derivative blocks, so each operator has one
second-order rule, and each function gives phi, phi' and phi'' to one chain
rule.  Where the source is not twice differentiable, this pass raises a
:class:`DomainError`: ``|q|`` at the origin, abs at zero, and a power whose
second derivative is not finite, besides every check of the dual pass.  The
plain and dual closures are untouched by it, in bits and in cost.

The dual pass carries the values too, and :func:`evaluate_value_and_gradient`
returns them with the gradient, so a caller that needs both makes one pass.
Every dual rule computes its value as the plain rule does, so the pair has
the bits of :func:`evaluate` and :func:`evaluate_gradient` for every source.
Where a derivative needs another intermediate, the rule computes it beside
the value: a division with q on both sides returns ``v / w`` and takes
``1/w`` for its derivative, and a power with q in its exponent returns
``np.power(b, e)`` and takes ``exp(e * log(b))`` as its derivative's factor.

Every constant that evaluates is folded into its number as soon as it is
read, inf and nan included; one whose evaluation raises a
:class:`DomainError` stays a closure and fails at evaluation.  A folded
exponent settles at compile time which base checks of ``^`` can fire: an
integer exponent drops the non-integer-exponent check, and a non-negative
one the zero-base check; ``x^2`` is one multiply, with the bits of
``np.power``.  Kept at every evaluation: the zero-divisor, log, sqrt and
variable-exponent checks (an exponent with q needs a positive base, in
values and gradients alike), the finiteness of the power rule's coefficient,
and the final finiteness gates of :func:`evaluate` and
:func:`evaluate_gradient`.  No rewrite changes rounding: operands keep
their order and every other power goes through ``np.power``, so values are
bit-identical to evaluating the source node by node, and so is each rule's
derivative given its operands.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import BadIndexError, DomainError, ExpressionParseError

FUNCTIONS = ("abs", "cos", "exp", "log", "sin", "sqrt")


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<op>[-+*/^()|]))"
)


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "name" | the operator character | "end"
    text: str
    pos: int  # 1-based character offset


def tokenize(src: str) -> list[Token]:
    tokens = []
    i = 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if m is None:
            stripped = src[i:].lstrip()
            if not stripped:
                break
            pos = len(src) - len(stripped) + 1
            raise ExpressionParseError(f"unexpected character {stripped[0]!r}", pos)
        kind = m.lastgroup
        text = m.group(kind)
        pos = m.start(kind) + 1
        tokens.append(Token(text if kind == "op" else kind, text, pos))
        i = m.end()
    tokens.append(Token("end", "", len(src) + 1))
    return tokens


# ---------------------------------------------------------------------------
# parser

_VAR_RE = re.compile(r"q(\d+)\Z")


class _Parser:
    """Recursive descent that compiles as it reads: each method returns the
    :class:`_Code` of the node it has just read, folded if it has no q."""

    def __init__(self, src: str, dim: int):
        self.tokens = tokenize(src)
        self.dim = dim
        self.i = 0
        self.var = None  # the code of the last variable read

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.cur
        self.i += 1
        return tok

    def expect(self, kind: str, expected: set) -> Token:
        if self.cur.kind != kind:
            raise ExpressionParseError(
                f"unexpected {self.cur.text!r}" if self.cur.kind != "end" else "unexpected end of input",
                self.cur.pos,
                expected,
            )
        return self.advance()

    def parse(self) -> Program:
        code = self.expr()
        if self.cur.kind != "end":
            raise ExpressionParseError(
                f"unexpected {self.cur.text!r}", self.cur.pos, {"operator", "end of input"}
            )
        f, d = code.plain, code.dual
        if code.constant:
            def value(points):
                return np.broadcast_to(np.asarray(f(points), dtype=float), points.shape[:1]).copy()

            def pair(points):  # an unfolded constant fails here as in value
                return value(points), np.zeros_like(points)

            def hessian(points):
                value(points)
                return np.zeros(points.shape + points.shape[-1:])

            return Program(value, pair, hessian)

        def hessian(points):
            return code.second(points)[2]

        if code is not self.var:
            return Program(f, d, hessian)

        def value(points):  # a bare column would alias the points
            return f(points).copy()

        def pair(points):
            v, dv = d(points)
            return v.copy(), dv

        return Program(value, pair, hessian)

    def expr(self) -> _Code:
        code = self.term()
        while self.cur.kind in ("+", "-"):
            op = _BINARY[self.advance().kind]
            code = _fold(op(code, self.term()))
        return code

    def term(self) -> _Code:
        code = self.unary()
        while self.cur.kind in ("*", "/"):
            op = _BINARY[self.advance().kind]
            code = _fold(op(code, self.unary()))
        return code

    def unary(self) -> _Code:
        if self.cur.kind == "-":
            self.advance()
            return _fold(_neg(self.unary()))
        if self.cur.kind == "+":
            self.advance()
            return self.unary()
        return self.factor()

    def factor(self) -> _Code:
        code = self.base()
        if self.cur.kind == "^":
            self.advance()
            code = _fold(_pow(code, self.unary()))
        return code

    def base(self) -> _Code:
        tok = self.cur
        if tok.kind == "number":
            self.advance()
            return _constant(float(tok.text))
        if tok.kind == "|":
            self.advance()
            name = self.expect("name", {"'q'"})
            if name.text != "q":
                raise ExpressionParseError(f"unexpected {name.text!r}", name.pos, {"'q'"})
            self.expect("|", {"'|'"})
            return _Code(point_norms, _norm_dual, _norm_second, False)
        if tok.kind == "name":
            self.advance()
            m = _VAR_RE.match(tok.text)
            if m:
                index = int(m.group(1))
                if index < 1 or index > self.dim:
                    raise BadIndexError(
                        f"variable q{index} out of range for dimension {self.dim}", tok.pos
                    )
                self.var = _var(index - 1)
                return self.var
            if tok.text in FUNCTIONS:
                self.expect("(", {"'('"})
                arg = self.expr()
                self.expect(")", {"')'"})
                return _fold(_call(tok.text, arg))
            raise ExpressionParseError(
                f"unknown name {tok.text!r}", tok.pos, {"function", "q<index>", "'|q|'"}
            )
        if tok.kind == "(":
            self.advance()
            code = self.expr()
            self.expect(")", {"')'"})
            return code
        raise ExpressionParseError(
            f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.pos,
            {"number", "q<index>", "'|q|'", "function", "'('"},
        )


def parse_expression(src: str, dim: int) -> Program:
    """Compile potential source text over q1..q<dim> into the program that
    :func:`evaluate`, :func:`evaluate_gradient` and
    :func:`evaluate_value_and_gradient` run."""
    if not src or not src.strip():
        raise ExpressionParseError("empty expression", 1, {"expression"})
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return _Parser(src, dim).parse()


# ---------------------------------------------------------------------------
# compilation: the closures of each node, built as the parser reads it

_NEGATIVE_BASE = "negative base with non-integer exponent"
_ZERO_BASE = "zero base with negative exponent"
_VARIABLE_EXPONENT = "power with variable exponent needs positive base"
_DIVISION = "division by zero"


class Program(NamedTuple):
    """A compiled expression at a (M, n) batch of points: ``value(points)``
    gives shape (M,) from the plain pass, ``value_and_gradient(points)``
    the pair of shapes (M,) and (M, n) from the dual pass, with the same
    value bits, and ``hessian(points)`` the (M, n, n) blocks from the
    second-order pass."""

    value: Callable
    value_and_gradient: Callable
    hessian: Callable


class _Code(NamedTuple):
    """One compiled node.  ``plain(points)`` gives its values,
    ``dual(points)`` the pair ``(val, der)``, der of shape (M, n), and
    ``second(points)`` the triple ``(val, der, hess)``, hess of shape
    (M, n, n).  A node without q (``constant``) gives the same scalar from
    all three; ``folded`` is that scalar when it was computed at compile
    time, else None."""

    plain: Callable
    dual: Callable
    second: Callable
    constant: bool
    folded: object = None


def _require(ok, message):
    if not ok.all():
        raise DomainError(message)


def _constant(k) -> _Code:
    def const(points):
        return k

    return _Code(const, const, const, True, k)


def _fold(code: _Code) -> _Code:
    """Evaluate a q-free node once into its number, inf and nan included.  If
    that raises, the node stays a closure, so it fails at evaluation with its
    own message.  A node with q is returned as it is."""
    if not code.constant:
        return code
    try:
        with np.errstate(all="ignore"):
            return _constant(code.plain(None))
    except DomainError:
        return code


def _var(i: int) -> _Code:
    def plain(points):
        return points[:, i]

    def dual(points):
        der = np.zeros(points.shape, points.dtype)
        der[:, i] = 1.0
        return points[:, i], der

    def second(points):
        return (*dual(points), np.zeros(points.shape + points.shape[-1:], points.dtype))

    return _Code(plain, dual, second, False)


def point_norms(points):
    """Euclidean norm of each row of a (M, n) batch of points: the one
    rule of the package's ``|q|``."""
    return np.sqrt(np.add.reduce(points * points, axis=1))


def _norm_dual(points):
    r = point_norms(points)
    positive = r > 0.0
    if positive.all():
        return r, points / r[:, None]
    der = points / np.where(positive, r, 1.0)[:, None]
    der[r == 0.0] = 0.0  # subgradient choice at the origin
    return r, der


def _norm_second(points):
    r = point_norms(points)
    _require(r > 0.0, "|q| not twice differentiable at the origin")
    unit = points / r[:, None]
    return r, unit, (np.eye(points.shape[1]) - _outer(unit, unit)) / r[:, None, None]


def _outer(x, y):
    """Per-point outer products x_m y_m^T of two (M, n) blocks, (M, n, n)."""
    return x[:, :, None] * y[:, None, :]


def _chain(d1, d2, dv, hv):
    """Derivative and Hessian blocks of phi(v) from phi'(v) = d1, phi''(v) = d2
    (arrays of shape (M,) or scalars) and v's blocks dv, hv."""
    d1, d2 = np.asarray(d1)[..., None], np.asarray(d2)[..., None, None]
    return dv * d1, hv * d1[..., None] + d2 * _outer(dv, dv)


def _neg(a: _Code) -> _Code:
    f, d, d2 = a.plain, a.dual, a.second

    def plain(points):
        return np.negative(f(points))

    def dual(points):
        v, dv = d(points)
        return -v, -dv

    def second(points):
        v, dv, hv = d2(points)
        return -v, -dv, -hv

    if a.constant:
        return _Code(plain, plain, plain, True)
    return _Code(plain, dual, second, False)


def _binary(a: _Code, b: _Code, op, vv, vc, cv, second_rule) -> _Code:
    """Node ``op(a, b)``; its dual applies ``vv(v, dv, w, dw)``,
    ``vc(v, dv, c)`` or ``cv(c, w, dw)`` by which operands hold q, and its
    second-order closure takes the value ``op(v, w)`` and the blocks
    ``second_rule(val, v, dv, hv, w, dw, hw)``, a constant operand lifted to
    zero blocks.  The left operand is always evaluated first."""
    fa, fb, da, db = a.plain, b.plain, a.dual, b.dual

    def plain(points):
        return op(fa(points), fb(points))

    if a.constant and b.constant:
        return _Code(plain, plain, plain, True)
    if b.constant:
        def dual(points):
            v, dv = da(points)
            return vc(v, dv, fb(points))
    elif a.constant:
        def dual(points):
            c = fa(points)
            return cv(c, *db(points))
    else:
        def dual(points):
            v, dv = da(points)
            return vv(v, dv, *db(points))

    def second_order(points):
        v, dv, hv = _lifted(a, points)
        w, dw, hw = _lifted(b, points)
        val = op(v, w)
        return (val, *second_rule(val, v, dv, hv, w, dw, hw))

    return _Code(plain, dual, second_order, False)


def _lifted(code: _Code, points):
    """A node's second-order triple, a constant's as (M,) values and zero
    derivative blocks."""
    if not code.constant:
        return code.second(points)
    M, n = points.shape
    return np.full(M, code.plain(points), dtype=float), np.zeros((M, n)), np.zeros((M, n, n))


def _sym_outer(x, y):
    o = _outer(x, y)
    return o + np.swapaxes(o, 1, 2)


def _add(a, b):
    return _binary(
        a, b, operator.add,
        lambda v, dv, w, dw: (v + w, dv + dw),
        lambda v, dv, c: (v + c, dv),
        lambda c, w, dw: (w + c, dw),
        lambda val, v, dv, hv, w, dw, hw: (dv + dw, hv + hw),
    )


def _sub(a, b):
    return _binary(
        a, b, operator.sub,
        lambda v, dv, w, dw: (v - w, dv - dw),
        lambda v, dv, c: (v - c, dv),
        lambda c, w, dw: (c - w, -dw),
        lambda val, v, dv, hv, w, dw, hw: (dv - dw, hv - hw),
    )


def _mul_second(val, v, dv, hv, w, dw, hw):
    return (dv * w[:, None] + dw * v[:, None],
            hv * w[:, None, None] + hw * v[:, None, None] + _sym_outer(dv, dw))


def _mul(a, b):
    return _binary(
        a, b, operator.mul,
        lambda v, dv, w, dw: (v * w, dv * w[:, None] + dw * v[:, None]),
        lambda v, dv, c: (v * c, dv * c),
        lambda c, w, dw: (w * c, dw * c),
        _mul_second,
    )


def _divide(x, y):
    _require(np.asarray(y) != 0.0, _DIVISION)
    return x / y


def _div_vv(v, dv, w, dw):
    _require(w != 0.0, _DIVISION)
    inv = 1.0 / w
    return v / w, (dv - dw * (v * inv)[:, None]) * inv[:, None]


def _div_vc(v, dv, c):
    _require(np.asarray(c) != 0.0, _DIVISION)
    return v / c, dv / c


def _div_cv(c, w, dw):
    _require(w != 0.0, _DIVISION)
    val = c / w
    return val, -dw * (val / w)[:, None]


def _div_second(val, v, dv, hv, w, dw, hw):
    # val * w = v, differentiated once and twice.
    inv = 1.0 / w
    der = (dv - dw * val[:, None]) * inv[:, None]
    return der, (hv - hw * val[:, None, None] - _sym_outer(der, dw)) * inv[:, None, None]


def _div(a, b):
    return _binary(a, b, _divide, _div_vv, _div_vc, _div_cv, _div_second)


def _power(base, expo):
    """base ^ expo on plain values, with every domain check."""
    b = np.asarray(base, dtype=float)
    e = np.asarray(expo, dtype=float)
    _require(~((b < 0.0) & (e != np.floor(e))), _NEGATIVE_BASE)
    _require(~((b == 0.0) & (e < 0.0)), _ZERO_BASE)
    return np.power(base, expo)


def _power_variable(base, expo):
    """base ^ expo for an exponent with q: positive bases only, as in the dual."""
    _require(np.asarray(base) > 0.0, _VARIABLE_EXPONENT)
    return np.power(base, expo)


def _pow_vv(v, dv, e, de):
    # Variable exponent: b^e = exp(e * log(b)), which needs b > 0.
    _require(v > 0.0, _VARIABLE_EXPONENT)
    log_v = np.log(v)
    factor = np.exp(e * log_v)
    return np.power(v, e), (de * log_v[:, None] + dv / v[:, None] * e[:, None]) * factor[:, None]


def _pow_cv(c, e, de):
    _require(np.asarray(c) > 0.0, _VARIABLE_EXPONENT)
    log_c = np.log(c)
    return np.power(c, e), de * log_c * np.exp(e * log_c)[:, None]


def _pow_second(val, v, dv, hv, e, de, he):
    # val = exp(g), g = e * log(v); op has checked v > 0.
    log_v = np.log(v)
    dlog, hlog = _chain(1.0 / v, -1.0 / (v * v), dv, hv)
    dg, hg = _mul_second(None, e, de, he, log_v, dlog, hlog)
    return _chain(val, val, dg, hg)


def _pow_folded(a: _Code, k) -> _Code:
    """``a ^ k`` for a folded exponent k and a base with q.  The base checks
    that k rules out are dropped here, once; ``v * v`` has the bits of
    ``np.power(v, 2.0)`` and ``k * v`` those of ``k * np.power(v, 1.0)``."""
    f, d, d2 = a.plain, a.dual, a.second
    fractional = k != np.floor(k)  # math.floor raises on inf and nan
    negative = k < 0.0
    square = k == 2.0
    k1 = k - 1.0

    def power(v):
        if fractional:
            _require(~(v < 0.0), _NEGATIVE_BASE)
        if negative:
            _require(v != 0.0, _ZERO_BASE)
        return v * v if square else np.power(v, k)

    def plain(points):
        return power(f(points))

    def dual(points):
        v, dv = d(points)
        val = power(v)
        dcoef = k * v if square else k * np.power(v, k1)
        _require(np.isfinite(dcoef), "power not differentiable here")
        return val, dv * dcoef[:, None]

    def second(points):
        v, dv, hv = d2(points)
        val = power(v)
        dcoef = k * v if square else k * np.power(v, k1)
        _require(np.isfinite(dcoef), "power not differentiable here")
        # k (k - 1) v^(k - 2), a constant for k = 1 and 2 (where v^(k - 2)
        # could be 0^-1).
        d2coef = k * k1 if k in (1.0, 2.0) else k * k1 * np.power(v, k - 2.0)
        _require(np.isfinite(d2coef), "power not twice differentiable here")
        return (val, *_chain(dcoef, d2coef, dv, hv))

    return _Code(plain, dual, second, False)


def _pow(a, b):
    """``a ^ b``.  A folded exponent takes :func:`_pow_folded`.  An exponent
    without q that did not fold raises wherever it is evaluated, before any
    rule could take its value, so there is no rule for it."""
    if b.folded is not None and not a.constant:
        return _pow_folded(a, b.folded)
    op = _power if b.constant else _power_variable
    return _binary(a, b, op, _pow_vv, None, _pow_cv, _pow_second)


def _log(v):
    _require(np.asarray(v) > 0.0, "log of a non-positive value")
    return np.log(v)


def _log_dual(v, dv):
    _require(v > 0.0, "log of a non-positive value")
    return np.log(v), dv / v[:, None]


def _log_second(v):
    _require(v > 0.0, "log of a non-positive value")
    return np.log(v), 1.0 / v, -1.0 / (v * v)


def _sqrt(v):
    _require(np.asarray(v) >= 0.0, "sqrt of a negative value")
    return np.sqrt(v)


def _sqrt_dual(v, dv):
    _require(v >= 0.0, "sqrt of a negative value")
    _require(v > 0.0, "sqrt not differentiable at zero")
    r = np.sqrt(v)
    return r, dv * (0.5 / r)[:, None]


def _sqrt_second(v):
    _require(v >= 0.0, "sqrt of a negative value")
    _require(v > 0.0, "sqrt not differentiable at zero")
    r = np.sqrt(v)
    return r, 0.5 / r, -0.25 / (r * v)


def _exp_dual(v, dv):
    e = np.exp(v)
    return e, dv * e[:, None]


def _exp_second(v):
    e = np.exp(v)
    return e, e, e


def _abs_second(v):
    _require(v != 0.0, "abs not twice differentiable at zero")
    return np.abs(v), np.sign(v), 0.0


# name: (plain function, dual function of (val, der), second-order function
# of val giving (phi, phi', phi''))
_FUNCS = {
    "exp": (np.exp, _exp_dual, _exp_second),
    "log": (_log, _log_dual, _log_second),
    "sin": (np.sin, lambda v, dv: (np.sin(v), dv * np.cos(v)[:, None]),
            lambda v: (np.sin(v), np.cos(v), -np.sin(v))),
    "cos": (np.cos, lambda v, dv: (np.cos(v), -dv * np.sin(v)[:, None]),
            lambda v: (np.cos(v), -np.sin(v), -np.cos(v))),
    "sqrt": (_sqrt, _sqrt_dual, _sqrt_second),
    "abs": (np.abs, lambda v, dv: (np.abs(v), dv * np.sign(v)[:, None]), _abs_second),
}


def _call(func: str, a: _Code) -> _Code:
    fn, fn_dual, fn_second = _FUNCS[func]
    f, d, d2 = a.plain, a.dual, a.second

    def plain(points):
        return fn(f(points))

    def dual(points):
        return fn_dual(*d(points))

    def second(points):
        v, dv, hv = d2(points)
        val, d1coef, d2coef = fn_second(v)
        return (val, *_chain(d1coef, d2coef, dv, hv))

    if a.constant:
        return _Code(plain, plain, plain, True)
    return _Code(plain, dual, second, False)


_BINARY = {"+": _add, "-": _sub, "*": _mul, "/": _div, "^": _pow}


def evaluate(program: Program, points: np.ndarray) -> np.ndarray:
    """Values at a (M, n) batch of points, returning shape (M,)."""
    out = program.value(points)
    if not np.isfinite(out).all():
        raise DomainError("expression evaluated to a non-finite value")
    return out


def evaluate_gradient(program: Program, points: np.ndarray) -> np.ndarray:
    """Forward-mode gradient at a (M, n) batch of points, returning (M, n)."""
    grad = program.value_and_gradient(points)[1]
    if not np.isfinite(grad).all():
        raise DomainError("gradient evaluated to a non-finite value")
    return grad


def evaluate_hessian(program: Program, points: np.ndarray) -> np.ndarray:
    """Second-order forward-mode Hessian blocks at a (M, n) batch of points,
    returning (M, n, n).  A point where the source is not twice
    differentiable raises :class:`DomainError`."""
    hess = program.hessian(points)
    if not np.isfinite(hess).all():
        raise DomainError("hessian evaluated to a non-finite value")
    return hess


def evaluate_value_and_gradient(program: Program, points: np.ndarray):
    """Values (M,) and gradient (M, n) at a (M, n) batch of points from one
    pass, with the bits of :func:`evaluate` and :func:`evaluate_gradient`.
    It raises where those two, called in that order, would: the dual pass
    checks the derivatives along with the values, so when it fails the
    plain pass is rerun to raise the values' own error, if they have one."""
    try:
        val, grad = program.value_and_gradient(points)
    except DomainError:
        evaluate(program, points)
        raise
    if not np.isfinite(val).all():
        raise DomainError("expression evaluated to a non-finite value")
    if not np.isfinite(grad).all():
        raise DomainError("gradient evaluated to a non-finite value")
    return val, grad
