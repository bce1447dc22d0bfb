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
closure is built when the node has been read, so no syntax tree is kept,
:func:`parse_expression` returns the root's closure, and evaluation never
dispatches on node type.  Every node has one closure, ``run(points,
order)``, which propagates truncated Taylor series forward on a (M, n) batch
of points to the order the caller needs: order 0 gives the values, order 1
the pair (values, (M, n) Jacobian block), so one pass yields all partial
derivatives, and order 2 the triple with the (M, n, n) Hessian blocks too.
At q = 0 the norm primitive ``|q|`` uses the subgradient 0, matching the
usual convention for abs.

Every order shares the values and the gradient.  A node computes its value
with its one value rule, which carries its domain checks, at every order;
its gradient rule takes that value and its operands' values and gradients;
and its Hessian rule, run at order 2 only, reads those same gradients.  So
the values have the same bits at every order, the gradients at orders 1
and 2, for every source, and :func:`evaluate_value_and_gradient` gives the
bits of :func:`evaluate` and :func:`evaluate_gradient` from one pass.  Where
a derivative needs another intermediate, the rule computes it beside the
value: a division with q on both sides returns ``v / w`` and takes ``1/w``
for its derivative, and a power with q in its exponent returns
``np.power(b, e)`` and takes ``exp(e * log(b))`` as its derivative's factor.

A binary node's Hessian rule takes a constant operand as zero derivative
blocks, so each operator has one, and each function gives phi' and phi''
to one chain rule.  ``+``, ``-`` and ``*`` skip building those blocks with
a rule of their own for a constant operand, which has the bits of the
general rule on them, signed zeros included; ``/`` and ``^`` build them.  Where the source is not twice differentiable, order 2
raises a :class:`DomainError`: ``|q|`` at the origin, abs at zero, and a
power whose second derivative is not finite, besides every check of orders
0 and 1.

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

    def parse(self) -> Callable:
        code = self.expr()
        if self.cur.kind != "end":
            raise ExpressionParseError(
                f"unexpected {self.cur.text!r}", self.cur.pos, {"operator", "end of input"}
            )
        run = code.run
        if code.constant:
            def root(points, order):  # an unfolded constant fails here at every order
                blocks = _lift(run(points, 0), points)
                return blocks[0] if order == 0 else blocks[:order + 1]

            return root
        if code is not self.var:
            return run

        def root(points, order):  # a bare column would alias the points
            out = run(points, order)
            return out.copy() if order == 0 else (out[0].copy(), *out[1:])

        return root

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
            return _Code(_norm, False)
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


def parse_expression(src: str, dim: int) -> Callable:
    """Compile potential source text over q1..q<dim> into the root's
    ``run(points, order)`` at a (M, n) batch of points, the program that
    :func:`evaluate`, :func:`evaluate_gradient`,
    :func:`evaluate_value_and_gradient` and :func:`evaluate_hessian` run."""
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


class _Code(NamedTuple):
    """One compiled node.  ``run(points, order)`` gives its values at order
    0, the pair ``(val, der)``, der of shape (M, n), at order 1 and the
    triple ``(val, der, hess)``, hess of shape (M, n, n), at order 2.  A
    node without q (``constant``) is only run at order 0, where it gives a
    scalar; ``folded`` is that scalar when it was computed at compile time,
    else None."""

    run: Callable
    constant: bool
    folded: object = None


def _require(ok, message):
    if not ok.all():
        raise DomainError(message)


def _constant(k) -> _Code:
    def run(points, order):
        return k

    return _Code(run, True, k)


def _lift(c, points):
    """A constant's (M,) values and zero derivative blocks."""
    M, n = points.shape
    return np.full(M, c, dtype=float), np.zeros((M, n)), np.zeros((M, n, n))


def _fold(code: _Code) -> _Code:
    """Evaluate a q-free node once into its number, inf and nan included.  If
    that raises, the node stays a closure, so it fails at evaluation with its
    own message.  A node with q is returned as it is."""
    if not code.constant:
        return code
    try:
        with np.errstate(all="ignore"):
            return _constant(code.run(None, 0))
    except DomainError:
        return code


def _var(i: int) -> _Code:
    def run(points, order):
        if order == 0:
            return points[:, i]
        der = np.zeros(points.shape, points.dtype)
        der[:, i] = 1.0
        if order == 1:
            return points[:, i], der
        return points[:, i], der, np.zeros(points.shape + points.shape[-1:], points.dtype)

    return _Code(run, False)


def point_norms(points):
    """Euclidean norm of each row of a (M, n) batch of points: the one
    rule of the package's ``|q|``."""
    return np.sqrt(np.add.reduce(points * points, axis=1))


def _norm(points, order):
    r = point_norms(points)
    if order == 0:
        return r
    positive = r > 0.0
    if positive.all():
        der = points / r[:, None]
    else:
        der = points / np.where(positive, r, 1.0)[:, None]
        der[r == 0.0] = 0.0  # subgradient choice at the origin
    if order == 1:
        return r, der
    _require(positive, "|q| not twice differentiable at the origin")
    return r, der, (np.eye(points.shape[1]) - _outer(der, der)) / r[:, None, None]


def _outer(x, y):
    """Per-point outer products x_m y_m^T of two (M, n) blocks, (M, n, n)."""
    return x[:, :, None] * y[:, None, :]


def _sym_outer(x, y):
    o = _outer(x, y)
    return o + np.swapaxes(o, 1, 2)


def _chain(d1, d2, dv, hv):
    """Hessian blocks of phi(v) from phi'(v) = d1, phi''(v) = d2 (arrays of
    shape (M,) or scalars) and v's blocks dv, hv."""
    d1, d2 = np.asarray(d1)[..., None, None], np.asarray(d2)[..., None, None]
    return hv * d1 + d2 * _outer(dv, dv)


def _unary(a: _Code, fn, grad, hess) -> _Code:
    """Node ``fn(a)``: the value rule ``fn`` carries its domain checks, the
    gradient is ``grad(val, v, dv)`` and the Hessian ``hess(val, v, dv,
    hv)``."""
    f = a.run

    def run(points, order):
        if order == 0:
            return fn(f(points, 0))
        x = f(points, order)
        v, dv = x[0], x[1]
        val = fn(v)
        der = grad(val, v, dv)
        if order == 1:
            return val, der
        return val, der, hess(val, v, dv, x[2])

    return _Code(run, a.constant)


def _neg(a: _Code) -> _Code:
    return _unary(a, np.negative, lambda val, v, dv: -dv, lambda val, v, dv, hv: -hv)


def _binary(a: _Code, b: _Code, op, vv, vc, cv, hess, hc=None) -> _Code:
    """Node ``op(a, b)``: the value rule ``op`` carries its domain checks,
    the gradient is ``vv(val, v, dv, w, dw)``, ``vc(val, v, dv, c)`` or
    ``cv(val, c, w, dw)`` by which operands hold q, and the Hessian
    ``hess(val, der, v, dv, hv, w, dw, hw)``.  With a constant operand c the
    Hessian is ``hc(v, dv, hv, c, left)``, (v, dv, hv) the other operand and
    ``left`` whether c is the left one, with the bits of ``hess`` on c lifted
    to zero blocks, signed zeros included; an operator without ``hc`` lifts
    c.  The left operand is always evaluated first."""
    fa, fb, a_const, b_const = a.run, b.run, a.constant, b.constant

    def run(points, order):
        if order == 0:
            return op(fa(points, 0), fb(points, 0))
        if b_const:
            x, y = fa(points, order), fb(points, 0)
            val = op(x[0], y)
            der = vc(val, x[0], x[1], y)
        elif a_const:
            x, y = fa(points, 0), fb(points, order)
            val = op(x, y[0])
            der = cv(val, x, y[0], y[1])
        else:
            x, y = fa(points, order), fb(points, order)
            val = op(x[0], y[0])
            der = vv(val, x[0], x[1], y[0], y[1])
        if order == 1:
            return val, der
        if hc and (a_const or b_const):
            return val, der, hc(*(y if a_const else x), y if b_const else x, a_const)
        x = _lift(x, points) if a_const else x
        y = _lift(y, points) if b_const else y
        return val, der, hess(val, der, *x, *y)

    return _Code(run, a_const and b_const)


def _add(a, b):
    return _binary(
        a, b, operator.add,
        lambda val, v, dv, w, dw: dv + dw,
        lambda val, v, dv, c: dv,
        lambda val, c, w, dw: dw,
        lambda val, der, v, dv, hv, w, dw, hw: hv + hw,
        lambda v, dv, hv, c, left: hv + 0.0,
    )


def _sub(a, b):
    return _binary(
        a, b, operator.sub,
        lambda val, v, dv, w, dw: dv - dw,
        lambda val, v, dv, c: dv,
        lambda val, c, w, dw: -dw,
        lambda val, der, v, dv, hv, w, dw, hw: hv - hw,
        lambda v, dv, hv, c, left: 0.0 - hv if left else hv - 0.0,
    )


def _mul_vv(val, v, dv, w, dw):
    return dv * w[:, None] + dw * v[:, None]


def _mul_hess(val, der, v, dv, hv, w, dw, hw):
    return hv * w[:, None, None] + hw * v[:, None, None] + _sym_outer(dv, dw)


def _mul_hess_c(v, dv, hv, c, left):
    # The lifted rule adds 0 v and 0 dv_i + 0 dv_j to hv * c: signed zeros,
    # or nan where v or dv is not finite.  Such terms sum to the same bits
    # in any order, so this is the lifted rule's result.
    z = dv * 0.0
    return hv * c + (((v * 0.0)[:, None] + z)[:, :, None] + z[:, None, :])


def _mul(a, b):
    return _binary(
        a, b, operator.mul, _mul_vv,
        lambda val, v, dv, c: dv * c,
        lambda val, c, w, dw: dw * c,
        _mul_hess,
        _mul_hess_c,
    )


def _divide(x, y):
    _require(np.asarray(y) != 0.0, _DIVISION)
    return x / y


def _div_vv(val, v, dv, w, dw):
    inv = 1.0 / w
    return (dv - dw * (v * inv)[:, None]) * inv[:, None]


def _div_hess(val, der, v, dv, hv, w, dw, hw):
    # val * w = v, differentiated twice.
    return (hv - hw * val[:, None, None] - _sym_outer(der, dw)) * (1.0 / w)[:, None, None]


def _div(a, b):
    return _binary(
        a, b, _divide, _div_vv,
        lambda val, v, dv, c: dv / c,
        lambda val, c, w, dw: -dw * (val / w)[:, None],
        _div_hess,
    )


def _power(base, expo):
    """base ^ expo, with every domain check."""
    b = np.asarray(base, dtype=float)
    e = np.asarray(expo, dtype=float)
    _require(~((b < 0.0) & (e != np.floor(e))), _NEGATIVE_BASE)
    _require(~((b == 0.0) & (e < 0.0)), _ZERO_BASE)
    return np.power(base, expo)


def _power_variable(base, expo):
    """base ^ expo for an exponent with q: positive bases only."""
    _require(np.asarray(base) > 0.0, _VARIABLE_EXPONENT)
    return np.power(base, expo)


def _pow_vv(val, v, dv, e, de):
    # b^e = exp(e * log(b)); the value rule has checked b > 0.
    log_v = np.log(v)
    return (de * log_v[:, None] + dv / v[:, None] * e[:, None]) * np.exp(e * log_v)[:, None]


def _pow_cv(val, c, e, de):
    log_c = np.log(c)
    return de * log_c * np.exp(e * log_c)[:, None]


def _pow_hess(val, der, v, dv, hv, e, de, he):
    # val = exp(g), g = e * log(v); the value rule has checked v > 0.
    inv = 1.0 / v
    log_v, dlog = np.log(v), dv * inv[:, None]
    hlog = _chain(inv, -1.0 / (v * v), dv, hv)
    dg = _mul_vv(None, e, de, log_v, dlog)
    return _chain(val, val, dg, _mul_hess(None, None, e, de, he, log_v, dlog, hlog))


def _pow_folded(a: _Code, k) -> _Code:
    """``a ^ k`` for a folded exponent k and a base with q.  The base checks
    that k rules out are dropped here, once; ``v * v`` has the bits of
    ``np.power(v, 2.0)`` and ``k * v`` those of ``k * np.power(v, 1.0)``."""
    f = a.run
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

    def run(points, order):
        if order == 0:
            return power(f(points, 0))
        x = f(points, order)
        v, dv = x[0], x[1]
        val = power(v)
        dcoef = k * v if square else k * np.power(v, k1)
        _require(np.isfinite(dcoef), "power not differentiable here")
        der = dv * dcoef[:, None]
        if order == 1:
            return val, der
        # k (k - 1) v^(k - 2), a constant for k = 1 and 2 (where v^(k - 2)
        # could be 0^-1).
        d2coef = k * k1 if k in (1.0, 2.0) else k * k1 * np.power(v, k - 2.0)
        _require(np.isfinite(d2coef), "power not twice differentiable here")
        return val, der, _chain(dcoef, d2coef, dv, x[2])

    return _Code(run, False)


def _pow(a, b):
    """``a ^ b``.  A folded exponent takes :func:`_pow_folded`.  An exponent
    without q that did not fold raises wherever it is evaluated, before any
    rule could take its value, so there is no rule for it."""
    if b.folded is not None and not a.constant:
        return _pow_folded(a, b.folded)
    op = _power if b.constant else _power_variable
    return _binary(a, b, op, _pow_vv, None, _pow_cv, _pow_hess)


def _log(v):
    _require(np.asarray(v) > 0.0, "log of a non-positive value")
    return np.log(v)


def _sqrt(v):
    _require(np.asarray(v) >= 0.0, "sqrt of a negative value")
    return np.sqrt(v)


def _sqrt_grad(val, v, dv):
    _require(v > 0.0, "sqrt not differentiable at zero")
    return dv * (0.5 / val)[:, None]


def _abs_second(val, v):
    _require(v != 0.0, "abs not twice differentiable at zero")
    return np.sign(v), 0.0


# name: (value rule, gradient rule of (val, v, dv), (phi', phi'') of (val, v))
_FUNCS = {
    "exp": (np.exp, lambda val, v, dv: dv * val[:, None], lambda val, v: (val, val)),
    "log": (_log, lambda val, v, dv: dv / v[:, None], lambda val, v: (1.0 / v, -1.0 / (v * v))),
    "sin": (np.sin, lambda val, v, dv: dv * np.cos(v)[:, None], lambda val, v: (np.cos(v), -val)),
    "cos": (np.cos, lambda val, v, dv: -dv * np.sin(v)[:, None],
            lambda val, v: (-np.sin(v), -val)),
    "sqrt": (_sqrt, _sqrt_grad, lambda val, v: (0.5 / val, -0.25 / (val * v))),
    "abs": (np.abs, lambda val, v, dv: dv * np.sign(v)[:, None], _abs_second),
}


def _call(func: str, a: _Code) -> _Code:
    fn, grad, second = _FUNCS[func]
    return _unary(a, fn, grad, lambda val, v, dv, hv: _chain(*second(val, v), dv, hv))


_BINARY = {"+": _add, "-": _sub, "*": _mul, "/": _div, "^": _pow}


def evaluate(program: Callable, points: np.ndarray) -> np.ndarray:
    """Values at a (M, n) batch of points, returning shape (M,)."""
    out = program(points, 0)
    if not np.isfinite(out).all():
        raise DomainError("expression evaluated to a non-finite value")
    return out


def evaluate_gradient(program: Callable, points: np.ndarray) -> np.ndarray:
    """Forward-mode gradient at a (M, n) batch of points, returning (M, n)."""
    grad = program(points, 1)[1]
    if not np.isfinite(grad).all():
        raise DomainError("gradient evaluated to a non-finite value")
    return grad


def evaluate_hessian(program: Callable, points: np.ndarray) -> np.ndarray:
    """Forward-mode Hessian blocks at a (M, n) batch of points,
    returning (M, n, n).  A point where the source is not twice
    differentiable raises :class:`DomainError`: the pass runs without
    floating-point warnings, so an overflow or a division by zero reaches
    the non-finite gate below and raises there."""
    with np.errstate(all="ignore"):
        hess = program(points, 2)[2]
    if not np.isfinite(hess).all():
        raise DomainError("hessian evaluated to a non-finite value")
    return hess


def evaluate_value_and_gradient(program: Callable, points: np.ndarray):
    """Values (M,) and gradient (M, n) at a (M, n) batch of points from one
    pass, with the bits of :func:`evaluate` and :func:`evaluate_gradient`.
    It raises where those two, called in that order, would: the order-1
    pass checks the derivatives along with the values, so when it fails the
    order-0 pass is rerun to raise the values' own error, if they have one."""
    try:
        val, grad = program(points, 1)
    except DomainError:
        evaluate(program, points)
        raise
    if not np.isfinite(val).all():
        raise DomainError("expression evaluated to a non-finite value")
    if not np.isfinite(grad).all():
        raise DomainError("gradient evaluated to a non-finite value")
    return val, grad
