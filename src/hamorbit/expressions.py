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

Each tree is compiled once (:func:`compile_expression`) into a nest of
closures, one per node, so evaluation never dispatches on node type.  Every
node has a plain closure, giving values on a (M, n) batch of points, and a
dual one, giving the pair (values, (M, n) Jacobian block) of forward-mode
differentiation, so one pass yields all partial derivatives.  At q = 0 the
norm primitive ``|q|`` uses the subgradient 0, matching the usual
convention for abs.

Compiling folds every subtree without q into its number, unless folding
raises a :class:`DomainError` or gives a non-finite value; such a subtree
stays a closure and fails at evaluation, as the tree walk did.  A folded
exponent settles at compile time which base checks of ``^`` can fire: an
integer exponent drops the non-integer-exponent check, and a non-negative
one the zero-base check; ``x^2`` is one multiply, with the bits of
``np.power``.  Kept at every evaluation: the zero-divisor, log, sqrt and
variable-exponent checks, the finiteness of the power rule's coefficient,
and the final finiteness gates of :func:`evaluate` and
:func:`evaluate_gradient`.  No rewrite changes rounding: operands keep
their order and every other power goes through ``np.power``, so values and
gradients are bit-identical to a walk of the tree.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import BadIndexError, DomainError, ExpressionParseError

FUNCTIONS = ("abs", "cos", "exp", "log", "sin", "sqrt")


# ---------------------------------------------------------------------------
# syntax tree

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Norm:
    """The vector-norm primitive |q|."""


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


def to_source(node) -> str:
    """Fully parenthesized source that re-parses to an equivalent tree."""
    if isinstance(node, Const):
        return format(node.value, ".17g")
    if isinstance(node, Var):
        return f"q{node.index}"
    if isinstance(node, Norm):
        return "|q|"
    if isinstance(node, Neg):
        return f"(-{to_source(node.child)})"
    if isinstance(node, BinOp):
        return f"({to_source(node.left)} {node.op} {to_source(node.right)})"
    if isinstance(node, Call):
        return f"{node.func}({to_source(node.arg)})"
    raise TypeError(f"not an expression node: {node!r}")


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
    def __init__(self, src: str, dim: int):
        self.tokens = tokenize(src)
        self.dim = dim
        self.i = 0

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

    def parse(self):
        node = self.expr()
        if self.cur.kind != "end":
            raise ExpressionParseError(
                f"unexpected {self.cur.text!r}", self.cur.pos, {"operator", "end of input"}
            )
        return node

    def expr(self):
        node = self.term()
        while self.cur.kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            node = BinOp(op, node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.cur.kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.unary()
            node = BinOp(op, node, rhs)
        return node

    def unary(self):
        if self.cur.kind == "-":
            self.advance()
            return Neg(self.unary())
        if self.cur.kind == "+":
            self.advance()
            return self.unary()
        return self.factor()

    def factor(self):
        node = self.base()
        if self.cur.kind == "^":
            self.advance()
            node = BinOp("^", node, self.unary())
        return node

    def base(self):
        tok = self.cur
        if tok.kind == "number":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "|":
            self.advance()
            name = self.expect("name", {"'q'"})
            if name.text != "q":
                raise ExpressionParseError(f"unexpected {name.text!r}", name.pos, {"'q'"})
            self.expect("|", {"'|'"})
            return Norm()
        if tok.kind == "name":
            self.advance()
            m = _VAR_RE.match(tok.text)
            if m:
                index = int(m.group(1))
                if index < 1 or index > self.dim:
                    raise BadIndexError(
                        f"variable q{index} out of range for dimension {self.dim}", tok.pos
                    )
                return Var(index)
            if tok.text in FUNCTIONS:
                self.expect("(", {"'('"})
                arg = self.expr()
                self.expect(")", {"')'"})
                return Call(tok.text, arg)
            raise ExpressionParseError(
                f"unknown name {tok.text!r}", tok.pos, {"function", "q<index>", "'|q|'"}
            )
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", {"')'"})
            return node
        raise ExpressionParseError(
            f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.pos,
            {"number", "q<index>", "'|q|'", "function", "'('"},
        )


def parse_expression(src: str, dim: int):
    """Parse potential source text into a syntax tree over q1..q<dim>."""
    if not src or not src.strip():
        raise ExpressionParseError("empty expression", 1, {"expression"})
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return _Parser(src, dim).parse()


# ---------------------------------------------------------------------------
# compilation: one closure per node, built once

_NEGATIVE_BASE = "negative base with non-integer exponent"
_ZERO_BASE = "zero base with negative exponent"
_VARIABLE_EXPONENT = "power with variable exponent needs positive base"
_DIVISION = "division by zero"


class Program(NamedTuple):
    """A compiled expression: ``value(points)`` gives shape (M,) and
    ``gradient(points)`` shape (M, n) at a (M, n) batch of points."""

    value: Callable
    gradient: Callable


class _Code(NamedTuple):
    """One compiled node.  ``plain(points)`` gives its values and
    ``dual(points)`` the pair ``(val, der)``, der of shape (M, n).  A node
    without q (``constant``) gives the same scalar from both; ``folded`` is
    that scalar when it was computed at compile time, else None."""

    plain: Callable
    dual: Callable
    constant: bool
    folded: object = None


def _require(ok, message):
    if not ok.all():
        raise DomainError(message)


def _fold(code: _Code) -> _Code:
    """Evaluate a q-free node once.  If that raises or is not finite the node
    stays a closure, so it fails at evaluation with its own message."""
    try:
        with np.errstate(all="ignore"):
            k = code.plain(None)
    except DomainError:
        return code
    if not np.isfinite(k):
        return code

    def const(points):
        return k

    return _Code(const, const, True, k)


def _var(i: int) -> _Code:
    def plain(points):
        return points[:, i]

    def dual(points):
        der = np.zeros(points.shape, points.dtype)
        der[:, i] = 1.0
        return points[:, i], der

    return _Code(plain, dual, False)


def _norm_plain(points):
    return np.linalg.norm(points, axis=1)


def _norm_dual(points):
    r = np.linalg.norm(points, axis=1)
    positive = r > 0.0
    if positive.all():
        return r, points / r[:, None]
    der = points / np.where(positive, r, 1.0)[:, None]
    der[r == 0.0] = 0.0  # subgradient choice at the origin
    return r, der


def _neg(a: _Code) -> _Code:
    f, d = a.plain, a.dual

    def plain(points):
        return np.negative(f(points))

    def dual(points):
        v, dv = d(points)
        return -v, -dv

    return _Code(plain, plain if a.constant else dual, a.constant)


def _binary(a: _Code, b: _Code, op, vv, vc, cv) -> _Code:
    """Node ``op(a, b)``; its dual applies ``vv(v, dv, w, dw)``,
    ``vc(v, dv, c)`` or ``cv(c, w, dw)`` by which operands hold q.  The left
    operand is always evaluated first."""
    fa, fb, da, db = a.plain, b.plain, a.dual, b.dual

    def plain(points):
        return op(fa(points), fb(points))

    if a.constant and b.constant:
        return _Code(plain, plain, True)
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
    return _Code(plain, dual, False)


def _add(a, b):
    return _binary(
        a, b, operator.add,
        lambda v, dv, w, dw: (v + w, dv + dw),
        lambda v, dv, c: (v + c, dv),
        lambda c, w, dw: (w + c, dw),
    )


def _sub(a, b):
    return _binary(
        a, b, operator.sub,
        lambda v, dv, w, dw: (v - w, dv - dw),
        lambda v, dv, c: (v - c, dv),
        lambda c, w, dw: (c - w, -dw),
    )


def _mul(a, b):
    return _binary(
        a, b, operator.mul,
        lambda v, dv, w, dw: (v * w, dv * w[:, None] + dw * v[:, None]),
        lambda v, dv, c: (v * c, dv * c),
        lambda c, w, dw: (w * c, dw * c),
    )


def _divide(x, y):
    _require(np.asarray(y) != 0.0, _DIVISION)
    return x / y


def _div_vv(v, dv, w, dw):
    _require(w != 0.0, _DIVISION)
    inv = 1.0 / w
    val = v * inv
    return val, (dv - dw * val[:, None]) * inv[:, None]


def _div_vc(v, dv, c):
    _require(np.asarray(c) != 0.0, _DIVISION)
    return v / c, dv / c


def _div_cv(c, w, dw):
    _require(w != 0.0, _DIVISION)
    val = c / w
    return val, -dw * (val / w)[:, None]


def _div(a, b):
    return _binary(a, b, _divide, _div_vv, _div_vc, _div_cv)


def _power(base, expo):
    """base ^ expo on plain values, with every domain check."""
    b = np.asarray(base, dtype=float)
    e = np.asarray(expo, dtype=float)
    _require(~((b < 0.0) & (e != np.floor(e))), _NEGATIVE_BASE)
    _require(~((b == 0.0) & (e < 0.0)), _ZERO_BASE)
    return np.power(base, expo)


def _pow_vv(v, dv, e, de):
    # Variable exponent: b^e = exp(e * log(b)), which needs b > 0.
    _require(v > 0.0, _VARIABLE_EXPONENT)
    log_v = np.log(v)
    val = np.exp(e * log_v)
    return val, (de * log_v[:, None] + dv / v[:, None] * e[:, None]) * val[:, None]


def _pow_vc(v, dv, e):
    # Constant exponent: the power rule, valid for negative bases too.
    val = _power(v, e)
    dcoef = e * np.power(v, e - 1.0)
    _require(np.isfinite(dcoef), "power not differentiable here")
    return val, dv * dcoef[:, None]


def _pow_cv(c, e, de):
    _require(np.asarray(c) > 0.0, _VARIABLE_EXPONENT)
    log_c = np.log(c)
    val = np.exp(e * log_c)
    return val, de * log_c * val[:, None]


def _pow_folded(a: _Code, k) -> _Code:
    """``a ^ k`` for a folded exponent k and a base with q.  The base checks
    that k rules out are dropped here, once; ``v * v`` has the bits of
    ``np.power(v, 2.0)`` and ``k * v`` those of ``k * np.power(v, 1.0)``."""
    f, d = a.plain, a.dual
    fractional = k != math.floor(k)
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

    return _Code(plain, dual, False)


def _pow(a, b):
    if b.folded is not None and not a.constant:
        return _pow_folded(a, b.folded)
    return _binary(a, b, _power, _pow_vv, _pow_vc, _pow_cv)


def _log(v):
    _require(np.asarray(v) > 0.0, "log of a non-positive value")
    return np.log(v)


def _log_dual(v, dv):
    _require(v > 0.0, "log of a non-positive value")
    return np.log(v), dv / v[:, None]


def _sqrt(v):
    _require(np.asarray(v) >= 0.0, "sqrt of a negative value")
    return np.sqrt(v)


def _sqrt_dual(v, dv):
    _require(v >= 0.0, "sqrt of a negative value")
    _require(v > 0.0, "sqrt not differentiable at zero")
    r = np.sqrt(v)
    return r, dv * (0.5 / r)[:, None]


def _exp_dual(v, dv):
    e = np.exp(v)
    return e, dv * e[:, None]


# name: (plain function, dual function of (val, der))
_FUNCS = {
    "exp": (np.exp, _exp_dual),
    "log": (_log, _log_dual),
    "sin": (np.sin, lambda v, dv: (np.sin(v), dv * np.cos(v)[:, None])),
    "cos": (np.cos, lambda v, dv: (np.cos(v), -dv * np.sin(v)[:, None])),
    "sqrt": (_sqrt, _sqrt_dual),
    "abs": (np.abs, lambda v, dv: (np.abs(v), dv * np.sign(v)[:, None])),
}


def _call(func: str, a: _Code) -> _Code:
    fn, fn_dual = _FUNCS[func]
    f, d = a.plain, a.dual

    def plain(points):
        return fn(f(points))

    def dual(points):
        return fn_dual(*d(points))

    return _Code(plain, plain if a.constant else dual, a.constant)


_BINARY = {"+": _add, "-": _sub, "*": _mul, "/": _div, "^": _pow}


def _compile(node) -> _Code:
    if isinstance(node, Const):
        k = node.value
        code = _Code(lambda points: k, lambda points: k, True)
    elif isinstance(node, Var):
        return _var(node.index - 1)
    elif isinstance(node, Norm):
        return _Code(_norm_plain, _norm_dual, False)
    elif isinstance(node, Neg):
        code = _neg(_compile(node.child))
    elif isinstance(node, BinOp):
        code = _BINARY[node.op](_compile(node.left), _compile(node.right))
    elif isinstance(node, Call):
        code = _call(node.func, _compile(node.arg))
    else:
        raise TypeError(f"not an expression node: {node!r}")
    return _fold(code) if code.constant else code


def compile_expression(node) -> Program:
    """Compile a syntax tree once into the program that :func:`evaluate`
    and :func:`evaluate_gradient` run."""
    code = _compile(node)
    f, d = code.plain, code.dual
    if code.constant:
        def value(points):
            return np.broadcast_to(np.asarray(f(points), dtype=float), points.shape[:1]).copy()

        def gradient(points):
            f(points)  # an unfolded constant fails here as in value
            return np.zeros_like(points)

        return Program(value, gradient)

    def gradient(points):
        return d(points)[1]

    if isinstance(node, Var):  # a bare column would alias the points
        return Program(lambda points: f(points).copy(), gradient)
    return Program(f, gradient)


def evaluate(program: Program, points: np.ndarray) -> np.ndarray:
    """Values at a (M, n) batch of points, returning shape (M,)."""
    out = program.value(points)
    if not np.isfinite(out).all():
        raise DomainError("expression evaluated to a non-finite value")
    return out


def evaluate_gradient(program: Program, points: np.ndarray) -> np.ndarray:
    """Forward-mode gradient at a (M, n) batch of points, returning (M, n)."""
    grad = program.gradient(points)
    if not np.isfinite(grad).all():
        raise DomainError("gradient evaluated to a non-finite value")
    return grad
