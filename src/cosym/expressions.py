"""Small arithmetic expression language with exact symbolic differentiation.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Names resolve against chart coordinates and named parameters at evaluation
time.  The reserved function names are sin, cos, exp, log, sqrt.  Parse
errors carry the byte offset of the failure and the set of token kinds that
would have been accepted there.

:class:`Kernel` compiles a list of trees into one straight-line Python
function, bound either to scalar helpers (one point) or to row helpers
(many points at once, as :func:`eval_rows` does); both give what
:meth:`Expr.eval` gives at each point, bit for bit, and raise its errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}


class ParseError(ValueError):
    """Raised on malformed expression source; carries offset and expectations."""

    def __init__(self, offset: int, expected: tuple[str, ...], found: str):
        self.offset = offset
        self.expected = tuple(expected)
        self.found = found
        super().__init__(
            "parse error at offset %d: found %s, expected one of %s"
            % (offset, found, ", ".join(expected))
        )


class EvalError(ValueError):
    pass


def _no_real_power(base: float, exponent: float) -> EvalError:
    return EvalError(
        "(%r)^(%r) has no finite real value in expression" % (base, exponent)
    )


def _call_failure(fn: str, arg: float, exc: Exception) -> EvalError:
    if isinstance(exc, OverflowError):
        return EvalError("%s(%r) overflows in expression" % (fn, arg))
    return EvalError("%s() domain error: %s" % (fn, exc))


def _unbound(ident: str) -> EvalError:
    return EvalError("unbound name %r in expression" % ident)


# --------------------------------------------------------------------------
# AST nodes
# --------------------------------------------------------------------------


class Expr:
    """Base expression node; immutable."""

    __slots__ = ()
    precedence = 9

    def eval(self, env: Mapping[str, float]) -> float:
        raise NotImplementedError

    def diff(self, name: str) -> "Expr":
        raise NotImplementedError

    def names(self) -> frozenset[str]:
        raise NotImplementedError

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        raise NotImplementedError

    # Operator sugar; scalars coerce to Num.
    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return sub(self, as_expr(other))

    def __rsub__(self, other):
        return sub(as_expr(other), self)

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __pow__(self, other):
        return pow_(self, as_expr(other))

    def __neg__(self):
        return neg(self)


@dataclass(frozen=True, slots=True)
class Num(Expr):
    value: float
    precedence = 9

    def eval(self, env):
        return self.value

    def diff(self, name):
        return Num(0.0)

    def names(self):
        return frozenset()

    def substitute(self, mapping):
        return self

    def __str__(self):
        if self.value < 0:
            return "(%s)" % _fmt(self.value)
        return _fmt(self.value)


@dataclass(frozen=True, slots=True)
class Name(Expr):
    ident: str
    precedence = 9

    def eval(self, env):
        try:
            return env[self.ident]
        except KeyError:
            raise _unbound(self.ident) from None

    def diff(self, name):
        return Num(1.0 if name == self.ident else 0.0)

    def names(self):
        return frozenset((self.ident,))

    def substitute(self, mapping):
        return mapping.get(self.ident, self)

    def __str__(self):
        return self.ident


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr
    precedence = 2

    def eval(self, env):
        return -self.arg.eval(env)

    def diff(self, name):
        return neg(self.arg.diff(name))

    def names(self):
        return self.arg.names()

    def substitute(self, mapping):
        return neg(self.arg.substitute(mapping))

    def __str__(self):
        return "-%s" % _paren(self.arg, 3)


@dataclass(frozen=True, slots=True)
class Add(Expr):
    left: Expr
    right: Expr
    precedence = 1

    def eval(self, env):
        return self.left.eval(env) + self.right.eval(env)

    def diff(self, name):
        return add(self.left.diff(name), self.right.diff(name))

    def names(self):
        return self.left.names() | self.right.names()

    def substitute(self, mapping):
        return add(self.left.substitute(mapping), self.right.substitute(mapping))

    def __str__(self):
        return "%s + %s" % (_paren(self.left, 1), _paren(self.right, 2))


@dataclass(frozen=True, slots=True)
class Sub(Expr):
    left: Expr
    right: Expr
    precedence = 1

    def eval(self, env):
        return self.left.eval(env) - self.right.eval(env)

    def diff(self, name):
        return sub(self.left.diff(name), self.right.diff(name))

    def names(self):
        return self.left.names() | self.right.names()

    def substitute(self, mapping):
        return sub(self.left.substitute(mapping), self.right.substitute(mapping))

    def __str__(self):
        return "%s - %s" % (_paren(self.left, 1), _paren(self.right, 2))


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    left: Expr
    right: Expr
    precedence = 2

    def eval(self, env):
        return self.left.eval(env) * self.right.eval(env)

    def diff(self, name):
        return add(
            mul(self.left.diff(name), self.right),
            mul(self.left, self.right.diff(name)),
        )

    def names(self):
        return self.left.names() | self.right.names()

    def substitute(self, mapping):
        return mul(self.left.substitute(mapping), self.right.substitute(mapping))

    def __str__(self):
        return "%s*%s" % (_paren(self.left, 2), _paren(self.right, 3))


@dataclass(frozen=True, slots=True)
class Div(Expr):
    left: Expr
    right: Expr
    precedence = 2

    def eval(self, env):
        denom = self.right.eval(env)
        if denom == 0.0:
            raise EvalError("division by zero in expression")
        return self.left.eval(env) / denom

    def diff(self, name):
        return div(
            sub(
                mul(self.left.diff(name), self.right),
                mul(self.left, self.right.diff(name)),
            ),
            pow_(self.right, Num(2.0)),
        )

    def names(self):
        return self.left.names() | self.right.names()

    def substitute(self, mapping):
        return div(self.left.substitute(mapping), self.right.substitute(mapping))

    def __str__(self):
        return "%s/%s" % (_paren(self.left, 2), _paren(self.right, 3))


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: Expr
    precedence = 3

    def eval(self, env):
        base, exponent = self.base.eval(env), self.exponent.eval(env)
        try:
            return math.pow(base, exponent)
        except (ValueError, OverflowError):
            raise _no_real_power(base, exponent) from None

    def diff(self, name):
        # Power rule when the exponent is constant; full u^v rule otherwise.
        if isinstance(self.exponent, Num):
            k = self.exponent.value
            return mul(
                mul(Num(k), pow_(self.base, Num(k - 1.0))), self.base.diff(name)
            )
        return mul(
            self,
            add(
                mul(self.exponent.diff(name), call("log", self.base)),
                mul(self.exponent, div(self.base.diff(name), self.base)),
            ),
        )

    def names(self):
        return self.base.names() | self.exponent.names()

    def substitute(self, mapping):
        return pow_(self.base.substitute(mapping), self.exponent.substitute(mapping))

    def __str__(self):
        return "%s^%s" % (_paren(self.base, 4), _paren(self.exponent, 3))


@dataclass(frozen=True, slots=True)
class Call(Expr):
    fn: str
    arg: Expr
    precedence = 9

    def eval(self, env):
        arg = self.arg.eval(env)
        try:
            return FUNCTIONS[self.fn](arg)
        except (ValueError, OverflowError) as exc:
            raise _call_failure(self.fn, arg, exc) from None

    def diff(self, name):
        u = self.arg
        du = u.diff(name)
        if self.fn == "sin":
            outer = call("cos", u)
        elif self.fn == "cos":
            outer = neg(call("sin", u))
        elif self.fn == "exp":
            outer = self
        elif self.fn == "log":
            return div(du, u)
        elif self.fn == "sqrt":
            return div(du, mul(Num(2.0), self))
        else:  # pragma: no cover - constructor rejects unknown functions
            raise EvalError("unknown function %r" % self.fn)
        return mul(outer, du)

    def names(self):
        return self.arg.names()

    def substitute(self, mapping):
        return call(self.fn, self.arg.substitute(mapping))

    def __str__(self):
        return "%s(%s)" % (self.fn, self.arg)


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _paren(e: Expr, minimum: int) -> str:
    s = str(e)
    return "(%s)" % s if e.precedence < minimum else s


# --------------------------------------------------------------------------
# Evaluation at many points
# --------------------------------------------------------------------------

def _pow(base: float, exponent: float) -> float:
    try:
        return math.pow(base, exponent)
    except (ValueError, OverflowError):
        raise _no_real_power(base, exponent) from None


def _checked_call(fn: str) -> Callable[[float], float]:
    f = FUNCTIONS[fn]

    def apply(arg: float) -> float:
        try:
            return f(arg)
        except (ValueError, OverflowError) as exc:
            raise _call_failure(fn, arg, exc) from None

    return apply


# numpy's +, -, *, / are correctly rounded, as Python's are, but its power,
# exp and log differ from libm's by an ulp on a few percent of inputs; powers
# and calls therefore map the scalar functions over the points.
_POW_ROWS = np.frompyfunc(_pow, 2, 1)
_CALL_ROWS = {fn: np.frompyfunc(_checked_call(fn), 1, 1) for fn in FUNCTIONS}


def _floats(ufunc: np.ufunc) -> Callable:
    """``ufunc`` over rows, its object-array result cast back to floats."""

    def apply(*args):
        out = ufunc(*args)
        return out.astype(float) if isinstance(out, np.ndarray) else out

    return apply


def _zero_divisor(denom) -> None:
    if denom == 0.0:
        raise EvalError("division by zero in expression")


def _zero_divisor_rows(denom) -> None:
    if np.any(denom == 0.0):
        raise EvalError("division by zero in expression")


# --------------------------------------------------------------------------
# Straight-line kernels
# --------------------------------------------------------------------------

# The emitted code calls these names; a kernel binds one source to either set.
_CALL_HELPERS = {fn: "_call_" + fn for fn in FUNCTIONS}
_SCALAR_HELPERS = {"_pow": _pow, "_divisor": _zero_divisor, "_unbound": _unbound}
_SCALAR_HELPERS.update({_CALL_HELPERS[fn]: _checked_call(fn) for fn in FUNCTIONS})
_ROW_HELPERS = {"_pow": _floats(_POW_ROWS), "_divisor": _zero_divisor_rows,
                "_unbound": _unbound}
_ROW_HELPERS.update({_CALL_HELPERS[fn]: _floats(_CALL_ROWS[fn]) for fn in FUNCTIONS})
_OPERATORS = {Add: "+", Sub: "-", Mul: "*"}


class _Emitter:
    """Straight-line source for expression trees: one assignment per
    operation node, in the order :meth:`Expr.eval` visits the nodes.

    Arguments are ``_a<i>``, temporaries ``_t<i>`` and bound values
    ``_k<i>``; no name or number from the trees enters the source.  A node
    object met again under the same bindings reuses its temporary: the code
    is straight-line, so its first evaluation has already run (or raised).
    """

    def __init__(self, args: Sequence[str]):
        self.slots = {name: "_a%d" % i for i, name in enumerate(args)}
        self.values: dict[str, object] = {}
        self.lines: list[str] = []
        self.done: dict[tuple[int, int], str] = {}

    def value(self, v) -> str:
        name = "_k%d" % len(self.values)
        self.values[name] = v
        return name

    def assign(self, rhs: str) -> str:
        name = "_t%d" % len(self.lines)
        self.lines.append("%s = %s" % (name, rhs))
        return name

    def node(self, e: Expr, bound: Mapping[str, object]) -> str:
        kind = type(e)
        if kind is Num:
            return self.value(e.value)
        if kind is Name:
            if e.ident in bound:
                return self.value(bound[e.ident])
            if e.ident in self.slots:
                return self.slots[e.ident]
            ident = self.value(e.ident)
            self.lines.append("raise _unbound(%s)" % ident)
            return ident
        key = (id(e), id(bound))
        if key in self.done:
            return self.done[key]
        if kind in _OPERATORS:
            left = self.node(e.left, bound)
            right = self.node(e.right, bound)
            out = self.assign("%s %s %s" % (left, _OPERATORS[kind], right))
        elif kind is Div:
            denom = self.node(e.right, bound)
            if not (type(e.right) is Num and e.right.value != 0.0):
                self.lines.append("_divisor(%s)" % denom)
            out = self.assign("%s / %s" % (self.node(e.left, bound), denom))
        elif kind is Neg:
            out = self.assign("-" + self.node(e.arg, bound))
        elif kind is Pow:
            base = self.node(e.base, bound)
            out = self.assign("_pow(%s, %s)" % (base, self.node(e.exponent, bound)))
        elif kind is Call:
            if e.fn not in _CALL_HELPERS:
                raise EvalError("unknown function %r" % e.fn)
            out = self.assign("%s(%s)" % (_CALL_HELPERS[e.fn], self.node(e.arg, bound)))
        else:
            raise TypeError("cannot emit %r" % (e,))
        self.done[key] = out
        return out


def _bind(code, helpers: Mapping[str, object], values: Mapping[str, object]):
    namespace = {**helpers, **values}
    exec(code, namespace)
    return namespace["_kernel"]


class Kernel:
    """Expression trees compiled into one straight-line Python function.

    ``args`` names the positional arguments; ``bound``, when given, holds
    one mapping per tree of further names bound to fixed values (a field's
    parameters).  ``scalar(*args)`` takes one float per argument and
    returns the tuple of the trees' values, equal bit for bit to
    :meth:`Expr.eval`, raising its :class:`EvalError` with the same message.
    ``rows(*args)`` takes floats or float arrays with one entry per point
    and runs the same source on the row helpers, as :func:`eval_rows` does.
    The source is compiled once; ``source`` keeps it.
    """

    __slots__ = ("source", "scalar", "_rows")

    def __init__(
        self,
        exprs: Sequence[Expr],
        args: Sequence[str],
        bound: Sequence[Mapping[str, object]] | None = None,
    ):
        emitter = _Emitter(args)
        if bound is None:
            bound = [{}] * len(exprs)
        outs = [emitter.node(e, b) for e, b in zip(exprs, bound, strict=True)]
        body = emitter.lines + ["return (%s)" % "".join(o + ", " for o in outs)]
        self.source = "def _kernel(%s):\n    %s\n" % (
            ", ".join(emitter.slots.values()), "\n    ".join(body))
        code = compile(self.source, "<kernel>", "exec")
        self.scalar = _bind(code, _SCALAR_HELPERS, emitter.values)
        self._rows = _bind(code, _ROW_HELPERS, emitter.values)

    def rows(self, *args) -> tuple:
        """The trees' values at many points; overflow to inf or NaN passes
        silently, as in ``scalar``."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self._rows(*args)

    def finite_at(self, point: Sequence[float]) -> tuple | None:
        """``scalar(*point)``, or None where it raises or a value is not
        finite; the caller then walks the trees, whose errors are the
        reference."""
        try:
            out = self.scalar(*point)
        except (ArithmeticError, ValueError):  # EvalError is a ValueError
            return None
        # inf or NaN anywhere makes the sum so (as may an overflowing sum
        # of finite values, which only costs the tree walk).
        return out if math.isfinite(sum(out)) else None

    def finite_rows(self, rows: np.ndarray) -> np.ndarray | None:
        """The trees' values at every row of an (N, k) array as an (N, m)
        array, one column per tree; None as for :meth:`finite_at`."""
        try:
            out = self.rows(*rows.T)
        except (ArithmeticError, ValueError):  # EvalError is a ValueError
            return None
        table = np.empty((len(rows), len(out)))
        for j, v in enumerate(out):
            table[:, j] = v
        return table if np.isfinite(table).all() else None


def eval_rows(expr: Expr, env: Mapping[str, object]):
    """Value of ``expr`` at many points at once.

    ``env`` maps each name to a float or to a float array with one entry per
    point.  The result is a float, or an array of the points' values, equal
    bit for bit to :meth:`Expr.eval` at each point; where ``eval`` raises
    :class:`EvalError` at some point, this raises one too.  Overflow to inf
    or NaN passes silently, as in ``eval``.
    """
    return Kernel([expr], tuple(env)).rows(*env.values())[0]


# --------------------------------------------------------------------------
# Folding constructors
# --------------------------------------------------------------------------


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    return Num(float(value))


def _is_num(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Num) and (v is None or e.value == v)


def add(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return neg(b)
    return Sub(a, b)


def neg(a: Expr) -> Expr:
    if _is_num(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if _is_num(a, -1.0):
        return neg(b)
    if _is_num(b, -1.0):
        return neg(a)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0) and not _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b) and b.value != 0.0:
        return Num(a.value / b.value)
    return Div(a, b)


def pow_(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    if _is_num(a) and _is_num(b):
        try:
            return Num(math.pow(a.value, b.value))
        except (ValueError, OverflowError):
            pass  # left unfolded; evaluating it raises EvalError
    return Pow(a, b)


def call(fn: str, arg: Expr) -> Expr:
    if fn not in FUNCTIONS:
        raise EvalError("unknown function %r" % fn)
    return Call(fn, arg)


# --------------------------------------------------------------------------
# Tokenizer / parser
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    text: str
    pos: int


_OPS = set("+-*/^()")


def tokenize(source: str) -> Iterator[Token]:
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            yield Token(ch, ch, i)
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            if text.count(".") > 1:
                raise ParseError(i, ("NUMBER",), repr(text))
            yield Token("NUMBER", text, i)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            yield Token("NAME", source[i:j], i)
            i = j
            continue
        raise ParseError(i, ("NUMBER", "NAME", "'('", "'-'"), repr(ch))
    yield Token("END", "", n)


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = list(tokenize(source))
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.pos, ("'%s'" % kind,), self._describe(tok))
        return self.advance()

    @staticmethod
    def _describe(tok: Token) -> str:
        return "end of input" if tok.kind == "END" else repr(tok.text)

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(
                tok.pos, ("'+'", "'-'", "'*'", "'/'", "'^'", "end of input"),
                self._describe(tok),
            )
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.factor()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def factor(self) -> Expr:
        if self.peek().kind == "-":
            self.advance()
            return neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            return pow_(base, self.factor())
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "NAME":
            self.advance()
            if self.peek().kind == "(":
                if tok.text not in FUNCTIONS:
                    raise ParseError(
                        tok.pos,
                        tuple("'%s'" % f for f in sorted(FUNCTIONS)),
                        repr(tok.text),
                    )
                self.advance()
                arg = self.expr()
                self.expect(")")
                return call(tok.text, arg)
            return Name(tok.text)
        if tok.kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        raise ParseError(tok.pos, ("NUMBER", "NAME", "'('", "'-'"), self._describe(tok))


def parse(source: str) -> Expr:
    """Parse an expression string into an AST."""
    return _Parser(source).parse()
