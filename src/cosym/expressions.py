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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

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
            raise EvalError("unbound name %r in expression" % self.ident) from None

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
            raise EvalError(
                "(%r)^(%r) has no finite real value in expression" % (base, exponent)
            ) from None

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
        except ValueError as exc:
            raise EvalError("%s() domain error: %s" % (self.fn, exc)) from None
        except OverflowError:
            raise EvalError("%s(%r) overflows in expression" % (self.fn, arg)) from None

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
