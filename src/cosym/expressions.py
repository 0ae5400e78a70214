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

Trees are immutable.  The parser and ``diff`` build them through the
folding constructors (``add``, ``mul``, ...), which fold constants and drop
zeros and ones.  Each node with operands keeps its name set and its
derivative for the names it lacks, both computed on first request: a
gradient walks a subtree once for every name it contains and once for all
the others.  The kept derivative is the one the node's own ``diff`` rule
builds, so a tree does not depend on what was asked before.

:class:`Kernel` compiles a list of trees into one straight-line Python
function, bound either to scalar helpers (one point) or to row helpers
(many points at once); both give what :meth:`Expr.eval` gives at each
point, bit for bit, and raise its errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
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


def _unbound(ident: str) -> EvalError:
    return EvalError("unbound name %r in expression" % ident)


# The checked operations: ``eval`` calls them, the scalar kernel binds them
# and the row kernel maps them, so every path raises the same EvalError.


def _pow(base: float, exponent: float) -> float:
    try:
        return math.pow(base, exponent)
    except (ValueError, OverflowError):
        raise EvalError(
            "(%r)^(%r) has no finite real value in expression" % (base, exponent)
        ) from None


def _checked_call(fn: str) -> Callable[[float], float]:
    f = FUNCTIONS[fn]

    def apply(arg: float) -> float:
        try:
            return f(arg)
        except OverflowError:
            raise EvalError("%s(%r) overflows in expression" % (fn, arg)) from None
        except ValueError as exc:
            raise EvalError("%s() domain error: %s" % (fn, exc)) from None

    return apply


_CHECKED_CALLS = {fn: _checked_call(fn) for fn in FUNCTIONS}


def _zero_divisor(denom) -> None:
    if denom == 0.0:
        raise EvalError("division by zero in expression")


def _is_square(exponent: "Expr") -> bool:
    """A constant exponent of 2: every path squares as :class:`Pow` says."""
    return type(exponent) is Num and exponent.value == 2.0


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


class Operation(Expr):
    """A node with operands, the fields its class names in ``operands``.  It
    keeps its name set, the union of its operands', and its derivative for
    the names it lacks, each on the first request; until then the two slots
    stay unset, so building a node costs nothing more."""

    __slots__ = ("_names", "_absent")
    operands: tuple[str, ...]

    def names(self):
        kept = getattr(self, "_names", None)
        if kept is None:
            fields = self.operands
            kept = getattr(self, fields[0]).names()
            for field in fields[1:]:
                kept = kept | getattr(self, field).names()
            _keep(self, "_names", kept)
        return kept


def _keep(node: Operation, slot: str, value):
    object.__setattr__(node, slot, value)  # the node classes are frozen
    return value


def _once_for_absent_names(rule):
    """An operation's ``diff``: ``rule`` for a name the node contains; for
    any other name, ``rule``'s tree, built on the first such request and
    kept.  That tree is the same for every absent name: below the node,
    each Name differentiates to Num(0.0), and the rules read the name
    nowhere else."""

    def diff(self, name):
        if name in self.names():
            return rule(self, name)
        kept = getattr(self, "_absent", None)
        return _keep(self, "_absent", rule(self, name)) if kept is None else kept

    return diff


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
        # -0.0 prints as (-0), which parses back to -0.0
        if self.value < 0 or (self.value == 0.0 and math.copysign(1.0, self.value) < 0):
            return "(-%s)" % _fmt(-self.value)
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
class Neg(Operation):
    arg: Expr
    precedence = 2
    operands = ("arg",)

    def eval(self, env):
        return -self.arg.eval(env)

    @_once_for_absent_names
    def diff(self, name):
        return neg(self.arg.diff(name))

    def substitute(self, mapping):
        return neg(self.arg.substitute(mapping))

    def __str__(self):
        return "-%s" % _paren(self.arg, 3)


@dataclass(frozen=True, slots=True)
class Add(Operation):
    left: Expr
    right: Expr
    precedence = 1
    operands = ("left", "right")

    def eval(self, env):
        return self.left.eval(env) + self.right.eval(env)

    @_once_for_absent_names
    def diff(self, name):
        return add(self.left.diff(name), self.right.diff(name))

    def substitute(self, mapping):
        return add(self.left.substitute(mapping), self.right.substitute(mapping))

    def __str__(self):
        return "%s + %s" % (_paren(self.left, 1), _paren(self.right, 2))


@dataclass(frozen=True, slots=True)
class Sub(Operation):
    left: Expr
    right: Expr
    precedence = 1
    operands = ("left", "right")

    def eval(self, env):
        return self.left.eval(env) - self.right.eval(env)

    @_once_for_absent_names
    def diff(self, name):
        return sub(self.left.diff(name), self.right.diff(name))

    def substitute(self, mapping):
        return sub(self.left.substitute(mapping), self.right.substitute(mapping))

    def __str__(self):
        return "%s - %s" % (_paren(self.left, 1), _paren(self.right, 2))


@dataclass(frozen=True, slots=True)
class Mul(Operation):
    left: Expr
    right: Expr
    precedence = 2
    operands = ("left", "right")

    def eval(self, env):
        return self.left.eval(env) * self.right.eval(env)

    @_once_for_absent_names
    def diff(self, name):
        return add(
            mul(self.left.diff(name), self.right),
            mul(self.left, self.right.diff(name)),
        )

    def substitute(self, mapping):
        return mul(self.left.substitute(mapping), self.right.substitute(mapping))

    def __str__(self):
        return "%s*%s" % (_paren(self.left, 2), _paren(self.right, 3))


@dataclass(frozen=True, slots=True)
class Div(Operation):
    left: Expr
    right: Expr
    precedence = 2
    operands = ("left", "right")

    def eval(self, env):
        denom = self.right.eval(env)
        _zero_divisor(denom)
        return self.left.eval(env) / denom

    @_once_for_absent_names
    def diff(self, name):
        return div(
            sub(
                mul(self.left.diff(name), self.right),
                mul(self.left, self.right.diff(name)),
            ),
            pow_(self.right, Num(2.0)),
        )

    def substitute(self, mapping):
        return div(self.left.substitute(mapping), self.right.substitute(mapping))

    def __str__(self):
        return "%s/%s" % (_paren(self.left, 2), _paren(self.right, 3))


@dataclass(frozen=True, slots=True)
class Pow(Operation):
    """base^exponent.  A constant exponent of 2 (``Num(2.0)``, after
    folding) is the product ``base * base``, the correctly rounded square,
    in ``eval``, folding and both kernels; libm's pow(x, 2) is off by an
    ulp on about one double in a thousand.  On finite doubles the product
    is inf exactly where pow overflows, so the checked ``_pow`` is called
    only there, to raise its EvalError; an inf or NaN base gives pow's
    value.  Any other exponent, a name bound to 2 included, calls libm's
    pow through ``_pow``."""

    base: Expr
    exponent: Expr
    precedence = 3
    operands = ("base", "exponent")

    def eval(self, env):
        base = self.base.eval(env)
        exponent = self.exponent
        if type(exponent) is Num and exponent.value == 2.0:  # _is_square, inlined
            square = base * base
            if math.isinf(square):
                _pow(base, exponent.value)
            return square
        return _pow(base, exponent.eval(env))

    @_once_for_absent_names
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

    def substitute(self, mapping):
        return pow_(self.base.substitute(mapping), self.exponent.substitute(mapping))

    def __str__(self):
        return "%s^%s" % (_paren(self.base, 4), _paren(self.exponent, 3))


@dataclass(frozen=True, slots=True)
class Call(Operation):
    fn: str
    arg: Expr
    precedence = 9
    operands = ("arg",)

    def eval(self, env):
        try:
            fn = _CHECKED_CALLS[self.fn]
        except KeyError:  # a Call built directly; parse and call refuse the name
            raise EvalError("unknown function %r" % self.fn) from None
        return fn(self.arg.eval(env))

    @_once_for_absent_names
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

    def substitute(self, mapping):
        return call(self.fn, self.arg.substitute(mapping))

    def __str__(self):
        return "%s(%s)" % (self.fn, self.arg)


def _fmt(value: float) -> str:
    if abs(value) < 1e15 and value == int(value):  # false for inf and nan
        return str(int(value))
    return repr(value)


def _paren(e: Expr, minimum: int) -> str:
    s = str(e)
    return "(%s)" % s if e.precedence < minimum else s


# --------------------------------------------------------------------------
# Evaluation at many points
# --------------------------------------------------------------------------

# numpy's +, -, *, / are correctly rounded, as Python's are, so a square is
# one numpy multiply of the column, as it is one product at a point.  numpy's
# power, exp and log differ from libm's by an ulp on a few percent of
# inputs; other powers and calls therefore map libm's functions over the
# points, as ``eval`` calls them.  An array of rows maps the bare function
# (``math.pow``, ``math.sin``, ...) first, one C call per row; where that
# raises, numpy maps the checked scalar function over the rows again, one
# Python frame per row, and raises the first failing row's EvalError.  Both
# call the same function, so the bits are the same.


def _rows(f: Callable, checked: Callable, nin: int) -> Callable:
    """``checked`` (``f`` raising EvalError) over rows: a map of the bare
    ``f`` where the first argument is an array and any other a float, and
    ``checked`` mapped by numpy otherwise or where that raises, which
    raises the first failing row's EvalError."""
    ufunc = np.frompyfunc(checked, nin, 1)

    def apply(first, *rest):
        if isinstance(first, np.ndarray) and all(isinstance(v, float) for v in rest):
            try:
                return np.fromiter(map(f, first.tolist(), *map(repeat, rest)), float, len(first))
            except (ValueError, OverflowError):
                pass
        out = ufunc(first, *rest)  # an object array, or a float
        return out.astype(float) if isinstance(out, np.ndarray) else out

    return apply


def _zero_divisor_rows(denom) -> None:
    if np.any(denom == 0.0):
        raise EvalError("division by zero in expression")


def _isinf_rows(values) -> bool:
    return bool(np.isinf(values).any())


# --------------------------------------------------------------------------
# Straight-line kernels
# --------------------------------------------------------------------------

# The emitted code calls these names; a kernel binds one source to either set.
_CALL_HELPERS = {fn: "_call_" + fn for fn in FUNCTIONS}
_SCALAR_HELPERS = {"_pow": _pow, "_isinf": math.isinf, "_divisor": _zero_divisor,
                   "_unbound": _unbound}
_SCALAR_HELPERS.update({_CALL_HELPERS[fn]: f for fn, f in _CHECKED_CALLS.items()})
_ROW_HELPERS = {"_pow": _rows(math.pow, _pow, 2), "_isinf": _isinf_rows,
                "_divisor": _zero_divisor_rows, "_unbound": _unbound}
_ROW_HELPERS.update({_CALL_HELPERS[fn]: _rows(FUNCTIONS[fn], _CHECKED_CALLS[fn], 1)
                     for fn in FUNCTIONS})
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
            exponent = self.node(e.exponent, bound)
            if _is_square(e.exponent):
                out = self.assign("%s * %s" % (base, base))
                self.lines.append("if _isinf(%s): _pow(%s, %s)" % (out, base, exponent))
            else:
                out = self.assign("_pow(%s, %s)" % (base, exponent))
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
    and runs the same source on the row helpers: where ``eval`` raises
    :class:`EvalError` at some point, it raises one too.
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

    def finite_at(self, point: Sequence[float], *more: "Kernel") -> tuple | None:
        """``scalar(*point)``, followed by each of ``more``'s values at the
        same point, or None where one raises or a value is not finite; the
        caller then walks the trees, whose errors are the reference."""
        try:
            out = self.scalar(*point)
            for kernel in more:
                out += kernel.scalar(*point)
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


# --------------------------------------------------------------------------
# Folding constructors
# --------------------------------------------------------------------------


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    return Num(float(value))


def add(a: Expr, b: Expr) -> Expr:
    if type(a) is Num:
        if type(b) is Num:
            return Num(a.value + b.value)
        return b if a.value == 0.0 else Add(a, b)
    if type(b) is Num and b.value == 0.0:
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if type(b) is Num:
        if type(a) is Num:
            return Num(a.value - b.value)
        return a if b.value == 0.0 else Sub(a, b)
    if type(a) is Num and a.value == 0.0:
        return neg(b)
    return Sub(a, b)


def neg(a: Expr) -> Expr:
    kind = type(a)
    if kind is Num:
        return Num(-a.value)
    if kind is Neg:
        return a.arg
    return Neg(a)


def mul(a: Expr, b: Expr) -> Expr:
    if type(a) is Num:
        if type(b) is Num:
            return Num(a.value * b.value)
        v, other = a.value, b
    elif type(b) is Num:
        v, other = b.value, a
    else:
        return Mul(a, b)
    if v == 0.0:
        return Num(0.0)
    if v == 1.0:
        return other
    if v == -1.0:
        return neg(other)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if type(b) is Num:
        w = b.value
        if type(a) is Num and w != 0.0:
            if a.value == 0.0:
                return Num(0.0)
            return a if w == 1.0 else Num(a.value / w)
        return a if w == 1.0 else Div(a, b)
    if type(a) is Num and a.value == 0.0:
        return Num(0.0)
    return Div(a, b)


def pow_(a: Expr, b: Expr) -> Expr:
    if type(b) is Num:
        k = b.value
        if k == 1.0:
            return a
        if k == 0.0:
            return Num(1.0)
        if type(a) is Num:
            try:
                return Num(Pow(a, b).eval({}))
            except EvalError:
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
