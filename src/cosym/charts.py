"""Coordinate charts, domain guards, scalar fields and chart maps.

Fields are evaluated pointwise, or at every row of an (N, dim) array at once
(``value_rows``, ``gradient_rows``; bit-identical to the pointwise results).
A field backed by an expression tree has exact first and second partial
derivatives; each partial-derivative tree is built on first use and kept on
the field, so a field is differentiated at most once per coordinate; its value
and partials compile into one straight-line kernel on request
(:meth:`ScalarField.kernel`).  A field backed by an opaque callable falls back to central finite differences
with step ``h_i = max(1, |x_i|) * eps**(1/3)``.  A value or gradient that is
not finite (an overflow to inf, or NaN) raises :class:`EvalError`.

Domain guards are hard constraints: evaluating at a violating point raises
:class:`DomainError` rather than returning NaN (the built-in half-plane
metrics blow up at the guard surface).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .expressions import Expr, EvalError, Kernel, Name, Num, eval_rows, parse

FD_STEP_EXPONENT = 1.0 / 3.0
_EPS_CBRT = float(np.finfo(float).eps) ** FD_STEP_EXPONENT


def fd_step(x: float) -> float:
    """Central-difference step: max(1, |x|) * machine-eps**(1/3)."""
    return max(1.0, abs(x)) * _EPS_CBRT


def central_difference(fn: Callable, x, j: int):
    """(fn(x + h e_j) - fn(x - h e_j)) / 2h with h = fd_step(x_j).

    ``fn`` may be scalar- or array-valued; the result has its shape.
    """
    h = fd_step(x[j])
    up = np.array(x, dtype=float)
    dn = np.array(x, dtype=float)
    up[j] += h
    dn[j] -= h
    return (np.asarray(fn(up)) - np.asarray(fn(dn))) / (2.0 * h)


class DomainError(ValueError):
    """A point violates a chart's domain guards."""


class ChartMismatchError(ValueError):
    """Operands live on different charts."""


@dataclass(frozen=True)
class Guard:
    """Open or closed half-space constraint on one coordinate.

    ``upper=False`` means ``coordinate > bound`` (``>=`` when non-strict);
    ``upper=True`` flips the inequality.
    """

    coordinate: str
    bound: float
    strict: bool = True
    upper: bool = False

    def holds(self, value: float) -> bool:
        if self.upper:
            return value < self.bound if self.strict else value <= self.bound
        return value > self.bound if self.strict else value >= self.bound

    def describe(self) -> str:
        op = ("<" if self.strict else "<=") if self.upper else (">" if self.strict else ">=")
        return "%s %s %s" % (self.coordinate, op, self.bound)

    def to_json(self) -> dict:
        return {
            "coordinate": self.coordinate,
            "bound": self.bound,
            "strict": self.strict,
            "upper": self.upper,
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "Guard":
        return cls(
            coordinate=data["coordinate"],
            bound=float(data["bound"]),
            strict=bool(data.get("strict", True)),
            upper=bool(data.get("upper", False)),
        )


@dataclass(frozen=True)
class Chart:
    name: str
    coordinates: tuple[str, ...]
    guards: tuple[Guard, ...] = ()

    def __post_init__(self):
        if len(set(self.coordinates)) != len(self.coordinates):
            raise ValueError("duplicate coordinate names on chart %r" % self.name)
        for g in self.guards:
            if g.coordinate not in self.coordinates:
                raise ValueError(
                    "guard references unknown coordinate %r on chart %r"
                    % (g.coordinate, self.name)
                )

    @property
    def dimension(self) -> int:
        return len(self.coordinates)

    def index(self, coordinate: str) -> int:
        try:
            return self.coordinates.index(coordinate)
        except ValueError:
            raise KeyError(
                "chart %r has no coordinate %r" % (self.name, coordinate)
            ) from None

    def check(self, values: Sequence[float]) -> None:
        if len(values) != self.dimension:
            raise DomainError(
                "chart %r expects %d values, got %d"
                % (self.name, self.dimension, len(values))
            )
        for g in self.guards:
            v = values[self.index(g.coordinate)]
            if not g.holds(v):
                raise DomainError(
                    "point violates %s on chart %r (got %s = %r)"
                    % (g.describe(), self.name, g.coordinate, v)
                )

    def contains(self, values: Sequence[float]) -> bool:
        try:
            self.check(values)
        except DomainError:
            return False
        return True

    def point(self, values: Sequence[float]) -> "ChartPoint":
        return ChartPoint(self, tuple(float(v) for v in values))

    def env(self, values: Sequence[float]) -> dict[str, float]:
        return dict(zip(self.coordinates, map(float, values)))

    def sample_box(self, margin: float = 0.25, half_width: float = 2.0):
        """Axis-aligned box of in-domain points used for probe sampling."""
        box = []
        for name in self.coordinates:
            lo, hi = -half_width, half_width
            for g in self.guards:
                if g.coordinate != name:
                    continue
                if g.upper:
                    hi = min(hi, g.bound - margin)
                else:
                    lo = max(lo, g.bound + margin)
            if lo >= hi:
                raise ValueError("empty sample box for coordinate %r" % name)
            box.append((lo, hi))
        return box

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "coordinates": list(self.coordinates),
            "guards": [g.to_json() for g in self.guards],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "Chart":
        return cls(
            name=data.get("name", "chart"),
            coordinates=tuple(data["coordinates"]),
            guards=tuple(Guard.from_json(g) for g in data.get("guards", ())),
        )


@dataclass(frozen=True)
class ChartPoint:
    chart: Chart
    values: tuple[float, ...]

    def __post_init__(self):
        self.chart.check(self.values)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def env(self) -> dict[str, float]:
        return self.chart.env(self.values)

    def __getitem__(self, coordinate: str) -> float:
        return self.values[self.chart.index(coordinate)]


def coerce_values(chart: Chart, at) -> np.ndarray:
    if isinstance(at, ChartPoint):
        if at.chart.coordinates != chart.coordinates:
            raise ChartMismatchError(
                "point on chart %r used with chart %r" % (at.chart.name, chart.name)
            )
        return at.array
    return np.asarray(at, dtype=float)


class ScalarField:
    """Real-valued field on a chart, symbolic or opaque-callable backed."""

    def __init__(
        self,
        chart: Chart,
        expr: Expr | None = None,
        fn: Callable[[np.ndarray], float] | None = None,
        params: Mapping[str, float] | None = None,
        source: str | None = None,
    ):
        if (expr is None) == (fn is None):
            raise ValueError("exactly one of expr / fn must be given")
        self.chart = chart
        self.expr = expr
        self.fn = fn
        self.params = dict(params or {})
        self.source = source
        self._partials: dict[str, Expr] = {}
        self._kernel: Kernel | None = None
        overlap = set(self.params) & set(chart.coordinates)
        if overlap:
            raise ValueError("parameters shadow coordinates: %s" % sorted(overlap))
        if expr is not None:
            unbound = expr.names() - set(chart.coordinates) - set(self.params)
            if unbound:
                raise EvalError(
                    "expression references unbound names %s on chart %r"
                    % (sorted(unbound), chart.name)
                )

    # -- constructors ------------------------------------------------------

    @classmethod
    def parse(cls, chart: Chart, source: str, params=None) -> "ScalarField":
        return cls(chart, expr=parse(source), params=params, source=source)

    @classmethod
    def from_expr(cls, chart: Chart, expr: Expr, params=None) -> "ScalarField":
        return cls(chart, expr=expr, params=params)

    @classmethod
    def from_callable(cls, chart: Chart, fn, params=None) -> "ScalarField":
        return cls(chart, fn=fn, params=params)

    @classmethod
    def constant(cls, chart: Chart, value: float) -> "ScalarField":
        return cls(chart, expr=Num(float(value)))

    # -- evaluation --------------------------------------------------------

    def value(self, at, check_domain: bool = True) -> float:
        values = coerce_values(self.chart, at)
        if check_domain and not isinstance(at, ChartPoint):
            self.chart.check(values)
        return self._eval(values)

    __call__ = value

    def _eval(self, values: np.ndarray) -> float:
        if self.expr is not None:
            env = self.chart.env(values)
            env.update(self.params)
            v = self.expr.eval(env)
        else:
            v = float(self.fn(values))
        if not math.isfinite(v):
            raise self._not_finite("value", v, values)
        return v

    def value_rows(self, rows) -> np.ndarray:
        """Values at every row of an (N, dim) array, without domain checks;
        row k is ``value(rows[k])`` bit for bit."""
        rows = np.asarray(rows, dtype=float)
        if self.expr is None:
            return np.array([self._eval(row) for row in rows], dtype=float)
        out = np.empty(len(rows))
        out[:] = eval_rows(self.expr, self._row_env(rows))
        return self._finite_rows("value", out, rows)

    def _row_env(self, rows: np.ndarray) -> dict:
        env = dict(zip(self.chart.coordinates, rows.T))
        env.update(self.params)
        return env

    def _not_finite(self, what: str, result, values) -> EvalError:
        return EvalError(
            "%s of %r is not finite at %s: %r"
            % (what, self, np.asarray(values).tolist(), np.asarray(result).tolist())
        )

    def _finite_rows(self, what: str, out: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``out`` (one entry or row per point), or the pointwise error of
        its first point with a value that is not finite."""
        finite = np.isfinite(out)
        if not finite.all():
            k = int(np.argmin(finite.reshape(len(out), -1).all(axis=1)))
            raise self._not_finite(what, out[k], rows[k])
        return out

    # -- differentiation ---------------------------------------------------

    def _partial_expr(self, coordinate: str) -> Expr:
        """d(expr)/d(coordinate), differentiated on first use and kept."""
        try:
            return self._partials[coordinate]
        except KeyError:
            tree = self._partials[coordinate] = self.expr.diff(coordinate)
            return tree

    def partial(self, coordinate: str) -> "ScalarField":
        i = self.chart.index(coordinate)
        if self.expr is not None:
            return ScalarField(
                self.chart, expr=self._partial_expr(coordinate), params=self.params
            )
        f = self._eval
        return ScalarField(
            self.chart, fn=lambda v: central_difference(f, v, i), params=self.params
        )

    def gradient(self, at, check_domain: bool = True) -> np.ndarray:
        values = coerce_values(self.chart, at)
        if check_domain and not isinstance(at, ChartPoint):
            self.chart.check(values)
        return self._gradient(values)

    def _gradient(self, values: np.ndarray) -> np.ndarray:
        if self.expr is not None:
            env = self.chart.env(values)
            env.update(self.params)
            grad = [self._partial_expr(c).eval(env) for c in self.chart.coordinates]
        else:
            dim = self.chart.dimension
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                grad = [central_difference(self._eval, values, i) for i in range(dim)]
        if not all(map(math.isfinite, grad)):
            raise self._not_finite("gradient", grad, values)
        return np.array(grad)

    def gradient_rows(self, rows) -> np.ndarray:
        """(N, dim) gradients at every row of an (N, dim) array, without
        domain checks; row k is ``gradient(rows[k])`` bit for bit."""
        rows = np.asarray(rows, dtype=float)
        out = np.empty(rows.shape)
        if self.expr is None:
            for k, row in enumerate(rows):
                out[k] = self._gradient(row)
            return out
        env = self._row_env(rows)
        for j, c in enumerate(self.chart.coordinates):
            out[:, j] = eval_rows(self._partial_expr(c), env)
        return self._finite_rows("gradient", out, rows)

    # -- compiled evaluation -------------------------------------------------

    def kernel(self) -> Kernel | None:
        """The value and the partials as one straight-line kernel, built on
        first request and kept; None for a callable-backed field."""
        if self._kernel is None and self.expr is not None:
            coords = self.chart.coordinates
            exprs = [self.expr] + [self._partial_expr(c) for c in coords]
            self._kernel = Kernel(exprs, coords, [self.params] * len(exprs))
        return self._kernel

    def compiled_at(self, point: list[float]):
        """(value, gradient) at ``point``, a list of floats, from the kept
        kernel, bit for bit as ``value`` and ``gradient`` give them.  None
        when no kernel is kept, or where it raises or gives a result that is
        not finite: the caller then evaluates the trees, whose errors are
        the reference."""
        out = None if self._kernel is None else self._kernel.finite_at(point)
        return None if out is None else (out[0], np.array(out[1:]))

    def compiled_rows(self, rows: np.ndarray):
        """(values, gradients) at every row of an (N, dim) array from the
        kept kernel, as ``value_rows`` and ``gradient_rows`` give them; None
        as for :meth:`compiled_at`."""
        out = None if self._kernel is None else self._kernel.finite_rows(rows)
        if out is None:
            return None
        return out[:, 0].copy(), np.ascontiguousarray(out[:, 1:])

    # -- algebra (symbolic when both operands are) ---------------------------

    def _merge_params(self, other: "ScalarField") -> dict[str, float]:
        merged = dict(self.params)
        for k, v in other.params.items():
            if k in merged and merged[k] != v:
                raise ValueError("conflicting values for parameter %r" % k)
            merged[k] = v
        return merged

    def _combine(self, other, op_expr, op_val) -> "ScalarField":
        if isinstance(other, (int, float)):
            other = ScalarField.constant(self.chart, other)
        if other.chart.coordinates != self.chart.coordinates:
            raise ChartMismatchError("field algebra across different charts")
        params = self._merge_params(other)
        if self.expr is not None and other.expr is not None:
            return ScalarField(
                self.chart, expr=op_expr(self.expr, other.expr), params=params
            )
        f, g = self._eval, other._eval
        return ScalarField(
            self.chart, fn=lambda v: op_val(f(v), g(v)), params=params
        )

    def __add__(self, other):
        from .expressions import add

        return self._combine(other, add, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        from .expressions import sub

        return self._combine(other, sub, lambda a, b: a - b)

    def __mul__(self, other):
        from .expressions import mul

        return self._combine(other, mul, lambda a, b: a * b)

    __rmul__ = __mul__

    def __neg__(self):
        from .expressions import neg

        if self.expr is not None:
            return ScalarField(self.chart, expr=neg(self.expr), params=self.params)
        f = self._eval
        return ScalarField(self.chart, fn=lambda v: -f(v), params=self.params)

    def is_zero(self) -> bool:
        return isinstance(self.expr, Num) and self.expr.value == 0.0

    def __repr__(self):
        body = self.source or (str(self.expr) if self.expr is not None else "<fn>")
        return "ScalarField(%s on %s)" % (body, self.chart.name)


def random_polynomial(
    chart: Chart, rng, max_degree: int = 2, terms: int = 4
) -> ScalarField:
    """Random multivariate polynomial field with coefficients in [-1, 1]."""
    expr = Num(float(rng.uniform(-1, 1)))
    for _ in range(terms):
        term = Num(float(rng.uniform(-1, 1)))
        for name in chart.coordinates:
            for _ in range(int(rng.integers(0, max_degree + 1))):
                term = term * Name(name)
        expr = expr + term
    return ScalarField.from_expr(chart, expr)


@dataclass(frozen=True)
class ChartMap:
    """Smooth map between charts, one component field per target coordinate."""

    source: Chart
    target: Chart
    components: tuple[ScalarField, ...]

    def __post_init__(self):
        if len(self.components) != self.target.dimension:
            raise ValueError("need one component field per target coordinate")
        for c in self.components:
            if c.chart.coordinates != self.source.coordinates:
                raise ChartMismatchError("component field not on source chart")

    def __call__(self, at) -> ChartPoint:
        values = coerce_values(self.source, at)
        self.source.check(values)
        image = [c._eval(values) for c in self.components]
        try:
            return self.target.point(image)
        except DomainError as exc:
            raise DomainError("image point leaves target domain: %s" % exc) from None

    def jacobian(self, at) -> np.ndarray:
        """d(target_i)/d(source_j), symbolic when possible, else central FD."""
        values = coerce_values(self.source, at)
        self.source.check(values)
        return np.vstack([c.gradient(values) for c in self.components])

    @staticmethod
    def identity(chart: Chart) -> "ChartMap":
        comps = tuple(
            ScalarField(chart, expr=Name(c)) for c in chart.coordinates
        )
        return ChartMap(chart, chart, comps)

    @classmethod
    def from_exprs(cls, source: Chart, target: Chart, exprs, params=None) -> "ChartMap":
        comps = tuple(
            ScalarField.parse(source, e, params) if isinstance(e, str)
            else ScalarField.from_expr(source, e, params)
            for e in exprs
        )
        return cls(source, target, comps)
