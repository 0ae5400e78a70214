"""Coordinate charts, domain guards, scalar fields and chart maps.

Fields are evaluated pointwise, or at every row of an (N, dim) array at once.
:meth:`ScalarField.at` gives the value and the gradient at one point and
:meth:`ScalarField.rows` at every row, from the field's kept kernel where it
is finite, else by walking the trees; bit-identical either way.  A field
backed by an expression tree has exact first and second partial
derivatives; each partial-derivative tree is built on first use and kept on
the field, so a field is differentiated at most once per coordinate; its
value and partials compile into one straight-line kernel on request
(:meth:`ScalarField.kernel`).  A field backed by an opaque callable falls back
to central finite differences with step ``h_i = max(1, |x_i|) * eps**(1/3)``.
A value or gradient that is not finite (an overflow to inf, or NaN) raises
:class:`EvalError`.

Domain guards are hard constraints: evaluating at a violating point raises
:class:`DomainError` rather than returning NaN (the built-in half-plane
metrics blow up at the guard surface).  Every point argument is read by one
rule, :meth:`Chart.values` (and :meth:`Chart.point` for a point): a
:class:`ChartPoint` is trusted only on its own chart; a point of another
chart must have the same coordinates and, like a plain sequence, meets this
chart's guards unless the caller asks for no check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .expressions import Expr, EvalError, Kernel, Name, Num, parse

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
                    % (g.describe(), self.name, g.coordinate, float(v))
                )

    def contains(self, values: Sequence[float]) -> bool:
        try:
            self.check(values)
        except DomainError:
            return False
        return True

    def values(self, at, check_domain: bool = True) -> np.ndarray:
        """The coordinates of ``at`` as an array of floats.  This is the one
        rule for reading a point: a ChartPoint of this chart is trusted as it
        stands; a ChartPoint of another chart must have this chart's
        coordinates (else ChartMismatchError), and it or a plain sequence is
        checked against this chart's guards unless ``check_domain`` is
        False."""
        if isinstance(at, ChartPoint):
            if at.chart == self:
                return at.array
            if at.chart.coordinates != self.coordinates:
                raise ChartMismatchError(
                    "point on chart %r used with chart %r" % (at.chart.name, self.name)
                )
            values = at.array
        else:
            values = np.asarray(at, dtype=float)
        if check_domain:
            self.check(values)
        return values

    def point(self, values) -> "ChartPoint":
        """``values`` as a point of this chart, read by :meth:`values`'s
        rule; a point of this chart is returned as it is."""
        if isinstance(values, ChartPoint) and values.chart == self:
            return values
        return ChartPoint(self, tuple(self.values(values, check_domain=False).tolist()))

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
        return self._eval(self.chart.values(at, check_domain))

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

    def _not_finite(self, what: str, result, values) -> EvalError:
        return EvalError(
            "%s of %r is not finite at %s: %r"
            % (what, self, np.asarray(values).tolist(), np.asarray(result).tolist())
        )

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
        return self._gradient(self.chart.values(at, check_domain))

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

    # -- compiled evaluation -------------------------------------------------

    def kernel(self) -> Kernel | None:
        """The value and the partials as one straight-line kernel, built on
        first request and kept; None for a callable-backed field."""
        if self._kernel is None and self.expr is not None:
            coords = self.chart.coordinates
            exprs = [self.expr] + [self._partial_expr(c) for c in coords]
            self._kernel = Kernel(exprs, coords, [self.params] * len(exprs))
        return self._kernel

    def at(self, at, check_domain: bool = True):
        """(value, gradient) at a point, bit for bit as ``value`` and
        ``gradient`` give them: from the kept kernel where it is finite,
        else by walking the gradient's and then the value's trees, whose
        errors are the reference.  Never builds a kernel."""
        values = self.chart.values(at, check_domain)
        out = None if self._kernel is None else self._kernel.finite_at(values.tolist())
        if out is not None:
            return out[0], np.array(out[1:])
        grad = self._gradient(values)
        return self._eval(values), grad

    def rows(self, states):
        """(values, gradients) at every row of an (N, dim) array, without
        domain checks, bit for bit as ``value`` and ``gradient`` give them:
        from the kept kernel when it is finite at every row, else row by row
        through :meth:`at`, so that the first failing row raises the
        pointwise error.  Never builds a kernel."""
        states = np.asarray(states, dtype=float)
        out = None if self._kernel is None else self._kernel.finite_rows(states)
        if out is not None:
            return out[:, 0].copy(), np.ascontiguousarray(out[:, 1:])
        values, grads = np.empty(len(states)), np.empty(states.shape)
        for k, row in enumerate(states):
            values[k], grads[k] = self.at(row, check_domain=False)
        return values, grads

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
        values = self.source.values(at)
        image = [c._eval(values) for c in self.components]
        try:
            return self.target.point(image)
        except DomainError as exc:
            raise DomainError("image point leaves target domain: %s" % exc) from None

    def jacobian(self, at) -> np.ndarray:
        """d(target_i)/d(source_j), symbolic when possible, else central FD."""
        values = self.source.values(at)
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
