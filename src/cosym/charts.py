"""Coordinate charts, domain guards, scalar fields and chart maps.

A field is an expression tree with exact first and second partial
derivatives; each partial-derivative tree is built on first use and kept
on the field, so a field is differentiated at most once per coordinate.  A
value or gradient that is not finite (an overflow to inf, or NaN) raises
:class:`EvalError`.  The one finite-difference rule,
:func:`central_difference` with step ``h_i = max(1, |x_i|) * eps**(1/3)``,
serves what is not an expression: the matrix-valued maps of the Nijenhuis
obstruction in :mod:`cosym.almost_contact`.

A field has one cache per use.  The single-point readers,
:meth:`ScalarField.value`, ``gradient`` and ``at`` (the two at once), walk
the trees and keep the value and the gradient of the last point, each
keyed by the exact bytes of the point's coordinates (so +0.0 and -0.0 are
different points): a repeat at the same point returns the kept result, a
gradient as a new array.  An error is never kept, and a failing point
leaves the previous one's result in place.  The value and the partials
compile into one straight-line kernel on request
(:meth:`ScalarField.kernel`), which serves only :meth:`ScalarField.rows`
and the joint read of :func:`cosym.dynamics.hamiltonian_field_generic`,
the right-hand side of :func:`cosym.dynamics.integrate`; kernel and walk
agree bit for bit.

Domain guards are hard constraints: evaluating at a violating point raises
:class:`DomainError` rather than returning NaN (the built-in half-plane
metrics blow up at the guard surface).  Every point argument is read by one
rule, :meth:`Chart.values` (and :meth:`Chart.point` for a point): a
:class:`ChartPoint` is trusted only on its own chart; a point of another
chart must have the same coordinates and, like a plain sequence, meets this
chart's guards.  A caller that has checked a point passes the ChartPoint
on.  Only the private readers (``_at``, ``_value_at``, ``_gradient_at``)
take unchecked coordinates: the flows' Runge-Kutta stages may lie past a
guard, and the rows of a trajectory are walked without checks.
:meth:`Chart.sample_box` gives the fixed probe box, [-2, 2] per coordinate
kept 0.25 inside each guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .expressions import Expr, EvalError, Kernel, Name, Num, add, mul, neg, parse, sub

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
        for name, v in zip(self.coordinates, values):
            if not math.isfinite(v):
                raise DomainError(
                    "point is not finite on chart %r (got %s = %r)" % (self.name, name, float(v))
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

    def values(self, at) -> np.ndarray:
        """The coordinates of ``at`` as an array of floats.  This is the one
        rule for reading a point: a ChartPoint of this chart is trusted as it
        stands; a ChartPoint of another chart must have this chart's
        coordinates (else ChartMismatchError), and it or a plain sequence is
        checked against this chart's guards."""
        if isinstance(at, ChartPoint) and at.chart == self:
            return at.array
        values = self._coordinates(at)
        self.check(values)
        return values

    def _coordinates(self, at) -> np.ndarray:
        """:meth:`values` unchecked but for the length (:meth:`check`'s error)."""
        if isinstance(at, ChartPoint):
            if at.chart.coordinates != self.coordinates:
                raise ChartMismatchError(
                    "point on chart %r used with chart %r" % (at.chart.name, self.name)
                )
            return at.array
        values = np.asarray(at, dtype=float)
        if len(values) != self.dimension:
            self.check(values)  # raises the length error
        return values

    def point(self, values) -> "ChartPoint":
        """``values`` as a point of this chart, read by :meth:`values`'s
        rule; a point of this chart is returned as it is."""
        if isinstance(values, ChartPoint) and values.chart == self:
            return values
        return ChartPoint(self, tuple(self._coordinates(values).tolist()))

    def env(self, values: Sequence[float]) -> dict[str, float]:
        return dict(zip(self.coordinates, map(float, values)))

    def sample_box(self):
        """Axis-aligned box of in-domain points used for probe sampling:
        [-2, 2] per coordinate, kept 0.25 inside each guard."""
        box = []
        for name in self.coordinates:
            lo, hi = -2.0, 2.0
            for g in self.guards:
                if g.coordinate != name:
                    continue
                if g.upper:
                    hi = min(hi, g.bound - 0.25)
                else:
                    lo = max(lo, g.bound + 0.25)
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
    """Real-valued field on a chart, given by an expression tree."""

    def __init__(
        self,
        chart: Chart,
        expr: Expr,
        params: Mapping[str, float] | None = None,
        source: str | None = None,
    ):
        self.chart = chart
        self.expr = expr
        self.params = dict(params or {})
        self.source = source
        self._partials: dict[str, Expr] = {}
        self._kernel: Kernel | None = None
        # (key, result) of the last tree walk; see _value_at
        self._last_value = self._last_gradient = (None, None)
        overlap = set(self.params) & set(chart.coordinates)
        if overlap:
            raise ValueError("parameters shadow coordinates: %s" % sorted(overlap))
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
    def constant(cls, chart: Chart, value: float) -> "ScalarField":
        return cls(chart, expr=Num(float(value)))

    # -- evaluation --------------------------------------------------------

    def value(self, at) -> float:
        """The field at a point, read as :meth:`at` reads it."""
        return self._value_at(self.chart.values(at))

    __call__ = value

    def _value_at(self, values: np.ndarray) -> float:
        """:meth:`value` at unchecked coordinates: :meth:`_eval`, kept for a
        repeat at the same coordinate bytes."""
        # one read of the slot, so a concurrent call cannot swap in its point
        key, kept = values.tobytes(), self._last_value
        if kept[0] != key:
            kept = self._last_value = key, self._eval(values)
        return kept[1]

    def _gradient_at(self, values: np.ndarray) -> np.ndarray:
        """:meth:`gradient` at unchecked coordinates, as :meth:`_value_at`
        reads the value; always a new array."""
        key, kept = values.tobytes(), self._last_gradient
        if kept[0] != key:
            kept = self._last_gradient = key, self._gradient(values)
        return kept[1].copy()

    def _eval(self, values: np.ndarray) -> float:
        env = self.chart.env(values)
        env.update(self.params)
        v = self.expr.eval(env)
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
        self.chart.index(coordinate)  # KeyError for a coordinate not on the chart
        return ScalarField(
            self.chart, expr=self._partial_expr(coordinate), params=self.params
        )

    def gradient(self, at) -> np.ndarray:
        """The exact partial derivatives at a point as a new array, read as
        :meth:`at` reads them."""
        return self._gradient_at(self.chart.values(at))

    def _gradient(self, values: np.ndarray) -> np.ndarray:
        env = self.chart.env(values)
        env.update(self.params)
        grad = [self._partial_expr(c).eval(env) for c in self.chart.coordinates]
        if not all(map(math.isfinite, grad)):
            raise self._not_finite("gradient", grad, values)
        return np.array(grad)

    # -- compiled evaluation -------------------------------------------------

    def kernel(self) -> Kernel:
        """The value and the partials as one straight-line kernel, built on
        first request and kept, for :meth:`rows` and the flow's right-hand
        side; the single-point readers never read it."""
        if self._kernel is None:
            coords = self.chart.coordinates
            exprs = [self.expr] + [self._partial_expr(c) for c in coords]
            self._kernel = Kernel(exprs, coords, [self.params] * len(exprs))
        return self._kernel

    def at(self, at):
        """(value, gradient) at a point, as ``value`` and ``gradient`` give
        them: by walking the gradient's and then the value's trees, whose
        errors are the reference, or from the kept last point at a repeat,
        the gradient as a new array."""
        return self._at(self.chart.values(at))

    def _at(self, values: np.ndarray):
        """:meth:`at` at unchecked coordinates."""
        grad = self._gradient_at(values)
        return self._value_at(values), grad

    def rows(self, states):
        """(values, gradients) at every row of an (N, dim) array, without
        domain checks, bit for bit as ``value`` and ``gradient`` give them:
        from the kept kernel when it is finite at every row, else row by row
        as :meth:`at` reads a point, so that the first failing row raises
        the pointwise error.  Never builds a kernel."""
        states = np.asarray(states, dtype=float)
        out = None if self._kernel is None else self._kernel.finite_rows(states)
        if out is not None:
            return out[:, 0].copy(), np.ascontiguousarray(out[:, 1:])
        values, grads = np.empty(len(states)), np.empty(states.shape)
        for k, row in enumerate(states):
            values[k], grads[k] = self._at(row)
        return values, grads

    # -- algebra -------------------------------------------------------------

    def _merge_params(self, other: "ScalarField") -> dict[str, float]:
        merged = dict(self.params)
        for k, v in other.params.items():
            if k in merged and merged[k] != v:
                raise ValueError("conflicting values for parameter %r" % k)
            merged[k] = v
        return merged

    def _combine(self, other, op) -> "ScalarField":
        if isinstance(other, (int, float)):
            other = ScalarField.constant(self.chart, other)
        if other.chart.coordinates != self.chart.coordinates:
            raise ChartMismatchError("field algebra across different charts")
        params = self._merge_params(other)
        return ScalarField(self.chart, expr=op(self.expr, other.expr), params=params)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, sub)

    def __mul__(self, other):
        return self._combine(other, mul)

    __rmul__ = __mul__

    def __neg__(self):
        return ScalarField(self.chart, expr=neg(self.expr), params=self.params)

    def is_zero(self) -> bool:
        return isinstance(self.expr, Num) and self.expr.value == 0.0

    def __repr__(self):
        body = self.source or str(self.expr)
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
        """d(target_i)/d(source_j), exact from the component fields."""
        point = self.source.point(at)
        return np.vstack([c.gradient(point) for c in self.components])

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
