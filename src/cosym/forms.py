"""Differential forms, vector fields and pointwise exterior calculus.

Forms are stored sparsely: a degree-k form maps strictly increasing
k-tuples of coordinate indices to coefficient fields.  Wedge and exterior
derivative act at the field level (coefficients stay fields); interior
product and pullback are pointwise and return :class:`FormValue` coefficient
tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

import numpy as np

from .charts import (
    Chart,
    ChartMap,
    ChartMismatchError,
    ScalarField,
    _walk_fields,
)


def permutation_sign(idx: tuple[int, ...]) -> int:
    """Sign of the permutation sorting a tuple of distinct indices; the
    wedge sign of two index tuples is that of their concatenation."""
    inversions = 0
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            if idx[i] > idx[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def _check_index(idx, degree: int, dim: int) -> tuple[int, ...]:
    idx = tuple(int(i) for i in idx)
    if len(idx) != degree:
        raise ValueError("index tuple %r has wrong length for degree %d" % (idx, degree))
    if any(i < 0 or i >= dim for i in idx):
        raise ValueError("index tuple %r out of range for dimension %d" % (idx, dim))
    if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
        raise ValueError("index tuple %r is not strictly increasing" % (idx,))
    return idx


@dataclass(frozen=True)
class FormValue:
    """Pointwise coefficient table of a k-form."""

    chart: Chart
    degree: int
    coeffs: Mapping[tuple[int, ...], float]

    def get(self, *coordinates: str) -> float:
        idx = tuple(self.chart.index(c) for c in coordinates)
        sorted_idx = tuple(sorted(idx))
        if len(set(sorted_idx)) != len(sorted_idx):
            return 0.0
        return permutation_sign(idx) * self.coeffs.get(sorted_idx, 0.0)

    def max_norm(self) -> float:
        return max((abs(v) for v in self.coeffs.values()), default=0.0)

    def __sub__(self, other: "FormValue") -> "FormValue":
        if other.chart.coordinates != self.chart.coordinates or other.degree != self.degree:
            raise ChartMismatchError("form value mismatch")
        keys = set(self.coeffs) | set(other.coeffs)
        return FormValue(
            self.chart,
            self.degree,
            {k: self.coeffs.get(k, 0.0) - other.coeffs.get(k, 0.0) for k in keys},
        )

    def as_covector(self) -> np.ndarray:
        if self.degree != 1:
            raise ValueError("only degree-1 values convert to covectors")
        out = np.zeros(self.chart.dimension)
        for (i,), v in self.coeffs.items():
            out[i] = v
        return out

    def as_matrix(self) -> np.ndarray:
        """Full antisymmetric matrix of a degree-2 value."""
        if self.degree != 2:
            raise ValueError("only degree-2 values convert to matrices")
        dim = self.chart.dimension
        out = np.zeros((dim, dim))
        for (i, j), v in self.coeffs.items():
            out[i, j] = v
            out[j, i] = -v
        return out


class KForm:
    """Differential form of degree 1..dim with ScalarField coefficients."""

    def __init__(self, chart: Chart, degree: int, coeffs: Mapping, params=None):
        if not 0 <= degree <= chart.dimension:
            raise ValueError("degree %d out of range on %r" % (degree, chart.name))
        self.chart = chart
        self.degree = degree
        table: dict[tuple[int, ...], ScalarField] = {}
        for idx, coeff in coeffs.items():
            idx = _check_index(idx, degree, chart.dimension)
            if isinstance(coeff, str):
                coeff = ScalarField.parse(chart, coeff, params)
            elif isinstance(coeff, (int, float)):
                coeff = ScalarField.constant(chart, coeff)
            if coeff.chart.coordinates != chart.coordinates:
                raise ChartMismatchError("coefficient field on wrong chart")
            if not coeff.is_zero():
                table[idx] = coeff
        self.coeffs = table

    # -- constructors ------------------------------------------------------

    @classmethod
    def one_form(cls, chart: Chart, mapping: Mapping[str, object], params=None) -> "KForm":
        return cls(
            chart,
            1,
            {(chart.index(name),): coeff for name, coeff in mapping.items()},
            params,
        )

    @classmethod
    def two_form(cls, chart: Chart, mapping: Mapping, params=None) -> "KForm":
        coeffs = {}
        for key, coeff in mapping.items():
            if isinstance(key, str):
                names = [s.strip() for s in key.split(",")]
                idx = tuple(chart.index(n) for n in names)
            else:
                idx = tuple(key)
            coeffs[idx] = coeff
        return cls(chart, 2, coeffs, params)

    # -- evaluation / algebra -----------------------------------------------

    def at(self, point) -> FormValue:
        return self._at(self.chart.values(point))

    def _at(self, values: np.ndarray) -> FormValue:
        """:meth:`at` at unchecked coordinates: the coefficients in order,
        in one environment (:func:`cosym.charts._walk_fields`)."""
        return FormValue(
            self.chart,
            self.degree,
            dict(zip(self.coeffs, _walk_fields(self.coeffs.values(), values))),
        )

    def __add__(self, other: "KForm") -> "KForm":
        if other.chart.coordinates != self.chart.coordinates or other.degree != self.degree:
            raise ChartMismatchError("cannot add forms of different chart/degree")
        table: dict = dict(self.coeffs)
        for idx, f in other.coeffs.items():
            table[idx] = table[idx] + f if idx in table else f
        return KForm(self.chart, self.degree, table)

    def scaled(self, factor) -> "KForm":
        """Multiply every coefficient by a scalar or ScalarField."""
        if isinstance(factor, (int, float)):
            factor = ScalarField.constant(self.chart, factor)
        return KForm(
            self.chart,
            self.degree,
            {idx: factor * f for idx, f in self.coeffs.items()},
        )

    def to_json_coeffs(self) -> dict[str, str]:
        out = {}
        for idx, f in self.coeffs.items():
            key = ",".join(self.chart.coordinates[i] for i in idx)
            out[key] = f.source if f.source is not None else str(f.expr)
        return out

    def __repr__(self):
        return "KForm(degree=%d, %s)" % (self.degree, self.to_json_coeffs())


@dataclass(frozen=True)
class VectorField:
    chart: Chart
    components: tuple[ScalarField, ...]

    def __post_init__(self):
        if len(self.components) != self.chart.dimension:
            raise ValueError("component count must equal chart dimension")

    def at(self, point) -> np.ndarray:
        return np.array(_walk_fields(self.components, self.chart.values(point)))

    @classmethod
    def from_exprs(cls, chart: Chart, exprs, params=None) -> "VectorField":
        comps = tuple(
            ScalarField.parse(chart, e, params) if isinstance(e, str)
            else ScalarField.from_expr(chart, e, params)
            for e in exprs
        )
        return cls(chart, comps)

    @classmethod
    def coordinate(cls, chart: Chart, name: str) -> "VectorField":
        i = chart.index(name)
        comps = tuple(
            ScalarField.constant(chart, 1.0 if j == i else 0.0)
            for j in range(chart.dimension)
        )
        return cls(chart, comps)


# --------------------------------------------------------------------------
# Exterior calculus
# --------------------------------------------------------------------------


def _shuffles(a, b):
    """Degree of a ^ b and its shuffle terms (index, sign, a's coefficient,
    b's coefficient), for forms or for coefficient tables alike."""
    if a.chart.coordinates != b.chart.coordinates:
        raise ChartMismatchError("wedge of forms on different charts")
    degree = a.degree + b.degree
    if degree > a.chart.dimension:
        raise ValueError(
            "wedge degree %d exceeds chart dimension %d" % (degree, a.chart.dimension)
        )
    terms = [
        (tuple(sorted(left + right)), permutation_sign(left + right), ca, cb)
        for left, ca in a.coeffs.items()
        for right, cb in b.coeffs.items()
        if not set(left) & set(right)
    ]
    return degree, terms


def wedge(a: KForm, b: KForm) -> KForm:
    """Graded antisymmetric shuffle-sum product of two forms."""
    degree, terms = _shuffles(a, b)
    table: dict[tuple[int, ...], ScalarField] = {}
    for idx, sign, fa, fb in terms:
        term = fa * fb
        if sign < 0:
            term = -term
        table[idx] = table[idx] + term if idx in table else term
    return KForm(a.chart, degree, table)


def wedge_values(a: FormValue, b: FormValue) -> FormValue:
    """Pointwise wedge of two coefficient tables."""
    degree, terms = _shuffles(a, b)
    table: dict[tuple[int, ...], float] = {}
    for idx, sign, va, vb in terms:
        table[idx] = table.get(idx, 0.0) + sign * va * vb
    return FormValue(a.chart, degree, table)


def differential(f: ScalarField) -> KForm:
    """Exterior derivative of a scalar field (degree 0 -> 1)."""
    chart = f.chart
    return KForm(
        chart,
        1,
        {(i,): f.partial(chart.coordinates[i]) for i in range(chart.dimension)},
    )


def exterior_derivative(f: KForm | ScalarField) -> KForm:
    """d on forms, exact: each coefficient's partials are expression trees."""
    if isinstance(f, ScalarField):
        return differential(f)
    chart = f.chart
    if f.degree >= chart.dimension:
        raise ValueError("cannot raise degree beyond chart dimension")
    table: dict[tuple[int, ...], ScalarField] = {}
    for idx, coeff in f.coeffs.items():
        for i in range(chart.dimension):
            if i in idx:
                continue
            new_idx = tuple(sorted(idx + (i,)))
            pos = new_idx.index(i)
            term = coeff.partial(chart.coordinates[i])
            if pos % 2:
                term = -term
            table[new_idx] = table[new_idx] + term if new_idx in table else term
    return KForm(chart, f.degree + 1, table)


def interior_product(X, f: KForm | FormValue, at) -> FormValue:
    """Contraction X ⌟ f in the first slot, evaluated at a point."""
    if isinstance(f, KForm):
        fval = f.at(at)
    else:
        fval = f
    if fval.degree < 1:
        raise ValueError("interior product needs degree >= 1")
    if isinstance(X, VectorField):
        if X.chart.coordinates != fval.chart.coordinates:
            raise ChartMismatchError("vector field and form on different charts")
        xv = X.at(at)
    else:
        xv = np.asarray(X, dtype=float)
    table: dict[tuple[int, ...], float] = {}
    for idx, v in fval.coeffs.items():
        for r, i in enumerate(idx):
            reduced = idx[:r] + idx[r + 1 :]
            sign = -1.0 if r % 2 else 1.0
            table[reduced] = table.get(reduced, 0.0) + sign * xv[i] * v
    return FormValue(fval.chart, fval.degree - 1, table)


def pullback(m: ChartMap, f: KForm, at) -> FormValue:
    """Pullback of f through m, evaluated at a source point.

    Coefficients transform by Jacobian minors of the exact Jacobian of the
    map's component fields; a 0-form's one minor is 0 x 0, of determinant
    1, so it pulls back to f o m on the source chart.
    """
    if f.chart.coordinates != m.target.coordinates:
        raise ChartMismatchError("form does not live on the map's target chart")
    source_point = m.source.point(at)
    image = m(source_point)
    jac = m.jacobian(source_point)
    fval = f.at(image)
    dim_s = m.source.dimension
    table: dict[tuple[int, ...], float] = {}
    for K in combinations(range(dim_s), f.degree):
        total = 0.0
        for I, v in fval.coeffs.items():
            minor = np.linalg.det(jac[np.ix_(I, K)])
            total += v * minor
        if total != 0.0:
            table[K] = total
    return FormValue(m.source, f.degree, table)
