"""ScalarField keeps its partial-derivative trees: each coordinate is
differentiated at most once per field, and the kept trees give the same
values, bit for bit, as differentiating afresh.  A value or gradient that
is not finite is an EvalError, pointwise and at many rows alike.  Every
point argument is read by one rule: a ChartPoint is trusted only on its own
chart, and any other point meets the guards of the chart it is used on."""

import math

import numpy as np
import pytest

from conftest import random_polynomial
import cosym
from cosym import expressions
from cosym.charts import Chart, ChartMap, ChartMismatchError, DomainError, ScalarField
from cosym.expressions import EvalError
from cosym.forms import KForm
from cosym.manifolds import CHART_XJ1, CHART_XJT, ModelParameters
from cosym.structures import darboux_chart


@pytest.fixture
def diff_calls(monkeypatch):
    """Coordinates of the outermost ``Expr.diff`` calls made while active."""
    calls = []
    depth = [0]
    for cls in vars(expressions).values():
        if not (isinstance(cls, type) and issubclass(cls, expressions.Expr)):
            continue
        if "diff" not in vars(cls):
            continue

        def counted(self, name, _diff=vars(cls)["diff"]):
            if depth[0] == 0:
                calls.append(name)
            depth[0] += 1
            try:
                return _diff(self, name)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(cls, "diff", counted)
    return calls


def _fields_and_points(rng, count=4):
    for n in (1, 2, 3):
        chart = darboux_chart(n)
        for _ in range(count):
            H = random_polynomial(chart, rng, max_degree=3)
            points = [chart.point(rng.uniform(-2, 2, chart.dimension)) for _ in range(5)]
            yield H, points


def test_differentiates_at_most_once_per_coordinate(diff_calls):
    chart = darboux_chart(2)
    H = ScalarField.parse(chart, "q1^2*p2 + sin(q2)*exp(p1) + kappa^3/(1 + q1^2)")
    rng = np.random.default_rng(0)
    for i in range(100):
        pt = chart.point(rng.uniform(-1, 1, chart.dimension))
        if i % 2:
            H.gradient(pt)
        else:
            H.partial(chart.coordinates[i % chart.dimension]).value(pt)
    assert sorted(diff_calls) == sorted(chart.coordinates)


def test_cached_gradient_matches_fresh_derivatives_bit_for_bit(rng):
    for H, points in _fields_and_points(rng):
        coords = H.chart.coordinates
        for pt in points:
            env = pt.env()
            fresh = np.array([H.expr.diff(c).eval(env) for c in coords])
            np.testing.assert_array_equal(H.gradient(pt), fresh)
            np.testing.assert_array_equal(H.gradient(pt.array), fresh)


def test_partial_wraps_the_fresh_derivative_tree(rng):
    for H, points in _fields_and_points(rng, count=2):
        H.gradient(points[0])  # the partials now come from the kept trees
        for c in H.chart.coordinates:
            partial = H.partial(c)
            assert str(partial.expr) == str(H.expr.diff(c))
            for pt in points:
                assert partial.value(pt) == H.expr.diff(c).eval(pt.env())


def test_algebra_gives_a_field_with_its_own_cache(diff_calls):
    chart = darboux_chart(1)
    H = ScalarField.parse(chart, "q^2 + kappa")
    G = ScalarField.parse(chart, "p^3*q")
    pt = chart.point([0.3, -0.7, 1.1])
    dH = H.gradient(pt)
    dG = G.gradient(pt)
    del diff_calls[:]

    S = H + G
    dS = S.gradient(pt)
    assert sorted(diff_calls) == sorted(chart.coordinates)
    np.testing.assert_array_equal(
        dS, [S.expr.diff(c).eval(pt.env()) for c in chart.coordinates]
    )
    assert dS == pytest.approx(dH + dG, abs=1e-15)
    np.testing.assert_array_equal(H.gradient(pt), dH)
    np.testing.assert_array_equal(G.gradient(pt), dG)


def _raised(fn, *args):
    with pytest.raises(EvalError) as err:
        fn(*args)
    return str(err.value)


@pytest.mark.parametrize(
    "source, bad, what",
    [
        ("1e200*q*q", (1e60, 0.0, 0.0), "value"),  # inf
        ("1e200*q*q - 1e200*p*p", (1e60, 1e60, 0.0), "value"),  # inf - inf = NaN
        ("1e300*q^2*p", (1e5, 1e-10, 0.0), "gradient"),  # value 1e300, dp 1e310
    ],
)
def test_non_finite_results_are_eval_errors(source, bad, what):
    H = ScalarField.parse(darboux_chart(1), source)
    rows = np.array([(1.0, 1.0, 0.0), bad, bad])
    pointwise = {"value": H.value, "gradient": H.gradient}[what]
    H.rows(rows[:1])  # the first row is fine
    message = _raised(pointwise, bad)
    assert message.startswith(what + " of ScalarField(") and "not finite" in message
    assert _raised(H.rows, rows) == message
    H.kernel()  # the kept kernel is not finite there: the rows are walked
    assert _raised(H.rows, rows) == message


def test_non_finite_callable_results_are_eval_errors():
    chart = darboux_chart(1)
    nan = ScalarField.from_callable(chart, lambda v: math.nan if v[0] > 0 else 1.0)
    rows = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    # rows are walked gradient first, as the right-hand side evaluates them
    assert _raised(nan.gradient, rows[1]) == _raised(nan.rows, rows)
    # finite values whose central difference overflows
    step = ScalarField.from_callable(chart, lambda v: math.copysign(1.7e308, v[0]))
    assert step.value(rows[0]) == -1.7e308
    message = _raised(step.gradient, [0.0, 0.0, 0.0])
    assert message.startswith("gradient of ") and "not finite" in message
    assert _raised(step.rows, [[5.0, 0.0, 0.0], [0.0, 0.0, 0.0]]) == message


# A chart with the coordinates of a guarded chart but none of its guards.
LOOSE_XJT = Chart("loose", CHART_XJT.coordinates)
LOOSE_XJ1 = Chart("loose", CHART_XJ1.coordinates)
OFF_GUARD_XJT = LOOSE_XJT.point((0.0, -1.0, 0.1, 0.2, 0.0))  # y = -1


def _xjt_field():
    return ScalarField.parse(CHART_XJT, "q^2 + p^2 + x^2 + (y-1)^2")


def _metric_case_1(at):
    return cosym.metric_matrix(1, ModelParameters(beta=0, gamma=0, delta=0), at)


POINT_READERS = {
    "reeb": (lambda: cosym.reeb(cosym.builtin("xjt_gtacos"), OFF_GUARD_XJT), DomainError),
    "ScalarField.value": (lambda: _xjt_field().value(OFF_GUARD_XJT), DomainError),
    "hamiltonian_field_generic": (
        lambda: cosym.hamiltonian_field_generic(
            cosym.builtin("xjt_gtacos"), _xjt_field(), OFF_GUARD_XJT),
        DomainError),
    "metric_matrix": (
        lambda: _metric_case_1(Chart("free", ("x", "y")).point((0.3, -2.0))), DomainError),
    "metric_matrix_other_coordinates": (
        lambda: _metric_case_1(CHART_XJT.point((0.0, 1.0, 0.0, 0.0, 0.0))),
        ChartMismatchError),
    # the map itself has no guards; the form's chart has y > 0
    "pullback": (
        lambda: cosym.pullback(
            ChartMap.identity(LOOSE_XJ1),
            KForm.two_form(CHART_XJ1, {"x,y": "1/y^2"}),
            (0.0, -1.0, 0.1, 0.2)),
        DomainError),
    "solve_phi": (
        lambda: cosym.solve_phi((1, 0.5, 0.3, -0.2), ModelParameters(), OFF_GUARD_XJT),
        DomainError),
}


@pytest.mark.parametrize("case", sorted(POINT_READERS))
def test_a_point_of_another_chart_meets_this_charts_guards(case):
    call, error = POINT_READERS[case]
    with pytest.raises(error):
        call()


def test_a_point_of_the_same_chart_is_trusted_as_it_stands():
    pt = CHART_XJT.point((0.0, 1.0, 0.1, 0.2, 0.0))
    assert CHART_XJT.point(pt) is pt
    assert CHART_XJT.values(pt).tolist() == list(pt.values)
    same = Chart(CHART_XJT.name, CHART_XJT.coordinates, CHART_XJT.guards)
    assert same.point(pt) is pt
    # check_domain=False reads a foreign point without its guards
    assert CHART_XJT.values(OFF_GUARD_XJT, check_domain=False)[1] == -1.0


def test_domain_errors_print_plain_floats_for_array_input():
    spec = cosym.builtin("xjt_gtacos")
    with pytest.raises(DomainError) as err:
        cosym.reeb(spec, np.array([0, -1, 0, 0, 0.0]))
    assert str(err.value) == "point violates y > 0.0 on chart 'xjt' (got y = -1.0)"
