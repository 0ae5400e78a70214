"""ScalarField keeps its partial-derivative trees: each coordinate is
differentiated at most once per field, and the kept trees give the same
values, bit for bit, as differentiating afresh.  A value or gradient that
is not finite is an EvalError, pointwise and at many rows alike.  Every
point argument is read by one rule: a ChartPoint is trusted only on its own
chart, and any other point meets the guards of the chart it is used on.
A field keeps its last tree-walked point, and a repeat there answers as a
fresh field does, bit for bit."""

import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_polynomial
from test_expressions import ROW_NAMES, finite_floats, trees
import cosym
from cosym import dynamics, expressions
from cosym.charts import Chart, ChartMap, ChartMismatchError, DomainError, ScalarField
from cosym.expressions import EvalError
from cosym.forms import KForm
from cosym.manifolds import CHART_XJ1, CHART_XJT, ModelParameters, builtin
from cosym.structures import CanonicalThetaSpec, darboux_chart


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


def test_every_field_is_an_expression_with_a_kernel():
    chart = darboux_chart(1)
    H = ScalarField.parse(chart, "q^2*p")
    G = ScalarField.parse(chart, "sin(kappa)")
    pt = (0.3, -0.7, 1.1)
    built = (H + G, H - 2.0, 3.0 * H * G, -G, H.partial("q"), ScalarField.constant(chart, 2.5))
    for F in built:
        walked = F.at(pt)
        assert isinstance(F.kernel(), expressions.Kernel)
        compiled = F.at(pt)
        assert compiled[0] == walked[0] and compiled[1].tobytes() == walked[1].tobytes()
    assert not hasattr(ScalarField, "from_callable")
    with pytest.raises(TypeError):
        ScalarField(chart, fn=lambda v: 0.0)


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


# --------------------------------------------------------------------------
# The kept last point: a repeat at the same coordinate bytes walks no tree
# --------------------------------------------------------------------------

TREE_CHART = Chart("trees", ROW_NAMES)


def _outcome(call, *args):
    """``call(*args)`` as bytes (value, then gradient), or its EvalError's
    message."""
    try:
        out = call(*args)
    except EvalError as exc:
        return "error: %s" % exc
    parts = out if isinstance(out, tuple) else (out,)
    return b"".join(np.asarray(part, dtype=float).tobytes() for part in parts)


@settings(max_examples=200, deadline=None)
@given(trees, st.tuples(finite_floats, finite_floats, finite_floats),
       st.tuples(finite_floats, finite_floats, finite_floats))
def test_a_kept_field_answers_as_a_fresh_one_bit_for_bit(expr, a, b):
    kept = ScalarField.from_expr(TREE_CHART, expr)
    for point in (a, b, a, a):
        for method in ("value", "gradient", "at"):
            fresh = ScalarField.from_expr(TREE_CHART, expr)
            want = _outcome(getattr(fresh, method), point)
            assert _outcome(getattr(kept, method), point) == want


def _counted(H):
    """Count H's tree walks: the value's and the gradient's."""
    walks = []
    for name in ("_eval", "_gradient"):
        walk = getattr(H, name)
        setattr(H, name, lambda *args, _w=walk, _n=name: walks.append(_n) or _w(*args))
    return walks


class TestKeptLastPoint:
    def test_a_repeat_walks_no_tree(self):
        H = ScalarField.parse(darboux_chart(1), "q^2*p + kappa")
        walks = _counted(H)
        pt = darboux_chart(1).point((0.3, -0.2, 0.1))
        value, grad = H.at(pt)
        assert walks == ["_gradient", "_eval"]
        assert H.value(pt) == value and H.value(pt.array) == value
        assert H.gradient([0.3, -0.2, 0.1]).tobytes() == grad.tobytes()
        assert walks == ["_gradient", "_eval"]

    def test_signed_zeros_are_different_points(self):
        H = ScalarField.parse(darboux_chart(1), "sqrt(q)")
        assert math.copysign(1.0, H.value((0.0, 0.0, 0.0))) == 1.0
        assert math.copysign(1.0, H.value((-0.0, 0.0, 0.0))) == -1.0

    def test_a_returned_gradient_is_a_new_array(self):
        H = ScalarField.parse(darboux_chart(1), "q*p + kappa^2")
        pt = (0.5, 2.0, -1.0)
        want = H.gradient(pt).tobytes()
        H.gradient(pt)[:] = 7.0
        H.at(pt)[1][:] = 7.0
        assert H.gradient(pt).tobytes() == want
        assert H.at(pt)[1].tobytes() == want

    def test_a_failing_point_raises_every_time_and_keeps_the_last_good_one(self):
        chart = darboux_chart(1)
        H = ScalarField.parse(chart, "log(q)")
        good = (2.0, 0.0, 0.0)
        value, grad = H.at(good)
        walks = _counted(H)
        messages = {_raised(call, (-1.0, 0.0, 0.0))
                    for call in (H.value, H.at, H.value, H.at)}
        assert len(messages) == 1 and "log" in messages.pop()
        # the gradient 1/q is finite at q = -1 and is kept; the value's
        # error is walked again on every call
        assert walks == ["_eval", "_gradient", "_eval", "_eval", "_eval"]
        del walks[:]
        assert H.value(good) == value
        assert walks == []
        assert H.gradient(good).tobytes() == grad.tobytes()

    def test_domain_checks_run_before_the_lookup(self):
        H = ScalarField.parse(CHART_XJT, "q^2 + y")
        off_guard = (0.0, -1.0, 0.1, 0.2, 0.0)  # y = -1
        H._at(np.array(off_guard))
        for call in (H.value, H.gradient, H.at):
            with pytest.raises(DomainError, match="y > 0"):
                call(off_guard)

    def test_a_kernel_leaves_the_single_point_readers_walking(self):
        # sqrt(q) is 0 at q = 0 but its derivative 1/(2 sqrt(q)) is not
        H = ScalarField.parse(darboux_chart(1), "sqrt(q)")
        pt = (0.25, -0.2, 0.1)
        want = H.at(pt)
        H.kernel()
        assert H._last_value[0] == H._last_gradient[0] == np.array(pt).tobytes()
        walks = _counted(H)
        got = H.at(pt)  # the kept point outlives the kernel
        assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()
        assert walks == []
        at = (0.0, 0.0, 0.0)
        assert H.value(at) == 0.0
        fresh = ScalarField.parse(darboux_chart(1), "sqrt(q)")
        assert _raised(H.gradient, at) == _raised(fresh.gradient, at)
        assert walks == ["_eval", "_gradient"]

    def test_after_integrate_a_point_is_walked_once(self):
        spec = builtin("xjt_gtacos")
        source = "q^2 + p^2 + x^2 + (y-1)^2 + 0.5*kappa"
        H = ScalarField.parse(spec.chart, source, spec.params)
        dynamics.integrate(spec, H, spec.chart.point((0.2, 1.0, 0.3, -0.2, 0.0)),
                           t_end=0.05, dt=0.01, method="rk4")  # 5 steps
        walks = _counted(H)
        pt = (0.3, 1.1, 0.2, -0.1, 0.4)
        value, grad = H.value(pt), H.gradient(pt)
        assert walks == ["_eval", "_gradient"]
        fresh = ScalarField.parse(spec.chart, source, spec.params)
        assert np.float64(value).tobytes() == np.float64(fresh.value(pt)).tobytes()
        assert grad.tobytes() == fresh.gradient(pt).tobytes()
        got = H.at(pt)
        assert got[0] == value and got[1].tobytes() == grad.tobytes()
        assert walks == ["_eval", "_gradient"]


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


def test_domain_errors_print_plain_floats_for_array_input():
    spec = cosym.builtin("xjt_gtacos")
    with pytest.raises(DomainError) as err:
        cosym.reeb(spec, np.array([0, -1, 0, 0, 0.0]))
    assert str(err.value) == "point violates y > 0.0 on chart 'xjt' (got y = -1.0)"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_coordinate_is_refused_by_name(bad):
    chart = cosym.builtin("xjt_gtacos").chart
    expected = "point is not finite on chart 'xjt' (got kappa = %r)" % bad
    for values in ([0, 1, 0, 0, bad], np.array([0, 1, 0, 0, bad])):
        with pytest.raises(DomainError) as err:
            chart.point(values)
        assert str(err.value) == expected
        assert not chart.contains(values)
    # an unguarded chart refuses it too, and names the first such coordinate
    with pytest.raises(DomainError, match=r"\(got x = nan\)"):
        Chart("free", ("x", "y")).point((math.nan, bad))


# integrate's right-hand side evaluates Runge-Kutta stages past a guard
CHECK_DOMAIN_READERS = {"dynamics.hamiltonian_field_generic"}


def _public_callables():
    """(module.qualname, callable) for every public function and public
    method of a public class defined in a cosym module."""
    for info in pkgutil.iter_modules(cosym.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module("cosym." + info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield "%s.%s" % (info.name, name), obj
            elif inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        yield "%s.%s.%s" % (info.name, name, attr), fn


def test_check_domain_only_where_a_caller_passes_it():
    taking = {name for name, fn in _public_callables()
              if "check_domain" in inspect.signature(fn).parameters}
    assert taking == CHECK_DOMAIN_READERS
    assert list(inspect.signature(Chart.sample_box).parameters) == ["self"]


def _point_readers():
    """(spec, fields, readers): every public point reader as a call on the
    point alone, keyed by the name of the chart it reads the point on:
    xjt_gtacos's, or the 5-dimensional Darboux chart for the closed forms."""
    spec, H = builtin("xjt_gtacos"), _xjt_field()
    D = ScalarField.parse(darboux_chart(2), "q1*p2 + kappa^2")
    theta_spec = CanonicalThetaSpec(a=(0.5, 0.0), b=(0.0, 1.0), c=2.0)
    ones = np.ones(5)
    return spec, (H, D), {
        "Chart.values": ("xjt", spec.chart.values),
        "ScalarField.value": ("xjt", H.value),
        "ScalarField.gradient": ("xjt", H.gradient),
        "ScalarField.at": ("xjt", H.at),
        "KForm.at": ("xjt", spec.omega.at),
        "StructureSpec.at": ("xjt", spec.at),
        "StructureSpec.flat_matrix": ("xjt", spec.flat_matrix),
        "StructureSpec.volume_coefficient": ("xjt", spec.volume_coefficient),
        "reeb": ("xjt", lambda pt: cosym.reeb(spec, pt)),
        "sharp": ("xjt", lambda pt: cosym.sharp(spec, ones, pt)),
        "flat": ("xjt", lambda pt: cosym.flat(spec, ones, pt)),
        "hamiltonian_field_generic": (
            "xjt", lambda pt: dynamics.hamiltonian_field_generic(spec, H, pt)),
        "hamiltonian_field_generic unchecked": (
            "xjt", lambda pt: dynamics.hamiltonian_field_generic(spec, H, pt, check_domain=False)),
        "hamiltonian_field_closed": (
            "darboux2", lambda pt: dynamics.hamiltonian_field_closed(theta_spec, D, pt)),
        "tacs_field": ("darboux2", lambda pt: dynamics.tacs_field(0.5, D, pt)),
    }


@pytest.mark.parametrize("kernels", [False, True])
@pytest.mark.parametrize("name", sorted(_point_readers()[2]))
def test_every_point_reader_refuses_a_point_of_the_wrong_length(name, kernels):
    spec, fields, readers = _point_readers()
    if kernels:
        spec.kernel()
        for field in fields:
            field.kernel()
    chart, read = readers[name]
    for values in ([0.2, 1.0, 0.3, -0.2], [0.2, 1.0, 0.3, -0.2, 0.0, 0.1]):
        expected = r"^chart '%s' expects 5 values, got %d$" % (chart, len(values))
        for pt in (values, np.array(values)):
            with pytest.raises(DomainError, match=expected):
                read(pt)


class TestOneEnvironmentPerWalk:
    """The single-point readers bind the coordinates once per walk, and a
    point's array is built once, read-only."""

    def test_a_point_array_is_one_read_only_array(self):
        chart = darboux_chart(1)
        pt = chart.point((0.3, -0.2, 0.1))
        assert pt.array is pt.array and chart.values(pt) is pt.array
        assert pt.array.tolist() == [0.3, -0.2, 0.1] and pt.array.dtype == float
        with pytest.raises(ValueError):
            pt.array[0] = 1.0
        # the array is no field: equality and hash read chart and values only
        twin = chart.point((0.3, -0.2, 0.1))
        assert twin == pt and hash(twin) == hash(pt) and "array" not in repr(pt)

    def test_a_missed_point_builds_one_environment(self, monkeypatch):
        chart = darboux_chart(1)
        H = ScalarField.parse(chart, "a*q^2*p + kappa", {"a": 2.0})
        envs = []
        env = Chart.env
        monkeypatch.setattr(Chart, "env", lambda *args: envs.append(1) or env(*args))
        want = ScalarField.parse(chart, "2*q^2*p + kappa")
        for pt in ((0.3, -0.2, 0.1), (0.5, 0.2, 0.1)):
            del envs[:]
            value, grad = H.at(pt)
            assert len(envs) == 1  # the gradient's walk and the value's
            assert H.at(pt)[0] == value and len(envs) == 1  # a repeat walks nothing
            assert (value, grad.tolist()) == (want.value(pt), want.gradient(pt).tolist())
        del envs[:]
        H.value((0.1, 0.1, 0.1))
        H.at((0.1, 0.1, 0.1))  # only the gradient missed
        assert len(envs) == 2
