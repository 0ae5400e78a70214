import ast
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosym.charts import Chart, ScalarField, random_polynomial
from cosym.expressions import (
    FUNCTIONS,
    Add,
    Call,
    Div,
    EvalError,
    Kernel,
    Mul,
    Name,
    Neg,
    Num,
    ParseError,
    Pow,
    Sub,
    parse,
)
from cosym.structures import darboux_chart


def test_precedence_and_literals():
    assert parse("1 + 2*3").eval({}) == 7.0
    assert parse("2*3^2").eval({}) == 18.0
    assert parse("(1+2)*3").eval({}) == 9.0
    assert parse("2^3^2").eval({}) == 512.0  # right-associative
    assert parse("-2^2").eval({}) == -4.0
    assert parse("2^-1").eval({}) == 0.5
    assert parse("1.5e2").eval({}) == 150.0
    assert parse(".5 + 1").eval({}) == 1.5


def test_whitespace_insensitive():
    assert parse(" k /y ^ 2 ").eval({"k": 3, "y": 2}) == parse("k/y^2").eval(
        {"k": 3, "y": 2}
    )


def test_functions():
    env = {"x": 0.3}
    assert parse("sin(x)").eval(env) == math.sin(0.3)
    assert parse("cos(x)^2 + sin(x)^2").eval(env) == pytest.approx(1.0)
    assert parse("exp(log(x))").eval(env) == pytest.approx(0.3)
    assert parse("sqrt(x^2)").eval(env) == pytest.approx(0.3)


def test_parse_error_offset_and_expected():
    with pytest.raises(ParseError) as err:
        parse("2*+3")
    assert err.value.offset == 2
    assert "NUMBER" in err.value.expected

    with pytest.raises(ParseError) as err:
        parse("q + p)")
    assert err.value.offset == 5

    with pytest.raises(ParseError) as err:
        parse("(q + p")
    assert err.value.offset == 6

    with pytest.raises(ParseError) as err:
        parse("foo(3)")
    assert err.value.offset == 0
    assert any("sin" in e for e in err.value.expected)

    with pytest.raises(ParseError):
        parse("2 $ 3")


def test_unbound_name_raises_eval_error():
    with pytest.raises(EvalError):
        parse("q + missing").eval({"q": 1.0})


@pytest.mark.parametrize(
    "source",
    [
        "q^2 + p*q - 3",
        "sin(q)*cos(p)",
        "exp(-q^2/2)",
        "log(2 + q^2)",
        "sqrt(1 + p^2)/q",
        "q^3*p - 2*q*p^2 + 7",
    ],
)
def test_symbolic_derivative_matches_finite_difference(source):
    expr = parse(source)
    rng = np.random.default_rng(3)
    for _ in range(10):
        env = {"q": rng.uniform(0.5, 2.0), "p": rng.uniform(-1.5, 1.5)}
        for var in ("q", "p"):
            h = 1e-6 * max(1.0, abs(env[var]))
            up = dict(env)
            dn = dict(env)
            up[var] += h
            dn[var] -= h
            fd = (expr.eval(up) - expr.eval(dn)) / (2 * h)
            exact = expr.diff(var).eval(env)
            assert exact == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_second_derivatives_exact():
    expr = parse("q^3*p")
    d2 = expr.diff("q").diff("q")
    assert d2.eval({"q": 2.0, "p": 5.0}) == 60.0


def test_printer_round_trip(rng):
    sources = [
        "q^2 + p*q - 3",
        "-(q + p)/2",
        "sin(q)*cos(p) - exp(q/p)",
        "2^q^2",
        "(q - p)*(q + p)",
        "sqrt(q^2 + 1)/(p - 3)",
    ]
    for source in sources:
        expr = parse(source)
        reparsed = parse(str(expr))
        for _ in range(5):
            env = {"q": rng.uniform(0.5, 2.0), "p": rng.uniform(4.0, 6.0)}
            assert reparsed.eval(env) == pytest.approx(expr.eval(env), rel=1e-14)


def test_substitution():
    expr = parse("x^2 + y")
    composed = expr.substitute({"x": parse("q/2"), "y": parse("p*p")})
    assert composed.eval({"q": 4.0, "p": 3.0}) == 4.0 + 9.0


def test_constant_folding_keeps_trees_small():
    expr = parse("0*q + 1*p + 0 + q^1")
    assert str(expr) in ("p + q", "q + p")


@pytest.mark.parametrize(
    "source, env",
    [
        ("y^0.5", {"y": -1.0}),  # no real value
        ("x^(-1)", {"x": 0.0}),  # zero to a negative power
        ("x^2", {"x": 1e300}),  # overflow
        ("exp(x)", {"x": 1000.0}),  # overflow
    ],
)
def test_power_and_call_failures_are_eval_errors(source, env):
    with pytest.raises(EvalError):
        parse(source).eval(env)


@pytest.mark.parametrize("source", ["(-8)^(1/3)", "0^(-1)", "10^400"])
def test_constant_powers_without_a_real_value_stay_unfolded(source):
    expr = parse(source)
    assert str(parse(str(expr))) == str(expr)
    with pytest.raises(EvalError):
        expr.eval({})


def test_power_values_unchanged_bit_for_bit(rng):
    expr = parse("x^y")
    for _ in range(2000):
        x = float(rng.uniform(-20, 20))
        y = float(rng.integers(-5, 6)) if x < 0 else float(rng.uniform(-4, 4))
        if x == 0.0 and y < 0:
            continue
        assert expr.eval({"x": x, "y": y}) == x**y
    assert parse("2^0.5").value == 2.0**0.5
    assert parse("(-2)^3").value == -8.0


def test_nested_error_keeps_its_own_message():
    with pytest.raises(EvalError, match="^division by zero"):
        parse("sqrt(1/x)").eval({"x": 0.0})
    with pytest.raises(EvalError, match=r"^log\(\) domain error"):
        parse("log(x)^2").eval({"x": -1.0})


# --------------------------------------------------------------------------
# Evaluation at many points: row kernels against eval at each point
# --------------------------------------------------------------------------

ROW_NAMES = ("x", "y", "z")

finite_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0]),
    st.floats(-20.0, 20.0, allow_nan=False),
    st.floats(-1e200, 1e200, allow_nan=False),
)

trees = st.recursive(
    st.one_of(finite_floats.map(Num), st.sampled_from(ROW_NAMES).map(Name)),
    lambda sub: st.one_of(
        sub.map(Neg),
        st.tuples(st.sampled_from([Add, Sub, Mul, Div, Pow]), sub, sub).map(
            lambda t: t[0](t[1], t[2])
        ),
        st.tuples(st.sampled_from(sorted(FUNCTIONS)), sub).map(lambda t: Call(*t)),
    ),
    max_leaves=12,
)

row_sets = st.lists(
    st.tuples(finite_floats, finite_floats, finite_floats), min_size=1, max_size=6
)


def assert_bits_equal(got, expected):
    """Equal bit for bit: signed zeros must agree, NaNs must sit in the
    same places."""
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert got.shape == expected.shape
    nan = np.isnan(expected)
    assert (np.isnan(got) == nan).all()
    assert (got[~nan].view(np.uint64) == expected[~nan].view(np.uint64)).all()


def pointwise(expr, rows):
    """Values of eval at each row, or None when it raises at any row."""
    out = []
    for row in rows:
        try:
            out.append(expr.eval(dict(zip(ROW_NAMES, row))))
        except EvalError:
            return None
    return out


@settings(max_examples=300, deadline=None)
@given(trees, row_sets)
def test_eval_rows_matches_eval_bit_for_bit(expr, rows):
    kernel = Kernel([expr], ROW_NAMES)
    columns = np.array(rows, dtype=float).T
    expected = pointwise(expr, rows)
    if expected is None:
        with pytest.raises(EvalError):
            kernel.rows(*columns)
        return
    got = np.broadcast_to(kernel.rows(*columns)[0], (len(rows),))
    assert_bits_equal(got, expected)


def test_eval_rows_keeps_the_messages_of_eval():
    env = {"x": np.array([1.0, 0.0, 2.0])}
    for source in ("1/x", "x^(-1)", "log(x - 1)", "exp(1000*x)", "x + w"):
        expr = parse(source)
        with pytest.raises(EvalError) as row_err:
            Kernel([expr], ("x",)).rows(env["x"])
        with pytest.raises(EvalError) as point_err:
            for x in env["x"]:
                expr.eval({"x": float(x)})
        assert str(row_err.value) == str(point_err.value)


def test_eval_rows_takes_scalars_and_arrays_alike():
    expr = parse("k*x^2 + 1")
    kernel = Kernel([expr], ("k", "x"))
    got = kernel.rows(3.0, np.array([1.0, 2.0]))[0]
    assert_bits_equal(got, [4.0, 13.0])
    assert kernel.rows(3.0, 2.0)[0] == 13.0


def _callable_field(chart):
    n = chart.dimension

    def fn(v):
        return math.sin(v[0]) * math.exp(v[n - 1] / 3.0) + v[1] ** 3 / (2.0 + v[0] ** 2)

    return ScalarField.from_callable(chart, fn)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_field_rows_match_pointwise_bit_for_bit(n, seed, count):
    rng = np.random.default_rng(seed)
    chart = darboux_chart(n)
    rows = rng.uniform(-2.0, 2.0, (count, chart.dimension))
    for H in (random_polynomial(chart, rng, max_degree=3), _callable_field(chart)):
        for kept in (False, True):  # the row walk, then the kept kernel if any
            if kept:
                H.kernel()
            values, gradients = H.rows(rows)
            assert_bits_equal(values, [H.value(row) for row in rows])
            assert_bits_equal(gradients, [H.gradient(row) for row in rows])


# --------------------------------------------------------------------------
# Straight-line kernels: the emitted code against eval
# --------------------------------------------------------------------------


def outcome(fn):
    """fn()'s value, or the message of the EvalError it raises."""
    try:
        return fn()
    except EvalError as exc:
        return "EvalError: %s" % exc


@settings(max_examples=300, deadline=None)
@given(trees, row_sets)
def test_kernel_code_matches_eval_bit_for_bit(expr, rows):
    kernel = Kernel([expr], ROW_NAMES)
    for row in rows:
        expected = outcome(lambda: expr.eval(dict(zip(ROW_NAMES, row))))
        scalar = outcome(lambda: kernel.scalar(*row)[0])
        one_row = outcome(lambda: kernel.rows(*(np.array([v]) for v in row))[0])
        if isinstance(expected, str):
            assert scalar == expected
            assert one_row == expected
        else:
            assert not isinstance(scalar, str) and not isinstance(one_row, str)
            assert_bits_equal(scalar, expected)
            assert_bits_equal(np.broadcast_to(one_row, (1,)), [expected])


def test_kernel_reuses_a_shared_node_and_keeps_the_visit_order():
    shared = parse("log(x)")
    kernel = Kernel([Div(shared, Name("y")), Neg(shared)], ("x", "y"))
    assert kernel.source.count("_call_log(") == 1
    # Div evaluates its right operand first: the zero check wins over log.
    for mode in (kernel.scalar, lambda *v: kernel.rows(*np.array([v]).T)):
        assert outcome(lambda: mode(-1.0, 0.0)) == "EvalError: division by zero in expression"
        assert outcome(lambda: mode(-1.0, 1.0)) == outcome(lambda: shared.eval({"x": -1.0}))
    assert kernel.scalar(2.0, 4.0) == (math.log(2.0) / 4.0, -math.log(2.0))


GENERATED = re.compile(r"_[atk]\d+|_pow|_divisor|_unbound|_call_(%s)" % "|".join(FUNCTIONS))


def test_kernel_source_holds_generated_names_only():
    chart = Chart("keywords", ("lambda", "pow", "x"))
    H = ScalarField.parse(
        chart, "lambda^2 + pow*x - 3.5*sqrt(x)/c + nz*lambda", {"c": 7.0, "nz": -0.0}
    )
    tree = ast.parse(H.kernel().source)
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {a.arg for a in ast.walk(tree) if isinstance(a, ast.arg)}
    assert names and all(GENERATED.fullmatch(n) for n in names), names
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.Constant)]

    point = [0.5, 2.0, 4.0]
    assert H._kernel.finite_at(point) is not None
    value, grad = H.at(point)
    assert_bits_equal(value, H.value(point))
    assert_bits_equal(grad, H.gradient(point))
    # Values are bound, not printed: inf and the sign of -0.0 survive.
    inf_term, zero_term = Kernel([parse("x/big"), parse("nz*x")], ("x",),
                                 [{"big": math.inf}, {"nz": -0.0}]).scalar(1.0)
    assert inf_term == 0.0 and math.copysign(1.0, zero_term) == -1.0
    assert Kernel([Add(Name("x"), Num(math.inf))], ("x",)).scalar(1.0) == (math.inf,)


def test_unbound_name_raises_where_eval_meets_it():
    expr = parse("1/x + w")
    kernel = Kernel([expr], ("x",))
    assert outcome(lambda: kernel.scalar(0.0)) == outcome(lambda: expr.eval({"x": 0.0}))
    assert outcome(lambda: kernel.scalar(1.0)) == outcome(lambda: expr.eval({"x": 1.0}))
    assert "unbound name 'w'" in outcome(lambda: kernel.scalar(1.0))
