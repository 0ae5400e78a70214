import ast
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cosym import expressions, manifolds
from cosym.charts import Chart, ScalarField, central_difference, fd_step, random_polynomial
from cosym.expressions import (
    FUNCTIONS,
    Add,
    Call,
    Div,
    EvalError,
    Expr,
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

EPS = float(np.finfo(float).eps)


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


@pytest.mark.parametrize(
    "value, text", [(math.inf, "inf"), (-math.inf, "(-inf)"), (math.nan, "nan")]
)
def test_non_finite_constants_print(value, text):
    # a folded overflow such as 1e200*1e200 must not crash the message
    # that prints it
    assert str(Num(value)) == text


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


def test_eval_rows_raise_at_the_first_failing_row():
    # rows map libm's function first and the checked one only where that
    # raises; the message names the first failing row, as eval's loop does
    x = np.array([4.0, 1.0, -2.0, -3.0, 800.0, 900.0])
    for source, message in [
        ("x^0.5", "(-2.0)^(0.5) has no finite real value in expression"),
        ("sqrt(x)", "sqrt() domain error: math domain error"),
        ("log(x)", "log() domain error: math domain error"),
        ("exp(x)", "exp(800.0) overflows in expression"),
        ("x^200", "(800.0)^(200.0) has no finite real value in expression"),
    ]:
        with pytest.raises(EvalError) as err:
            Kernel([parse(source)], ("x",)).rows(x)
        assert str(err.value) == message
        got = Kernel([parse(source)], ("x",)).rows(x[:2])[0]
        assert_bits_equal(got, [parse(source).eval({"x": v}) for v in x[:2]])


def test_eval_rows_takes_scalars_and_arrays_alike():
    expr = parse("k*x^2 + 1")
    kernel = Kernel([expr], ("k", "x"))
    got = kernel.rows(3.0, np.array([1.0, 2.0]))[0]
    assert_bits_equal(got, [4.0, 13.0])
    assert kernel.rows(3.0, 2.0)[0] == 13.0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_field_rows_match_pointwise_bit_for_bit(n, seed, count):
    rng = np.random.default_rng(seed)
    chart = darboux_chart(n)
    rows = rng.uniform(-2.0, 2.0, (count, chart.dimension))
    H = random_polynomial(chart, rng, max_degree=3)
    for kept in (False, True):  # the row walk, then the kept kernel
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


# --------------------------------------------------------------------------
# Squares: x^2 is the correctly rounded product x*x on every path
# --------------------------------------------------------------------------

SQUARE_EDGE = 1.3407807929942596e154  # the largest double with a finite square
POW_OFF_BY_AN_ULP = -1.3275170599102342  # libm's pow(x, 2) is not x*x here
special_bases = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, -1e-170,
    SQUARE_EDGE, -SQUARE_EDGE, math.nextafter(SQUARE_EDGE, math.inf),
    -math.nextafter(SQUARE_EDGE, math.inf), 1e200, -1e300, 1.7976931348623157e308,
    math.inf, -math.inf, math.nan, -math.nan, POW_OFF_BY_AN_ULP,
]
square_bases = st.one_of(
    st.sampled_from(special_bases),
    st.floats(),
    st.floats(-1e-150, 1e-150),  # squares in the subnormal range
    st.floats(SQUARE_EDGE * (1 - 1e-15), SQUARE_EDGE * (1 + 1e-15)),
)


def bits(value):
    return np.asarray(value, dtype=float).view(np.uint64)


def square_outcome(x):
    """x*x's bits, or the EvalError message of today's checked pow where it
    raises."""
    failure = outcome(lambda: expressions._pow(x, 2.0))
    return failure if isinstance(failure, str) else bits(x * x)


@settings(max_examples=500, deadline=None)
@given(square_bases)
@example(POW_OFF_BY_AN_ULP)
def test_a_square_is_the_product_on_every_path(x):
    expr = parse("x^2")
    kernel = Kernel([expr], ("x",))
    expected = square_outcome(x)
    for got in (
        outcome(lambda: expr.eval({"x": x})),
        outcome(lambda: kernel.scalar(x)[0]),
        outcome(lambda: kernel.rows(np.array([x]))[0]),
        outcome(lambda: kernel.rows(np.full(1001, x))[0]),
    ):
        if isinstance(expected, str):
            assert got == expected
        else:
            assert not isinstance(got, str), got
            assert (bits(got) == expected).all()


def test_a_column_squares_row_by_row_and_raises_at_its_first_overflow():
    kernel = Kernel([parse("x^2")], ("x",))
    good = np.array([1.0, POW_OFF_BY_AN_ULP, math.inf, -0.0, math.nan, -math.inf])
    # the inf rows send the column through the overflow check, which keeps
    # the products of the finite rows
    assert (bits(kernel.rows(good)[0]) == bits(good * good)).all()
    assert math.pow(POW_OFF_BY_AN_ULP, 2.0) != POW_OFF_BY_AN_ULP * POW_OFF_BY_AN_ULP
    mixed = np.insert(good, [2, 4], [1e200, -1e300])
    with pytest.raises(EvalError) as err:
        kernel.rows(mixed)
    assert str(err.value) == "(1e+200)^(2.0) has no finite real value in expression"
    assert outcome(lambda: parse("x^2").eval({"x": 1e200})) == "EvalError: " + str(err.value)


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_infinity=False, allow_nan=False))
@example(POW_OFF_BY_AN_ULP)
def test_a_constant_square_folds_to_the_product(a):
    folded = expressions.pow_(Num(a), Num(2.0))
    if math.isinf(a * a):
        assert folded == Pow(Num(a), Num(2.0))
    else:
        assert folded == Num(a * a) and bits(folded.value) == bits(a * a)


def test_an_overflowing_constant_square_stays_unfolded():
    assert expressions.pow_(Num(1e200), Num(2.0)) == Pow(Num(1e200), Num(2.0))
    expr = parse("1e200^2")
    assert isinstance(expr, Pow)
    with pytest.raises(EvalError, match=r"^\(1e\+200\)\^\(2\.0\) has no finite"):
        expr.eval({})
    assert parse("(-1.3275170599102342)^2") == Num(POW_OFF_BY_AN_ULP * POW_OFF_BY_AN_ULP)
    assert expressions.pow_(Num(math.inf), Num(2.0)) == Num(math.inf)


@pytest.mark.parametrize("source, squares", [
    ("x^y", False), ("x^k", False), ("x^3", False), ("x^2.5", False),
    ("x^2", True), ("(x - k)^2", True), ("k^2*x", True), ("x^(1+1)", True),
])
def test_only_a_constant_exponent_of_two_is_a_square(source, squares):
    kernel = Kernel([parse(source)], ("x", "y"), [{"k": 2.0}])
    assert ("= _pow(" in kernel.source) is not squares
    assert ("_isinf(" in kernel.source) is squares
    x = -POW_OFF_BY_AN_ULP
    env = {"x": x, "y": 2.0, "k": 2.0}
    assert bits(kernel.scalar(x, 2.0)[0]) == bits(parse(source).eval(env))
    if source in ("x^y", "x^k"):
        assert parse(source).eval(env) == math.pow(x, 2.0)


def test_readme_hamiltonian_rows_map_no_pow(monkeypatch):
    calls = []
    row_pow = expressions._ROW_HELPERS["_pow"]
    monkeypatch.setitem(expressions._ROW_HELPERS, "_pow",
                        lambda *args: calls.append(args) or row_pow(*args))
    spec = manifolds.builtin("xjt_gtacos", manifolds.ModelParameters(k=1.0, nu=1.0, delta=1.0))
    rows = np.random.default_rng(3).uniform(0.5, 1.5, (1001, 5))
    for source, pows in (("q^2 + p^2 + x^2 + (y-1)^2", 0), ("x^3", 1)):
        H = ScalarField.parse(spec.chart, source, spec.params)
        H.kernel()
        values, gradients = H.rows(rows)
        assert len(calls) == pows
        assert_bits_equal(values, [H.value(row) for row in rows])
        assert_bits_equal(gradients, [H.gradient(row) for row in rows])
        calls.clear()


def test_kernel_reuses_a_shared_node_and_keeps_the_visit_order():
    shared = parse("log(x)")
    kernel = Kernel([Div(shared, Name("y")), Neg(shared)], ("x", "y"))
    assert kernel.source.count("_call_log(") == 1
    # Div evaluates its right operand first: the zero check wins over log.
    for mode in (kernel.scalar, lambda *v: kernel.rows(*np.array([v]).T)):
        assert outcome(lambda: mode(-1.0, 0.0)) == "EvalError: division by zero in expression"
        assert outcome(lambda: mode(-1.0, 1.0)) == outcome(lambda: shared.eval({"x": -1.0}))
    assert kernel.scalar(2.0, 4.0) == (math.log(2.0) / 4.0, -math.log(2.0))


GENERATED = re.compile(r"_[atk]\d+|_pow|_isinf|_divisor|_unbound|_call_(%s)" % "|".join(FUNCTIONS))


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


def test_an_unknown_function_is_an_eval_error_everywhere():
    # parse and call refuse the name; a Call built directly reaches eval,
    # the kernel and diff, and each raises the one message
    expr = Call("foo", Name("x"))
    for fn in (lambda: expr.eval({"x": 1.0}), lambda: Kernel([expr], ("x",)),
               lambda: expr.diff("x")):
        with pytest.raises(EvalError, match=r"^unknown function 'foo'$"):
            fn()


# --------------------------------------------------------------------------
# Differentiation: each node keeps its names and its derivative for the
# names it lacks; the trees must be the ones the plain rules build
# --------------------------------------------------------------------------

# The reference: the folding constructors and diff rules as they stood
# before nodes kept anything, with several type tests per constructor and a
# full walk for every name.


def _ref_is_num(e, v=None):
    return isinstance(e, Num) and (v is None or e.value == v)


def ref_add(a, b):
    if _ref_is_num(a) and _ref_is_num(b):
        return Num(a.value + b.value)
    if _ref_is_num(a, 0.0):
        return b
    if _ref_is_num(b, 0.0):
        return a
    return Add(a, b)


def ref_sub(a, b):
    if _ref_is_num(a) and _ref_is_num(b):
        return Num(a.value - b.value)
    if _ref_is_num(b, 0.0):
        return a
    if _ref_is_num(a, 0.0):
        return ref_neg(b)
    return Sub(a, b)


def ref_neg(a):
    if _ref_is_num(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def ref_mul(a, b):
    if _ref_is_num(a) and _ref_is_num(b):
        return Num(a.value * b.value)
    if _ref_is_num(a, 0.0) or _ref_is_num(b, 0.0):
        return Num(0.0)
    if _ref_is_num(a, 1.0):
        return b
    if _ref_is_num(b, 1.0):
        return a
    if _ref_is_num(a, -1.0):
        return ref_neg(b)
    if _ref_is_num(b, -1.0):
        return ref_neg(a)
    return Mul(a, b)


def ref_div(a, b):
    if _ref_is_num(a, 0.0) and not _ref_is_num(b, 0.0):
        return Num(0.0)
    if _ref_is_num(b, 1.0):
        return a
    if _ref_is_num(a) and _ref_is_num(b) and b.value != 0.0:
        return Num(a.value / b.value)
    return Div(a, b)


def ref_pow(a, b):
    if _ref_is_num(b, 1.0):
        return a
    if _ref_is_num(b, 0.0):
        return Num(1.0)
    if _ref_is_num(a) and _ref_is_num(b, 2.0):
        square = a.value * a.value
        overflows = math.isinf(square) and math.isfinite(a.value)
        return Pow(a, b) if overflows else Num(square)
    if _ref_is_num(a) and _ref_is_num(b):
        try:
            return Num(math.pow(a.value, b.value))
        except (ValueError, OverflowError):
            pass
    return Pow(a, b)


def ref_names(e):
    if isinstance(e, Num):
        return frozenset()
    if isinstance(e, Name):
        return frozenset((e.ident,))
    if isinstance(e, (Neg, Call)):
        return ref_names(e.arg)
    if isinstance(e, Pow):
        return ref_names(e.base) | ref_names(e.exponent)
    return ref_names(e.left) | ref_names(e.right)


def ref_diff(e, name):
    d = lambda sub: ref_diff(sub, name)  # noqa: E731
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Name):
        return Num(1.0 if name == e.ident else 0.0)
    if isinstance(e, Neg):
        return ref_neg(d(e.arg))
    if isinstance(e, Add):
        return ref_add(d(e.left), d(e.right))
    if isinstance(e, Sub):
        return ref_sub(d(e.left), d(e.right))
    if isinstance(e, Mul):
        return ref_add(ref_mul(d(e.left), e.right), ref_mul(e.left, d(e.right)))
    if isinstance(e, Div):
        return ref_div(
            ref_sub(ref_mul(d(e.left), e.right), ref_mul(e.left, d(e.right))),
            ref_pow(e.right, Num(2.0)),
        )
    if isinstance(e, Pow):
        if isinstance(e.exponent, Num):
            k = e.exponent.value
            return ref_mul(ref_mul(Num(k), ref_pow(e.base, Num(k - 1.0))), d(e.base))
        return ref_mul(e, ref_add(
            ref_mul(d(e.exponent), Call("log", e.base)),
            ref_mul(e.exponent, ref_div(d(e.base), e.base)),
        ))
    u, du = e.arg, d(e.arg)
    if e.fn == "sin":
        return ref_mul(Call("cos", u), du)
    if e.fn == "cos":
        return ref_mul(ref_neg(Call("sin", u)), du)
    if e.fn == "exp":
        return ref_mul(e, du)
    if e.fn == "log":
        return ref_div(du, u)
    return ref_div(du, ref_mul(Num(2.0), e))


def field_values(node):
    return [getattr(node, f.name) for f in dataclasses.fields(node)]


def clone(e):
    """A copy of ``e`` with new node objects, so nothing is kept on them yet;
    a node met twice is copied once, so shared subtrees stay shared."""
    memo = {}

    def copy(node):
        if isinstance(node, (Num, Name)):
            return node
        if id(node) not in memo:
            memo[id(node)] = type(node)(*(
                copy(v) if isinstance(v, Expr) else v for v in field_values(node)
            ))
        return memo[id(node)]

    return copy(e)


# ``w`` occurs in no generated tree: the derivative every node keeps.
DIFF_NAMES = ROW_NAMES + ("w",)


def assert_diff_matches_reference(tree):
    expected = {n: repr(ref_diff(tree, n)) for n in DIFF_NAMES}
    for n in DIFF_NAMES:
        cold = clone(tree)
        assert repr(cold.diff(n)) == expected[n]
        assert repr(cold.diff(n)) == expected[n]  # and again, now kept
        warm = clone(tree)
        for other in DIFF_NAMES:
            if other != n:
                assert repr(warm.diff(other)) == expected[other]
        assert repr(warm.diff(n)) == expected[n]
        assert warm.names() == ref_names(tree)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_diff_builds_the_reference_tree_on_raw_trees(tree):
    assert_diff_matches_reference(tree)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_diff_builds_the_reference_tree_on_parsed_trees(tree):
    assert_diff_matches_reference(parse(str(tree)))


@settings(max_examples=100, deadline=None)
@given(trees)
def test_diff_of_shared_subtrees_builds_the_reference_tree(tree):
    # one node object under both operands, and a derivative differentiated
    # again, whose nodes may be kept derivatives of other nodes
    shared = Mul(tree, Add(tree, Name("x")))
    assert_diff_matches_reference(shared)
    first = shared.diff("x")
    assert_diff_matches_reference(first)


special_nums = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 2.0, 0.5, math.inf, -math.inf, math.nan]
).map(Num)
operands = st.one_of(special_nums, finite_floats.map(Num), trees)
CONSTRUCTORS = [
    (expressions.add, ref_add),
    (expressions.sub, ref_sub),
    (expressions.mul, ref_mul),
    (expressions.div, ref_div),
    (expressions.pow_, ref_pow),
]


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.tuples(special_nums, special_nums), st.tuples(operands, operands)))
def test_folding_constructors_build_the_reference_tree(pair):
    a, b = pair
    for new, ref in CONSTRUCTORS:
        assert repr(new(a, b)) == repr(ref(a, b))
        assert repr(new(b, a)) == repr(ref(b, a))
    assert repr(expressions.neg(a)) == repr(ref_neg(a))


@settings(max_examples=300, deadline=None)
@given(trees, row_sets)
def test_printer_round_trip_on_folded_trees(tree, rows):
    # substitute rebuilds the tree through the folding constructors, as the
    # parser builds it; a raw tree need not come back, since "0 + x" parses
    # to x, which differs from 0 + x at x = -0.0
    tree = tree.substitute({})
    assume(all(math.isfinite(t.value) for t in subtrees(tree) if type(t) is Num))
    reparsed = parse(str(tree))
    assert repr(reparsed) == repr(tree)
    for row in rows:
        env = dict(zip(ROW_NAMES, row))
        got, expected = outcome(lambda: reparsed.eval(env)), outcome(lambda: tree.eval(env))
        if isinstance(expected, str):
            assert got == expected
        else:
            assert_bits_equal(got, expected)


def test_a_negative_zero_prints_and_parses_back_negative():
    for tree in (Num(-0.0), parse("-0"), parse("-x").diff("y"), Mul(Name("x"), Num(-0.0))):
        assert "(-0)" in str(tree)
        assert repr(parse(str(tree))) == repr(tree.substitute({}))


# --------------------------------------------------------------------------
# Differentiation against independent oracles: central differences and sympy
# --------------------------------------------------------------------------

smooth_trees = st.recursive(
    st.one_of(st.floats(-2.0, 2.0).map(Num), st.sampled_from(ROW_NAMES).map(Name)),
    lambda sub: st.one_of(
        sub.map(Neg),
        st.tuples(st.sampled_from([Add, Sub, Mul, Div]), sub, sub).map(
            lambda t: t[0](t[1], t[2])
        ),
        st.tuples(st.sampled_from(sorted(FUNCTIONS)), sub).map(lambda t: Call(*t)),
        st.tuples(sub, st.sampled_from([2.0, 3.0, -1.0])).map(lambda t: Pow(t[0], Num(t[1]))),
    ),
    max_leaves=8,
)

# Skip a point where |f'''| or any subtree's magnitude exceeds FD_BOUND, or
# where a sqrt's argument is below 1/FD_BOUND.  The trees are smooth where
# they evaluate except where a sqrt's argument touches 0 (sqrt(x^2) = |x|);
# the bounds keep the sample point away from that and from the poles of 1/x
# and log.
FD_BOUND = 1e4


def subtrees(e):
    """``e`` and every node below it."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(v for v in field_values(node) if isinstance(v, Expr))


@settings(max_examples=300, deadline=None)
@given(smooth_trees, st.tuples(*[st.floats(-2.0, 2.0)] * len(ROW_NAMES)))
def test_diff_matches_central_differences(tree, point):
    # charts.central_difference with h = fd_step(x) = max(1, |x|) eps^(1/3)
    # errs by at most h^2/6 max|f'''| over [x - h, x + h] (truncation) plus
    # r/h, where r bounds the rounding error of one evaluation of f.  Here
    # max|f'''| is taken as twice the largest |f'''| at x and x +- h, and for
    # these trees of at most 8 leaves r as 1e3 eps S, S the largest subtree
    # magnitude at those points.  Both terms are of order eps^(2/3) = 3.7e-11
    # times the scale of f; the exact derivative's own rounding is inside r/h.
    env = dict(zip(ROW_NAMES, point))
    fn = lambda v: tree.eval(dict(zip(ROW_NAMES, map(float, v))))  # noqa: E731
    for j, n in enumerate(ROW_NAMES):
        d1 = tree.diff(n)
        d3 = d1.diff(n).diff(n)
        h = fd_step(point[j])
        near = [dict(env, **{n: point[j] + step}) for step in (0.0, h, -h)]
        try:
            exact = d1.eval(env)
            third = max(abs(d3.eval(e)) for e in near)
            scale = max(abs(t.eval(e)) for t in subtrees(tree) for e in near)
            gap = min((abs(t.arg.eval(e)) for t in subtrees(tree)
                       if type(t) is Call and t.fn == "sqrt" for e in near), default=math.inf)
        except (EvalError, ArithmeticError):
            continue  # eval raises at or beside the point
        if not (third <= FD_BOUND and scale <= FD_BOUND and gap >= 1.0 / FD_BOUND):
            continue  # also skips inf and NaN, before numpy subtracts them
        fd = float(central_difference(fn, point, j))
        tol = h * h / 3.0 * third + 1e3 * EPS * scale / h
        assert abs(exact - fd) <= tol, (str(tree), n, exact, fd, tol)


# sympy differentiates the same trees by its own rules; both sides are then
# evaluated in double precision, in different operation orders, on values
# of order one, so they agree to far better than this relative bound.
SYMPY_REL = 1e-9


def to_sympy(e, sympy):
    if isinstance(e, Num):
        return sympy.Float(e.value)
    if isinstance(e, Name):
        return sympy.Symbol(e.ident)
    if isinstance(e, Neg):
        return -to_sympy(e.arg, sympy)
    if isinstance(e, Call):
        return getattr(sympy, e.fn)(to_sympy(e.arg, sympy))
    if isinstance(e, Pow):
        return to_sympy(e.base, sympy) ** to_sympy(e.exponent, sympy)
    left, right = to_sympy(e.left, sympy), to_sympy(e.right, sympy)
    return {Add: left + right, Sub: left - right, Mul: left * right,
            Div: left / right}[type(e)]


def test_diff_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = np.random.default_rng(20261019)
    chart = Chart("xyz", ROW_NAMES)
    symbols = [sympy.Symbol(n) for n in ROW_NAMES]
    shapes = (
        "{0}",
        "sin({0})*cos({1})",
        "exp(({0})/4) - {1}",
        "log(1 + ({0})^2)",
        "sqrt(2 + ({0})^2)*({1})",
        "({0})/(1 + ({1})^2)",
        "(1 + ({0})^2)^(sin({1}))",
    )
    for _ in range(2):
        for shape in shapes:
            polys = [str(random_polynomial(chart, rng, max_degree=3).expr) for _ in range(2)]
            tree = parse(shape.format(*polys))
            theirs = to_sympy(tree, sympy)
            for n, s in zip(ROW_NAMES, symbols):
                expected = sympy.lambdify(symbols, sympy.diff(theirs, s), "math")
                ours = tree.diff(n)
                for point in rng.uniform(-1.5, 1.5, (4, len(ROW_NAMES))).tolist():
                    want = expected(*point)
                    got = ours.eval(dict(zip(ROW_NAMES, point)))
                    assert abs(got - want) <= SYMPY_REL * max(1.0, abs(want)), (
                        str(tree), n, point, got, want)
