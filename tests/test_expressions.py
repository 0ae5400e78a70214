import math

import numpy as np
import pytest

from cosym.expressions import EvalError, ParseError, parse


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
