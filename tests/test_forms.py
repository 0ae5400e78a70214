"""Exterior calculus: wedge, d, interior product, pullback.

The wedge oracle used here is a brute-force permutation expansion over dense
antisymmetric tensors, independent of the sparse shuffle-sum implementation.
"""

from itertools import permutations, combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_point, random_polynomial
from cosym.charts import (
    Chart,
    ChartMap,
    DomainError,
    Guard,
    ScalarField,
    central_difference,
)
from cosym.forms import (
    FormValue,
    KForm,
    VectorField,
    exterior_derivative,
    interior_product,
    pullback,
    wedge,
    wedge_values,
)
from cosym.manifolds import CHART_XJT, ModelParameters, builtin
from cosym.structures import darboux_chart

CH3 = Chart("c3", ("q", "p", "kappa"))
CH5 = CHART_XJT


def dense_tensor(value, dim):
    """Dense fully antisymmetric tensor from an increasing-index table."""
    k = value.degree
    out = np.zeros((dim,) * k)
    for idx, coeff in value.coeffs.items():
        for perm in permutations(range(k)):
            sign = _perm_sign(perm)
            out[tuple(idx[i] for i in perm)] = sign * coeff
    return out


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def wedge_permutation_oracle(a_val, b_val):
    """(1/(j! k!)) sum over all permutations of sgn * A x B."""
    import math

    dim = a_val.chart.dimension
    j, k = a_val.degree, b_val.degree
    A = dense_tensor(a_val, dim)
    B = dense_tensor(b_val, dim)
    norm = math.factorial(j) * math.factorial(k)
    out = {}
    for K in combinations(range(dim), j + k):
        total = 0.0
        for perm in permutations(K):
            total += _perm_sign(_relative_perm(K, perm)) * A[perm[:j]] * B[perm[j:]]
        out[K] = total / norm
    return out


def _relative_perm(base, perm):
    pos = {v: i for i, v in enumerate(base)}
    return tuple(pos[v] for v in perm)


def test_wedge_repeated_factor_vanishes():
    dqdp = KForm.two_form(CH3, {"q,p": 1.0})
    dq = KForm.one_form(CH3, {"q": 1.0})
    product = wedge(dqdp, dq)
    assert product.at((0.3, 0.2, 0.1)).max_norm() == 0.0


def test_wedge_degree_overflow_rejected():
    dqdp = KForm.two_form(CH3, {"q,p": 1.0})
    with pytest.raises(ValueError):
        wedge(dqdp, dqdp)


def test_wedge_chart_mismatch_rejected():
    from cosym.charts import ChartMismatchError

    a = KForm.one_form(CH3, {"q": 1.0})
    other = Chart("other", ("u", "v", "w"))
    b = KForm.one_form(other, {"u": 1.0})
    with pytest.raises(ChartMismatchError):
        wedge(a, b)


def test_volume_product_on_extended_chart_matches_permutation_oracle():
    # theta ^ omega ^ omega at y = 2 with unit parameters; the permutation
    # oracle fixes the top coefficient at 4 k nu sqrt(delta) / y^2 = 1.
    spec = builtin("xjt_gtacos", ModelParameters())
    pt = CH5.point((0.0, 2.0, 0.0, 0.0, 0.0))
    top = wedge(wedge(spec.theta, spec.omega), spec.omega).at(pt)
    oracle_inner = wedge_permutation_oracle(spec.omega.at(pt), spec.omega.at(pt))
    inner_val = spec.omega.at(pt)
    oracle = wedge_permutation_oracle(
        spec.theta.at(pt), wedge(spec.omega, spec.omega).at(pt)
    )
    for idx, val in oracle.items():
        assert top.coeffs.get(idx, 0.0) == pytest.approx(val, abs=1e-14)
    assert top.coeffs[(0, 1, 2, 3, 4)] == pytest.approx(1.0, abs=1e-14)
    # inner omega^2 cross term doubles
    assert oracle_inner[(0, 1, 2, 3)] == pytest.approx(
        2 * inner_val.coeffs[(0, 1)] * inner_val.coeffs[(2, 3)], abs=1e-14
    )


def test_volume_coefficient_matches_sympy_oracle(rng):
    # Computer-algebra check of the extended half-plane volume: the top
    # coefficient of theta ^ omega ^ omega, expanded symbolically over all
    # permutations with k, nu, delta and the coordinates left as symbols.
    sp = pytest.importorskip("sympy")
    from sympy.combinatorics import Permutation

    k, nu, delta = sp.symbols("k nu delta", positive=True)
    x, y, q, p, kappa = sp.symbols("x y q p kappa", real=True)
    theta = sp.sqrt(delta) * sp.Matrix([0, 0, -p, q, 1])
    omega = sp.zeros(5, 5)
    omega[0, 1], omega[2, 3] = k / y**2, 2 * nu
    omega = omega - omega.T
    top = sum(
        Permutation(list(s)).signature()
        * theta[s[0]]
        * omega[s[1], s[2]]
        * omega[s[3], s[4]]
        for s in permutations(range(5))
    ) / (1 * 2 * 2)  # 1! 2! 2!
    assert sp.simplify(top - 4 * k * nu * sp.sqrt(delta) / y**2) == 0

    top_fn = sp.lambdify((k, nu, delta, x, y, q, p, kappa), top)
    for _ in range(3):
        params = ModelParameters(
            k=float(rng.uniform(0.5, 3)),
            nu=float(rng.uniform(0.5, 3)),
            delta=float(rng.uniform(0.5, 3)),
        )
        spec = builtin("xjt_gtacos", params)
        for _ in range(5):
            pt = random_point(spec.chart, rng)
            expected = top_fn(params.k, params.nu, params.delta, *pt.array)
            assert spec.volume_coefficient(pt) == pytest.approx(
                expected, rel=1e-12, abs=1e-12
            )


def test_wedge_random_pairs_match_permutation_oracle(rng):
    for _ in range(6):
        a = KForm(
            CH5, 1, {(i,): random_polynomial(CH5, rng, 1, 2) for i in range(5)}
        )
        b = KForm(
            CH5,
            2,
            {
                idx: random_polynomial(CH5, rng, 1, 2)
                for idx in combinations(range(5), 2)
            },
        )
        pt = random_point(CH5, rng)
        got = wedge(a, b).at(pt)
        expected = wedge_permutation_oracle(a.at(pt), b.at(pt))
        for idx, val in expected.items():
            assert got.coeffs.get(idx, 0.0) == pytest.approx(val, abs=1e-12)


def test_wedge_graded_anticommutativity(rng):
    for ja, jb in ((1, 1), (1, 2), (2, 2), (2, 3)):
        a = KForm(
            CH5,
            ja,
            {idx: random_polynomial(CH5, rng, 1, 2) for idx in combinations(range(5), ja)},
        )
        b = KForm(
            CH5,
            jb,
            {idx: random_polynomial(CH5, rng, 1, 2) for idx in combinations(range(5), jb)},
        )
        pt = random_point(CH5, rng)
        ab = wedge(a, b).at(pt)
        ba = wedge(b, a).at(pt)
        sign = (-1.0) ** (ja * jb)
        for idx in set(ab.coeffs) | set(ba.coeffs):
            assert ab.coeffs.get(idx, 0.0) == pytest.approx(
                sign * ba.coeffs.get(idx, 0.0), abs=1e-12
            )


def test_exterior_derivative_of_contact_form():
    theta = KForm.one_form(CH3, {"kappa": 1.0, "q": "-p"})
    d = exterior_derivative(theta)
    val = d.at((0.4, -1.2, 0.9))
    assert val.coeffs == {(0, 1): pytest.approx(1.0)}


def test_exterior_derivative_of_extended_contact_form():
    spec = builtin("xjt_contact", ModelParameters(k=1.5, nu=0.7, delta=2.0))
    d = exterior_derivative(spec.theta)
    pt = CH5.point((0.3, 1.4, -0.2, 0.6, 0.1))
    val = d.at(pt)
    y = 1.4
    assert val.get("x", "y") == pytest.approx(1.5 / y**2, rel=1e-12)
    assert val.get("q", "p") == pytest.approx(2 * 0.7, rel=1e-12)
    assert (val - spec.omega.at(pt)).max_norm() <= 1e-12


def test_d_squared_vanishes_on_random_symbolic_forms(rng):
    for degree in (1, 2):
        form = KForm(
            CH5,
            degree,
            {
                idx: random_polynomial(CH5, rng, 2, 2)
                for idx in combinations(range(5), degree)
            },
        )
        dd = exterior_derivative(exterior_derivative(form))
        for _ in range(100):
            pt = random_point(CH5, rng)
            assert dd.at(pt).max_norm() <= 1e-10


def random_form(chart, degree, rng, max_degree=2, terms=2):
    return KForm(
        chart,
        degree,
        {
            idx: random_polynomial(chart, rng, max_degree, terms)
            for idx in combinations(range(chart.dimension), degree)
        },
    )


def points(chart, count):
    """``count`` points of an unguarded chart, coordinates in [-2, 2]."""
    coordinate = st.floats(-2.0, 2.0, allow_nan=False)
    return st.lists(
        st.lists(coordinate, min_size=chart.dimension, max_size=chart.dimension),
        min_size=1, max_size=count,
    )


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]),
       st.integers(0, 2**32 - 1), st.data())
def test_d_squared_vanishes_property(shape, seed, data):
    """d(d(form)) = 0 on random-polynomial 1- and 2-forms over charts of
    dimension 3, 5 and 7, at the seeded test's tolerance."""
    n, degree = shape
    chart = darboux_chart(n)
    form = random_form(chart, degree, np.random.default_rng(seed))
    dd = exterior_derivative(exterior_derivative(form))
    for pt in data.draw(points(chart, 4)):
        assert dd.at(pt).max_norm() <= 1e-10


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2**32 - 1), st.data())
def test_wedge_graded_anticommutativity_property(n, ja, jb, seed, data):
    """a ^ b = (-1)^(pq) b ^ a for random forms of degrees p, q, at the
    seeded test's tolerance."""
    chart = darboux_chart(n)
    assume(ja + jb <= chart.dimension)
    rng = np.random.default_rng(seed)
    a = random_form(chart, ja, rng, 1, 2)
    b = random_form(chart, jb, rng, 1, 2)
    ab, ba = wedge(a, b), wedge(b, a)
    sign = (-1.0) ** (ja * jb)
    for pt in data.draw(points(chart, 3)):
        ab_at, ba_at = ab.at(pt), ba.at(pt)
        for idx in set(ab_at.coeffs) | set(ba_at.coeffs):
            assert ab_at.coeffs.get(idx, 0.0) == pytest.approx(
                sign * ba_at.coeffs.get(idx, 0.0), abs=1e-12
            )


def test_interior_product_reeb_pairing():
    theta = KForm.one_form(CH3, {"kappa": 1.0, "q": "-p"})
    dkappa = VectorField.coordinate(CH3, "kappa")
    val = interior_product(dkappa, theta, CH3.point((0.3, 0.8, 0.0)))
    assert val.degree == 0
    assert val.coeffs[()] == pytest.approx(1.0)


def test_interior_product_canonical_pairing():
    dqdp = KForm.two_form(CH3, {"q,p": 1.0})
    dq = VectorField.coordinate(CH3, "q")
    val = interior_product(dq, dqdp, CH3.point((0.0, 0.0, 0.0)))
    assert val.as_covector() == pytest.approx([0.0, 1.0, 0.0])


def test_interior_product_matches_matrix_oracle(rng):
    omega = KForm(
        CH5,
        2,
        {idx: random_polynomial(CH5, rng, 1, 2) for idx in combinations(range(5), 2)},
    )
    for _ in range(10):
        pt = random_point(CH5, rng)
        x = rng.normal(size=5)
        got = interior_product(x, omega, pt).as_covector()
        oracle = x @ omega.at(pt).as_matrix()
        assert got == pytest.approx(oracle, abs=1e-12)


def test_interior_product_graded_derivation(rng):
    for ja, jb in ((1, 1), (1, 2), (2, 1)):
        a = KForm(
            CH5,
            ja,
            {idx: random_polynomial(CH5, rng, 1, 2) for idx in combinations(range(5), ja)},
        )
        b = KForm(
            CH5,
            jb,
            {idx: random_polynomial(CH5, rng, 1, 2) for idx in combinations(range(5), jb)},
        )
        pt = random_point(CH5, rng)
        x = rng.normal(size=5)
        lhs = interior_product(x, wedge(a, b), pt)
        ia_b = wedge_values(interior_product(x, a, pt), b.at(pt))
        sign = (-1.0) ** ja
        a_ib = wedge_values(a.at(pt), interior_product(x, b, pt))
        for idx in set(lhs.coeffs) | set(ia_b.coeffs) | set(a_ib.coeffs):
            assert lhs.coeffs.get(idx, 0.0) == pytest.approx(
                ia_b.coeffs.get(idx, 0.0) + sign * a_ib.coeffs.get(idx, 0.0),
                abs=1e-9,
            )


def test_pullback_identity_map(rng):
    omega = KForm(
        CH5,
        2,
        {idx: random_polynomial(CH5, rng, 1, 2) for idx in combinations(range(5), 2)},
    )
    ident = ChartMap.identity(CH5)
    pt = random_point(CH5, rng)
    val = pullback(ident, omega, pt)
    direct = omega.at(pt)
    for idx in set(val.coeffs) | set(direct.coeffs):
        assert val.coeffs.get(idx, 0.0) == pytest.approx(
            direct.coeffs.get(idx, 0.0), abs=1e-12
        )


def test_pullback_commutes_with_d_fd_oracle(rng):
    source = Chart("src", ("u", "v", "w"))
    target = Chart("tgt", ("r", "s", "t"))
    m = ChartMap.from_exprs(
        source, target, ("u + v^2", "v*w - u", "w + u*v/2")
    )
    lam = KForm.one_form(
        target,
        {
            "r": random_polynomial(target, rng, 2, 2),
            "s": random_polynomial(target, rng, 2, 2),
            "t": random_polynomial(target, rng, 2, 2),
        },
    )
    d_lam = exterior_derivative(lam)

    # d of the pulled-back potential by the one central-difference rule:
    # (d c)_ab = d_a c_b - d_b c_a, with jac[k, i] = d_k c_i
    def pulled(vals):
        return pullback(m, lam, vals).as_covector()

    for _ in range(20):
        pt = random_point(source, rng)
        jac = [central_difference(pulled, source.values(pt), k) for k in range(3)]
        lhs = FormValue(source, 2, {(a, b): jac[a][b] - jac[b][a]
                                    for a, b in combinations(range(3), 2)})
        rhs = pullback(m, d_lam, pt)
        scale = max(1.0, rhs.max_norm())
        assert (lhs - rhs).max_norm() / scale <= 1e-7


def test_pullback_of_wedge_is_wedge_of_pullbacks(rng):
    source = Chart("src", ("u", "v", "w"))
    target = Chart("tgt", ("r", "s", "t"))
    m = ChartMap.from_exprs(source, target, ("u*v", "v + w", "u - w^2"))
    a = KForm.one_form(target, {"r": "s", "s": "t^2", "t": "1"})
    b = KForm.one_form(target, {"r": "2", "s": "r*t", "t": "-s"})
    for _ in range(10):
        pt = random_point(source, rng)
        lhs = pullback(m, wedge(a, b), pt)
        rhs = wedge_values(pullback(m, a, pt), pullback(m, b, pt))
        for idx in set(lhs.coeffs) | set(rhs.coeffs):
            assert lhs.coeffs.get(idx, 0.0) == pytest.approx(
                rhs.coeffs.get(idx, 0.0), abs=1e-9
            )


def test_fd_gradient_matches_symbolic(rng):
    sources = ["q^2*p - kappa", "sin(q) + cos(p)*kappa", "exp(-q^2/4) + p"]
    for source in sources:
        sym = ScalarField.parse(CH3, source)
        for _ in range(10):
            pt = random_point(CH3, rng)
            g_sym = sym.gradient(pt)
            g_fd = [central_difference(sym.value, CH3.values(pt), j) for j in range(3)]
            for a, b in zip(g_sym, g_fd):
                assert b == pytest.approx(a, rel=1e-6, abs=1e-8)


def test_domain_guard_is_hard_error():
    chart = Chart("half", ("x", "y"), (Guard("y", 0.0),))
    f = ScalarField.parse(chart, "1/y")
    with pytest.raises(DomainError):
        f.value((1.0, -0.5))
    with pytest.raises(DomainError):
        f.value((1.0, 0.0))
    assert f.value((1.0, 2.0)) == 0.5


def test_strictly_increasing_indices_enforced():
    with pytest.raises(ValueError):
        KForm(CH3, 2, {(1, 0): 1.0})
    with pytest.raises(ValueError):
        KForm(CH3, 2, {(1, 1): 1.0})
