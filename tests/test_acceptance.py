"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 4 holds ``volume_coefficient`` to the printed volume
constant 2 k nu sqrt(delta)/y^2 through the Liouville normalisation
theta ^ omega^n / n!: the un-normalised top coefficient is n! = 2 times the
printed constant, because the squared two-form carries its mixed term twice.
Criterion 4b checks the un-normalised, wedge-derived constant directly.
"""

import json
import math

import numpy as np
import pytest

from conftest import random_point, random_polynomial
from cosym import cli
from cosym.almost_contact import (
    heisenberg_potential,
    nijenhuis_n1,
    ppp_negative_witness,
    sasaki_from_potential,
    solve_phi,
)
from cosym.charts import ScalarField
from cosym.dynamics import (
    euler_part,
    hamiltonian_field_closed,
    hamiltonian_field_generic,
    integrate,
    jacobi_bracket,
    poisson_bracket,
)
from cosym.forms import pullback
from cosym.jacobi_flows import (
    LinearHamiltonianCoefficients,
    integrate_riccati,
    integrate_variant,
    split_energy,
)
from cosym.manifolds import (
    CATALOG,
    CHART_XJ1,
    CHART_XJT,
    ModelParameters,
    builtin,
    cayley_map,
    disk_two_form,
)
from cosym.structures import CanonicalThetaSpec, darboux_chart, reeb


def report(number: str, label: str, passed: bool, detail: str = "") -> None:
    line = "criterion %s (%s): %s" % (number, label, "PASS" if passed else "FAIL")
    if detail:
        line += " — " + detail
    print(line)


def test_criterion_01_closed_form_matches_generic_solve(rng):
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        spec = CanonicalThetaSpec(
            a=tuple(rng.uniform(-2, 2, n)),
            b=tuple(rng.uniform(-2, 2, n)),
            c=float(rng.choice([-1, 1]) * rng.uniform(0.5, 3.0)),
        )
        st = spec.structure()
        H = random_polynomial(st.chart, rng)
        pt = random_point(st.chart, rng)
        closed = hamiltonian_field_closed(spec, H, pt).vector()
        generic = hamiltonian_field_generic(st, H, pt)
        rel = np.abs(closed - generic) / np.maximum(1.0, np.abs(closed))
        worst = max(worst, float(rel.max()))
    ok = worst <= 1e-9
    report("01", "closed-form field matches generic solve", ok, "worst rel %.2e" % worst)
    assert ok


def test_criterion_02_reeb_identities(rng):
    worst_omega = worst_theta = 0.0
    for name in CATALOG:
        s = builtin(name)
        for pt in s.default_probes(count=64):
            R = reeb(s, pt)
            th, om, _ = s.at(pt)
            worst_omega = max(worst_omega, float(np.abs(R @ om).max()))
            worst_theta = max(worst_theta, abs(float(R @ th) - 1.0))
    contraction_ok = worst_omega <= 1e-11 and worst_theta <= 1e-11

    canonical_ok = True
    for _ in range(10):
        n = int(rng.integers(1, 4))
        spec = CanonicalThetaSpec(
            a=tuple(rng.uniform(-2, 2, n)),
            b=tuple(rng.uniform(-2, 2, n)),
            c=float(rng.uniform(0.5, 4.0)),
        )
        closed = spec.reeb_vector()
        expect = np.zeros(2 * n + 1)
        expect[-1] = 1.0 / spec.c
        canonical_ok &= bool(np.array_equal(closed, expect))
        st = spec.structure()
        solved = reeb(st, random_point(st.chart, rng))
        canonical_ok &= bool(np.abs(solved - closed).max() <= 1e-13)

    xjt_ok = True
    for delta in (1.0, 2.0, 4.0):
        expect = np.array([0, 0, 0, 0, 1.0 / math.sqrt(delta)])
        for name in ("xjt_gtacos", "xjt_contact"):
            s = builtin(name, ModelParameters(delta=delta))
            got = reeb(s, s.chart.point((0.3, 1.1, -0.4, 0.6, 0.2)))
            xjt_ok &= bool(np.abs(got - expect).max() <= 1e-12)

    ok = contraction_ok and canonical_ok and xjt_ok
    report(
        "02",
        "Reeb identities on the catalog",
        ok,
        "max |R.omega| %.2e, max |R.theta - 1| %.2e" % (worst_omega, worst_theta),
    )
    assert ok


def test_criterion_03_dissipation_law(rng):
    worst = 0.0
    cases = 0
    while cases < 100:
        name = CATALOG[cases % len(CATALOG)]
        s = builtin(name)
        H = random_polynomial(s.chart, rng)
        pt = random_point(s.chart, rng)
        X = hamiltonian_field_generic(s, H, pt)
        dH = H.gradient(pt)
        R = reeb(s, pt)
        worst = max(worst, abs(float(X @ dH) + H.value(pt) * float(R @ dH)))
        cases += 1
    pointwise_ok = worst <= 1e-8

    drift = 0.0
    flows = (
        ("darboux_contact(1)", "(q^2 + p^2)/2", (1.0, 0.5, 0.0)),
        ("xjt_gtacos", "q^2 + p^2 + x^2 + (y-1)^2", (0.2, 1.0, 0.3, -0.2, 0.0)),
        ("heisenberg", "x^2 + (y-1)^2", (0.3, 1.2, 0.0)),
    )
    for name, expr, x0 in flows:
        s = builtin(name)
        H = ScalarField.parse(s.chart, expr, s.params)
        traj = integrate(s, H, s.chart.point(x0), 1.0, 1e-3)
        drift = max(drift, traj.energy_drift())
    drift_ok = drift <= 1e-6

    ok = pointwise_ok and drift_ok
    report(
        "03",
        "dissipation law pointwise and along flows",
        ok,
        "max pointwise %.2e, max drift %.2e" % (worst, drift),
    )
    assert ok


def _volume_samples(rng):
    for _ in range(5):
        params = ModelParameters(
            k=float(rng.uniform(0.5, 3)),
            nu=float(rng.uniform(0.5, 3)),
            delta=float(rng.uniform(0.5, 3)),
        )
        s = builtin("xjt_gtacos", params)
        for _ in range(50):
            pt = random_point(s.chart, rng)
            yield params, pt, s.volume_coefficient(pt)


def test_criterion_04_volume_identity_as_stated(rng):
    # Printed constant: 2 k nu sqrt(delta)/y^2.  volume_coefficient is the
    # un-normalised top coefficient of theta ^ omega^n, which is
    # 4 k nu sqrt(delta)/y^2 here: the square of (tau dx^dy + sigma dq^dp)
    # has mixed coefficient 2 tau sigma (permutation-expansion and sympy
    # oracles in test_forms agree).  The printed constant is the top
    # coefficient of theta ^ omega^n / n!, the Liouville-normalised volume,
    # so that is the relation asserted.  Whether the paper meant this
    # normalisation or dropped the factor is not settled by the abstract;
    # the 'volume_coefficient' entry of the discrepancy report records it.
    n_factorial = math.factorial(builtin("xjt_gtacos").n)
    worst = 0.0
    ratio = None
    for params, pt, coeff in _volume_samples(rng):
        normalised = coeff / n_factorial
        stated = 2.0 * params.k * params.nu * math.sqrt(params.delta) / pt["y"] ** 2
        worst = max(worst, abs(normalised - stated))
        ratio = coeff / stated
    ok = worst <= 1e-12
    report(
        "04",
        "volume identity with the printed constant",
        ok,
        "computed/printed ratio %.15g (= n!); deviation of theta ^ omega^n / n! "
        "max %.3e" % (ratio, worst),
    )
    assert ok, (
        "top coefficient of theta ^ omega^2 / 2! deviates from the printed "
        "constant by %.3e (computed/printed ratio %.15g)" % (worst, ratio)
    )


def test_criterion_04b_volume_identity_derived_constant(rng):
    worst = 0.0
    for params, pt, coeff in _volume_samples(rng):
        derived = 4.0 * params.k * params.nu * math.sqrt(params.delta) / pt["y"] ** 2
        worst = max(worst, abs(coeff - derived) / max(1.0, derived))
    ok = worst <= 1e-12
    report(
        "04b",
        "volume identity with the wedge-derived constant",
        ok,
        "max rel deviation %.2e" % worst,
    )
    assert ok


def test_criterion_05_cayley_pullback(rng):
    params = ModelParameters(k=1.7, nu=0.6)
    m = cayley_map()
    omega_disk = disk_two_form(params)
    worst = 0.0
    for _ in range(50):
        pt = random_point(CHART_XJ1, rng)
        val = pullback(m, omega_disk, pt)
        y = pt["y"]
        targets = {
            ("x", "y"): params.k / y**2,
            ("q", "p"): 2 * params.nu,
            ("x", "q"): 0.0,
            ("x", "p"): 0.0,
            ("y", "q"): 0.0,
            ("y", "p"): 0.0,
        }
        for pair, want in targets.items():
            err = abs(val.get(*pair) - want) / max(1.0, abs(want))
            worst = max(worst, err)
    ok = worst <= 1e-8
    report("05", "Cayley pullback reproduces the half-plane form", ok,
           "worst rel %.2e" % worst)
    assert ok


def test_criterion_06_heisenberg_sasaki_suite(rng):
    st = sasaki_from_potential(heisenberg_potential())
    worst = 0.0
    n1_worst = 0.0
    phi_matches = True
    for _ in range(10):
        v = rng.uniform(-2, 2, 3)
        y = v[1]
        eta = st.eta.at(v).as_covector()
        worst = max(worst, float(np.abs(eta - np.array([-y, 0.0, 1.0])).max()))
        g = st.metric(v)
        expect_g = np.diag([1.0, 1.0, 0.0]) + np.outer(eta, eta)
        worst = max(worst, float(np.abs(g - expect_g).max()))
        phi = st.phi(v)
        expect_phi = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, y, 0.0]])
        phi_matches &= bool(np.abs(phi - expect_phi).max() <= 1e-12)
        worst = max(worst, abs(float(eta @ st.xi) - 1.0))
        worst = max(worst, float(np.abs(phi @ st.xi).max()))
        worst = max(worst, float(np.abs(eta @ phi).max()))
        worst = max(
            worst, float(np.abs(phi @ phi + np.eye(3) - np.outer(st.xi, eta)).max())
        )
        worst = max(
            worst, float(np.abs(phi.T @ g @ phi - (g - np.outer(eta, eta))).max())
        )
        n1_worst = max(n1_worst, nijenhuis_n1(st.phi, st.eta, st.xi, v, "factor1"))
    ok = worst <= 1e-12 and n1_worst <= 1e-8 and phi_matches
    report(
        "06",
        "potential-generated 3-dim structure suite",
        ok,
        "axiom worst %.2e, obstruction %.2e" % (worst, n1_worst),
    )
    assert ok


def test_criterion_07_phi_solver(rng):
    params = ModelParameters()
    all_pass = True
    solved = 0
    for _ in range(10):
        pt = (
            float(rng.uniform(-1, 1)),
            float(rng.uniform(0.4, 2.0)),
            float(rng.uniform(-1, 1)),
            float(rng.uniform(-1, 1)),
            float(rng.uniform(-1, 1)),
        )
        for _ in range(5):
            free = tuple(rng.uniform(-2, 2, 4))
            sol = solve_phi(free, params, pt)
            all_pass &= sol.residuals["phi_squared"] <= 1e-10
            all_pass &= sol.residuals["eta_phi"] <= 1e-10
            all_pass &= sol.residuals["phi_xi"] <= 1e-10
            all_pass &= sol.phi.rank() == 4
            solved += 1

    witness_ok = True
    for _ in range(20):
        k = float(rng.uniform(0.2, 4.0))
        y = float(rng.uniform(0.1, 5.0))
        w = ppp_negative_witness(ModelParameters(k=k), (0.0, y, 0.0, 0.0, 0.0))
        witness_ok &= w == pytest.approx(2.0 * k / y, rel=1e-14) and w > 0

    ok = all_pass and witness_ok and solved == 50
    report(
        "07",
        "tensor solver axioms and negative witness",
        ok,
        "%d solves, witness closed form %s" % (solved, "ok" if witness_ok else "bad"),
    )
    assert ok


def test_criterion_08_riccati_equivalence(rng):
    worst = 0.0
    for _ in range(10):
        mc = float(rng.uniform(0.1, 1.0))
        m = float(rng.uniform(0.0, mc))
        coeffs = LinearHamiltonianCoefficients(
            a=float(rng.uniform(-0.5, 0.5)),
            b=float(rng.uniform(-0.5, 0.5)),
            c_lin=mc - m,
            m=m,
            n_lin=float(rng.uniform(-0.5, 0.5)),
        )
        x0 = CHART_XJT.point((0.1, 1.0, 0.2, -0.1, 0.0))
        traj = integrate_variant(split_energy(coeffs, ModelParameters()), "gtacos", x0, 1.0, 1e-2)
        states = integrate_riccati(coeffs, (0.1, 1.0), 1.0, 1e-2).states
        worst = max(worst, float(np.abs(traj.states[:, :2] - states).max()))
    ok = worst <= 1e-6
    report("08", "plane projection matches the quadratic flow", ok,
           "max deviation %.2e" % worst)
    assert ok


def test_criterion_09_bracket_suite(rng):
    chart2 = darboux_chart(2)
    at2 = chart2.point((0.3, -0.4, 0.8, 1.2, 0.5))
    exact_ok = True
    for i, qn in enumerate(("q1", "q2")):
        for j, pn in enumerate(("p1", "p2")):
            value = poisson_bracket(
                ScalarField.parse(chart2, qn), ScalarField.parse(chart2, pn), at2
            )
            exact_ok &= value == (1.0 if i == j else 0.0)

    chart = darboux_chart(1)
    antisym_worst = 0.0
    negation_worst = 0.0
    for _ in range(20):
        f = random_polynomial(chart, rng)
        g = random_polynomial(chart, rng)
        at = random_point(chart, rng)
        jb = jacobi_bracket(f, g, at)
        antisym_worst = max(antisym_worst, abs(jb + jacobi_bracket(g, f, at)))
        alt = (
            poisson_bracket(g, f, at)
            + f.partial("kappa").value(at) * euler_part(g).value(at)
            - g.partial("kappa").value(at) * euler_part(f).value(at)
        )
        negation_worst = max(negation_worst, abs(jb + alt))

    def bracket_field(f, g):
        pb = f.partial("q") * g.partial("p") - g.partial("q") * f.partial("p")
        return pb + euler_part(f) * g.partial("kappa") - euler_part(g) * f.partial(
            "kappa"
        )

    jacobi_worst = 0.0
    for _ in range(20):
        f = random_polynomial(chart, rng)
        g = random_polynomial(chart, rng)
        k = random_polynomial(chart, rng)
        at = random_point(chart, rng)
        total = (
            bracket_field(bracket_field(f, g), k).value(at)
            + bracket_field(bracket_field(g, k), f).value(at)
            + bracket_field(bracket_field(k, f), g).value(at)
        )
        jacobi_worst = max(jacobi_worst, abs(total))

    ok = (
        exact_ok
        and antisym_worst <= 1e-12
        and jacobi_worst <= 1e-6
        and negation_worst <= 1e-10
    )
    report(
        "09",
        "bracket suite",
        ok,
        "antisym %.2e, jacobi %.2e, negation %.2e"
        % (antisym_worst, jacobi_worst, negation_worst),
    )
    assert ok


def test_criterion_10_discrepancy_ledger(capsys):
    code = cli.main(["riccati", "--paper-verbatim"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    entries = doc["entries"]
    required = ("riccati_xy", "linear_pq", "linear_kappa", "contact_kappa")
    deviations = {key: entries[key]["max_deviation"] for key in required}
    ok = code == 0 and all(v > 1e-6 for v in deviations.values())
    report(
        "10",
        "verbatim printed equations reproduce documented residuals",
        ok,
        ", ".join("%s %.3g" % (k, v) for k, v in deviations.items()),
    )
    assert ok
