import numpy as np
import pytest

from conftest import random_point, random_polynomial
from cosym import dynamics
from cosym.charts import Chart, DomainError, ScalarField
from cosym.dynamics import (
    tacs_convention_comparison,
    euler_part,
    evolution_field,
    gradient_field,
    hamiltonian_field_closed,
    hamiltonian_field_generic,
    integrate,
    jacobi_bracket,
    jacobi_bracket_generic,
    poisson_bracket,
    tacs_field,
)
from cosym.manifolds import CATALOG, builtin
from cosym.expressions import EvalError
from cosym.forms import KForm
from cosym.structures import (
    CanonicalThetaSpec,
    StructureError,
    StructureSpec,
    darboux_chart,
    reeb,
)


def contact1():
    return builtin("darboux_contact(1)")


class TestHamiltonianFieldGeneric:
    def test_contact_h_kappa(self):
        s = contact1()
        H = ScalarField.parse(s.chart, "kappa")
        got = hamiltonian_field_generic(s, H, s.chart.point((1.0, 2.0, 3.0)))
        assert got == pytest.approx([0.0, -2.0, -3.0], abs=1e-12)

    def test_contact_h_p_is_unit_translation(self, rng):
        s = contact1()
        H = ScalarField.parse(s.chart, "p")
        for _ in range(5):
            pt = random_point(s.chart, rng)
            got = hamiltonian_field_generic(s, H, pt)
            assert got == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)

    def test_contact_oscillator(self):
        s = contact1()
        H = ScalarField.parse(s.chart, "(p^2 + q^2)/2")
        got = hamiltonian_field_generic(s, H, s.chart.point((1.0, 2.0, 0.0)))
        assert got == pytest.approx([2.0, -1.0, 1.5], abs=1e-12)

    def test_flat_equation_residual(self, rng):
        for name in CATALOG:
            s = builtin(name)
            H = random_polynomial(s.chart, rng)
            pt = random_point(s.chart, rng)
            X = hamiltonian_field_generic(s, H, pt)
            F = s.flat_matrix(pt)
            dH = H.gradient(pt.array, check_domain=False)
            R = reeb(s, pt)
            rhs = dH - (R @ dH + H.value(pt)) * s.theta_vector(pt)
            assert np.abs(F @ X - rhs).max() <= 1e-10

    def test_theta_contraction_is_minus_h(self, rng):
        for name in ("darboux_contact(2)", "xjt_gtacos", "xjt_contact", "heisenberg"):
            s = builtin(name)
            for _ in range(20):
                H = random_polynomial(s.chart, rng)
                pt = random_point(s.chart, rng)
                X = hamiltonian_field_generic(s, H, pt)
                assert float(X @ s.theta_vector(pt)) == pytest.approx(
                    -H.value(pt), abs=1e-9 * max(1.0, abs(H.value(pt)))
                )

    def test_dissipation_identity_pointwise(self, rng):
        for name in CATALOG:
            s = builtin(name)
            for _ in range(20):
                H = random_polynomial(s.chart, rng)
                pt = random_point(s.chart, rng)
                X = hamiltonian_field_generic(s, H, pt)
                dH = H.gradient(pt.array, check_domain=False)
                R = reeb(s, pt)
                assert abs(X @ dH + H.value(pt) * (R @ dH)) <= 1e-8


class TestHamiltonianFieldClosed:
    def test_coordinate_hamiltonian_q(self):
        spec = CanonicalThetaSpec(a=(0.0,), b=(0.0,), c=1.0)
        chart = darboux_chart(1)
        H = ScalarField.parse(chart, "q")
        co = hamiltonian_field_closed(spec, H, (0.7, -0.4, 0.2))
        assert co.A == pytest.approx([0.0])
        assert co.B == pytest.approx([-1.0])
        assert co.C == pytest.approx(-0.7)  # X_q = -d/dp - q d/dkappa

    def test_two_pair_example(self):
        spec = CanonicalThetaSpec(a=(1.0, 0.0), b=(0.0, 2.0), c=4.0)
        chart = darboux_chart(2)
        H = ScalarField.parse(chart, "kappa")
        co = hamiltonian_field_closed(spec, H, (0.0, 0.0, 0.0, 0.0, 5.0))
        assert co.A == pytest.approx([0.0, -0.5])
        assert co.B == pytest.approx([0.25, 0.0])
        assert co.C == pytest.approx(-1.25)

    def test_oracle_equivalence_sample(self, rng):
        for _ in range(40):
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
            tol = 1e-9 * np.maximum(1.0, np.abs(closed))
            assert np.all(np.abs(closed - generic) <= tol)

    def test_tacs_specialization_contracts_to_minus_h(self, rng):
        chart = darboux_chart(2)
        for epsilon in (-1.0, 0.5, 2.0):
            H = random_polynomial(chart, rng)
            pt = random_point(chart, rng)
            X = tacs_field(epsilon, H, pt)
            # theta = dkappa + eps p_i dq^i
            theta = np.zeros(5)
            theta[4] = 1.0
            theta[0] = epsilon * pt.values[2]
            theta[1] = epsilon * pt.values[3]
            assert float(X @ theta) == pytest.approx(
                -H.value(pt), abs=1e-9 * max(1.0, abs(H.value(pt)))
            )

    def test_tacs_convention_comparison_reports_discrepancy(self):
        cmp = tacs_convention_comparison(epsilon=0.5, n=1)
        report = cmp["report"](np.array([0.4, 0.7, 1.3]))
        assert report["X_q1"]["max_delta"] == pytest.approx(1.5 * 0.4)
        assert report["X_p1"]["max_delta"] == pytest.approx(1.5 * 0.7)
        assert report["X_kappa"]["max_delta"] == pytest.approx(1.5 * 1.3)
        # the conventions coincide exactly at epsilon = -1
        agree = tacs_convention_comparison(epsilon=-1.0, n=1)
        report = agree["report"](np.array([0.4, 0.7, 1.3]))
        assert all(entry["max_delta"] == 0.0 for entry in report.values())


class TestGradient:
    def test_contact_grad_kappa(self):
        s = contact1()
        H = ScalarField.parse(s.chart, "kappa")
        got = gradient_field(s, H, s.chart.point((0.0, 5.0, 2.0)))
        assert got == pytest.approx([0.0, -5.0, 1.0], abs=1e-12)

    def test_grad_of_constant_vanishes(self, rng):
        for name in CATALOG:
            s = builtin(name)
            H = ScalarField.constant(s.chart, 3.7)
            pt = random_point(s.chart, rng)
            assert gradient_field(s, H, pt) == pytest.approx(
                np.zeros(s.chart.dimension), abs=1e-13
            )

    def test_field_gradient_relation(self, rng):
        # X_H = grad H - (H + R(H)) R on every catalog structure
        for name in CATALOG:
            s = builtin(name)
            for _ in range(10):
                H = random_polynomial(s.chart, rng)
                pt = random_point(s.chart, rng)
                X = hamiltonian_field_generic(s, H, pt)
                G = gradient_field(s, H, pt)
                R = reeb(s, pt)
                RH = R @ H.gradient(pt.array, check_domain=False)
                residual = X - (G - (H.value(pt) + RH) * R)
                assert np.abs(residual).max() <= 1e-9


class TestEvolutionField:
    def test_zero_hamiltonian_gives_reeb(self, rng):
        s = builtin("darboux_cosymplectic(1)")
        H = ScalarField.constant(s.chart, 0.0)
        pt = random_point(s.chart, rng)
        assert evolution_field(s, H, pt) == pytest.approx(reeb(s, pt), abs=1e-12)

    def test_cosymplectic_q_evolution(self):
        s = builtin("darboux_cosymplectic(1)")
        H = ScalarField.parse(s.chart, "q")
        got = evolution_field(s, H, s.chart.point((0.0, 0.0, 0.0)))
        assert got == pytest.approx([0.0, -1.0, 1.0], abs=1e-12)

    def test_theta_contraction_is_one(self, rng):
        s = builtin("darboux_cosymplectic(2)")
        for _ in range(10):
            H = random_polynomial(s.chart, rng)
            pt = random_point(s.chart, rng)
            E = evolution_field(s, H, pt)
            assert float(E @ s.theta_vector(pt)) == pytest.approx(1.0, abs=1e-10)

    def test_requires_cosymplectic(self):
        s = contact1()
        H = ScalarField.parse(s.chart, "q")
        with pytest.raises(StructureError):
            evolution_field(s, H, s.chart.point((0.0, 0.0, 0.0)))


class TestBrackets:
    def test_canonical_pairs(self):
        chart = darboux_chart(2)
        at = chart.point((0.3, -0.4, 0.8, 1.2, 0.5))
        for i, qn in enumerate(("q1", "q2")):
            for j, pn in enumerate(("p1", "p2")):
                f = ScalarField.parse(chart, qn)
                g = ScalarField.parse(chart, pn)
                assert poisson_bracket(f, g, at) == (1.0 if i == j else 0.0)

    def test_antisymmetry_and_self_bracket(self, rng):
        chart = darboux_chart(1)
        for _ in range(10):
            f = random_polynomial(chart, rng)
            g = random_polynomial(chart, rng)
            at = random_point(chart, rng)
            assert poisson_bracket(f, f, at) == 0.0
            assert poisson_bracket(f, g, at) == pytest.approx(
                -poisson_bracket(g, f, at), abs=1e-12
            )
            assert jacobi_bracket(f, g, at) == pytest.approx(
                -jacobi_bracket(g, f, at), abs=1e-12
            )

    def test_quadratic_example(self):
        chart = darboux_chart(1)
        f = ScalarField.parse(chart, "q^2")
        g = ScalarField.parse(chart, "p")
        assert poisson_bracket(f, g, chart.point((3.0, 0.0, 0.0))) == 6.0

    def test_jacobi_bracket_reduces_to_poisson(self, rng):
        chart = darboux_chart(1)
        f = ScalarField.parse(chart, "q*p")  # kappa-independent
        g = ScalarField.parse(chart, "q^2 - p")
        at = random_point(chart, rng)
        assert jacobi_bracket(f, g, at) == pytest.approx(
            poisson_bracket(f, g, at), abs=1e-12
        )

    def test_jacobi_bracket_kappa_q(self):
        chart = darboux_chart(1)
        f = ScalarField.parse(chart, "kappa")
        g = ScalarField.parse(chart, "q")
        assert jacobi_bracket(f, g, chart.point((2.0, 0.0, 7.0))) == pytest.approx(-2.0)

    def test_euler_part_annihilates_pq(self):
        chart = darboux_chart(1)
        f = ScalarField.parse(chart, "p*q")
        assert euler_part(f).value((0.7, -0.9, 0.4)) == 0.0

    def test_matches_negated_alternative_form(self, rng):
        # {f, g} = -({g, f}_P + f_kappa g_e - g_kappa f_e)
        chart = darboux_chart(1)
        for _ in range(20):
            f = random_polynomial(chart, rng)
            g = random_polynomial(chart, rng)
            at = random_point(chart, rng)
            alt = (
                poisson_bracket(g, f, at)
                + f.partial("kappa").value(at) * euler_part(g).value(at)
                - g.partial("kappa").value(at) * euler_part(f).value(at)
            )
            assert jacobi_bracket(f, g, at) == pytest.approx(-alt, abs=1e-10)

    def test_jacobi_identity(self, rng):
        chart = darboux_chart(1)
        h = 1e-5

        def bracket_field(f, g):
            # field-valued bracket via symbolic pieces so nesting stays exact
            pb = f.partial("q") * g.partial("p") - g.partial("q") * f.partial("p")
            return pb + euler_part(f) * g.partial("kappa") - euler_part(g) * f.partial(
                "kappa"
            )

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
            assert abs(total) <= 1e-6

    @pytest.mark.parametrize("name", [
        "darboux_contact(1)", "darboux_contact(2)", "darboux_contact(3)",
        "heisenberg", "xjt_contact",
    ])
    def test_generic_bracket_factors_once_and_keeps_its_bits(self, name, rng, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        s = builtin(name)
        for _ in range(5):
            f = random_polynomial(s.chart, rng)
            g = random_polynomial(s.chart, rng)
            at = random_point(s.chart, rng)
            del calls[:]
            got = jacobi_bracket_generic(s, f, g, at)
            assert len(calls) == 1
            # The formula with two X_H solves and a separate Reeb solve.
            Xf = hamiltonian_field_generic(s, f, at)
            Xg = hamiltonian_field_generic(s, g, at)
            om = s.omega_matrix(at)
            R = reeb(s, at)
            Rg = R @ g.gradient(at)
            Rf = R @ f.gradient(at)
            assert got == float(Xf @ om @ Xg + f.value(at) * Rg - g.value(at) * Rf)

    def test_generic_bracket_agrees_on_darboux_chart(self, rng):
        s = contact1()
        for _ in range(10):
            f = random_polynomial(s.chart, rng)
            g = random_polynomial(s.chart, rng)
            at = random_point(s.chart, rng)
            assert jacobi_bracket_generic(s, f, g, at) == pytest.approx(
                jacobi_bracket(f, g, at), abs=1e-9
            )


class TestIntegrate:
    def test_kappa_independent_energy_is_conserved(self):
        s = contact1()
        H = ScalarField.parse(s.chart, "(p^2 + q^2)/2")
        traj = integrate(s, H, s.chart.point((1.0, 0.5, 0.0)), 1.0, 1e-3)
        assert traj.energy_drift() <= 1e-6

    def test_exponential_decay_closed_form(self):
        s = contact1()
        H = ScalarField.parse(s.chart, "kappa")
        traj = integrate(s, H, s.chart.point((0.0, 1.0, 1.0)), 1.0, 1e-3)
        expected = np.exp(-traj.times)
        assert np.abs(traj.states[:, 1] - expected).max() <= 1e-6  # p(t)
        assert np.abs(traj.states[:, 2] - expected).max() <= 1e-6  # kappa(t)

    def test_x0_is_read_by_the_point_rule(self):
        s = builtin("xjt_gtacos")
        H = ScalarField.parse(s.chart, "q^2 + p^2 + x^2 + (y-1)^2", s.params)
        x0 = (0.2, 1.0, 0.3, -0.2, 0.0)
        from_point = integrate(s, H, s.chart.point(x0), 0.1, 0.01, "rk4")
        from_tuple = integrate(s, H, x0, 0.1, 0.01, "rk4")
        assert from_tuple.states.tobytes() == from_point.states.tobytes()
        loose = Chart("loose", s.chart.coordinates).point((0.2, -1.0, 0.3, -0.2, 0.0))
        with pytest.raises(DomainError):
            integrate(s, H, loose, 0.1, 0.01, "rk4")

    def test_zero_hamiltonian_is_stationary(self):
        s = contact1()
        H = ScalarField.constant(s.chart, 0.0)
        traj = integrate(s, H, s.chart.point((0.3, -0.4, 0.9)), 0.5, 1e-2)
        assert np.abs(traj.states - traj.states[0]).max() == 0.0

    def test_zero_t_end_single_row(self):
        s = contact1()
        H = ScalarField.parse(s.chart, "kappa")
        traj = integrate(s, H, s.chart.point((0.1, 0.2, 0.3)), 0.0, 1e-2)
        assert len(traj.times) == 1
        assert traj.states[0] == pytest.approx([0.1, 0.2, 0.3])

    def test_rk4_matches_rk45(self):
        s = contact1()
        H = ScalarField.parse(s.chart, "kappa + (p^2 + q^2)/2")
        x0 = s.chart.point((0.4, -0.3, 0.2))
        a = integrate(s, H, x0, 1.0, 1e-3, method="rk4")
        b = integrate(s, H, x0, 1.0, 1e-3, method="adaptive-rk45")
        assert np.abs(a.states[-1] - b.states[-1]).max() <= 1e-8

    def test_domain_escape_truncates_with_diagnostic(self):
        s = builtin("xjt_gtacos")
        # H = x/y^2 gives y' = -1 along x = 0, so y = 0 is reached at t = 0.5
        H = ScalarField.parse(s.chart, "x/y^2")
        traj = integrate(s, H, s.chart.point((0.0, 0.5, 0.0, 0.0, 0.0)), 1.0, 0.01)
        assert traj.escaped
        assert "domain escape" in traj.diagnostic
        assert len(traj.times) < 60
        assert all(s.chart.contains(row) for row in traj.states)

    def test_dissipation_residual_tracks_law(self):
        s = contact1()
        H = ScalarField.parse(s.chart, "kappa")
        traj = integrate(s, H, s.chart.point((0.0, 1.0, 1.0)), 1.0, 1e-3)
        assert traj.max_dissipation_residual <= 1e-5

    def test_csv_schema(self, tmp_path):
        s = contact1()
        H = ScalarField.parse(s.chart, "kappa")
        traj = integrate(s, H, s.chart.point((0.0, 1.0, 1.0)), 0.01, 1e-3)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,q,p,kappa,H,dissipation_residual"


def _per_row_post_pass(spec, H, traj):
    """H values and dissipation residuals row by row with the pointwise
    reeb and gradient, and the scale of H R(H) along the rows."""
    t = traj.times
    h = np.array([H.value(row) for row in traj.states])
    rh = np.array([reeb(spec, row) @ H.gradient(row) for row in traj.states])
    out = np.zeros(len(t))
    for i in range(len(t) if len(t) > 1 else 0):
        lo, hi = max(i - 1, 0), min(i + 1, len(t) - 1)
        hdot = (h[hi] - h[lo]) / (t[hi] - t[lo])
        out[i] = abs(hdot + h[i] * rh[i])
    return h, out, max(1.0, np.abs(h).max() * max(1.0, np.abs(rh).max()))


class TestPostPass:
    """The post-pass evaluates H, dH and R at all stored rows at once; its
    results are those of the pointwise path."""

    def check(self, spec, H, traj):
        h, residuals, scale = _per_row_post_pass(spec, H, traj)
        assert traj.hamiltonian_values.tobytes() == h.tobytes()
        assert np.abs(traj.dissipation_residuals - residuals).max() <= 1e-14 * scale

    def test_callable_hamiltonian(self):
        s = contact1()
        H = ScalarField.from_callable(
            s.chart, lambda v: 0.5 * (v[0] ** 2 + v[1] ** 2) + 0.3 * v[2] ** 3
        )
        traj = integrate(s, H, s.chart.point((0.4, -0.3, 0.5)), 0.2, 1e-2)
        assert len(traj.times) == 21 and not traj.escaped
        self.check(s, H, traj)

    def test_zero_t_end_single_row(self):
        s = builtin("xjt_gtacos")
        H = ScalarField.parse(s.chart, "q^2 + p^2 + x^2 + (y-1)^2 + 0.5*kappa", s.params)
        traj = integrate(s, H, s.chart.point((0.2, 1.0, 0.3, -0.2, 0.1)), 0.0, 1e-2)
        assert len(traj.times) == 1
        assert traj.dissipation_residuals.tolist() == [0.0]
        self.check(s, H, traj)

    def test_escaped_trajectory(self):
        s = builtin("xjt_gtacos")
        H = ScalarField.parse(s.chart, "x/y^2")
        traj = integrate(s, H, s.chart.point((0.0, 0.5, 0.0, 0.0, 0.0)), 1.0, 0.01)
        assert traj.escaped and len(traj.times) == 50
        self.check(s, H, traj)

    def test_dense_rows(self):
        s = builtin("xjt_gtacos")
        H = ScalarField.parse(s.chart, "q^2 + p^2 + x^2 + (y-1)^2 + 0.5*kappa", s.params)
        traj = integrate(s, H, s.chart.point((0.2, 1.0, 0.3, -0.2, 0.0)), 1.0, 1e-3)
        assert len(traj.times) == 1001
        self.check(s, H, traj)


def _darboux_structure(theta, omega):
    chart = darboux_chart(1)
    return StructureSpec(
        "test", chart, KForm.one_form(chart, theta), KForm.two_form(chart, omega), 1
    )


# (theta, Omega, H, failing point); each fails at the point in one way.
FAILING = {
    "omega_divides_by_zero": ({"kappa": 1.0}, {"q,p": "1/q"}, "p^2", (0.0, 0.5, 0.1)),
    "hamiltonian_overflows": ({"kappa": 1.0}, {"q,p": 1.0}, "exp(p)*exp(p)", (0.0, 400.0, 0.1)),
    "theta_not_finite": ({"kappa": "exp(q)*exp(q)"}, {"q,p": 1.0}, "p^2", (400.0, 0.5, 0.1)),
    # theta vanishes at q = -1, where F is degenerate and H has no value
    # while dH does: the flat solve comes first, so a StructureError wins.
    "degenerate_where_h_fails": (
        {"kappa": "q + 1"}, {"q,p": 1.0}, "log(q) - log(q)", (-1.0, 0.5, 0.1)),
    # the same theta, where H has a value while dH divides by zero: the flat
    # solve still comes first.
    "degenerate_where_dh_fails": (
        {"kappa": "q + 1"}, {"q,p": 1.0}, "sqrt((q+1)^2)", (-1.0, 0.5, 0.1)),
}


def _error(fn, *args):
    with pytest.raises((EvalError, StructureError)) as err:
        fn(*args)
    return type(err.value), str(err.value)


class TestCompiledKernels:
    """integrate compiles theta, Omega, H and dH into kernels; values are
    those of the trees bit for bit, and where a kernel fails the point
    raises what walking the trees raises."""

    @staticmethod
    def compiled(theta, omega, source):
        s = _darboux_structure(theta, omega)
        H = ScalarField.parse(s.chart, source)
        assert s.kernel() is not None and H.kernel() is not None
        return s, H

    @pytest.mark.parametrize("case", sorted(FAILING))
    def test_a_failing_point_raises_the_tree_error(self, case):
        theta, omega, source, point = FAILING[case]
        s, H = self.compiled(theta, omega, source)
        fresh = _darboux_structure(theta, omega)
        fresh_H = ScalarField.parse(fresh.chart, source)
        assert s._kernel.finite_at(list(point)) is None or H._kernel.finite_at(list(point)) is None
        expected = _error(hamiltonian_field_generic, fresh, fresh_H, point)
        assert fresh._kernel is None and fresh_H._kernel is None
        assert _error(hamiltonian_field_generic, s, H, point) == expected
        # integrate fails at its first stage, an in-domain point.
        assert _error(integrate, s, H, s.chart.point(point), 0.1, 0.05, "rk4") == expected
        assert _error(integrate, fresh, fresh_H, fresh.chart.point(point), 0.1, 0.05) == expected
        # the bracket takes its steps in the same order
        assert _error(jacobi_bracket_generic, fresh, fresh_H, fresh_H, point) == expected
        if case.startswith("degenerate_where_"):
            assert expected[0] is StructureError
        if case == "theta_not_finite":
            assert "ScalarField(exp(q)*exp(q) on darboux1) is not finite" in expected[1]

    @pytest.mark.parametrize("case", sorted(FAILING))
    def test_a_failing_row_raises_the_tree_error(self, case):
        # with and without kernels, the post-pass fails at a row as the
        # right-hand side fails at that point
        theta, omega, source, point = FAILING[case]
        s, H = self.compiled(theta, omega, source)
        fresh = _darboux_structure(theta, omega)
        fresh_H = ScalarField.parse(fresh.chart, source)
        rows = np.array([(0.3, 0.2, 0.1), point, (0.5, -0.2, 0.4)])
        expected = _error(hamiltonian_field_generic, fresh, fresh_H, point)
        assert _error(dynamics._dissipation_rows, fresh, fresh_H, rows) == expected
        assert _error(dynamics._dissipation_rows, s, H, rows) == expected
        assert fresh._kernel is None and fresh_H._kernel is None

    @pytest.mark.parametrize("name", ["darboux_contact(3)", "xjt_gtacos", "heisenberg"])
    def test_compiled_values_are_the_tree_values(self, name, rng):
        compiled, fresh = builtin(name), builtin(name)
        H = random_polynomial(compiled.chart, rng, max_degree=3)
        H_fresh = ScalarField.from_expr(fresh.chart, H.expr, H.params)
        compiled.kernel()
        H.kernel()
        rows = np.array([random_point(compiled.chart, rng).array for _ in range(20)])
        for row in rows:
            got = hamiltonian_field_generic(compiled, H, row)
            assert got.tobytes() == hamiltonian_field_generic(fresh, H_fresh, row).tobytes()
            assert compiled._kernel.finite_at(row.tolist()) is not None
            th, om, _ = compiled.at(row)
            assert th.tobytes() == fresh.theta_vector(row).tobytes()
            assert om.tobytes() == fresh.omega_matrix(row).tobytes()
        for got, want in zip(dynamics._dissipation_rows(compiled, H, rows),
                             dynamics._dissipation_rows(fresh, H_fresh, rows)):
            assert got.tobytes() == want.tobytes()
        assert fresh._kernel is None and H_fresh._kernel is None

    def test_only_integrate_builds_kernels(self, rng):
        s = builtin("xjt_gtacos")
        H = ScalarField.parse(s.chart, "q^2 + p^2 + x^2 + (y-1)^2", s.params)
        pt = s.chart.point((0.2, 1.0, 0.3, -0.2, 0.0))
        hamiltonian_field_generic(s, H, pt)
        gradient_field(s, H, pt)
        reeb(s, pt)
        s.classification()
        jacobi_bracket_generic(s, H, H, pt)
        assert s._kernel is None and H._kernel is None
        integrate(s, H, pt, 0.05, 0.01, "rk4")
        assert s._kernel is not None and H._kernel is not None

    def test_callable_fields_keep_the_tree_walk(self):
        s = contact1()
        H = ScalarField.from_callable(s.chart, lambda v: 0.5 * (v[0] ** 2 + v[1] ** 2))
        traj = integrate(s, H, s.chart.point((0.4, -0.3, 0.5)), 0.1, 1e-2)
        assert H.kernel() is None
        value, grad = H.at([0.4, -0.3, 0.5])
        assert value == H.value([0.4, -0.3, 0.5])
        assert grad.tobytes() == H.gradient([0.4, -0.3, 0.5]).tobytes()
        assert len(traj.times) == 11
        # theta and Omega still come from the structure's kernel, bit for bit.
        assert s._kernel is not None
        fresh = contact1()
        for row in traj.states:
            got = hamiltonian_field_generic(s, H, row)
            assert got.tobytes() == hamiltonian_field_generic(fresh, H, row).tobytes()
        for got, want in zip(dynamics._dissipation_rows(s, H, traj.states),
                             dynamics._dissipation_rows(fresh, H, traj.states)):
            assert got.tobytes() == want.tobytes()
        assert fresh._kernel is None
