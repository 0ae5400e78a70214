import math
import warnings

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from conftest import random_point, random_polynomial
from cosym import dynamics
from cosym.charts import Chart, ChartMismatchError, DomainError, Guard, ScalarField
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
from cosym.jacobi_flows import LinearHamiltonianCoefficients, integrate_variant, split_energy
from cosym.manifolds import CATALOG, CHART_XJT, ModelParameters, builtin
from cosym.expressions import EvalError, Kernel
from cosym.forms import KForm
from cosym.structures import (
    CanonicalThetaSpec,
    StructureError,
    StructureSpec,
    darboux_chart,
    reeb,
    sharp,
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
            dH = H.gradient(pt)
            R = reeb(s, pt)
            rhs = dH - (R @ dH + H.value(pt)) * s.at(pt)[0]
            assert np.abs(F @ X - rhs).max() <= 1e-10

    def test_theta_contraction_is_minus_h(self, rng):
        for name in ("darboux_contact(2)", "xjt_gtacos", "xjt_contact", "heisenberg"):
            s = builtin(name)
            for _ in range(20):
                H = random_polynomial(s.chart, rng)
                pt = random_point(s.chart, rng)
                X = hamiltonian_field_generic(s, H, pt)
                assert float(X @ s.at(pt)[0]) == pytest.approx(
                    -H.value(pt), abs=1e-9 * max(1.0, abs(H.value(pt)))
                )

    def test_dissipation_identity_pointwise(self, rng):
        for name in CATALOG:
            s = builtin(name)
            for _ in range(20):
                H = random_polynomial(s.chart, rng)
                pt = random_point(s.chart, rng)
                X = hamiltonian_field_generic(s, H, pt)
                dH = H.gradient(pt)
                R = reeb(s, pt)
                assert abs(X @ dH + H.value(pt) * (R @ dH)) <= 1e-8

    @pytest.mark.parametrize("kept", [False, True])
    def test_an_h_on_another_chart_is_refused(self, kept):
        # both readers of H: the joint read of the two kept kernels, and
        # the tree walk, whose env would take the first 3 of 5 coordinates
        s = builtin("darboux_contact(2)")
        H = ScalarField.parse(contact1().chart, "q^2 + p^2 + kappa")
        if kept:
            s.kernel()
            H.kernel()
        with pytest.raises(ChartMismatchError) as err:
            hamiltonian_field_generic(s, H, (0.1, 0.2, 0.3, 0.4, 0.5))
        assert str(err.value) == "field on chart 'darboux1' used with chart 'darboux2'"


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

    def test_reads_h_through_one_at_call_bit_for_bit(self, rng, monkeypatch):
        cases = []
        for _ in range(20):
            n = int(rng.integers(1, 4))
            spec = CanonicalThetaSpec(
                a=tuple(rng.uniform(-2, 2, n)),
                b=tuple(rng.uniform(-2, 2, n)),
                c=float(rng.uniform(0.5, 3.0)),
            )
            H = random_polynomial(darboux_chart(n), rng)
            cases.append((spec, H, random_point(H.chart, rng)))
        # The coefficients from H's gradient and then its value.
        wants = []
        for spec, H, pt in cases:
            n = spec.n
            dH, h = H.gradient(pt), H.value(pt)
            a, b = np.asarray(spec.a), np.asarray(spec.b)
            RH = dH[2 * n] / spec.c
            wants.append(np.concatenate([
                dH[n : 2 * n] - b * RH,
                -dH[:n] + a * RH,
                [(-(a @ dH[n : 2 * n]) + b @ dH[:n] - h) / spec.c],
            ]))
        calls = []
        for name in ("at", "value", "gradient"):
            method = getattr(ScalarField, name)
            monkeypatch.setattr(
                ScalarField, name,
                lambda self, *a, _n=name, _m=method, **k: calls.append(_n) or _m(self, *a, **k),
            )
        for (spec, H, pt), want in zip(cases, wants):
            for kept_kernel in (False, True):
                if kept_kernel:
                    H.kernel()
                del calls[:]
                got = hamiltonian_field_closed(spec, H, pt).vector()
                assert calls == ["at"]
                assert got.tobytes() == want.tobytes()

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
                RH = R @ H.gradient(pt)
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
            assert float(E @ s.at(pt)[0]) == pytest.approx(1.0, abs=1e-10)

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

    @pytest.mark.parametrize("kept_kernels", [False, True])
    def test_jacobi_bracket_equals_the_euler_part_formula_bit_for_bit(
        self, kept_kernels, rng
    ):
        def fields(chart):
            yield ScalarField.constant(chart, 0.0), random_polynomial(chart, rng)
            yield ScalarField.constant(chart, -1.5), random_polynomial(chart, rng)
            p_free = " - ".join(c for c in chart.coordinates if not c.startswith("p"))
            yield ScalarField.parse(chart, "-" + p_free), random_polynomial(chart, rng)
            for _ in range(100):
                yield random_polynomial(chart, rng), random_polynomial(chart, rng)

        for n in (1, 2, 3):
            chart = darboux_chart(n)
            for f, g in fields(chart):
                at = random_point(chart, rng)
                if kept_kernels:
                    f.kernel()
                    g.kernel()
                for pt in (at, chart.point(np.zeros(chart.dimension))):
                    for a, b in ((f, g), (g, f)):
                        got, want = jacobi_bracket(a, b, pt), _jacobi_by_euler_fields(a, b, pt)
                        assert type(got) is float
                        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_jacobi_bracket_builds_no_field_and_walks_each_tree_once(
        self, rng, monkeypatch
    ):
        built = []
        init = ScalarField.__init__
        monkeypatch.setattr(
            ScalarField, "__init__",
            lambda self, *a, **k: built.append(1) or init(self, *a, **k),
        )
        walks = []
        at = ScalarField.at
        monkeypatch.setattr(
            ScalarField, "at", lambda self, *a, **k: walks.append(self) or at(self, *a, **k)
        )
        for n in (1, 2, 3):
            chart = darboux_chart(n)
            f = random_polynomial(chart, rng)
            g = random_polynomial(chart, rng)
            pt = random_point(chart, rng)
            del built[:], walks[:]
            jacobi_bracket(f, g, pt)
            assert built == []
            assert walks == [f, g]

    def test_a_non_finite_bracket_raises_naming_the_point(self):
        chart = darboux_chart(1)
        f = ScalarField.parse(chart, "1e200*q")
        g = ScalarField.parse(chart, "1e200*p")
        at = (0.1, 0.2, 0.3)
        with pytest.raises(EvalError) as err:
            poisson_bracket(f, g, at)
        assert str(err.value) == "Poisson bracket is not finite at [0.1, 0.2, 0.3]: inf"
        with pytest.raises(EvalError) as err:
            jacobi_bracket(f, g, at)
        assert str(err.value) == "Jacobi bracket is not finite at [0.1, 0.2, 0.3]: inf"
        # f and its gradient are finite, p df/dp overflows
        f = ScalarField.parse(chart, "1e300*p^2")
        with pytest.raises(EvalError) as err:
            jacobi_bracket(f, g, (0.0, 1e4, 0.0))
        assert str(err.value) == (
            "Euler part of ScalarField(1e300*p^2 on darboux1) is not finite"
            " at [0.0, 10000.0, 0.0]: -inf"
        )

    @pytest.mark.parametrize("name", [
        "darboux_contact(1)", "darboux_contact(2)", "darboux_contact(3)",
        "heisenberg", "xjt_contact",
    ])
    def test_generic_bracket_certifies_once_and_keeps_its_bits(self, name, rng, monkeypatch):
        calls = []

        def spy(module, name):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, **k: calls.append(name) or real(*a, **k))

        spy(np.linalg, "svd")  # a point's SVD, or any other
        spy(_umath_linalg, "det")  # a point's certificate
        spy(_umath_linalg, "solve1")  # one LU solve per right-hand side
        s = builtin(name)
        for _ in range(5):
            f = random_polynomial(s.chart, rng)
            g = random_polynomial(s.chart, rng)
            at = random_point(s.chart, rng)
            del calls[:]
            got = jacobi_bracket_generic(s, f, g, at)
            # one certificate, then R, X_f and X_g
            assert calls == ["det", "solve1", "solve1", "solve1"]
            # The formula with two X_H solves and a separate Reeb solve.
            Xf = hamiltonian_field_generic(s, f, at)
            Xg = hamiltonian_field_generic(s, g, at)
            om = s.at(at)[1]
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


def _jacobi_by_euler_fields(f, g, at):
    """{f,g}_P + f_e dg/dkappa - g_e df/dkappa from the symbolic Euler-part
    and kappa-partial fields, each evaluated on its own."""
    point = f.chart.point(at)
    pb = poisson_bracket(f, g, point)
    fe = euler_part(f).value(point)
    ge = euler_part(g).value(point)
    fk = f.partial("kappa").value(point)
    gk = g.partial("kappa").value(point)
    return pb + fe * gk - ge * fk


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

    @pytest.mark.parametrize("method", ["rk4", "adaptive-rk45"])
    def test_an_h_on_another_chart_is_refused_before_any_work(self, method):
        s = builtin("darboux_contact(2)")
        H = ScalarField.parse(contact1().chart, "q^2 + p^2 + kappa")
        with pytest.raises(ChartMismatchError) as err:
            integrate(s, H, (0.1, 0.2, 0.3, 0.4, 0.5), 0.1, 0.01, method)
        assert str(err.value) == "field on chart 'darboux1' used with chart 'darboux2'"
        assert s._kernel is None and H._kernel is None  # nothing was compiled

    @pytest.mark.parametrize("method", ["rk4", "adaptive-rk45"])
    def test_a_non_finite_x0_is_refused(self, method):
        # not 11 NaN rows with escaped False
        s = builtin("xjt_gtacos")
        H = ScalarField.parse(s.chart, "x^2")
        with pytest.raises(DomainError) as err:
            integrate(s, H, [0, 1, 0, 0, math.nan], 1.0, 0.1, method)
        assert str(err.value) == "point is not finite on chart 'xjt' (got kappa = nan)"

    def test_zero_hamiltonian_is_stationary(self):
        s = contact1()
        H = ScalarField.constant(s.chart, 0.0)
        traj = integrate(s, H, s.chart.point((0.3, -0.4, 0.9)), 0.5, 1e-2)
        assert np.abs(traj.states - traj.states[0]).max() == 0.0

    def test_zero_t_end_single_row(self):
        s = contact1()
        H = ScalarField.parse(s.chart, "kappa")
        pt = s.chart.point((0.1, 0.2, 0.3))
        traj = integrate(s, H, pt, 0.0, 1e-2)
        assert len(traj.times) == 1
        assert traj.states[0] == pytest.approx([0.1, 0.2, 0.3])
        # the row is the flow's own array, not the point's read-only one
        traj.states[0, 0] = 5.0
        assert pt.array[0] == 0.1

    @pytest.mark.parametrize("method", ["rk4", "adaptive-rk45"])
    @pytest.mark.parametrize("t_end, dt, rows", [
        (0.8, 0.5, 2), (0.7, 0.5, 2), (1.0, 0.3, 4),
        (1.0, 1e-3, 1001), (1.0, 0.01, 101), (0.2, 0.01, 21),
    ])
    def test_the_grid_ends_at_the_last_dt_multiple_within_t_end(self, method, t_end, dt, rows):
        # n is the largest count with n dt <= t_end; a t_end/dt that is an
        # integer up to rounding (0.2/0.01) keeps its last row
        s = contact1()
        H = ScalarField.parse(s.chart, "kappa")
        traj = integrate(s, H, (0.0, 1.0, 1.0), t_end, dt, method=method)
        np.testing.assert_array_equal(traj.times, np.linspace(0.0, (rows - 1) * dt, rows))
        assert len(traj.states) == rows and not traj.escaped
        if (t_end, dt) == (0.8, 0.5):
            assert traj.times.tolist() == [0.0, 0.5]  # not [0, 0.5, 1.0], past t_end

    def test_to_json_refuses_a_non_finite_number_and_writes_nothing(self, tmp_path):
        # H R(H) overflows at every row: the residuals are inf
        s = builtin("darboux_cosymplectic")
        H = ScalarField.parse(s.chart, "1e155*kappa")
        with np.errstate(over="ignore", invalid="ignore"):
            traj = integrate(s, H, (0.0, 0.0, 1.0), 1e-300, 1e-301, method="rk4")
        with pytest.raises(EvalError, match='^"dissipation_residuals" is not finite: inf$'):
            traj.to_json(tmp_path / "f.json")
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize(
        "t_end, dt", [(np.inf, 1e-2), (np.nan, 1e-2), (1.0, np.nan), (1.0, np.inf)]
    )
    def test_non_finite_t_end_or_dt_is_a_value_error(self, t_end, dt):
        s = contact1()
        H = ScalarField.parse(s.chart, "kappa")
        with pytest.raises(ValueError, match="t_end and dt must be finite"):
            integrate(s, H, (0.1, 0.2, 0.3), t_end, dt)

    @pytest.mark.parametrize("method", ["rk4", "adaptive-rk45"])
    @pytest.mark.parametrize("t_end, dt", [(1.0, 1e-12), (1.0, 1e-300), (1e10, 1e-300)])
    def test_a_grid_beyond_the_step_bound_is_refused_before_it_is_built(self, t_end, dt, method):
        s = contact1()
        H = ScalarField.parse(s.chart, "kappa")
        with pytest.raises(ValueError, match=r"grid rows; t_end/dt is at most 1000000$"):
            integrate(s, H, (0.1, 0.2, 0.3), t_end, dt, method=method)

    def test_the_grid_bound_is_on_t_end_over_dt(self, monkeypatch):
        s = contact1()
        H = ScalarField.parse(s.chart, "kappa")
        monkeypatch.setattr(dynamics, "MAX_GRID_STEPS", 10)
        assert len(integrate(s, H, (0.1, 0.2, 0.3), 1.0, 0.1, method="rk4").times) == 11
        with pytest.raises(ValueError, match=r"t_end/dt = 10\.1 asks for 11\.1 grid rows"):
            integrate(s, H, (0.1, 0.2, 0.3), 1.01, 0.1, method="rk4")

    def test_rk45_refuses_an_rtol_below_scipys_floor(self):
        s = contact1()
        H = ScalarField.parse(s.chart, "kappa")
        for rtol in (0.0, -1.0, 1e-15):
            with pytest.raises(ValueError, match=r"rtol must be at least 100 \* eps"):
                integrate(s, H, (0.1, 0.2, 0.3), 0.01, 0.001, rtol=rtol)
        # RK4 does not read rtol
        traj = integrate(s, H, (0.1, 0.2, 0.3), 0.01, 0.001, method="rk4", rtol=0.0)
        assert len(traj.times) == 11

    def test_rk45_refuses_an_atol_that_is_not_positive(self):
        s = contact1()
        H = ScalarField.parse(s.chart, "kappa")
        for atol in (0.0, -1.0, math.nan):
            for t_end in (0.0, 0.01):  # before any work, as for rtol
                with pytest.raises(ValueError, match=r"^`atol` must be positive\.$"):
                    integrate(s, H, (0.1, 0.0, 0.3), t_end, 0.001, atol=atol)
        # RK4 does not read atol
        traj = integrate(s, H, (0.1, 0.0, 0.3), 0.01, 0.001, method="rk4", atol=0.0)
        assert len(traj.times) == 11

    def test_rk45_refuses_an_infinite_rtol_or_atol(self):
        # rtol = inf at a zero coordinate makes the error scale 0 * inf = NaN,
        # as an atol of 0 makes it 0
        s = builtin("xjt_gtacos")
        H = ScalarField.parse(s.chart, "x^2+y")
        x0 = (0.1, 1.0, 0.2, 0.0, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for tols in ({"rtol": math.inf}, {"atol": math.inf}, {"rtol": 1e-9, "atol": math.inf},
                         {"rtol": math.inf, "atol": math.inf}):
                for t_end in (0.0, 0.1):  # before any work, as for rtol and atol
                    with pytest.raises(ValueError, match=(
                            r"^rtol and atol must be finite for adaptive-rk45, got ")):
                        integrate(s, H, x0, t_end, 0.01, **tols)
        # RK4 reads neither
        traj = integrate(s, H, x0, 0.1, 0.01, method="rk4", rtol=math.inf, atol=math.inf)
        assert len(traj.times) == 11

    def test_non_finite_right_hand_side_in_the_domain_is_an_eval_error(self):
        # u' = 1 until u reaches 0.25, then NaN: neither stepper rejects it
        chart = Chart("line", ("u",))
        rhs = lambda y: np.array([1.0 if y[0] < 0.25 else np.nan])  # noqa: E731
        for method in ("rk4", "adaptive-rk45"):
            with pytest.raises(EvalError, match=r"not finite at t=0\.2\d*, state \[0\.2\d*\]"):
                dynamics._step(rhs, chart, (0.0,), 1.0, 0.1, method, 1e-9, 1e-9)

    def test_non_finite_right_hand_side_outside_the_domain_is_an_escape(self):
        chart = Chart("line", ("u",), (Guard("u", 0.5, upper=True),))
        rhs = lambda y: np.array([1.0 if y[0] < 0.5 else np.nan])  # noqa: E731
        for method in ("rk4", "adaptive-rk45"):
            flow = dynamics._step(rhs, chart, (0.0,), 1.0, 0.1, method, 1e-9, 1e-9)
            assert flow.escaped and flow.diagnostic.startswith("domain escape")
            assert len(flow.times) == len(flow.states) == 5
            assert np.abs(flow.states[:, 0] - flow.times).max() <= 1e-12

    @pytest.mark.parametrize("recorded, kept", [
        ([[0.1, 0.2], [0.3, 1.0], [0.5, 0.9], [0.7, -3.0]], 4),
        ([[0.1, 0.2], [0.3, 1.0], [0.5, np.nan], [0.7, 0.5]], 2),
        ([[0.1, 0.2], [0.3, 1.5], [-0.5, 0.9], [0.7, 0.5]], 1),
        ([[0.0, 0.2], [0.3, 1.0], [0.5, 0.9], [0.7, 0.5]], 0),
    ])
    def test_rk45_keeps_the_recorded_states_before_the_first_refused_row(
        self, recorded, kept, monkeypatch
    ):
        chart = Chart("plane", ("u", "v"), (Guard("u", 0.0), Guard("v", 1.0, False, True)))
        recorded = np.array(recorded)
        stepper = dynamics._rk45

        def recording(fun, y, t_eval, *args):
            # the package's stepper runs, and its rows are the recorded ones,
            # Fortran-ordered as its own are
            rows, status, root = stepper(fun, y, t_eval, *args)
            assert rows.shape == recorded.shape and (status, root) == (0, None)
            return np.asfortranarray(recorded), status, root

        monkeypatch.setattr(dynamics, "_rk45", recording)
        x0 = (0.1, 0.2)
        flow = dynamics._step(lambda y: y, chart, x0, 0.3, 0.1, "adaptive-rk45", 1e-9, 1e-9)
        # the reference: chart.contains row by row, up to the first refused row
        assert all(chart.contains(row) for row in recorded[:kept])
        assert kept == len(recorded) or not chart.contains(recorded[kept])
        np.testing.assert_array_equal(flow.states, recorded[:kept] if kept else [x0])
        assert flow.states.flags.c_contiguous and len(flow.times) == len(flow.states)
        assert (flow.escaped, flow.diagnostic) == (
            (False, "") if kept == len(recorded) else (True, "domain escape on recorded state")
        )

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

    # H = x/y^2 on xjt_gtacos drives y from 0.5 onto the guard y = 0 by
    # t = 0.5: (rows, diagnostic, repr of the least y) per (method, t_end).
    # Runge-Kutta stages past the guard are evaluated, not refused; refusing
    # them moves the RK45 run to t_end = 1 onto the t_end = 0.5 figures.
    ESCAPES = {
        ("adaptive-rk45", 1.0): (50, "domain escape near t=0.5", "0.009999999999999953"),
        ("adaptive-rk45", 0.5): (50, "domain escape near t=0.5", "0.009999999999999898"),
        ("rk4", 1.0): (50, "domain escape at t=0.5", "0.009999999999999787"),
        ("rk4", 0.5): (50, "domain escape at t=0.5", "0.009999999999999787"),
    }

    @pytest.mark.parametrize("method, t_end", sorted(ESCAPES))
    def test_stages_past_the_guard_are_evaluated(self, method, t_end):
        s = builtin("xjt_gtacos")
        H = ScalarField.parse(s.chart, "x/y^2")
        traj = integrate(s, H, (0.0, 0.5, 0.0, 0.0, 0.0), t_end, 0.01, method=method)
        assert traj.escaped
        got = (len(traj.times), traj.diagnostic, repr(float(traj.states[:, 1].min())))
        assert got == self.ESCAPES[method, t_end]


def scipy_rk45(fun, y, t_eval, rtol, atol, guards):
    """``dynamics._rk45`` by scipy 1.17.1's ``solve_ivp``: RK45 with one
    terminal event per guard, falling through zero, as the package flowed
    before it stepped RK45 itself."""
    from scipy.integrate import solve_ivp

    events = []
    for i, bound, sign in guards:
        def event(t, y, i=i, bound=bound, sign=sign):
            return (y[i] - bound) * sign

        event.terminal, event.direction = True, -1.0
        events.append(event)
    sol = solve_ivp(fun, (0.0, float(t_eval[-1])), y, method="RK45", t_eval=t_eval,
                    rtol=rtol, atol=atol, events=events)
    assert sol.status != -1 or sol.message == dynamics.TOO_SMALL_STEP
    hits = [te[0] for te in sol.t_events if len(te)]
    rows = np.asarray(sol.y, dtype=float).reshape(len(y), -1).T
    return rows, sol.status, min(hits) if hits else None


def rejected_steps(fun, y, t_end, rtol, atol) -> int:
    """Rejected steps of scipy's RK45 from y over [0, t_end]: each attempt
    costs 6 right-hand sides, and the start 2."""
    from scipy.integrate import RK45

    solver = RK45(fun, 0.0, np.asarray(y, dtype=float), t_end, rtol=rtol, atol=atol)
    steps = 0
    while solver.status == "running":
        solver.step()
        steps += 1
    return (solver.nfev - 2) // 6 - steps


class TestRK45IsScipys:
    """The package's Dormand-Prince stepper gives what scipy 1.17.1's
    ``solve_ivp`` gave, bit for bit: the same right-hand-side calls at the
    same stage times and states, and the same rows, diagnostics and
    errors."""

    def same(self, monkeypatch, flow):
        """flow() with the package's stepper and with scipy's: the same
        outcome, bit for bit (every field of a flow record), and the same
        RHS calls (time and state bytes, in order) and run endings (status
        and crossing time).  Returns the outcome and the number of calls and
        endings."""
        out = []
        for stepper in (dynamics._rk45, scipy_rk45):
            calls = []

            def counted(fun, *args, stepper=stepper):
                def f(t, y):
                    calls.append((float(t), y.tobytes()))
                    return fun(t, y)

                rows, status, root = stepper(f, *args)
                calls.append((status, root))
                return rows, status, root

            monkeypatch.setattr(dynamics, "_rk45", counted)
            try:
                got = flow()
            except (ValueError, ArithmeticError) as exc:
                got = "%s: %s" % (type(exc).__name__, exc)
            fields = vars(got).values() if isinstance(got, dynamics.Flow) else got
            key = got if isinstance(got, str) else [
                v.tobytes() if isinstance(v, np.ndarray) else v for v in fields]
            out.append((got, key, calls))
        (mine, my_key, my_calls), (_, ref_key, ref_calls) = out
        assert my_calls == ref_calls
        assert my_key == ref_key
        return mine, len(my_calls)

    def same_flow(self, monkeypatch, spec, H, x0, t_end, dt, **tol):
        def flow():
            traj = integrate(spec, H, x0, t_end, dt, **tol)
            return (traj.times, traj.states, traj.hamiltonian_values,
                    traj.dissipation_residuals, traj.escaped, traj.diagnostic)

        return self.same(monkeypatch, flow)

    @pytest.mark.parametrize("index", range(6))
    def test_flow_dense_ops(self, monkeypatch, index):
        # README's H, conserved twice and then with 0.5 kappa, from seeded
        # points as the flow_dense benchmark draws them
        spec = builtin("xjt_gtacos")
        source = "q^2 + p^2 + x^2 + (y-1)^2" + (" + 0.5*kappa" if index % 3 == 2 else "")
        H = ScalarField.parse(spec.chart, source, spec.params)
        rng = np.random.default_rng([2718, index])
        x0 = rng.uniform(-0.5, 0.5, 5)
        x0[1] = rng.uniform(0.7, 1.5)
        traj, calls = self.same_flow(monkeypatch, spec, H, x0, 1.0, 1e-3)
        assert len(traj[0]) == 1001 and not traj[4]

    @pytest.mark.parametrize("tol", [1e-9, 1e-3])
    def test_a_dissipative_flow_on_a_contact_chart_with_a_rejected_step(self, monkeypatch, tol):
        spec = builtin("darboux_contact")
        H = ScalarField.parse(spec.chart, "sin(3*q) + cos(p)*kappa")
        x0 = (0.3, 0.5, 0.7)
        spec.kernel()
        H.kernel()
        fun = lambda t, y: hamiltonian_field_generic(spec, H, y, check_domain=False)  # noqa: E731
        assert rejected_steps(fun, x0, 2.0, tol, tol) >= 1
        traj, _ = self.same_flow(monkeypatch, spec, H, x0, 2.0, 0.01, rtol=tol, atol=tol)
        assert len(traj[0]) == 201 and np.ptp(traj[2]) > 0.1

    @pytest.mark.parametrize("t_end", [1.0, 0.5])
    def test_the_escape_by_a_guard_crossing(self, monkeypatch, t_end):
        # the ESCAPES flow of TestIntegrate; at t_end = 1 a step crosses
        # y = 0, and brentq finds the time on the step's interpolant
        import scipy.optimize

        roots = []
        brentq = scipy.optimize.brentq
        monkeypatch.setattr(scipy.optimize, "brentq",
                            lambda *a, **k: roots.append(brentq(*a, **k)) or roots[-1])
        spec = builtin("xjt_gtacos")
        H = ScalarField.parse(spec.chart, "x/y^2")
        traj, _ = self.same_flow(monkeypatch, spec, H, (0.0, 0.5, 0.0, 0.0, 0.0), t_end, 0.01)
        assert traj[4] and traj[5].startswith("domain escape near t=")
        if t_end == 1.0:
            assert len(roots) == 2 and roots[0] == roots[1]  # once each way

    def test_a_stage_escape_restarts_before_the_stage(self, monkeypatch):
        chart = Chart("line", ("u",), (Guard("u", 0.5, upper=True),))
        rhs = lambda y: np.array([1.0 if y[0] < 0.5 else np.nan])  # noqa: E731
        out, calls = self.same(monkeypatch, lambda: dynamics._step(
            rhs, chart, (0.0,), 1.0, 0.1, "adaptive-rk45", 1e-9, 1e-9))
        assert out.escaped and len(out.times) == 5
        assert calls > 2 * 2  # two runs: the escape and the restart

    def test_a_stage_escape_before_the_first_grid_time(self, monkeypatch):
        # the restart has t = 0 alone to reach: no step, the constant row
        chart = Chart("line", ("u",), (Guard("u", 0.05, upper=True),))
        rhs = lambda y: np.array([1.0 if y[0] < 0.05 else np.nan])  # noqa: E731
        out, _ = self.same(monkeypatch, lambda: dynamics._step(
            rhs, chart, (0.0,), 1.0, 0.1, "adaptive-rk45", 1e-9, 1e-9))
        assert out.states.tolist() == [[0.0]] and out.escaped

    @pytest.mark.parametrize("x0", [0.0, 0.3])
    def test_a_start_on_a_closed_guard(self, monkeypatch, x0):
        # u >= 0 holds at u = 0, and the flow leaves through it: a crossing
        # at t = 0 from the bound, or one timed by brentq from inside
        chart = Chart("line", ("u",), (Guard("u", 0.0, strict=False),))
        out, _ = self.same(monkeypatch, lambda: dynamics._step(
            lambda y: np.array([-1.0]), chart, (x0,), 1.0, 0.1, "adaptive-rk45", 1e-9, 1e-9))
        assert out.diagnostic == "domain escape near t=%g" % x0

    def test_a_guard_crossed_on_a_curved_path(self, monkeypatch):
        # u = 0.5 cos t + sin t reaches the guard u < 1 at t = 0.6435: brentq
        # iterates on the step's quartic interpolant
        chart = Chart("oscillator", ("u", "v"), (Guard("u", 1.0, upper=True),))
        out, _ = self.same(monkeypatch, lambda: dynamics._step(
            lambda y: np.array([y[1], -y[0]]), chart, (0.5, 1.0), 3.0, 0.1,
            "adaptive-rk45", 1e-9, 1e-9))
        assert out.diagnostic == "domain escape near t=0.643501" and len(out.times) == 7

    def test_a_jump_in_the_right_hand_side(self, monkeypatch):
        # u' jumps from 1 to 100 at u = 0.5: steps across it have error norms
        # up to 1e9 and shrink by the least factor, 0.2, until one passes
        out, calls = self.same(monkeypatch, lambda: dynamics._step(
            lambda y: np.array([1.0 if y[0] < 0.5 else 100.0]), Chart("line", ("u",)), (0.0,),
            1.0, 0.1, "adaptive-rk45", 1e-9, 1e-9))
        assert not out.escaped and len(out.times) == 11 and calls > 100

    def test_integrate_variant(self, monkeypatch):
        coeffs = LinearHamiltonianCoefficients(a=0.1, b=-0.2, c_lin=0.3, m=0.2, n_lin=-0.1)
        model = split_energy(coeffs, ModelParameters())
        x0 = CHART_XJT.point((0.1, 1.1, 0.2, -0.1, 0.05))
        for variant in ("base_xj1", "gtacos", "contact"):
            traj, _ = self.same(monkeypatch, lambda: integrate_variant(model, variant, x0, 0.5, 0.01))
            assert len(traj.times) == 51

    def test_the_step_bound_ends_a_stiff_flow_with_scipys_rows_up_to_it(self, monkeypatch):
        # y' = -100 y at rtol = atol = 1e-9 takes between 100 and 200 steps
        # to t = 1; a bound of 100 steps stops it past t = 0.5
        monkeypatch.setattr(dynamics, "RK45_MIN_STEPS", 100)
        monkeypatch.setattr(dynamics, "RK45_STEPS_PER_ROW", 1)
        fun = lambda t, y: -100.0 * y  # noqa: E731
        t_eval = np.linspace(0.0, 1.0, 11)
        rows, status, t_reached = dynamics._rk45(fun, np.array([1.0]), t_eval, 1e-9, 1e-9, [])
        ref_rows, ref_status, _ = scipy_rk45(fun, np.array([1.0]), t_eval, 1e-9, 1e-9, [])
        assert (status, ref_status) == (2, 0) and 0.5 < t_reached < 0.6
        assert len(rows) == 6 and len(ref_rows) == 11
        assert rows.tobytes() == ref_rows[:len(rows)].tobytes()
        flow = dynamics._step(lambda y: -100.0 * y, Chart("line", ("u",)), (1.0,), 1.0, 0.1,
                              "adaptive-rk45", 1e-9, 1e-9)
        assert flow.escaped and flow.states.tobytes() == rows.tobytes()
        assert flow.diagnostic == ("RK45 took its bound of 100 steps (accepted and rejected) "
                                   "for 11 grid rows and stopped at t=%g" % t_reached)

    def test_a_step_below_ten_ulps_ends_the_flow(self, monkeypatch):
        # u' = u^2 from 1 blows up at t = 1: the steps shrink below ten ulps
        # of t first, where scipy stops with its message
        out, _ = self.same(monkeypatch, lambda: dynamics._step(
            lambda y: y * y, Chart("line", ("u",)), (1.0,), 2.0, 0.1, "adaptive-rk45", 1e-9, 1e-9))
        assert (out.escaped, out.diagnostic) == (True, dynamics.TOO_SMALL_STEP)
        assert len(out.times) == 10 and out.states[-1, 0] > 9.9

    def test_errors_at_a_stage_inside_the_domain(self, monkeypatch):
        chart = Chart("line", ("u",))
        rhs = lambda y: np.array([1.0 if y[0] < 0.25 else np.nan])  # noqa: E731
        out, _ = self.same(monkeypatch, lambda: dynamics._step(
            rhs, chart, (0.0,), 1.0, 0.1, "adaptive-rk45", 1e-9, 1e-9))
        assert out.startswith("EvalError: right-hand side not finite at t=0.2")

    def test_the_readme_op_takes_92_right_hand_sides_and_1001_rows(self, monkeypatch):
        # integrate's right-hand side is the public hamiltonian_field_generic:
        # 2 for the first step's size, then 6 per step over 15 steps
        spec = builtin("xjt_gtacos")
        H = ScalarField.parse(spec.chart, "q^2 + p^2 + x^2 + (y-1)^2", spec.params)
        calls = []
        field = dynamics.hamiltonian_field_generic
        monkeypatch.setattr(dynamics, "hamiltonian_field_generic",
                            lambda *a, **k: calls.append(a[2]) or field(*a, **k))
        traj = integrate(spec, H, (0.2, 1.0, 0.3, -0.2, 0.0), 1.0, 1e-3)
        assert (len(calls), len(traj.times)) == (92, 1001)

    @pytest.mark.parametrize("name, source, y, f0", [
        ("xjt_gtacos", "q^2 + p^2 + x^2 + (y-1)^2", (0.2, 1.0, 0.3, -0.2, 0.0), None),
        ("darboux_contact", "0", (0.3, 0.5, 0.7), None),  # X_H = 0: d1 = d2 = 0
        # |f0/scale| overflows, so the trial step h0 is 0 and scipy divides a
        # float64 by it: 0/0 where f1 = f0, inf where it differs
        ("darboux_contact", "1e160*q", (0.0, 1.0, 1.0), None),
        ("darboux_contact", "0", (0.3, 0.5, 0.7), (1e300, 0.0, 0.0)),
    ])
    def test_the_first_step_is_scipys(self, name, source, y, f0):
        # select_initial_step's step, bit for bit, and its right-hand-side calls
        from scipy.integrate._ivp.common import select_initial_step

        def scipys(fun, y, f, t_bound, rtol, atol):
            return select_initial_step(fun, 0.0, y, t_bound, np.inf, f, 1.0, 4, rtol, atol)

        spec = builtin(name)
        H = ScalarField.parse(spec.chart, source)
        y = np.array(y)
        out = []
        for first_step in (dynamics._initial_step, scipys):
            calls = []

            def fun(t, x):
                calls.append((t, x.tobytes()))
                return hamiltonian_field_generic(spec, H, x, check_domain=False)

            f = fun(0.0, y) if f0 is None else np.array(f0)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                out.append((np.float64(first_step(fun, y, f, 1.0, 1e-9, 1e-9)).tobytes(), calls))
        assert out[0] == out[1]

    def test_a_first_step_of_zero(self, monkeypatch):
        # the 1e160*q flow above steps on from h = 0 as scipy does, to its
        # rank refusal
        spec = builtin("darboux_contact")
        H = ScalarField.parse(spec.chart, "1e160*q")
        with np.errstate(over="ignore", invalid="ignore"):
            out, _ = self.same_flow(monkeypatch, spec, H, (0.0, 1.0, 1.0), 0.01, 0.001)
        assert out.startswith("StructureError: degenerate structure at [")
        assert out.endswith(": flat matrix has rank 1 < 3")


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
    # theta and Omega are finite while H's kernel raises, not overflows
    "hamiltonian_raises": ({"kappa": 1.0}, {"q,p": 1.0}, "sqrt(q)", (-0.3, 0.5, 0.1)),
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

    @pytest.mark.parametrize("name", [
        *CATALOG, "darboux_contact(3)", "canonical(1)", "canonical(2)", "canonical(3)",
    ])
    def test_compiled_values_are_the_tree_values(self, name, rng):
        if name.startswith("canonical"):
            n = int(name[-2])
            theta = CanonicalThetaSpec(a=tuple(rng.uniform(-2, 2, n)),
                                       b=tuple(rng.uniform(-2, 2, n)),
                                       c=float(rng.uniform(0.5, 3.0)))
            compiled, fresh = theta.structure(), theta.structure()
        else:
            compiled, fresh = builtin(name), builtin(name)
        H = random_polynomial(compiled.chart, rng, max_degree=3)
        H_fresh = ScalarField.from_expr(fresh.chart, H.expr, H.params)
        compiled.kernel()
        H.kernel()
        rows = np.array([random_point(compiled.chart, rng).array for _ in range(30)])
        for row in rows:
            # one read of both kernels gives the walk's X_H bit for bit
            assert compiled._kernel.finite_at(row.tolist(), H._kernel) is not None
            got = hamiltonian_field_generic(compiled, H, row)
            assert got.tobytes() == hamiltonian_field_generic(fresh, H_fresh, row).tobytes()
            th, om, _ = compiled.at(row)
            walked_th, walked_om, _ = fresh.at(row)  # fresh has no kernel
            assert th.tobytes() == walked_th.tobytes()
            assert om.tobytes() == walked_om.tobytes()
        for got, want in zip(dynamics._dissipation_rows(compiled, H, rows),
                             dynamics._dissipation_rows(fresh, H_fresh, rows)):
            assert got.tobytes() == want.tobytes()
        assert fresh._kernel is None and H_fresh._kernel is None

    def test_a_right_hand_side_reads_each_kernel_once(self, monkeypatch):
        s = builtin("xjt_gtacos")
        H = ScalarField.parse(s.chart, "q^2 + p^2 + x^2 + (y-1)^2", s.params)
        at = (0.2, 1.0, 0.3, -0.2, 0.0)
        want = hamiltonian_field_generic(s, H, at)
        calls = []

        def spy(owner, name, label):
            real = getattr(owner, name)
            monkeypatch.setattr(
                owner, name, lambda *a, **k: calls.append(label) or real(*a, **k))

        spy(s.kernel(), "scalar", "structure kernel")
        spy(H.kernel(), "scalar", "H kernel")
        spy(KForm, "_at", "walk")
        spy(ScalarField, "_eval", "walk")
        spy(ScalarField, "_gradient", "walk")
        spy(_umath_linalg, "det", "certificate")
        spy(_umath_linalg, "solve1", "solve")
        spy(np.linalg, "svd", "SVD")
        got = hamiltonian_field_generic(s, H, np.array(at), check_domain=False)
        # one certificate, then R and X_H
        assert calls == ["structure kernel", "H kernel", "certificate", "solve", "solve"]
        assert got.tobytes() == want.tobytes()

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

    def test_after_integrate_a_point_reads_as_a_fresh_owner(self, monkeypatch):
        source = "q^2 + p^2 + x^2 + (y-1)^2"
        at = (0.2, 1.0, 0.3, -0.2, 0.0)
        alpha = np.linspace(-1.0, 1.0, 5)

        def outputs(s, H):
            value, grad = H.at(at)
            return [np.float64(H.value(at)), H.gradient(at), np.float64(value), grad,
                    reeb(s, at), sharp(s, alpha, at), hamiltonian_field_generic(s, H, at)]

        s = builtin("xjt_gtacos")
        H = ScalarField.parse(s.chart, source, s.params)
        walks = []
        for owner, name in ((KForm, "_at"), (ScalarField, "_eval"), (ScalarField, "_gradient")):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, _real=real: walks.append(1) or _real(*a))
        for method in ("rk4", "adaptive-rk45"):
            integrate(s, H, at, 0.05, 0.01, method)
            fresh = builtin("xjt_gtacos")
            want = outputs(fresh, ScalarField.parse(fresh.chart, source, fresh.params))
            got = outputs(s, H)
            del walks[:]
            again = outputs(s, H)
            assert walks == []  # a repeat at the point walks no tree
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
            assert [x.tobytes() for x in again] == [x.tobytes() for x in want]

    def test_only_the_right_hand_side_reads_a_kernel_at_a_point(self, monkeypatch):
        s = builtin("xjt_gtacos")
        H = ScalarField.parse(s.chart, "q^2 + p^2 + x^2 + (y-1)^2", s.params)
        integrate(s, H, (0.2, 1.0, 0.3, -0.2, 0.0), 0.05, 0.01, "rk4")
        calls = []
        finite_at = Kernel.finite_at
        monkeypatch.setattr(Kernel, "finite_at",
                            lambda *a: calls.append("finite_at") or finite_at(*a))
        for label, kernel in (("structure", s._kernel), ("H", H._kernel)):
            monkeypatch.setattr(kernel, "scalar",
                                lambda *a, _f=kernel.scalar, _l=label: calls.append(_l) or _f(*a))
        at = s.chart.point((0.1, 1.1, 0.2, -0.1, 0.3))
        H.value(at), H.gradient(at), H.at(at), s.at(at), s.flat_matrix(at)
        reeb(s, at), sharp(s, np.ones(5), at), s.volume_coefficient(at)
        gradient_field(s, H, at), jacobi_bracket_generic(s, H, H, at)
        assert calls == []
        hamiltonian_field_generic(s, H, at)
        assert calls == ["finite_at", "structure", "H"]
