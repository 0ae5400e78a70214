import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosym.almost_contact import (
    AcmsSolution,
    PhiSolveError,
    heisenberg_potential,
    metric_from_defining_relation,
    nijenhuis_n1,
    ppp_negative_witness,
    sasaki_from_potential,
    solve_phi,
    SasakiPotential,
    CHART_SASAKI,
)
from cosym.charts import Chart, DomainError, ScalarField
from cosym.forms import KForm
from cosym.manifolds import ModelParameters

SAMPLE_POINT = (0.0, 1.0, 0.1, 0.2, 0.0)
SAMPLE_FREE = (1.0, 0.5, 0.3, -0.2)


class TestSolvePhi:
    def test_sample_point_full_residuals(self):
        sol = solve_phi(SAMPLE_FREE, ModelParameters(), SAMPLE_POINT)
        for name in sol.INDEPENDENT_EQUATIONS:
            assert sol.residuals[name] <= 1e-10
        assert sol.residuals["phi_squared"] <= 1e-10
        assert sol.residuals["eta_phi"] <= 1e-12
        assert sol.residuals["phi_xi"] <= 1e-12
        assert np.abs(sol.g_prime - sol.g_prime.T).max() == 0.0
        assert sol.passes()

    def test_phi_annihilates_reeb_direction(self):
        sol = solve_phi(SAMPLE_FREE, ModelParameters(), SAMPLE_POINT)
        assert np.abs(sol.phi.entries @ sol.xi).max() == 0.0
        assert np.abs(sol.phi.entries[:, 4]).max() == 0.0  # last column zero

    def test_eta_composed_with_phi_vanishes(self):
        sol = solve_phi(SAMPLE_FREE, ModelParameters(), SAMPLE_POINT)
        assert np.abs(sol.eta @ sol.phi.entries).max() <= 1e-12

    def test_rank_four(self):
        sol = solve_phi(SAMPLE_FREE, ModelParameters(), SAMPLE_POINT)
        assert sol.phi.rank() == 4

    def test_eta_xi_pairing(self):
        sol = solve_phi(SAMPLE_FREE, ModelParameters(), SAMPLE_POINT)
        assert float(sol.eta @ sol.xi) == 1.0

    def test_symmetry_relations_by_construction(self):
        sol = solve_phi(SAMPLE_FREE, ModelParameters(), SAMPLE_POINT)
        phi = sol.phi.entries
        zeta = sol.phi.zeta
        assert phi[1, 1] == pytest.approx(-phi[0, 0])
        assert phi[2, 0] == pytest.approx(-zeta * phi[1, 3])
        assert phi[2, 1] == pytest.approx(zeta * phi[0, 3])
        assert phi[3, 0] == pytest.approx(zeta * phi[1, 2])
        assert phi[3, 3] == pytest.approx(-phi[2, 2])
        assert phi[3, 1] == pytest.approx(-zeta * phi[0, 2])

    def test_defining_metric_symmetric_cross_check(self):
        # the symmetry relations are exactly what makes eta x eta - PhiHat Phi
        # symmetric; re-derive and check
        sol = solve_phi(SAMPLE_FREE, ModelParameters(), SAMPLE_POINT)
        g = metric_from_defining_relation(
            sol.phi.entries, ModelParameters(), np.array(SAMPLE_POINT)
        )
        assert np.abs(g - g.T).max() <= 1e-12

    def test_printed_metric_deviation_is_reported(self):
        # the printed candidate metric and the defining relation disagree at
        # the (x, x) entry and in the sign of the mixed (q, p) term; the
        # solver must surface that deviation rather than hide it
        sol = solve_phi(SAMPLE_FREE, ModelParameters(), SAMPLE_POINT)
        assert sol.residuals["printed_vs_defining_metric"] > 1e-3

    def test_positive_definiteness_is_diagnostic_not_constraint(self):
        sol = solve_phi(SAMPLE_FREE, ModelParameters(), SAMPLE_POINT)
        assert isinstance(sol.positive_definite, bool)

    def test_multiple_seeds_and_points(self, rng):
        params = ModelParameters()
        for _ in range(6):
            pt = (
                float(rng.uniform(-1, 1)),
                float(rng.uniform(0.5, 2.0)),
                float(rng.uniform(-1, 1)),
                float(rng.uniform(-1, 1)),
                float(rng.uniform(-1, 1)),
            )
            for _ in range(3):
                free = tuple(rng.uniform(-2, 2, 4))
                sol = solve_phi(free, params, pt)
                assert sol.passes(), (pt, free, sol.residuals)

    def test_components_that_overflow_are_refused_without_a_warning(self):
        # Phi_qq^2 overflows, so Phi_xq is inf; called as a library, without
        # np.errstate: the overflow is no warning
        with pytest.raises(PhiSolveError) as err:
            solve_phi((1e300, 0.5, 0.3, -0.2), ModelParameters(), SAMPLE_POINT)
        assert err.value.best_residual == np.inf

    def test_equal_phi_yq_and_phi_yp_leave_no_root(self):
        # D = 0 turns the equation into ((Phi_qp + Phi_pq)/2)^2 + 1 = 0
        with pytest.raises(PhiSolveError, match="Phi_yq = Phi_yp leaves no root") as err:
            solve_phi((1.0, 1.0, 0.3, -0.2), ModelParameters(), SAMPLE_POINT)
        assert err.value.best_residual == pytest.approx(1.0025, rel=1e-15)

    def test_fallback_branch_where_phi_xy_equal_to_phi_xq_has_no_phi_xq(self):
        # on Phi_xy = Phi_xq, Phi_qq = 1 and Phi_qq^2 + 1 + Phi_qp Phi_pq = 0,
        # so Phi_xq would be 0; Phi_xy = -Phi_xq gives Phi_xq = -E/zeta, E = 3
        sol = solve_phi((1.0, 0.0, 2.0, -1.0), ModelParameters(), SAMPLE_POINT)
        phi = sol.phi.entries
        assert phi[0, 2] == -3.0 / sol.phi.zeta
        assert phi[0, 1] == -phi[0, 2]
        assert sol.passes()


# A residual is a sum of at most five products of two entries of Phi, eta or
# xi, plus 1, and each entry carries a few roundings of the elimination
# chain: 16 eps max(1, max|Phi|)^2 bounds it.  The worst seen on 20000
# random cases of these ranges, with D down to 1e-16, was 2.9 eps max|Phi|^2.
AXIOM_KEYS = ("phi_squared", "eta_phi", "phi_xi", *AcmsSolution.INDEPENDENT_EQUATIONS)
unit = st.floats(-1, 1)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.floats(-2, 2)] * 4), st.tuples(unit, st.floats(0.4, 2), unit, unit, unit))
def test_every_returned_phi_meets_the_axioms(free, at):
    # criterion 07's ranges
    try:
        sol = solve_phi(free, ModelParameters(), at)
    except PhiSolveError as err:
        d = free[1] - free[0]
        half = (free[2] + free[3]) / 2
        # D = 0 has no root; a D so small that Phi_xq ~ 1/(zeta D) overflows
        assert (d == 0 and err.best_residual == half * half + 1) or (
            abs(d) < 1e-150 and err.best_residual == np.inf)
        return
    tol = 16 * np.finfo(float).eps * max(1.0, np.abs(sol.phi.entries).max()) ** 2
    assert max(sol.residuals[k] for k in AXIOM_KEYS) <= tol, sol.residuals


class TestNegativeWitness:
    def test_reference_values(self):
        assert ppp_negative_witness(ModelParameters(k=1.0), (0, 1.0, 0, 0, 0)) == 2.0
        assert ppp_negative_witness(ModelParameters(k=3.0), (0, 2.0, 0, 0, 0)) == 3.0

    def test_strictly_positive(self, rng):
        for _ in range(50):
            k = float(rng.uniform(0.1, 5.0))
            y = float(rng.uniform(0.05, 10.0))
            w = ppp_negative_witness(ModelParameters(k=k), (0.0, y, 0.0, 0.0, 0.0))
            assert w > 0.0
            assert w == pytest.approx(2.0 * k / y, rel=1e-14)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(DomainError):
            ppp_negative_witness(ModelParameters(), (0.0, -1.0, 0.0, 0.0, 0.0))


class TestSasakiFromPotential:
    def test_heisenberg_eta(self):
        st = sasaki_from_potential(heisenberg_potential())
        v = np.array([0.7, 1.3, 0.2])
        assert st.eta.at(v).as_covector() == pytest.approx([-1.3, 0.0, 1.0])

    def test_heisenberg_metric(self):
        st = sasaki_from_potential(heisenberg_potential())
        v = np.array([0.7, 1.3, 0.2])
        eta = st.eta.at(v).as_covector()
        expect = np.eye(3)
        expect[2, 2] = 0.0
        expect += np.outer(eta, eta)
        assert st.metric(v) == pytest.approx(expect, abs=1e-14)

    def test_heisenberg_phi_matrix(self):
        st = sasaki_from_potential(heisenberg_potential())
        y = 1.3
        v = np.array([0.7, y, 0.2])
        assert st.phi(v) == pytest.approx(
            np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, y, 0.0]]), abs=1e-14
        )

    def test_axioms_hold(self, rng):
        st = sasaki_from_potential(heisenberg_potential())
        for _ in range(10):
            v = rng.uniform(-2, 2, 3)
            g = st.metric(v)
            phi = st.phi(v)
            eta = st.eta.at(v).as_covector()
            assert float(eta @ st.xi) == 1.0
            assert np.abs(phi @ st.xi).max() <= 1e-12
            assert np.abs(eta @ phi).max() <= 1e-12
            assert np.abs(phi @ phi + np.eye(3) - np.outer(st.xi, eta)).max() <= 1e-12
            assert np.abs(phi.T @ g @ phi - (g - np.outer(eta, eta))).max() <= 1e-12
            assert np.abs(g @ st.xi - eta).max() <= 1e-12

    def test_ghat_antisymmetric(self, rng):
        st = sasaki_from_potential(heisenberg_potential())
        for _ in range(10):
            v = rng.uniform(-2, 2, 3)
            ghat = st.metric(v) @ st.phi(v)
            assert np.abs(ghat + ghat.T).max() <= 1e-12

    def test_kappa_dependence_rejected(self):
        with pytest.raises(ValueError):
            SasakiPotential(ScalarField.parse(CHART_SASAKI, "kappa*y"))

    def test_degenerate_potential_reported(self):
        st = sasaki_from_potential(
            SasakiPotential(ScalarField.parse(CHART_SASAKI, "x*y"))
        )
        # the point in plain floats, not numpy 2's np.float64(0.0) reprs
        message = "degenerate potential: K_xx + K_yy vanishes at [0.0, 0.0, 0.0]"
        with pytest.raises(ValueError, match=re.escape(message)):
            st.phi(np.array([0.0, 0.0, 0.0]))


class TestNijenhuis:
    def test_heisenberg_is_normal_under_factor1(self, rng):
        st = sasaki_from_potential(heisenberg_potential())
        for _ in range(5):
            v = rng.uniform(-2, 2, 3)
            assert nijenhuis_n1(st.phi, st.eta, st.xi, v, convention="factor1") <= 1e-8

    def test_factor2_convention_shifts_by_d_eta(self):
        st = sasaki_from_potential(heisenberg_potential())
        v = np.array([0.4, 1.2, -0.1])
        assert nijenhuis_n1(st.phi, st.eta, st.xi, v, convention="factor2") == (
            pytest.approx(1.0, abs=1e-8)
        )

    def test_constant_phi_flat_form_vanishes(self):
        chart = Chart("toy", ("x", "y", "kappa"))
        eta = KForm.one_form(chart, {"kappa": 1.0})
        phi = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        xi = np.array([0.0, 0.0, 1.0])
        assert nijenhuis_n1(phi, eta, xi, np.array([0.3, 0.4, 0.5])) == 0.0

    def test_perturbed_structure_detected(self):
        st = sasaki_from_potential(heisenberg_potential())
        v = np.array([0.4, 1.2, -0.1])

        def perturbed(values):
            m = st.phi(values).copy()
            m[1, 0] += 0.1
            return m

        assert nijenhuis_n1(perturbed, st.eta, st.xi, v, convention="factor1") > 1e-3

    def test_unknown_convention_rejected(self):
        st = sasaki_from_potential(heisenberg_potential())
        with pytest.raises(ValueError):
            nijenhuis_n1(st.phi, st.eta, st.xi, np.array([0, 1.0, 0]), convention="x")

