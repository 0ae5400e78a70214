import math

import numpy as np
import pytest

from conftest import random_point
from cosym.charts import DomainError
from cosym.forms import exterior_derivative, pullback
from cosym.manifolds import (
    CHART_GROUP6,
    CHART_METRIC_XJT,
    CHART_XJ1,
    CHART_XJT,
    ModelParameters,
    builtin,
    cayley_map,
    darboux_transport,
    darboux_transport_inverse,
    disk_two_form,
    invariant_one_forms,
    metric_matrix,
)
from cosym.structures import reeb


class TestBuiltins:
    def test_xjt_gtacos_forms(self):
        s = builtin("xjt_gtacos", ModelParameters(k=1.0, nu=1.0, delta=1.0))
        pt = s.chart.point((0.0, 1.0, 0.3, -0.4, 0.2))
        th = s.at(pt)[0]
        # theta = dkappa - p dq + q dp at unit delta
        assert th == pytest.approx([0.0, 0.0, 0.4, 0.3, 1.0])
        om = s.omega.at(pt)
        assert om.get("x", "y") == pytest.approx(1.0)
        assert om.get("q", "p") == pytest.approx(2.0)

    def test_heisenberg_contact(self):
        s = builtin("heisenberg")
        pt = s.chart.point((0.2, 1.5, -0.3))
        assert s.at(pt)[0] == pytest.approx([-1.5, 0.0, 1.0])
        assert s.classification().contact

    def test_darboux_contact_2_volume(self):
        s = builtin("darboux_contact(2)")
        pt = s.chart.point((0.1, 0.2, 0.3, 0.4, 0.5))
        assert abs(s.volume_coefficient(pt)) > 1e-9

    def test_expected_classification_flags(self):
        assert builtin("xjt_gtacos").classification().gtacos
        assert builtin("xjt_contact").classification().contact
        assert builtin("heisenberg").classification().contact
        assert builtin("darboux_cosymplectic(2)").classification().cos

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            builtin("klein_bottle")
        with pytest.raises(ValueError):
            builtin("heisenberg(2)")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ModelParameters(k=-1.0)
        with pytest.raises(ValueError):
            builtin("xjt_gtacos", ModelParameters(delta=0.0))

    @pytest.mark.parametrize("name", ["k", "nu", "delta", "alpha", "beta", "gamma"])
    def test_nan_parameters_rejected(self, name):
        with pytest.raises(ValueError):
            ModelParameters(**{name: math.nan})


class TestVolumeIdentity:
    def test_top_coefficient_matches_wedge_algebra(self, rng):
        # theta ^ omega^2 carries top coefficient 4 k nu sqrt(delta) / y^2;
        # the constant printed alongside the source identity is half of this
        # (it drops the cross-term multiplicity of omega^2) and is tracked in
        # the discrepancy report instead of being asserted here.
        for _ in range(5):
            params = ModelParameters(
                k=float(rng.uniform(0.5, 3)),
                nu=float(rng.uniform(0.5, 3)),
                delta=float(rng.uniform(0.5, 3)),
            )
            s = builtin("xjt_gtacos", params)
            for _ in range(10):
                pt = random_point(s.chart, rng)
                derived = (
                    4.0 * params.k * params.nu * math.sqrt(params.delta) / pt["y"] ** 2
                )
                assert abs(s.volume_coefficient(pt) - derived) <= 1e-12 * max(
                    1.0, derived
                )

    def test_contact_and_gtacos_volumes_agree(self, rng):
        params = ModelParameters(k=1.3, nu=0.7, delta=2.0)
        a = builtin("xjt_gtacos", params)
        b = builtin("xjt_contact", params)
        for _ in range(20):
            pt = random_point(a.chart, rng)
            assert a.volume_coefficient(pt) == pytest.approx(
                b.volume_coefficient(pt), abs=1e-12
            )

    def test_d_eta_equals_gtacos_omega(self, rng):
        params = ModelParameters(k=1.3, nu=0.7, delta=2.0)
        contact = builtin("xjt_contact", params)
        gtacos = builtin("xjt_gtacos", params)
        d_eta = exterior_derivative(contact.theta)
        for _ in range(20):
            pt = random_point(contact.chart, rng)
            assert (d_eta.at(pt) - gtacos.omega.at(pt)).max_norm() <= 1e-12

    def test_reeb_of_both_structures(self):
        params = ModelParameters(delta=2.0)
        expect = np.array([0, 0, 0, 0, 1.0 / math.sqrt(2.0)])
        for name in ("xjt_gtacos", "xjt_contact"):
            s = builtin(name, params)
            pt = s.chart.point((0.5, 1.2, -0.3, 0.8, 0.1))
            assert reeb(s, pt) == pytest.approx(expect, abs=1e-12)


def _closed_form_metric(case, params, values):
    """Cases 1-4 as closed coordinate formulas: alpha (dx^2 + dy^2)/y^2,
    beta (dx/y + 2 dtheta)^2, (gamma/y)(S dp^2 + dq^2 + 2x dp dq) with
    S = x^2 + y^2, and the square of sqrt(delta) (dkappa - p dq + q dp)."""
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
    x, y = values[0], values[1]
    if case == 1:
        return (a / y**2) * np.eye(2)
    if case == 2:
        return np.array(
            [
                [(a + b) / y**2, 0.0, 2 * b / y],
                [0.0, a / y**2, 0.0],
                [2 * b / y, 0.0, 4 * b],
            ]
        )
    S = x**2 + y**2
    block = np.array(
        [
            [a / y**2, 0.0, 0.0, 0.0],
            [0.0, a / y**2, 0.0, 0.0],
            [0.0, 0.0, g * S / y, g * x / y],
            [0.0, 0.0, g * x / y, g / y],
        ]
    )
    if case == 3:
        return block
    _, _, p, q, _ = values
    sd = math.sqrt(d)
    lam6 = np.array([0.0, 0.0, sd * q, -sd * p, sd])  # on (x, y, p, q, kappa)
    m = np.zeros((5, 5))
    m[:4, :4] = block
    return m + np.outer(lam6, lam6)


class TestMetrics:
    def test_gram_sums_match_the_closed_forms(self, rng):
        from cosym.manifolds import _METRIC_CHARTS

        zero = {1: ("beta", "gamma", "delta"), 2: ("gamma", "delta"),
                3: ("beta", "delta"), 4: ("beta",)}
        for case, zeros in zero.items():
            for _ in range(100):
                weights = dict(zip(("alpha", "beta", "gamma", "delta"), rng.uniform(0.1, 3.0, 4)))
                params = ModelParameters(**{**weights, **{w: 0.0 for w in zeros}})
                pt = random_point(_METRIC_CHARTS[case], rng)
                expect = _closed_form_metric(case, params, pt.values)
                g = metric_matrix(case, params, pt).entries
                assert np.abs(g - expect).max() <= 1e-14 * np.abs(expect).max()

    def test_case4_entries(self):
        mm = metric_matrix(
            4, ModelParameters(alpha=1.0, gamma=1.0, delta=1.0), (0.0, 2.0, 0.0, 0.0, 0.0)
        )
        g = mm.entries
        assert g[0, 0] == pytest.approx(0.25)  # alpha / y^2
        assert g[2, 2] == pytest.approx(2.0)  # gamma S / y + delta q^2, S = 4
        assert g[4, 4] == pytest.approx(1.0)  # delta

    def test_case1_poincare_block(self):
        mm = metric_matrix(
            1,
            ModelParameters(alpha=1.0, beta=0.0, gamma=0.0, delta=0.0),
            (0.3, 2.0),
        )
        assert mm.entries == pytest.approx(0.25 * np.eye(2))

    def test_case_parameter_consistency(self):
        with pytest.raises(ValueError):
            metric_matrix(1, ModelParameters(), (0.0, 1.0))  # gamma, delta nonzero
        with pytest.raises(ValueError):
            metric_matrix(3, ModelParameters(), (0.0, 1.0, 0.0, 0.0))  # delta nonzero
        with pytest.raises(ValueError):
            metric_matrix(4, ModelParameters(beta=1.0), (0.0, 1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            metric_matrix(6, ModelParameters(), (0.0, 1.0))

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            metric_matrix(4, ModelParameters(), (0.0, -1.0, 0.0, 0.0, 0.0))

    def test_positive_definite_at_random_points(self, rng):
        cases = {
            1: ModelParameters(alpha=1.2, beta=0.0, gamma=0.0, delta=0.0),
            2: ModelParameters(alpha=1.2, beta=0.4, gamma=0.0, delta=0.0),
            3: ModelParameters(alpha=1.2, gamma=0.9, delta=0.0),
            4: ModelParameters(alpha=1.2, gamma=0.9, delta=0.7),
            5: ModelParameters(alpha=1.2, beta=0.4, gamma=0.9, delta=0.7),
        }
        from cosym.manifolds import _METRIC_CHARTS

        for case, params in cases.items():
            chart = _METRIC_CHARTS[case]
            for _ in range(40):
                pt = random_point(chart, rng)
                g = metric_matrix(case, params, pt).entries
                np.linalg.cholesky(g)  # raises if not positive definite

    def test_case4_minus_case3_is_center_block(self, rng):
        params4 = ModelParameters(alpha=1.1, gamma=0.8, delta=0.6)
        params3 = ModelParameters(alpha=1.1, gamma=0.8, delta=0.0)
        for _ in range(20):
            pt = random_point(CHART_METRIC_XJT, rng)
            g4 = metric_matrix(4, params4, pt).entries
            g3 = np.zeros((5, 5))
            g3[:4, :4] = metric_matrix(3, params3, pt.values[:4]).entries
            x, y, p, q, kappa = pt.values
            sd = math.sqrt(0.6)
            lam6 = np.array([0.0, 0.0, sd * q, -sd * p, sd])
            assert g4 - g3 == pytest.approx(np.outer(lam6, lam6), abs=1e-12)


class TestInvariantOneForms:
    def test_angle_zero_leading_forms(self):
        params = ModelParameters(alpha=1.0, beta=1.0, gamma=1.0, delta=1.0)
        pt = CHART_GROUP6.point((0.0, 1.0, 0.0, 0.0, 0.0, 0.0))
        lams = invariant_one_forms(params, pt)
        assert lams[0] == pytest.approx([1, 0, 0, 0, 0, 0])
        assert lams[1] == pytest.approx([0, 1, 0, 0, 0, 0])

    def test_lambda6_at_vanishing_momenta(self):
        params = ModelParameters(alpha=1.0, beta=1.0, gamma=1.0, delta=1.0)
        pt = CHART_GROUP6.point((0.7, 2.0, 0.4, 0.0, 0.0, 0.3))
        lam6 = invariant_one_forms(params, pt)[5]
        expect = np.zeros(6)
        expect[5] = 1.0
        assert lam6 == pytest.approx(expect)

    def test_gram_assembly_matches_metric(self, rng):
        params = ModelParameters(alpha=1.3, beta=0.5, gamma=0.8, delta=1.7)
        for _ in range(50):
            pt = random_point(CHART_GROUP6, rng)
            lams = invariant_one_forms(params, pt)
            gram = sum(np.outer(l, l) for l in lams)
            g = metric_matrix(5, params, pt).entries
            assert np.abs(gram - g).max() <= 1e-12 * max(1.0, np.abs(g).max())

    def test_requires_positive_weights(self):
        pt = CHART_GROUP6.point((0.0, 1.0, 0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            invariant_one_forms(ModelParameters(beta=0.0), pt)


class TestCayley:
    def test_center_fixed_point(self):
        m = cayley_map()
        image = m(CHART_XJ1.point((0.0, 1.0, 0.0, 0.0)))
        assert image.values == pytest.approx((0.0, 0.0, 0.0, 0.0), abs=1e-15)

    def test_image_stays_in_unit_disk(self, rng):
        m = cayley_map()
        for _ in range(100):
            pt = random_point(CHART_XJ1, rng)
            w1, w2, z1, z2 = m(pt).values
            assert w1**2 + w2**2 < 1.0

    def test_pullback_reproduces_half_plane_form(self, rng):
        params = ModelParameters(k=1.0, nu=1.0)
        m = cayley_map()
        omega_disk = disk_two_form(params)
        pt = CHART_XJ1.point((0.0, 1.0, 0.0, 0.0))
        val = pullback(m, omega_disk, pt)
        assert val.get("x", "y") == pytest.approx(1.0, rel=1e-8)
        assert val.get("q", "p") == pytest.approx(2.0, rel=1e-8)
        for pair in (("x", "q"), ("x", "p"), ("y", "q"), ("y", "p")):
            assert abs(val.get(*pair)) <= 1e-8

    def test_pullback_at_random_points(self, rng):
        params = ModelParameters(k=1.4, nu=0.6)
        m = cayley_map()
        omega_disk = disk_two_form(params)
        for _ in range(50):
            pt = random_point(CHART_XJ1, rng)
            y = pt["y"]
            val = pullback(m, omega_disk, pt)
            expect = {
                ("x", "y"): params.k / y**2,
                ("q", "p"): 2.0 * params.nu,
            }
            for pair, want in expect.items():
                assert abs(val.get(*pair) - want) <= 1e-8 * max(1.0, abs(want))
            for pair in (("x", "q"), ("x", "p"), ("y", "q"), ("y", "p")):
                assert abs(val.get(*pair)) <= 1e-8


class TestDarbouxTransport:
    def test_round_trip(self, rng):
        params = ModelParameters(k=1.7, nu=0.9)
        fwd = darboux_transport(params)
        back = darboux_transport_inverse(params)
        for _ in range(20):
            pt = random_point(CHART_XJT, rng)
            assert back(fwd(pt)).array == pytest.approx(pt.array, rel=1e-14)

    def test_transports_omega_to_darboux_form(self, rng):
        params = ModelParameters(k=1.7, nu=0.9, delta=1.3)
        s = builtin("xjt_gtacos", params)
        back = darboux_transport_inverse(params)
        from cosym.forms import KForm

        darboux_omega = KForm(back.source, 2, {(0, 2): 1.0, (1, 3): 1.0})
        for _ in range(10):
            pt = random_point(CHART_XJT, rng)
            fwd = darboux_transport(params)
            image = fwd(pt)
            # pull the model two-form back through the inverse map and
            # compare with the flat Darboux two-form at the image point
            val = pullback(back, s.omega, image)
            assert (val - darboux_omega.at(image)).max_norm() <= 1e-9

    def test_closed_field_transports_to_generic_field(self, rng):
        # Push the canonical closed-form field through the identification and
        # compare with the generic solve on the model chart.
        from cosym.charts import ScalarField
        from cosym.dynamics import (
            hamiltonian_field_closed,
            hamiltonian_field_generic,
        )
        from cosym.structures import CanonicalThetaSpec

        params = ModelParameters(k=1.7, nu=0.9, delta=1.3)
        s = builtin("xjt_gtacos", params)
        fwd = darboux_transport(params)
        back = darboux_transport_inverse(params)
        H = ScalarField.parse(s.chart, "x*q + y^2/2 + kappa*p")
        # H written on the Darboux chart by substitution through the inverse
        H_darboux = ScalarField.from_expr(
            back.source,
            H.expr.substitute(
                {
                    "x": back.components[0].expr,
                    "y": back.components[1].expr,
                    "q": back.components[2].expr,
                    "p": back.components[3].expr,
                }
            ),
            params=back.components[0].params,
        )
        sd = math.sqrt(params.delta)
        for _ in range(10):
            pt = random_point(CHART_XJT, rng)
            image = fwd(pt)
            theta_spec = CanonicalThetaSpec(
                a=(0.0, -sd / (2 * params.nu) * image["p2"]),
                b=(0.0, sd * image["q2"] / (2 * params.nu)),
                c=sd,
            )
            closed = hamiltonian_field_closed(theta_spec, H_darboux, image).vector()
            jac = fwd.jacobian(pt)
            transported = np.linalg.solve(jac, closed)
            generic = hamiltonian_field_generic(s, H, pt)
            assert transported == pytest.approx(generic, rel=1e-9, abs=1e-9)
