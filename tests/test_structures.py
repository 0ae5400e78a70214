import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_point, random_polynomial
from cosym import dynamics, forms
from cosym.charts import Chart, ScalarField
from cosym.forms import KForm
from cosym.manifolds import CATALOG, ModelParameters, builtin
from cosym.structures import (
    CanonicalThetaSpec,
    StructureError,
    StructureSpec,
    classify,
    darboux_chart,
    flat,
    reeb,
    reeb_from,
    sharp,
)


def darboux_contact_1():
    return builtin("darboux_contact(1)")


class TestClassify:
    def test_darboux_contact_flags(self):
        cls = darboux_contact_1().classification()
        assert cls.contact and cls.gtacos and cls.acos
        assert not cls.cos
        assert cls.tacs and cls.tacs_epsilon == -1.0

    def test_xjt_pair_flags(self):
        cls = builtin("xjt_gtacos").classification()
        assert cls.gtacos and cls.acos
        assert not cls.cos  # d theta = 2 sqrt(delta) dq^dp != 0
        assert not cls.contact  # omega has the dx^dy block, d theta does not

    def test_darboux_cosymplectic_is_cos(self):
        cls = builtin("darboux_cosymplectic(1)").classification()
        assert cls.cos and cls.gtacos and cls.acos
        assert cls.tacs and cls.tacs_epsilon == 0.0

    def test_empty_probe_set_rejected(self):
        with pytest.raises(ValueError):
            classify(darboux_contact_1(), probes=[])

    def test_implication_lattice_on_catalog(self):
        for name in CATALOG:
            cls = builtin(name).classification()
            if cls.cos:
                assert cls.gtacos
            if cls.gtacos:
                assert cls.acos
            if cls.contact:
                assert cls.acos
            if cls.tacs:
                assert cls.gtacos


class TestReeb:
    def test_canonical_theta_reeb_is_inverse_c(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            spec = CanonicalThetaSpec(
                a=tuple(rng.uniform(-2, 2, n)),
                b=tuple(rng.uniform(-2, 2, n)),
                c=4.0,
            )
            st = spec.structure()
            pt = random_point(st.chart, rng)
            solved = reeb(st, pt)
            closed = spec.reeb_vector()
            assert solved == pytest.approx(closed, abs=1e-13)
            assert closed[-1] == 0.25

    def test_darboux_contact_reeb(self):
        s = darboux_contact_1()
        assert reeb(s, s.chart.point((0.3, -1.2, 0.8))) == pytest.approx(
            [0.0, 0.0, 1.0], abs=1e-13
        )

    def test_xjt_reeb_scales_with_delta(self):
        for name in ("xjt_gtacos", "xjt_contact"):
            s = builtin(name, ModelParameters(delta=4.0))
            got = reeb(s, s.chart.point((0.0, 1.0, 0.3, -0.2, 0.5)))
            assert got == pytest.approx([0, 0, 0, 0, 0.5], abs=1e-12)

    def test_reeb_identities_at_probes(self):
        for name in CATALOG:
            s = builtin(name)
            for pt in s.default_probes():
                R = reeb(s, pt)
                om = s.omega_matrix(pt)
                th = s.theta_vector(pt)
                assert np.abs(R @ om).max() <= 1e-11
                assert abs(R @ th - 1.0) <= 1e-11

    def test_degenerate_structure_raises(self):
        chart = darboux_chart(1)
        theta = KForm.one_form(chart, {"q": 1.0})  # no dkappa component
        omega = KForm.two_form(chart, {"q,p": 1.0})
        s = StructureSpec("broken", chart, theta, omega, 1)
        with pytest.raises(StructureError):
            reeb(s, chart.point((0.0, 0.0, 0.0)))


class TestMusicalIsomorphisms:
    def test_flat_of_reeb_is_theta(self, rng):
        for name in CATALOG:
            s = builtin(name)
            pt = random_point(s.chart, rng)
            assert flat(s, reeb(s, pt), pt) == pytest.approx(
                s.theta_vector(pt), abs=1e-11
            )

    def test_flat_of_coordinate_field_hand_value(self):
        s = darboux_contact_1()
        pt = s.chart.point((0.0, 3.0, 0.0))
        got = flat(s, np.array([1.0, 0.0, 0.0]), pt)
        assert got == pytest.approx([9.0, 1.0, -3.0])

    def test_flat_of_zero_vector(self):
        s = darboux_contact_1()
        pt = s.chart.point((0.4, 0.5, 0.6))
        assert flat(s, np.zeros(3), pt) == pytest.approx([0, 0, 0], abs=0.0)

    def test_sharp_of_theta_is_reeb(self, rng):
        s = builtin("xjt_contact")
        pt = random_point(s.chart, rng)
        assert sharp(s, s.theta_vector(pt), pt) == pytest.approx(
            reeb(s, pt), abs=1e-11
        )

    def test_sharp_closed_form_on_contact_chart(self, rng):
        # alpha dq + beta dp + gamma dkappa  ->  (beta, -alpha - gamma p,
        # beta p + gamma)
        s = darboux_contact_1()
        pt = s.chart.point((0.7, 2.0, -0.3))
        for _ in range(10):
            a, b, g = rng.normal(size=3)
            got = sharp(s, np.array([a, b, g]), pt)
            assert got == pytest.approx([b, -a - 2.0 * g, 2.0 * b + g], abs=1e-12)

    def test_flat_sharp_round_trip_100_random_covectors(self, rng):
        for name in CATALOG:
            s = builtin(name)
            pt = random_point(s.chart, rng)
            dim = s.chart.dimension
            for _ in range(100):
                alpha = rng.normal(size=dim)
                x = sharp(s, alpha, pt)
                assert flat(s, x, pt) == pytest.approx(alpha, abs=1e-11)

    def test_sharp_flat_identity_on_random_vectors(self, rng):
        for name in CATALOG:
            s = builtin(name)
            pt = random_point(s.chart, rng)
            dim = s.chart.dimension
            for _ in range(100):
                v = rng.normal(size=dim)
                assert sharp(s, flat(s, v, pt), pt) == pytest.approx(v, abs=1e-10)


class TestStructureSpecValidation:
    def test_dimension_must_be_odd(self):
        chart = Chart("even", ("q", "p"))
        with pytest.raises(StructureError):
            StructureSpec(
                "bad",
                chart,
                KForm.one_form(chart, {"q": 1.0}),
                KForm.two_form(chart, {"q,p": 1.0}),
                1,
            )

    def test_canonical_theta_requires_nonzero_c(self):
        with pytest.raises(ValueError):
            CanonicalThetaSpec(a=(1.0,), b=(0.0,), c=0.0)


class TestJsonRoundTrip:
    def test_catalog_round_trips(self, tmp_path, rng):
        for name in CATALOG:
            s = builtin(name, ModelParameters(k=1.5, nu=0.8, delta=2.0))
            path = tmp_path / "structure.json"
            path.write_text(json.dumps(s.to_json()))
            loaded = StructureSpec.from_json(path)
            probes = s.default_probes(count=16)
            assert (
                loaded.classification(probes=probes).flags()
                == s.classification(probes=probes).flags()
            )
            for pt in probes[:4]:
                assert reeb(loaded, pt) == pytest.approx(reeb(s, pt), abs=1e-15)
                assert loaded.volume_coefficient(pt) == pytest.approx(
                    s.volume_coefficient(pt), abs=1e-15
                )

    def test_guards_survive_round_trip(self):
        s = builtin("xjt_gtacos")
        loaded = StructureSpec.from_json(s.to_json())
        assert loaded.chart.guards == s.chart.guards
        from cosym.charts import DomainError

        with pytest.raises(DomainError):
            loaded.chart.point((0.0, -1.0, 0.0, 0.0, 0.0))


CATALOG_SIZES = CATALOG + ("darboux_contact(3)", "darboux_cosymplectic(3)")


class TestBuiltOncePerStructure:
    def test_volume_form_wedged_once_and_matches_a_fresh_wedge(self, monkeypatch):
        wedges = []
        wedge = forms.wedge
        monkeypatch.setattr(forms, "wedge", lambda a, b: wedges.append(1) or wedge(a, b))
        for name in CATALOG_SIZES:
            s = builtin(name, ModelParameters(k=1.5, nu=0.8, delta=2.0))
            del wedges[:]
            probes = s.default_probes(count=8)
            kept = [s.volume_coefficient(pt) for pt in probes]
            again = [s.volume_coefficient(pt.array) for pt in probes]
            assert len(wedges) == s.n

            top = s.theta
            for _ in range(s.n):
                top = wedge(top, s.omega)
            full = tuple(range(s.chart.dimension))
            fresh = [top.at(pt).coeffs.get(full, 0.0) for pt in probes]
            assert kept == fresh
            assert again == fresh

    def test_field_solve_shares_one_evaluation_of_theta_and_omega(self, rng, monkeypatch):
        degrees = []
        at = KForm.at
        monkeypatch.setattr(
            KForm, "at", lambda self, *args: degrees.append(self.degree) or at(self, *args)
        )
        for name in CATALOG_SIZES:
            s = builtin(name)
            H = random_polynomial(s.chart, rng)
            for _ in range(4):
                pt = random_point(s.chart, rng)
                del degrees[:]
                X = dynamics.hamiltonian_field_generic(s, H, pt)
                assert sorted(degrees) == [1, 2]
                assert s._kernel is None and H._kernel is None  # the trees were walked
                del degrees[:]
                th, om, values = s.at(pt)
                assert sorted(degrees) == [1, 2]
                R, factors = reeb_from(th, om, values)
                h, dH = H.at(pt)
                np.testing.assert_array_equal(X, dynamics._field_from(th, factors, R, dH, h))
                np.testing.assert_array_equal(R, reeb(s, pt))
                for got, want in zip(factors, np.linalg.svd(s.flat_matrix(pt))):
                    np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(th, s.theta_vector(pt))
                np.testing.assert_array_equal(dH, H.gradient(pt))

    def test_field_solve_keeps_the_reeb_rank_check(self):
        chart = darboux_chart(1)
        s = StructureSpec(
            "nearly_degenerate",
            chart,
            KForm.one_form(chart, {"q": 1.0, "kappa": 1e-16}),
            KForm.two_form(chart, {"q,p": 1.0}),
            1,
        )
        H = ScalarField.parse(chart, "q^2 + p^2")
        with pytest.raises(StructureError, match="rank"):
            dynamics.hamiltonian_field_generic(s, H, (0.1, 0.2, 0.3))


def _nearly_degenerate(theta):
    chart = darboux_chart(1)
    return StructureSpec(
        "nearly_degenerate",
        chart,
        KForm.one_form(chart, theta),
        KForm.two_form(chart, {"q,p": 1.0}),
        1,
    )


def _message(fn, *args):
    with pytest.raises(StructureError) as err:
        fn(*args)
    return str(err.value)


def _reeb_rows(s, rows):
    return reeb_from(*s.rows(rows), rows)[0]


class TestReebRows:
    def test_rows_agree_with_the_pointwise_solve_on_the_catalog(self):
        for name in CATALOG_SIZES:
            s = builtin(name, ModelParameters(k=1.5, nu=0.8, delta=2.0))
            probes = np.array([pt.array for pt in s.default_probes()])
            assert probes.shape == (64, s.chart.dimension)
            for kept in (False, True):  # the row walk, then the kept kernel
                if kept:
                    s.kernel()
                th, om = s.rows(probes)
                R = _reeb_rows(s, probes)
                for k, row in enumerate(probes):
                    np.testing.assert_array_equal(th[k], s.theta_vector(row))
                    np.testing.assert_array_equal(om[k], s.omega_matrix(row))
                    expected = reeb(s, row)
                    tol = 1e-14 * max(1.0, np.abs(expected).max())
                    assert np.abs(R[k] - expected).max() <= tol

    # the flat matrix's smallest singular value is 1e-32 in both cases, far
    # below the rank rule's eps * 3 * s_max
    @pytest.mark.parametrize("theta", [{"q": 1.0, "kappa": 1e-16}, {"kappa": 1e-16}])
    def test_rank_check_on_rows(self, theta):
        s = _nearly_degenerate(theta)
        rows = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        for kept in (False, True):  # the row walk, then the kept kernel
            if kept:
                s.kernel()
            message = _message(_reeb_rows, s, rows)
            assert "rank 2 < 3" in message
            assert message == _message(reeb, s, rows[0])

    def test_residual_check_on_rows(self):
        # Omega^T = I is no two-form: R = 0 is forced, and R.theta = 1 fails
        rows = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        th = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        om = np.array([np.eye(3), np.eye(3)])
        message = _message(reeb_from, th, om, rows)
        assert message.startswith("Reeb system inconsistent")
        assert message == _message(reeb_from, th[0], om[0], rows[0])

    def test_first_failing_row_is_reported(self):
        good = builtin("darboux_contact(1)")
        rows = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]])
        th, om = good.rows(rows)
        om[1:] = np.eye(3)
        th[1:] = [0.0, 0.0, 1.0]
        assert _message(reeb_from, th, om, rows) == _message(
            reeb_from, th[1], om[1], rows[1]
        )


class TestRankBoundary:
    # F's smallest singular value is c^2 for theta = c dkappa over dq^dp, so
    # the rank rule c^2 > 3 eps accepts c = 3e-8 and refuses c = 1e-8
    def test_small_theta_is_accepted_above_the_boundary(self):
        c = 3e-8
        s = _nearly_degenerate({"kappa": c})
        pt = (0.1, 0.2, 0.3)
        expected = [0.0, 0.0, 1.0 / c]
        np.testing.assert_allclose(reeb(s, pt), expected, rtol=1e-14, atol=1e-14 / c)
        np.testing.assert_allclose(
            _reeb_rows(s, [pt, pt])[1], expected, rtol=1e-14, atol=1e-14 / c
        )

    def test_small_theta_is_refused_below_the_boundary(self):
        s = _nearly_degenerate({"kappa": 1e-8})
        pt = (0.1, 0.2, 0.3)
        H = ScalarField.parse(s.chart, "q^2 + p^2")
        for fn, args in (
            (reeb, (s, pt)),
            (_reeb_rows, (s, [pt])),
            (dynamics.hamiltonian_field_generic, (s, H, pt)),
        ):
            assert "rank 2 < 3" in _message(fn, *args)


class TestStructureErrorMessages:
    @pytest.mark.parametrize("theta", [{"q": 1.0, "kappa": 1e-16}, {"kappa": 1e-16}])
    def test_points_print_as_plain_floats(self, theta):
        s = _nearly_degenerate(theta)
        pt = (0.1, 0.2, 0.3)
        H = ScalarField.parse(s.chart, "q^2 + p^2")
        for fn, args in (
            (reeb, (s, pt)),
            (_reeb_rows, (s, [pt])),
            (sharp, (s, [1.0, 2.0, 3.0], pt)),
            (dynamics.hamiltonian_field_generic, (s, H, pt)),
        ):
            message = _message(fn, *args)
            assert "[0.1, 0.2, 0.3]" in message
            assert "np.float64" not in message


coefficients = st.floats(-2.0, 2.0, allow_nan=False)
kappa_coefficients = st.builds(
    lambda sign, size: sign * size, st.sampled_from([-1.0, 1.0]), st.floats(0.5, 3.0)
)


@st.composite
def canonical_cases(draw):
    """A random canonical theta (n = 1..3) and a point of its chart."""
    n = draw(st.integers(1, 3))
    spec = CanonicalThetaSpec(
        a=tuple(draw(st.lists(coefficients, min_size=n, max_size=n))),
        b=tuple(draw(st.lists(coefficients, min_size=n, max_size=n))),
        c=draw(kappa_coefficients),
    )
    point = draw(st.lists(coefficients, min_size=2 * n + 1, max_size=2 * n + 1))
    return spec, point


class TestOneFlatSolveProperties:
    @settings(max_examples=200, deadline=None)
    @given(canonical_cases())
    def test_reeb_is_the_closed_form(self, case):
        spec, pt = case
        assert reeb(spec.structure(), pt) == pytest.approx(spec.reeb_vector(), abs=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(canonical_cases(), st.integers(0, 2**32 - 1))
    def test_generic_field_is_the_closed_form(self, case, seed):
        spec, pt = case
        s = spec.structure()
        H = random_polynomial(s.chart, np.random.default_rng(seed))
        closed = dynamics.hamiltonian_field_closed(spec, H, pt).vector()
        generic = dynamics.hamiltonian_field_generic(s, H, pt)
        assert np.all(np.abs(closed - generic) <= 1e-9 * np.maximum(1.0, np.abs(closed)))

    @settings(max_examples=200, deadline=None)
    @given(canonical_cases(), st.lists(st.floats(-3.0, 3.0), min_size=7, max_size=7))
    def test_sharp_inverts_flat(self, case, vector):
        spec, pt = case
        s = spec.structure()
        v = np.array(vector[: s.chart.dimension])
        assert sharp(s, flat(s, v, pt), pt) == pytest.approx(v, abs=1e-10)
