import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.linalg import _umath_linalg

from conftest import random_point, random_polynomial
from cosym import cli, dynamics, forms, structures
from cosym.charts import Chart, DomainError, ScalarField
from cosym.expressions import EvalError
from cosym.forms import KForm
from cosym.manifolds import CATALOG, ModelParameters, builtin
from cosym.structures import (
    CanonicalThetaSpec,
    StructureError,
    StructureSpec,
    classify,
    darboux_chart,
    flat,
    flat_from,
    reeb,
    reeb_from,
    reeb_rows,
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

    @pytest.mark.parametrize("theta, eps", [
        ({"q": "0.5*p"}, 0.5),
        ({"q": "p*0.5"}, 0.5),
        ({"q1": "0.5*p1", "q2": "0.25*p2"}, None),  # two epsilons
        ({"q": "0.5*p", "p": 1.0}, None),  # a dp term
    ])
    def test_tacs_epsilon_of_a_scaled_momentum(self, theta, eps):
        # theta = dkappa + eps p_i dq^i over Omega = dq^i ^ dp_i, with eps a product
        n = 2 if "q1" in theta else 1
        chart = darboux_chart(n)
        pairs = ["q,p"] if n == 1 else ["q%d,p%d" % (i, i) for i in (1, 2)]
        s = StructureSpec("scaled", chart, KForm.one_form(chart, {"kappa": 1.0, **theta}),
                          KForm.two_form(chart, dict.fromkeys(pairs, 1.0)), n)
        cls = s.classification()
        assert cls.gtacos and (cls.tacs, cls.tacs_epsilon) == (eps is not None, eps)

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

    def test_each_seed_keeps_its_own_flags(self):
        # dtheta = Omega but for a 1e-3 bump at the first seed-7 probe, which
        # no seed-42 probe comes near: contact at seed 42 only
        chart = darboux_chart(1)
        a, b, c = StructureSpec(
            "plain", chart, KForm.one_form(chart, {"kappa": 1.0}),
            KForm.two_form(chart, {"q,p": 1.0}), 1,
        ).default_probes(seed=7)[0].values
        bump = "1 + 1e-3*exp(-((q - %r)^2 + (p - %r)^2 + (kappa - %r)^2)/0.01)" % (a, b, c)
        s = StructureSpec("bump", chart, KForm.one_form(chart, {"kappa": 1.0, "q": "-p"}),
                          KForm.two_form(chart, {"q,p": bump}), 1)
        assert classify(s, seed=42).contact and not classify(s, seed=7).contact
        for seed in (42, 7, 42, 7):
            assert s.classification(seed=seed) == classify(s, seed=seed)
        assert s.classification() is s.classification(seed=42)


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
                th, om, _ = s.at(pt)
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
                s.at(pt)[0], abs=1e-11
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
        assert sharp(s, s.at(pt)[0], pt) == pytest.approx(
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
                classify(loaded, probes=probes).flags()
                == classify(s, probes=probes).flags()
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


class TestProbeSequence:
    @pytest.mark.parametrize("d", [1, 3, 5, 7, 11, 81])
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**31 - 2])
    def test_halton_is_scipys_bit_for_bit(self, d, seed):
        from scipy.stats import qmc  # the reference; the package never imports it

        for count in (1, 16, 30, 64):
            structures._halton_kept.cache_clear()
            want = qmc.Halton(d=d, seed=seed).random(count)
            assert structures.halton(count, d, seed).tobytes() == want.tobytes()

    def test_a_shorter_count_is_a_prefix(self):
        from scipy.stats import qmc

        structures._halton_kept.cache_clear()
        longest = structures.halton(2500, 3, 5)  # three blocks of 1024 rows
        assert longest.tobytes() == qmc.Halton(d=3, seed=5).random(2500).tobytes()
        structures._halton_kept.cache_clear()
        for count in (16, 64, 2500, 30):  # grown from the kept prefix, then cut
            assert structures.halton(count, 3, 5).tobytes() == longest[:count].tobytes()

    def test_a_returned_array_is_read_only(self):
        pts = structures.halton(16, 3, 42)
        want = pts.copy()
        with pytest.raises(ValueError, match="read-only"):
            pts[0, 0] = 0.5
        assert structures.halton(16, 3, 42).tobytes() == want.tobytes()
        assert structures.halton(64, 3, 42)[:16].tobytes() == want.tobytes()

    def test_a_count_must_be_a_nonnegative_integer(self):
        assert structures.halton(0, 3, 42).shape == (0, 3)
        with pytest.raises(ValueError, match="nonnegative"):
            structures.halton(-3, 3, 42)
        with pytest.raises(TypeError):
            structures.halton(2.0, 3, 42)


def _polynomial_structure(n, rng):
    """theta and Omega with random polynomial coefficients on the Darboux
    pairs, so that dOmega, dtheta and dtheta - Omega vary over the probes."""
    chart = darboux_chart(n)
    theta = KForm(chart, 1, {(i,): random_polynomial(chart, rng) for i in range(2 * n + 1)})
    omega = KForm(chart, 2, {(i, n + i): random_polynomial(chart, rng) for i in range(n)})
    return StructureSpec("polynomial", chart, theta, omega, n)


def _walked(monkeypatch):
    """Make every kernel's finite_rows decline, so classify walks."""
    monkeypatch.setattr(structures.Kernel, "finite_rows", lambda self, rows: None)


class TestClassifyReadsTheFormsOnce:
    def _specs(self, rng):
        specs = [builtin(name) for name in CATALOG_SIZES]
        for _ in range(8):
            n = int(rng.integers(1, 4))
            specs.append(CanonicalThetaSpec(
                a=tuple(rng.uniform(-2, 2, n)), b=tuple(rng.uniform(-2, 2, n)),
                c=float(rng.uniform(0.5, 3.0)),
            ).structure())
            specs.append(_polynomial_structure(n, rng))
        return specs

    def test_the_kernel_tables_equal_the_walks_bit_for_bit(self, rng):
        for s in self._specs(rng):
            points = np.array([pt.values for pt in s.default_probes()])
            d_theta = forms.exterior_derivative(s.theta)
            d_omega = forms.exterior_derivative(s.omega)
            th, om, dth, dom = structures._read_forms(s, d_theta, d_omega, points)
            want_th, want_om = s.rows(points)  # no kernel kept: the tree walks
            assert th.tobytes() == want_th.tobytes()
            assert om.tobytes() == want_om.tobytes()
            want_dth = np.array([d_theta._at(v).as_matrix() for v in points])
            assert dth.tobytes() == want_dth.tobytes()
            want_dom = np.array([d_omega._at(v).max_norm() for v in points])
            assert np.abs(dom).max(axis=1, initial=0.0).tobytes() == want_dom.tobytes()

    def test_residuals_and_flags_equal_the_walks_bit_for_bit(self, rng, monkeypatch):
        got = []
        for s in self._specs(rng):
            points = np.array([pt.values for pt in s.default_probes()])
            got.append((s, points, structures._criteria(s, points), classify(s)))
        _walked(monkeypatch)
        for s, points, (acos, worst), flags in got:
            want_acos, want_worst = structures._criteria(s, points)
            assert acos == want_acos
            assert worst.tobytes() == want_worst.tobytes()
            assert classify(s) == flags
        assert all(any(w[k] > 0.0 for _, _, (_, w), _ in got) for k in range(3))

    def test_one_kernel_per_call_and_none_kept(self, rng, monkeypatch):
        built = []

        class Counted(structures.Kernel):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(structures, "Kernel", Counted)
        for s in self._specs(rng):
            built.clear()
            classify(s)
            assert len(built) == 1
            assert s._kernel is None

    def test_a_coefficient_failing_at_one_probe_raises_the_walks_error(self):
        # sqrt(p + 1) fails at the first of these probes only, where p = -1.39
        chart = darboux_chart(1)
        s = StructureSpec("root", chart, KForm.one_form(chart, {"kappa": 1.0, "q": "sqrt(p + 1)"}),
                          KForm.two_form(chart, {"q,p": 1.0}), 1)
        probes = s.default_probes(count=6)
        assert [pt["p"] + 1 < 0 for pt in probes] == [True] + [False] * 5
        with pytest.raises(EvalError, match=r"^sqrt\(\) domain error: math domain error$"):
            classify(s, probes=probes)
        assert classify(s, probes=probes[1:]).acos

    def test_an_overflowing_coefficient_takes_the_walk(self, monkeypatch):
        chart = darboux_chart(1)
        s = StructureSpec("overflow", chart,
                          KForm.one_form(chart, {"kappa": 1.0, "q": "1e200*p*1e200*q"}),
                          KForm.two_form(chart, {"q,p": 1.0}), 1)
        walks = []
        walk = KForm._at
        monkeypatch.setattr(KForm, "_at", lambda self, values: walks.append(1) or walk(self, values))
        message = (
            "value of ScalarField(1e200*p*1e200*q on darboux1) is not finite at "
            "[0.20522347796603935, -1.3929280802587178, -1.4291792292618604]: -inf"
        )
        with pytest.raises(EvalError, match="^%s$" % re.escape(message)):
            classify(s)
        assert walks


class TestBuiltOncePerStructure:
    def test_volume_coefficient_wedges_nothing_and_matches_a_fresh_wedge(self, monkeypatch):
        wedges = []
        wedge = forms.wedge
        monkeypatch.setattr(forms, "wedge", lambda a, b: wedges.append(1) or wedge(a, b))
        for name in CATALOG_SIZES:
            s = builtin(name, ModelParameters(k=1.5, nu=0.8, delta=2.0))
            probes = s.default_probes(count=8)
            volumes = [s.volume_coefficient(pt) for pt in probes]
            assert [s.volume_coefficient(pt.array) for pt in probes] == volumes
            s.kernel()
            assert [s.volume_coefficient(pt) for pt in probes] == volumes
            assert wedges == []

            top = s.theta
            for _ in range(s.n):
                top = wedge(top, s.omega)
            full = tuple(range(s.chart.dimension))
            for pt, volume in zip(probes, volumes):
                fresh = top.at(pt).coeffs.get(full, 0.0)
                assert abs(volume - fresh) <= 1e-14 * abs(fresh)

    def test_field_solve_shares_one_evaluation_of_theta_and_omega(self, rng, monkeypatch):
        degrees = []
        walk = KForm._at
        monkeypatch.setattr(
            KForm, "_at", lambda self, *args: degrees.append(self.degree) or walk(self, *args)
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
                assert degrees == []  # the kept last point: no walk on a repeat
                R, F = reeb_from(th, om, values)
                h, dH = H.at(pt)
                np.testing.assert_array_equal(X, dynamics._field_from(th, F, R, dH, h))
                np.testing.assert_array_equal(R, reeb(s, pt))
                assert structures._certified_at(F)  # a certified F, solved by LU
                np.testing.assert_array_equal(F, s.flat_matrix(pt))
                np.testing.assert_array_equal(th, s.theta.at(pt).as_covector())
                np.testing.assert_array_equal(dH, H.gradient(pt))
                del degrees[:]
                s.at(random_point(s.chart, rng))
                assert sorted(degrees) == [1, 2]  # a fresh point is walked

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


class TestKeptLastPoint:
    """A spec keeps theta, Omega and the point solve of its last tree-walked
    point; what it hands out equals a fresh spec's, bit for bit."""

    @staticmethod
    def _outputs(s, H, G, pt):
        th, om, _ = s.at(pt)
        alpha = np.linspace(-1.0, 1.0, s.chart.dimension)
        return [th, om, reeb(s, pt), sharp(s, alpha, pt),
                dynamics.hamiltonian_field_generic(s, H, pt),
                dynamics.gradient_field(s, H, pt),
                np.float64(dynamics.jacobi_bracket_generic(s, H, G, pt))]

    @pytest.mark.parametrize("name", sorted(CATALOG_SIZES))
    def test_points_a_b_a_answer_as_a_fresh_spec(self, name, rng):
        s = builtin(name)
        H, G = random_polynomial(s.chart, rng), random_polynomial(s.chart, rng)
        a, b = random_point(s.chart, rng), random_point(s.chart, rng)
        for pt in (a, b, a, a.array, a):
            fresh = builtin(name)
            H_fresh = ScalarField.from_expr(fresh.chart, H.expr, H.params)
            G_fresh = ScalarField.from_expr(fresh.chart, G.expr, G.params)
            got = self._outputs(s, H, G, pt)
            want = self._outputs(fresh, H_fresh, G_fresh, pt)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]

    def test_one_walk_and_one_certificate_per_point(self, rng, monkeypatch):
        # numpy exposes no LU factors, so a point keeps its certified F and
        # each right-hand side is one LAPACK solve
        walks, calls = [], []
        walk = KForm._at
        monkeypatch.setattr(KForm, "_at", lambda self, *a: walks.append(1) or walk(self, *a))
        _spy_lapack(monkeypatch, calls)
        s = builtin("xjt_gtacos")
        H = random_polynomial(s.chart, rng)
        for _ in range(3):
            pt = random_point(s.chart, rng)
            del walks[:], calls[:]
            for _ in range(2):
                self._outputs(s, H, H, pt)
                s.flat_matrix(pt), flat(s, np.ones(5), pt)
            assert len(walks) == 2
            # R once, then per pass sharp, X_H, the gradient field and the
            # bracket's X_f and X_g
            assert calls == ["det"] + ["solve1"] * (1 + 2 * 5)

    def test_returned_arrays_are_new(self):
        s = builtin("xjt_gtacos")
        pt = (0.2, 1.0, 0.3, -0.2, 0.0)
        want = [x.tobytes() for x in (*s.at(pt)[:2], reeb(s, pt))]
        for out in (*s.at(pt)[:2], reeb(s, pt)):
            out[...] = 7.0
        got = [x.tobytes() for x in (*s.at(pt)[:2], reeb(s, pt))]
        assert got == want
        assert sharp(s, s.at(pt)[0], pt).tobytes() == reeb(s, pt).tobytes()

    def test_a_failed_solve_is_never_kept(self):
        s = _nearly_degenerate({"q": 1.0, "kappa": 1e-16})
        pt = (0.1, 0.2, 0.3)
        messages = {_message(reeb, s, pt), _message(sharp, s, np.ones(3), pt),
                    _message(reeb, s, pt)}
        assert len(messages) == 1 and "rank" in messages.pop()
        assert s._last[3] is None  # theta and Omega are kept, the solve is not

    def test_domain_checks_run_before_the_lookup(self):
        s = builtin("xjt_gtacos")
        off_guard = (0.0, -1.0, 0.1, 0.2, 0.0)  # y = -1
        s._point(np.array(off_guard))
        dynamics.hamiltonian_field_generic(
            s, ScalarField.parse(s.chart, "q"), off_guard, check_domain=False)
        for fn in (s.at, s.flat_matrix, lambda pt: reeb(s, pt)):
            with pytest.raises(DomainError, match="y > 0"):
                fn(off_guard)

    def test_a_kernel_leaves_the_kept_point(self, monkeypatch):
        pt, other = (0.2, 1.0, 0.3, -0.2, 0.0), (0.1, 1.0, 0.3, -0.2, 0.0)
        fresh = builtin("xjt_gtacos").at(other)
        s = builtin("xjt_gtacos")
        want = reeb(s, pt)
        s.kernel()
        walks = []
        walk = KForm._at
        monkeypatch.setattr(KForm, "_at", lambda self, *a: walks.append(1) or walk(self, *a))
        assert reeb(s, pt).tobytes() == want.tobytes()
        assert walks == []  # the kept point outlives the kernel
        th, om, _ = s.at(other)
        assert walks == [1, 1]  # theta and Omega, walked and kept
        assert th.tobytes() == fresh[0].tobytes() and om.tobytes() == fresh[1].tobytes()
        assert s._last[0] == np.array(other).tobytes()

    def test_invariant_suite_certifies_once_per_sharp_point(self, monkeypatch, capsys):
        calls, per_sharp = [], []
        sharp_ = structures.sharp
        _spy_lapack(monkeypatch, calls)

        def counted_sharp(*args):
            before = len(calls)
            out = sharp_(*args)
            per_sharp.append(calls[before:])
            return out

        monkeypatch.setattr(structures, "sharp", counted_sharp)
        assert cli.main(["invariant-suite", "--seed", "42"]) == 0
        assert "PASS" in capsys.readouterr().out
        # 16 points, 8 sharps each: the first certifies F and solves R
        # and its right-hand side, each later one solves its own
        first, later = ["det", "solve1", "solve1"], ["solve1"]
        assert per_sharp == ([first] + [later] * 7) * 16


def _nearly_degenerate(theta, omega=1.0):
    chart = darboux_chart(1)
    return StructureSpec(
        "nearly_degenerate",
        chart,
        KForm.one_form(chart, theta),
        KForm.two_form(chart, {"q,p": omega}),
        1,
    )


def _message(fn, *args):
    with pytest.raises(StructureError) as err:
        fn(*args)
    return str(err.value)


def _reeb_rows(s, rows):
    return reeb_rows(*s.rows(rows), rows)


def _walk_every_stack(monkeypatch):
    """Certify no row, so that reeb_rows decides every row by the SVD."""
    monkeypatch.setattr(structures, "_certified", lambda F: np.zeros(len(F), dtype=bool))


def _refuse_svd(monkeypatch):
    def svd(*_):
        raise AssertionError("an SVD was taken")

    monkeypatch.setattr(np.linalg, "svd", svd)


def _spy_lapack(monkeypatch, calls):
    """Append "det", "solve1" or "svd" to ``calls`` for each determinant,
    LU solve or SVD that numpy's LAPACK gufuncs take; an SVD that also
    computes U and V is "svd with U and V"."""
    for owner, name in ((_umath_linalg, "det"), (_umath_linalg, "solve1"), (np.linalg, "svd")):
        real = getattr(owner, name)

        def spy(*a, real=real, name=name, **k):
            with_uv = name == "svd" and k.get("compute_uv", True)
            calls.append(name + " with U and V" if with_uv else name)
            return real(*a, **k)

        monkeypatch.setattr(owner, name, spy)


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
                    # the tree walk is the reference for the kept kernel too
                    np.testing.assert_array_equal(th[k], s.theta.at(row).as_covector())
                    np.testing.assert_array_equal(om[k], s.omega.at(row).as_matrix())
                    # the point's certificate and LU solve: its R bit for bit
                    assert R[k].tobytes() == reeb(s, row).tobytes()

    def test_an_uncertified_stack_is_solved_as_its_points_bit_for_bit(self, monkeypatch):
        # theta = 3e-8 dkappa passes the rank rule, but det(F / |F|_F) is
        # about 3e-16, far below the certificate's 1e-10
        s = _nearly_degenerate({"kappa": 3e-8})
        rows = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        th, om = s.rows(rows)
        assert not structures._certified(flat_from(th, om)).any()
        R = reeb_rows(th, om, rows)
        for k, row in enumerate(rows):
            np.testing.assert_array_equal(R[k], reeb(s, row))
        # so is every catalog stack when the certificate is withheld
        _walk_every_stack(monkeypatch)
        for name in CATALOG_SIZES:
            s = builtin(name)
            probes = np.array([pt.array for pt in s.default_probes()])
            R = _reeb_rows(s, probes)
            for k, row in enumerate(probes):
                np.testing.assert_array_equal(R[k], reeb(s, row), err_msg=name)

    def test_certified_stacks_take_no_svd(self, monkeypatch):
        stacks = []
        for name in CATALOG_SIZES:
            s = builtin(name)
            probes = np.array([pt.array for pt in s.default_probes()])
            stacks.append((s, probes, [reeb(s, row) for row in probes]))
        s = builtin("xjt_gtacos", ModelParameters(k=1.0, nu=1.0, delta=1.0))
        H = ScalarField.parse(s.chart, "q^2 + p^2 + x^2 + (y-1)^2 + 0.5*kappa", s.params)
        traj = dynamics.integrate(s, H, s.chart.point((0.1, 1.0, 0.2, 0.3, 0.0)), 1.0, 1e-3)
        assert len(traj.states) == 1001
        stacks.append((s, traj.states, [reeb(s, row) for row in traj.states]))
        _refuse_svd(monkeypatch)
        for s, rows, expected in stacks:
            R = _reeb_rows(s, rows)
            for got, want in zip(R, expected):
                assert got.tobytes() == want.tobytes()

    def test_a_zero_of_r_is_positive_in_rows_as_at_a_point(self):
        # LU's substitutions round R's zero components to -0.0 here
        s = builtin("xjt_gtacos")
        rows = np.array([[0.2, 1.0, 0.3, -0.2, 0.0]] * 2)
        assert structures._certified(flat_from(*s.rows(rows))).all()
        for R in (*_reeb_rows(s, rows), reeb(s, rows[0])):
            np.testing.assert_array_equal(R, [0.0, 0.0, 0.0, 0.0, 1.0])
            assert not np.signbit(R).any()

    def test_an_unconverged_point_svd_raises_linalg_error(self, monkeypatch):
        svd = _umath_linalg.svd  # the gufunc of singular values only

        def unconverged(*args, **kwargs):
            # the gufunc reports LAPACK's failure by the invalid flag, which
            # np.linalg.svd's errstate turns into its LinAlgError
            np.multiply(np.inf, 0.0)
            return svd(*args, **kwargs)

        monkeypatch.setattr(_umath_linalg, "svd", unconverged)
        # an uncertified point, so that the SVD is taken
        th, om, values = _nearly_degenerate({"kappa": 3e-8}).at((0.1, 0.2, 0.3))
        assert not structures._certified_at(flat_from(th, om))
        with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
            reeb_from(th, om, values)

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
        message = _message(reeb_rows, th, om, rows)
        assert message.startswith("Reeb system inconsistent")
        assert message == _message(reeb_from, th[0], om[0], rows[0])

    def test_first_failing_row_is_reported(self):
        good = builtin("darboux_contact(1)")
        rows = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]])
        th, om = good.rows(rows)
        om[1:] = np.eye(3)
        th[1:] = [0.0, 0.0, 1.0]
        assert _message(reeb_rows, th, om, rows) == _message(
            reeb_from, th[1], om[1], rows[1]
        )

    def test_a_walked_stack_reports_the_first_row_failing_any_check(self):
        # row 1 leaves a residual, row 2 fails the rank rule: row 1 is
        # reported, as the right-hand side would fail there first
        rows = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]])
        th, om = _nearly_degenerate({"kappa": 3e-8}).rows(rows)
        om[1], th[1] = np.eye(3), [0.0, 0.0, 1.0]
        th[2] = [0.0, 0.0, 1e-8]
        assert not structures._certified(flat_from(th, om))[[0, 2]].any()
        message = _message(reeb_rows, th, om, rows)
        assert message.startswith("Reeb system inconsistent")
        assert message == _message(reeb_from, th[1], om[1], rows[1])
        assert "rank 2 < 3" in _message(reeb_from, th[2], om[2], rows[2])

    def test_a_non_finite_flat_matrix_is_refused_before_the_svd(self, monkeypatch):
        # LAPACK's SVD need not return on a non-finite matrix
        rows = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]])
        th = np.array([[0.0, 0.0, 1.0]] * 3)
        om = np.array([[[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]] * 3)
        om[1, 0, 1], om[2, 1, 0] = np.inf, np.nan
        _refuse_svd(monkeypatch)
        message = _message(reeb_rows, th, om, rows)
        assert message == "flat matrix not finite at [0.4, 0.5, 0.6]"
        assert message == _message(reeb_from, th[1], om[1], rows[1])
        assert _message(reeb_from, th[2], om[2], rows[2]).endswith("[0.7, 0.8, 0.9]")


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


class TestOneNondegeneracyRule:
    # classify calls a structure acos exactly when the flat solve accepts F
    # at every probe: theta = c dkappa over dq^dp for c on both sides of the
    # rank boundary, and theta = 1e-6 dkappa over 1e-3 dq^dp, whose flat
    # matrix has singular ratio 1e-9 and volume coefficient 1e-9
    @pytest.mark.parametrize(
        "theta, omega, solvable",
        [
            ({"kappa": 3e-8}, 1.0, True),
            ({"kappa": 2e-8}, 1.0, False),
            ({"kappa": 1e-8}, 1.0, False),
            ({"kappa": 1e-10}, 1.0, False),
            ({"kappa": 1e-6}, 1e-3, True),
        ],
    )
    def test_acos_is_the_flat_solve_accepting_every_probe(
        self, theta, omega, solvable, monkeypatch
    ):
        s = _nearly_degenerate(theta, omega)
        probes = s.default_probes(count=8)
        solved = []
        for pt in probes:
            try:
                reeb(s, pt)
                solved.append(True)
            except StructureError:
                solved.append(False)
        assert all(solved) == solvable
        flags = classify(s, probes=probes)
        assert flags.acos == all(solved)
        _walk_every_stack(monkeypatch)  # the SVD alone decides every probe
        assert classify(s, probes=probes) == flags

    @pytest.mark.parametrize("name", CATALOG_SIZES)
    def test_the_certificate_leaves_the_catalog_flags_as_the_svd_sets_them(
        self, name, monkeypatch
    ):
        flags = builtin(name).classification()
        _walk_every_stack(monkeypatch)
        assert builtin(name).classification() == flags

    def test_classify_reads_each_form_once_per_probe(self, monkeypatch):
        s = builtin("xjt_gtacos")
        probes = s.default_probes(count=10)
        calls = []
        walk = KForm._at

        def counting_walk(self, *args, **kwargs):
            calls.append(self)
            return walk(self, *args, **kwargs)

        monkeypatch.setattr(KForm, "_at", counting_walk)
        expected = classify(s, probes=probes)
        assert calls == []  # one kernel pass reads theta, Omega, dtheta, dOmega
        s.kernel()
        assert classify(s, probes=probes) == expected
        assert calls == []

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_flat_determinant_is_the_squared_volume(self, n, seed):
        # det(Omega^T + theta theta^T) = (theta ^ Omega^n / n!)^2, so the flat
        # solve accepts F exactly where theta ^ Omega^n != 0
        rng = np.random.default_rng(seed)
        chart, dim = darboux_chart(n), 2 * n + 1
        th = rng.normal(size=dim)
        a = rng.normal(size=(dim, dim))
        om = a - a.T
        F = flat_from(th, om)
        assume(np.linalg.cond(F) < 1e5)
        theta = top = forms.FormValue(chart, 1, {(i,): th[i] for i in range(dim)})
        omega = forms.FormValue(
            chart, 2, {(i, j): om[i, j] for i in range(dim) for j in range(i + 1, dim)}
        )
        for _ in range(n):
            top = forms.wedge_values(top, omega)
        volume = top.coeffs[tuple(range(dim))] / math.factorial(n)
        det = np.linalg.det(F)
        assert abs(det - volume**2) <= 1e-10 * abs(det)
        # the same constant theta and Omega as a structure: its Pfaffian
        # volume is the wedge's top coefficient
        spec = StructureSpec(
            "dense", chart, KForm(chart, 1, theta.coeffs), KForm(chart, 2, omega.coeffs), n
        )
        top_coefficient = top.coeffs[tuple(range(dim))]
        assert abs(spec.volume_coefficient(np.zeros(dim)) - top_coefficient) <= 1e-10 * abs(
            top_coefficient
        )


@st.composite
def flat_matrices(draw):
    """F = Omega^T + theta theta^T for dim 3, 5, 7: theta random or c dkappa
    with c in [1e-9, 1e-3], and F scaled by 1e+-150 or 1e+-300 (theta by
    the square root), so that the Frobenius norm may overflow or underflow."""
    dim = draw(st.sampled_from([3, 5, 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(dim, dim))
    if draw(st.booleans()):
        th = rng.normal(size=dim)
    else:
        th = np.zeros(dim)
        th[-1] = 10.0 ** draw(st.floats(-9.0, -3.0))
    exponent = draw(st.sampled_from([0, 0, -150, 150, -300, 300]))
    F = flat_from(th * 10.0 ** (exponent // 2), (a - a.T) * 10.0**exponent)
    assume(np.isfinite(F).all())
    return F


class TestRankCertificate:
    @settings(max_examples=500, deadline=None)
    @given(flat_matrices())
    def test_a_certified_matrix_passes_the_rank_rule(self, F):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            certified = structures._certified(F[None])
        assert certified.shape == (1,)
        if certified[0]:
            s = np.linalg.svd(F, compute_uv=False)
            assert s[-1] > np.finfo(float).eps * len(F) * s[0]

    def test_overflow_and_underflow_are_uncertified_without_warnings(self):
        F = flat_from(np.array([0.0, 0.0, 1.0]), np.array(
            [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        assert structures._certified(F[None])[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1e-160, 1e160, 0.0):
                assert not structures._certified((F * scale)[None])[0]

    def test_a_larger_dimension_is_left_to_the_svd(self):
        s = builtin("darboux_contact(5)")
        probes = np.array([pt.array for pt in s.default_probes(count=4)])
        th, om = s.rows(probes)
        assert not structures._certified(flat_from(th, om)).any()
        R = reeb_rows(th, om, probes)
        for k, row in enumerate(probes):
            np.testing.assert_array_equal(R[k], reeb(s, row))


class TestPointCertificate:
    @settings(max_examples=500, deadline=None)
    @given(flat_matrices())
    def test_a_certified_point_is_a_certified_row_and_passes_the_rank_rule(self, F):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            certified = structures._certified_at(F)
            assert certified == structures._certified(F[None])[0]
        if certified:
            s = np.linalg.svd(F, compute_uv=False)
            assert s[-1] > np.finfo(float).eps * len(F) * s[0]

    def test_overflow_underflow_and_non_finite_are_uncertified_without_warnings(self):
        F = flat_from(np.array([0.0, 0.0, 1.0]), np.array(
            [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        assert structures._certified_at(F)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for G in (F * 1e-160, F * 1e160, F * 0.0, F + np.inf, F + np.nan):
                assert not structures._certified_at(G)

    @pytest.mark.parametrize("name", ["xjt_gtacos", "darboux_contact(3)"])
    def test_a_certified_rk4_run_takes_no_svd(self, name, monkeypatch):
        s = builtin(name)
        dim = s.chart.dimension
        H = ScalarField.parse(s.chart, "".join(c + "^2 + " for c in s.chart.coordinates[:-1])
                              + "0.5*kappa")
        x0 = s.chart.point([0.1] + [1.0] * (dim - 2) + [0.0])
        expected = dynamics.integrate(s, H, x0, 0.2, 0.01, method="rk4")
        _refuse_svd(monkeypatch)
        traj = dynamics.integrate(s, H, x0, 0.2, 0.01, method="rk4")
        assert len(traj.states) == 21 and not traj.escaped
        np.testing.assert_array_equal(traj.states, expected.states)
        np.testing.assert_array_equal(traj.dissipation_residuals, expected.dissipation_residuals)

    def test_an_uncertified_point_is_solved_by_lu_bit_for_bit(self):
        # theta = 3e-8 dkappa (det(F / |F|_F) about 3e-16) and dim = 11
        # (past the certificate's cap): the SVD decides the rank rule, and
        # R is F's LU solve, as at a certified point
        cases = [(_nearly_degenerate({"kappa": 3e-8}), [(0.1, 0.2, 0.3), (0.4, 0.5, 0.6)])]
        s = builtin("darboux_contact(5)")
        cases.append((s, s.default_probes(count=8)))
        for s, points in cases:
            for pt in points:
                th, om, values = s.at(pt)
                F = flat_from(th, om)
                assert not structures._certified_at(F)
                R, kept = reeb_from(th, om, values)
                assert R.tobytes() == (np.linalg.solve(F, th) + 0.0).tobytes()
                assert kept.tobytes() == F.tobytes()

    def test_the_svd_decides_only_where_the_certificate_cannot(self, rng, monkeypatch):
        # R, then X_f and X_g of a bracket, a gradient field and a sharp at
        # one point: one LU solve each, after the certificate or, where it
        # cannot prove the rank rule, one SVD without U and V
        calls = []
        _spy_lapack(monkeypatch, calls)
        for s, decision in ((builtin("xjt_gtacos"), ["det"]),
                            (_nearly_degenerate({"kappa": 3e-8}), ["det", "svd"]),
                            (builtin("darboux_contact(5)"), ["svd"])):
            f, g = random_polynomial(s.chart, rng), random_polynomial(s.chart, rng)
            for _ in range(2):
                pt = random_point(s.chart, rng)
                del calls[:]
                dynamics.jacobi_bracket_generic(s, f, g, pt)
                dynamics.gradient_field(s, f, pt)
                sharp(s, np.ones(s.chart.dimension), pt)
                assert calls == decision + ["solve1"] * 5, s.name


@pytest.mark.parametrize("dim", range(1, 10))
def test_numpys_lapack_gufuncs_give_its_wrappers_bits(dim):
    # the solves call numpy's private gufuncs, skipping np.linalg's checks
    # and errstate: a numpy that renames or changes them fails here
    rng = np.random.default_rng([28, dim])
    F = rng.normal(size=(16, dim, dim)) * 10.0 ** rng.integers(-8, 9, size=(16, 1, 1))
    b = rng.normal(size=(16, dim))
    for k in range(16):
        assert _umath_linalg.det(F[k]).tobytes() == np.linalg.det(F[k]).tobytes()
        assert _umath_linalg.solve1(F[k], b[k]).tobytes() == np.linalg.solve(F[k], b[k]).tobytes()
    assert _umath_linalg.det(F).tobytes() == np.linalg.det(F).tobytes()
    stacked = np.linalg.solve(F, b[..., None])[..., 0]
    assert _umath_linalg.solve1(F, b).tobytes() == stacked.tobytes()


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


def _huge_coefficients():
    chart = darboux_chart(1)
    return StructureSpec(
        "huge",
        chart,
        KForm.one_form(chart, {"kappa": 1e200}),
        KForm.two_form(chart, {"q,p": 1e200}),
        1,
    )


@pytest.mark.parametrize(
    "structure",
    [_huge_coefficients, CanonicalThetaSpec(a=(0.0,) * 171, b=(0.0,) * 171, c=1.0).structure],
    ids=["huge_coefficients", "171_factorial"],
)
def test_a_non_finite_volume_raises_eval_error_naming_the_point(structure):
    s = structure()
    point = [0.1] * s.chart.dimension
    with pytest.raises(EvalError) as err:
        s.volume_coefficient(point)
    assert str(point) in str(err.value)


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
