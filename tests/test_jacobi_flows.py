import dataclasses

import numpy as np
import pytest

from cosym import cli, jacobi_flows, manifolds
from cosym.charts import ScalarField
from cosym.jacobi_flows import (
    REFERENCE_COEFFS,
    LinearHamiltonianCoefficients,
    SplitEnergy,
    base_field,
    energy,
    eom,
    integrate_riccati,
    integrate_variant,
    paper_discrepancy_report,
    red_green_decomposition,
    riccati_rhs,
    riccati_rhs_printed,
    split_energy,
)
from cosym.manifolds import CHART_XJT, ModelParameters

UNIT = ModelParameters()


def random_coeffs(rng, h_kappa=None):
    return LinearHamiltonianCoefficients(
        a=float(rng.uniform(-1, 1)),
        b=float(rng.uniform(-1, 1)),
        c_lin=float(rng.uniform(-1, 1)),
        m=float(rng.uniform(-1, 1)),
        n_lin=float(rng.uniform(-1, 1)),
        h_kappa=h_kappa,
    )


class TestEnergy:
    def test_reference_value(self):
        coeffs = LinearHamiltonianCoefficients(c_lin=0.5, m=0.5)
        assert energy(split_energy(coeffs, UNIT), (0.0, 1.0, 0.0, 0.0)) == pytest.approx(1.0)

    def test_zero_coefficients(self, rng):
        model = split_energy(LinearHamiltonianCoefficients(), UNIT)
        for _ in range(5):
            pt = (rng.uniform(-1, 1), rng.uniform(0.2, 2), rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert energy(model, pt) == 0.0

    def test_matches_expression_tree_oracle(self, rng):
        # independent path: parse the closed-form energy as one expression
        for _ in range(10):
            coeffs = random_coeffs(rng)
            params = ModelParameters(k=float(rng.uniform(0.5, 2)), nu=float(rng.uniform(0.5, 2)))
            source = (
                "nu*((m+c)*q^2 + (c-m)*p^2 + 2*n*q*p + 2*(a*q + b*p))"
                " + k*((1/y)*((m+c)*(x^2+y^2) - 2*(n*x + c*y)) + 3*c - m)"
            )
            oracle = ScalarField.parse(
                CHART_XJT,
                source,
                {
                    "a": coeffs.a,
                    "b": coeffs.b,
                    "c": coeffs.c_lin,
                    "m": coeffs.m,
                    "n": coeffs.n_lin,
                    "k": params.k,
                    "nu": params.nu,
                },
            )
            x, y = rng.uniform(-1, 1), rng.uniform(0.2, 2.0)
            q, p = rng.uniform(-1, 1), rng.uniform(-1, 1)
            got = energy(split_energy(coeffs, params), (x, y, q, p))
            want = oracle.value((x, y, q, p, 0.0))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_split_independence(self):
        coeffs = LinearHamiltonianCoefficients(a=0.3, b=-0.1, c_lin=0.4, m=0.2, n_lin=0.7)
        se = split_energy(coeffs, UNIT)
        for name in ("x", "y"):
            assert se.h_pq.partial(name).is_zero()
        for name in ("q", "p"):
            assert se.h_xy.partial(name).is_zero()
        for field in (se.h_pq, se.h_xy):
            assert field.partial("kappa").is_zero()

    def test_total_is_sum(self, rng):
        coeffs = random_coeffs(rng, h_kappa="kappa^2")
        se = split_energy(coeffs, UNIT)
        v = np.array([0.3, 1.2, -0.4, 0.8, 0.6])
        total = se.total.value(v)
        parts = (
            se.h_pq.value(v)
            + se.h_xy.value(v)
            + se.h_kappa.value(v)
        )
        assert total == pytest.approx(parts, rel=1e-14)

    def test_h_kappa_must_be_kappa_only(self):
        coeffs = LinearHamiltonianCoefficients(h_kappa="q + kappa")
        with pytest.raises(ValueError):
            split_energy(coeffs, UNIT)


class TestEquationsOfMotion:
    def test_pure_q_linear_hamiltonian(self):
        # H = q comes from a = 1/(2 nu); the flow drifts p and dissipates kappa
        coeffs = LinearHamiltonianCoefficients(a=0.5)
        got = eom(split_energy(coeffs, UNIT), "gtacos", (0.0, 1.0, 2.0, 3.0, 0.0))
        assert got == pytest.approx([0.0, 0.0, 0.0, -0.5, -1.0], abs=1e-12)

    def test_zero_hamiltonian_zero_velocity(self):
        model = split_energy(LinearHamiltonianCoefficients(), UNIT)
        for variant in ("base_xj1", "gtacos", "contact"):
            at = (0.2, 1.1, 0.4, -0.3, 0.5) if variant != "base_xj1" else (0.2, 1.1, 0.4, -0.3)
            assert np.abs(eom(model, variant, at)).max() == 0.0

    def test_gtacos_matches_base_when_h_zero(self, rng):
        for _ in range(10):
            model = split_energy(random_coeffs(rng), UNIT)
            at = (
                float(rng.uniform(-1, 1)),
                float(rng.uniform(0.3, 2)),
                float(rng.uniform(-1, 1)),
                float(rng.uniform(-1, 1)),
                float(rng.uniform(-1, 1)),
            )
            full = eom(model, "gtacos", at)
            base = base_field(model, at[:4])
            assert full[:4] == pytest.approx(base, abs=1e-12)

    def test_gtacos_kappa_component(self, rng):
        # kappa' = (1/2nu)(p H_p + q H_q) - H / sqrt(delta)
        params = ModelParameters(delta=4.0)
        for _ in range(10):
            coeffs = random_coeffs(rng)
            se = split_energy(coeffs, params)
            at = np.array(
                [
                    rng.uniform(-1, 1),
                    rng.uniform(0.3, 2),
                    rng.uniform(-1, 1),
                    rng.uniform(-1, 1),
                    rng.uniform(-1, 1),
                ]
            )
            got = eom(se, "gtacos", at)
            dH = se.total.gradient(at)
            h = se.total.value(at)
            expect = (at[3] * dH[3] + at[2] * dH[2]) / (2 * params.nu) - h / 2.0
            assert got[4] == pytest.approx(expect, rel=1e-10, abs=1e-10)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            eom(split_energy(LinearHamiltonianCoefficients(), UNIT), "sasaki", (0, 1, 0, 0, 0))


class TestRiccati:
    def test_pure_rotation_coefficients(self):
        coeffs = LinearHamiltonianCoefficients(m=0.5, c_lin=0.5)
        assert riccati_rhs(coeffs, (0.0, 1.0)) == pytest.approx([1.0, 0.0])

    def test_pure_shear_coefficients(self):
        coeffs = LinearHamiltonianCoefficients(n_lin=1.0)
        assert riccati_rhs(coeffs, (1.0, 1.0)) == pytest.approx([2.0, 2.0])

    def test_degenerate_coefficients_freeze_plane(self, rng):
        coeffs = LinearHamiltonianCoefficients(m=0.5, c_lin=-0.5, n_lin=0.0, a=0.3, b=0.1)
        for _ in range(10):
            at = (rng.uniform(-2, 2), rng.uniform(0.1, 3.0))
            assert riccati_rhs(coeffs, at) == pytest.approx([0.0, 0.0])

    def test_matches_symbolic_differentiation_oracle(self, rng):
        # x' = (y^2/k) dH/dy, y' = -(y^2/k) dH/dx with the split energy
        for _ in range(20):
            coeffs = random_coeffs(rng)
            params = ModelParameters(k=float(rng.uniform(0.5, 2)))
            se = split_energy(coeffs, params)
            x, y = float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.2, 2.5))
            v = np.array([x, y, 0.3, -0.4, 0.0])
            dH = se.h_xy.gradient(v)
            expect = np.array([(y**2 / params.k) * dH[1], -(y**2 / params.k) * dH[0]])
            assert riccati_rhs(coeffs, (x, y)) == pytest.approx(expect, rel=1e-11)

    def test_half_plane_preserved(self, rng):
        for _ in range(10):
            coeffs = LinearHamiltonianCoefficients(
                m=float(rng.uniform(0.05, 0.5)),
                c_lin=float(rng.uniform(0.05, 0.5)),
                n_lin=float(rng.uniform(-0.5, 0.5)),
            )
            flow = integrate_riccati(coeffs, (0.3, 1.0), 1.0, 1e-2)
            assert flow.states[:, 1].min() > 0.0 and len(flow.times) == 101 and not flow.escaped

    def test_a_numerical_crossing_of_y_0_is_an_escape(self):
        # y' = -600 y decays past RK45's tolerance: a stage lands below
        # y = 0, where the flow still steps, and a recorded state follows
        coeffs = LinearHamiltonianCoefficients(n_lin=-300.0)
        flow = integrate_riccati(coeffs, (0.0, 1.0), 1.0, 0.01)
        assert flow.escaped and flow.diagnostic == "domain escape on recorded state"
        assert len(flow.times) == len(flow.states) == 7 and flow.states[:, 1].min() > 0.0

    def test_requires_upper_half_plane(self):
        with pytest.raises(ValueError):
            riccati_rhs(LinearHamiltonianCoefficients(), (0.0, -1.0))
        with pytest.raises(ValueError):
            integrate_riccati(LinearHamiltonianCoefficients(), (0.0, 0.0), 1.0, 0.1)

    def test_printed_rhs_deviates(self):
        coeffs = LinearHamiltonianCoefficients(a=0.1, b=-0.2, c_lin=0.3, m=0.2, n_lin=-0.1)
        at = (0.3, 1.2)
        assert np.abs(riccati_rhs(coeffs, at) - riccati_rhs_printed(coeffs, at)).max() > 1e-3


class TestRedGreenDecomposition:
    def test_base_plus_correction_reconstructs(self, rng):
        for variant in ("gtacos", "contact"):
            model = split_energy(random_coeffs(rng, h_kappa="kappa"), UNIT)
            at = (0.2, 1.3, 0.5, -0.4, 0.7)
            base, corr = red_green_decomposition(model, variant, at)
            assert base + corr == pytest.approx(eom(model, variant, at), abs=1e-12)
            assert base[4] == 0.0

    def test_kappa_independent_gtacos_corrections_vanish_on_plane(self, rng):
        model = split_energy(random_coeffs(rng), UNIT)
        base, corr = red_green_decomposition(model, "gtacos", (0.2, 1.3, 0.5, -0.4, 0.7))
        assert np.abs(corr[:4]).max() <= 1e-12

    def test_kappa_term_activates_q_correction(self):
        coeffs = LinearHamiltonianCoefficients(h_kappa="kappa")
        base, corr = red_green_decomposition(
            split_energy(coeffs, UNIT), "gtacos", (0.0, 1.0, 1.0, 1.0, 0.0)
        )
        assert corr[2] == pytest.approx(-0.5)  # -q/(2 nu) dh/dkappa
        assert corr[3] == pytest.approx(-0.5)  # -p/(2 nu) dh/dkappa

    def test_contact_corrections_for_kappa_independent_h(self, rng):
        coeffs = random_coeffs(rng)
        at = (0.2, 1.3, 0.5, -0.4, 0.7)
        base, corr = red_green_decomposition(split_energy(coeffs, UNIT), "contact", at)
        # dH/dkappa = 0 kills the green terms on x and y (and also q, p)
        assert np.abs(corr[:4]).max() <= 1e-12

    def test_contact_y_correction_tracks_kappa_derivative(self):
        coeffs = LinearHamiltonianCoefficients(h_kappa="2*kappa")
        at = (0.0, 1.5, 0.0, 0.0, 0.0)
        base, corr = red_green_decomposition(split_energy(coeffs, UNIT), "contact", at)
        # y' correction = (y / sqrt(delta)) dh/dkappa
        assert corr[1] == pytest.approx(1.5 * 2.0, rel=1e-12)

    def test_base_variant_rejected(self):
        with pytest.raises(ValueError):
            red_green_decomposition(
                split_energy(LinearHamiltonianCoefficients(), UNIT), "base_xj1", (0, 1, 0, 0, 0)
            )


class TestTrajectoryEquivalence:
    def test_plane_projection_matches_riccati(self, rng):
        for _ in range(4):
            coeffs = LinearHamiltonianCoefficients(
                a=float(rng.uniform(-0.5, 0.5)),
                b=float(rng.uniform(-0.5, 0.5)),
                c_lin=float(rng.uniform(0.1, 0.6)),
                m=float(rng.uniform(0.0, 0.4)),
                n_lin=float(rng.uniform(-0.5, 0.5)),
            )
            x0 = CHART_XJT.point((0.1, 1.0, 0.2, -0.1, 0.0))
            traj = integrate_variant(split_energy(coeffs, UNIT), "gtacos", x0, 1.0, 1e-2)
            states = integrate_riccati(coeffs, (0.1, 1.0), 1.0, 1e-2).states
            assert np.abs(traj.states[:, :2] - states).max() <= 1e-6

    def test_dissipation_specialization_along_flow(self, rng):
        params = ModelParameters(delta=2.0)
        coeffs = LinearHamiltonianCoefficients(
            a=0.2, b=-0.1, c_lin=0.3, m=0.1, n_lin=0.2, h_kappa="kappa"
        )
        x0 = CHART_XJT.point((0.1, 1.0, 0.2, -0.1, 0.3))
        traj = integrate_variant(split_energy(coeffs, params), "gtacos", x0, 1.0, 1e-3)
        assert traj.max_dissipation_residual <= 1e-6


class TestDiscrepancyReport:
    def test_all_entries_nonzero_at_reference_point(self):
        report = paper_discrepancy_report()
        entries = report["entries"]
        expected_keys = {
            "riccati_xy",
            "linear_pq",
            "linear_kappa",
            "contact_field",
            "contact_kappa",
            "xjt_poisson_bracket",
            "volume_coefficient",
        }
        assert expected_keys <= set(entries)
        for key in expected_keys:
            assert entries[key]["max_deviation"] > 1e-6, key

    def test_volume_entry_documents_factor_two(self):
        report = paper_discrepancy_report()
        entry = report["entries"]["volume_coefficient"]
        assert entry["derived"][0] == pytest.approx(2.0 * entry["printed"][0], rel=1e-12)


class TestOneModel:
    def test_a_compare_command_builds_one_model_and_each_structure_once(self, monkeypatch):
        models, structures = [], []
        build_model, build_structure = jacobi_flows.split_energy, manifolds.builtin

        def model_spy(*args):
            models.append(build_model(*args))
            return models[-1]

        def structure_spy(name, params=None):
            structures.append(name)
            return build_structure(name, params)

        monkeypatch.setattr(jacobi_flows, "split_energy", model_spy)
        for module in (manifolds, jacobi_flows):  # every binding site
            monkeypatch.setattr(module, "builtin", structure_spy)
        code = cli.main([
            "compare", "--variants", "gtacos,base_xj1,contact",
            "--a", "0.1", "--c", "0.4", "--m", "0.2", "--h-kappa", "kappa^2",
            "--x0", "0.1,1,0.2,-0.1,0.3", "--t-end", "0.1", "--dt", "0.01",
            "--paper-verbatim",
        ])
        assert code == 0
        assert len(models) == 1
        assert sorted(structures) == ["xjt_contact", "xjt_gtacos"]

    def test_a_replaced_model_builds_its_own_structures(self):
        model = split_energy(REFERENCE_COEFFS, UNIT)
        with pytest.raises(TypeError):
            SplitEnergy(**vars(model))  # the kept structures are no constructor argument
        old = model.structure("gtacos")
        moved = dataclasses.replace(model, params=ModelParameters(delta=2.0))
        assert moved.structure("gtacos") is not old
        assert model.structure("gtacos") is old

    def test_kernels_do_not_move_results(self, rng):
        coeffs = random_coeffs(rng, h_kappa="kappa^2")
        flowed = split_energy(coeffs, UNIT)
        x0 = CHART_XJT.point((0.1, 1.0, 0.2, -0.1, 0.3))
        for variant in ("gtacos", "contact"):
            integrate_variant(flowed, variant, x0, 0.1, 1e-2)
            assert flowed.structure(variant)._kernel is not None
        assert flowed.total._kernel is not None
        for _ in range(10):
            at = (
                float(rng.uniform(-1, 1)),
                float(rng.uniform(0.3, 2)),
                float(rng.uniform(-1, 1)),
                float(rng.uniform(-1, 1)),
                float(rng.uniform(-1, 1)),
            )
            fresh = split_energy(coeffs, UNIT)
            for variant in ("gtacos", "contact"):
                got = (eom(flowed, variant, at), *red_green_decomposition(flowed, variant, at))
                want = (eom(fresh, variant, at), *red_green_decomposition(fresh, variant, at))
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
            assert fresh.total._kernel is None  # the fresh model walked the trees
