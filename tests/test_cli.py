import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cosym import cli
from cosym.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, main
from cosym.structures import StructureSpec, reeb


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestListManifolds:
    def test_lists_catalog(self, capsys):
        code, out, _ = run(capsys, "list-manifolds")
        assert code == EXIT_OK
        doc = json.loads(out)
        names = {entry["name"] for entry in doc}
        assert {"heisenberg", "xjt_gtacos", "xjt_contact"} <= names

    def test_emit_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "list-manifolds", "--emit", str(tmp_path))
        assert code == EXIT_OK
        emitted = sorted(tmp_path.glob("*.json"))
        assert len(emitted) == 5
        for path in emitted:
            spec = StructureSpec.from_json(path)
            probes = spec.default_probes(count=8)
            # reload classifies identically and the Reeb vector matches
            reloaded = StructureSpec.from_json(json.loads(path.read_text()))
            assert (
                reloaded.classification(probes=probes).flags()
                == spec.classification(probes=probes).flags()
            )
            for pt in probes[:2]:
                assert reeb(reloaded, pt) == pytest.approx(reeb(spec, pt), abs=1e-15)


class TestCheckStructure:
    def test_gtacos_report(self, capsys):
        code, out, _ = run(capsys, "check-structure", "--builtin", "xjt_gtacos")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["flags"]["gtacos"] is True
        assert doc["flags"]["contact"] is False
        reeb_vec = np.array(doc["reeb"])
        assert np.abs(reeb_vec - [0, 0, 0, 0, 1.0]).max() <= 1e-12

    def test_heisenberg_contact(self, capsys):
        code, out, _ = run(capsys, "check-structure", "--builtin", "heisenberg")
        assert code == EXIT_OK
        assert json.loads(out)["flags"]["contact"] is True

    def test_malformed_expression_exits_2(self, capsys, tmp_path):
        doc = {
            "name": "broken",
            "chart": {"coordinates": ["q", "p", "kappa"], "guards": []},
            "n": 1,
            "theta": {"kappa": "1 + * q"},
            "omega": {"q,p": "1"},
        }
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check-structure", "--structure-json", str(path))
        assert code == EXIT_INPUT
        assert "offset" in err

    def test_unknown_builtin_exits_2(self, capsys):
        code, _, err = run(capsys, "check-structure", "--builtin", "moebius")
        assert code == EXIT_INPUT
        assert "moebius" in err


class TestFieldAndReeb:
    def test_reeb_command(self, capsys):
        code, out, _ = run(
            capsys, "reeb", "--builtin", "darboux_contact", "--at", "0.3,0.7,0.1"
        )
        assert code == EXIT_OK
        assert np.array(json.loads(out)["reeb"]) == pytest.approx([0, 0, 1], abs=1e-12)

    def test_field_command(self, capsys):
        code, out, _ = run(
            capsys,
            "field",
            "--builtin",
            "darboux_contact",
            "--hamiltonian",
            "kappa",
            "--at",
            "1,2,3",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert np.array(doc["hamiltonian_field"]) == pytest.approx([0, -2, -3])
        assert doc["dissipation_identity_residual"] <= 1e-10

    def test_domain_violation_exits_2(self, capsys):
        code, _, err = run(
            capsys, "reeb", "--builtin", "xjt_gtacos", "--at", "0,-1,0,0,0"
        )
        assert code == EXIT_INPUT
        assert "y" in err


    @pytest.mark.parametrize(
        "hamiltonian, at",
        [("y^0.5", "0,-1,0"), ("x^(-1)", "0,1,0"), ("exp(x)", "1000,1,0")],
    )
    def test_expression_failure_exits_2(self, capsys, hamiltonian, at):
        code, out, err = run(
            capsys, "field", "--builtin", "heisenberg",
            "--hamiltonian", hamiltonian, "--at", at,
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: ") and "expression" in err

    def test_overflow_to_infinity_exits_2(self, capsys):
        # each factor is finite; their product overflows to inf, and x = 0
        # would make it NaN
        for at in ("1,1,0", "0,1,0"):
            code, out, err = run(
                capsys, "field", "--builtin", "heisenberg",
                "--hamiltonian", "exp(700)*exp(700)*x", "--at", at,
            )
            assert code == EXIT_INPUT
            assert out == ""
            assert err.startswith("error: ") and "not finite" in err
            assert "Warning" not in err


class TestBracket:
    def test_poisson(self, capsys):
        code, out, _ = run(
            capsys, "bracket", "--kind", "poisson", "--f", "q", "--g", "p",
            "--at", "0.3,0.7,0.1",
        )
        assert code == EXIT_OK
        assert json.loads(out)["value"] == 1.0

    def test_jacobi(self, capsys):
        code, out, _ = run(
            capsys, "bracket", "--kind", "jacobi", "--f", "kappa", "--g", "q",
            "--at", "2,0,7",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["value"] == -2.0
        assert doc["antisymmetry_residual"] == 0.0


class TestIntegrate:
    def test_csv_and_summary(self, capsys, tmp_path):
        csv_path = tmp_path / "traj.csv"
        json_path = tmp_path / "traj.json"
        code, out, _ = run(
            capsys,
            "integrate",
            "--builtin", "darboux_contact",
            "--hamiltonian", "kappa",
            "--x0", "0,1,1",
            "--t-end", "1",
            "--dt", "0.001",
            "--csv", str(csv_path),
            "--json-out", str(json_path),
        )
        assert code == EXIT_OK
        with open(csv_path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["t", "q", "p", "kappa", "H", "dissipation_residual"]
        final = rows[-1]
        assert float(final[0]) == pytest.approx(1.0)
        assert float(final[3]) == pytest.approx(np.exp(-1.0), abs=1e-6)
        doc = json.loads(json_path.read_text())
        assert doc["metadata"]["structure"] == "darboux_contact(1)"
        summary = json.loads(out)
        assert summary["max_dissipation_residual"] <= 1e-5
        assert summary["escaped"] is False

    def test_energy_conservation_summary(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "integrate",
            "--builtin", "xjt_gtacos",
            "--hamiltonian", "q^2 + p^2 + x^2 + (y-1)^2",
            "--x0", "0,1,0.3,0.2,0",
            "--t-end", "1",
            "--dt", "0.001",
        )
        assert code == EXIT_OK
        assert json.loads(out)["energy_drift"] <= 1e-6

    def test_zero_t_end_single_row(self, capsys, tmp_path):
        csv_path = tmp_path / "single.csv"
        code, out, _ = run(
            capsys,
            "integrate",
            "--builtin", "darboux_contact",
            "--hamiltonian", "kappa",
            "--x0", "0.1,0.2,0.3",
            "--t-end", "0",
            "--dt", "0.1",
            "--csv", str(csv_path),
        )
        assert code == EXIT_OK
        rows = csv_path.read_text().splitlines()
        assert len(rows) == 2  # header + initial point
        assert rows[1].startswith("0,0.1")

    def test_domain_escape_exits_1(self, capsys):
        code, out, _ = run(
            capsys,
            "integrate",
            "--builtin", "xjt_gtacos",
            "--hamiltonian", "x/y^2",
            "--x0", "0,0.5,0,0,0",
            "--t-end", "1",
            "--dt", "0.01",
        )
        assert code == EXIT_NUMERICAL
        summary = json.loads(out)
        assert summary["escaped"] is True
        assert summary["min_y"] > 0.0

    @pytest.mark.parametrize("method", [[], ["--method", "rk4"]])
    def test_stage_on_guard_surface_is_an_escape(self, capsys, method):
        # y = 0.5 - t reaches the guard y > 0 exactly at t_end, where the
        # right-hand side divides by zero.
        code, out, _ = run(
            capsys,
            "integrate",
            "--builtin", "xjt_gtacos",
            "--hamiltonian", "x/y^2",
            "--x0", "0,0.5,0,0,0",
            "--t-end", "0.5",
            "--dt", "0.01",
            *method,
        )
        assert code == EXIT_NUMERICAL
        summary = json.loads(out)
        assert summary["escaped"] is True
        assert "domain escape" in summary["diagnostic"]
        assert summary["rows"] == 50
        assert summary["min_y"] > 0.0

    def test_config_file(self, capsys, tmp_path):
        config = {
            "builtin": "darboux_contact",
            "hamiltonian": "kappa",
            "x0": [0.0, 1.0, 1.0],
            "t-end": 0.5,
            "dt": 0.01,
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code, out, _ = run(capsys, "integrate", "--config", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["rows"] == 51


class TestSweep:
    POINTS = [[0.2, 1.0, 0.3, -0.2, 0.0], [0.1, 1.2, 0.0, 0.4, 0.3]]

    def _config(self, tmp_path):
        config = {
            "builtin": "xjt_gtacos",
            "hamiltonian": "q^2 + p^2 + x^2 + (y-1)^2",
            "t-end": 0.5,
            "dt": 0.01,
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        return str(path)

    def test_matches_single_runs_bit_for_bit(self, capsys, tmp_path):
        config = self._config(tmp_path)
        points = tmp_path / "points.json"
        points.write_text(json.dumps(self.POINTS))
        tol = ("--rtol", "1e-3", "--atol", "1e-3")
        code, out, _ = run(
            capsys, "integrate", "--config", config, "--sweep", str(points), *tol
        )
        assert code == EXIT_OK
        sweep = json.loads(out)["sweep"]
        assert len(sweep) == 2
        for i, (entry, x0) in enumerate(zip(sweep, self.POINTS)):
            single = tmp_path / ("single%d.json" % i)
            code, _, _ = run(
                capsys, "integrate", "--config", config,
                "--x0=" + ",".join(repr(v) for v in x0), "--json-out", str(single), *tol,
            )
            assert code == EXIT_OK
            doc = json.loads(single.read_text())
            assert len(doc["times"]) == 51  # t-end and dt come from the config
            assert entry["x0"] == x0
            assert entry["final"] == doc["states"][-1]
            assert entry["escaped"] is False

    def test_escape_exits_1(self, capsys, tmp_path):
        points = tmp_path / "points.json"
        # y falls at unit speed under x/y^2: the first point leaves y > 0
        # before t = 1, the second does not.
        points.write_text(json.dumps([[0.0, 0.5, 0.0, 0.0, 0.0], [0.2, 2.0, 0.3, -0.2, 0.0]]))
        code, out, _ = run(
            capsys, "integrate", "--config", self._config(tmp_path),
            "--hamiltonian", "x/y^2", "--t-end", "1", "--sweep", str(points),
        )
        assert code == EXIT_NUMERICAL
        sweep = json.loads(out)["sweep"]
        assert sweep[0]["escaped"] is True
        assert sweep[1]["escaped"] is False


class TestCompare:
    def test_gtacos_vs_base(self, capsys):
        code, out, _ = run(
            capsys,
            "compare",
            "--variants", "gtacos,base_xj1",
            "--a", "0.1", "--b", "0.2", "--c", "0.4", "--m", "0.2", "--n", "0.1",
            "--x0", "0.1,1,0.2,-0.1,0",
            "--t-end", "0.5", "--dt", "0.01",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["deltas"]["gtacos_vs_base_xj1"]["max"] <= 1e-8
        assert doc["corrections"]["gtacos"]["active_components"] == ["kappa"]

    def test_kappa_coupling_activates_corrections(self, capsys):
        code, out, _ = run(
            capsys,
            "compare",
            "--variants", "gtacos,base_xj1",
            "--c", "0.4", "--h-kappa", "kappa",
            "--x0", "0.1,1,0.5,-0.3,0.2",
            "--t-end", "0.2", "--dt", "0.01",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        active = doc["corrections"]["gtacos"]["active_components"]
        assert "q" in active and "p" in active
        assert doc["deltas"]["gtacos_vs_base_xj1"]["max"] > 1e-4

    def test_identical_variants_zero_delta(self, capsys):
        code, out, _ = run(
            capsys,
            "compare",
            "--variants", "gtacos,gtacos",
            "--c", "0.4",
            "--x0", "0.1,1,0.2,-0.1,0",
            "--t-end", "0.2", "--dt", "0.01",
        )
        assert code == EXIT_OK

    def test_paper_verbatim_report(self, capsys):
        code, out, _ = run(
            capsys,
            "compare",
            "--variants", "gtacos,contact",
            "--a", "0.1", "--b", "-0.2", "--c", "0.3", "--m", "0.2", "--n", "-0.1",
            "--h-kappa", "kappa",
            "--x0", "0.3,1.2,0.4,-0.2,0.1",
            "--t-end", "0.1", "--dt", "0.01",
            "--paper-verbatim",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        entries = doc["paper_verbatim"]["entries"]
        for key in ("riccati_xy", "linear_pq", "linear_kappa", "contact_kappa"):
            assert entries[key]["max_deviation"] > 1e-6


    def test_zero_dt_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "compare",
            "--variants", "base_xj1,gtacos",
            "--c", "0.4", "--x0=0.1,1,0,0,0", "--dt", "0",
        )
        assert code == EXIT_INPUT
        assert "error: dt must be positive" in err

    def test_zero_t_end_single_row_per_variant(self, capsys, tmp_path):
        path = tmp_path / "cmp.csv"
        code, out, _ = run(
            capsys,
            "compare",
            "--variants", "gtacos,base_xj1,contact",
            "--c", "0.4", "--x0=0.1,1,0,0,0", "--t-end", "0",
            "--csv", str(path),
        )
        assert code == EXIT_OK
        rows = path.read_text().splitlines()
        assert len(rows) == 2  # header + the initial point of every variant
        x0 = ["0.10000000000000001", "1", "0", "0", "0"]
        assert rows[1].split(",") == ["0"] + x0 + x0[:4] + x0
        assert json.loads(out)["deltas"]["gtacos_vs_base_xj1"]["max"] == 0.0


class TestRiccati:
    def test_trajectory_csv(self, capsys, tmp_path):
        path = tmp_path / "ric.csv"
        code, out, _ = run(
            capsys,
            "riccati",
            "--m", "0.3", "--c", "0.4", "--n", "0.1",
            "--x0", "0,1", "--t-end", "1", "--dt", "0.01",
            "--csv", str(path),
        )
        assert code == EXIT_OK
        rows = path.read_text().splitlines()
        assert rows[0] == "t,x,y"
        assert len(rows) == 102
        assert json.loads(out)["min_y"] > 0

    def test_paper_verbatim(self, capsys):
        code, out, _ = run(capsys, "riccati", "--paper-verbatim")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["entries"]["riccati_xy"]["max_deviation"] > 1e-6


    def test_zero_dt_exits_2(self, capsys):
        code, _, err = run(
            capsys, "riccati", "--m", "0.3", "--c", "0.4", "--x0", "0,1", "--dt", "0"
        )
        assert code == EXIT_INPUT
        assert "error: dt must be positive" in err

    def test_negative_t_end_exits_2(self, capsys):
        code, _, err = run(
            capsys, "riccati", "--m", "0.3", "--c", "0.4", "--x0", "0,1", "--t-end=-1"
        )
        assert code == EXIT_INPUT
        assert "error: t_end must be nonnegative" in err


class TestPhiSolve:
    def test_solution_report(self, capsys, tmp_path):
        out_path = tmp_path / "phi.json"
        code, out, _ = run(
            capsys,
            "phi-solve",
            "--free", "1,0.5,0.3,-0.2",
            "--at", "0,1,0.1,0.2,0",
            "--json-out", str(out_path),
        )
        assert code == EXIT_OK
        doc = json.loads(out_path.read_text())
        assert doc["passes"] is True
        assert doc["rank"] == 4
        assert doc["residuals"]["phi_squared"] <= 1e-10
        assert isinstance(doc["positive_definite"], bool)
        phi = np.array(doc["phi"])
        assert phi.shape == (5, 5)
        assert np.abs(phi[:, 4]).max() == 0.0


class TestMissingValues:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("compare", "--variants", "gtacos"), "--x0"),
            (("phi-solve", "--at", "0,1,0.1,0.2,0"), "--free"),
            (("phi-solve", "--free", "1,0.5,0.3,-0.2"), "--at"),
            (("integrate", "--builtin", "darboux_contact", "--hamiltonian", "kappa"), "--x0"),
            (("integrate", "--builtin", "darboux_contact", "--x0", "0,1,1"), "--hamiltonian"),
        ],
    )
    def test_exits_2_naming_the_flag(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT
        assert err.startswith("error: missing %s " % flag)
        assert "Traceback" not in err
        assert out == ""


class TestInvariantSuite:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "invariant-suite")
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert "invariant-suite: PASS" in out

    def test_env_seed_overrides(self, capsys, monkeypatch):
        monkeypatch.setenv("COSYM_SEED", "7")
        code, out, _ = run(capsys, "invariant-suite", "--seed", "99")
        assert code == EXIT_OK
        assert "(seed 7)" in out


def fresh_process(*argv, seed_env=None):
    """(exit code, stdout, stderr) of ``python -m cosym ARGV`` in a new
    process, with COSYM_SEED set to ``seed_env`` or unset."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env.pop("COSYM_SEED", None)
    if seed_env is not None:
        env["COSYM_SEED"] = seed_env
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cosym", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_python_dash_m_runs_the_cli():
    code, out, err = fresh_process("list-manifolds")
    assert code == EXIT_OK, err
    assert "xjt_gtacos" in {entry["name"] for entry in json.loads(out)}


class TestParserBuiltOnce:
    def test_main_builds_one_parser_per_process(self, capsys, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run(capsys, "reeb", "--builtin", "heisenberg", "--at", "0,1,0")[0] == EXIT_OK
            assert len(builds) == 1
        finally:
            cli._parser.cache_clear()
        assert cli.build_parser() is not cli.build_parser()

    def test_an_append_option_does_not_carry_over(self, capsys, monkeypatch):
        monkeypatch.delenv("COSYM_SEED", raising=False)
        with_k = ("check-structure", "--builtin", "xjt_gtacos", "-P", "k=2")
        without = with_k[:3]
        got = [run(capsys, *with_k), run(capsys, *without)]
        assert got == [fresh_process(*with_k), fresh_process(*without)]
        assert got[0][1] != got[1][1]

    def test_env_seed_still_overrides_seed(self, capsys, monkeypatch):
        monkeypatch.delenv("COSYM_SEED", raising=False)
        argv = ("check-structure", "--builtin", "heisenberg", "--seed", "99")
        unset = run(capsys, *argv)
        monkeypatch.setenv("COSYM_SEED", "7")
        got = run(capsys, *argv)
        assert got == fresh_process(*argv, seed_env="7")
        assert got == fresh_process(*argv[:3], "--seed", "7")
        assert got[1] != unset[1]
