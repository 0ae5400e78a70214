import argparse
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cli_corpus import CASES, Has, matches, run_fresh, strict_json, write_inputs, written
from cosym import cli, dynamics
from cosym.charts import ScalarField
from cosym.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, main
from cosym.manifolds import builtin
from cosym.structures import StructureSpec, classify, reeb


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestListManifolds:
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
                classify(reloaded, probes=probes).flags()
                == classify(spec, probes=probes).flags()
            )
            for pt in probes[:2]:
                assert reeb(reloaded, pt) == pytest.approx(reeb(spec, pt), abs=1e-15)


class TestFieldAndReeb:
    def test_field_prints_each_quantity_of_fresh_objects_bit_for_bit(self, capsys):
        source, at = "q^2 + p^2 + x^2 + (y-1)^2", (0.2, 1.0, 0.3, -0.2, 0.0)
        code, out, _ = run(capsys, "field", "--builtin", "xjt_gtacos",
                           "--hamiltonian", source, "--at=0.2,1.0,0.3,-0.2,0.0")
        assert code == EXIT_OK
        doc = json.loads(out)

        def fresh():
            spec = builtin("xjt_gtacos")
            return spec, ScalarField.parse(spec.chart, source, spec.params)

        X = dynamics.hamiltonian_field_generic(*fresh(), at)
        R = reeb(fresh()[0], at)
        h, dH = fresh()[1].value(at), fresh()[1].gradient(at)
        want = {
            "H": h,
            "hamiltonian_field": X,
            "gradient_field": dynamics.gradient_field(*fresh(), at),
            "reeb": R,
            "dissipation_identity_residual": abs(X @ dH + h * (R @ dH)),
        }
        for key, value in want.items():
            assert np.array(doc[key]).tobytes() == np.asarray(value, dtype=float).tobytes(), key
        assert doc["at"] == list(at)


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

    @pytest.mark.parametrize("doc, message", [
        ('[[0, 1, 0, 0, "nan"]]', ", entry 0: not a finite number: 'nan'"),
        ("[[0.2, 1.0, 0.3, -0.2, 0.0], [0, 1, 0, 0, NaN]]",
         ", entry 1: not a finite number: 'nan'"),
        ("[[0, 1, 0, 0, 1e999]]", ", entry 0: not a finite number: 'inf'"),
        ('[[0, 1, 0, 0, "a"]]', ", entry 0: invalid float value: 'a'"),
        ("[[0, 1, 0, 0, true]]", ", entry 0: invalid float value: 'True'"),
        ("[[0, 1, 0, 0, 0], 3]", ", entry 1: not a list of coordinates: 3"),
        ('{"a": 1}', " holds a JSON list of coordinate lists"),
        ("[[0.2, 1, 0.3, -0.2, 0], [0.1, -1, 0, 0, 0]]",
         ", entry 1: point violates y > 0.0 on chart 'xjt' (got y = -1.0)"),
        ("[[0.2, 1, 0.3, -0.2, 0], [0.2, 1, 0.3, -0.2]]",
         ", entry 1: chart 'xjt' expects 5 values, got 4"),
    ], ids=["nan_string", "nan_literal", "overflow", "text", "bool", "not_a_list", "object",
            "off_guard", "wrong_length"])
    def test_a_bad_sweep_file_is_an_input_error_naming_the_entry(
        self, capsys, tmp_path, monkeypatch, doc, message
    ):
        calls = []
        monkeypatch.setattr(dynamics, "integrate", lambda *a, **k: calls.append(a))
        points = tmp_path / "points.json"
        points.write_text(doc)
        code, out, err = run(
            capsys, "integrate", "--config", self._config(tmp_path), "--sweep", str(points),
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "error: --sweep %s%s\n" % (points, message)
        assert calls == []  # every entry is read before any point flows

    def test_rk4_matches_single_runs_bit_for_bit_with_an_escape(self, capsys, tmp_path):
        config = self._config(tmp_path)
        x0s = [[0.0, 0.5, 0.0, 0.0, 0.0], [0.2, 2.0, 0.3, -0.2, 0.0]]
        points = tmp_path / "points.json"
        points.write_text(json.dumps(x0s))
        flags = ("--hamiltonian", "x/y^2", "--t-end", "1", "--method", "rk4")
        code, out, _ = run(
            capsys, "integrate", "--config", config, "--sweep", str(points), *flags
        )
        assert code == EXIT_NUMERICAL
        sweep = json.loads(out)["sweep"]
        assert [entry["escaped"] for entry in sweep] == [True, False]
        for i, (entry, x0) in enumerate(zip(sweep, x0s)):
            single = tmp_path / ("single%d.json" % i)
            code, out, _ = run(
                capsys, "integrate", "--config", config, *flags,
                "--x0=" + ",".join(repr(v) for v in x0), "--json-out", str(single),
            )
            assert code == (EXIT_NUMERICAL if entry["escaped"] else EXIT_OK)
            summary = json.loads(out)
            assert entry["x0"] == x0
            assert entry["final"] == json.loads(single.read_text())["states"][-1]
            assert entry["max_dissipation_residual"] == summary["max_dissipation_residual"]
            assert entry["escaped"] is summary["escaped"]

    def test_every_point_flows_the_one_spec_and_hamiltonian(
        self, capsys, tmp_path, monkeypatch
    ):
        seen = []
        integrate = dynamics.integrate

        def spy(spec, H, x0, **solver):
            seen.append((spec, H))
            return integrate(spec, H, x0, **solver)

        monkeypatch.setattr(dynamics, "integrate", spy)
        points = tmp_path / "points.json"
        points.write_text(json.dumps(self.POINTS * 2))
        code, out, _ = run(
            capsys, "integrate", "--config", self._config(tmp_path), "--sweep", str(points),
            "--method", "rk4",
        )
        assert code == EXIT_OK
        assert len(json.loads(out)["sweep"]) == len(seen) == 4
        spec, H = seen[0]
        assert all(s is spec and h is H for s, h in seen)

    @pytest.mark.parametrize("method", ["adaptive-rk45", "rk4"])
    def test_a_degenerate_point_reports_its_failure_and_the_others_their_runs(
        self, capsys, tmp_path, method
    ):
        # under H = x^2 the second point runs y up to 2e7, where F has rank 3
        x0s = [[0.2, 1.0, 0.3, -0.2, 0.0], [-0.485, 1.497, -0.414, 0.345, -0.132],
               [0.1, 0.8, 0.0, 0.1, 0.0]]
        points = tmp_path / "points.json"
        points.write_text(json.dumps(x0s))
        command = ("integrate", "--builtin", "xjt_gtacos", "--hamiltonian", "x^2",
                   "--method", method)
        code, out, err = run(capsys, *command, "--sweep", str(points))
        assert (code, err) == (EXIT_NUMERICAL, "")
        sweep = json.loads(out)["sweep"]
        assert len(sweep) == 3
        for i, (entry, x0) in enumerate(zip(sweep, x0s)):
            single = tmp_path / ("single%d.json" % i)
            code, out, err = run(
                capsys, *command, "--x0=" + ",".join(map(repr, x0)), "--json-out", str(single),
            )
            assert entry["x0"] == x0
            if i == 1:
                assert (code, out) == (EXIT_NUMERICAL, "") and not single.exists()
                assert list(entry) == ["x0", "failure"]
                assert err == "numerical failure: %s\n" % entry["failure"]
                assert "rank 3 < 5" in entry["failure"]
                continue
            assert (code, err) == (EXIT_OK, "")
            summary = json.loads(out)
            final = json.loads(single.read_text())["states"][-1]
            assert json.dumps(entry["final"]) == json.dumps(final)
            assert entry["max_dissipation_residual"] == summary["max_dissipation_residual"]
            assert entry["escaped"] is summary["escaped"] is False

    @pytest.mark.parametrize("method", ["adaptive-rk45", "rk4"])
    def test_a_point_whose_expression_fails_reports_its_failure(
        self, capsys, tmp_path, method
    ):
        # sqrt(q) has no real value once q < 0, where the second point starts
        x0s = [[0.2, 1.0, 0.3, -0.2, 0.0], [0.2, 1.0, -0.3, -0.2, 0.0]]
        points = tmp_path / "points.json"
        points.write_text(json.dumps(x0s))
        command = ("integrate", "--builtin", "xjt_gtacos", "--hamiltonian", "sqrt(q)",
                   "--t-end", "0.1", "--dt", "0.01", "--method", method)
        code, out, err = run(capsys, *command, "--sweep", str(points))
        assert (code, err) == (EXIT_NUMERICAL, "")
        first, second = json.loads(out)["sweep"]
        single = tmp_path / "single.json"
        code, out, err = run(
            capsys, *command, "--x0=" + ",".join(map(repr, x0s[0])), "--json-out", str(single),
        )
        assert (code, err) == (EXIT_OK, "")
        assert first["x0"] == x0s[0]
        final = json.loads(single.read_text())["states"][-1]
        assert json.dumps(first["final"]) == json.dumps(final)
        assert first["escaped"] is False
        code, out, err = run(capsys, *command, "--x0=" + ",".join(map(repr, x0s[1])))
        assert (code, out) == (EXIT_INPUT, "")
        assert list(second) == ["x0", "failure"] and second["x0"] == x0s[1]
        assert err == "error: %s\n" % second["failure"]
        assert "sqrt() domain error" in second["failure"]


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigEntriesAreFlags:
    @pytest.mark.parametrize(
        "command, doc, flags",
        [
            ("compare", {"c": 0.4, "x0": [0.1, 1, 0.2, -0.1, 0], "t-end": 0.2},
             ["--c", "0.4", "--x0", "0.1,1,0.2,-0.1,0", "--t-end", "0.2"]),
            ("riccati", {"m": 0.3, "c": 0.4, "x0": [0, 1], "dt": 0.05},
             ["--m", "0.3", "--c", "0.4", "--x0", "0,1", "--dt", "0.05"]),
            ("phi-solve", {"free": [1, 0.5, 0.3, -0.2], "at": [0, 1, 0.1, 0.2, 0]},
             ["--free", "1,0.5,0.3,-0.2", "--at", "0,1,0.1,0.2,0"]),
            ("reeb", {"builtin": "heisenberg", "at": [0, 1, 0]},
             ["--builtin", "heisenberg", "--at", "0,1,0"]),
            ("field", {"builtin": "heisenberg", "hamiltonian": "x*y", "at": [0.5, 1, 0]},
             ["--builtin", "heisenberg", "--hamiltonian", "x*y", "--at", "0.5,1,0"]),
            ("compare", {"c": 0.4, "x0": [0.1, 1, 0.2, -0.1, 0], "t-end": 0.1,
                         "paper-verbatim": True, "csv": None, "a": None},
             ["--c", "0.4", "--x0", "0.1,1,0.2,-0.1,0", "--t-end", "0.1", "--paper-verbatim"]),
            ("riccati", {"paper-verbatim": False, "x0": [0, 1]}, []),
        ],
    )
    def test_a_config_gives_what_its_flags_give(self, capsys, tmp_path, command, doc, flags):
        from_config = run(capsys, command, "--config", write_config(tmp_path, doc))
        assert from_config == run(capsys, command, *flags)
        assert from_config[0] == EXIT_OK

    def test_the_command_line_wins(self, capsys, tmp_path):
        config = write_config(tmp_path, {"builtin": "heisenberg", "at": [0, 1, 0]})
        got = run(capsys, "reeb", "--config", config, "--at", "0.5,2,0")
        assert got == run(capsys, "reeb", "--builtin", "heisenberg", "--at", "0.5,2,0")


def test_phi_solve_takes_one_svd_of_phi(capsys, monkeypatch):
    # the rank key and passes share the one rank of Phi
    ranks = []
    matrix_rank = np.linalg.matrix_rank
    monkeypatch.setattr(np.linalg, "matrix_rank",
                        lambda *a, **k: ranks.append(1) or matrix_rank(*a, **k))
    code, out, _ = run(capsys, "phi-solve", "--free", "1,0.5,0.3,-0.2", "--at", "0,1,0.1,0.2,0")
    doc = json.loads(out)
    assert (code, doc["rank"], doc["passes"], len(ranks)) == (EXIT_OK, 4, True, 1)


class TestSeedFlag:
    def test_only_the_commands_that_draw_random_numbers_take_it(self):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        taking = {name for name, p in commands.items()
                  if any("--seed" in a.option_strings for a in p._actions)}
        assert taking == {"list-manifolds", "check-structure", "invariant-suite"}

class TestInvariantSuite:
    def test_env_seed_overrides(self, capsys, monkeypatch):
        monkeypatch.setenv("COSYM_SEED", "7")
        code, out, _ = run(capsys, "invariant-suite", "--seed", "99")
        assert code == EXIT_OK
        assert "(seed 7)" in out

    @pytest.mark.parametrize("value, message", [
        ("abc", "invalid int value: 'abc'"), ("", "invalid int value: ''"),
        ("-1", "not a nonnegative integer: '-1'"),
    ])
    def test_an_env_seed_that_is_not_a_nonnegative_integer_is_refused(
        self, capsys, monkeypatch, value, message
    ):
        monkeypatch.setenv("COSYM_SEED", value)
        got = run(capsys, "invariant-suite")
        assert got == (EXIT_INPUT, "", "error: COSYM_SEED: %s\n" % message)

    def test_each_catalog_structure_is_built_once(self, capsys, monkeypatch):
        from cosym import manifolds

        names = []
        build = manifolds.builtin
        monkeypatch.setattr(manifolds, "builtin",
                            lambda name, *a: names.append(name) or build(name, *a))
        code, _, _ = run(capsys, "invariant-suite")
        assert code == EXIT_OK
        assert sorted(names) == sorted(manifolds.CATALOG)


SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_process(*argv, seed_env=None, timeout=120, python_args=("-m", "cosym")):
    """(exit code, stdout, stderr) of ``python PYTHON_ARGS ARGV`` in a new
    process, with COSYM_SEED set to ``seed_env`` or unset; raises
    TimeoutExpired after ``timeout`` seconds."""
    return run_fresh([*python_args, *argv], SRC, timeout=timeout, seed=seed_env)


# One of each command, with README's arguments where it has them.
COMMANDS_IN_ONE_PROCESS = (
    ["list-manifolds"],
    ["check-structure", "--builtin", "xjt_gtacos"],
    ["reeb", "--builtin", "heisenberg", "--at", "0,1,0"],
    ["field", "--builtin", "darboux_contact", "--hamiltonian", "kappa", "--at", "1,2,3"],
    ["bracket", "--kind", "jacobi", "--f", "kappa", "--g", "q", "--at", "2,0,7"],
    ["integrate", "--builtin", "darboux_contact", "--hamiltonian", "kappa",
     "--x0", "0,1,1", "--t-end", "1", "--dt", "0.001"],
    ["compare", "--variants", "gtacos,base_xj1,contact", "--a", "0.1", "--b", "-0.2",
     "--c", "0.3", "--m", "0.2", "--n", "-0.1", "--h-kappa", "kappa",
     "--x0=0.3,1.2,0.4,-0.2,0.1", "--t-end", "0.2", "--dt", "0.01"],
    ["riccati", "--m", "0.3", "--c", "0.4", "--n", "0.1", "--x0", "0,1",
     "--t-end", "1", "--dt", "0.01"],
    ["phi-solve", "--free", "1,0.5,0.3,-0.2", "--at", "0,1,0.1,0.2,0"],
    ["invariant-suite"],
)


def test_commands_leave_scipy_unloaded():
    # Solves go through numpy's LAPACK, the probes are scipy's scrambled
    # Halton points computed in the package and RK4 and RK45 are its own
    # steppers: importing the CLI, an RK4 flow and every command in one
    # fresh process load no scipy module.  Only a guard crossing imports
    # scipy.optimize, for brentq: none of these crosses one, and the x/y^2
    # escape does.
    script = "\n".join([
        "import contextlib, io, sys, cosym, cosym.cli",
        "def loaded():",
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        "print(loaded())",
        "s = cosym.builtin('darboux_contact')",
        "H = cosym.ScalarField.parse(s.chart, 'kappa')",
        "cosym.integrate(s, H, (0.0, 1.0, 1.0), 0.1, 0.01, method='rk4')",
        "for argv in %r:" % (COMMANDS_IN_ONE_PROCESS,),
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert cosym.cli.main(argv) == 0, argv",
        "print(loaded())",
        "s = cosym.builtin('xjt_gtacos')",
        "H = cosym.ScalarField.parse(s.chart, 'x/y^2')",
        "assert cosym.integrate(s, H, (0.0, 0.5, 0.0, 0.0, 0.0), 1.0, 0.01).escaped",
        "print(sorted({m.split('.')[1] for m in loaded() if m.count('.') and",
        "              m.split('.')[1] in ('integrate', 'optimize', 'stats')}))",
    ])
    assert fresh_process(python_args=("-c", script)) == (0, "[]\n[]\n['optimize']\n", "")


def test_flows_and_one_point_commands_leave_the_paper_modules_unloaded():
    # cosym imports almost_contact and jacobi_flows on first use: importing
    # the CLI, an RK4 flow and every command before compare load neither;
    # compare loads jacobi_flows.
    names = [argv[0] for argv in COMMANDS_IN_ONE_PROCESS]
    one_point = COMMANDS_IN_ONE_PROCESS[:names.index("compare")]
    compare = [COMMANDS_IN_ONE_PROCESS[names.index("compare")]]
    script = "\n".join([
        "import contextlib, io, sys, cosym.cli",
        "def loaded():",
        "    return [m for m in ('cosym.almost_contact', 'cosym.jacobi_flows')",
        "            if m in sys.modules]",
        "def run(commands):",
        "    for argv in commands:",
        "        with contextlib.redirect_stdout(io.StringIO()):",
        "            assert cosym.cli.main(argv) == 0, argv",
        "    print(loaded())",
        "print(loaded())",
        "s = cosym.builtin('darboux_contact')",
        "H = cosym.ScalarField.parse(s.chart, 'kappa')",
        "cosym.integrate(s, H, (0.0, 1.0, 1.0), 0.1, 0.01, method='rk4')",
        "print(loaded())",
        "run(%r)" % (one_point,),
        "run(%r)" % (compare,),
    ])
    assert [argv[0] for argv in one_point] == [
        "list-manifolds", "check-structure", "reeb", "field", "bracket", "integrate"]
    assert fresh_process(python_args=("-c", script)) == (
        0, "[]\n[]\n[]\n['cosym.jacobi_flows']\n", "")


INVARIANT_SUITE_LINE = re.compile(
    r"\S+ +(PASS|FAIL)  \(\S+\)|invariant-suite: (PASS|FAIL) \(seed \d+\)")


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.command)
def test_a_corpus_row_keeps_the_cli_contract(case, capfd, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("COSYM_SEED", raising=False)
    write_inputs(case, tmp_path)
    if case.timeout:
        code, out, err = fresh_process(*case.argv, timeout=case.timeout)
    else:
        # capfd also reads what C code writes to fd 1 and 2 (LAPACK's
        # DLASCL text); a warning is put on stderr as a fresh process would
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capfd, *case.argv)
        err += "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                       for w in caught)
    files = written(case, tmp_path)
    # the contract of every command (see tests/cli_corpus.py)
    assert code in (EXIT_OK, EXIT_NUMERICAL, EXIT_INPUT)
    for stream in (out, err):
        for text in ("Traceback", "Warning", "DLASCL"):
            assert text not in stream
    if case.argv[0] == "invariant-suite":
        assert all(INVARIANT_SUITE_LINE.fullmatch(line) for line in out.splitlines())
    elif out:
        assert out == json.dumps(strict_json(out), indent=2) + "\n"
    assert code != EXIT_OK or not isinstance(case.err, Has)  # stderr is the row's log
    for name, text in files.items():
        if name.endswith(".json"):
            strict_json(text)
    # the row's own
    assert code == case.code, err
    if isinstance(case.err, Has):
        assert case.err in err
    else:
        assert err == case.err + "\n" * bool(case.err)
    assert matches(case.out, "stdout", out)
    assert sorted(files) == sorted(case.file_tests)
    for name, test in case.file_tests.items():
        assert matches(test, name, files[name]), name


@settings(max_examples=1000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)  # the smallest subnormal
@example(-2.5e-310)
@example(1.7e308)
@example(-1.7e308)
def test_json_text_reads_back_every_finite_float_bit_for_bit(x):
    for value in (x, np.float64(x)):
        back = json.loads(cli._json_text([value, np.array([value])]))
        for got in (back[0], back[1][0]):
            assert np.float64(got).tobytes() == np.float64(x).tobytes()


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
