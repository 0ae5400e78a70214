"""The CLI contract as one table of command lines, and a parity driver.

Every ``cosym`` command keeps one contract.  It exits 0 (success),
1 (numerical failure) or 2 (input error).  Its stdout is empty,
invariant-suite's report lines, or strict JSON (no NaN or Infinity) as
``json.dumps(doc, indent=2)`` writes it.  Neither stream holds
``Traceback``, ``Warning`` or LAPACK's ``DLASCL``.  On exit 0
stderr holds only the log lines its row names, none by default, and every
``.json`` file a command writes is strict JSON.

``CASES`` holds the rows.  A row names a command line, the files it reads,
its exit code, its stderr (exact, or a ``Has`` substring), its stdout where
the row pins it, and the files it writes, each with a test of its text
where the row gives one.  Stdout and a written file are tested alike
(:func:`matches`): exact text, a ``Has`` substring, or a function of the
text read as strict JSON, or as a ``.csv`` file's rows.
``tests/test_cli.py::test_a_corpus_row_keeps_the_cli_contract`` checks
every row on the working tree: in process through ``cli.main``, or as a
fresh ``python -m cosym`` under the row's timeout.  To add a case, add a
row.  A test stays out of the table when it relates two runs, checks the
library against a run, or spies on the library's internals.

``python tests/cli_corpus.py BASE`` is the parity check.  It exports the
git revision BASE, runs every row as a fresh process on BASE and on the
working tree, and compares exit codes, stdout, stderr and written files
byte for byte.  For a JSON or CSV output that differs, it prints the
largest absolute and the largest relative change per key or column.  A
row that times out on either tree differs.  It exits 0 when every row is
identical, else 1.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the bound, in seconds, of a row that could hang (a flow on stiff or
# escaping input, a sweep, a solve on huge numbers): it runs as a fresh process
FRESH = 20


class Has(str):
    """Expected text that need only occur in its stream."""


@dataclass
class Case:
    command: str  # the argv after ``cosym``, split as a shell splits it
    code: int
    err: str = ""  # stderr without its final newline, or Has(...)
    out: object = None  # exact stdout, Has(...) or a test of its JSON; None: the contract
    files: dict = field(default_factory=dict)  # the inputs it reads: name -> text
    writes: object = ()  # the files it writes, or a dict of each to a test as for out
    timeout: float = 0  # > 0: a fresh ``python -m cosym`` under this many seconds

    @property
    def argv(self) -> list[str]:
        return shlex.split(self.command)

    @property
    def file_tests(self) -> dict:
        """Each file the row writes, mapped to its test (None: any text)."""
        return self.writes if isinstance(self.writes, dict) else dict.fromkeys(self.writes)


INTEGRATE = "integrate --builtin darboux_contact --hamiltonian kappa --x0 0,1,1"
README_H = "q^2 + p^2 + x^2 + (y-1)^2"
ESCAPE = "integrate --builtin xjt_gtacos --hamiltonian x/y^2 --x0 0,0.5,0,0,0 --dt 0.01 "
SWEEP = "integrate --builtin xjt_gtacos --sweep "
COMPARE = ("compare --variants gtacos,base_xj1,contact --a 0.1 --b -0.2 --c 0.3 --m 0.2 "
           "--n -0.1 --h-kappa kappa --x0=0.3,1.2,0.4,-0.2,0.1 --t-end 0.2 --dt 0.01")
README_COMPARE = ("compare --variants gtacos,base_xj1 --c 0.4 --h-kappa kappa "
                  "--x0 0.1,1,0.5,-0.3,0.2 --t-end 0.2 --dt 0.01")
EMITTED = tuple("manifolds/%s.json" % name for name in (
    "darboux_contact_1", "darboux_cosymplectic_1", "heisenberg", "xjt_gtacos", "xjt_contact"))
CHECK_STRUCTURE = {  # each catalog name, and what its report must show
    "darboux_contact": None,
    "darboux_cosymplectic": None,
    "heisenberg": lambda doc: doc["flags"]["contact"] is True,
    "xjt_gtacos": lambda doc: doc["flags"]["gtacos"] is True and doc["flags"]["contact"] is False
    and near(doc["reeb"], (0, 0, 0, 0, 1), 1e-12),
    "xjt_contact": None,
}


def structure(name, theta, omega=None, coordinates=("q", "p", "kappa")):
    """The text of a structure document on a guard-free chart."""
    return json.dumps({"name": name, "chart": {"coordinates": coordinates, "guards": []}, "n": 1,
                       "theta": theta, "omega": omega or {"q,p": "1"}})


# list-manifolds --emit writes this document for heisenberg
HEISENBERG = {"heisenberg.json": structure("heisenberg", {"kappa": "1", "x": "-y"},
                                           {"x,y": "1"}, ("x", "y", "kappa"))}
# a config of sweeps, which take their Hamiltonian, t-end and dt from it
SWEEP_RUN = {"builtin": "xjt_gtacos", "hamiltonian": README_H, "t-end": 0.5, "dt": 0.01}
POINTS = "[[0.2, 1.0, 0.3, -0.2, 0.0], [0.1, 1.2, 0.0, 0.4, 0.3]]"


def refused(command, err, **row):
    """An input error: exit 2, nothing on stdout."""
    return Case(command, 2, err, "", **row)


def sweep(key, *flags):
    """The test of a sweep's JSON: which entries hold a true ``key``."""
    return lambda doc: [bool(entry.get(key)) for entry in doc["sweep"]] == list(flags)


def near(values, want, tol) -> bool:
    """Whether ``values`` has ``want``'s length and each value is within ``tol``
    of its own."""
    return len(values) == len(want) and all(abs(v - w) <= tol for v, w in zip(values, want))


def escaped_at_guard(doc) -> bool:
    """y = 0.5 - t under x/y^2 reaches the guard y > 0 at t = 0.5: the rows
    stop at the last grid time before it, inside the domain."""
    return (doc["escaped"] is True and "domain escape" in doc["diagnostic"]
            and doc["rows"] == 50 and doc["min_y"] > 0)


def signed_zero(value) -> bool:
    """Whether a JSON value holds a -0.0."""
    if isinstance(value, (dict, list)):
        return any(map(signed_zero, value.values() if isinstance(value, dict) else value))
    return value == 0 and math.copysign(1.0, value) < 0


def riccati_escape(doc) -> bool:
    """The exact flow keeps y > 0; a recorded RK45 state does not, and ends
    the rows as integrate's escapes do."""
    return (doc["escaped"] is True and doc["diagnostic"] == "domain escape on recorded state"
            and doc["min_y"] > 0)


CASES = [
    # README's examples
    Case("list-manifolds", 0, timeout=FRESH,
         out=lambda doc: {"heisenberg", "xjt_gtacos", "xjt_contact"} <= {e["name"] for e in doc}),
    Case("list-manifolds --emit manifolds", 0, "\n".join("wrote " + p for p in EMITTED),
         writes=EMITTED),
    *(Case("check-structure --builtin " + name, 0, out=test)
      for name, test in CHECK_STRUCTURE.items()),
    Case("reeb --builtin heisenberg --at 0,1,0", 0),
    Case("field --builtin darboux_contact --hamiltonian kappa --at 1,2,3", 0,
         out=lambda doc: near(doc["hamiltonian_field"], (0, -2, -3), 1e-12)
         and doc["dissipation_identity_residual"] <= 1e-10),
    Case("bracket --kind jacobi --f kappa --g q --at 2,0,7", 0,
         out=lambda doc: (doc["value"], doc["antisymmetry_residual"]) == (-2.0, 0.0)),
    Case(INTEGRATE + " --t-end 1 --dt 0.001 --csv traj.csv --json-out traj.json", 0,
         out=lambda doc: doc["max_dissipation_residual"] <= 1e-5 and doc["escaped"] is False,
         writes={"traj.csv": lambda rows: rows[0] == ["t", "q", "p", "kappa", "H",
                                                      "dissipation_residual"]
                 and near([float(rows[-1][i]) for i in (0, 3)], (1.0, math.exp(-1)), 1e-6),
                 "traj.json": lambda doc: doc["metadata"]["structure"] == "darboux_contact(1)"}),
    Case(README_COMPARE, 0,
         out=lambda doc: {"q", "p"} <= set(doc["corrections"]["gtacos"]["active_components"])
         and doc["deltas"]["gtacos_vs_base_xj1"]["max"] > 1e-4),
    Case(README_COMPARE + " --paper-verbatim", 0),
    Case("riccati --m 0.3 --c 0.4 --n 0.1 --x0 0,1 --t-end 1 --dt 0.01 --csv ric.csv", 0,
         out=lambda doc: doc["min_y"] > 0 and doc["escaped"] is False and doc["diagnostic"] == "",
         writes={"ric.csv": lambda rows: rows[0] == ["t", "x", "y"] and len(rows) == 102}),
    # the chain's Phi_qq is -0.0 here; phi-solve prints +0.0
    Case("phi-solve --free 1,0.5,0.3,-0.2 --at 0,1,0.1,0.2,0 --json-out phi.json", 0,
         out=lambda doc: not signed_zero(doc),
         writes={"phi.json": lambda doc: doc["passes"] is True and doc["rank"] == 4
                 and doc["residuals"]["phi_squared"] <= 1e-10
                 and isinstance(doc["positive_definite"], bool) and len(doc["phi"]) == 5
                 and all(len(row) == 5 and row[4] == 0.0 for row in doc["phi"])
                 and not signed_zero(doc)}),
    *(Case(command, 0, out=Has("invariant-suite: PASS (seed %s)" % seed))
      for command, seed in (("invariant-suite", 42), ("invariant-suite --seed 42", 42),
                            ("invariant-suite --seed 7", 7))),
    # the grid stops at the last multiple of dt within t_end
    Case(INTEGRATE + " --t-end 0.8 --dt 0.5", 0, out=Has('"rows": 2,')),
    Case("bracket --kind poisson --f q --g p --at 0.3,0.7,0.1", 0,
         out=lambda doc: doc["value"] == 1.0),
    # structure documents: --structure-json reads one, --builtin only names;
    # a structure the solver refuses still prints its report
    refused("check-structure --builtin heisenberg.json",
            "error: unknown structure name 'heisenberg.json'", files=HEISENBERG),
    Case("check-structure --structure-json heisenberg.json", 0,
         out=lambda doc: doc["name"] == "heisenberg", files=HEISENBERG),
    refused("check-structure --structure-json broken.json",
            "error: parse error at offset 4: found '*', expected one of NUMBER, NAME, '(', '-'",
            files={"broken.json": structure("broken", {"kappa": "1 + * q"})}),
    *(Case("check-structure --structure-json %s.json" % name, 1, files={
        name + ".json": structure(name, theta)}, out=lambda doc, volume=volume:
        (doc["flags"]["acos"], doc["reeb"], len(doc["probe_point"]), doc["volume_coefficient"])
        == (False, None, 3, volume))
      for name, theta, volume in (("degenerate", {"q": "1"}, 0.0),
                                  ("small", {"kappa": "2e-8"}, 2e-8))),
    # theta theta^T overflows to inf: the solver refuses it before its SVD,
    # and the volume's EvalError is the report
    refused("check-structure --structure-json huge.json",
            "error: volume coefficient is not finite at [0.20522347796603935, "
            "-1.3929280802587178, -1.4291792292618604]: inf",
            files={"huge.json": structure("huge", {"kappa": "1e200"}, {"q,p": "1e200"})}),
    Case("reeb --builtin darboux_contact --at 0.3,0.7,0.1", 0,
         out=lambda doc: near(doc["reeb"], (0, 0, 1), 1e-12)),
    # LU's substitutions round these components to -0.0; R prints +0.0
    Case("reeb --builtin xjt_gtacos --at=0.2,1.0,0.3,-0.2,0.0", 0, out=json.dumps(
        {"name": "xjt_gtacos", "at": [0.2, 1.0, 0.3, -0.2, 0.0],
         "reeb": [0.0, 0.0, 0.0, 0.0, 1.0]}, indent=2) + "\n"),
    # single runs
    Case("integrate --builtin xjt_gtacos --hamiltonian '%s' --x0 0,1,0.3,0.2,0 --t-end 1 "
         "--dt 0.001" % README_H, 0, out=lambda doc: doc["energy_drift"] <= 1e-6),
    Case("integrate --builtin darboux_contact --hamiltonian kappa --x0 0.1,0.2,0.3 --t-end 0 "
         "--dt 0.1 --csv single.csv", 0, writes={"single.csv": lambda rows: len(rows) == 2
                                                 and rows[1][:2] == ["0", "0.10000000000000001"]}),
    Case("integrate --config flow.json", 0, out=Has('"rows": 51,'), files={
        "flow.json": '{"builtin": "darboux_contact", "hamiltonian": "kappa", '
                     '"x0": [0.0, 1.0, 1.0], "t-end": 0.5, "dt": 0.01}'}),
    Case("compare --variants gtacos,base_xj1 --a 0.1 --b 0.2 --c 0.4 --m 0.2 --n 0.1 "
         "--x0 0.1,1,0.2,-0.1,0 --t-end 0.5 --dt 0.01", 0,
         out=lambda doc: doc["deltas"]["gtacos_vs_base_xj1"]["max"] <= 1e-8
         and doc["corrections"]["gtacos"]["active_components"] == ["kappa"]
         and doc["escaped"] == {}),
    Case("compare --variants gtacos,contact --a 0.1 --b -0.2 --c 0.3 --m 0.2 --n -0.1 "
         "--h-kappa kappa --x0 0.3,1.2,0.4,-0.2,0.1 --t-end 0.1 --dt 0.01 --paper-verbatim", 0,
         out=lambda doc: min(doc["paper_verbatim"]["entries"][key]["max_deviation"] for key in (
             "riccati_xy", "linear_pq", "linear_kappa", "contact_kappa")) > 1e-6),
    # one row per variant: the initial point; the base flow's velocity has a
    # -0.0, and the corrections' base terms print +0.0
    Case("compare --variants gtacos,base_xj1,contact --c 0.4 --x0=0.1,1,0,0,0 --t-end 0 "
         "--csv cmp.csv", 0, out=lambda doc: doc["deltas"]["gtacos_vs_base_xj1"]["max"] == 0.0
         and not signed_zero(doc),
         writes={"cmp.csv": lambda rows, x0=["0.10000000000000001", "1", "0", "0", "0"]:
                 len(rows) == 2 and rows[1] == ["0"] + x0 + x0[:4] + x0}),
    # the CI's end-to-end runs
    Case(INTEGRATE + " --t-end 1 --dt 0.01 --method rk4 --csv rk4.csv --json-out rk4.json",
         0, writes=("rk4.csv", "rk4.json")),
    Case("field --builtin xjt_gtacos --hamiltonian '%s' --at=0.2,1.0,0.3,-0.2,0.0" % README_H,
         0, timeout=FRESH),
    Case(COMPARE + " --paper-verbatim --csv compare.csv", 0, writes=("compare.csv",),
         timeout=FRESH),
    Case("riccati --paper-verbatim", 0, timeout=FRESH,
         out=lambda doc: doc["entries"]["riccati_xy"]["max_deviation"] > 1e-6),
    *(Case("check-structure --builtin darboux_contact(%d)" % n, 0) for n in (3, 5)),
    # an 11-dimensional chart is past the rank certificate's cap: every
    # right-hand side takes the SVD fallback
    Case("integrate --builtin darboux_contact(5) --hamiltonian q1^2+p1^2+q5^2+p5^2 "
         "--x0=0.1,0.1,0.1,0.1,0.1,0.2,0.2,0.2,0.2,0.2,0 --t-end 1 --dt 0.01 --method rk4",
         0, timeout=FRESH),
    # 81 coordinates: the Pfaffian of (theta, Omega) costs O(dim^3), while a
    # symbolic theta ^ Omega^40 grows combinatorially
    Case("check-structure --builtin darboux_contact(40) --probes 2", 0, timeout=60,
         out=lambda doc: doc["flags"]["contact"] is True
         and abs(doc["volume_coefficient"] / math.factorial(40) - 1.0) <= 1e-14),
    # 171! is not a finite float; the size is refused before the structure
    # is built, which took 8 s at 171 and did not end at 99999
    *(refused("check-structure --builtin %s --probes 2" % name,
              "error: %s: n is at most 170, the largest n whose volume coefficient n! "
              "is a finite float" % name, timeout=FRESH)
      for name in ("darboux_contact(171)", "darboux_contact(99999)",
                   "darboux_cosymplectic(171)")),
    # flows that escape the domain: exit 1 and "escaped"; x/y^2 drives y onto
    # the guard y = 0 by t = 0.5, and Runge-Kutta stages past it are evaluated
    *(Case(ESCAPE + tail, 1, out=escaped_at_guard, timeout=FRESH)
      for tail in ("--t-end 1", "--t-end 1 --method rk4", "--t-end 0.5")),
    Case(ESCAPE + "--t-end 0.5 --method rk4", 1, out=escaped_at_guard),
    Case(ESCAPE + "--t-end 0.37", 0, out=Has('"rows": 38,')),
    Case("riccati --m=0 --c=0 --n=-300 --x0=0,1 --t-end 1 --dt 0.01", 1, out=riccati_escape,
         timeout=FRESH),
    Case("riccati --m=100 --n=-100 --x0=3,0.001 --t-end 1 --dt 0.01", 1, out=riccati_escape),
    # y' = -600 y on the base chart: a recorded RK45 state crosses y = 0, and
    # the rows stop there, as riccati's do
    Case("compare --variants base_xj1 --n=-300 --x0=0,1,0,0,0 --t-end 1 --dt 0.01 "
         "--csv escape.csv", 1,
         out=lambda doc: doc["escaped"] == {"base_xj1": "domain escape on recorded state"},
         writes={"escape.csv": lambda rows: len(rows) == 6
                 and rows[0] == ["t", "base_xj1_x", "base_xj1_y", "base_xj1_q", "base_xj1_p"]},
         timeout=FRESH),
    # sweeps: a point that fails is reported in its own entry (exit 1)
    Case(SWEEP + "ok.json --hamiltonian '%s + 0.5*kappa'" % README_H, 0,
         files={"ok.json": "[[0.2,1,0.3,-0.2,0],[0.1,1.2,0,0.4,0.3]]"}, timeout=FRESH),
    Case(SWEEP + "degenerate.json --hamiltonian x^2", 1, out=sweep("failure", False, True, False),
         files={"degenerate.json": "[[0.2,1,0.3,-0.2,0],[-0.485,1.497,-0.414,0.345,-0.132],"
                                   "[0.1,0.8,0,0.1,0]]"}, timeout=FRESH),
    Case(SWEEP + "sqrt.json --hamiltonian sqrt(q) --t-end 0.1 --dt 0.01", 1,
         out=sweep("failure", False, True),
         files={"sqrt.json": "[[0.2,1,0.3,-0.2,0],[0.2,1,-0.3,-0.2,0]]"}, timeout=FRESH),
    # y falls at unit speed under x/y^2: the first point leaves y > 0 before
    # t = 1, the second does not
    Case("integrate --config run.json --hamiltonian x/y^2 --t-end 1 --sweep points.json", 1,
         out=sweep("escaped", True, False), files={
             "run.json": json.dumps(SWEEP_RUN),
             "points.json": "[[0.0, 0.5, 0.0, 0.0, 0.0], [0.2, 2.0, 0.3, -0.2, 0.0]]"}),
    # at atol = 0 the first point's zero coordinate made its first step NaN,
    # and the sweep ended in a traceback; a sweep refuses what a single run
    # refuses, and RK4 reads no atol
    *(Case("integrate --config run.json --hamiltonian x^2+y --atol=%s --sweep points.json"
           % tail, code, err, out, files={
               "run.json": json.dumps(SWEEP_RUN),
               "points.json": "[[0.2, 1.0, 0.3, -0.2, 0.1], [0.1, 1.0, 0.2, 0.0, 0.1]]"})
      for tail, code, err, out in (
        ("0", 2, "error: `atol` must be positive.", ""),
        ("-1", 2, "error: `atol` must be positive.", ""),
        ("0 --method rk4", 0, "", sweep("escaped", False, False)))),
    # input errors (exit 2, stdout empty), each with its own message: a bad
    # sweep file is refused before any point flows
    refused(SWEEP + "nan.json --hamiltonian x^2",
            "error: --sweep nan.json, entry 0: not a finite number: 'nan'",
            files={"nan.json": '[[0,1,0,0,"nan"]]'}, timeout=FRESH),
    refused(SWEEP + "object.json --hamiltonian x^2",
            "error: --sweep object.json holds a JSON list of coordinate lists",
            files={"object.json": '{"a": 1}'}, timeout=FRESH),
    refused(SWEEP + "off_guard.json --hamiltonian x^2",
            "error: --sweep off_guard.json, entry 1: point violates y > 0.0 on chart 'xjt' "
            "(got y = -1.0)", files={"off_guard.json": "[[0.2,1,0.3,-0.2,0],[0.1,-1,0,0,0]]"},
            timeout=FRESH),
    # a flag of a single run, on the command line or in the config, writes
    # no file
    *(refused("integrate --config %s --sweep points.json%s" % (config, tail),
              "error: --sweep cannot be combined with --" + flag,
              files={config: json.dumps({**SWEEP_RUN, **doc}), "points.json": POINTS})
      for flag, value in (("x0", "0.2,1,0,0,0"), ("csv", "out.csv"), ("json-out", "out.json"))
      for config, tail, doc in (("run.json", " --%s=%s" % (flag, value), {}),
                                (flag + ".json", "", {flag: value}))),
    # a flag that the command would ignore is refused, naming both flags
    *(refused(command, "error: %s cannot be combined with %s" % flags, files=HEISENBERG)
      for command, flags in (
        ("reeb --builtin xjt_gtacos --structure-json heisenberg.json --at 0,1,0",
         ("--structure-json", "--builtin")),
        ("reeb -P k=5 --structure-json heisenberg.json --at 0,1,0",
         ("--structure-json", "-P/--param")),
        ("riccati --paper-verbatim --csv ric.csv", ("--paper-verbatim", "--csv")),
    )),
    *(refused(command, Has("error: argument %s: not a finite number: " % flag))
      for command, flag in (
        (INTEGRATE + " --dt nan", "--dt"),
        (INTEGRATE + " --t-end inf", "--t-end"),
        (INTEGRATE + " --rtol=-inf", "--rtol"),
        ("compare --a=nan --x0=0.1,1,0,0,0", "--a"),
        ("phi-solve --free nan,0.5,0.3,-0.2 --at 0,1,0.1,0.2,0", "--free"),
        ("reeb --builtin heisenberg --at 0,inf,0", "--at"),
        ("check-structure --builtin xjt_gtacos -P k=nan", "-P/--param"),
    )),
    refused("integrate --config run.json",
            Has("error: argument --dt: not a finite number: 'nan'"),
            files={"run.json": '{"builtin": "darboux_contact", "hamiltonian": "kappa", '
                               '"x0": [0, 1, 1], "dt": NaN}'}),
    *(refused(command, "error: missing %s (give it as a flag or in --config)" % flag)
      for command, flag in (
        ("reeb --builtin heisenberg", "--at"),
        ("field --builtin heisenberg --at 0,1,0", "--hamiltonian"),
        ("field --builtin heisenberg --hamiltonian x", "--at"),
        ("compare --variants gtacos", "--x0"),
        ("phi-solve --at 0,1,0.1,0.2,0", "--free"),
        ("phi-solve --free 1,0.5,0.3,-0.2", "--at"),
        ("integrate --builtin darboux_contact --hamiltonian kappa", "--x0"),
        ("integrate --builtin darboux_contact --x0 0,1,1", "--hamiltonian"),
    )),
    *(refused("field --config %s.json --hamiltonian x" % key,
              Has("error: config key %r is not a flag of field" % key),
              files={key + ".json": json.dumps({"builtin": "heisenberg", "at": [0, 1, 0],
                                                key: "x"})})
      # "structure" was once read as --builtin; argparse alone would take
      # the prefix "hamil" for --hamiltonian
      for key in ("structure", "bogus", "hamil")),
    refused("reeb --config list.json --builtin heisenberg",
            "error: --config holds a JSON object of flag names and values",
            files={"list.json": "[0, 1, 0]"}),
    refused("check-structure --builtin xjt_gtacos -P kk=2",
            Has("error: argument -P/--param: expected NAME=VALUE")),
    refused("field --seed 1 --builtin heisenberg --hamiltonian x --at 0,1,0",
            Has("error: unrecognized arguments: --seed 1")),
    refused("check-structure --builtin moebius", "error: unknown structure name 'moebius'"),
    refused("check-structure --builtin heisenberg --probes 0",
            Has("error: argument --probes: not a positive integer: '0'")),
    refused("check-structure --builtin heisenberg --probes 2.5",
            Has("error: argument --probes: invalid int value: '2.5'")),
    # numpy's "expected non-negative integer" from the probe sampler
    *(refused(command, Has("error: argument --seed: not a nonnegative integer: '-%s'" % seed))
      for command, seed in (("check-structure --builtin heisenberg --seed=-5", 5),
                            ("list-manifolds --seed=-1", 1))),
    refused("reeb --builtin xjt_gtacos --at 0,-1,0,0,0",
            "error: point violates y > 0.0 on chart 'xjt' (got y = -1.0)"),
    # an expression with no finite real value at the point
    *(refused("field --builtin heisenberg --hamiltonian %s --at %s" % (h, at), "error: " + err)
      for h, at, err in (
        ("y^0.5", "0,-1,0", "(-1.0)^(-0.5) has no finite real value in expression"),
        ("x^(-1)", "0,1,0", "(0.0)^(-2.0) has no finite real value in expression"),
        ("exp(x)", "1000,1,0", "exp(1000.0) overflows in expression"),
        # each factor is finite, the product is not (NaN at x = 0)
        *(("exp(700)*exp(700)*x", at, "gradient of ScalarField(exp(700)*exp(700)*x on "
           "heisenberg) is not finite at [%s.0, 1.0, 0.0]: [inf, 0.0, 0.0]" % at[0])
          for at in ("1,1,0", "0,1,0")),
    )),
    *(refused("compare --variants %s --c 0.4 --x0 0.1,1,0.2,-0.1,0 --t-end 0.2 --dt 0.01"
              % variants, "error: " + err)
      for variants, err in (
        ("gtacos,gtacos", "variant 'gtacos' given twice"),
        ("contact,base_xj1,gtacos,base_xj1", "variant 'base_xj1' given twice"),
        ("gtacos,sasaki", "unknown variant 'sasaki'"),
    )),
    # compare reads x0 on the five-chart, whichever variant comes first
    *(refused("compare --variants %s --x0=0,-1,0,0,0" % variants,
              "error: point violates y > 0.0 on chart 'xjt' (got y = -1.0)")
      for variants in ("base_xj1,gtacos", "gtacos,base_xj1")),
    refused("compare --variants base_xj1,gtacos --c 0.4 --x0=0.1,1,0,0,0 --dt 0",
            "error: dt must be positive"),
    refused("riccati --m 0.3 --c 0.4 --x0 0,1 --dt 0", "error: dt must be positive"),
    refused("riccati --m 0.3 --c 0.4 --x0 0,1 --t-end=-1", "error: t_end must be nonnegative"),
    # riccati reads h_kappa as compare does, though its flow has no kappa
    refused("riccati --h-kappa '(' --x0 0,1",
            "error: parse error at offset 1: found end of input, expected one of NUMBER, NAME, "
            "'(', '-'"),
    refused("riccati --h-kappa q --x0 0,1 --t-end 0.01",
            "error: h_kappa may only reference kappa, got ['q']"),
    # a number that is not finite ends with its own code and message
    # theta theta^T overflows: LAPACK's SVD did not return on the inf
    Case("field --builtin heisenberg --hamiltonian x --at 1e308,1e308,0", 1,
         "numerical failure: flat matrix not finite at [1e+308, 1e+308, 0.0]", "", timeout=FRESH),
    # m + c overflows: RK45 never rejected the inf right-hand side
    refused("riccati --m=1e308 --c=1e308 --n=0 --x0=1,1 --t-end 1 --dt 0.1",
            "error: right-hand side not finite at t=0, state [1.0, 1.0]", timeout=FRESH),
    # the sum overflows: these printed "value": Infinity and exited 0
    *(refused("bracket --kind %s --f 1e200*q --g 1e200*p --at=0.1,0.2,0.3" % kind,
              "error: %s bracket is not finite at [0.1, 0.2, 0.3]: inf" % name, timeout=FRESH)
      for kind, name in (("poisson", "Poisson"), ("jacobi", "Jacobi"))),
    # X_H and dH are finite, their product is not: it printed Infinity
    refused("field --builtin darboux_contact(1) --hamiltonian '1e200*q + 1e200*p' "
            "--at=0.1,0.2,0.3", 'error: "dissipation_identity_residual" is not finite: inf',
            timeout=FRESH),
    # H R(H) overflows: a refused run writes no file
    refused("integrate --builtin darboux_cosymplectic --hamiltonian 1e155*kappa --x0 0,0,1 "
            "--t-end 1e-300 --dt 1e-301 --method rk4 --json-out f.json --csv f.csv",
            'error: "max_dissipation_residual" is not finite: inf'),
    # the norm of the first derivative is inf, so RK45's first trial step is
    # 0: it steps on from there, as scipy's does
    Case("integrate --builtin darboux_contact --hamiltonian 1e160*q --x0 0,1,1 "
         "--t-end 0.01 --dt 0.001", 1, Has(": flat matrix has rank 1 < 3"), "", timeout=FRESH),
    # p and kappa decay at rate 1e20, so RK45's stable step is a few 1e-20:
    # reaching t = 0.01 would take some 1e17 steps, and the step bound ends it
    Case("integrate --builtin darboux_contact --hamiltonian 1e20*kappa --x0 0,1,1 "
         "--t-end 0.01 --dt 0.001", 1,
         out=lambda doc: doc["escaped"] is True and doc["rows"] == 1 and doc["diagnostic"]
         == "RK45 took its bound of 10000 steps (accepted and rejected) for 11 grid rows "
         "and stopped at t=2.81619e-16", timeout=FRESH),
    # out-of-range values end cleanly, with no library text
    # numpy's "negative dimensions are not allowed" from the probe sampler
    refused("check-structure --builtin heisenberg --probes -3",
            Has("error: argument --probes: not a positive integer: '-3'"), timeout=FRESH),
    # numpy's _ArrayMemoryError: 2.18 TiB for the probe points alone
    refused("check-structure --builtin heisenberg --probes 100000000000",
            "error: --probes 100000000000 asks for 9e+11 entries per (probes, dim, dim) stack; "
            "--probes is at most 1111111 on a 3-dimensional chart", timeout=FRESH),
    # numpy's "Maximum allowed size exceeded", and a 7 TiB allocation
    refused(INTEGRATE + " --dt 1e-12",
            "error: t_end/dt = 1e+12 asks for 1e+12 grid rows; t_end/dt is at most 1000000",
            timeout=FRESH),
    # Phi_qq^2 overflows, so Phi_xq is inf: refused with no warning (a Newton
    # search printed LAPACK's DLASCL text on stdout here)
    Case("phi-solve --free 1e300,0.5,0.3,-0.2 --at 0,1,0.1,0.2,0", 1,
         out=Has('"best_residual": null'), timeout=FRESH),
    # max|Phi| is 5e7 at y = 1e-4, and phi_squared rounds to 3.7e-9: it
    # passes, since a residual is held to 16 eps max|Phi|^2 above 1e-10
    Case("phi-solve --free 1,0.5,0.3,-0.2 --at 0,1e-4,0.1,0.2,0", 0,
         out=lambda doc: doc["passes"] is True and doc["rank"] == 4
         and 1e-10 < doc["residuals"]["phi_squared"] < 1e-8),
    # Phi_yq = Phi_yp: the equation is ((Phi_qp + Phi_pq)/2)^2 + 1 = 0
    Case("phi-solve --free 1,1,0.3,-0.2 --at 0,1,0.1,0.2,0", 1,
         out=Has('"best_residual": 1.0025\n')),
    # scipy's "At least one element of rtol is too small" warning, exit 0
    refused(INTEGRATE + " --t-end 0.01 --dt 0.001 --rtol 0",
            "error: rtol must be at least 100 * eps = 2.22e-14 for adaptive-rk45, got 0.0",
            timeout=FRESH),
    # a zero coordinate over atol = 0 made the first RK45 step NaN: an
    # IndexError from the empty grid before it, exit 1
    refused("integrate --builtin xjt_gtacos --hamiltonian x^2+y --x0=0.1,1,0.2,0,0.1 "
            "--t-end 0.1 --dt 0.01 --atol=0", "error: `atol` must be positive.", timeout=FRESH),
    # the message of scipy's own check, which the package now makes
    refused(INTEGRATE + " --t-end 0.01 --dt 0.001 --atol=-1",
            "error: `atol` must be positive.", timeout=FRESH),
]


def strict_json(text):
    """``json.loads`` that refuses NaN and Infinity."""
    def refuse(constant):
        raise ValueError("%s is not JSON" % constant)

    return json.loads(text, parse_constant=refuse)


def matches(expected, name, text) -> bool:
    """Whether the stream or file ``name`` meets a row's expectation of its
    ``text``: None passes, a ``Has`` occurs in it, other text is all of it,
    and a test is called with the rows of a ``.csv`` file, else the JSON."""
    if expected is None:
        return True
    if isinstance(expected, Has):
        return expected in text
    if isinstance(expected, str):
        return text == expected
    return expected(list(csv.reader(text.splitlines())) if name.endswith(".csv")
                    else strict_json(text))


def run_fresh(args, src, cwd=None, timeout=None, seed=None):
    """(exit code, stdout, stderr) of ``python ARGS`` with ``src`` first on
    PYTHONPATH, COSYM_SEED set to ``seed`` or unset, and no bytecode written;
    raises TimeoutExpired after ``timeout`` seconds."""
    env = {k: v for k, v in os.environ.items() if k != "COSYM_SEED"}
    if seed is not None:
        env["COSYM_SEED"] = seed
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          encoding="utf-8", errors="surrogateescape", timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def write_inputs(case, directory) -> None:
    for name, text in case.files.items():
        Path(directory, name).write_text(text)


def written(case, directory) -> dict:
    """The files under ``directory`` other than ``case``'s inputs: their
    relative paths and texts."""
    return {p.relative_to(directory).as_posix(): p.read_text(errors="surrogateescape")
            for p in sorted(Path(directory).rglob("*"))
            if p.is_file() and p.name not in case.files}


# --------------------------------------------------------------------------
# Parity of two trees
# --------------------------------------------------------------------------


def _outputs(case, src):
    """(exit code, stdout, stderr, written files) of ``case`` as a fresh
    process on the ``src`` directory of a tree."""
    with tempfile.TemporaryDirectory() as cwd:
        write_inputs(case, cwd)
        try:
            got = run_fresh(["-m", "cosym", *case.argv], src, cwd, case.timeout or 120)
        except subprocess.TimeoutExpired as exc:
            got = ("timeout after %gs" % exc.timeout, "", "")
        return (*got, written(case, cwd))


def _columns(name, text):
    """A JSON document's numbers by key path (list positions dropped), or a
    CSV file's by column; None for other text."""
    try:
        if name.endswith(".csv"):
            header, *rows = csv.reader(text.splitlines())
            return {key: [float(v) for v in values] for key, *values in zip(header, *rows)}
        doc = json.loads(text)
    except ValueError:
        return None
    out = defaultdict(list)

    def walk(value, path):  # an empty dict or list is a value of its own
        if value and isinstance(value, dict):
            for key, item in value.items():
                walk(item, "%s.%s" % (path, key) if path else key)
        elif value and isinstance(value, list):
            for item in value:
                walk(item, path + "[]")
        else:
            out[path].append(value)

    walk(doc, "")
    return out


def _changes(name, base, tree):
    """Lines that say how the text ``tree`` differs from ``base``."""
    a, b = _columns(name, base), _columns(name, tree)
    if a is None or b is None:
        lines = zip_longest(base.splitlines(), tree.splitlines(), fillvalue="")
        first = next(((x, y) for x, y in lines if x != y), None)
        return ["%s: %r -> %r" % (name, *first) if first else "%s: other line ends" % name]
    out = []
    for key in sorted(a.keys() | b.keys()):
        if key not in b or key not in a:
            out.append("%s: %s only in %s" % (name, key or "value", "base" if key in a else "tree"))
        elif len(a[key]) != len(b[key]):
            out.append("%s: %s has %d values, was %d" % (name, key, len(b[key]), len(a[key])))
        elif a[key] != b[key]:
            pairs = list(zip(a[key], b[key]))
            if all(isinstance(v, float) or type(v) is int for pair in pairs for v in pair):
                change = max(abs(x - y) for x, y in pairs)
                relative = max(abs(x - y) / max(abs(x), abs(y)) for x, y in pairs if x != y)
                out.append("%s: %s largest absolute change %.3g, relative %.3g"
                           % (name, key, change, relative))
            else:
                out.append("%s: %s changed" % (name, key))
    return out or ["%s: same values, other text" % name]


def _differences(base, tree) -> list[str]:
    (code_a, *streams_a, files_a), (code_b, *streams_b, files_b) = base, tree
    # a row that never ended is a difference, even on both trees
    out = ["%s: %s" % (tree, code) for tree, code in (("base", code_a), ("tree", code_b))
           if not isinstance(code, int)]
    if code_a != code_b:
        out.append("exit %s -> %s" % (code_a, code_b))
    for name, a, b in zip(("stdout", "stderr"), streams_a, streams_b):
        if a != b:
            out += _changes(name, a, b)
    for name in sorted(files_a.keys() | files_b.keys()):
        if name not in files_a or name not in files_b:
            out.append("%s: written only in %s" % (name, "base" if name in files_a else "tree"))
        elif files_a[name] != files_b[name]:
            out += _changes(name, files_a[name], files_b[name])
    return out


def main(base: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", base], capture_output=True)
        if archive.returncode:
            sys.exit(archive.stderr.decode())
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        trees = (Path(tmp, "src"), ROOT / "src")
        for src in trees:  # an installed cosym must not shadow the tree's
            where = run_fresh(["-c", "import cosym; print(cosym.__file__)"], src)[1].strip()
            if not Path(where).is_relative_to(src):
                sys.exit("python -m cosym runs %s, not the tree at %s" % (where, src))
        differing = 0
        for case in CASES:
            lines = _differences(*(_outputs(case, src) for src in trees))
            differing += bool(lines)
            print("%-9s %s" % ("differs" if lines else "identical", case.command))
            for line in lines:
                print("    " + line)
    print("%d rows: %d identical, %d differ (base %s)"
          % (len(CASES), len(CASES) - differing, differing, base))
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/cli_corpus.py BASE")
    sys.exit(main(sys.argv[1]))
