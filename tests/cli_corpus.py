"""The CLI contract as one table of command lines, and a parity driver.

Every ``cosym`` command keeps one contract.  It exits 0 (success),
1 (numerical failure) or 2 (input error).  Its stdout is empty, strict
JSON (no NaN or Infinity) or invariant-suite's report lines.  Neither
stream holds ``Traceback``, ``Warning`` or LAPACK's ``DLASCL``.  On exit 0
stderr holds only the log lines its row names, none by default, and every
``.json`` file a command writes is strict JSON.

``CASES`` holds the rows.  A row names a command line, the files it reads,
its exit code, its stderr (exact, or a ``Has`` substring), its stdout where
the row pins it, and the files it writes.
``tests/test_cli.py::test_a_corpus_row_keeps_the_cli_contract`` checks
every row on the working tree: in process through ``cli.main``, or as a
fresh ``python -m cosym`` under the row's timeout.  To add a case, add a
row.

``python tests/cli_corpus.py BASE`` is the parity check.  It exports the
git revision BASE, runs every row as a fresh process on BASE and on the
working tree, and compares exit codes, stdout, stderr and written files
byte for byte.  For a JSON or CSV output that differs, it prints the
largest absolute change per key or column.  A row that times out on
either tree differs.  It exits 0 when every row is identical, else 1.
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
    writes: tuple = ()  # the files it writes
    timeout: float = 0  # > 0: a fresh ``python -m cosym`` under this many seconds

    @property
    def argv(self) -> list[str]:
        return shlex.split(self.command)


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
    and max(abs(r - w) for r, w in zip(doc["reeb"], (0, 0, 0, 0, 1))) <= 1e-12,
    "xjt_contact": None,
}


def refused(command, err, **row):
    """An input error: exit 2, nothing on stdout."""
    return Case(command, 2, err, "", **row)


def failures(*flags):
    """The test of a sweep's JSON: which entries report a failure."""
    return lambda doc: ["failure" in entry for entry in doc["sweep"]] == list(flags)


CASES = [
    # README's examples
    Case("list-manifolds", 0, timeout=FRESH,
         out=lambda doc: {"heisenberg", "xjt_gtacos", "xjt_contact"} <= {e["name"] for e in doc}),
    Case("list-manifolds --emit manifolds", 0, "\n".join("wrote " + p for p in EMITTED),
         writes=EMITTED),
    *(Case("check-structure --builtin " + name, 0, out=test)
      for name, test in CHECK_STRUCTURE.items()),
    Case("reeb --builtin heisenberg --at 0,1,0", 0),
    Case("field --builtin darboux_contact --hamiltonian kappa --at 1,2,3", 0),
    Case("bracket --kind jacobi --f kappa --g q --at 2,0,7", 0,
         out=lambda doc: (doc["value"], doc["antisymmetry_residual"]) == (-2.0, 0.0)),
    Case(INTEGRATE + " --t-end 1 --dt 0.001 --csv traj.csv --json-out traj.json", 0,
         writes=("traj.csv", "traj.json")),
    Case(README_COMPARE, 0),
    Case(README_COMPARE + " --paper-verbatim", 0),
    Case("riccati --m 0.3 --c 0.4 --n 0.1 --x0 0,1 --t-end 1 --dt 0.01 --csv ric.csv", 0,
         writes=("ric.csv",)),
    Case("phi-solve --free 1,0.5,0.3,-0.2 --at 0,1,0.1,0.2,0 --json-out phi.json", 0,
         writes=("phi.json",)),
    *(Case(command, 0, out=Has("invariant-suite: PASS (seed %s)" % seed))
      for command, seed in (("invariant-suite", 42), ("invariant-suite --seed 42", 42),
                            ("invariant-suite --seed 7", 7))),
    # the grid stops at the last multiple of dt within t_end
    Case(INTEGRATE + " --t-end 0.8 --dt 0.5", 0, out=Has('"rows": 2,')),
    Case("bracket --kind poisson --f q --g p --at 0.3,0.7,0.1", 0,
         out=lambda doc: doc["value"] == 1.0),
    # the CI's end-to-end runs
    Case(INTEGRATE + " --t-end 1 --dt 0.01 --method rk4 --csv rk4.csv --json-out rk4.json",
         0, writes=("rk4.csv", "rk4.json")),
    Case("field --builtin xjt_gtacos --hamiltonian '%s' --at=0.2,1.0,0.3,-0.2,0.0" % README_H,
         0, timeout=FRESH),
    Case(COMPARE + " --paper-verbatim --csv compare.csv", 0, writes=("compare.csv",),
         timeout=FRESH),
    Case("riccati --paper-verbatim", 0, timeout=FRESH),
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
    # flows that escape the domain: exit 1 and "escaped"; x/y^2 drives y onto
    # the guard y = 0 by t = 0.5, and Runge-Kutta stages past it are evaluated
    *(Case(ESCAPE + tail, 1, out=Has('"escaped": true'), timeout=FRESH)
      for tail in ("--t-end 1", "--t-end 1 --method rk4", "--t-end 0.5")),
    Case(ESCAPE + "--t-end 0.37", 0, out=Has('"rows": 38,')),
    Case("riccati --m=0 --c=0 --n=-300 --x0=0,1 --t-end 1 --dt 0.01", 1,
         out=Has('"escaped": true'), timeout=FRESH),
    Case("compare --variants base_xj1 --n=-300 --x0=0,1,0,0,0 --t-end 1 --dt 0.01 "
         "--csv escape.csv", 1, out=lambda doc: "base_xj1" in doc["escaped"],
         writes=("escape.csv",), timeout=FRESH),
    # sweeps: a point that fails is reported in its own entry (exit 1)
    Case(SWEEP + "ok.json --hamiltonian '%s + 0.5*kappa'" % README_H, 0,
         files={"ok.json": "[[0.2,1,0.3,-0.2,0],[0.1,1.2,0,0.4,0.3]]"}, timeout=FRESH),
    Case(SWEEP + "degenerate.json --hamiltonian x^2", 1, out=failures(False, True, False),
         files={"degenerate.json": "[[0.2,1,0.3,-0.2,0],[-0.485,1.497,-0.414,0.345,-0.132],"
                                   "[0.1,0.8,0,0.1,0]]"}, timeout=FRESH),
    Case(SWEEP + "sqrt.json --hamiltonian sqrt(q) --t-end 0.1 --dt 0.01", 1,
         out=failures(False, True),
         files={"sqrt.json": "[[0.2,1,0.3,-0.2,0],[0.2,1,-0.3,-0.2,0]]"}, timeout=FRESH),
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
    # out-of-range values end cleanly, with no library text
    # numpy's "negative dimensions are not allowed" from the probe sampler
    refused("check-structure --builtin heisenberg --probes -3",
            Has("error: argument --probes: not a positive integer: '-3'"), timeout=FRESH),
    # numpy's "Maximum allowed size exceeded", and a 7 TiB allocation
    refused(INTEGRATE + " --dt 1e-12",
            "error: t_end/dt = 1e+12 asks for 1e+12 grid rows; t_end/dt is at most 1000000",
            timeout=FRESH),
    # LAPACK's DLASCL text on stdout, then "SVD did not converge"
    Case("phi-solve --free 1e300,0.5,0.3,-0.2 --at 0,1,0.1,0.2,0", 1,
         out=Has('"best_residual": null'), timeout=FRESH),
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
                out.append("%s: %s largest absolute change %.3g" % (name, key, change))
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
