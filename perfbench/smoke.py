"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. Runs every workload for about a second, untraced and traced, and checks
   that the last stdout line carries exactly the metrics BENCHMARK.json
   names, each with its unit, and that no op failed.
2. Checks the traced README cross-check figures (92 RHS calls and 1001 rows
   on flow_dense, 400 RHS calls on flow_stepped) and the phase split
   (post-pass dominates flow_dense, RHS dominates flow_stepped).
3. Checks that ``.calls`` metrics repeat exactly between two traced runs of
   one seed.
4. Shows that each oracle bites: corrupted outputs, and the halved
   criterion-04 constant 2 k nu sqrt(delta) / y^2, must fail their checks.
5. Checks that the benchmark exits non-zero without a result line in a
   directory holding only BENCHMARK.json and the benchmark's files.

Exits 0 when every check passes; prints each failed check otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FAILED: list[str] = []


def expect(condition: bool, what: str) -> None:
    print("%s  %s" % ("ok  " if condition else "FAIL", what))
    if not condition:
        FAILED.append(what)


def run(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_line(proc) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def reference(proc) -> dict:
    for line in proc.stdout.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] == "reference":
            return json.loads(parts[2])
    return {}


def check_runs() -> None:
    declared = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            proc = run(workload, trace)
            doc = result_line(proc)
            label = "%s --trace %d" % (workload, trace)
            if proc.returncode != 0 or doc is None:
                expect(False, "%s exits 0 with a result line: %s" % (label, proc.stderr[-500:]))
                continue
            expect(set(doc) == {"correct", "attempted", "failed", "metrics"},
                   "%s result keys" % label)
            expect(doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1,
                   "%s: %d ops, none failed" % (label, doc["attempted"]))
            metrics = doc["metrics"]
            expect(set(metrics) == set(declared[trace]),
                   "%s prints every declared metric and no other" % label)
            expect(all(metrics[n]["unit"] == u and math.isfinite(metrics[n]["value"])
                       for n, u in declared[trace].items() if n in metrics),
                   "%s: each metric has its unit and a finite value" % label)
            if trace == 1:
                check_trace(workload, proc, metrics)


def check_trace(workload: str, proc, metrics: dict) -> None:
    ref = reference(proc)
    rhs = metrics["dynamics.integrate.rhs_ms"]["value"]
    post = metrics["dynamics.integrate.postpass_ms"]["value"]
    if workload == "flow_dense":
        expect(ref.get("rhs_calls") == 92 and ref.get("rows") == 1001,
               "flow_dense README cross-check: 92 RHS calls, 1001 rows (%s)" % ref)
        expect(ref.get("postpass_share", 0) > 0.5, "flow_dense README post-pass share > 0.5")
        expect(post > rhs, "flow_dense: postpass_ms %.1f > rhs_ms %.1f" % (post, rhs))
    elif workload == "flow_stepped":
        expect(ref.get("rhs_calls") == 400 and ref.get("rows") == 101,
               "flow_stepped README cross-check: 400 RHS calls, 101 rows (%s)" % ref)
        expect(rhs > post, "flow_stepped: rhs_ms %.1f > postpass_ms %.1f" % (rhs, post))


def check_calls_repeat() -> None:
    for workload in ("pointwise", "catalog"):
        a, b = (result_line(run(workload, 1, seed=7)) for _ in range(2))
        if a is None or b is None:
            expect(False, "%s traced runs produce results" % workload)
            continue
        calls = [n for n in a["metrics"] if n.endswith(".calls")]
        expect(all(a["metrics"][n]["value"] == b["metrics"][n]["value"] for n in calls),
               "%s: .calls metrics repeat exactly for one seed" % workload)


def check_oracles_bite() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import workloads as W

    wl = W.FlowDense(1)
    for index in (0, 2):  # one conserved op, one dissipative op
        inp = wl.make_input(index)
        traj = wl.run(inp)
        expect(wl.check(inp, traj) == [], "flow_dense op %d passes its oracle" % index)
        ramp = traj.hamiltonian_values + 1e-4 * traj.times
        traj.hamiltonian_values = ramp
        expect(wl.check(inp, traj) != [], "flow_dense op %d: H drifting 1e-4 fails" % index)
        traj.hamiltonian_values = ramp - 1e-4 * traj.times
        traj.escaped = True
        expect(wl.check(inp, traj) != [], "flow_dense op %d: escaped fails" % index)

    wl = W.FlowStepped(1)
    for index in (0, 2):  # one 5-dim op, one 7-dim op
        inp = wl.make_input(index)
        traj = wl.run(inp)
        expect(wl.check(inp, traj) == [], "flow_stepped op %d passes its oracle" % index)
        traj.hamiltonian_values = traj.hamiltonian_values + 1e-4 * traj.times
        expect(wl.check(inp, traj) != [], "flow_stepped op %d: H drifting 1e-4 fails" % index)

    wl = W.Pointwise(1)
    inp = wl.make_input(0)
    out = wl.run(inp)
    expect(wl.check(inp, out) == [], "pointwise op 0 passes its oracle")
    for key in ("generic", "closed", "roundtrip", "flat_grad", "bracket"):
        saved = out[0][key]
        out[0][key] = saved * (1 + 1e-6) + 1e-6
        expect(wl.check(inp, out) != [], "pointwise: %s off by 1e-6 fails" % key)
        out[0][key] = saved
    out[0]["H"] += 1.0
    expect(wl.check(inp, out) != [], "pointwise: wrong H breaks X(H) + H R(H) = 0")

    wl = W.Catalog(1)
    commands = wl.make_input(0)
    outs = wl.run(commands)
    expect(wl.check(commands, outs) == [], "catalog pass passes its oracles")
    by_cmd = {" ".join(c["argv"][:3]): (c, o) for c, o in zip(commands, outs)}
    inp, out = by_cmd["check-structure --builtin xjt_gtacos"]
    expect(wl.check_command(inp, out, volume_factor=2.0) != [],
           "catalog: halved criterion-04 constant 2 k nu sqrt(delta)/y^2 fails")
    inp, out = by_cmd["check-structure --builtin heisenberg"]
    table = dict(W.CATALOG_FLAGS, heisenberg=("heisenberg", W.BASE_FLAGS))
    expect(wl.check_command(inp, out, flag_table=table) != [], "catalog: wrong flag table fails")
    code, stdout, stderr = out
    expect(wl.check_command(inp, (1, stdout, stderr)) != [], "catalog: exit code 1 fails")
    expect(wl.check_command(inp, (0, stdout[:-2], stderr)) != [], "catalog: broken JSON fails")
    ricc = next(c for c in commands if c["argv"][0] == "riccati")
    doc = json.loads(wl.run_command(ricc)[1])
    doc["final"][1] += 1e-5
    expect(wl.check_command(ricc, (0, json.dumps(doc), "")) != [],
           "catalog: riccati off by 1e-5 fails")
    suite = next(c for c in commands if c["argv"][0] == "invariant-suite")
    expect(wl.check_command(suite, (0, "invariant-suite: FAIL (seed 1)\n", "")) != [],
           "catalog: invariant-suite FAIL fails")


def check_bare_directory() -> None:
    bare = BENCH_DIR / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run("flow_dense", 0, cwd=bare)
        expect(proc.returncode != 0 and result_line(proc) is None,
               "without the package: exit %d and no result line" % proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_runs()
    check_calls_repeat()
    check_oracles_bite()
    check_bare_directory()
    print("smoke: %s" % ("PASS" if not FAILED else "FAIL (%d checks)" % len(FAILED)))
    return 0 if not FAILED else 1


if __name__ == "__main__":
    sys.exit(main())
