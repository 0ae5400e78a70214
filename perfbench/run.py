"""cosym benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload flow_dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload is a closed loop with one client in one process and
no threads: an op starts when the previous one has finished and been checked.

``--trace 0`` runs ops 0, 1, 2, ... for ``--seconds`` and reports the
end-to-end metrics.  On a shared 2-CPU host the CPU speed flips between a
fast and a slow state (about 1.9x apart) many times a minute, and the share
of slow time drifts from run to run.  So a fixed pure-Python speed probe
runs between consecutive ops (and around each set-up sample), and each op's
time is divided by the mean of the ``PROBE_WINDOW`` probes on either side
of it over ``REF_PROBE_S``: times are reported at the speed where the probe
takes ``REF_PROBE_S``.  One probe is too short to tell the speed an op saw,
hence the window.  Raw wall figures are printed beside the scaled ones and
kept in the results file.

``--trace 1`` alternates blocks of the workload's first ``trace_block`` ops
untraced and traced until ``--seconds`` have passed, and reports per-op layer
metrics from the traced blocks; the same ops in every block make the
``.calls`` metrics repeat exactly for a seed.  Flow workloads also trace the
README example once and print its RHS calls, rows and phase shares.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines before it are for people.  A full record
(environment, sample counts, per-op failures) goes to
``perfbench/results/<workload>-trace<0|1>.json``; a traced run also writes its
first traced block's spans to ``perfbench/results/<workload>-spans.npz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_SAMPLES = 3  # fresh processes per run; setup_s is their median
PROBE_ITERATIONS = 8000
REF_PROBE_S = 0.85e-3  # probe time in the fast state of a 2-CPU Xeon box
SETUP_PROBES = 5  # speed probes before and after each set-up sample
PROBE_WINDOW = 3  # probes on each side of an op that estimate its speed
MAX_FAILURES_SHOWN = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, run the warm-up op, print 'ready' and exit")
    return p.parse_args(argv)


def import_package():
    """Import cosym from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(BENCH_DIR))
    sys.path.insert(0, str(SRC))
    try:
        import cosym
    except ImportError as exc:
        raise SystemExit("perfbench: cannot import cosym from %s (%s)" % (SRC, exc))
    if Path(cosym.__file__).resolve().parent != SRC / "cosym":
        raise SystemExit("perfbench: cosym imported from %s, not %s" % (cosym.__file__, SRC))
    import workloads
    return workloads


def set_up(args):
    """Everything before the first timed op: imports, construction, warm-up."""
    workloads = import_package()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit("perfbench: unknown workload %r (choose from %s)"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
    wl = workloads.WORKLOADS[args.workload](args.seed)
    for index in range(workloads.WARMUP_BASE, workloads.WARMUP_BASE + wl.warmup_ops):
        warm = wl.make_input(index)
        wl.check(warm, wl.run(warm))
    return wl


def measure_setup(args) -> float:
    """Wall time from spawning a fresh process to its first timed op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise SystemExit("perfbench: setup probe failed (exit %d)" % code)
    return elapsed


def environment(seed: int) -> dict:
    def cpu_model() -> str:
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def commit() -> str:
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return "unknown"
        return out.stdout.strip() if out.returncode == 0 else "unknown"

    digest = hashlib.sha256()
    for path in sorted((SRC / "cosym").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    import scipy
    return {
        "seed": seed,
        "commit": commit(),
        "source_sha256": digest.hexdigest(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Loop:
    """Runs and checks ops, keeping per-op wall times and failures."""

    def __init__(self, wl):
        self.wl = wl
        self.times: list[float] = []
        self.failures: list[tuple[int, list[str]]] = []
        self.attempted = 0

    def op(self, index: int) -> float:
        inp = self.wl.make_input(index)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.wl.run(inp)
        except Exception as exc:  # a raising op is a failed op, never dropped
            self.failures.append((index, ["raised %s: %s" % (type(exc).__name__, exc)]))
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        bad = self.wl.check(inp, out)
        if bad:
            self.failures.append((index, bad))
        return elapsed


def speed_probe() -> float:
    """Wall time of a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    table, acc = {}, 0.0
    for i in range(PROBE_ITERATIONS):
        table[i & 255] = acc
        acc += table.get(i & 127, 1.0) * 0.5
    return time.perf_counter() - t0


def run_untraced(wl, seconds: float):
    """Ops 0, 1, 2, ... until ``seconds`` have passed; (loop, probe times)."""
    loop = Loop(wl)
    probes = [speed_probe()]
    t_end = time.perf_counter() + seconds
    index = 0
    while index < 2 or time.perf_counter() < t_end:
        loop.times.append(loop.op(index))
        probes.append(speed_probe())
        index += 1
    return loop, probes


def measure_setups(args):
    """SETUP_SAMPLES set-up times, with the speed probes taken around them."""
    samples, probes = [], [speed_probe() for _ in range(SETUP_PROBES)]
    for _ in range(SETUP_SAMPLES):
        samples.append(measure_setup(args))
        probes += [speed_probe() for _ in range(SETUP_PROBES)]
    return samples, probes


def run_traced(wl, seconds: float):
    from tracing import Tracer

    loop = Loop(wl)
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    traced_ops = first_block_spans = 0
    t_end = time.perf_counter() + seconds
    while traced_ops == 0 or time.perf_counter() < t_end:
        for index in range(wl.trace_block):
            untraced_s += loop.op(index)
        tracer.install()
        try:
            for index in range(wl.trace_block):
                tracer.op = index
                traced_s += loop.op(index)
        finally:
            tracer.uninstall()
        traced_ops += wl.trace_block
        first_block_spans = first_block_spans or len(tracer)
    metrics = tracer.metrics(traced_ops)
    # ops_per_s traced over untraced, on the same ops
    metrics["trace.overhead_ratio"] = untraced_s / traced_s
    return loop, tracer, metrics, traced_ops, first_block_spans


def trace_reference(wl):
    """Trace the README example once; None for workloads without one."""
    if not hasattr(wl, "reference"):
        return None
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traj = wl.reference()
    finally:
        tracer.uninstall()
    split = tracer.integrate_split()
    split["rows"] = len(traj.times)
    return split


def quantile(values, q: float) -> float:
    """Inclusive quantile, as statistics.quantiles(method='inclusive')."""
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def timing_metrics(times, setup_samples) -> dict:
    ms = [t * 1e3 for t in times]
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (quantile(ms, 0.9), "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }


def local_speed(probes, index: int) -> float:
    """Slowdown around op ``index``: mean of the PROBE_WINDOW probes on each
    side of it over REF_PROBE_S (probe ``i`` ran just before op ``i``)."""
    window = probes[max(0, index + 1 - PROBE_WINDOW):index + 1 + PROBE_WINDOW]
    return statistics.fmean(window) / REF_PROBE_S


def end_to_end(loop, probes, setup_samples, setup_probes) -> dict:
    times = [t / local_speed(probes, i) for i, t in enumerate(loop.times)]
    setup_speed = statistics.fmean(setup_probes) / REF_PROBE_S
    out = timing_metrics(times, [s / setup_speed for s in setup_samples])
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["ok_ratio"] = (1.0 - len(loop.failures) / loop.attempted, "ratio")
    out["peak_rss_mb"] = (rss_kib / 1024.0, "MB")
    return {k: out[k] for k in
            ("ops_per_s", "op_p50_ms", "op_p90_ms", "ok_ratio", "setup_s", "peak_rss_mb")}


def main(argv=None) -> int:
    # cli._seed lets COSYM_SEED override --seed; inputs come from --seed only.
    os.environ.pop("COSYM_SEED", None)
    args = parse_args(argv)
    if args.setup_probe:
        set_up(args)
        print("ready", flush=True)
        return 0

    wl = set_up(args)
    env = environment(args.seed)
    print("# env " + json.dumps(env), flush=True)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "env": env}

    if args.trace == 0:
        setup_samples, setup_probes = measure_setups(args)
        loop, probes = run_untraced(wl, args.seconds)
        metrics = end_to_end(loop, probes, setup_samples, setup_probes)
        raw = timing_metrics(loop.times, setup_samples)
        n = len(loop.times)
        samples = {"ops_per_s": n, "op_p50_ms": n, "op_p90_ms": n,
                   "ok_ratio": loop.attempted, "setup_s": len(setup_samples), "peak_rss_mb": 1}
        for name, (value, unit) in metrics.items():
            line = "%s %-12s %14.6g %-6s n=%d" % (args.workload, name, value, unit, samples[name])
            if name in raw:
                line += "   (raw wall %.6g)" % raw[name][0]
            print(line)
        print("%s %-12s %14.6g %-6s (%d/%d)" % (
            args.workload, "failed_ratio", len(loop.failures) / loop.attempted, "ratio",
            len(loop.failures), loop.attempted))
        record["samples"] = samples
        record["raw_wall"] = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
        record["setup_samples_s"] = setup_samples
        record["setup_probe_ms"] = [p * 1e3 for p in setup_probes]
        record["op_ms"] = [t * 1e3 for t in loop.times]
        record["probe_ms"] = [p * 1e3 for p in probes]
    else:
        from tracing import layer_metric_names

        reference = trace_reference(wl)
        if reference is not None:
            print("%s reference %s" % (args.workload, json.dumps(reference)))
            record["reference"] = reference
        loop, tracer, values, traced_ops, first_block_spans = run_traced(wl, args.seconds)
        units = dict(layer_metric_names())
        metrics = {name: (values[name], unit) for name, unit in units.items()}
        for name, (value, unit) in metrics.items():
            print("%s %-52s %14.6g %s" % (args.workload, name, value, unit))
        print("%s traced ops n=%d, spans=%d" % (args.workload, traced_ops, len(tracer)))
        record["traced_ops"] = traced_ops
        RESULTS.mkdir(exist_ok=True)
        # Later blocks repeat the first block's ops; only its spans are kept.
        tracer.save(RESULTS / ("%s-spans.npz" % args.workload), first_block_spans)

    for index, bad in loop.failures[:MAX_FAILURES_SHOWN]:
        print("%s op %d FAILED: %s" % (args.workload, index, "; ".join(bad)))
    record["failures"] = [{"op": i, "why": bad} for i, bad in loop.failures]
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / ("%s-trace%d.json" % (args.workload, args.trace))).write_text(
        json.dumps(record, indent=1))

    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
