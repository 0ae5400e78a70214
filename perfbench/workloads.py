"""The four benchmark workloads and their per-op oracles.

A workload builds its fixed state once (structures, reused fields), turns
``(seed, op index)`` into one op's inputs, runs the op against the public
API of ``cosym`` (the timed part) and checks the op's output (untimed).
``check`` returns a list of failure descriptions; an empty list is a pass.

Every tolerance below is a fixed constant whose basis is stated next to it.
None is tuned to the values a seed happens to produce.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

import cosym
from cosym import cli
from cosym.charts import ScalarField
from cosym.manifolds import ModelParameters

# Untimed warm-up ops use indices from here on, apart from every timed op.
WARMUP_BASE = 2 * 3 * 5 * 7 * 11 * 10**6

README_H = "q^2 + p^2 + x^2 + (y-1)^2"
README_X0 = (0.2, 1.0, 0.3, -0.2, 0.0)

# RK45 at rtol = atol = 1e-9 keeps the global error of an O(1) state near
# steps * 1e-9 (tens of steps per unit time), so 1e-6 * scale is a loose
# bound for energy drift and for the end value of the dissipation law.
RK45_TOL = 1e-6
# Centered difference on dt = 1e-3 of H sampled from the RK45 dense output:
# sample noise up to ~1e-8 (10 x rtol on O(1) states through an O(1)
# gradient) over 2 dt = 2e-3 gives 5e-6; truncation (dt^2/6)|H'''| adds
# 2e-7. 1e-5 * scale bounds both.
DISSIPATION_TOL = 1e-5
# RK4 energy error on a definite quadratic H: per step ~(lambda h)^6 / 72
# with lambda <= 3, h = 1e-2, over 100 steps gives ~1e-9; 1e-6 leaves room.
RK4_TOL = 1e-6
# Invariant-suite tolerances: closed vs generic X_H (relative), the
# dissipation identity X(H) + H R(H) = 0, and the flat/sharp round trip.
CLOSED_VS_GENERIC_TOL = 1e-9
DISSIPATION_IDENTITY_TOL = 1e-8
ROUNDTRIP_TOL = 1e-10
# Test-suite tolerance of jacobi_bracket against jacobi_bracket_generic.
BRACKET_TOL = 1e-9
# theta ^ Omega^2 on the extended half-plane is a product of a few floats:
# error is a few ulp (~1e-15 relative); 1e-12 leaves room.
VOLUME_TOL = 1e-12
# Top coefficient of theta ^ omega^2 on xjt charts is FACTOR * k nu sqrt(delta) / y^2.
# The derivation gives 4; acceptance criterion 04 pins 2 and stays red on purpose.
VOLUME_FACTOR = 4.0
# Riccati flow is solved at rtol = atol = 1e-9 over t = 1.
RICCATI_TOL = 1e-6

BASE_FLAGS = {"acos": True, "gtacos": True, "cos": False, "contact": False, "tacs": False}
CONTACT_FLAGS = dict(BASE_FLAGS, contact=True)
DARBOUX_CONTACT_FLAGS = dict(CONTACT_FLAGS, tacs=True, tacs_epsilon=-1.0)
DARBOUX_COS_FLAGS = dict(BASE_FLAGS, cos=True, tacs=True, tacs_epsilon=0.0)
CATALOG_FLAGS = {
    "darboux_contact": ("darboux_contact(1)", DARBOUX_CONTACT_FLAGS),
    "darboux_cosymplectic": ("darboux_cosymplectic(1)", DARBOUX_COS_FLAGS),
    "heisenberg": ("heisenberg", CONTACT_FLAGS),
    "xjt_gtacos": ("xjt_gtacos", BASE_FLAGS),
    "xjt_contact": ("xjt_contact", CONTACT_FLAGS),
    "darboux_contact(3)": ("darboux_contact(3)", DARBOUX_CONTACT_FLAGS),
    "darboux_cosymplectic(3)": ("darboux_cosymplectic(3)", DARBOUX_COS_FLAGS),
}
XJT_NAMES = ("xjt_gtacos", "xjt_contact")


def op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _num(x: float) -> str:
    return repr(float(x))


def _xjt_x0(rng) -> list[float]:
    """x in [-0.5, 0.5], y in [0.7, 1.5], q, p, kappa in [-0.5, 0.5]."""
    x0 = list(rng.uniform(-0.5, 0.5, 5))
    x0[1] = float(rng.uniform(0.7, 1.5))
    return x0


def _scale(*arrays) -> float:
    return max([1.0] + [float(np.max(np.abs(a))) for a in arrays])


class FlowDense:
    """One adaptive RK45 integrate per op, t_end = 1, dt = 1e-3, on xjt_gtacos.

    Ops cycle the README Hamiltonian (conserved) twice, then the same plus
    0.5 kappa (dissipative: R(H) = 0.5, so H(t) = H(0) exp(-t/2)).  A
    dissipative op costs about a fifth more; the 2:1 mix keeps the median
    inside one cost cluster instead of in the gap between two equal halves.
    """

    name = "flow_dense"
    trace_block = 6
    warmup_ops = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = cosym.builtin("xjt_gtacos", ModelParameters(k=1.0, nu=1.0, delta=1.0))
        chart, params = self.spec.chart, self.spec.params
        self.conserved = ScalarField.parse(chart, README_H, params)
        self.dissipative = ScalarField.parse(chart, README_H + " + 0.5*kappa", params)

    def make_input(self, index: int):
        return index % 3 != 2, _xjt_x0(op_rng(self.seed, index))

    def run(self, inp):
        conserved, x0 = inp
        H = self.conserved if conserved else self.dissipative
        return cosym.integrate(self.spec, H, self.spec.chart.point(x0), t_end=1.0, dt=1e-3)

    def reference(self):
        """The README example: H conserved, x0 = README_X0."""
        return cosym.integrate(
            self.spec, self.conserved, self.spec.chart.point(README_X0), t_end=1.0, dt=1e-3
        )

    def check(self, inp, traj) -> list[str]:
        conserved, _ = inp
        bad = []
        h = traj.hamiltonian_values
        scale = _scale(h[:1])
        if traj.escaped:
            bad.append("escaped: %s" % traj.diagnostic)
        if len(traj.times) != 1001:
            bad.append("rows %d != 1001" % len(traj.times))
        if traj.max_dissipation_residual > DISSIPATION_TOL * scale:
            bad.append("dissipation residual %.3e" % traj.max_dissipation_residual)
        expected_end = h[0] if conserved else h[0] * math.exp(-0.5 * traj.times[-1])
        if conserved and traj.energy_drift() > RK45_TOL * scale:
            bad.append("energy drift %.3e" % traj.energy_drift())
        if abs(h[-1] - expected_end) > RK45_TOL * scale:
            bad.append("H(t_end) %.17g != %.17g" % (h[-1], expected_end))
        return bad


class FlowStepped:
    """One fixed-step RK4 integrate per op, t_end = 1, dt = 1e-2.

    Ops cycle xjt_gtacos, xjt_gtacos, darboux_contact(3); H is a fresh
    kappa-free definite quadratic, so R(H) = 0 and H is conserved.  A 7-dim
    op costs about twice a 5-dim one; the 2:1 mix keeps the median inside
    one cost cluster instead of in the gap between two equal halves.
    """

    name = "flow_stepped"
    trace_block = 6
    warmup_ops = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.xjt = cosym.builtin("xjt_gtacos", ModelParameters(k=1.0, nu=1.0, delta=1.0))
        self.d3 = cosym.builtin("darboux_contact(3)")

    @staticmethod
    def _pair_terms(rng, q: str, p: str) -> str:
        a, b = rng.uniform(0.5, 1.5, 2)
        return "%s*%s^2 + %s*%s^2" % (_num(a), q, _num(b), p)

    def make_input(self, index: int):
        rng = op_rng(self.seed, index)
        if index % 3 != 2:
            # a/b <= 5/3 with |x0| <= 0.5 and |y0 - 1| <= 0.5 keeps the (x, y)
            # ellipse above y = 0.18, inside the y > 0 guard.
            a, b = rng.uniform(0.75, 1.25, 2)
            source = "%s*x^2 + %s*(y-1)^2 + %s" % (
                _num(a), _num(b), self._pair_terms(rng, "q", "p"))
            return self.xjt, source, _xjt_x0(rng)
        source = " + ".join(
            self._pair_terms(rng, "q%d" % i, "p%d" % i) for i in (1, 2, 3))
        return self.d3, source, list(rng.uniform(-0.5, 0.5, 7))

    def run(self, inp):
        spec, source, x0 = inp
        H = ScalarField.parse(spec.chart, source, spec.params)
        return cosym.integrate(
            spec, H, spec.chart.point(x0), t_end=1.0, dt=1e-2, method="rk4")

    def reference(self):
        """The README Hamiltonian and x0 on the RK4 path."""
        H = ScalarField.parse(self.xjt.chart, README_H, self.xjt.params)
        return cosym.integrate(
            self.xjt, H, self.xjt.chart.point(README_X0), t_end=1.0, dt=1e-2, method="rk4")

    def check(self, inp, traj) -> list[str]:
        bad = []
        scale = _scale(traj.hamiltonian_values[:1])
        if traj.escaped:
            bad.append("escaped: %s" % traj.diagnostic)
        if len(traj.times) != 101:
            bad.append("rows %d != 101" % len(traj.times))
        if traj.energy_drift() > RK4_TOL * scale:
            bad.append("energy drift %.3e" % traj.energy_drift())
        return bad


def random_polynomial_source(coordinates, rng, max_degree: int = 2, terms: int = 4) -> str:
    """A constant plus ``terms`` monomials; each coordinate has degree
    0..max_degree and each coefficient lies in [-1, 1]."""
    parts = [_num(rng.uniform(-1, 1))]
    for _ in range(terms):
        factors = [_num(rng.uniform(-1, 1))]
        for name in coordinates:
            deg = int(rng.integers(0, max_degree + 1))
            if deg:
                factors.append("%s^%d" % (name, deg))
        parts.append("*".join(factors))
    return " + ".join(parts)


class Pointwise:
    """A fresh canonical theta, H and G per op, evaluated at 8 points.

    No integrate runs: every field is used 8 times, so any per-field
    compile or cache cost is paid, not amortised.  n cycles 1, 2, 3, so every
    seed has the same mix of chart sizes.
    """

    name = "pointwise"
    trace_block = 24
    warmup_ops = 1
    points_per_op = 8

    def __init__(self, seed: int):
        self.seed = seed
        self.contact = {n: cosym.builtin("darboux_contact(%d)" % n) for n in (1, 2, 3)}

    def make_input(self, index: int):
        rng = op_rng(self.seed, index)
        n = 1 + index % 3
        a = tuple(float(v) for v in rng.uniform(-2, 2, n))
        b = tuple(float(v) for v in rng.uniform(-2, 2, n))
        c = float(rng.uniform(0.5, 3.0))
        coords = self.contact[n].chart.coordinates
        h_src = random_polynomial_source(coords, rng)
        g_src = random_polynomial_source(coords, rng)
        points = rng.uniform(-1.5, 1.5, (self.points_per_op, 2 * n + 1))
        return n, (a, b, c), h_src, g_src, points

    def run(self, inp):
        n, (a, b, c), h_src, g_src, points = inp
        theta_spec = cosym.CanonicalThetaSpec(a=a, b=b, c=c)
        spec = theta_spec.structure()
        H = ScalarField.parse(spec.chart, h_src)
        G = ScalarField.parse(spec.chart, g_src)
        out = []
        for values in points:
            pt = spec.chart.point(values)
            X = cosym.hamiltonian_field_generic(spec, H, pt)
            out.append({
                "generic": X,
                "closed": cosym.hamiltonian_field_closed(theta_spec, H, pt).vector(),
                "reeb": cosym.reeb(spec, pt),
                "dH": H.gradient(pt),
                "H": H.value(pt),
                "flat_grad": cosym.flat(spec, cosym.gradient_field(spec, H, pt), pt),
                "roundtrip": cosym.sharp(spec, cosym.flat(spec, X, pt), pt),
                "bracket": cosym.jacobi_bracket(H, G, pt),
                "bracket_generic": cosym.dynamics.jacobi_bracket_generic(
                    self.contact[n], H, G, pt),
            })
        return out

    def check(self, inp, out) -> list[str]:
        bad = []
        for i, r in enumerate(out):
            X, dH = r["generic"], r["dH"]
            scale = _scale(r["closed"])
            if np.max(np.abs(r["closed"] - X)) > CLOSED_VS_GENERIC_TOL * scale:
                bad.append("point %d: closed vs generic X_H" % i)
            identity = abs(float(X @ dH) + r["H"] * float(r["reeb"] @ dH))
            if identity > DISSIPATION_IDENTITY_TOL * _scale(X) * _scale(dH):
                bad.append("point %d: X(H) + H R(H) = %.3e" % (i, identity))
            if np.max(np.abs(r["roundtrip"] - X)) > ROUNDTRIP_TOL * _scale(X):
                bad.append("point %d: sharp(flat(X)) != X" % i)
            if np.max(np.abs(r["flat_grad"] - dH)) > ROUNDTRIP_TOL * _scale(dH):
                bad.append("point %d: flat(grad H) != dH" % i)
            scale = max(1.0, abs(r["bracket_generic"]))
            if abs(r["bracket"] - r["bracket_generic"]) > BRACKET_TOL * scale:
                bad.append("point %d: jacobi_bracket %.17g vs generic %.17g"
                           % (i, r["bracket"], r["bracket_generic"]))
        return bad


def riccati_exact(m: float, c: float, n: float, x0, t: float) -> tuple[float, float]:
    """Closed-form Riccati flow: z = x + i y obeys z' = -(m+c) z^2 + 2 n z,
    so w = 1/z obeys the linear w' = (m+c) - 2 n w."""
    a = m + c
    w0 = 1.0 / complex(x0[0], x0[1])
    if n == 0.0:
        w = w0 + a * t
    else:
        w = a / (2 * n) + (w0 - a / (2 * n)) * math.exp(-2 * n * t)
    z = 1.0 / w
    return z.real, z.imag


class Catalog:
    """One op is one pass of in-process ``cosym.cli.main(argv)`` calls with
    stdout captured, over the catalog commands; op ``i`` draws its
    arguments from ``(seed, i)``.

    A pass costs about the same every time.  Single commands differ in cost
    by 30x, and percentiles of that mix fall in gaps between cost clusters,
    which made them unsteady from run to run.
    """

    name = "catalog"
    trace_block = 3
    warmup_ops = 1

    def __init__(self, seed: int):
        self.seed = seed

    def make_input(self, index: int) -> list[dict]:
        rng = op_rng(self.seed, index)
        cli_seed = str(int(rng.integers(0, 2**31 - 1)))
        k, nu, delta = (float(v) for v in rng.uniform(0.5, 2.0, 3))
        xjt_params = ["-P", "k=%r" % k, "-P", "nu=%r" % nu, "-P", "delta=%r" % delta]
        # Values go in "--flag=value" form: argparse reads a separate
        # "-0.3,1" as an option.
        ops = []
        for name in CATALOG_FLAGS:
            argv = ["check-structure", "--builtin", name, "--probes", "64", "--seed", cli_seed]
            if name in XJT_NAMES:
                ops.append({"argv": argv + xjt_params, "xjt": (k, nu, delta)})
            else:
                ops.append({"argv": argv})
        a, b, c, m, n = rng.uniform(-0.5, 0.5, 5)
        x0 = _xjt_x0(rng)
        x0[1] = float(rng.uniform(0.8, 1.5))
        ops.append({"argv": [
            "compare", "--variants", "gtacos,base_xj1,contact",
            "--a=" + _num(a), "--b=" + _num(b), "--c=" + _num(c), "--m=" + _num(m),
            "--n=" + _num(n), "--h-kappa", "kappa",
            "--x0=" + ",".join(_num(v) for v in x0), "--t-end", "0.2", "--dt", "0.01",
        ]})
        rm, rc, rn = (float(v) for v in rng.uniform(-0.5, 0.5, 3))
        rx0 = (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.5, 1.5)))
        ops.append({"argv": [
            "riccati", "--m=" + _num(rm), "--c=" + _num(rc), "--n=" + _num(rn),
            "--x0=%s,%s" % (_num(rx0[0]), _num(rx0[1])), "--t-end", "1", "--dt", "0.01",
        ], "riccati": (rm, rc, rn, rx0)})
        ops.append({"argv": ["phi-solve", "--free", "1,0.5,0.3,-0.2", "--at", "0,1,0.1,0.2,0"]})
        ops.append({"argv": ["invariant-suite", "--seed", cli_seed]})
        return ops

    def run(self, inp):
        return [self.run_command(cmd) for cmd in inp]

    def check(self, inp, out) -> list[str]:
        return [bad for cmd, res in zip(inp, out) for bad in self.check_command(cmd, res)]

    @staticmethod
    def run_command(inp):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(inp["argv"])
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        return code, stdout.getvalue(), stderr.getvalue()

    @staticmethod
    def check_command(inp, out, volume_factor: float = VOLUME_FACTOR,
                      flag_table=CATALOG_FLAGS) -> list[str]:
        code, stdout, stderr = out
        argv = inp["argv"]
        cmd, label = argv[0], " ".join(argv[:3])
        if code != 0:
            return ["%s: exit %s (%s)" % (label, code, stderr.strip()[-200:])]
        if cmd == "invariant-suite":
            last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
            ok = last.startswith("invariant-suite: PASS")
            return [] if ok else ["invariant-suite: %r" % last]
        try:
            doc = json.loads(stdout)
        except ValueError as exc:
            return ["%s: stdout is not JSON (%s)" % (label, exc)]
        bad = []
        if cmd == "check-structure":
            want_name, want_flags = flag_table[argv[2]]
            if doc.get("name") != want_name or doc.get("flags") != want_flags:
                bad.append("%s: flags %s" % (label, doc.get("flags")))
            if "xjt" in inp:
                k, nu, delta = inp["xjt"]
                y = doc["probe_point"][1]
                derived = volume_factor * k * nu * math.sqrt(delta) / y**2
                if abs(doc["volume_coefficient"] - derived) > VOLUME_TOL * max(1.0, abs(derived)):
                    bad.append("%s: volume coefficient %.17g != %.17g"
                               % (label, doc["volume_coefficient"], derived))
        elif cmd == "compare":
            want = {"gtacos_vs_base_xj1", "gtacos_vs_contact", "base_xj1_vs_contact"}
            deltas = doc.get("deltas", {})
            if set(deltas) != want or not all(
                    math.isfinite(d["max"]) for d in deltas.values()):
                bad.append("compare: deltas %s" % sorted(deltas))
        elif cmd == "riccati":
            rm, rc, rn, rx0 = inp["riccati"]
            exact = riccati_exact(rm, rc, rn, rx0, 1.0)
            if doc.get("rows") != 101 or max(
                    abs(doc["final"][i] - exact[i]) for i in (0, 1)) > RICCATI_TOL:
                bad.append("riccati: final %s vs exact %s" % (doc.get("final"), exact))
        elif cmd == "phi-solve":
            if doc.get("passes") is not True:
                bad.append("phi-solve: passes=%r" % doc.get("passes"))
        return bad


WORKLOADS = {w.name: w for w in (FlowDense, FlowStepped, Pointwise, Catalog)}
