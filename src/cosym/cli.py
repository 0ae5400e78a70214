"""Batch command-line front end.

Exit codes: 0 success, 1 numerical failure (reported), 2 input error.
Floats are written as Python's shortest repr, which reads back bit for
bit.  ``list-manifolds``, ``check-structure`` and ``invariant-suite`` take
``--seed`` (default 42; the COSYM_SEED environment variable overrides it);
no other command draws random numbers or takes the flag.

argparse reads all input: its types read numbers (finite only), counts,
seeds and comma-separated points, so a bad value is a usage error naming
its flag.  A COSYM_SEED that is not a nonnegative integer is an input
error naming the variable.
A ``--config`` JSON object's entries are flags placed before the command
line's own, which win: ``"key": v`` is ``--key=v``, a list is joined with
commas, ``true`` is the bare flag, ``false`` and ``null`` are left out,
and a key that is no flag of the command is a usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import dynamics, manifolds, structures
from .charts import DomainError, ScalarField, random_polynomial
from .dynamics import json_text as _json_text
from .expressions import EvalError, ParseError
from .forms import exterior_derivative

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_INPUT = 2

DEFAULT_SEED = 42

# A probe set holds (probes, dim, dim) stacks of Omega, d theta and F, 8 dim^2
# bytes per probe each: the bound keeps each stack under 80 MB.
MAX_PROBE_ENTRIES = 10_000_000

PARAMETER_NAMES = tuple(f.name for f in dataclasses.fields(manifolds.ModelParameters))


def _print_json(doc) -> None:
    print(_json_text(doc))


def _number(text: str) -> float:
    """argparse type of every float flag: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid float value: %r" % text) from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("not a finite number: %r" % text)
    return value


def _integer(text: str, least: int, kind: str) -> int:
    """``text`` as an integer of at least ``least``, which ``kind`` names."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if value < least:
        raise argparse.ArgumentTypeError("not a %s integer: %r" % (kind, text))
    return value


def _count(text: str) -> int:
    """argparse type of a count: a positive integer."""
    return _integer(text, 1, "positive")


def _seed_value(text: str) -> int:
    """argparse type of a seed: a nonnegative integer."""
    return _integer(text, 0, "nonnegative")


def _point(text: str) -> list[float]:
    """argparse type of a point: comma-separated finite coordinates."""
    return [_number(v) for v in text.replace(" ", "").split(",") if v != ""]


def _param(text: str) -> tuple[str, float]:
    """argparse type of ``-P name=value``: a model parameter and its value."""
    name, eq, value = (part.strip() for part in text.partition("="))
    if not eq or name not in PARAMETER_NAMES:
        raise argparse.ArgumentTypeError("expected NAME=VALUE with NAME one of %s, got %r"
                                         % (", ".join(PARAMETER_NAMES), text))
    return name, _number(value)


def _params(args) -> manifolds.ModelParameters:
    return manifolds.ModelParameters(**dict(args.param or ()))


def _seed(args) -> int:
    """``--seed``, or the COSYM_SEED environment variable that overrides it."""
    text = os.environ.get("COSYM_SEED")
    if text is None:
        return args.seed
    try:
        return _seed_value(text)
    except argparse.ArgumentTypeError as exc:
        raise ValueError("COSYM_SEED: %s" % exc) from None


def _require(args, key):
    """The value of ``--key``; a ValueError naming the flag if it is missing."""
    value = getattr(args, key.replace("-", "_"))
    if value is None:
        raise ValueError("missing --%s (give it as a flag or in --config)" % key)
    return value


def _resolve_structure(args) -> structures.StructureSpec:
    if args.structure_json:
        for flag, value in (("--builtin", args.builtin), ("-P/--param", args.param)):
            if value:
                raise ValueError("--structure-json cannot be combined with %s" % flag)
        return structures.StructureSpec.from_json(args.structure_json)
    if args.builtin:
        return manifolds.builtin(args.builtin, _params(args))
    raise ValueError("give --builtin NAME or --structure-json PATH")


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_list_manifolds(args) -> int:
    params = _params(args)
    specs = [manifolds.builtin(name, params) for name in manifolds.CATALOG]
    entries = [{"name": spec.name, "chart": list(spec.chart.coordinates), "n": spec.n,
                "flags": spec.classification(seed=_seed(args)).flags()} for spec in specs]
    if args.emit:
        target = Path(args.emit)
        target.mkdir(parents=True, exist_ok=True)
        for spec in specs:
            path = target / ("%s.json" % spec.name.replace("(", "_").replace(")", ""))
            path.write_text(_json_text(spec.to_json()))
            print("wrote %s" % path, file=sys.stderr)
    _print_json(entries)
    return EXIT_OK


def cmd_check_structure(args) -> int:
    spec = _resolve_structure(args)
    dim = spec.chart.dimension
    if args.probes * dim**2 > MAX_PROBE_ENTRIES:
        raise ValueError("--probes %d asks for %.6g entries per (probes, dim, dim) stack; "
                         "--probes is at most %d on a %d-dimensional chart"
                         % (args.probes, args.probes * dim**2, MAX_PROBE_ENTRIES // dim**2, dim))
    probes = spec.default_probes(count=args.probes, seed=_seed(args))
    cls = structures.classify(spec, probes=probes)
    probe = spec.chart.point(args.probe_point) if args.probe_point else probes[0]
    try:
        R = structures.reeb(spec, probe)
    except structures.StructureError:
        R = None  # a structure the solver refuses still prints its report
    report = {
        "name": spec.name,
        "flags": cls.flags(),
        "probe_point": list(probe.values),
        "reeb": R,
        "volume_coefficient": spec.volume_coefficient(probe),
    }
    _print_json(report)
    return EXIT_OK if cls.acos and R is not None else EXIT_NUMERICAL


def cmd_reeb(args) -> int:
    spec = _resolve_structure(args)
    point = spec.chart.point(_require(args, "at"))
    _print_json({"name": spec.name, "at": list(point.values),
                 "reeb": structures.reeb(spec, point)})
    return EXIT_OK


def cmd_field(args) -> int:
    spec = _resolve_structure(args)
    H = ScalarField.parse(spec.chart, _require(args, "hamiltonian"), spec.params)
    point = spec.chart.point(_require(args, "at"))
    xh = dynamics.hamiltonian_field_generic(spec, H, point)
    grad = dynamics.gradient_field(spec, H, point)
    R = structures.reeb(spec, point)
    h, dH = H.at(point)
    _print_json(
        {
            "name": spec.name,
            "at": list(point.values),
            "H": h,
            "hamiltonian_field": xh,
            "gradient_field": grad,
            "reeb": R,
            "dissipation_identity_residual": float(abs(xh @ dH + h * (R @ dH))),
        }
    )
    return EXIT_OK


def cmd_bracket(args) -> int:
    chart = structures.darboux_chart(args.n)
    f = ScalarField.parse(chart, args.f)
    g = ScalarField.parse(chart, args.g)
    at = chart.point(args.at)
    bracket = dynamics.poisson_bracket if args.kind == "poisson" else dynamics.jacobi_bracket
    value, flipped = bracket(f, g, at), bracket(g, f, at)
    _print_json(
        {
            "kind": args.kind,
            "value": value,
            "antisymmetry_residual": abs(value + flipped),
        }
    )
    return EXIT_OK


def _guard_minima(flow) -> dict:
    """min_<coordinate> over the flow's rows for each guard of its chart."""
    chart = flow.chart
    return {"min_%s" % g.coordinate: float(flow.states[:, chart.index(g.coordinate)].min())
            for g in chart.guards}


def _trajectory_summary(traj) -> dict:
    return {
        "rows": int(len(traj.times)),
        "max_dissipation_residual": traj.max_dissipation_residual,
        "energy_drift": traj.energy_drift(),
        "escaped": traj.escaped,
        "diagnostic": traj.diagnostic,
        **_guard_minima(traj),
    }


def cmd_integrate(args) -> int:
    for key in ("x0", "csv", "json_out"):
        if args.sweep and getattr(args, key) is not None:
            raise ValueError("--sweep cannot be combined with --%s" % key.replace("_", "-"))
    spec = _resolve_structure(args)
    hamiltonian = _require(args, "hamiltonian")
    H = ScalarField.parse(spec.chart, hamiltonian, spec.params)
    solver = {k: getattr(args, k) for k in ("t_end", "dt", "method", "rtol", "atol")}

    if args.sweep:
        outputs = []
        for x0 in _sweep_points(args.sweep, spec.chart):
            out = {"x0": list(x0.values)}
            try:
                traj = dynamics.integrate(spec, H, x0, **solver)
            except (structures.StructureError, EvalError) as exc:
                out["failure"] = str(exc)  # this point only; the rest flow
            else:
                out.update(final=traj.states[-1].tolist(),
                           max_dissipation_residual=traj.max_dissipation_residual,
                           escaped=traj.escaped)
            outputs.append(out)
        _print_json({"sweep": outputs})
        failed = any("failure" in o or o["escaped"] for o in outputs)
        return EXIT_NUMERICAL if failed else EXIT_OK

    x0 = spec.chart.point(_require(args, "x0"))
    traj = dynamics.integrate(spec, H, x0, **solver)
    summary = _json_text(_trajectory_summary(traj))  # a refused run writes no file
    if args.json_out:
        traj.to_json(
            args.json_out,
            structure=spec.name,
            parameters=spec.params,
            hamiltonian=hamiltonian,
        )
    if args.csv:
        traj.to_csv(args.csv)
    print(summary)
    return EXIT_NUMERICAL if traj.escaped else EXIT_OK


def _sweep_points(path: str, chart) -> list:
    """The initial points of a ``--sweep`` file on ``chart``: a JSON list of
    coordinate lists, each number read by :func:`_point`'s finite rule and
    each entry by ``chart.point``; a ValueError names the file and the entry
    index."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, list):
        raise ValueError("--sweep %s holds a JSON list of coordinate lists" % path)
    points = []
    for i, entry in enumerate(doc):
        try:
            if not isinstance(entry, list):
                raise argparse.ArgumentTypeError("not a list of coordinates: %r" % entry)
            points.append(chart.point([_number(str(v)) for v in entry]))
        except (argparse.ArgumentTypeError, DomainError) as exc:
            raise ValueError("--sweep %s, entry %d: %s" % (path, i, exc)) from None
    return points


COEFFICIENT_FLAGS = ("a", "b", "c", "m", "n")


def _coeffs_from_args(args):
    from . import jacobi_flows

    a, b, c, m, n = (
        0.0 if v is None else v for v in (getattr(args, k) for k in COEFFICIENT_FLAGS)
    )
    coeffs = jacobi_flows.LinearHamiltonianCoefficients(
        a=a, b=b, c_lin=c, m=m, n_lin=n, h_kappa=args.h_kappa
    )
    coeffs.h_expr()  # refuses a malformed h_kappa for every command that reads one
    return coeffs


def cmd_compare(args) -> int:
    from . import jacobi_flows

    params = _params(args)
    variants = [v.strip() for v in args.variants.split(",")]
    for i, v in enumerate(variants):
        if v not in jacobi_flows.VARIANTS:
            raise ValueError("unknown variant %r" % v)
        if v in variants[:i]:
            raise ValueError("variant %r given twice" % v)
    x0 = _require(args, "x0")
    if len(x0) != 5:
        raise ValueError("compare needs a 5-coordinate initial point")
    model = jacobi_flows.split_energy(_coeffs_from_args(args), params)
    x0 = manifolds.CHART_XJT.point(x0)
    flows = {v: jacobi_flows.integrate_variant(model, v, x0, args.t_end, args.dt)
             for v in variants}

    shared = ("x", "y", "q", "p")
    deltas = {}
    for (a, flow_a), (b, flow_b) in itertools.combinations(flows.items(), 2):
        rows = min(len(flow_a.times), len(flow_b.times))
        delta = np.abs(flow_a.states[:rows, :4] - flow_b.states[:rows, :4])
        deltas["%s_vs_%s" % (a, b)] = {
            "max_per_coordinate": dict(zip(shared, delta.max(axis=0))),
            "max": float(delta.max()),
        }

    activity = {}
    for variant in variants:
        if variant == "base_xj1":
            continue
        base, corr = jacobi_flows.red_green_decomposition(model, variant, x0)
        activity[variant] = {
            "base": base,
            "correction": corr,
            "active_components": [
                name
                for name, value in zip(("x", "y", "q", "p", "kappa"), corr)
                if abs(value) > 1e-12
            ],
        }

    escaped = {v: flow.diagnostic for v, flow in flows.items() if flow.escaped}
    report = {"variants": variants, "deltas": deltas, "corrections": activity,
              "escaped": escaped}
    if args.paper_verbatim:
        report["paper_verbatim"] = jacobi_flows.paper_discrepancy_report(model, x0)
    text = _json_text(report)  # a refused run writes no file
    if args.csv:
        _write_compare_csv(args.csv, flows)
    print(text)
    return EXIT_NUMERICAL if escaped else EXIT_OK


def _write_compare_csv(path, flows) -> None:
    """One row per grid time that every flow reached: t, then each flow's
    state, its columns named <variant>_<coordinate>."""
    rows = min(len(flow.times) for flow in flows.values())
    header = ["t"] + ["%s_%s" % (name, c)
                      for name, flow in flows.items() for c in flow.chart.coordinates]
    columns = [next(iter(flows.values())).times[:rows, None]]
    columns += [flow.states[:rows] for flow in flows.values()]
    dynamics.write_csv(path, header, np.hstack(columns))


def cmd_riccati(args) -> int:
    from . import jacobi_flows

    if args.paper_verbatim and args.csv:
        raise ValueError("--paper-verbatim cannot be combined with --csv")
    params = _params(args)
    coeffs = _coeffs_from_args(args)
    if args.paper_verbatim:
        explicit = any(
            getattr(args, key) is not None for key in COEFFICIENT_FLAGS + ("h_kappa",)
        )
        model = jacobi_flows.split_energy(
            coeffs if explicit else jacobi_flows.REFERENCE_COEFFS, params
        )
        _print_json(jacobi_flows.paper_discrepancy_report(model))
        return EXIT_OK
    flow = jacobi_flows.integrate_riccati(coeffs, args.x0, args.t_end, args.dt)
    text = _json_text({"rows": len(flow.times), "final": flow.states[-1],
                       **_guard_minima(flow), "escaped": flow.escaped,
                       "diagnostic": flow.diagnostic})  # a refused run writes no file
    if args.csv:
        dynamics.write_csv(args.csv, ["t", *flow.chart.coordinates],
                           np.column_stack([flow.times, flow.states]))
    print(text)
    return EXIT_NUMERICAL if flow.escaped else EXIT_OK


def cmd_phi_solve(args) -> int:
    from . import almost_contact

    params = _params(args)
    try:
        sol = almost_contact.solve_phi(
            tuple(_require(args, "free")), params, _require(args, "at")
        )
    except almost_contact.PhiSolveError as exc:
        best = exc.best_residual if math.isfinite(exc.best_residual) else None
        _print_json({"error": str(exc), "best_residual": best})
        return EXIT_NUMERICAL
    doc = {
        "free": list(sol.free),
        "at": list(sol.point.values),
        "phi": sol.phi.entries,
        "xi": sol.xi,
        "eta": sol.eta,
        "g_prime": sol.g_prime,
        "residuals": sol.residuals,
        "rank": sol.phi.rank(),
        "positive_definite": sol.positive_definite,
        "passes": sol.passes(),
    }
    text = _json_text(doc)
    if args.json_out:
        Path(args.json_out).write_text(text)
    print(text)
    return EXIT_OK if doc["passes"] else EXIT_NUMERICAL


def cmd_invariant_suite(args) -> int:
    from . import almost_contact

    seed = _seed(args)
    rng = np.random.default_rng(seed)
    params = manifolds.ModelParameters()
    checks: list[tuple[str, bool, float]] = []

    def push(name, value, tol):
        checks.append((name, bool(value <= tol), float(value)))

    specs = {name: manifolds.builtin(name, params) for name in manifolds.CATALOG}
    for spec in specs.values():
        points = np.array([pt.array for pt in spec.default_probes(seed=seed)])
        th, om = spec.rows(points)
        R = structures.reeb_rows(th, om, points)
        worst_omega = float(np.abs(R[:, None, :] @ om).max())
        worst_theta = float(np.abs(np.einsum("ij,ij->i", R, th) - 1.0).max())
        push("reeb_contraction[%s]" % spec.name, worst_omega, 1e-11)
        push("reeb_normalization[%s]" % spec.name, worst_theta, 1e-11)

    spec = specs["xjt_gtacos"]
    worst = 0.0
    for pt in spec.default_probes(count=16, seed=seed):
        F = spec.flat_matrix(pt)
        for _ in range(8):
            v = rng.normal(size=5)
            back = structures.sharp(spec, F @ v, pt)
            worst = max(worst, float(np.abs(back - v).max()))
    push("flat_sharp_roundtrip[xjt_gtacos]", worst, 1e-10)

    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(1, 4))
        theta_spec = structures.CanonicalThetaSpec(
            a=tuple(rng.uniform(-2, 2, n)),
            b=tuple(rng.uniform(-2, 2, n)),
            c=float(rng.uniform(0.5, 3.0)),
        )
        st = theta_spec.structure()
        H = random_polynomial(st.chart, rng)
        point = st.chart.point(rng.uniform(-1.5, 1.5, 2 * n + 1))
        closed = dynamics.hamiltonian_field_closed(theta_spec, H, point).vector()
        generic = dynamics.hamiltonian_field_generic(st, H, point)
        scale = max(1.0, float(np.abs(closed).max()))
        worst = max(worst, float(np.abs(closed - generic).max()) / scale)
    push("closed_vs_generic_field", worst, 1e-9)

    worst = 0.0
    for pt in spec.default_probes(count=30, seed=seed):
        H = random_polynomial(spec.chart, rng)
        X = dynamics.hamiltonian_field_generic(spec, H, pt)
        dH = H.gradient(pt)
        R = structures.reeb(spec, pt)
        worst = max(
            worst, abs(float(X @ dH) + H.value(pt) * float(R @ dH))
        )
    push("dissipation_identity[xjt_gtacos]", worst, 1e-8)

    worst = 0.0
    for pt in spec.default_probes(count=16, seed=seed):
        y = pt["y"]
        derived = 4.0 * params.k * params.nu * np.sqrt(params.delta) / y**2
        worst = max(worst, abs(spec.volume_coefficient(pt) - derived))
    push("volume_coefficient_vs_wedge_oracle[xjt_gtacos]", worst, 1e-12)

    worst = 0.0
    dd_theta = exterior_derivative(exterior_derivative(spec.theta))
    for pt in spec.default_probes(count=16, seed=seed):
        worst = max(worst, dd_theta.at(pt).max_norm())
    push("d_squared_zero[xjt_gtacos.theta]", worst, 1e-10)

    contact = specs["xjt_contact"]
    worst = 0.0
    d_eta = exterior_derivative(contact.theta)
    for pt in contact.default_probes(count=16, seed=seed):
        worst = max(worst, (d_eta.at(pt) - contact.omega.at(pt)).max_norm())
    push("d_eta_equals_omega[xjt_contact]", worst, 1e-12)

    sas = almost_contact.sasaki_from_potential(almost_contact.heisenberg_potential())
    v = np.array([0.4, 1.3, 0.2])
    g = sas.metric(v)
    phi = sas.phi(v)
    eta = sas.eta.at(v).as_covector()
    axioms = max(
        float(np.abs(phi @ phi + np.eye(3) - np.outer(sas.xi, eta)).max()),
        float(np.abs(eta @ phi).max()),
        float(np.abs(phi @ sas.xi).max()),
        float(np.abs(phi.T @ g @ phi - (g - np.outer(eta, eta))).max()),
    )
    push("sasaki_axioms[heisenberg]", axioms, 1e-12)

    all_ok = all(ok for _, ok, _ in checks)
    for name, ok, value in checks:
        print("%-48s %s  (%.3e)" % (name, "PASS" if ok else "FAIL", value))
    print("invariant-suite: %s (seed %d)" % ("PASS" if all_ok else "FAIL", seed))
    return EXIT_OK if all_ok else EXIT_NUMERICAL


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosym",
        description="Hamiltonian dynamics on almost cosymplectic charts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        p.add_argument("-P", "--param", action="append", type=_param, metavar="NAME=VALUE",
                       help="model parameter override (k, nu, delta, alpha, beta, gamma)")
        if config:
            p.add_argument("--config", help="JSON config file; flags take precedence")

    def seed_flag(p):
        """The flag of the commands that draw random probes or inputs."""
        p.add_argument("--seed", type=_seed_value, default=DEFAULT_SEED,
                       help="seed for randomized checks (default 42; COSYM_SEED overrides)")

    def structure_flags(p):
        common(p)
        p.add_argument("--builtin")
        p.add_argument("--structure-json")

    def coefficient_flags(p):
        """The flags of compare and riccati."""
        for flag in COEFFICIENT_FLAGS:
            p.add_argument("--" + flag, type=_number)
        p.add_argument("--h-kappa")
        p.add_argument("--x0", type=_point)
        p.add_argument("--t-end", type=_number, default=1.0)
        p.add_argument("--dt", type=_number, default=1e-2)
        p.add_argument("--csv")

    p = sub.add_parser("list-manifolds", help="list the built-in structure catalog")
    common(p, config=False)
    seed_flag(p)
    p.add_argument("--emit", metavar="DIR", help="write each entry as a JSON document")
    p.set_defaults(fn=cmd_list_manifolds)

    p = sub.add_parser("check-structure", help="classification report")
    structure_flags(p)
    seed_flag(p)
    p.add_argument("--probes", type=_count, default=64)
    p.add_argument("--probe-point", type=_point, help="comma-separated coordinates")
    p.set_defaults(fn=cmd_check_structure)

    p = sub.add_parser("reeb", help="Reeb vector at a point")
    structure_flags(p)
    p.add_argument("--at", type=_point)
    p.set_defaults(fn=cmd_reeb)

    p = sub.add_parser("field", help="Hamiltonian and gradient fields at a point")
    structure_flags(p)
    p.add_argument("--hamiltonian")
    p.add_argument("--at", type=_point)
    p.set_defaults(fn=cmd_field)

    p = sub.add_parser("bracket", help="Poisson or contact bracket of two fields")
    p.add_argument("--kind", choices=("poisson", "jacobi"), default="poisson")
    p.add_argument("--n", type=int, default=1, help="number of (q, p) pairs")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--at", type=_point, required=True)
    p.set_defaults(fn=cmd_bracket)

    p = sub.add_parser("integrate", help="flow a Hamiltonian and write trajectory files")
    structure_flags(p)
    p.add_argument("--hamiltonian")
    p.add_argument("--x0", type=_point)
    p.add_argument("--t-end", type=_number, default=1.0)
    p.add_argument("--dt", type=_number, default=1e-3)
    p.add_argument("--method", choices=("rk4", "adaptive-rk45"), default="adaptive-rk45")
    p.add_argument("--rtol", type=_number, default=1e-9)
    p.add_argument("--atol", type=_number, default=1e-9)
    p.add_argument("--csv")
    p.add_argument("--json-out")
    p.add_argument("--sweep", help="JSON file with a list of initial points")
    p.set_defaults(fn=cmd_integrate)

    p = sub.add_parser("compare", help="side-by-side variant trajectories")
    common(p)
    p.add_argument("--variants", default="gtacos,base_xj1")
    coefficient_flags(p)
    p.add_argument("--paper-verbatim", action="store_true",
                   help="include the printed-equation discrepancy report")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("riccati", help="integrate the half-plane Riccati flow")
    common(p)
    coefficient_flags(p)
    p.add_argument("--paper-verbatim", action="store_true")
    p.set_defaults(fn=cmd_riccati, x0=(0.0, 1.0))

    p = sub.add_parser("phi-solve", help="solve the almost-contact tensor system")
    common(p)
    p.add_argument("--free", type=_point, help="Phi_yq,Phi_yp,Phi_qp,Phi_pq")
    p.add_argument("--at", type=_point, help="x,y,q,p,kappa")
    p.add_argument("--json-out")
    p.set_defaults(fn=cmd_phi_solve)

    p = sub.add_parser("invariant-suite", help="run the built-in invariant battery")
    seed_flag(p)
    p.set_defaults(fn=cmd_invariant_suite)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process: parsing keeps
    no state between calls (each call fills a fresh namespace, and the
    seed's environment override is read by :func:`_seed` at run time)."""
    return build_parser()


def _parse(argv) -> argparse.Namespace:
    """Parse argv; with ``--config``, parse again with the config's entries
    as flags right after the command (see the module docstring)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    doc = json.loads(Path(args.config).read_text())
    if not isinstance(doc, dict):
        raise ValueError("--config holds a JSON object of flag names and values")
    flags = []
    for key, value in doc.items():
        if not hasattr(args, key.replace("-", "_")):  # argparse would take a prefix
            parser.error("config key %r is not a flag of %s" % (key, args.command))
        if value is True:
            flags.append("--" + key)
        elif value is not False and value is not None:
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            flags.append("--%s=%s" % (key, text))
    return parser.parse_args(argv[:1] + flags + argv[1:])


def main(argv=None) -> int:
    try:
        with np.errstate(all="ignore"):  # the library checks its results
            args = _parse(argv)
            return args.fn(args)
    except ParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except structures.StructureError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    except (DomainError, EvalError, ValueError, KeyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
