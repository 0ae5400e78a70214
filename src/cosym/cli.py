"""Batch command-line front end.

Exit codes: 0 success, 1 numerical failure (reported), 2 input error.
Numbers are serialized with 17 significant digits so round trips are
bit-faithful.  The default seed is 42; the COSYM_SEED environment variable
overrides it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import almost_contact, dynamics, jacobi_flows, manifolds, structures
from .charts import DomainError, ScalarField, random_polynomial
from .expressions import EvalError, ParseError

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_INPUT = 2

DEFAULT_SEED = 42


def _fmt(x) -> float:
    return float("%.17g" % float(x))


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return _fmt(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _print_json(doc) -> None:
    print(json.dumps(_jsonify(doc), indent=2))


def _parse_values(text: str) -> list[float]:
    return [float(v) for v in text.replace(" ", "").split(",") if v != ""]


def _parse_params(pairs) -> manifolds.ModelParameters:
    table = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError("parameter overrides look like name=value, got %r" % pair)
        name, value = pair.split("=", 1)
        table[name.strip()] = float(value)
    return manifolds.ModelParameters(**table)


def _seed(args) -> int:
    env = os.environ.get("COSYM_SEED")
    if env is not None:
        return int(env)
    return getattr(args, "seed", DEFAULT_SEED)


def _load_config(args) -> dict:
    if getattr(args, "config", None):
        return json.loads(Path(args.config).read_text())
    return {}


def _pick(args, config, key, default=None):
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    return config.get(key, default)


def _require(args, config, key):
    """:func:`_pick` for a value without a default; raises ValueError
    naming the flag when neither the flags nor the config give it."""
    value = _pick(args, config, key)
    if value is None:
        raise ValueError("missing --%s (give it as a flag or in --config)" % key)
    return value


def _resolve_structure(args, config, params) -> structures.StructureSpec:
    builtin_name = _pick(args, config, "builtin") or _pick(args, config, "structure")
    json_path = _pick(args, config, "structure-json")
    if json_path:
        return structures.StructureSpec.from_json(json_path)
    if builtin_name:
        if str(builtin_name).endswith(".json"):
            return structures.StructureSpec.from_json(builtin_name)
        return manifolds.builtin(builtin_name, params)
    raise ValueError("give --builtin NAME or --structure-json PATH")


def _hamiltonian(spec, expr_text) -> ScalarField:
    return ScalarField.parse(spec.chart, expr_text, spec.params)


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_list_manifolds(args) -> int:
    params = _parse_params(args.param)
    entries = []
    for name in manifolds.CATALOG:
        spec = manifolds.builtin(name, params)
        flags = spec.classification(seed=_seed(args)).flags()
        entries.append({"name": spec.name, "chart": list(spec.chart.coordinates),
                        "n": spec.n, "flags": flags})
    if args.emit:
        target = Path(args.emit)
        target.mkdir(parents=True, exist_ok=True)
        for name in manifolds.CATALOG:
            spec = manifolds.builtin(name, params)
            path = target / ("%s.json" % spec.name.replace("(", "_").replace(")", ""))
            path.write_text(json.dumps(_jsonify(spec.to_json()), indent=2))
            print("wrote %s" % path)
    _print_json(entries)
    return EXIT_OK


def cmd_check_structure(args) -> int:
    config = _load_config(args)
    params = _parse_params(args.param)
    spec = _resolve_structure(args, config, params)
    probes = spec.default_probes(count=args.probes, seed=_seed(args))
    cls = spec.classification(probes=probes)
    probe = (
        spec.chart.point(_parse_values(args.probe_point))
        if args.probe_point
        else probes[0]
    )
    report = {
        "name": spec.name,
        "flags": cls.flags(),
        "probe_point": list(probe.values),
        "reeb": structures.reeb(spec, probe),
        "volume_coefficient": spec.volume_coefficient(probe),
    }
    _print_json(report)
    return EXIT_OK if cls.acos else EXIT_NUMERICAL


def cmd_reeb(args) -> int:
    config = _load_config(args)
    params = _parse_params(args.param)
    spec = _resolve_structure(args, config, params)
    point = spec.chart.point(_parse_values(args.at))
    _print_json({"name": spec.name, "at": list(point.values),
                 "reeb": structures.reeb(spec, point)})
    return EXIT_OK


def cmd_field(args) -> int:
    config = _load_config(args)
    params = _parse_params(args.param)
    spec = _resolve_structure(args, config, params)
    H = _hamiltonian(spec, _pick(args, config, "hamiltonian"))
    point = spec.chart.point(_parse_values(_pick(args, config, "at")))
    xh = dynamics.hamiltonian_field_generic(spec, H, point)
    grad = dynamics.gradient_field(spec, H, point)
    R = structures.reeb(spec, point)
    dH = H.gradient(point.array, check_domain=False)
    _print_json(
        {
            "name": spec.name,
            "at": list(point.values),
            "H": H.value(point),
            "hamiltonian_field": xh,
            "gradient_field": grad,
            "reeb": R,
            "dissipation_identity_residual": float(
                abs(xh @ dH + H.value(point) * (R @ dH))
            ),
        }
    )
    return EXIT_OK


def cmd_bracket(args) -> int:
    chart = structures.darboux_chart(args.n)
    f = ScalarField.parse(chart, args.f)
    g = ScalarField.parse(chart, args.g)
    at = chart.point(_parse_values(args.at))
    if args.kind == "poisson":
        value = dynamics.poisson_bracket(f, g, at)
        flipped = dynamics.poisson_bracket(g, f, at)
    else:
        value = dynamics.jacobi_bracket(f, g, at)
        flipped = dynamics.jacobi_bracket(g, f, at)
    _print_json(
        {
            "kind": args.kind,
            "value": value,
            "antisymmetry_residual": abs(value + flipped),
        }
    )
    return EXIT_OK


def _solver_settings(args, config) -> dict:
    """Keyword arguments of ``dynamics.integrate`` for the single run and the
    sweep alike: flags, then config, then defaults."""
    return {
        "t_end": float(_pick(args, config, "t-end", 1.0)),
        "dt": float(_pick(args, config, "dt", 1e-3)),
        "method": _pick(args, config, "method", "adaptive-rk45"),
        "rtol": float(_pick(args, config, "rtol", 1e-9)),
        "atol": float(_pick(args, config, "atol", 1e-9)),
    }


def _trajectory_summary(spec, traj) -> dict:
    summary = {
        "rows": int(len(traj.times)),
        "max_dissipation_residual": traj.max_dissipation_residual,
        "energy_drift": traj.energy_drift(),
        "escaped": traj.escaped,
        "diagnostic": traj.diagnostic,
    }
    for guard in spec.chart.guards:
        idx = spec.chart.index(guard.coordinate)
        summary["min_%s" % guard.coordinate] = float(traj.states[:, idx].min())
    return summary


def cmd_integrate(args) -> int:
    config = _load_config(args)
    params = _parse_params(args.param)
    spec = _resolve_structure(args, config, params)
    hamiltonian = _require(args, config, "hamiltonian")
    H = _hamiltonian(spec, hamiltonian)
    solver = _solver_settings(args, config)

    if args.sweep:
        points = json.loads(Path(args.sweep).read_text())
        with ProcessPoolExecutor() as pool:
            futures = [
                pool.submit(_sweep_worker, spec.to_json(), hamiltonian, pt, solver)
                for pt in points
            ]
            outputs = [fut.result() for fut in futures]
        _print_json({"sweep": outputs})
        return EXIT_NUMERICAL if any(o["escaped"] for o in outputs) else EXIT_OK

    x0_text = _require(args, config, "x0")
    x0_values = x0_text if isinstance(x0_text, list) else _parse_values(x0_text)
    traj = dynamics.integrate(spec, H, spec.chart.point(x0_values), **solver)
    csv_path = _pick(args, config, "csv")
    json_path = _pick(args, config, "json-out")
    if csv_path:
        traj.to_csv(csv_path)
    if json_path:
        traj.to_json(
            json_path,
            structure=spec.name,
            parameters=spec.params,
            hamiltonian=hamiltonian,
        )
    _print_json(_trajectory_summary(spec, traj))
    return EXIT_NUMERICAL if traj.escaped else EXIT_OK


def _sweep_worker(spec_json, hamiltonian, x0, solver):
    spec = structures.StructureSpec.from_json(spec_json)
    H = _hamiltonian(spec, hamiltonian)
    x0 = spec.chart.point(x0)
    traj = dynamics.integrate(spec, H, x0, **solver)
    return {
        "x0": list(x0.values),
        "final": traj.states[-1].tolist(),
        "max_dissipation_residual": traj.max_dissipation_residual,
        "escaped": traj.escaped,
    }


def _coeffs_from_args(args, config) -> jacobi_flows.LinearHamiltonianCoefficients:
    return jacobi_flows.LinearHamiltonianCoefficients(
        a=float(_pick(args, config, "a", 0.0)),
        b=float(_pick(args, config, "b", 0.0)),
        c_lin=float(_pick(args, config, "c", 0.0)),
        m=float(_pick(args, config, "m", 0.0)),
        n_lin=float(_pick(args, config, "n", 0.0)),
        h_kappa=_pick(args, config, "h-kappa"),
    )


def cmd_compare(args) -> int:
    config = _load_config(args)
    params = _parse_params(args.param)
    coeffs = _coeffs_from_args(args, config)
    variants = [v.strip() for v in args.variants.split(",")]
    for v in variants:
        if v not in jacobi_flows.VARIANTS:
            raise ValueError("unknown variant %r" % v)
    x0 = _parse_values(_require(args, config, "x0"))
    if len(x0) != 5:
        raise ValueError("compare needs a 5-coordinate initial point")
    t_end = float(_pick(args, config, "t-end", 1.0))
    dt = float(_pick(args, config, "dt", 1e-2))

    trajectories = {}
    for variant in variants:
        if variant == "base_xj1":
            trajectories[variant] = jacobi_flows.integrate_base(
                coeffs, x0[:4], t_end, dt, params
            )
        else:
            traj = jacobi_flows.integrate_variant(
                coeffs, variant, manifolds.CHART_XJT.point(x0), t_end, dt, params
            )
            trajectories[variant] = (traj.times, traj.states)

    shared = ("x", "y", "q", "p")
    deltas = {}
    names = list(trajectories)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a_t, a_s = trajectories[names[i]]
            b_t, b_s = trajectories[names[j]]
            rows = min(len(a_t), len(b_t))
            delta = np.abs(a_s[:rows, :4] - b_s[:rows, :4])
            deltas["%s_vs_%s" % (names[i], names[j])] = {
                "max_per_coordinate": dict(zip(shared, delta.max(axis=0))),
                "max": float(delta.max()),
            }

    activity = {}
    for variant in variants:
        if variant == "base_xj1":
            continue
        base, corr = jacobi_flows.red_green_decomposition(coeffs, variant, x0, params)
        activity[variant] = {
            "base": base,
            "correction": corr,
            "active_components": [
                name
                for name, value in zip(("x", "y", "q", "p", "kappa"), corr)
                if abs(value) > 1e-12
            ],
        }

    report = {"variants": variants, "deltas": deltas, "corrections": activity}
    if args.paper_verbatim:
        report["paper_verbatim"] = jacobi_flows.paper_discrepancy_report(
            coeffs, x0, params
        )
    if args.csv:
        _write_compare_csv(args.csv, trajectories)
    _print_json(report)
    return EXIT_OK


def _write_compare_csv(path, trajectories) -> None:
    import csv as _csv

    names = list(trajectories)
    rows = min(len(t) for t, _ in trajectories.values())
    with open(path, "w", newline="") as handle:
        writer = _csv.writer(handle)
        header = ["t"]
        for name in names:
            dim = trajectories[name][1].shape[1]
            header += ["%s_%s" % (name, c) for c in ("x", "y", "q", "p", "kappa")[:dim]]
        writer.writerow(header)
        times = trajectories[names[0]][0]
        for i in range(rows):
            row = ["%.17g" % times[i]]
            for name in names:
                row += ["%.17g" % v for v in trajectories[name][1][i]]
            writer.writerow(row)


def cmd_riccati(args) -> int:
    config = _load_config(args)
    params = _parse_params(args.param)
    coeffs = _coeffs_from_args(args, config)
    if args.paper_verbatim:
        explicit = any(
            _pick(args, config, key) is not None for key in ("a", "b", "c", "m", "n")
        ) or _pick(args, config, "h-kappa") is not None
        _print_json(
            jacobi_flows.paper_discrepancy_report(coeffs if explicit else None, None, params)
        )
        return EXIT_OK
    x0 = _parse_values(_pick(args, config, "x0", "0,1"))
    t_end = float(_pick(args, config, "t-end", 1.0))
    dt = float(_pick(args, config, "dt", 1e-2))
    times, states = jacobi_flows.integrate_riccati(coeffs, x0, t_end, dt)
    if args.csv:
        import csv as _csv

        with open(args.csv, "w", newline="") as handle:
            writer = _csv.writer(handle)
            writer.writerow(["t", "x", "y"])
            for i, t in enumerate(times):
                writer.writerow(["%.17g" % t, "%.17g" % states[i, 0], "%.17g" % states[i, 1]])
    _print_json(
        {
            "rows": len(times),
            "final": states[-1],
            "min_y": float(states[:, 1].min()),
        }
    )
    return EXIT_OK


def cmd_phi_solve(args) -> int:
    config = _load_config(args)
    params = _parse_params(args.param)
    free = _parse_values(_require(args, config, "free"))
    at = _parse_values(_require(args, config, "at"))
    try:
        sol = almost_contact.solve_phi(tuple(free), params, at)
    except almost_contact.PhiSolveError as exc:
        _print_json({"error": str(exc), "best_residual": exc.best_residual})
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
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(_jsonify(doc), indent=2))
    _print_json(doc)
    return EXIT_OK if sol.passes() else EXIT_NUMERICAL


def cmd_invariant_suite(args) -> int:
    seed = _seed(args)
    rng = np.random.default_rng(seed)
    params = manifolds.ModelParameters()
    checks: list[tuple[str, bool, float]] = []

    def push(name, value, tol):
        checks.append((name, bool(value <= tol), float(value)))

    for name in manifolds.CATALOG:
        spec = manifolds.builtin(name, params)
        worst_omega, worst_theta = 0.0, 0.0
        for pt in spec.default_probes(seed=seed):
            th, om, values = spec.at(pt)
            R = structures.reeb_from(th, om, values)[0]
            worst_omega = max(worst_omega, float(np.abs(R @ om).max()))
            worst_theta = max(worst_theta, abs(float(R @ th) - 1.0))
        push("reeb_contraction[%s]" % spec.name, worst_omega, 1e-11)
        push("reeb_normalization[%s]" % spec.name, worst_theta, 1e-11)

    spec = manifolds.builtin("xjt_gtacos", params)
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
        dH = H.gradient(pt.array, check_domain=False)
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

    from .forms import exterior_derivative

    worst = 0.0
    for pt in spec.default_probes(count=16, seed=seed):
        dd = exterior_derivative(exterior_derivative(spec.theta)).at(pt)
        worst = max(worst, dd.max_norm())
    push("d_squared_zero[xjt_gtacos.theta]", worst, 1e-10)

    contact = manifolds.builtin("xjt_contact", params)
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
        p.add_argument("-P", "--param", action="append", metavar="NAME=VALUE",
                       help="model parameter override (k, nu, delta, alpha, beta, gamma)")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="seed for randomized checks (default 42; COSYM_SEED overrides)")
        if config:
            p.add_argument("--config", help="JSON config file; flags take precedence")

    p = sub.add_parser("list-manifolds", help="list the built-in structure catalog")
    common(p, config=False)
    p.add_argument("--emit", metavar="DIR", help="write each entry as a JSON document")
    p.set_defaults(fn=cmd_list_manifolds)

    p = sub.add_parser("check-structure", help="classification report")
    common(p)
    p.add_argument("--builtin")
    p.add_argument("--structure-json")
    p.add_argument("--probes", type=int, default=64)
    p.add_argument("--probe-point", help="comma-separated coordinates")
    p.set_defaults(fn=cmd_check_structure)

    p = sub.add_parser("reeb", help="Reeb vector at a point")
    common(p)
    p.add_argument("--builtin")
    p.add_argument("--structure-json")
    p.add_argument("--at", required=True)
    p.set_defaults(fn=cmd_reeb)

    p = sub.add_parser("field", help="Hamiltonian and gradient fields at a point")
    common(p)
    p.add_argument("--builtin")
    p.add_argument("--structure-json")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--at", required=True)
    p.set_defaults(fn=cmd_field)

    p = sub.add_parser("bracket", help="Poisson or contact bracket of two fields")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=argparse.SUPPRESS)
    p.add_argument("--kind", choices=("poisson", "jacobi"), default="poisson")
    p.add_argument("--n", type=int, default=1, help="number of (q, p) pairs")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--at", required=True)
    p.set_defaults(fn=cmd_bracket)

    p = sub.add_parser("integrate", help="flow a Hamiltonian and write trajectory files")
    common(p)
    p.add_argument("--builtin")
    p.add_argument("--structure-json")
    p.add_argument("--hamiltonian")
    p.add_argument("--x0")
    p.add_argument("--t-end", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--method", choices=("rk4", "adaptive-rk45"))
    p.add_argument("--rtol", type=float)
    p.add_argument("--atol", type=float)
    p.add_argument("--csv")
    p.add_argument("--json-out")
    p.add_argument("--sweep", help="JSON file with a list of initial points")
    p.set_defaults(fn=cmd_integrate)

    p = sub.add_parser("compare", help="side-by-side variant trajectories")
    common(p)
    p.add_argument("--variants", default="gtacos,base_xj1")
    for flag in ("--a", "--b", "--c", "--m", "--n"):
        p.add_argument(flag, type=float)
    p.add_argument("--h-kappa")
    p.add_argument("--x0")
    p.add_argument("--t-end", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--csv")
    p.add_argument("--paper-verbatim", action="store_true",
                   help="include the printed-equation discrepancy report")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("riccati", help="integrate the half-plane Riccati flow")
    common(p)
    for flag in ("--a", "--b", "--c", "--m", "--n"):
        p.add_argument(flag, type=float)
    p.add_argument("--h-kappa")
    p.add_argument("--x0")
    p.add_argument("--t-end", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--csv")
    p.add_argument("--paper-verbatim", action="store_true")
    p.set_defaults(fn=cmd_riccati)

    p = sub.add_parser("phi-solve", help="solve the almost-contact tensor system")
    common(p)
    p.add_argument("--free", help="Phi_yq,Phi_yp,Phi_qp,Phi_pq")
    p.add_argument("--at", help="x,y,q,p,kappa")
    p.add_argument("--json-out")
    p.set_defaults(fn=cmd_phi_solve)

    p = sub.add_parser("invariant-suite", help="run the built-in invariant battery")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for randomized checks (default 42; COSYM_SEED overrides)")
    p.set_defaults(fn=cmd_invariant_suite)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process: parsing keeps
    no state between calls (each call fills a fresh namespace, and the
    seed's environment override is read by :func:`_seed` at run time)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
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
