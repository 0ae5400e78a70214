"""Hamiltonian, gradient and evolution vector fields; brackets; trajectories.

The generic linear-solve path — flat(X_H) = dH - (R(H) + H) theta — is the
single source of truth.  Closed coordinate formulas are fast paths that the
test suite validates against it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .charts import Chart, DomainError, ScalarField
from .expressions import EvalError
from .structures import (
    CanonicalThetaSpec,
    StructureError,
    StructureSpec,
    darboux_pairs,
    reeb_from,
)


@dataclass(frozen=True)
class HamiltonianFieldCoefficients:
    """Coefficients (A_i, B_i, C) of X_H = A_i d/dq^i + B_i d/dp_i + C d/dkappa."""

    A: np.ndarray
    B: np.ndarray
    C: float

    def vector(self) -> np.ndarray:
        return np.concatenate([self.A, self.B, [self.C]])


# --------------------------------------------------------------------------
# Vector fields attached to a Hamiltonian
# --------------------------------------------------------------------------


def _field_from(th, factors, R, dH, h) -> np.ndarray:
    """X_H from flat(X_H) = dH - (R(H) + H) theta and the factors of F."""
    u, s, vt = factors
    return (dH - (R @ dH + h) * th) @ u / s @ vt


def hamiltonian_field_generic(
    spec: StructureSpec, H: ScalarField, at, check_domain: bool = True
) -> np.ndarray:
    """Solve flat(X) = dH - (R(H) + H) theta at a point.

    The order is theta, Omega, the flat solve, dH, then H, as over the
    stored rows of a trajectory, so a degenerate structure is reported
    before a failing H.  The SVD factors of the flat matrix that give R
    solve every field, flat(X) = b being X = b @ u / s @ vt."""
    th, om, values = spec.at(at, check_domain)
    R, factors = reeb_from(th, om, values)
    h, dH = H.at(values, check_domain=False)
    return _field_from(th, factors, R, dH, h)


def gradient_field(
    spec: StructureSpec, H: ScalarField, at, check_domain: bool = True
) -> np.ndarray:
    """Solve flat(grad H) = dH at a point."""
    th, om, values = spec.at(at, check_domain)
    _, (u, s, vt) = reeb_from(th, om, values)
    return H.gradient(values, check_domain=False) @ u / s @ vt


def evolution_field(
    spec: StructureSpec, H: ScalarField, at, check_domain: bool = True
) -> np.ndarray:
    """Cosymplectic evolution field: grad H - R(H) R + R.

    Requires the structure to classify as cosymplectic.
    """
    if not spec.classification().cos:
        raise StructureError(
            "evolution field needs a cosymplectic structure; %r is not" % spec.name
        )
    th, om, values = spec.at(at, check_domain)
    R, (u, s, vt) = reeb_from(th, om, values)
    dH = H.gradient(values, check_domain=False)
    return dH @ u / s @ vt - (R @ dH) * R + R


def hamiltonian_field_closed(
    theta_spec: CanonicalThetaSpec, H: ScalarField, at, check_domain: bool = True
) -> HamiltonianFieldCoefficients:
    """Closed-form coefficients over the canonical constant theta and the
    Darboux two-form:

        A_i = dH/dp_i - b_i R(H)
        B_i = -dH/dq^i + a_i R(H)
        C   = (1/c) (-a_i dH/dp_i + b_i dH/dq^i - H)
    """
    from .structures import darboux_chart

    n = theta_spec.n
    chart = H.chart
    if chart.coordinates != darboux_chart(n).coordinates:
        raise ValueError(
            "closed form needs the (q^i..., p_i..., kappa) chart layout, got %s"
            % (chart.coordinates,)
        )
    values = chart.values(at, check_domain)
    dH = H.gradient(values, check_domain=False)
    Hq, Hp, Hk = dH[:n], dH[n : 2 * n], dH[2 * n]
    a = np.asarray(theta_spec.a)
    b = np.asarray(theta_spec.b)
    RH = Hk / theta_spec.c
    A = Hp - b * RH
    B = -Hq + a * RH
    C = (-(a @ Hp) + b @ Hq - H.value(values, check_domain=False)) / theta_spec.c
    return HamiltonianFieldCoefficients(A=A, B=B, C=C)


def tacs_field(
    epsilon: float, H: ScalarField, at, check_domain: bool = True
) -> np.ndarray:
    """Corrected transitive-almost-contact field for theta = dkappa + eps p_i dq^i.

    This is the canonical closed form with a_i = eps p_i (evaluated at the
    point), b_i = 0, c = 1; it satisfies X_H ⌟ theta = -H.
    """
    chart = H.chart
    pairs, kappa = darboux_pairs(chart)
    n = len(pairs)
    values = chart.values(at, check_domain)
    a = tuple(epsilon * values[pi] for _, pi in pairs)
    spec = CanonicalThetaSpec(a=a, b=(0.0,) * n, c=1.0)
    return hamiltonian_field_closed(spec, H, values, check_domain=False).vector()


def tacs_convention_comparison(epsilon: float, n: int = 1) -> dict:
    """Coordinate Hamiltonian fields of this package versus the uncorrected
    variants from the transitive-almost-contact literature.

    Returns the Darboux chart and ``report``, which maps a point to, per
    coordinate generator H, the corrected field ``tacs_field(epsilon, H)``,
    the uncorrected one and their max-norm distance.  The uncorrected field
    adds (1 + epsilon) H in the kappa slot, so it satisfies X ⌟ theta =
    epsilon H instead of -H; the two coincide at epsilon = -1.  Exposed only
    as a comparison; the corrected convention X_f ⌟ theta = -f is what every
    solver in this package uses.
    """
    from .structures import darboux_chart

    chart = darboux_chart(n)
    pairs, kappa = darboux_pairs(chart)
    fields = {}
    for i, (qi, pi) in enumerate(pairs):
        fields["X_q%d" % (i + 1)] = ScalarField.parse(chart, chart.coordinates[qi])
        fields["X_p%d" % (i + 1)] = ScalarField.parse(chart, chart.coordinates[pi])
    fields["X_kappa"] = ScalarField.parse(chart, "kappa")

    def report(values) -> dict:
        values = chart.values(values)
        out = {}
        for key, H in fields.items():
            corrected = tacs_field(epsilon, H, values, check_domain=False)
            uncorrected = corrected.copy()
            uncorrected[kappa] += (1.0 + epsilon) * H.value(values, check_domain=False)
            out[key] = {
                "corrected": corrected.tolist(),
                "uncorrected": uncorrected.tolist(),
                "max_delta": float(np.abs(corrected - uncorrected).max()),
            }
        return out

    return {"chart": chart, "report": report}


# --------------------------------------------------------------------------
# Brackets
# --------------------------------------------------------------------------


def poisson_bracket(f: ScalarField, g: ScalarField, at, chart: Chart | None = None) -> float:
    """{f, g} = sum_i df/dq^i dg/dp_i - dg/dq^i df/dp_i on a Darboux chart."""
    chart = chart or f.chart
    pairs, _ = darboux_pairs(chart)
    values = chart.values(at)
    df = f.gradient(values, check_domain=False)
    dg = g.gradient(values, check_domain=False)
    return float(sum(df[q] * dg[p] - dg[q] * df[p] for q, p in pairs))


def euler_part(f: ScalarField) -> ScalarField:
    """Euler operator f_e = f - p_i df/dp_i on a Darboux chart."""
    pairs, _ = darboux_pairs(f.chart)
    out = f
    for _, pi in pairs:
        p_coord = ScalarField.parse(f.chart, f.chart.coordinates[pi])
        out = out - p_coord * f.partial(f.chart.coordinates[pi])
    return out


def jacobi_bracket(f: ScalarField, g: ScalarField, at) -> float:
    """Contact-chart bracket {f,g}_P + f_e dg/dkappa - g_e df/dkappa."""
    chart = f.chart
    _, kappa = darboux_pairs(chart)
    values = chart.values(at)
    kname = chart.coordinates[kappa]
    pb = poisson_bracket(f, g, values, chart)
    fe = euler_part(f).value(values, check_domain=False)
    ge = euler_part(g).value(values, check_domain=False)
    fk = f.partial(kname).value(values, check_domain=False)
    gk = g.partial(kname).value(values, check_domain=False)
    return pb + fe * gk - ge * fk


def jacobi_bracket_generic(
    spec: StructureSpec, f: ScalarField, g: ScalarField, at
) -> float:
    """Coordinate-free contact bracket dEta(X_f, X_g) + f R(g) - g R(f).

    Works on any contact structure; agrees with :func:`jacobi_bracket` in
    Darboux coordinates and is the reference path for structures whose
    printed bracket formulas are suspect.
    """
    # One evaluation of theta and Omega and one factorisation serve X_f, X_g
    # and R.  The order is theta, Omega, the flat solve, then f's dH and H
    # before g's, so errors are those of two hamiltonian_field_generic calls
    # in turn.
    th, om, values = spec.at(at)
    R, factors = reeb_from(th, om, values)
    fv, df = f.at(values, check_domain=False)
    gv, dg = g.at(values, check_domain=False)
    Xf = _field_from(th, factors, R, df, fv)
    Xg = _field_from(th, factors, R, dg, gv)
    return float(Xf @ om @ Xg + fv * (R @ dg) - gv * (R @ df))


# --------------------------------------------------------------------------
# Trajectories
# --------------------------------------------------------------------------


@dataclass
class Trajectory:
    chart: Chart
    times: np.ndarray
    states: np.ndarray
    hamiltonian_values: np.ndarray
    dissipation_residuals: np.ndarray
    escaped: bool = False
    diagnostic: str = ""
    metadata: dict = dc_field(default_factory=dict)

    @property
    def max_dissipation_residual(self) -> float:
        interior = self.dissipation_residuals[1:-1]
        if interior.size == 0:
            return 0.0
        return float(np.max(interior))

    def energy_drift(self) -> float:
        return float(np.max(np.abs(self.hamiltonian_values - self.hamiltonian_values[0])))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t", *self.chart.coordinates, "H", "dissipation_residual"])
            for i, t in enumerate(self.times):
                writer.writerow(
                    [_fmt17(t)]
                    + [_fmt17(v) for v in self.states[i]]
                    + [_fmt17(self.hamiltonian_values[i]), _fmt17(self.dissipation_residuals[i])]
                )

    def to_json(self, path, **metadata) -> None:
        doc = {
            "chart": self.chart.to_json(),
            "times": [float(t) for t in self.times],
            "states": [[float(v) for v in row] for row in self.states],
            "hamiltonian_values": [float(v) for v in self.hamiltonian_values],
            "dissipation_residuals": [float(v) for v in self.dissipation_residuals],
            "escaped": self.escaped,
            "diagnostic": self.diagnostic,
            "metadata": {**self.metadata, **metadata},
        }
        Path(path).write_text(json.dumps(doc, indent=2))


def _fmt17(x: float) -> str:
    return "%.17g" % x


def _guard_events(chart: Chart):
    events = []
    for g in chart.guards:
        i = chart.index(g.coordinate)

        def ev(t, y, _i=i, _g=g):
            return (y[_i] - _g.bound) * (-1.0 if _g.upper else 1.0)

        ev.terminal = True
        ev.direction = -1.0
        events.append(ev)
    return events


class _StageEscape(Exception):
    """The right-hand side failed at an out-of-domain stage; args[0] is the
    stage time."""


def _stage_rhs(rhs: Callable[[np.ndarray], np.ndarray], chart: Chart):
    """rhs as f(t, y).  An expression, domain or structure error at an
    out-of-domain stage (say, a stage landing exactly on a guard surface) is
    a domain escape at time t; at an in-domain stage it is the caller's."""

    def fun(t, y):
        try:
            return rhs(y)
        except (EvalError, DomainError, StructureError):
            if chart.contains(y):
                raise
            raise _StageEscape(t) from None

    return fun


def _step(
    rhs: Callable[[np.ndarray], np.ndarray],
    chart: Chart,
    x0,
    t_end: float,
    dt: float,
    method: str,
    rtol: float,
    atol: float,
) -> tuple[np.ndarray, np.ndarray, bool, str]:
    """Flow x' = rhs(x) from x0, sampled on the uniform dt grid up to t_end.

    Returns (times, states, escaped, diagnostic).  Stored states are
    guard-checked; a domain escape truncates the samples at the last
    in-domain row and sets ``escaped`` with a diagnostic instead of raising.
    So does a right-hand side that fails at an out-of-domain stage; RK45
    then steps again up to the last grid time before that stage.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if method not in ("rk4", "adaptive-rk45"):
        raise ValueError("unknown method %r (use rk4 or adaptive-rk45)" % method)
    x0 = chart.point(x0).array

    n_steps = int(round(t_end / dt))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    if n_steps == 0:
        return times, x0[None, :], False, ""

    escaped = False
    diagnostic = ""
    fun = _stage_rhs(rhs, chart)
    if method == "rk4":
        states = [x0]
        y = x0.copy()
        for i in range(n_steps):
            t, h = times[i], times[i + 1] - times[i]
            try:
                k1 = fun(t, y)
                k2 = fun(t + 0.5 * h, y + 0.5 * h * k1)
                k3 = fun(t + 0.5 * h, y + 0.5 * h * k2)
                k4 = fun(t + h, y + h * k3)
            except _StageEscape:
                escaped = True
                diagnostic = "domain escape at t=%g" % times[i + 1]
                break
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not chart.contains(y):
                escaped = True
                diagnostic = "domain escape at t=%g" % times[i + 1]
                break
            states.append(y.copy())
    else:
        t_eval = times
        while True:
            try:
                sol = solve_ivp(
                    fun,
                    (0.0, float(t_eval[-1])),
                    x0,
                    method="RK45",
                    t_eval=t_eval,
                    rtol=rtol,
                    atol=atol,
                    events=_guard_events(chart),
                )
                break
            except _StageEscape as exc:
                escaped = True
                diagnostic = "domain escape near t=%g" % exc.args[0]
                t_eval = t_eval[t_eval < exc.args[0]]
        if sol.status == 1:
            escaped = True
            hits = [te[0] for te in sol.t_events if len(te)]
            diagnostic = (
                "domain escape near t=%g" % min(hits) if hits else "terminated early"
            )
        elif sol.status != 0:
            escaped = True
            diagnostic = sol.message
        states = []
        for row in sol.y.T:
            if not chart.contains(row):
                escaped = True
                diagnostic = diagnostic or "domain escape on recorded state"
                break
            states.append(row)
        states = states or [x0]
    states = np.array(states)
    return times[: len(states)], states, escaped, diagnostic


def integrate(
    spec: StructureSpec,
    H: ScalarField,
    x0,
    t_end: float,
    dt: float,
    method: str = "adaptive-rk45",
    rtol: float = 1e-9,
    atol: float = 1e-9,
) -> Trajectory:
    """Flow x' = X_H(x) from the point x0 sampled on a uniform dt grid.

    Recorded states are guard-checked; a mid-flow domain escape truncates the
    trajectory and sets ``escaped`` with a diagnostic instead of raising.
    """
    spec.kernel()
    H.kernel()
    times, states, escaped, diagnostic = _step(
        lambda values: hamiltonian_field_generic(spec, H, values, check_domain=False),
        spec.chart, x0, t_end, dt, method, rtol, atol,
    )
    h_values, rh_values = _dissipation_rows(spec, H, states)
    residuals = _dissipation_residuals(times, h_values, rh_values)
    return Trajectory(
        chart=spec.chart,
        times=times,
        states=states,
        hamiltonian_values=h_values,
        dissipation_residuals=residuals,
        escaped=escaped,
        diagnostic=diagnostic,
        metadata={"method": method, "dt": dt, "rtol": rtol, "atol": atol},
    )


def _dissipation_rows(spec: StructureSpec, H: ScalarField, states: np.ndarray):
    """H and R(H) at every stored row, in the right-hand side's order
    (theta, Omega, the flat solve, dH, then H), so that the first failing
    row raises what the right-hand side raises there."""
    R = reeb_from(*spec.rows(states), states)[0]
    h_values, dH = H.rows(states)
    return h_values, np.einsum("ij,ij->i", R, dH)


def _dissipation_residuals(times, h_values, rh_values) -> np.ndarray:
    """|dH/dt + H R(H)| with centered differences on the stored samples.

    Endpoints use one-sided differences; summaries only report the interior.
    """
    m = len(times)
    if m < 2:
        return np.zeros(m)
    hdot = np.empty(m)
    hdot[0] = (h_values[1] - h_values[0]) / (times[1] - times[0])
    hdot[-1] = (h_values[-1] - h_values[-2]) / (times[-1] - times[-2])
    hdot[1:-1] = (h_values[2:] - h_values[:-2]) / (times[2:] - times[:-2])
    return np.abs(hdot + h_values * rh_values)
