"""Hamiltonian, gradient and evolution vector fields; brackets; trajectories.

The generic linear-solve path — flat(X_H) = dH - (R(H) + H) theta — is the
single source of truth.  Closed coordinate formulas are fast paths that the
test suite validates against it.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable

import numpy as np

from .charts import Chart, ChartMismatchError, DomainError, ScalarField
from .expressions import EvalError
from .structures import (
    CanonicalThetaSpec,
    StructureError,
    StructureSpec,
    _solve,
    darboux_chart,
    darboux_pairs,
    reeb_from,
    reeb_rows,
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


def _field_from(th, solver, R, dH, h) -> np.ndarray:
    """X_H from flat(X_H) = dH - (R(H) + H) theta and the solver of F."""
    return _solve(solver, dH - (R @ dH + h) * th)


def _same_chart(spec: StructureSpec, H: ScalarField) -> None:
    if H.chart.coordinates != spec.chart.coordinates:
        raise ChartMismatchError(
            "field on chart %r used with chart %r" % (H.chart.name, spec.chart.name)
        )


def hamiltonian_field_generic(
    spec: StructureSpec, H: ScalarField, at, check_domain: bool = True
) -> np.ndarray:
    """Solve flat(X) = dH - (R(H) + H) theta at a point.

    The order is theta, Omega, the flat solve, dH, then H, as over the
    stored rows of a trajectory, so a degenerate structure is reported
    before a failing H.  The solver of the flat matrix F that gives R
    (:func:`structures.reeb_from`: LU solves where the rank rule is
    certified, else an SVD) solves every field.  When both keep a kernel,
    as inside :func:`integrate`, the point is one joint read of the two
    kernels, one finiteness test and one array whose slices are theta,
    Omega and dH.  Otherwise, and where that read raises or is not finite,
    theta, Omega and the solve come from ``spec``'s single-point reader and
    H and dH from H's, which walk the trees, so the errors are the walk's;
    a repeat at their kept last point walks no tree and certifies nothing
    again.
    An H on another chart's coordinates raises ChartMismatchError.
    ``check_domain=False`` skips that check and the guards but not the
    length check: :func:`integrate` checks the charts once, and its
    Runge-Kutta stages may lie past a guard and are evaluated there."""
    if check_domain:
        _same_chart(spec, H)
        values = spec.chart.values(at)
    else:
        values = spec.chart._coordinates(at)
    if spec._kernel is not None and H._kernel is not None:
        out = spec._kernel.finite_at(values.tolist(), H._kernel)
        if out is not None:
            dim = len(values)
            m = dim + dim * dim  # theta, Omega row by row, then H and dH
            a = np.array(out, dtype=float)
            th = a[:dim]
            R, solver = reeb_from(th, a[dim:m].reshape(dim, dim), values)
            return _field_from(th, solver, R, a[m + 1:], out[m])
    th, _, R, solver = spec._solved(values)
    h, dH = H._at(values)
    return _field_from(th, solver, R, dH, h)


def gradient_field(spec: StructureSpec, H: ScalarField, at) -> np.ndarray:
    """Solve flat(grad H) = dH at a point."""
    point = spec.chart.point(at)
    return _solve(spec._solved(point.array)[3], H.gradient(point))


def evolution_field(spec: StructureSpec, H: ScalarField, at) -> np.ndarray:
    """Cosymplectic evolution field: grad H - R(H) R + R.

    Requires the structure to classify as cosymplectic.
    """
    if not spec.classification().cos:
        raise StructureError(
            "evolution field needs a cosymplectic structure; %r is not" % spec.name
        )
    point = spec.chart.point(at)
    _, _, R, solver = spec._solved(point.array)
    dH = H.gradient(point)
    return _solve(solver, dH) - (R @ dH) * R + R


def hamiltonian_field_closed(
    theta_spec: CanonicalThetaSpec, H: ScalarField, at
) -> HamiltonianFieldCoefficients:
    """Closed-form coefficients over the canonical constant theta and the
    Darboux two-form:

        A_i = dH/dp_i - b_i R(H)
        B_i = -dH/dq^i + a_i R(H)
        C   = (1/c) (-a_i dH/dp_i + b_i dH/dq^i - H)
    """
    n = theta_spec.n
    if H.chart.coordinates != darboux_chart(n).coordinates:
        raise ValueError(
            "closed form needs the (q^i..., p_i..., kappa) chart layout, got %s"
            % (H.chart.coordinates,)
        )
    h, dH = H.at(at)
    Hq, Hp, Hk = dH[:n], dH[n : 2 * n], dH[2 * n]
    a = np.asarray(theta_spec.a)
    b = np.asarray(theta_spec.b)
    RH = Hk / theta_spec.c
    A = Hp - b * RH
    B = -Hq + a * RH
    C = (-(a @ Hp) + b @ Hq - h) / theta_spec.c
    return HamiltonianFieldCoefficients(A=A, B=B, C=C)


def tacs_field(epsilon: float, H: ScalarField, at) -> np.ndarray:
    """Corrected transitive-almost-contact field for theta = dkappa + eps p_i dq^i.

    This is the canonical closed form with a_i = eps p_i (evaluated at the
    point), b_i = 0, c = 1; it satisfies X_H ⌟ theta = -H.
    """
    pairs, _ = darboux_pairs(H.chart)
    point = H.chart.point(at)
    a = tuple(epsilon * point.values[pi] for _, pi in pairs)
    spec = CanonicalThetaSpec(a=a, b=(0.0,) * len(pairs), c=1.0)
    return hamiltonian_field_closed(spec, H, point).vector()


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
    chart = darboux_chart(n)
    pairs, kappa = darboux_pairs(chart)
    fields = {}
    for i, (qi, pi) in enumerate(pairs):
        fields["X_q%d" % (i + 1)] = ScalarField.parse(chart, chart.coordinates[qi])
        fields["X_p%d" % (i + 1)] = ScalarField.parse(chart, chart.coordinates[pi])
    fields["X_kappa"] = ScalarField.parse(chart, "kappa")

    def report(values) -> dict:
        point = chart.point(values)
        out = {}
        for key, H in fields.items():
            corrected = tacs_field(epsilon, H, point)
            uncorrected = corrected.copy()
            uncorrected[kappa] += (1.0 + epsilon) * H.value(point)
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


def _finite(result, point, what: str, *args) -> float:
    """``result`` as a float; EvalError naming ``what % args`` and the point
    if it is not finite (formatted only then)."""
    result = float(result)
    if not math.isfinite(result):
        raise EvalError(
            "%s is not finite at %s: %r" % (what % args, point.array.tolist(), result)
        )
    return result


def _poisson_sum(pairs, df: list, dg: list) -> float:
    """sum_i df/dq^i dg/dp_i - dg/dq^i df/dp_i, in pair order.  Python
    floats round as numpy's do, and overflow to inf without a warning."""
    return sum(df[q] * dg[p] - dg[q] * df[p] for q, p in pairs)


def poisson_bracket(f: ScalarField, g: ScalarField, at) -> float:
    """{f, g} = sum_i df/dq^i dg/dp_i - dg/dq^i df/dp_i on a Darboux chart."""
    pairs, _ = darboux_pairs(f.chart)
    point = f.chart.point(at)
    df = f.gradient(point).tolist()
    dg = g.gradient(point).tolist()
    return _finite(_poisson_sum(pairs, df, dg), point, "Poisson bracket")


def euler_part(f: ScalarField) -> ScalarField:
    """Euler operator f_e = f - p_i df/dp_i on a Darboux chart, as a field."""
    pairs, _ = darboux_pairs(f.chart)
    out = f
    for _, pi in pairs:
        p_coord = ScalarField.parse(f.chart, f.chart.coordinates[pi])
        out = out - p_coord * f.partial(f.chart.coordinates[pi])
    return out


def jacobi_bracket(f: ScalarField, g: ScalarField, at) -> float:
    """Contact-chart bracket {f,g}_P + f_e dg/dkappa - g_e df/dkappa.

    One value and one gradient per field serve every term: f_e =
    f - p_i df/dp_i is summed in pair order from them, which is the value of
    :func:`euler_part` but for the sign of a zero, and the bracket is the
    same bit for bit.  The order is f's gradient and value, then g's, as in
    :func:`jacobi_bracket_generic`.
    """
    pairs, kappa = darboux_pairs(f.chart)
    point = f.chart.point(at)
    fe, df = f.at(point)
    ge, dg = g.at(point)
    x, df, dg = point.values, df.tolist(), dg.tolist()
    for _, p in pairs:
        fe = fe - x[p] * df[p]
        ge = ge - x[p] * dg[p]
    fe = _finite(fe, point, "Euler part of %r", f)
    ge = _finite(ge, point, "Euler part of %r", g)
    bracket = _poisson_sum(pairs, df, dg) + fe * dg[kappa] - ge * df[kappa]
    return _finite(bracket, point, "Jacobi bracket")


def jacobi_bracket_generic(
    spec: StructureSpec, f: ScalarField, g: ScalarField, at
) -> float:
    """Coordinate-free contact bracket dEta(X_f, X_g) + f R(g) - g R(f).

    Works on any contact structure; agrees with :func:`jacobi_bracket` in
    Darboux coordinates and is the reference path for structures whose
    printed bracket formulas are suspect.
    """
    # One evaluation of theta and Omega and one certificate serve X_f, X_g
    # and R.  The order is theta, Omega, the flat solve, then f's dH and H
    # before g's, so errors are those of two hamiltonian_field_generic calls
    # in turn.
    point = spec.chart.point(at)
    th, om, R, solver = spec._solved(point.array)
    fv, df = f.at(point)
    gv, dg = g.at(point)
    Xf = _field_from(th, solver, R, df, fv)
    Xg = _field_from(th, solver, R, dg, gv)
    return float(Xf @ om @ Xg + fv * (R @ dg) - gv * (R @ df))


# --------------------------------------------------------------------------
# Trajectories
# --------------------------------------------------------------------------


@dataclass
class Flow:
    """What :func:`_step` records: the grid ``times`` and guard-checked
    ``states`` on ``chart``, cut at the last in-domain row when the flow
    ``escaped``, with a ``diagnostic`` saying why ("" when it did not)."""

    chart: Chart
    times: np.ndarray
    states: np.ndarray
    escaped: bool
    diagnostic: str


@dataclass
class Trajectory(Flow):
    """A :class:`Flow` of X_H with :func:`integrate`'s post-pass: H and the
    dissipation residual at every row, and the solver settings."""

    hamiltonian_values: np.ndarray
    dissipation_residuals: np.ndarray
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
        write_csv(
            path,
            ["t", *self.chart.coordinates, "H", "dissipation_residual"],
            np.column_stack(
                [self.times, self.states, self.hamiltonian_values, self.dissipation_residuals]
            ),
        )

    def to_json(self, path, **metadata) -> None:
        """Write the flow as strict JSON.  A number that is not finite raises
        EvalError naming its key, and no file is written."""
        text = json_text({
            "chart": self.chart.to_json(),
            "times": self.times,
            "states": self.states,
            "hamiltonian_values": self.hamiltonian_values,
            "dissipation_residuals": self.dissipation_residuals,
            "escaped": self.escaped,
            "diagnostic": self.diagnostic,
            "metadata": {**self.metadata, **metadata},
        })
        Path(path).write_text(text)


def _jsonify(obj, key=None):
    """``obj`` as JSON values, numpy floats as Python floats.  A number that
    is not finite, which strict JSON cannot hold, raises EvalError naming
    the key it sits under."""
    if isinstance(obj, dict):
        return {k: _jsonify(v, k) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v, key) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v, key) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        if not math.isfinite(value):
            raise EvalError("%s is not finite: %r" % (json.dumps(key), value))
        return value
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def json_text(doc) -> str:
    """``doc`` as indented strict JSON (see :func:`_jsonify`)."""
    return json.dumps(_jsonify(doc), indent=2)


def write_csv(path, header, rows) -> None:
    """Write a header line and rows of floats, each with 17 significant
    digits so that the file reads back bit for bit."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(["%.17g" % v for v in row] for row in rows)


MAX_GRID_STEPS = 1_000_000

# The Dormand-Prince 5(4) pair (Dormand and Prince, J. Comput. Appl. Math. 6,
# 1980) with Shampine's quartic interpolant (Math. Comp. 46, 1986), written
# as scipy 1.17.1's RK45 writes it: the stages after the first as (c, row of
# A), then B, E and P.
_STAGES = [(c, np.array(a)) for c, a in [
    (1 / 5, [1 / 5]),
    (3 / 10, [3 / 40, 9 / 40]),
    (4 / 5, [44 / 45, -56 / 15, 32 / 9]),
    (8 / 9, [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    (1, [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
]]
_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_ROOT_TOL = 4 * np.finfo(float).eps  # brentq's xtol and rtol for a guard crossing


def _rms(x: np.ndarray) -> float:
    """RMS norm: np.linalg.norm(x) is sqrt(x.dot(x))."""
    return math.sqrt(x.dot(x)) / len(x) ** 0.5


def _initial_step(fun, y, f, t_bound: float, rtol: float, atol: float) -> float:
    """The first step from t = 0 (Hairer, Norsett and Wanner, Solving ODEs I,
    Sec. II.4), as scipy's ``select_initial_step`` takes it for RK45."""
    if t_bound == 0.0:
        return 0.0
    scale = atol + np.abs(y) * rtol
    d0 = _rms(y / scale)
    d1 = _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    d2 = _rms((fun(h0, y + h0 * f) - f) / scale)
    # scipy divides a float64 here: at h0 = 0 (d1 = inf) that is inf, or NaN for 0/0
    d2 = d2 / h0 if h0 else (math.inf if d2 > 0 else math.nan)
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, t_bound)


def _dense(step, s):
    """A step's quartic interpolant, as scipy's RK45 evaluates it, at a time
    or an array of times (one column per time).  ``step`` is (t_old, h,
    y_old, Q), with Q None where no step was taken: the constant y_old."""
    t_old, h, y_old, Q = step
    if Q is None:
        return y_old if np.ndim(s) == 0 else np.repeat(y_old[:, None], len(s), axis=1)
    x = (s - t_old) / h
    powers = np.array([x, x, x, x]).cumprod(axis=0)  # x, x^2, x^3, x^4
    return h * np.dot(Q, powers) + (y_old if np.ndim(x) == 0 else y_old[:, None])


def _rk45(fun, y, t_eval: np.ndarray, rtol: float, atol: float, guards):
    """RK45 from y at t = 0 to t_eval[-1], sampled at the times t_eval.

    This is scipy 1.17.1's ``solve_ivp(fun, (0, t_eval[-1]), y, "RK45",
    t_eval=t_eval, rtol=rtol, atol=atol, events=...)`` with one terminal
    event per guard (index, bound, sign) that fires where (y_i - bound) *
    sign goes from >= 0 to <= 0, operation for operation, so its states
    are scipy's bit for bit: the same initial step, stages,
    RMS error norm, step controller (safety 0.9, factors 0.2 to 10,
    exponent -1/5, no growth after a rejection), interpolant, and crossing
    time from ``scipy.optimize.brentq`` at xtol = rtol = 4 eps.  Returns
    (rows, status, root): the states at the grid times reached as an
    (m, n) array, and status 0 at t_eval[-1], 1 at a guard crossing (the
    rows stop at its time ``root``) or -1 when the step fell below ten ulps
    of t (:data:`TOO_SMALL_STEP`)."""
    t, t_bound = 0.0, float(t_eval[-1])
    grid = t_eval.tolist()
    f = fun(t, y)
    h_abs = _initial_step(fun, y, f, t_bound, rtol, atol)
    K = np.empty((7, len(y)))
    g = [(y[i] - bound) * sign for i, bound, sign in guards]
    blocks, done, status, root = [], 0, None, None
    while status is None:
        step = (t, 0.0, y, None)
        if t != t_bound:  # equal only for t_bound = 0, where no step is taken
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while not h_abs < min_step:  # as scipy's test reads, NaN included
                t_new = min(t + h_abs, t_bound)
                h_abs = h = t_new - t
                K[0] = f
                for s, (c, a) in enumerate(_STAGES, start=1):
                    K[s] = fun(t + c * h, y + np.dot(K[:s].T, a) * h)
                y_new = y + h * np.dot(K[:-1].T, _B)
                f_new = K[-1] = fun(t + h, y_new)
                scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
                error_norm = _rms(np.dot(K.T, _E) * h / scale)
                if error_norm < 1:
                    factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -0.2)
                    h_abs *= min(1, factor) if rejected else factor
                    break
                h_abs *= max(0.2, 0.9 * error_norm ** -0.2)
                rejected = True
            else:
                status = -1
                break
            step = (t, h, y, K.T.dot(_P))
            t, y, f = t_new, y_new, f_new
        if t - t_bound >= 0:
            status = 0
        g_new = [(y[i] - bound) * sign for i, bound, sign in guards]
        crossed = [guard for guard, a, b in zip(guards, g, g_new) if a >= 0 and b <= 0]
        g = g_new
        if crossed:
            from scipy.optimize import brentq  # only a guard crossing needs it

            root = min(brentq(lambda s, i=i, b=b, sign=sign: (_dense(step, s)[i] - b) * sign,
                              step[0], t, xtol=_ROOT_TOL, rtol=_ROOT_TOL)
                       for i, b, sign in crossed)
            status = 1
        stop = bisect.bisect_right(grid, t if root is None else root, done)
        if stop > done:
            blocks.append(_dense(step, t_eval[done:stop]))
            done = stop
    rows = np.hstack(blocks).T if blocks else np.empty((0, len(y)))
    return rows, status, root


class _StageEscape(Exception):
    """The right-hand side failed at an out-of-domain stage; args[0] is the
    stage time."""


def _stage_rhs(rhs: Callable[[np.ndarray], np.ndarray], chart: Chart):
    """rhs as f(t, y).  An expression, domain or structure error at an
    out-of-domain stage (say, a stage landing exactly on a guard surface) is
    a domain escape at time t; at an in-domain stage it is the caller's.  A
    value that is not finite, which the stepper would not reject, counts as
    an EvalError."""

    def fun(t, y):
        try:
            dy = rhs(y)
            if not all(map(math.isfinite, dy.tolist())):  # faster than numpy at this size
                raise EvalError("right-hand side not finite at t=%g, state %s" % (t, y.tolist()))
        except (EvalError, DomainError, StructureError):
            if chart.contains(y):
                raise
            raise _StageEscape(t) from None
        return dy

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
) -> Flow:
    """Flow x' = rhs(x) from x0 on ``chart``, sampled on the uniform dt grid
    0, dt, ..., n dt with n the largest count whose n dt is at most t_end
    (to a relative 1e-12, so a t_end/dt such as 0.2/0.01 keeps its last row).

    Returns the :class:`Flow`.  Stored states are guard-checked; a domain
    escape truncates the samples at the last in-domain row and sets
    ``escaped`` with a diagnostic instead of raising.  So does a
    right-hand side that fails at an out-of-domain stage; RK45 then steps
    again up to the last grid time before that stage.

    Raises ValueError before any work when t_end/dt exceeds MAX_GRID_STEPS
    = 10**6, so a grid holds at most 10**6 + 1 rows.  The basis is memory:
    a stored row costs under 1 kB on a five-dimensional chart (its state,
    and the post-pass's theta, Omega and copies of the flat matrix for the
    rank certificate and the solve; a 66 MB peak at 10**5 rows), so the
    bound keeps a run under a gigabyte.

    RK45 is :func:`_rk45`, the package's Dormand-Prince 5(4) stepper, equal
    bit for bit to scipy 1.17.1's RK45 with a terminal event per guard: a
    guard crossed between two steps stops its rows at the crossing time,
    and a step below ten ulps of t ends the flow with scipy's message as
    the diagnostic.  It refuses, before any work, an rtol below the floor
    100 * eps (scipy raised a smaller one to it with a warning), an atol
    that is not positive (a zero coordinate would make the error scale
    zero and the first step NaN), and an infinite rtol or atol (0 * inf
    makes the error scale NaN as well).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if not (math.isfinite(t_end) and math.isfinite(dt)):
        raise ValueError("t_end and dt must be finite")
    if method not in ("rk4", "adaptive-rk45"):
        raise ValueError("unknown method %r (use rk4 or adaptive-rk45)" % method)
    if method == "adaptive-rk45":
        floor = 100 * np.finfo(float).eps
        if not rtol >= floor:
            raise ValueError("rtol must be at least 100 * eps = %.3g for adaptive-rk45, got %r"
                             % (floor, rtol))
        if not atol > 0:
            raise ValueError("`atol` must be positive.")
        if not (math.isfinite(rtol) and math.isfinite(atol)):
            raise ValueError("rtol and atol must be finite for adaptive-rk45, got %r and %r"
                             % (rtol, atol))
    steps = t_end / dt  # inf when the quotient overflows
    if steps > MAX_GRID_STEPS:
        raise ValueError("t_end/dt = %.6g asks for %.6g grid rows; t_end/dt is at most %d"
                         % (steps, steps + 1, MAX_GRID_STEPS))
    x0 = chart.point(x0).array

    n_steps = math.floor(steps * (1 + 1e-12))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    if n_steps == 0:
        return Flow(chart, times, x0[None, :], False, "")

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
        guards = [(chart.index(g.coordinate), g.bound, -1.0 if g.upper else 1.0)
                  for g in chart.guards]
        t_eval = times
        while True:
            try:
                rows, status, root = _rk45(fun, x0, t_eval, rtol, atol, guards)
                break
            except _StageEscape as exc:
                escaped = True
                diagnostic = "domain escape near t=%g" % exc.args[0]
                t_eval = t_eval[t_eval < exc.args[0]]
        if status == 1:
            escaped = True
            diagnostic = "domain escape near t=%g" % root
        elif status == -1:
            escaped = True
            diagnostic = TOO_SMALL_STEP
        inside = np.ones(len(rows), dtype=bool)  # every guard, column-wise
        for g in chart.guards:
            inside &= g.holds(rows[:, chart.index(g.coordinate)])
        kept = len(inside) if inside.all() else int(np.argmin(inside))
        if kept < len(inside):
            escaped = True
            diagnostic = diagnostic or "domain escape on recorded state"
        states = rows[:kept] if kept else [x0]
    states = np.array(states, order="C")  # the RK45 rows are Fortran-ordered
    return Flow(chart, times[: len(states)], states, escaped, diagnostic)


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

    ``method`` is "adaptive-rk45", the package's Dormand-Prince 5(4)
    stepper (bit for bit scipy 1.17.1's RK45 at ``rtol`` and ``atol``), or
    "rk4", the classic fixed-step scheme on the grid, which reads neither
    tolerance; :func:`_step` states what each refuses.
    Recorded states are guard-checked; a mid-flow domain escape truncates the
    trajectory and sets ``escaped`` with a diagnostic instead of raising.
    An H on another chart's coordinates raises ChartMismatchError first.
    """
    _same_chart(spec, H)
    spec.kernel()
    H.kernel()
    flow = _step(
        lambda values: hamiltonian_field_generic(spec, H, values, check_domain=False),
        spec.chart, x0, t_end, dt, method, rtol, atol,
    )
    h_values, rh_values = _dissipation_rows(spec, H, flow.states)
    return Trajectory(
        **vars(flow),
        hamiltonian_values=h_values,
        dissipation_residuals=_dissipation_residuals(flow.times, h_values, rh_values),
        metadata={"method": method, "dt": dt, "rtol": rtol, "atol": atol},
    )


def _dissipation_rows(spec: StructureSpec, H: ScalarField, states: np.ndarray):
    """H and R(H) at every stored row, in the right-hand side's order
    (theta, Omega, the flat solve, dH, then H), so that the first failing
    row raises what the right-hand side raises there."""
    R = reeb_rows(*spec.rows(states), states)
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
