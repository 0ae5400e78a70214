"""Flows generated by Hamiltonians linear in the group generators.

The energy function splits into independent (q, p) and (x, y) parts plus an
optional h(kappa) term.  The (x, y) block of the resulting flow is the
quadratic Riccati system on the upper half-plane; the remaining components
carry the correction terms that distinguish the extended 5-dimensional flow
from the 4-dimensional base flow.

The right-hand sides shipped here are derived through the generic
flat-equation solve (symbolic differentiation of the split energy); the
verbatim printed variants are retained only inside the discrepancy report,
which quantifies how far they deviate from the derived forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .charts import ChartPoint, ScalarField
from .dynamics import Trajectory, _step, hamiltonian_field_generic, integrate
from .expressions import Expr, Name, Num, parse
from .manifolds import CHART_METRIC_X1, CHART_XJ1, CHART_XJT, ModelParameters, builtin
from .structures import StructureSpec

VARIANTS = ("base_xj1", "gtacos", "contact")


@dataclass(frozen=True)
class LinearHamiltonianCoefficients:
    """Real coefficients (a, b, c_lin, m, n_lin) of the linear generator
    combination, plus an optional kappa-only term h(kappa).

    c_lin is named to avoid collision with the structure one-form's c
    coefficient.
    """

    a: float = 0.0
    b: float = 0.0
    c_lin: float = 0.0
    m: float = 0.0
    n_lin: float = 0.0
    h_kappa: str | Expr | None = None

    def h_expr(self) -> Expr | None:
        if self.h_kappa is None:
            return None
        expr = parse(self.h_kappa) if isinstance(self.h_kappa, str) else self.h_kappa
        extra = expr.names() - {"kappa"}
        if extra:
            raise ValueError("h_kappa may only reference kappa, got %s" % sorted(extra))
        return expr

    def to_json(self) -> dict:
        out = {
            "a": self.a,
            "b": self.b,
            "c": self.c_lin,
            "m": self.m,
            "n": self.n_lin,
        }
        if self.h_kappa is not None:
            out["h_kappa"] = (
                self.h_kappa if isinstance(self.h_kappa, str) else str(self.h_kappa)
            )
        return out


@dataclass(frozen=True)
class SplitEnergy:
    """Energy split H_pq(q, p) + H_xy(x, y) + h(kappa) on the 5-chart."""

    h_pq: ScalarField
    h_xy: ScalarField
    h_kappa: ScalarField
    total: ScalarField


def split_energy(
    coeffs: LinearHamiltonianCoefficients, params: ModelParameters
) -> SplitEnergy:
    """Symbolic split energy:

        H(q,p) = nu [ (m+c) q^2 + (c-m) p^2 + 2 n q p + 2 (a q + b p) ]
        H(x,y) = k { (1/y) [ (m+c)(x^2+y^2) - 2 (n x + c y) ] + 3c - m }
    """
    a, b, c = coeffs.a, coeffs.b, coeffs.c_lin
    m, n = coeffs.m, coeffs.n_lin
    k, nu = params.k, params.nu
    q, p, x, y = Name("q"), Name("p"), Name("x"), Name("y")

    h_pq_expr = Num(nu) * (
        Num(m + c) * q**2
        + Num(c - m) * p**2
        + Num(2.0 * n) * q * p
        + Num(2.0) * (Num(a) * q + Num(b) * p)
    )
    h_xy_expr = Num(k) * (
        (Num(m + c) * (x**2 + y**2) - Num(2.0) * (Num(n) * x + Num(c) * y)) / y
        + Num(3.0 * c - m)
    )
    h_expr = coeffs.h_expr()
    h_field = ScalarField.from_expr(CHART_XJT, h_expr if h_expr is not None else Num(0.0))
    h_pq = ScalarField.from_expr(CHART_XJT, h_pq_expr)
    h_xy = ScalarField.from_expr(CHART_XJT, h_xy_expr)
    total_expr = h_pq_expr + h_xy_expr
    if h_expr is not None:
        total_expr = total_expr + h_expr
    total = ScalarField.from_expr(CHART_XJT, total_expr)
    return SplitEnergy(h_pq=h_pq, h_xy=h_xy, h_kappa=h_field, total=total)


def energy(coeffs: LinearHamiltonianCoefficients, at, params: ModelParameters) -> float:
    """H_pq + H_xy at a point (x, y, q, p)."""
    values = CHART_XJ1.values(at)
    se = split_energy(coeffs, params)
    padded = np.append(values, 0.0)
    return se.h_pq.value(padded, check_domain=False) + se.h_xy.value(
        padded, check_domain=False
    )


# --------------------------------------------------------------------------
# Equations of motion
# --------------------------------------------------------------------------


def _variant_structure(variant: str, params: ModelParameters) -> StructureSpec:
    if variant == "gtacos":
        return builtin("xjt_gtacos", params)
    if variant == "contact":
        return builtin("xjt_contact", params)
    raise ValueError("variant must be one of %s" % (VARIANTS,))


def base_field(
    coeffs: LinearHamiltonianCoefficients, at, params: ModelParameters
) -> np.ndarray:
    """Symplectic flow on the 4-chart (x, y, q, p): solve X ⌟ omega = dH for
    omega = (k/y^2) dx^dy + 2 nu dq^dp."""
    values = CHART_XJ1.values(at)
    return _base_velocity(split_energy(coeffs, params).total, values, params)


def _base_velocity(total: ScalarField, values, params: ModelParameters) -> np.ndarray:
    """:func:`base_field` at (x, y, q, p) for a given split-energy total."""
    padded = np.append(values, 0.0)
    dH = total.gradient(padded, check_domain=False)[:4]
    y = values[1]
    k, nu = params.k, params.nu
    return np.array(
        [
            (y**2 / k) * dH[1],
            -(y**2 / k) * dH[0],
            dH[3] / (2.0 * nu),
            -dH[2] / (2.0 * nu),
        ]
    )


def eom(
    coeffs: LinearHamiltonianCoefficients,
    variant: str,
    at,
    params: ModelParameters,
) -> np.ndarray:
    """Velocity vector of the chosen variant at a point.

    gtacos/contact go through the generic flat-equation solve on the
    corresponding built-in structure; base_xj1 uses the symplectic solve on
    the 4-chart.
    """
    if variant == "base_xj1":
        return base_field(coeffs, at, params)
    spec = _variant_structure(variant, params)
    se = split_energy(coeffs, params)
    values = CHART_XJT.values(at)
    return hamiltonian_field_generic(spec, se.total, values, check_domain=False)


def red_green_decomposition(
    coeffs: LinearHamiltonianCoefficients,
    variant: str,
    at,
    params: ModelParameters,
) -> tuple[np.ndarray, np.ndarray]:
    """(base_terms, correction_terms) with base + correction = eom(variant).

    base_terms embeds the 4-dimensional flow (zero kappa component); the
    correction carries every term the extension adds.
    """
    if variant not in ("gtacos", "contact"):
        raise ValueError("decomposition applies to the 5-dimensional variants")
    values = CHART_XJT.values(at)
    spec = _variant_structure(variant, params)
    total = split_energy(coeffs, params).total
    full = hamiltonian_field_generic(spec, total, values, check_domain=False)
    base = np.append(_base_velocity(total, values[:4], params), 0.0)
    return base, full - base


def riccati_rhs(coeffs: LinearHamiltonianCoefficients, at) -> np.ndarray:
    """Derived quadratic right-hand side on the upper half-plane:

        x' = (m + c)(y^2 - x^2) + 2 n x
        y' = 2 y (n - (m + c) x)

    obtained by differentiating the split energy through the generic flow;
    y = 0 is invariant, so the half-plane is preserved.
    """
    x, y = float(at[0]), float(at[1])
    if y <= 0:
        raise ValueError("riccati flow needs y > 0")
    mc = coeffs.m + coeffs.c_lin
    n = coeffs.n_lin
    return np.array([mc * (y**2 - x**2) + 2.0 * n * x, 2.0 * y * (n - mc * x)])


def riccati_rhs_printed(coeffs: LinearHamiltonianCoefficients, at) -> np.ndarray:
    """Verbatim printed variant of the (x, y) right-hand side; retained only
    for the discrepancy report."""
    x, y = float(at[0]), float(at[1])
    c, m, n = coeffs.c_lin, coeffs.m, coeffs.n_lin
    return np.array(
        [
            (c + m) * (-(x**2) + y**2) + m * x - c + m,
            -2.0 * (c + m) * y**2 + 2.0 * n * y,
        ]
    )


def integrate_riccati(
    coeffs: LinearHamiltonianCoefficients,
    xy0,
    t_end: float,
    dt: float,
    rtol: float = 1e-9,
    atol: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the derived Riccati right-hand side; returns (times, states)."""
    times, states, _, _ = _step(
        lambda s: riccati_rhs(coeffs, s),
        CHART_METRIC_X1, xy0, t_end, dt, "adaptive-rk45", rtol, atol,
    )
    return times, states


def integrate_base(
    coeffs: LinearHamiltonianCoefficients,
    x0,
    t_end: float,
    dt: float,
    params: ModelParameters,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the 4-dimensional base flow on (x, y, q, p) with RK45 at
    rtol = atol = 1e-9; returns (times, states)."""
    total = split_energy(coeffs, params).total
    times, states, _, _ = _step(
        lambda s: _base_velocity(total, s, params),
        CHART_XJ1, x0, t_end, dt, "adaptive-rk45", 1e-9, 1e-9,
    )
    return times, states


def integrate_variant(
    coeffs: LinearHamiltonianCoefficients,
    variant: str,
    x0: ChartPoint,
    t_end: float,
    dt: float,
    params: ModelParameters,
    method: str = "adaptive-rk45",
    rtol: float = 1e-9,
    atol: float = 1e-9,
) -> Trajectory:
    """Trajectory of a 5-dimensional variant under the split energy."""
    spec = _variant_structure(variant, params)
    se = split_energy(coeffs, params)
    return integrate(
        spec, se.total, x0, t_end, dt, method=method, rtol=rtol, atol=atol
    )


# --------------------------------------------------------------------------
# Printed-equation discrepancy report
# --------------------------------------------------------------------------

REFERENCE_POINT = (0.3, 1.2, 0.4, -0.2, 0.1)
REFERENCE_COEFFS = LinearHamiltonianCoefficients(
    a=0.1, b=-0.2, c_lin=0.3, m=0.2, n_lin=-0.1, h_kappa="kappa"
)


def _contact_field_printed(
    coeffs: LinearHamiltonianCoefficients, values, params: ModelParameters
) -> np.ndarray:
    """Verbatim printed contact equations of motion, including the
    kappa-line's trailing dH/dkappa factor, exactly as published."""
    se = split_energy(coeffs, params)
    dH = se.total.gradient(values, check_domain=False)
    H = se.total.value(values, check_domain=False)
    x, y, q, p, kappa = values
    k, nu = params.k, params.nu
    hx, hy, hq, hp, hk = dH
    return np.array(
        [
            (y**2 / k) * hy,
            -(y**2 / k) * hx + y * hk,
            hp / (2.0 * nu),
            -(hq / (2.0 * nu) + p * hk),
            (-y * hy + p * hp - H) * hk,
        ]
    )


def _gtacos_pq_printed(
    coeffs: LinearHamiltonianCoefficients, values, params: ModelParameters
) -> np.ndarray:
    """Verbatim printed (q', p') lines of the linear-Hamiltonian flow."""
    a, b, c = coeffs.a, coeffs.b, coeffs.c_lin
    m, n = coeffs.m, coeffs.n_lin
    nu = params.nu
    x, y, q, p, kappa = values
    h_expr = coeffs.h_expr()
    hk = h_expr.diff("kappa").eval({"kappa": kappa}) if h_expr is not None else 0.0
    qdot = -(m + c) * q - n * p - a - (q / (2.0 * nu)) * hk
    pdot = q * n + (c - m) * p + b - (p / (2.0 * nu)) * hk
    return np.array([qdot, pdot])


def _gtacos_kappa_printed(
    coeffs: LinearHamiltonianCoefficients, values, params: ModelParameters
) -> float:
    """Verbatim printed kappa' of the linear-Hamiltonian flow, with the
    opaque 'q a^2' token evaluated literally."""
    a, b, c = coeffs.a, coeffs.b, coeffs.c_lin
    m, n = coeffs.m, coeffs.n_lin
    x, y, q, p, kappa = values
    h_expr = coeffs.h_expr()
    h = h_expr.eval({"kappa": kappa}) if h_expr is not None else 0.0
    return (
        (c + m) * q * a**2
        + (-c + m) * p**2
        + (m - n) * p * q
        + n * q
        + b * p
        - h / math.sqrt(params.delta)
    )


def _xjt_poisson_printed(f: ScalarField, g: ScalarField, values, params) -> float:
    """Verbatim printed Poisson bracket of the extended contact chart."""
    k, nu = params.k, params.nu
    y = values[1]
    df = f.gradient(values, check_domain=False)
    dg = g.gradient(values, check_domain=False)
    fx, fy, fq, fp = df[0], df[1], df[2], df[3]
    gx, gy, gq, gp = dg[0], dg[1], dg[2], dg[3]
    return (1.0 / k) * ((y**2 + 1.0) / y**2) * (fx * gy - gx * fy) + (
        1.0 / (2.0 * nu)
    ) * (fq * gp - gq * fp + (fq * gy - gq * fy) / y**2)


def _xjt_poisson_derived(f: ScalarField, g: ScalarField, values, params) -> float:
    """Poisson bracket transported through the Darboux identification:
    (y^2/k)(f_x g_y - g_x f_y) + (1/2nu)(f_q g_p - g_q f_p)."""
    k, nu = params.k, params.nu
    y = values[1]
    df = f.gradient(values, check_domain=False)
    dg = g.gradient(values, check_domain=False)
    return (y**2 / k) * (df[0] * dg[1] - dg[0] * df[1]) + (
        df[2] * dg[3] - dg[2] * df[3]
    ) / (2.0 * nu)


def paper_discrepancy_report(
    coeffs: LinearHamiltonianCoefficients | None = None,
    at=None,
    params: ModelParameters | None = None,
) -> dict:
    """Residuals between the printed equations and the oracle-derived forms
    at a reference point.

    Every entry carries the printed value, the derived value and their
    absolute deviation; nonzero deviations document transcription defects in
    the printed equations rather than in this implementation.
    """
    coeffs = coeffs or REFERENCE_COEFFS
    params = params or ModelParameters()
    values = CHART_XJT.values(at if at is not None else REFERENCE_POINT)

    report: dict[str, dict] = {}

    derived_xy = riccati_rhs(coeffs, values[:2])
    printed_xy = riccati_rhs_printed(coeffs, values[:2])
    report["riccati_xy"] = _entry(printed_xy, derived_xy)

    full = eom(coeffs, "gtacos", values, params)
    printed_pq = _gtacos_pq_printed(coeffs, values, params)
    report["linear_pq"] = _entry(printed_pq, full[2:4])

    printed_kappa = _gtacos_kappa_printed(coeffs, values, params)
    report["linear_kappa"] = _entry(printed_kappa, full[4])

    contact_full = eom(coeffs, "contact", values, params)
    printed_contact = _contact_field_printed(coeffs, values, params)
    report["contact_field"] = _entry(printed_contact, contact_full)
    report["contact_kappa"] = _entry(printed_contact[4], contact_full[4])

    f = ScalarField.parse(CHART_XJT, "x*p + q^2")
    g = ScalarField.parse(CHART_XJT, "y + q*p")
    report["xjt_poisson_bracket"] = _entry(
        _xjt_poisson_printed(f, g, values, params),
        _xjt_poisson_derived(f, g, values, params),
    )

    spec = builtin("xjt_gtacos", params)
    y = values[1]
    printed_volume = 2.0 * params.k * params.nu * math.sqrt(params.delta) / y**2
    report["volume_coefficient"] = _entry(
        printed_volume, spec.volume_coefficient(values)
    )

    return {
        "reference_point": [float(v) for v in values],
        "coefficients": coeffs.to_json(),
        "parameters": params.table(),
        "entries": report,
    }


def _entry(printed, derived) -> dict:
    printed = np.atleast_1d(np.asarray(printed, dtype=float))
    derived = np.atleast_1d(np.asarray(derived, dtype=float))
    return {
        "printed": printed.tolist(),
        "derived": derived.tolist(),
        "max_deviation": float(np.abs(printed - derived).max()),
    }
