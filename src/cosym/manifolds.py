"""Built-in catalog: model structures, invariant metrics, one-forms and the
partial Cayley transform between the disk and half-plane pictures.

Charts
------
* ``(x, y, q, p, kappa)`` with y > 0 — the extended half-plane carrying the
  catalog structures;
* ``(x, y, p, q, kappa)`` — ordering used by the invariant-metric matrices;
* ``(x, y, theta_ang, p, q, kappa)`` — the 6-coordinate group chart (the
  angle is named ``theta_ang`` to avoid colliding with structure one-forms);
* ``(w1, w2, z1, z2)`` — real split of the disk coordinates (w, z).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
import numpy as np

from .charts import Chart, ChartMap, ChartPoint, Guard, ScalarField
from .forms import KForm, wedge
from .structures import StructureSpec, darboux_chart

CHART_XJT = Chart("xjt", ("x", "y", "q", "p", "kappa"), (Guard("y", 0.0),))
CHART_XJ1 = Chart("xj1", ("x", "y", "q", "p"), (Guard("y", 0.0),))
CHART_HEISENBERG = Chart("heisenberg", ("x", "y", "kappa"))
CHART_METRIC_X1 = Chart("siegel_x1", ("x", "y"), (Guard("y", 0.0),))
CHART_METRIC_SL2 = Chart("sl2", ("x", "y", "theta_ang"), (Guard("y", 0.0),))
CHART_METRIC_XJ1 = Chart("metric_xj1", ("x", "y", "p", "q"), (Guard("y", 0.0),))
CHART_METRIC_XJT = Chart(
    "metric_xjt", ("x", "y", "p", "q", "kappa"), (Guard("y", 0.0),)
)
CHART_GROUP6 = Chart(
    "group6", ("x", "y", "theta_ang", "p", "q", "kappa"), (Guard("y", 0.0),)
)
CHART_DISK = Chart("disk_real", ("w1", "w2", "z1", "z2"))


@dataclass(frozen=True)
class ModelParameters:
    """Model parameters: k (discrete-series index), nu (Heisenberg index),
    delta (center scale), and the metric weights alpha, beta, gamma.

    alpha and gamma default to the k/2 and nu values of the balanced-metric
    parametrization when not given explicitly.
    """

    k: float = 1.0
    nu: float = 1.0
    delta: float = 1.0
    alpha: float | None = None
    beta: float = 0.0
    gamma: float | None = None

    def __post_init__(self):
        if self.k <= 0 or self.nu <= 0:
            raise ValueError("k and nu must be positive")
        if self.delta < 0 or self.beta < 0:
            raise ValueError("delta and beta must be nonnegative")
        if self.alpha is None:
            object.__setattr__(self, "alpha", self.k / 2.0)
        if self.gamma is None:
            object.__setattr__(self, "gamma", self.nu)
        if self.alpha < 0 or self.gamma < 0:
            raise ValueError("alpha and gamma must be nonnegative")

    def table(self) -> dict[str, float]:
        return {"k": self.k, "nu": self.nu, "delta": self.delta}

    def sqrt_replaced(self) -> "ModelParameters":
        """Alternative parametrization k, nu -> sqrt(k), sqrt(nu).

        Both readings of the metric comparison are kept behind this switch;
        the artifact does not decide between them.
        """
        return ModelParameters(
            k=math.sqrt(self.k),
            nu=math.sqrt(self.nu),
            delta=self.delta,
            alpha=None,
            beta=self.beta,
            gamma=None,
        )


@dataclass(frozen=True)
class MetricMatrix:
    entries: np.ndarray
    point: ChartPoint

    def __post_init__(self):
        if not np.allclose(self.entries, self.entries.T, atol=1e-12):
            raise ValueError("metric matrix must be symmetric")


# --------------------------------------------------------------------------
# Structure catalog
# --------------------------------------------------------------------------

CATALOG = (
    "darboux_contact",
    "darboux_cosymplectic",
    "heisenberg",
    "xjt_gtacos",
    "xjt_contact",
)

_NAME_RE = re.compile(r"^([a-z_0-9]+?)(?:\((\d+)\))?$")


def builtin(name: str, params: ModelParameters | None = None) -> StructureSpec:
    """Construct a named catalog structure.

    Darboux families accept an explicit size, e.g. ``darboux_contact(2)``.
    """
    params = params or ModelParameters()
    m = _NAME_RE.match(name.strip())
    if not m:
        raise ValueError("unknown structure name %r" % name)
    base, arg = m.group(1), m.group(2)
    n = int(arg) if arg else 1

    if base == "darboux_contact":
        return _darboux_contact(n)
    if base == "darboux_cosymplectic":
        return _darboux_cosymplectic(n)
    if arg is not None:
        raise ValueError("structure %r does not take a size argument" % base)
    if base == "heisenberg":
        theta = KForm.one_form(CHART_HEISENBERG, {"kappa": 1.0, "x": "-y"})
        omega = KForm.two_form(CHART_HEISENBERG, {"x,y": 1.0})
        return StructureSpec("heisenberg", CHART_HEISENBERG, theta, omega, 1)
    if base == "xjt_gtacos":
        if params.delta <= 0:
            raise ValueError("xjt structures need delta > 0")
        table = params.table()
        theta = KForm.one_form(
            CHART_XJT,
            {"kappa": "sqrt(delta)", "q": "-sqrt(delta)*p", "p": "sqrt(delta)*q"},
            table,
        )
        omega = KForm.two_form(CHART_XJT, {"x,y": "k/y^2", "q,p": "2*nu"}, table)
        return StructureSpec("xjt_gtacos", CHART_XJT, theta, omega, 2, table)
    if base == "xjt_contact":
        if params.delta <= 0:
            raise ValueError("xjt structures need delta > 0")
        table = params.table()
        theta = KForm.one_form(
            CHART_XJT,
            {"kappa": "sqrt(delta)", "x": "k/y", "q": "-nu*p", "p": "nu*q"},
            table,
        )
        omega = KForm.two_form(CHART_XJT, {"x,y": "k/y^2", "q,p": "2*nu"}, table)
        return StructureSpec("xjt_contact", CHART_XJT, theta, omega, 2, table)
    raise ValueError("unknown structure name %r" % name)


def _darboux_contact(n: int) -> StructureSpec:
    chart = darboux_chart(n)
    theta: dict[str, object] = {"kappa": 1.0}
    for i in range(n):
        qname = chart.coordinates[i]
        pname = chart.coordinates[n + i]
        theta[qname] = "-%s" % pname
    omega = {(i, n + i): 1.0 for i in range(n)}
    return StructureSpec(
        "darboux_contact(%d)" % n,
        chart,
        KForm.one_form(chart, theta),
        KForm(chart, 2, omega),
        n,
    )


def _darboux_cosymplectic(n: int) -> StructureSpec:
    chart = darboux_chart(n)
    omega = {(i, n + i): 1.0 for i in range(n)}
    return StructureSpec(
        "darboux_cosymplectic(%d)" % n,
        chart,
        KForm.one_form(chart, {"kappa": 1.0}),
        KForm(chart, 2, omega),
        n,
    )


# --------------------------------------------------------------------------
# Invariant metrics
# --------------------------------------------------------------------------

_METRIC_CHARTS = {
    1: CHART_METRIC_X1,
    2: CHART_METRIC_SL2,
    3: CHART_METRIC_XJ1,
    4: CHART_METRIC_XJT,
    5: CHART_GROUP6,
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def metric_matrix(case: int, params: ModelParameters, at) -> MetricMatrix:
    """Left-invariant metric matrix for one of the five parameter regimes:

    1. upper half-plane        (beta = gamma = delta = 0)
    2. SL(2, R)                (gamma = delta = 0)
    3. half-plane x C          (beta = delta = 0)
    4. extended half-plane     (beta = 0)
    5. full 6-dimensional group
    """
    if case not in _METRIC_CHARTS:
        raise ValueError("case must be 1..5")
    chart = _METRIC_CHARTS[case]
    point = chart.point(at)
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
    env = point.env()
    y = env["y"]

    if case == 1:
        _require(b == 0 and g == 0 and d == 0, "case 1 needs beta=gamma=delta=0")
        _require(a > 0, "case 1 needs alpha > 0")
        m = (a / y**2) * np.eye(2)
    elif case == 2:
        _require(g == 0 and d == 0, "case 2 needs gamma=delta=0")
        _require(a > 0 and b > 0, "case 2 needs alpha, beta > 0")
        m = np.array(
            [
                [(a + b) / y**2, 0.0, 2 * b / y],
                [0.0, a / y**2, 0.0],
                [2 * b / y, 0.0, 4 * b],
            ]
        )
    elif case == 3:
        _require(b == 0 and d == 0, "case 3 needs beta=delta=0")
        _require(a > 0 and g > 0, "case 3 needs alpha, gamma > 0")
        m = _metric_half_plane_block(a, g, env)
    elif case == 4:
        _require(b == 0, "case 4 needs beta=0")
        _require(a > 0 and g > 0 and d > 0, "case 4 needs alpha, gamma, delta > 0")
        m = np.zeros((5, 5))
        m[:4, :4] = _metric_half_plane_block(a, g, env)
        m += _lambda6_block(d, env, chart)
    else:
        _require(a > 0 and b > 0 and g > 0 and d > 0, "case 5 needs all weights > 0")
        m = np.zeros((6, 6))
        S = env["x"] ** 2 + y**2
        ix, iy, ith = 0, 1, 2
        ip, iq, ik = 3, 4, 5
        m[ix, ix] = (a + b) / y**2
        m[iy, iy] = a / y**2
        m[ith, ith] = 4 * b
        m[ix, ith] = m[ith, ix] = 2 * b / y
        m[ip, ip] = g * S / y
        m[iq, iq] = g / y
        m[ip, iq] = m[iq, ip] = g * env["x"] / y
        m += _lambda6_block(d, env, chart)
    return MetricMatrix(entries=m, point=point)


def _metric_half_plane_block(alpha: float, gamma: float, env) -> np.ndarray:
    """4x4 block on (x, y, p, q): alpha (dx^2+dy^2)/y^2 + (gamma/y)(S dp^2 +
    dq^2 + 2x dp dq) with S = x^2 + y^2."""
    x, y = env["x"], env["y"]
    S = x**2 + y**2
    return np.array(
        [
            [alpha / y**2, 0.0, 0.0, 0.0],
            [0.0, alpha / y**2, 0.0, 0.0],
            [0.0, 0.0, gamma * S / y, gamma * x / y],
            [0.0, 0.0, gamma * x / y, gamma / y],
        ]
    )


def _lambda6_covector(delta: float, env, chart: Chart) -> np.ndarray:
    """sqrt(delta) (dkappa - p dq + q dp) as a covector on the given chart."""
    sd = math.sqrt(delta)
    v = np.zeros(chart.dimension)
    v[chart.index("kappa")] = sd
    v[chart.index("q")] = -sd * env["p"]
    v[chart.index("p")] = sd * env["q"]
    return v


def _lambda6_block(delta: float, env, chart: Chart) -> np.ndarray:
    v = _lambda6_covector(delta, env, chart)
    return np.outer(v, v)


def invariant_one_forms(params: ModelParameters, at) -> list[np.ndarray]:
    """The six invariant one-forms on the group chart, as covectors.

    Their Gram sum reproduces ``metric_matrix(5, ...)`` entrywise.
    """
    point = CHART_GROUP6.point(at)
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
    if min(a, b, g, d) <= 0:
        raise ValueError("invariant one-forms need alpha, beta, gamma, delta > 0")
    env = point.env()
    x, y, th = env["x"], env["y"], env["theta_ang"]
    chart = CHART_GROUP6
    ix, iy, ith = chart.index("x"), chart.index("y"), chart.index("theta_ang")
    ip, iq = chart.index("p"), chart.index("q")

    sa, sb, sg = math.sqrt(a), math.sqrt(b), math.sqrt(g)
    ry = math.sqrt(y)

    l1 = np.zeros(6)
    l1[ix] = sa / y * math.cos(2 * th)
    l1[iy] = sa / y * math.sin(2 * th)
    l2 = np.zeros(6)
    l2[ix] = -sa / y * math.sin(2 * th)
    l2[iy] = sa / y * math.cos(2 * th)
    l3 = np.zeros(6)
    l3[ix] = sb / y
    l3[ith] = 2 * sb
    l4 = np.zeros(6)
    l4[iq] = -sg / ry * math.sin(th)
    l4[ip] = sg * (ry * math.cos(th) - x / ry * math.sin(th))
    l5 = np.zeros(6)
    l5[iq] = sg / ry * math.cos(th)
    l5[ip] = sg * (ry * math.sin(th) + x / ry * math.cos(th))
    l6 = _lambda6_covector(d, env, chart)
    return [l1, l2, l3, l4, l5, l6]


# --------------------------------------------------------------------------
# Cayley transform and the disk two-form
# --------------------------------------------------------------------------


def cayley_map(params: ModelParameters | None = None) -> ChartMap:
    """Second partial Cayley transform (x, y, q, p) -> (w1, w2, z1, z2):

        w = (v - i) / (v + i),   z = 2i (p v + q) / (v + i),   v = x + i y,

    split into real and imaginary parts over D = x^2 + (y+1)^2:

        w1 = (x^2 + y^2 - 1)/D,         w2 = -2x/D,
        z1 = 2(p x + q(y+1))/D,         z2 = 2(p(x^2 + y^2 + y) + q x)/D.

    The components are symbolic, so the Jacobian is exact.
    """
    D = "(x^2 + (y+1)^2)"
    return ChartMap.from_exprs(
        CHART_XJ1,
        CHART_DISK,
        (
            "(x^2 + y^2 - 1)/%s" % D,
            "-2*x/%s" % D,
            "2*(p*x + q*(y+1))/%s" % D,
            "2*(p*(x^2 + y^2 + y) + q*x)/%s" % D,
        ),
    )


def disk_two_form(params: ModelParameters) -> KForm:
    """Invariant Kaehler two-form of the disk picture, split into real
    coordinates (w = w1 + i w2, z = z1 + i z2):

        (4k/P^2) dw1^dw2 + (2 nu / P) Re(A) ^ Im(A),

    with P = 1 - |w|^2 and A = dz + conj(eta) dw, eta = (z + conj(z) w)/P.
    """
    table = {"k": params.k, "nu": params.nu}
    P = "(1 - w1^2 - w2^2)"
    eta1 = "(z1 + z1*w1 + z2*w2)/%s" % P
    eta2 = "(z2 + z1*w2 - z2*w1)/%s" % P
    re_a = KForm.one_form(CHART_DISK, {"z1": 1.0, "w1": eta1, "w2": eta2}, table)
    im_a = KForm.one_form(
        CHART_DISK, {"z2": 1.0, "w1": "-(%s)" % eta2, "w2": eta1}, table
    )
    weight = ScalarField.parse(CHART_DISK, "2*nu/%s" % P, table)
    lead = KForm.two_form(CHART_DISK, {"w1,w2": "4*k/%s^2" % P}, table)
    return lead + wedge(re_a, im_a).scaled(weight)


# --------------------------------------------------------------------------
# Darboux identification of the extended half-plane
# --------------------------------------------------------------------------

_DARBOUX2_SIEGEL = Chart(
    "darboux2_siegel",
    darboux_chart(2).coordinates,
    (Guard("p1", 0.0, strict=True, upper=True),),
)


def darboux_transport(params: ModelParameters) -> ChartMap:
    """Explicit chart map (x, y, q, p, kappa) -> (q1, q2, p1, p2, kappa):

        q1 = k x,  p1 = -1/y,  q2 = 2 nu q,  p2 = p.

    It sends the catalog two-form to the Darboux form dq^i ^ dp_i, so closed
    coordinate formulas transport to the model chart mechanically.
    """
    table = params.table()
    return ChartMap.from_exprs(
        CHART_XJT,
        _DARBOUX2_SIEGEL,
        ("k*x", "2*nu*q", "-1/y", "p", "kappa"),
        table,
    )


def darboux_transport_inverse(params: ModelParameters) -> ChartMap:
    table = params.table()
    return ChartMap.from_exprs(
        _DARBOUX2_SIEGEL,
        CHART_XJT,
        ("q1/k", "-1/p1", "q2/(2*nu)", "p2", "kappa"),
        table,
    )
