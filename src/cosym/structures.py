"""Classified geometric structures (theta, Omega) on odd-dimensional charts.

A structure is a one-form theta and a two-form Omega on a (2n+1)-chart with
theta ^ Omega^n != 0.  The Reeb vector solves R ⌟ Omega = 0, R ⌟ theta = 1;
the musical isomorphism is X -> X ⌟ Omega + (X ⌟ theta) theta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np
from scipy.stats import qmc

from .charts import Chart, ChartPoint, coerce_values
from .expressions import Expr, Mul, Name, Neg, Num
from . import forms
from .forms import KForm

CLASSIFY_TOL = 1e-9
REEB_TOL = 1e-11


class StructureError(ValueError):
    """Degenerate or ill-formed structure."""


@dataclass(frozen=True)
class StructureClass:
    """Classification flags; the implication lattice is
    cos => gtacos => acos and contact => acos."""

    acos: bool
    gtacos: bool
    cos: bool
    contact: bool
    tacs: bool
    tacs_epsilon: float | None = None

    def flags(self) -> dict:
        out = {
            "acos": self.acos,
            "gtacos": self.gtacos,
            "cos": self.cos,
            "contact": self.contact,
            "tacs": self.tacs,
        }
        if self.tacs:
            out["tacs_epsilon"] = self.tacs_epsilon
        return out


class StructureSpec:
    def __init__(
        self,
        name: str,
        chart: Chart,
        theta: KForm,
        omega: KForm,
        n: int,
        params: Mapping[str, float] | None = None,
    ):
        if chart.dimension != 2 * n + 1:
            raise StructureError(
                "chart dimension %d is not 2n+1 for n=%d" % (chart.dimension, n)
            )
        if theta.degree != 1 or omega.degree != 2:
            raise StructureError("theta must be a one-form and omega a two-form")
        self.name = name
        self.chart = chart
        self.theta = theta
        self.omega = omega
        self.n = n
        self.params = dict(params or {})
        self._classification: StructureClass | None = None
        self._volume_form: KForm | None = None

    # -- pointwise data ------------------------------------------------------

    def theta_vector(self, at, check_domain: bool = True) -> np.ndarray:
        return self.theta.at(at, check_domain).as_covector()

    def omega_matrix(self, at, check_domain: bool = True) -> np.ndarray:
        return self.omega.at(at, check_domain).as_matrix()

    def theta_rows(self, rows) -> np.ndarray:
        """(N, dim) theta covectors at every row of an (N, dim) array,
        without domain checks; row k is ``theta_vector(rows[k])``."""
        rows = np.asarray(rows, dtype=float)
        out = np.zeros(rows.shape)
        for (i,), v in self.theta.at_rows(rows).items():
            out[:, i] = v
        return out

    def omega_rows(self, rows) -> np.ndarray:
        """(N, dim, dim) Omega matrices at every row of an (N, dim) array,
        without domain checks; entry k is ``omega_matrix(rows[k])``."""
        rows = np.asarray(rows, dtype=float)
        out = np.zeros(rows.shape + rows.shape[-1:])
        for (i, j), v in self.omega.at_rows(rows).items():
            out[:, i, j] = v
            out[:, j, i] = -v
        return out

    def flat_matrix(self, at, check_domain: bool = True) -> np.ndarray:
        values = coerce_values(self.chart, at)
        if check_domain and not isinstance(at, ChartPoint):
            self.chart.check(values)
        th = self.theta_vector(values, check_domain=False)
        om = self.omega_matrix(values, check_domain=False)
        return flat_from(th, om)

    def volume_coefficient(self, at, check_domain: bool = True) -> float:
        """Top coefficient of theta ^ Omega^n (the chart's volume density).

        The value is un-normalised: there is no 1/n! factor, so for
        ``xjt_gtacos`` it is 4 k nu sqrt(delta) / y^2, twice the top
        coefficient of the Liouville-normalised theta ^ Omega^2 / 2!.
        The top form is wedged on the first call and kept.
        """
        if self._volume_form is None:
            top = self.theta
            for _ in range(self.n):
                top = forms.wedge(top, self.omega)
            self._volume_form = top
        val = self._volume_form.at(at, check_domain)
        return val.coeffs.get(tuple(range(self.chart.dimension)), 0.0)

    # -- probe sampling -------------------------------------------------------

    def default_probes(self, count: int = 64, seed: int = 42) -> list[ChartPoint]:
        """Quasi-random in-domain probe points (Halton sequence in the
        chart's sample box)."""
        box = self.chart.sample_box()
        sampler = qmc.Halton(d=self.chart.dimension, seed=seed)
        raw = sampler.random(count)
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
        pts = lo + raw * (hi - lo)
        return [self.chart.point(row) for row in pts]

    def classification(self, probes=None, seed: int = 42) -> StructureClass:
        if probes is None and self._classification is not None:
            return self._classification
        result = classify(self, probes=probes, seed=seed)
        if probes is None:
            self._classification = result
        return result

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "chart": self.chart.to_json(),
            "n": self.n,
            "theta": self.theta.to_json_coeffs(),
            "omega": self.omega.to_json_coeffs(),
            "parameters": dict(self.params),
        }

    @classmethod
    def from_json(cls, data: Mapping | str | Path) -> "StructureSpec":
        if isinstance(data, (str, Path)):
            data = json.loads(Path(data).read_text())
        chart = Chart.from_json(data["chart"])
        params = {k: float(v) for k, v in data.get("parameters", {}).items()}
        theta = KForm.one_form(chart, data["theta"], params)
        omega = KForm.two_form(chart, data["omega"], params)
        return cls(
            name=data.get("name", "structure"),
            chart=chart,
            theta=theta,
            omega=omega,
            n=int(data["n"]),
            params=params,
        )

    def __repr__(self):
        return "StructureSpec(%r, n=%d, chart=%s)" % (
            self.name,
            self.n,
            self.chart.coordinates,
        )


@dataclass(frozen=True)
class CanonicalThetaSpec:
    """Constant-coefficient one-form a_i dq^i + b_i dp_i + c dkappa over the
    Darboux two-form sum_i dq^i ^ dp_i."""

    a: tuple[float, ...]
    b: tuple[float, ...]
    c: float

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise ValueError("a and b must have equal length")
        if self.c == 0.0:
            raise ValueError("c must be nonzero")

    @property
    def n(self) -> int:
        return len(self.a)

    def reeb_vector(self) -> np.ndarray:
        out = np.zeros(2 * self.n + 1)
        out[-1] = 1.0 / self.c
        return out

    def structure(self) -> StructureSpec:
        chart = darboux_chart(self.n)
        theta = {}
        for i in range(self.n):
            if self.a[i]:
                theta[chart.coordinates[i]] = self.a[i]
            if self.b[i]:
                theta[chart.coordinates[self.n + i]] = self.b[i]
        theta["kappa"] = self.c
        omega = {(i, self.n + i): 1.0 for i in range(self.n)}
        return StructureSpec(
            name="canonical_theta",
            chart=chart,
            theta=KForm.one_form(chart, theta),
            omega=KForm(chart, 2, omega),
            n=self.n,
        )


def darboux_chart(n: int) -> Chart:
    """Chart (q^i, p_i, kappa); single-letter names when n == 1."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        coords = ("q", "p", "kappa")
    else:
        coords = tuple("q%d" % (i + 1) for i in range(n)) + tuple(
            "p%d" % (i + 1) for i in range(n)
        ) + ("kappa",)
    return Chart("darboux%d" % n, coords)


def darboux_pairs(chart: Chart) -> tuple[list[tuple[int, int]], int]:
    """(q_i, p_i) index pairs and the kappa index of a Darboux-named chart."""
    names = chart.coordinates
    if "kappa" not in names:
        raise StructureError("chart %r has no kappa coordinate" % chart.name)
    kappa = chart.index("kappa")
    pairs = []
    for i, name in enumerate(names):
        if name == "q" or (name.startswith("q") and name[1:].isdigit()):
            partner = "p" + name[1:]
            if partner not in names:
                raise StructureError(
                    "coordinate %r has no momentum partner on %r" % (name, chart.name)
                )
            pairs.append((i, chart.index(partner)))
    if not pairs:
        raise StructureError("chart %r has no (q, p) coordinate pairs" % chart.name)
    return pairs, kappa


# --------------------------------------------------------------------------
# Classification
# --------------------------------------------------------------------------


def _linear_coefficient(expr: Expr, var: str) -> float | None:
    """Match expr == const * Name(var) structurally; None when no match."""
    if isinstance(expr, Num):
        return expr.value if expr.value == 0.0 else None
    if isinstance(expr, Name):
        return 1.0 if expr.ident == var else None
    if isinstance(expr, Neg):
        inner = _linear_coefficient(expr.arg, var)
        return None if inner is None else -inner
    if isinstance(expr, Mul):
        left, right = expr.left, expr.right
        if isinstance(left, Num) and isinstance(right, Name) and right.ident == var:
            return left.value
        if isinstance(right, Num) and isinstance(left, Name) and left.ident == var:
            return right.value
    return None


def match_tacs_pattern(theta: KForm, chart: Chart) -> float | None:
    """Extract epsilon when theta is literally dkappa + eps p_i dq^i.

    The match is structural on the expression trees so that epsilon comes out
    exact; any coefficient outside the pattern rejects.
    """
    try:
        pairs, kappa = darboux_pairs(chart)
    except StructureError:
        return None
    if not theta.symbolic():
        return None
    coeffs = {idx[0]: f.expr for idx, f in theta.coeffs.items()}
    kappa_coeff = coeffs.pop(kappa, None)
    if not (isinstance(kappa_coeff, Num) and kappa_coeff.value == 1.0):
        return None
    epsilons = []
    for qi, pi in pairs:
        cq = coeffs.pop(qi, Num(0.0))
        eps = _linear_coefficient(cq, chart.coordinates[pi])
        if eps is None:
            return None
        epsilons.append(eps)
    if coeffs:  # leftover dp or off-pattern terms
        return None
    if any(e != epsilons[0] for e in epsilons):
        return None
    return epsilons[0]


def classify(spec: StructureSpec, probes=None, seed: int = 42) -> StructureClass:
    """Sample-based classification at probe points (default 64 quasi-random)."""
    if probes is None:
        probes = spec.default_probes(seed=seed)
    if not probes:
        raise ValueError("probe set must be nonempty")

    d_omega = forms.exterior_derivative(spec.omega)
    d_theta = forms.exterior_derivative(spec.theta)

    acos = True
    d_omega_zero = True
    d_theta_zero = True
    contact_match = True
    for pt in probes:
        om = spec.omega_matrix(pt)
        rank = np.linalg.matrix_rank(om, tol=CLASSIFY_TOL)
        vol = spec.volume_coefficient(pt)
        if rank != 2 * spec.n or abs(vol) <= CLASSIFY_TOL:
            acos = False
        if d_omega.at(pt).max_norm() > CLASSIFY_TOL:
            d_omega_zero = False
        if d_theta.at(pt).max_norm() > CLASSIFY_TOL:
            d_theta_zero = False
        if (d_theta.at(pt) - spec.omega.at(pt)).max_norm() > CLASSIFY_TOL:
            contact_match = False

    eps = match_tacs_pattern(spec.theta, spec.chart) if d_omega_zero else None
    return StructureClass(
        acos=acos,
        gtacos=acos and d_omega_zero,
        cos=acos and d_omega_zero and d_theta_zero,
        contact=acos and contact_match,
        tacs=acos and d_omega_zero and eps is not None,
        tacs_epsilon=eps,
    )


# --------------------------------------------------------------------------
# Reeb vector and musical isomorphisms
# --------------------------------------------------------------------------


def flat_from(th: np.ndarray, om: np.ndarray) -> np.ndarray:
    """Matrix of the flat map, Omega^T + theta theta^T, from the values of
    theta and Omega at one point."""
    return om.T + np.outer(th, th)


def reeb(spec: StructureSpec, at, check_domain: bool = True) -> np.ndarray:
    """Solve the stacked (2n+2) x (2n+1) system R ⌟ Omega = 0, R ⌟ theta = 1.

    Omega alone is rank-deficient by construction, so the system is solved in
    the least-squares sense with an explicit rank and residual check.
    """
    values = coerce_values(spec.chart, at)
    if check_domain and not isinstance(at, ChartPoint):
        spec.chart.check(values)
    om = spec.omega_matrix(values, check_domain=False)
    th = spec.theta_vector(values, check_domain=False)
    return reeb_from(th, om, values)


def reeb_from(th: np.ndarray, om: np.ndarray, values) -> np.ndarray:
    """The Reeb solve of :func:`reeb` from the values of theta and Omega at
    the point ``values`` (which only labels the errors)."""
    dim = len(th)
    system = np.vstack([om.T, th])
    rhs = np.zeros(dim + 1)
    rhs[-1] = 1.0
    solution, _, rank, _ = np.linalg.lstsq(system, rhs, rcond=None)
    _check_reeb(rank, np.abs(system @ solution - rhs).max(), dim, values)
    return solution


def reeb_rows(spec: StructureSpec, rows) -> np.ndarray:
    """(N, dim) Reeb vectors at every row of an (N, dim) array, without
    domain checks: :func:`reeb` solved for all rows at once."""
    rows = np.asarray(rows, dtype=float)
    return reeb_from_rows(spec.theta_rows(rows), spec.omega_rows(rows), rows)


def reeb_from_rows(th: np.ndarray, om: np.ndarray, rows) -> np.ndarray:
    """:func:`reeb_from` for stacked (N, dim) theta and (N, dim, dim) Omega.

    Each stacked system is solved by its SVD, with ``lstsq``'s rank rule
    and the same checks.  The per-point solve stays on ``lstsq``, which is
    the faster for one point.
    """
    dim = th.shape[1]
    systems = np.concatenate([om.transpose(0, 2, 1), th[:, None, :]], axis=1)
    u, s, vt = np.linalg.svd(systems, full_matrices=False)
    # lstsq (rcond=None) drops singular values <= eps * max(M, N) * s_max
    kept = s > np.finfo(float).eps * (dim + 1) * s[:, :1]
    # the right-hand side is the last unit vector, so U^T b is U's last row
    coef = np.where(kept, u[:, -1, :] / np.where(kept, s, 1.0), 0.0)
    solutions = (vt.transpose(0, 2, 1) @ coef[:, :, None])[:, :, 0]
    residuals = (systems @ solutions[:, :, None])[:, :, 0]
    residuals[:, -1] -= 1.0
    errors = np.abs(residuals).max(axis=1)
    for k, (rank, error) in enumerate(zip(kept.sum(axis=1).tolist(), errors.tolist())):
        _check_reeb(rank, error, dim, rows[k])
    return solutions


def _check_reeb(rank: int, error: float, dim: int, values) -> None:
    """Reject a stacked Reeb system of rank below ``dim``, or a solution
    that leaves a residual above 1e-9."""
    if rank < dim:
        raise StructureError(
            "degenerate structure at %s: stacked system has rank %d < %d"
            % (list(values), rank, dim)
        )
    if error > 1e-9:
        raise StructureError(
            "Reeb system inconsistent at %s (residual %.3e)" % (list(values), error)
        )


def flat(spec: StructureSpec, X, at, check_domain: bool = True) -> np.ndarray:
    """X -> X ⌟ Omega + (X ⌟ theta) theta as a covector at a point."""
    values = coerce_values(spec.chart, at)
    if check_domain and not isinstance(at, ChartPoint):
        spec.chart.check(values)
    xv = X.at(values) if hasattr(X, "at") else np.asarray(X, dtype=float)
    return spec.flat_matrix(values, check_domain=False) @ xv


def sharp(spec: StructureSpec, alpha, at, check_domain: bool = True) -> np.ndarray:
    """Inverse of flat; raises StructureError when the flat matrix is singular."""
    values = coerce_values(spec.chart, at)
    if check_domain and not isinstance(at, ChartPoint):
        spec.chart.check(values)
    F = spec.flat_matrix(values, check_domain=False)
    alpha = np.asarray(alpha, dtype=float)
    try:
        return np.linalg.solve(F, alpha)
    except np.linalg.LinAlgError:
        raise StructureError("flat matrix singular at %s" % list(values)) from None
