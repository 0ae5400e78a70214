"""Classified geometric structures (theta, Omega) on odd-dimensional charts.

A structure is a one-form theta and a two-form Omega on a (2n+1)-chart with
theta ^ Omega^n != 0.  The musical isomorphism is
flat(X) = X ⌟ Omega + (X ⌟ theta) theta, with matrix F = Omega^T + theta theta^T.
The Reeb conditions R ⌟ Omega = 0, R ⌟ theta = 1 say flat(R) = theta, so
R = sharp(theta) = F^-1 theta: one SVD of F, rank- and residual-checked by
:func:`reeb_from`, gives R, and the same factors solve sharp and every
Hamiltonian, gradient and evolution field at that point.  theta and Omega
compile into one straight-line kernel on request (:meth:`StructureSpec.kernel`).
:meth:`StructureSpec.at` gives them at one point and :meth:`StructureSpec.rows`
at every row of an array, each from that kernel where it is finite, else by
walking the trees.  :func:`reeb_from` solves one point, or all rows by one
batched SVD, so ``reeb`` is ``reeb_from(*spec.at(point))[0]``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np
from scipy.stats import qmc

from .charts import Chart, ChartPoint
from .expressions import Expr, Kernel, Mul, Name, Neg, Num
from . import forms
from .forms import KForm

CLASSIFY_TOL = 1e-9
_EPS = np.finfo(float).eps


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
        self._kernel: Kernel | None = None

    # -- pointwise data ------------------------------------------------------

    def theta_vector(self, at, check_domain: bool = True) -> np.ndarray:
        return self.theta.at(at, check_domain).as_covector()

    def omega_matrix(self, at, check_domain: bool = True) -> np.ndarray:
        return self.omega.at(at, check_domain).as_matrix()

    def kernel(self) -> Kernel | None:
        """theta and Omega as one straight-line kernel, built on first
        request and kept; None when a coefficient is callable-backed.  It
        returns theta's dim entries, then Omega's dim x dim entries row by
        row, zeros and the negated lower triangle included."""
        if self._kernel is None and self.theta.symbolic() and self.omega.symbolic():
            dim = self.chart.dimension
            zero = (Num(0.0), {})
            entries = []
            for i in range(dim):
                f = self.theta.coeffs.get((i,))
                entries.append(zero if f is None else (f.expr, f.params))
            for i in range(dim):
                for j in range(dim):
                    f = self.omega.coeffs.get((min(i, j), max(i, j)))
                    if f is None or i == j:
                        entries.append(zero)
                    else:
                        entries.append((f.expr if i < j else Neg(f.expr), f.params))
            exprs, bound = zip(*entries)
            self._kernel = Kernel(exprs, self.chart.coordinates, bound)
        return self._kernel

    def at(self, at, check_domain: bool = True):
        """(theta, Omega, values) at a point: theta (dim,) and Omega
        (dim, dim) from the kept kernel where it is finite, else by walking
        theta's and then Omega's trees, whose errors are the reference;
        ``values`` are the point's coordinates as the chart reads them.  Bit
        for bit the same either way; never builds a kernel."""
        values = self.chart.values(at, check_domain)
        out = None if self._kernel is None else self._kernel.finite_at(values.tolist())
        if out is None:
            return (self.theta_vector(values, check_domain=False),
                    self.omega_matrix(values, check_domain=False), values)
        dim = len(values)
        return (np.array(out[:dim], dtype=float),
                np.array(out[dim:], dtype=float).reshape(dim, dim), values)

    def rows(self, states):
        """(theta, Omega) at every row of an (N, dim) array, shaped (N, dim)
        and (N, dim, dim), without domain checks, bit for bit as :meth:`at`
        gives them: from the kept kernel when it is finite at every row, else
        row by row through :meth:`at`, so that the first failing row raises
        the pointwise error.  Never builds a kernel."""
        states = np.asarray(states, dtype=float)
        out = None if self._kernel is None else self._kernel.finite_rows(states)
        n, dim = states.shape
        if out is not None:
            return (np.ascontiguousarray(out[:, :dim]),
                    np.ascontiguousarray(out[:, dim:]).reshape(n, dim, dim))
        th, om = np.empty((n, dim)), np.empty((n, dim, dim))
        for k, row in enumerate(states):
            th[k], om[k], _ = self.at(row, check_domain=False)
        return th, om

    def flat_matrix(self, at, check_domain: bool = True) -> np.ndarray:
        return flat_from(*self.at(at, check_domain)[:2])

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
    theta (dim,) and Omega (dim, dim) at one point, or from their rows
    (N, dim) and (N, dim, dim)."""
    return om.swapaxes(-1, -2) + th[..., None] * th[..., None, :]


def reeb(spec: StructureSpec, at, check_domain: bool = True) -> np.ndarray:
    """The Reeb vector R = ♯theta, which solves R ⌟ Omega = 0, R ⌟ theta = 1."""
    return reeb_from(*spec.at(at, check_domain))[0]


def reeb_from(th: np.ndarray, om: np.ndarray, values):
    """R = F^-1 theta and the SVD factors (u, s, vt) of the flat matrix F.

    ``th`` and ``om`` are theta and Omega at the point ``values``, or their
    rows at the rows of ``values``; ``values`` only labels the errors.  Any
    other right-hand side b is solved as ``b @ u / s @ vt``.  Raises
    StructureError when F fails the rank rule s_min > eps * dim * s_max
    (numpy's default ``matrix_rank`` rule), or when R leaves a residual
    above 1e-9 in R ⌟ Omega = 0, R ⌟ theta = 1; over rows, the first row
    that fails the rank rule is reported, else the first with a residual.
    """
    u, s, vt = np.linalg.svd(flat_from(th, om))
    _check_flat(s, values)  # before dividing by s
    if th.ndim == 1:
        R = th @ u / s @ vt
        error = max(np.abs(R @ om).max(), abs(R @ th - 1.0))  # numpy scalar: has .all()
    else:
        R = (th[:, None, :] @ u / s[:, None, :] @ vt)[:, 0, :]
        error = np.maximum(
            np.abs(R[:, None, :] @ om)[:, 0, :].max(axis=1),
            np.abs(np.einsum("ij,ij->i", R, th) - 1.0),
        )
    _check_flat(s, values, error)
    return R, (u, s, vt)


def _check_flat(s: np.ndarray, values, error=None) -> None:
    """Without ``error``, raise StructureError at the first point whose flat
    matrix, with singular values ``s`` (descending), fails the rank rule
    s_min > eps * dim * s_max; with it, at the first point whose Reeb
    residual is above 1e-9."""
    dim = s.shape[-1]
    good = s.T[-1] > _EPS * dim * s.T[0] if error is None else error <= 1e-9
    if good.all():
        return
    k = int(np.argmin(good))
    point = np.asarray(np.atleast_2d(values)[k], dtype=float).tolist()
    if error is None:
        s = np.atleast_2d(s)[k]
        raise StructureError(
            "degenerate structure at %s: flat matrix has rank %d < %d"
            % (point, np.count_nonzero(s > _EPS * dim * s[0]), dim)
        )
    raise StructureError(
        "Reeb system inconsistent at %s (residual %.3e)"
        % (point, np.atleast_1d(error)[k])
    )


def flat(spec: StructureSpec, X, at, check_domain: bool = True) -> np.ndarray:
    """X -> X ⌟ Omega + (X ⌟ theta) theta as a covector at a point."""
    values = spec.chart.values(at, check_domain)
    xv = X.at(values) if hasattr(X, "at") else np.asarray(X, dtype=float)
    return spec.flat_matrix(values, check_domain=False) @ xv


def sharp(spec: StructureSpec, alpha, at, check_domain: bool = True) -> np.ndarray:
    """Inverse of flat, from the factors that also give R = ♯theta; raises
    StructureError where :func:`reeb` does."""
    _, (u, s, vt) = reeb_from(*spec.at(at, check_domain))
    return np.asarray(alpha, dtype=float) @ u / s @ vt
