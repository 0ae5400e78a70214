"""Almost-contact-metric machinery on the extended half-plane chart.

The (1,1)-tensor Phi is indexed by (x, y, q, p, kappa), rows = output slot.
Its last column vanishes, the last row follows from eta Phi = 0, and six
off-diagonal symmetry relations (with zeta = tau/sigma, tau = k/y^2,
sigma = 2 nu) leave ten independent components.  Fixing the four free
components (Phi_yq, Phi_yp, Phi_qp, Phi_pq) leaves two unknowns
(Phi_xy, Phi_xq) and one equation.  With u = Phi_xy/Phi_xq,
D = Phi_yp - Phi_yq and E = Phi_qp - Phi_pq, the elimination chain gives
Phi_xp = Phi_xq, Phi_qq = (u D + E)/2 and

    Phi_xx^2 + Phi_xy Phi_yx = Phi_qq^2 + Phi_qp Phi_pq

identically, so the (x, x) and (q, q) entries of Phi^2 = -I + xi (x) eta
are the same equation:

    Phi_qq^2 + 1 + Phi_qp Phi_pq = zeta Phi_xq D.

Its solutions form a curve, one point for each u.  :func:`solve_phi` takes
the point u = 1, or u = -1 where u = 1 leaves Phi_xq near 0; the two
Phi_xq differ by E/zeta, and both vanish only if E = 0 and
(D/2)^2 + 1 + Phi_qp^2 = 0, which cannot be.  Where D = 0 the equation is
((Phi_qp + Phi_pq)/2)^2 + 1 = 0, which has no root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .charts import Chart, ChartPoint, ScalarField, central_difference
from .forms import KForm, exterior_derivative
from .manifolds import CHART_XJT, ModelParameters

PHI_COORDS = ("x", "y", "q", "p", "kappa")
PASS_TOL = 1e-10  # the floor of the largest axiom residual of a passing solution
# A residual sums products of two entries of Phi (or of zeta and an entry,
# which is as large), each rounded to eps relative, so it rounds like
# eps * max|Phi|^2; and |Phi| grows like zeta = k/(2 nu y^2) at small y.  A
# passing residual is at most PASS_EPS_FACTOR times eps * max(1, max|Phi|)^2
# where that exceeds PASS_TOL.  The worst ratio seen is 2.9 over 20000
# seeded cases of criterion 07's ranges, and 1.8 over y down to 1e-8.
PASS_EPS_FACTOR = 16
RANK_TOL = 1e-8  # singular values of Phi at or below this do not count to its rank


class PhiSolveError(RuntimeError):
    def __init__(self, message: str, best_residual: float):
        super().__init__("%s (best residual %.3e)" % (message, best_residual))
        self.best_residual = best_residual


@dataclass(frozen=True)
class PhiTensor:
    entries: np.ndarray
    tau: float
    sigma: float

    @property
    def zeta(self) -> float:
        return self.tau / self.sigma

    def rank(self) -> int:
        return int(np.linalg.matrix_rank(self.entries, tol=RANK_TOL))


@dataclass(frozen=True)
class AcmsSolution:
    phi: PhiTensor
    xi: np.ndarray
    eta: np.ndarray
    g_prime: np.ndarray
    residuals: dict[str, float]
    positive_definite: bool
    free: tuple[float, float, float, float]
    point: ChartPoint
    params: ModelParameters

    INDEPENDENT_EQUATIONS = (
        "square_xx", "square_xq", "square_xp", "square_yq", "square_yp", "square_qq",
    )

    def pass_tolerance(self) -> float:
        """The largest axiom residual of a passing solution:
        max(PASS_TOL, PASS_EPS_FACTOR * eps * max(1, max|Phi|)^2)."""
        scale = max(1.0, float(np.abs(self.phi.entries).max()))
        return max(PASS_TOL, PASS_EPS_FACTOR * float(np.finfo(float).eps) * scale * scale)

    def passes(self) -> bool:
        keys = ("phi_squared", "eta_phi", "phi_xi") + self.INDEPENDENT_EQUATIONS
        tol = self.pass_tolerance()
        return all(self.residuals[k] <= tol for k in keys) and self.phi.rank() == 4


def eta_covector(params: ModelParameters, values) -> np.ndarray:
    """Contact one-form sqrt(delta) dkappa + (k/y) dx + nu(-p dq + q dp)."""
    x, y, q, p, _ = values
    return np.array(
        [params.k / y, 0.0, -params.nu * p, params.nu * q, math.sqrt(params.delta)]
    )


def xi_vector(params: ModelParameters) -> np.ndarray:
    return np.array([0.0, 0.0, 0.0, 0.0, 1.0 / math.sqrt(params.delta)])


def _tau_sigma_zeta(params: ModelParameters, y) -> tuple[float, float, float]:
    """tau = k/y^2, sigma = 2 nu and zeta = tau/sigma at ordinate y."""
    tau = params.k / y**2
    sigma = 2.0 * params.nu
    return tau, sigma, tau / sigma


def phi_hat_matrix(params: ModelParameters, values) -> np.ndarray:
    """Antisymmetric coefficient matrix of d(eta): tau on (x,y), sigma on (q,p)."""
    tau, sigma, _ = _tau_sigma_zeta(params, values[1])
    out = np.zeros((5, 5))
    out[0, 1] = tau
    out[1, 0] = -tau
    out[2, 3] = sigma
    out[3, 2] = -sigma
    return out


# --------------------------------------------------------------------------
# Component chain
# --------------------------------------------------------------------------


def _derived_components(free, unknowns) -> dict[str, float]:
    """All ten independent components from the four free ones and the two
    unknowns (Phi_xy, Phi_xq), via the elimination chain."""
    f_yq, f_yp, f_qp, f_pq = free
    f_xy, f_xq = unknowns
    f_xp = f_xq
    f_xx = -(f_xy * (f_yq + f_yp) + f_xq * (f_pq + f_qp)) / (2.0 * f_xq)
    f_qq = (f_xy * (-f_yq + f_yp) + f_xq * (-f_pq + f_qp)) / (2.0 * f_xq)
    f_yx = -(
        f_yq * (f_xy * f_yp + f_xq * f_qp) + f_yp * f_pq * f_xp
    ) / (f_xq * f_xp)
    return {
        "xx": f_xx, "xy": f_xy, "xq": f_xq, "xp": f_xp,
        "yx": f_yx, "yq": f_yq, "yp": f_yp,
        "qq": f_qq, "qp": f_qp, "pq": f_pq,
    }


def assemble_phi(components: Mapping[str, float], params: ModelParameters, values) -> np.ndarray:
    """Full 5x5 tensor from the ten independent components: the symmetry
    relations fill rows q and p, the eta Phi = 0 relations fill row kappa and
    the last column vanishes."""
    x, y, q, p, _ = values
    k, nu = params.k, params.nu
    sd = math.sqrt(params.delta)
    _, _, zeta = _tau_sigma_zeta(params, y)
    c = components
    phi = np.zeros((5, 5))
    phi[0, :4] = (c["xx"], c["xy"], c["xq"], c["xp"])
    phi[1, :4] = (c["yx"], -c["xx"], c["yq"], c["yp"])
    phi[2, :4] = (-zeta * c["yp"], zeta * c["xp"], c["qq"], c["qp"])
    phi[3, :4] = (zeta * c["yq"], -zeta * c["xq"], c["pq"], -c["qq"])
    phi[4, 0] = -((k / y) * c["xx"] + nu * zeta * p * c["yp"] + nu * zeta * q * c["yq"]) / sd
    phi[4, 1] = -((k / y) * c["xy"] - nu * zeta * p * c["xp"] - nu * zeta * q * c["xq"]) / sd
    phi[4, 2] = -((k / y) * c["xq"] - nu * p * c["qq"] + nu * q * c["pq"]) / sd
    phi[4, 3] = -((k / y) * c["xp"] - nu * p * c["qp"] - nu * q * c["qq"]) / sd
    phi += 0.0  # a zero entry is +0.0, not the chain's -0.0
    return phi


def assemble_g_prime(components: Mapping[str, float], params: ModelParameters, values) -> np.ndarray:
    """Candidate metric in the printed layout (upper triangle mirrored)."""
    x, y, q, p, _ = values
    k, nu = params.k, params.nu
    sd = math.sqrt(params.delta)
    tau, sigma, _ = _tau_sigma_zeta(params, y)
    c = components
    g = np.zeros((5, 5))
    g[0, 0] = k**2 / y**2 - tau * c["xx"]
    g[0, 1] = tau * c["xx"]          # -tau Phi_yy
    g[0, 2] = -nu * k * p / y - tau * c["yq"]
    g[0, 3] = nu * k * q / y - tau * c["yp"]
    g[0, 4] = k * sd / y
    g[1, 1] = tau * c["xy"]
    g[1, 2] = tau * c["xq"]
    g[1, 3] = tau * c["xp"]
    g[2, 2] = nu**2 * p**2 - sigma * c["pq"]
    g[2, 3] = -(nu**2) * p * q - sigma * c["qq"]
    g[2, 4] = -nu * sd * p
    g[3, 3] = nu**2 * q**2 + sigma * c["qp"]
    g[3, 4] = nu * sd * q
    g[4, 4] = params.delta
    for i in range(5):
        for j in range(i):
            g[i, j] = g[j, i]
    return g


def metric_from_defining_relation(phi: np.ndarray, params: ModelParameters, values) -> np.ndarray:
    """eta (x) eta - PhiHat Phi, the metric the axiom chain actually defines.

    Kept separate from :func:`assemble_g_prime` so the solver can report the
    entrywise deviation between the printed matrix and this one.
    """
    eta = eta_covector(params, values)
    return np.outer(eta, eta) - phi_hat_matrix(params, values) @ phi


_BRANCH_FLOOR = 1e-6  # |Phi_xq| below this leaves the branch Phi_xy = Phi_xq


def solve_phi(free, params: ModelParameters, at) -> AcmsSolution:
    """The almost-contact-metric candidate (Phi, xi, eta, g') at a point, in
    the closed form of the module docstring.

    ``free`` fixes (Phi_yq, Phi_yp, Phi_qp, Phi_pq).  Positive definiteness
    of g' is reported as a diagnostic, never imposed.  PhiSolveError is
    raised where Phi_yq = Phi_yp, with the equation's constant value as the
    best residual, and where the components are not finite, with an inf
    best residual and no warning.
    """
    point = CHART_XJT.point(at)
    free = tuple(float(v) for v in free)
    if len(free) != 4:
        raise ValueError("free components are (Phi_yq, Phi_yp, Phi_qp, Phi_pq)")
    f_yq, f_yp, f_qp, f_pq = free
    d, e = np.float64(f_yp - f_yq), f_qp - f_pq
    if d == 0.0:
        half = (f_qp + f_pq) / 2.0
        raise PhiSolveError("Phi_yq = Phi_yp leaves no root", half * half + 1.0)
    with np.errstate(all="ignore"):  # _finish refuses a component that is not finite
        _, _, zeta = _tau_sigma_zeta(params, point.array[1])
        qq = (d + e) / 2.0
        u, xq = 1.0, (qq * qq + 1.0 + f_qp * f_pq) / (zeta * d)
        if abs(xq) < _BRANCH_FLOOR:
            u, xq = -1.0, xq - e / zeta
        return _finish(free, (u * xq, xq), params, point)


def _finish(free, unknowns, params, point) -> AcmsSolution:
    values = point.array
    tau, sigma, zeta = _tau_sigma_zeta(params, values[1])
    comp = _derived_components(free, unknowns)
    phi = assemble_phi(comp, params, values)
    eta = eta_covector(params, values)
    xi = xi_vector(params)
    g_prime = assemble_g_prime(comp, params, values)
    g_defining = metric_from_defining_relation(phi, params, values)

    c = comp
    eq = {
        "square_xx": c["xx"] ** 2 + c["xy"] * c["yx"]
        + zeta * (c["xp"] * c["yq"] - c["xq"] * c["yp"]) + 1.0,
        "square_xq": c["xq"] * (c["xx"] + c["qq"]) + c["xy"] * c["yq"] + c["xp"] * c["pq"],
        "square_xp": c["xp"] * (c["xx"] - c["qq"]) + c["xy"] * c["yp"] + c["xq"] * c["qp"],
        "square_yq": c["yq"] * (c["qq"] - c["xx"]) + c["yx"] * c["xq"] + c["yp"] * c["pq"],
        "square_yp": -c["yp"] * (c["xx"] + c["qq"]) + c["yx"] * c["xp"] + c["yq"] * c["qp"],
        "square_qq": zeta * (c["xp"] * c["yq"] - c["yp"] * c["xq"])
        + c["qq"] ** 2 + c["qp"] * c["pq"] + 1.0,
    }
    residuals = {k: abs(v) for k, v in eq.items()}
    residuals["phi_squared"] = float(
        np.abs(phi @ phi + np.eye(5) - np.outer(xi, eta)).max()
    )
    residuals["eta_phi"] = float(np.abs(eta @ phi).max())
    residuals["phi_xi"] = float(np.abs(phi @ xi).max())
    residuals["eta_xi"] = abs(float(eta @ xi) - 1.0)
    residuals["printed_vs_defining_metric"] = float(np.abs(g_prime - g_defining).max())
    residuals["defining_metric_symmetry"] = float(
        np.abs(g_defining - g_defining.T).max()
    )
    if not all(map(math.isfinite, residuals.values())):
        raise PhiSolveError("the components are not finite", math.inf)
    eigenvalues = np.linalg.eigvalsh(g_prime)
    return AcmsSolution(
        phi=PhiTensor(entries=phi, tau=tau, sigma=sigma),
        xi=xi,
        eta=eta,
        g_prime=g_prime,
        residuals=residuals,
        positive_definite=bool(eigenvalues.min() > 0.0),
        free=free,
        point=point,
        params=params,
    )


# --------------------------------------------------------------------------
# Negative witness
# --------------------------------------------------------------------------


def ppp_negative_witness(params: ModelParameters, at) -> float:
    """Strictly positive obstruction k tau / (y g_xx) = 2k/y certifying that
    no Phi is compatible with the invariant metric (alpha = k/2)."""
    values = CHART_XJT.values(at)
    y = values[1]
    tau = params.k / y**2
    g_xx = (params.k / 2.0) / y**2
    return params.k * tau / (y * g_xx)


# --------------------------------------------------------------------------
# Nijenhuis obstruction
# --------------------------------------------------------------------------


def nijenhuis_n1(
    phi,
    eta: KForm,
    xi,
    at,
    convention: str = "factor1",
) -> float:
    """Max-norm of the normality obstruction [Phi, Phi] + f * d(eta) (x) xi
    over coordinate vector-field pairs, with f = 1 or 2 by convention.

    ``phi`` is a constant matrix or a callable values -> matrix; entry
    derivatives come from symbolic d(eta) coefficients and central FD on the
    Phi entries.  With the determinant pairing used throughout this package,
    the canonical 3-dimensional potential structures are normal under
    ``factor1``; ``factor2`` doubles the correction term.
    """
    if convention not in ("factor1", "factor2"):
        raise ValueError("convention must be factor1 or factor2")
    factor = 1.0 if convention == "factor1" else 2.0
    chart = eta.chart
    point = chart.point(at)
    values = point.array
    dim = chart.dimension

    if callable(phi):
        phi_fn = phi
    else:
        const = np.asarray(phi, dtype=float)
        phi_fn = lambda _v: const
    xi_vec = xi(values) if callable(xi) else np.asarray(xi, dtype=float)

    phi0 = phi_fn(values)
    # dphi[m] = d(Phi)/d(coord m)
    dphi = np.array([central_difference(phi_fn, values, m) for m in range(dim)])

    d_eta = exterior_derivative(eta).at(point).as_matrix()

    worst = 0.0
    for i in range(dim):
        for j in range(i + 1, dim):
            bracket = (
                np.einsum("m,ml->l", phi0[:, i], dphi[:, :, j])
                - np.einsum("m,ml->l", phi0[:, j], dphi[:, :, i])
                + phi0 @ dphi[j][:, i]
                - phi0 @ dphi[i][:, j]
            )
            n1 = bracket + factor * d_eta[i, j] * xi_vec
            worst = max(worst, float(np.abs(n1).max()))
    return worst


# --------------------------------------------------------------------------
# Sasakian structures from a potential
# --------------------------------------------------------------------------

CHART_SASAKI = Chart("sasaki3", ("x", "y", "kappa"))


@dataclass(frozen=True)
class SasakiPotential:
    """kappa-independent potential K(x, y) on a 3-chart (x, y, kappa)."""

    K: ScalarField

    def __post_init__(self):
        chart = self.K.chart
        if "kappa" not in chart.coordinates:
            raise ValueError("potential chart needs a kappa coordinate")
        if not self.K.partial("kappa").is_zero():
            raise ValueError("potential must not depend on kappa")

    @property
    def chart(self) -> Chart:
        return self.K.chart


@dataclass(frozen=True)
class SasakiStructure:
    chart: Chart
    xi: np.ndarray
    eta: KForm
    d_eta: KForm
    metric: Callable[[np.ndarray], np.ndarray]
    phi: Callable[[np.ndarray], np.ndarray]


def sasaki_from_potential(potential: SasakiPotential | ScalarField) -> SasakiStructure:
    """(xi, eta, d eta, g, Phi) generated by a potential via the Wirtinger
    split over real coordinates:

        eta = dkappa + K_y dx - K_x dy
        d eta = -(K_xx + K_yy) dx ^ dy
        g = eta (x) eta - (K_xx + K_yy) (dx^2 + dy^2)
        Phi = g^{-1} D,  D the antisymmetric matrix of d eta.
    """
    if isinstance(potential, ScalarField):
        potential = SasakiPotential(potential)
    K = potential.K
    chart = potential.chart
    k_x = K.partial("x")
    k_y = K.partial("y")
    laplacian = k_x.partial("x") + k_y.partial("y")

    eta = KForm.one_form(chart, {"kappa": 1.0, "x": k_y, "y": -k_x})
    d_eta = exterior_derivative(eta)
    ik = chart.index("kappa")
    xi = np.zeros(chart.dimension)
    xi[ik] = 1.0

    def metric(values) -> np.ndarray:
        point = chart.point(values)
        ev = eta.at(point).as_covector()
        lap = laplacian.value(point)
        g = np.outer(ev, ev)
        g[chart.index("x"), chart.index("x")] += -lap
        g[chart.index("y"), chart.index("y")] += -lap
        return g

    def phi(values) -> np.ndarray:
        point = chart.point(values)
        lap = laplacian.value(point)
        if abs(lap) < 1e-12:
            raise ValueError(
                "degenerate potential: K_xx + K_yy vanishes at %s" % point.array.tolist()
            )
        g = metric(point)
        d = d_eta.at(point).as_matrix()
        return np.linalg.solve(g, d)

    return SasakiStructure(
        chart=chart, xi=xi, eta=eta, d_eta=d_eta, metric=metric, phi=phi
    )


def heisenberg_potential() -> SasakiPotential:
    """K = -y^2/2, the potential of the canonical 3-dimensional model."""
    return SasakiPotential(ScalarField.parse(CHART_SASAKI, "-(y^2)/2"))
