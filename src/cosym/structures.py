"""Classified geometric structures (theta, Omega) on odd-dimensional charts.

A structure is a one-form theta and a two-form Omega on a (2n+1)-chart with
theta ^ Omega^n != 0.  The musical isomorphism is
flat(X) = X ⌟ Omega + (X ⌟ theta) theta, with matrix F = Omega^T + theta theta^T
and det F = (theta ^ Omega^n / n!)^2, so the flat solve accepting F is the
one nondegeneracy rule, and :func:`classify` calls acos what it accepts.
theta ^ Omega^n / n! is itself the Pfaffian of [[Omega, theta], [-theta^T, 0]],
which is how :meth:`StructureSpec.volume_coefficient` computes it.
The Reeb conditions R ⌟ Omega = 0, R ⌟ theta = 1 say flat(R) = theta, so
R = sharp(theta) = F^-1 theta: :func:`reeb_from` decides F once, rank- and
residual-checks R, and keeps a solver of F that solves sharp and every
Hamiltonian, gradient and evolution field at that point.  Every solve goes
through numpy's own LAPACK gufuncs: where the determinant certificate of
:func:`_certified` proves the rank rule, at a point or at every row of a
stack, F is solved by LU (``solve1``), one LAPACK call per right-hand
side; elsewhere a point's F is decided and
solved by its SVD (``np.linalg.svd``), so ``reeb`` equals
``reeb_from(*spec.at(point))[0]``.  :func:`reeb_from` is the one point
solve: :meth:`StructureSpec._solved` calls it, and so does
:func:`cosym.dynamics.hamiltonian_field_generic` on views of its joint read
of the kept structure and Hamiltonian kernels.  :func:`reeb_rows` solves
all rows of a trajectory or probe set: by one batched LU where the
certificate proves the rank rule at every row, else row by row through
:func:`reeb_from`; it needs R only, never the solver.  :func:`classify`
reads theta, Omega, dtheta and dOmega at its probes, the points of
:func:`halton`, through one kernel of its own, built per call and not kept.

A spec has one cache per use.  The single-point readers,
:meth:`StructureSpec.at`, :func:`reeb`, :func:`sharp` and the field solves
of :mod:`cosym.dynamics`, walk theta's and Omega's trees and keep the last
point: theta and Omega, and once taken, :func:`reeb_from`'s (R, solver)
there, keyed by the exact bytes of the coordinates.  A repeat reads it, so
one point is walked and certified once; what they hand out is a copy.
Public readers check a point before the lookup, and an error is never
kept.  theta and Omega compile into one straight-line kernel on request
(:meth:`StructureSpec.kernel`), which serves only
:meth:`StructureSpec.rows` and the joint read of
:func:`cosym.dynamics.hamiltonian_field_generic`, the right-hand side of
:func:`cosym.dynamics.integrate`; kernel and walk agree bit for bit.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np
from numpy.linalg import _umath_linalg  # numpy's LAPACK gufuncs, without the wrappers

from .charts import Chart, ChartPoint
from .expressions import EvalError, Expr, Kernel, Mul, Name, Neg, Num
from . import forms
from .forms import KForm

CLASSIFY_TOL = 1e-9
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


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


def _pfaffian(a: np.ndarray) -> float:
    """Pfaffian of an even-sized antisymmetric matrix, which it overwrites:
    Parlett-Reid elimination with pivoting (Wimmer, ACM TOMS 38, 2012)."""
    pf = 1.0
    for k in range(0, len(a) - 1, 2):
        kp = k + 1 + int(np.argmax(np.abs(a[k + 1:, k])))
        if kp != k + 1:  # swap k+1 and kp in rows and columns
            a[[k + 1, kp]] = a[[kp, k + 1]]
            a[:, [k + 1, kp]] = a[:, [kp, k + 1]]
            pf = -pf
        if a[k + 1, k] == 0.0:
            return 0.0
        pf *= a[k, k + 1]
        update = np.outer(a[k, k + 2:] / a[k, k + 1], a[k + 2:, k + 1])
        a[k + 2:, k + 2:] += update - update.T
    return pf


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
        self._classifications: dict[int, StructureClass] = {}  # per seed, default probes
        self._kernel: Kernel | None = None
        self._last: list | None = None  # the kept point; see _point

    # -- pointwise data ------------------------------------------------------

    def kernel(self) -> Kernel:
        """theta and Omega as one straight-line kernel, built on first
        request and kept, for :meth:`rows` and the flow's right-hand side.
        It returns theta's dim entries, then Omega's dim x dim entries row
        by row, zeros and the negated lower triangle included."""
        if self._kernel is None:
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

    def _point(self, values: np.ndarray) -> list:
        """[key, theta, Omega, solve] at ``values``: the kept last point when
        the coordinates have its bytes, else a walk of theta's and then
        Omega's trees, whose errors are the reference, kept in its place.
        ``solve`` is :func:`reeb_from`'s (R, solver) once :meth:`_solved`
        has taken it.  The kept arrays are shared, so they are read, never
        handed out."""
        key, last = values.tobytes(), self._last
        if last is None or last[0] != key:
            last = self._last = [key, self.theta._at(values).as_covector(),
                                 self.omega._at(values).as_matrix(), None]
        return last

    def at(self, at):
        """(theta, Omega, values) at a point: theta (dim,) and Omega
        (dim, dim) as new arrays, read as :meth:`_point` reads them;
        ``values`` are the point's coordinates as the chart reads them."""
        values = self.chart.values(at)
        _, th, om, _ = self._point(values)
        return th.copy(), om.copy(), values

    def _solved(self, values: np.ndarray):
        """(theta, Omega, R, solver) at unchecked coordinates: :meth:`at`'s
        theta and Omega and :func:`reeb_from`'s solve, each read from the kept
        last point when it is there and kept with it otherwise.  The arrays
        may be the kept ones: read them, and copy what is handed out."""
        point = self._point(values)
        if point[3] is None:
            point[3] = reeb_from(point[1], point[2], values)
        return (point[1], point[2], *point[3])

    def rows(self, states):
        """(theta, Omega) at every row of an (N, dim) array, shaped (N, dim)
        and (N, dim, dim), without domain checks, bit for bit as :meth:`at`
        gives them: from the kept kernel when it is finite at every row, else
        row by row as :meth:`at` reads a point, so that the first failing row
        raises the pointwise error.  Never builds a kernel."""
        states = np.asarray(states, dtype=float)
        out = None if self._kernel is None else self._kernel.finite_rows(states)
        n, dim = states.shape
        if out is not None:
            return (np.ascontiguousarray(out[:, :dim]),
                    np.ascontiguousarray(out[:, dim:]).reshape(n, dim, dim))
        th, om = np.empty((n, dim)), np.empty((n, dim, dim))
        for k, row in enumerate(states):
            _, th[k], om[k], _ = self._point(row)
        return th, om

    def flat_matrix(self, at) -> np.ndarray:
        return flat_from(*self.at(at)[:2])

    def volume_coefficient(self, at) -> float:
        """Top coefficient of theta ^ Omega^n (the chart's volume density).

        The value is un-normalised: there is no 1/n! factor, so for
        ``xjt_gtacos`` it is 4 k nu sqrt(delta) / y^2, twice the top
        coefficient of the Liouville-normalised theta ^ Omega^2 / 2!.
        It is n! Pf(B) for B = [[Omega, theta], [-theta^T, 0]], from the
        theta and Omega that :meth:`at` reads; raises EvalError when it
        overflows.
        """
        th, om, values = self.at(at)
        dim = len(values)
        b = np.zeros((dim + 1, dim + 1))
        b[:dim, :dim], b[:dim, dim], b[dim, :dim] = om, th, -th
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            # n! as a float product: inf, not OverflowError, beyond n = 170
            volume = math.prod(range(2, self.n + 1), start=1.0) * float(_pfaffian(b))
        if not math.isfinite(volume):
            raise EvalError(
                "volume coefficient is not finite at %s: %r" % (values.tolist(), volume)
            )
        return volume

    # -- probe sampling -------------------------------------------------------

    def default_probes(self, count: int = 64, seed: int = 42) -> list[ChartPoint]:
        """The first ``count`` points of the scrambled Halton sequence of
        ``seed`` (:func:`halton`, scipy's ``qmc.Halton``) scaled into the
        chart's sample box, each checked in-domain."""
        box = self.chart.sample_box()
        raw = halton(count, self.chart.dimension, seed)
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
        pts = lo + raw * (hi - lo)
        return [self.chart.point(row) for row in pts]

    def classification(self, seed: int = 42) -> StructureClass:
        """:func:`classify` at the default probes for ``seed``, kept per seed."""
        if seed not in self._classifications:
            self._classifications[seed] = classify(self, seed=seed)
        return self._classifications[seed]

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
# Probe sequence
# --------------------------------------------------------------------------


def _primes(count: int) -> list[int]:
    out, k = [], 2
    while len(out) < count:
        if all(k % p for p in out if p * p <= k):
            out.append(k)
        k += 1
    return out


@functools.lru_cache(maxsize=16)
def _halton_kept(d: int, seed: int) -> list:
    """[digit tables, points] of the scrambled Halton sequence of (d, seed).

    Base b, the i-th prime, gets m = ceil(54 / log2 b) - 1 digit
    permutations, each an ``rng.shuffle`` of ``arange(b)``, drawn in
    dimension order from ``default_rng(seed)``, and digit j weighs
    ``perm[j, digit] * scale[j]``, where scale starts at 1/b and is divided
    by b per digit (Owen's scrambled Halton, as scipy's ``qmc.Halton``
    draws and sums it).  A table is (b^j, b, the weights); ``points`` is
    the longest read-only prefix computed so far."""
    rng = np.random.default_rng(seed)
    tables = []
    for base in _primes(d):
        m = math.ceil(54 / math.log2(base)) - 1
        perms = np.repeat(np.arange(base)[None], m, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        scales, b2r = np.empty(m), 1.0 / base
        for j in range(m):
            scales[j] = b2r
            b2r /= base
        tables.append((base ** np.arange(m), base, perms * scales[:, None]))
    return [tables, np.empty((0, d))]


def halton(count: int, d: int, seed: int) -> np.ndarray:
    """The first ``count`` points of the scrambled Halton sequence in
    [0, 1)^d as a read-only (count, d) array, equal bit for bit to scipy's
    ``qmc.Halton(d=d, seed=seed).random(count)``.  The permutations and
    the longest prefix computed are kept per (d, seed), so a shorter count
    is a prefix of a longer one."""
    count = operator.index(count)
    if count < 0:
        raise ValueError("probe count must be nonnegative, not %d" % count)
    kept = _halton_kept(d, seed)
    done = len(kept[1])
    if done < count:
        points = np.empty((count, d))
        points[:done] = kept[1]
        for start in range(done, count, 1024):  # bounds the (rows, digits) temporaries
            index = np.arange(start, min(start + 1024, count))[:, None]
            for k, (powers, base, weights) in enumerate(kept[0]):
                terms = weights[np.arange(len(powers)), index // powers % base]
                # scipy adds the digits left to right; np.sum would pair them
                points[start:start + len(index), k] = np.cumsum(terms, axis=1)[:, -1]
        points.flags.writeable = False
        kept[1] = points
    return kept[1][:count]


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
    """Sample-based classification at probe points (default the 64 of
    :meth:`StructureSpec.default_probes`): acos when :func:`reeb_rows`
    accepts theta and Omega at every probe, and dOmega = 0, dtheta = 0,
    dtheta = Omega within ``CLASSIFY_TOL`` from the largest |dOmega|,
    |dtheta| and |dtheta - Omega| over the probes (:func:`_criteria`)."""
    if probes is None:
        probes = spec.default_probes(seed=seed)
    if not probes:
        raise ValueError("probe set must be nonempty")
    probes = [spec.chart.point(pt) for pt in probes]
    acos, worst = _criteria(spec, np.array([pt.values for pt in probes]))
    d_omega_zero, d_theta_zero, contact_match = (bool(w <= CLASSIFY_TOL) for w in worst)

    eps = match_tacs_pattern(spec.theta, spec.chart) if d_omega_zero else None
    return StructureClass(
        acos=acos,
        gtacos=acos and d_omega_zero,
        cos=acos and d_omega_zero and d_theta_zero,
        contact=acos and contact_match,
        tacs=acos and d_omega_zero and eps is not None,
        tacs_epsilon=eps,
    )


def _criteria(spec: StructureSpec, points: np.ndarray) -> tuple[bool, np.ndarray]:
    """(acos, worst) at the rows of ``points``: whether :func:`reeb_rows`
    accepts theta and Omega at every row, and the largest |dOmega|,
    |dtheta| and |dtheta - Omega| over the rows.

    The four forms are read in one pass of one kernel over their nonzero
    coefficients, built for the call and not kept (:func:`_read_forms`).
    Where that kernel is not finite at every row, theta and Omega come from
    :meth:`StructureSpec.rows` and dtheta and dOmega from one walk per row,
    whose errors are the reference.  Bit for bit the same either way."""
    d_theta = forms.exterior_derivative(spec.theta)
    d_omega = forms.exterior_derivative(spec.omega)
    read = _read_forms(spec, d_theta, d_omega, points)
    th, om = spec.rows(points) if read is None else read[:2]
    try:
        reeb_rows(th, om, points)
        acos = True
    except StructureError:
        acos = False
    if read is None:
        walks = [(d_theta._at(v).as_matrix(), d_omega._at(v).max_norm()) for v in points]
        dth, dom = np.array([w[0] for w in walks]), np.array([w[1] for w in walks])
    else:
        dth, dom = read[2:]
    return acos, np.array([np.abs(dom).max(initial=0.0), np.abs(dth).max(),
                           np.abs(dth - om).max()])


def _read_forms(spec: StructureSpec, d_theta: KForm, d_omega: KForm, points: np.ndarray):
    """(theta, Omega, dtheta, dOmega) at every row of ``points``: theta
    (N, dim), Omega and dtheta (N, dim, dim) as the walks' covectors and
    matrices, and dOmega's nonzero coefficients (N, k), from one kernel's
    :meth:`Kernel.finite_rows`; None where that is None."""
    fields = [f for form in (spec.theta, spec.omega, d_theta, d_omega)
              for f in form.coeffs.values()]
    table = Kernel([f.expr for f in fields], spec.chart.coordinates,
                   [f.params for f in fields]).finite_rows(points)
    if table is None:
        return None
    n, dim = points.shape
    columns = iter(table.T)
    th = np.zeros((n, dim))
    for (i,) in spec.theta.coeffs:
        th[:, i] = next(columns)
    om, dth = np.zeros((n, dim, dim)), np.zeros((n, dim, dim))
    for out, form in ((om, spec.omega), (dth, d_theta)):
        for i, j in form.coeffs:
            out[:, i, j] = column = next(columns)
            out[:, j, i] = -column
    return th, om, dth, table[:, table.shape[1] - len(d_omega.coeffs):]


# --------------------------------------------------------------------------
# Reeb vector and musical isomorphisms
# --------------------------------------------------------------------------


def flat_from(th: np.ndarray, om: np.ndarray) -> np.ndarray:
    """Matrix of the flat map, Omega^T + theta theta^T, from the values of
    theta (dim,) and Omega (dim, dim) at one point, or from their rows
    (N, dim) and (N, dim, dim).  It is the transpose of
    Omega + theta theta^T, the same numbers since products commute, so its
    columns are contiguous and no operation reads a transposed operand."""
    return (om + th[..., :, None] * th[..., None, :]).swapaxes(-1, -2)


def reeb(spec: StructureSpec, at) -> np.ndarray:
    """The Reeb vector R = ♯theta, which solves R ⌟ Omega = 0, R ⌟ theta = 1,
    as a new array: :func:`reeb_from` at the point, or the spec's kept
    solve of its last tree-walked point on a repeat."""
    return spec._solved(spec.chart.values(at))[2].copy()


def reeb_from(th: np.ndarray, om: np.ndarray, values):
    """R = F^-1 theta and the kept solver of the flat matrix F at one point.

    ``th`` and ``om`` are theta and Omega at the point ``values``, which only
    labels the errors.  Any other right-hand side b is solved from the
    solver by :func:`_solve`.  Where :func:`_certified_at` proves the rank
    rule s_min > eps * dim * s_max (numpy's default ``matrix_rank`` rule),
    the solver is (F,), and each right-hand side, theta's included, is one
    LU solve by numpy's LAPACK gufunc ``solve1``.  Elsewhere it is F's SVD
    by ``np.linalg.svd``, (u, s, vt), and the rank rule is read from s.
    F is built with :func:`flat_from`'s operations and R as :func:`_solve`
    takes it, so the bits are theirs; the residual is read from one list of
    floats, since numpy's per-call cost on arrays this small exceeds the
    solve's.  ``th`` and ``om`` may be views (a slice of one array and its
    reshape).  Raises StructureError when F is not finite (checked before
    the SVD, which need not return on such a matrix), when F fails the rank
    rule, or when R leaves a residual above 1e-9 in R ⌟ Omega = 0,
    R ⌟ theta = 1.  Raises numpy's LinAlgError when the SVD does not
    converge.
    """
    F = (om + th[:, None] * th).T  # flat_from's operations, without its stack handling
    if _certified_at(F):
        solver = (F,)
    else:
        if not np.isfinite(F).all():
            _refuse_non_finite(F, values)
        solver = np.linalg.svd(F)
        s = solver[1]
        dim = len(s)
        if not s[-1] > _EPS * dim * s[0]:
            raise StructureError(
                "degenerate structure at %s: flat matrix has rank %d < %d"
                % (_plain(values), np.count_nonzero(s > _EPS * dim * s[0]), dim)
            )
    R = _solve(solver, th)
    # F passed the rank rule, so R and its residual are finite: no NaN can
    # hide from the max.
    error = max(map(abs, (R @ om).tolist() + [R @ th - 1.0]))
    if not error <= 1e-9:
        raise StructureError(
            "Reeb system inconsistent at %s (residual %.3e)" % (_plain(values), error)
        )
    return R, solver


def _solve(solver, b: np.ndarray) -> np.ndarray:
    """X with flat(X) = b, that is F X = b, from :func:`reeb_from`'s solver
    of F: (F,), solved by LU, or F's SVD (u, s, vt); :func:`reeb_rows`
    passes a stack as (F,).  A zero of X is +0.0 (LU's substitutions can
    round to -0.0)."""
    if len(solver) == 1:
        x = _umath_linalg.solve1(solver[0], b)
    else:
        u, s, vt = solver
        x = b @ u / s @ vt
    x += _ZERO
    return x


# A zero of a solve is made +0.0 by adding this 0-d array, which spares
# the conversion that adding the float 0.0 costs on every call.
_ZERO = np.zeros(())
_ZERO.flags.writeable = False

# The determinant certificate of :func:`reeb_from` and :func:`reeb_rows`;
# see :func:`_certified`.
_CERT_TAU = 1e-10
_CERT_MAX_DIM = 9


def reeb_rows(th: np.ndarray, om: np.ndarray, values) -> np.ndarray:
    """R = F^-1 theta at every row: ``th`` (N, dim) and ``om`` (N, dim, dim)
    are theta and Omega at the rows of ``values``, which only label the
    errors.

    The flat matrices are checked finite first (the first non-finite row is
    reported).  When :func:`_certified` proves the rank rule at every row,
    R comes from one batched LU solve, numpy's ``solve1`` over the stack,
    and is returned if every row passes :func:`reeb_from`'s residual check.
    Otherwise every row goes through :func:`reeb_from`, in order: the first
    row failing any check raises the pointwise error.  A row's certificate
    and LU solve are its point's, so the rank rule decides each row as at a
    point, each R is the point's bit for bit either way, and no SVD is taken
    when every row is certified and solved.
    """
    F = flat_from(th, om)
    if not np.isfinite(F).all():
        _refuse_non_finite(F, values)
    if _certified(F).all():
        R = _solve((F,), th)  # solve1 over the stack
        error = np.maximum(
            np.abs(R[:, None, :] @ om)[:, 0, :].max(axis=1),
            np.abs(np.einsum("ij,ij->i", R, th) - 1.0),
        )
        if (error <= 1e-9).all():
            return R
    R = np.empty(th.shape)
    for k in range(len(R)):
        R[k] = reeb_from(th[k], om[k], values[k])[0]
    return R


def _certified(F: np.ndarray) -> np.ndarray:
    """One flag per finite flat matrix of the stack ``F`` (N, dim, dim): true
    where |det(F / ||F||_F)| > tau = 1e-10 proves the rank rule
    s_min > eps * dim * s_max, for dim <= 9.

    Basis: s_max <= ||F||_F and |det F| = prod s_i <= s_min s_max^(dim-1),
    so G = F / ||F||_F has sigma_max(G) <= 1 and
    s_min / s_max >= sigma_min(G) >= |det G|.  LAPACK's LU with partial
    pivoting, from which numpy's ``det`` takes the determinant, returns
    the exact LU of G + dG with |dG_ij| <= gamma_dim * dim * 2^(dim-1),
    gamma_dim = dim u / (1 - dim u), u = 2^-53, growth at most 2^(dim-1)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Thm 9.3 and Sec. 9.4), so delta = ||dG||_2 <= gamma_dim * dim^2 *
    2^(dim-1), and sigma_min(G) >= |det(G + dG)| / (1 + delta)^(dim-1) -
    delta.  At dim = 9 delta <= 2.1e-11, so a certified row has
    s_min / s_max > 7.9e-11, far above eps * 9 = 2e-15 and above what the
    rounding of forming G, of ``det``'s sum of logarithms and its
    exponential, and of the SVD's own singular values can move; at dim = 11
    delta reaches 1.5e-10 > tau, hence the cap.  ||F||_F^2 must be a normal
    float: summed from subnormal squares it can be too small by any factor,
    which would scale det G up by that factor's dim/2-th power.  A row the
    certificate cannot prove (a larger dim, a norm that overflows or
    underflows, a determinant that underflows) is left to the SVD rule.
    :func:`_certified_at` is the same test on one matrix."""
    if F.shape[-1] > _CERT_MAX_DIM:
        return np.zeros(len(F), dtype=bool)
    with np.errstate(all="ignore"):  # an inf norm gives G = 0, a zero one NaN
        columns = F.swapaxes(-1, -2).reshape(len(F), -1)  # each F's columns in turn
        squares = np.vecdot(columns, columns)
        G = F / np.sqrt(squares)[:, None, None]
        return (np.abs(_umath_linalg.det(G)) > _CERT_TAU) & (squares >= _TINY)


def _certified_at(F: np.ndarray) -> bool:
    """:func:`_certified`'s flag for one flat matrix F (dim, dim), bit for
    bit: the same sum of squares, column by column (no copy for
    :func:`flat_from`'s F), the same G and determinant, read without the
    stack's ``errstate`` by testing the norm first.  A finite ||F||_F^2 also
    proves F finite, so a non-finite F is left to :func:`reeb_from`'s
    check."""
    if len(F) > _CERT_MAX_DIM:
        return False
    squares = float(np.vdot(F.T, F.T))
    return (_TINY <= squares < math.inf
            and abs(_umath_linalg.det(F / math.sqrt(squares))) > _CERT_TAU)


def _refuse_non_finite(F: np.ndarray, values) -> None:
    """Raise StructureError at the first point whose flat matrix in ``F``
    (one matrix or a stack) is not finite."""
    k = int(np.argmin(np.isfinite(F).all(axis=(-2, -1))))
    raise StructureError("flat matrix not finite at %s" % _plain(np.atleast_2d(values)[k]))


def _plain(values) -> list[float]:
    """The coordinates of a point as plain floats, for messages."""
    return np.asarray(values, dtype=float).tolist()


def flat(spec: StructureSpec, X, at) -> np.ndarray:
    """X -> X ⌟ Omega + (X ⌟ theta) theta as a covector at a point."""
    point = spec.chart.point(at)
    xv = X.at(point) if hasattr(X, "at") else np.asarray(X, dtype=float)
    return spec.flat_matrix(point) @ xv


def sharp(spec: StructureSpec, alpha, at) -> np.ndarray:
    """Inverse of flat, solved by the solver of F that also gives
    R = ♯theta (see :func:`reeb_from`); raises StructureError where
    :func:`reeb` does.  Repeats at one point reuse the spec's kept solver,
    so many right-hand sides there cost one certificate and one solve
    each."""
    return _solve(spec._solved(spec.chart.values(at))[3], np.asarray(alpha, dtype=float))
