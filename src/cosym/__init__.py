"""Hamiltonian dynamics on odd-dimensional charts carrying almost
cosymplectic, cosymplectic, contact or transitive almost-contact structures.

The generic flat-equation solve is the single source of truth for every
vector field; closed coordinate formulas are validated fast paths.
"""

from .charts import (
    Chart,
    ChartMap,
    ChartPoint,
    DomainError,
    Guard,
    ScalarField,
)
from .expressions import EvalError, ParseError, parse
from .forms import (
    FormValue,
    KForm,
    VectorField,
    exterior_derivative,
    interior_product,
    pullback,
    wedge,
)
from .structures import (
    CanonicalThetaSpec,
    StructureClass,
    StructureError,
    StructureSpec,
    classify,
    darboux_chart,
    flat,
    reeb,
    sharp,
)
from .dynamics import (
    Flow,
    HamiltonianFieldCoefficients,
    Trajectory,
    evolution_field,
    gradient_field,
    hamiltonian_field_closed,
    hamiltonian_field_generic,
    integrate,
    jacobi_bracket,
    poisson_bracket,
)
from .manifolds import ModelParameters, builtin, cayley_map, metric_matrix
# almost_contact and jacobi_flows (the paper's structure tensors and its
# Jacobi-group flows) load on first use: a flow, ``field`` or ``reeb``
# never needs them.
_ON_USE = {
    "almost_contact": (
        "AcmsSolution",
        "PhiSolveError",
        "PhiTensor",
        "nijenhuis_n1",
        "ppp_negative_witness",
        "sasaki_from_potential",
        "solve_phi",
    ),
    "jacobi_flows": (
        "LinearHamiltonianCoefficients",
        "energy",
        "eom",
        "paper_discrepancy_report",
        "red_green_decomposition",
        "riccati_rhs",
        "split_energy",
    ),
}
_MODULE_OF = {name: module for module, names in _ON_USE.items() for name in (module, *names)}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module

    loaded = import_module("." + module, __name__)
    value = loaded if name == module else getattr(loaded, name)
    globals()[name] = value  # later lookups skip this function
    return value


__version__ = "0.1.0"

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_MODULE_OF))
