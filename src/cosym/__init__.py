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
from .almost_contact import (
    AcmsSolution,
    PhiSolveError,
    PhiTensor,
    nijenhuis_n1,
    ppp_negative_witness,
    sasaki_from_potential,
    solve_phi,
)
from .jacobi_flows import (
    LinearHamiltonianCoefficients,
    energy,
    eom,
    paper_discrepancy_report,
    red_green_decomposition,
    riccati_rhs,
    split_energy,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
