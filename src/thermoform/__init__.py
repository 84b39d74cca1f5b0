"""Contact-geometric toolkit for entropy 1-forms and material-point thermodynamics."""

from .expr import ScalarField, parse, serialize, evaluate, grad, hessian
from .geometry import (
    ContactChart,
    OneForm,
    contact_eval,
    reeb_flow,
    d_residual,
    is_closed,
    reconstruct_potential,
    low_discrepancy_samples,
    potential_form,
)
from .legendre import (
    LegendreSurface,
    ConstitutiveSurface,
    GibbsConnection,
    legendre_embed,
    surface_embed,
    pullback_contact,
    reversible_companion,
    connection_curvature,
)
from .processes import (
    ProcessCurve,
    AdmissibilityReport,
    entropy_action,
    admissibility,
    thermo_metric,
    godograph_det,
    rate_relation_residual,
    spinodal_scan,
)

__version__ = "0.1.0"
