"""Projected Ricci flow on flag manifolds with three isotropy summands.

Exact polynomial planar systems for the normalized flow, their
equilibria (the invariant Einstein metrics), basins of attraction, and
the Gromov-Hausdorff limits of collapsing directions.
"""

from .catalog import (
    BracketTable,
    EquilibriumRecord,
    FamilyDescriptor,
    GHLimitLabel,
    bracket_table,
    e6_family,
    family_from_id,
    gh_catalog,
    list_families,
    reference_equilibria,
    so_family,
    su_family,
    subalgebra_closure,
    symmetric_pair_check,
    type1_family,
)
from .polyalg import Poly
from .flowgen import (
    ProjectedField,
    cleared_field,
    lyapunov_planar,
    lyapunov_value,
    projected_field,
    ricci_components,
    scalar_curvature,
)
from .equilibria import (
    FoundEquilibrium,
    VerificationReport,
    classify_equilibrium,
    corner_class,
    find_equilibria,
    verify_catalog,
)
from .dynamics import (
    BasinGrid,
    EdgeInvarianceReport,
    LimitOutcome,
    MonotonicityReport,
    Separatrix,
    Trajectory,
    basin_map,
    edge_invariance_check,
    integrate_orbit,
    limit_of_orbit,
    monotonicity_check,
    phase_portrait,
    random_interior_points,
    separatrices,
)
from .ghlimit import (
    NotDegenerate,
    classify_limit,
    kernel_summands,
)

__version__ = "0.1.0"

__all__ = [
    "BasinGrid",
    "BracketTable",
    "EdgeInvarianceReport",
    "EquilibriumRecord",
    "FamilyDescriptor",
    "FoundEquilibrium",
    "GHLimitLabel",
    "LimitOutcome",
    "MonotonicityReport",
    "NotDegenerate",
    "Poly",
    "ProjectedField",
    "Separatrix",
    "Trajectory",
    "VerificationReport",
    "basin_map",
    "bracket_table",
    "classify_equilibrium",
    "classify_limit",
    "cleared_field",
    "corner_class",
    "e6_family",
    "edge_invariance_check",
    "family_from_id",
    "find_equilibria",
    "gh_catalog",
    "integrate_orbit",
    "kernel_summands",
    "limit_of_orbit",
    "list_families",
    "lyapunov_planar",
    "lyapunov_value",
    "monotonicity_check",
    "phase_portrait",
    "projected_field",
    "random_interior_points",
    "reference_equilibria",
    "ricci_components",
    "scalar_curvature",
    "separatrices",
    "subalgebra_closure",
    "su_family",
    "symmetric_pair_check",
    "type1_family",
    "so_family",
    "verify_catalog",
]
