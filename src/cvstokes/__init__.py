"""Locally conservative control-volume finite element schemes for 2D Stokes.

Four inf-sup stable discretizations built from the same enriched linear
velocity space (vertex values plus an element bubble) and linear vertex
pressure: two pure control-volume schemes (with non-overlapping and
overlapping velocity volumes), a hybrid scheme with Galerkin bubble
equations, and the classical Galerkin method.  All four share the vertex
box mass balances, are assembled into one saddle-point layout, and are
solved with a block-preconditioned GMRes whose iteration counts stay
bounded under refinement.
"""

from .basis import QuadratureRule, segment_rule, triangle_rule
from .geometry import (
    ControlVolumeSet,
    GridDiscretization,
    SchemeKind,
    build,
)
from .mesh import (
    BCKind,
    DistortionError,
    Mesh,
    MeshStats,
    MeshValidationError,
    MshParseError,
    distort,
    generate_structured,
    read_msh,
    stats,
)
from .schemes import (
    ConfigurationError,
    SaddleSystem,
    StokesProblem,
    assemble,
    split_solution,
)
from .solver import (
    BlockPreconditioner,
    BubbleStructureError,
    DirectSolveError,
    GMRESBreakdownError,
    SolveReport,
    assemble_pressure_mass,
    direct_solve,
    gmres_solve,
    random_initial_guess,
)
from .verification import (
    ConservationAudit,
    ConvergenceReport,
    ErrorNorms,
    ManufacturedCase,
    bercovier_engelman_case,
    conservation_audit,
    donea_huerta_case,
    error_norms,
    product_case,
    region_mass_balance,
    run_convergence,
    shear_flow_case,
)
from .cli_io import RunConfig, run, write_convergence_csv, write_cv_debug_vtu, write_vtu

__version__ = "0.1.0"
