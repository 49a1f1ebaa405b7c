"""Overlapping space-time splitting schemes for degenerate diffusion.

The package discretizes equations of the form

    d/dt (gamma * u) - div alpha(t, grad u) + beta(t, u) + f(t) = 0

with zero-flux boundary conditions and vanishing initial capacity gamma*u,
decomposes the domain into overlapping strips with weight partitions of
unity, and solves the space-time system by alternating (Peaceman-Rachford,
Douglas-Rachford) or additive resolvent splitting, including the
exponentially shifted variant of the additive scheme.  A monolithic
space-time solver provides the comparison target for convergence traces.
"""

from .decomposition import Decomposition, Subdomain, WeightFamily, build_decomposition
from .errors import ConfigurationError, NumericError, SolverError
from .iteration import (
    IterationTrace,
    RunResult,
    SchemeConfig,
    run_scheme,
)
from .mesh import Mesh, QuadratureRule, build_mesh
from .models import (
    PStructureModel,
    PStructureReport,
    SourceTerm,
    anti_monotone_model,
    check_p_structure,
    constant_gamma,
    indicator_gamma,
    monotonicity_constant,
    p_laplace_model,
    p_structure_margins,
    zero_source,
)
from .operators import (
    OperatorContext,
    TimeGrid,
    apply_A,
    apply_F,
    build_context,
    h_inner,
    h_norm,
    k_functional,
    primal_F,
    v_norm_p,
)
from .reference import (
    ManufacturedSolution,
    cosine_solution,
    interpolate_exact,
    manufactured_rhs,
    solve_monolithic,
)
from .resolvent import ResolventConfig, resolvent_solve

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "NumericError", "SolverError",
    "Mesh", "QuadratureRule", "build_mesh",
    "PStructureModel", "PStructureReport", "SourceTerm",
    "anti_monotone_model", "check_p_structure", "constant_gamma",
    "indicator_gamma", "monotonicity_constant", "p_laplace_model",
    "p_structure_margins", "zero_source",
    "Decomposition", "Subdomain", "WeightFamily", "build_decomposition",
    "OperatorContext", "TimeGrid", "apply_A", "apply_F", "build_context",
    "h_inner", "h_norm", "k_functional", "primal_F", "v_norm_p",
    "ResolventConfig", "resolvent_solve",
    "ManufacturedSolution", "cosine_solution", "interpolate_exact",
    "manufactured_rhs", "solve_monolithic",
    "IterationTrace", "RunResult", "SchemeConfig", "run_scheme",
    "__version__",
]
