"""Extrapolated proximal subgradient solver for difference-of-convex
composite problems, with sparse-recovery and power-flow case studies."""

from .baselines import BaselineParams, gppa_solve, pdcae_solve
from .linop import LinearMap
from .oracles import Loss, norm_subgradient, soft_threshold
from .polyhedron import (
    InfeasiblePolyhedronError,
    PolyhedralSet,
    PolyhedronProjector,
    ProjectionError,
)
from .problem import (
    IterateTrace,
    ProblemSpec,
    SolveReport,
    SolverParams,
    tau_upper_bound,
)
from .psg import lyapunov_c, solve, tail_linear_fit

__all__ = [
    "BaselineParams", "gppa_solve", "pdcae_solve",
    "LinearMap",
    "Loss", "norm_subgradient", "soft_threshold",
    "InfeasiblePolyhedronError", "PolyhedralSet", "PolyhedronProjector",
    "ProjectionError",
    "IterateTrace", "ProblemSpec", "SolveReport", "SolverParams",
    "tau_upper_bound",
    "lyapunov_c", "solve", "tail_linear_fit",
]

__version__ = "0.1.0"
