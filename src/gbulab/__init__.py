"""gbulab: a desk-scale laboratory for degenerate diffusion with a gradient
source term, its boundary gradient blow-up, and the quantitative properties
of its solutions (extremum/ordering principles, barrier certificates,
boundary gradient profile, time-derivative regularization, spectral
blow-up criterion).

The package re-exports the names a study script starts from; everything
else is imported from its module (`gbulab.stepping`, `gbulab.analysis`,
`gbulab.barriers`, ...)."""

from .analysis import (
    comparison_check,
    max_principle_check,
    monotonicity_margin,
    monotonicity_suite,
    regularizing_effect_check,
    scaling_transform_check,
)
from .grid import build_grid
from .operators import gradient_source, regularized_diffusion
from .problem import SolutionState, make_spec
from .spectral import principal_eigenpair
from .stepping import StepControl, epsilon_continuation, run, run_pair

__version__ = "0.1.0"

__all__ = [
    "SolutionState",
    "StepControl",
    "build_grid",
    "comparison_check",
    "epsilon_continuation",
    "gradient_source",
    "make_spec",
    "max_principle_check",
    "monotonicity_margin",
    "monotonicity_suite",
    "principal_eigenpair",
    "regularized_diffusion",
    "regularizing_effect_check",
    "run",
    "run_pair",
    "scaling_transform_check",
]
