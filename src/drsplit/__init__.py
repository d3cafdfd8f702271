"""Douglas-Rachford splitting for strongly convex + weakly convex objectives.

The solver minimizes h = f + g where f is strongly convex (a quadratic data
term, or 0.5||y - x||^2 on a coordinate subspace, which has no gradient) and
g is a weakly convex separable penalty such as the firm-thresholding
penalty.  Besides the iteration engines the package ships closed-form
contraction-rate calculators with empirical validation, and a
sparse-deconvolution benchmark harness with a CLI.
"""

import importlib

from .errors import (
    BoundInapplicableError,
    DivergenceError,
    FilterDesignError,
    InvalidFilterError,
    NonConvexShiftError,
    RankDeficiencyError,
    StepSizeError,
)
from .experiment import (
    EXP1,
    EXP2,
    ExperimentReport,
    ExperimentSpec,
    ProblemInstance,
    add_noise_snr,
    build_instance,
    build_subspace_demo,
    design_filter,
    generate_sparse_signal,
    run_experiment,
)
from .linalg import LinearMap, convolution_matrix
from .penalty import FirmPenalty, SeparablePenalty, ZeroPenalty
from .smooth import QuadraticTerm, SubspaceConstraint
from .solver import (
    VARIANTS,
    IterationTrace,
    Problem,
    SolverConfig,
    check_step,
    double_reflection,
    ista_step,
    reflect,
    run,
    step_bound,
)

# The rate calculators load with ``analysis`` on first use, which solving
# and the experiments never need: any name of __all__ not bound above is one.


def __getattr__(name: str):
    if name in __all__:
        return getattr(importlib.import_module(".analysis", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BoundInapplicableError",
    "DivergenceError",
    "EXP1",
    "EXP2",
    "ExperimentReport",
    "ExperimentSpec",
    "FilterDesignError",
    "FirmPenalty",
    "InvalidFilterError",
    "IterationTrace",
    "LinearMap",
    "NonConvexShiftError",
    "Problem",
    "ProblemInstance",
    "QuadraticTerm",
    "RankDeficiencyError",
    "SeparablePenalty",
    "SolverConfig",
    "StepSizeError",
    "SubspaceConstraint",
    "VARIANTS",
    "ZeroPenalty",
    "add_noise_snr",
    "build_instance",
    "build_subspace_demo",
    "check_step",
    "contraction_rate_main",
    "contraction_rate_shift",
    "convolution_matrix",
    "design_filter",
    "double_reflection",
    "empirical_lipschitz",
    "generate_sparse_signal",
    "ista_step",
    "min_rate_main",
    "rate_table",
    "reflect",
    "reflection_bound_smooth",
    "reflection_bound_weak",
    "run",
    "run_experiment",
    "shift_rate_floor",
    "step_bound",
]
