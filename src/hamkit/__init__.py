"""hamkit: geometric integration for optimisation and sampling.

Dissipative Hamiltonian optimisers (flat space, Lie groups, constrained
manifolds), HMC and Langevin samplers, kernel discrepancy estimators, and a
reproducible benchmark harness.
"""

__version__ = "0.1.0"

from .core import (
    DampingSchedule,
    KineticMetric,
    PhasePoint,
    Problem,
    evaluate_hamiltonian,
)
from .errors import (
    CapabilityError,
    ConditioningError,
    ConditioningWarning,
    ConfigError,
    ConstraintSolveError,
    DivergenceError,
    DomainError,
    FitDomainError,
    GeometryError,
    HamkitError,
    NumericOverflowError,
)
from .integrators import (
    Trajectory,
    dissipative_leapfrog_step,
    fit_rate,
    gradient_flow_step,
    run_optimizer,
)
from .samplers import (
    ChainState,
    DiffusionSpec,
    complete_recipe_drift,
    hmc_draw,
    leapfrog_trajectory,
    mcmc_estimate,
    overdamped_em_step,
    run_hmc_chain,
    write_samples_csv,
)
from .discrepancies import (
    GaussianLocationModel,
    KernelSpec,
    ScoreModel,
    information_tensor,
    ksd_u_statistic,
    mmd_squared,
    natural_gradient_step,
    sm_ngd_fit,
    stein_gram,
    stein_kernel,
)
from .manifold import (
    ConstraintSet,
    MatrixGroupState,
    lie_group_step,
    project_momentum,
    rattle_step,
    run_lie_optimizer,
    run_rattle_optimizer,
    skew_part,
    so_trace_minimum,
    sphere_constraint,
    trace_objective,
)
from . import problems

__all__ = [name for name in dir() if not name.startswith("_")]
