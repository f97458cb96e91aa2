"""Day-to-day travel choice evolution of strategic commuters as a mean field game."""

from .core import (
    CostModel,
    InvalidInputError,
    NumericError,
    SolverFailure,
    backward_induction,
    bellman_apply,
    dist_distance,
    forward_propagate,
    forward_step,
    policy_evaluate,
    uniform_distribution,
    uniform_policy_seq,
)
from .fictitious import (
    FPConfig,
    SolverReport,
    exploitability,
    fictitious_play,
    fp_average_policy,
)
from .stationary import (
    StationaryPair,
    augmented_cost_profile,
    omega_bound_check,
    smfe_residuals,
    solve_smfe,
    value_gap_check,
)

__version__ = "0.1.0"
