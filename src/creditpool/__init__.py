"""Default clustering in large credit pools.

Simulate a finite pool of self-exciting default intensities tied together
by contagion jumps and a shared systematic factor, compute the
deterministic limit of the pool default rate as the pool grows, and
verify empirically that the two agree.
"""

__version__ = "0.1.0"

from .convergence import (
    ConvergenceCell,
    ConvergenceReport,
    figure_sweep,
    lln_experiment,
    q_identity_diagnostic,
)
from .errors import (
    ConfigError,
    CreditPoolError,
    NoConvergenceError,
    NonFiniteResultError,
    NonFiniteStateError,
    ValidationError,
)
from .limit import (
    LimitSolution,
    compute_f,
    f_derivative,
    riccati_for_measure,
    solve_homogeneous_f,
    solve_limit,
    solve_q,
)
from .model import (
    DEFAULT_CAP,
    DiscreteTypeMeasure,
    EpsSchedule,
    FirmType,
    SystematicFactorConfig,
    TimeGrid,
    Trajectory,
    TypeAtom,
    homogeneous_measure,
    validate_measure,
)
from .riccati import RiccatiSolution, solve_riccati
from .simulate import (
    ReplicationSet,
    SimConfig,
    SimResult,
    proportional_counts,
    run_replications,
    simulate,
)

__all__ = [
    "__version__",
    # model
    "DEFAULT_CAP", "FirmType", "TypeAtom", "DiscreteTypeMeasure", "EpsSchedule",
    "SystematicFactorConfig", "TimeGrid", "Trajectory",
    "validate_measure", "homogeneous_measure",
    # riccati / limit
    "RiccatiSolution", "solve_riccati", "riccati_for_measure",
    "LimitSolution", "solve_q", "compute_f", "f_derivative",
    "solve_homogeneous_f", "solve_limit",
    # simulation
    "SimConfig", "SimResult", "ReplicationSet",
    "simulate", "run_replications", "proportional_counts",
    # convergence lab
    "ConvergenceCell", "ConvergenceReport", "lln_experiment",
    "figure_sweep", "q_identity_diagnostic",
    # errors
    "CreditPoolError", "ValidationError", "ConfigError", "NoConvergenceError",
    "NonFiniteResultError", "NonFiniteStateError",
]
