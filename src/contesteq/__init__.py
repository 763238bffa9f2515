"""Solvers, verifiers, and simulators for fixed-prize investment contests."""

from .best_response import (
    BestResponseResult,
    EquilibriumCertificate,
    MinerVerdict,
    NoBestResponse,
    best_response_eos,
    best_response_proportional,
    grid_oracle,
    verify_equilibrium,
)
from .core import (
    ConcentrationReport,
    ContestSpec,
    MarketShares,
    concentration,
    marginal_share,
    shares,
    utility,
)
from .dynamics import DynamicsConfig, Trajectory, run_dynamics
from .eos import (
    EosEquilibrium,
    PairwiseBound,
    enumerate_equilibria,
    invert_share_weight,
    pairwise_bound_check,
    participation_cap,
    share_weight,
    solve_for_set,
)
from .proportional import (
    ProportionalEquilibrium,
    foc_residual,
    solve_equilibrium,
    solve_threshold,
    solve_threshold_bisection,
    threshold_function,
)

__version__ = "0.1.0"

__all__ = [
    "BestResponseResult",
    "ConcentrationReport",
    "ContestSpec",
    "DynamicsConfig",
    "EosEquilibrium",
    "EquilibriumCertificate",
    "MarketShares",
    "MinerVerdict",
    "NoBestResponse",
    "PairwiseBound",
    "ProportionalEquilibrium",
    "Trajectory",
    "best_response_eos",
    "best_response_proportional",
    "concentration",
    "enumerate_equilibria",
    "foc_residual",
    "grid_oracle",
    "invert_share_weight",
    "marginal_share",
    "pairwise_bound_check",
    "participation_cap",
    "run_dynamics",
    "share_weight",
    "shares",
    "solve_equilibrium",
    "solve_for_set",
    "solve_threshold",
    "solve_threshold_bisection",
    "threshold_function",
    "utility",
    "verify_equilibrium",
]
