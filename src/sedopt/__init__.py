"""Optimal sediment-replenishment threshold policies for dam-downstream
storage under randomly observed, Markov-modulated river flow.

Subpackages: `regime` (flow Markov chain), `transport` (bedload rates),
`analytic` (single-regime closed forms), `pde` (WENO3 finite difference
solver and policy extraction), `mc` (event-driven Monte Carlo
verification), `cli` (command line).
"""

from .analytic import (
    BENCHMARK,
    CostSpec,
    ErgodicSolution,
    ScalarProblem,
    SmoothSolution,
    candidate_coefficients,
    complete_info_threshold,
    ergodic_threshold,
    evaluate_candidate,
    solve_smooth_pasting,
    threshold_sensitivity_sign,
)
from .errors import (
    ConvergenceError,
    DomainError,
    InputError,
    NoInteriorThresholdError,
    SedoptError,
    StructureError,
)
from .mc import (
    CostEstimate,
    PathRecord,
    StoragePath,
    estimate_cost,
    policy_gap_check,
    simulate_controlled,
    simulate_storage,
)
from .pde import (
    Grid,
    SolveResult,
    SolverConfig,
    ThresholdPolicy,
    ValueField,
    convergence_study,
    extract_policy,
    residual,
    solve_stationary,
    solve_with_ambiguity,
    weno3_left_derivative,
)
from .regime import (
    DischargeSeries,
    RegimeChain,
    RegimePath,
    bin_discharge,
    check_rates,
    estimate_chain,
    sample_regime_path,
    stationary_distribution,
)
from .transport import (
    SedimentProperties,
    normalized_rate,
    rates_for_chain,
    shear_stress,
    transport_rate_physical,
)

__version__ = "0.1.0"
