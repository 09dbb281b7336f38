"""Midpoint Langevin discretizations with anticipating-Girsanov path weights.

The package simulates midpoint discretizations of overdamped and underdamped
Langevin dynamics, computes their pathwise change-of-measure weights against
the continuous diffusion through finite-dimensional Malliavin calculus
(derivative blocks, Skorohod adjoint, Carleman–Fredholm determinant), and
estimates KL and Rényi divergences between the algorithm and diffusion path
laws.  A config-driven CLI wires these pieces into deterministic experiments
and a twelve-point acceptance suite.
"""

from .acceptance import (
    DEFAULT_SEED,
    AcceptanceSuite,
    CriterionResult,
)
from .affine import (
    quadratic_path_kl,
    scheme_marginal_gaussian,
    step_maps_for_schedule,
)
from .config import ConfigError, ExperimentConfig, load_config, load_config_file
from .divergences import (
    DivergenceEstimate,
    LocalErrorReport,
    SlopeFit,
    estimate_kl,
    estimate_renyi,
    fit_loglog_slope,
    gaussian_kl,
    local_error_sweep,
)
from .engine import (
    SCHEMES,
    Scheme,
    WeightRun,
    generic_log_weights,
    run_weights,
    scheme_for,
    start_states,
    sweep_weights,
)
from .experiments import Check, RunResult, run, run_experiment
from .girsanov import (
    BlockSummary,
    LogWeight,
    MalliavinBlocks,
    TraceDiagnostics,
    block_summary_dense,
    block_summary_dmulmc,
    block_summary_mlmc,
    block_summary_ulmc,
    carleman_fredholm_logdet,
    drift_basis_dmulmc,
    drift_mlmc,
    drift_ulmc,
    summary_log_weight,
    trace_diagnostics_mlmc,
    trace_square_mlmc,
)
from .integrators import (
    OverdampedTrajectory,
    UnderdampedTrajectory,
    simulate_dmulmc,
    simulate_mlmc,
    simulate_ulmc,
)
from .paths import (
    NoisePath,
    OverdampedSchedule,
    TimeGrid,
    UnderdampedSchedule,
    noise_matrix,
    refine_noise,
)
from .potentials import (
    AnisotropicQuadratic,
    IsotropicQuadratic,
    LogCoshProduct,
    PerturbedQuadratic,
    Potential,
    stationary_moments,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED",
    "AcceptanceSuite",
    "AnisotropicQuadratic",
    "BlockSummary",
    "Check",
    "ConfigError",
    "CriterionResult",
    "DivergenceEstimate",
    "ExperimentConfig",
    "IsotropicQuadratic",
    "LocalErrorReport",
    "LogCoshProduct",
    "LogWeight",
    "MalliavinBlocks",
    "NoisePath",
    "OverdampedSchedule",
    "OverdampedTrajectory",
    "PerturbedQuadratic",
    "Potential",
    "RunResult",
    "SCHEMES",
    "Scheme",
    "SlopeFit",
    "TimeGrid",
    "TraceDiagnostics",
    "UnderdampedSchedule",
    "UnderdampedTrajectory",
    "WeightRun",
    "block_summary_dense",
    "block_summary_dmulmc",
    "block_summary_mlmc",
    "block_summary_ulmc",
    "carleman_fredholm_logdet",
    "drift_basis_dmulmc",
    "drift_mlmc",
    "drift_ulmc",
    "estimate_kl",
    "estimate_renyi",
    "fit_loglog_slope",
    "gaussian_kl",
    "generic_log_weights",
    "load_config",
    "load_config_file",
    "local_error_sweep",
    "noise_matrix",
    "quadratic_path_kl",
    "refine_noise",
    "run",
    "run_experiment",
    "run_weights",
    "scheme_for",
    "scheme_marginal_gaussian",
    "simulate_dmulmc",
    "simulate_mlmc",
    "simulate_ulmc",
    "start_states",
    "stationary_moments",
    "summary_log_weight",
    "step_maps_for_schedule",
    "sweep_weights",
    "trace_diagnostics_mlmc",
    "trace_square_mlmc",
    "__version__",
]
