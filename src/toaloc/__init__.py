"""Round-trip TOA localization and clock synchronization toolkit."""

from .scenario import (
    SPEED_OF_LIGHT,
    AnchorSet,
    NoiseSpec,
    ResponseSchedule,
    Scenario,
    UdState,
    benchmark_scenario,
)
from .measurement import (
    DegenerateGeometry,
    InvalidNoise,
    ToaMeasurementSet,
    generate,
)
from .estimator import (
    EstimateReport,
    InsufficientMeasurements,
    Mode,
    ParamVector,
    SingularNormalEquations,
    SolverConfig,
    default_initial,
    design_matrix,
    gauss_newton_step,
    model_h,
    solve,
)
from .analysis import (
    BiasReport,
    FimReport,
    check_known_velocity_advantage,
    check_two_way_advantage,
    fim,
    stationary_assumption_bias,
    velocity_mismatch_bias,
)
from .montecarlo import ExperimentConfig, SweepPointSummary, run_experiment, run_trial

__all__ = [
    "SPEED_OF_LIGHT",
    "AnchorSet",
    "UdState",
    "ResponseSchedule",
    "NoiseSpec",
    "Scenario",
    "benchmark_scenario",
    "ToaMeasurementSet",
    "generate",
    "DegenerateGeometry",
    "InvalidNoise",
    "Mode",
    "ParamVector",
    "SolverConfig",
    "EstimateReport",
    "InsufficientMeasurements",
    "SingularNormalEquations",
    "model_h",
    "design_matrix",
    "gauss_newton_step",
    "solve",
    "default_initial",
    "FimReport",
    "BiasReport",
    "fim",
    "check_known_velocity_advantage",
    "check_two_way_advantage",
    "stationary_assumption_bias",
    "velocity_mismatch_bias",
    "ExperimentConfig",
    "SweepPointSummary",
    "run_experiment",
    "run_trial",
]

__version__ = "0.1.0"
