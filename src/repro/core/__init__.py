"""The DS-GL core: real-valued dynamical systems for graph learning.

This package implements the paper's primary contribution — the Real-Valued
DSPU model (Sec. III): the quadratic-self-reaction Hamiltonian, the analog
node dynamics and their simulator, the training regression, and natural-
annealing inference.
"""

from .annealing import (
    AnnealingController,
    ConstantSchedule,
    CosineSchedule,
    GeometricSchedule,
    LinearSchedule,
    Schedule,
    schedule_from_name,
)
from .diagnostics import SpectrumReport, estimate_settling_ns, spectrum_report
from .dynamics import (
    BatchTrajectory,
    CircuitSimulator,
    IntegrationConfig,
    Trajectory,
)
from .hamiltonian import (
    IsingHamiltonian,
    RealValuedHamiltonian,
    symmetrize_coupling,
    validate_coupling,
)
from .inference import (
    DEFAULT_CACHE_CAPACITY,
    BatchInferenceResult,
    InferenceResult,
    NaturalAnnealingEngine,
    model_fingerprint,
)
from .metrics import mae, rmse
from .model import DSGLModel, random_sparse_mesh, random_sparse_system
from .operators import CouplingOperator, ReducedSystem, select_backend
from .stability import (
    StationaryPointReport,
    classify_stationary_points,
    convexity_margin,
    enforce_convexity,
    spectral_abscissa,
)
from .temporal import TemporalWindowing
from .training import (
    TrainingConfig,
    fit_precision,
    fit_precision_masked,
    fit_regression,
    normalization_stats,
    regression_loss,
    select_ridge,
)

__all__ = [
    "AnnealingController",
    "BatchInferenceResult",
    "BatchTrajectory",
    "CircuitSimulator",
    "ConstantSchedule",
    "CosineSchedule",
    "CouplingOperator",
    "DSGLModel",
    "GeometricSchedule",
    "InferenceResult",
    "IntegrationConfig",
    "IsingHamiltonian",
    "LinearSchedule",
    "DEFAULT_CACHE_CAPACITY",
    "NaturalAnnealingEngine",
    "model_fingerprint",
    "random_sparse_mesh",
    "random_sparse_system",
    "RealValuedHamiltonian",
    "ReducedSystem",
    "Schedule",
    "schedule_from_name",
    "SpectrumReport",
    "StationaryPointReport",
    "TemporalWindowing",
    "Trajectory",
    "TrainingConfig",
    "classify_stationary_points",
    "convexity_margin",
    "enforce_convexity",
    "estimate_settling_ns",
    "fit_precision",
    "fit_precision_masked",
    "fit_regression",
    "mae",
    "normalization_stats",
    "regression_loss",
    "rmse",
    "select_backend",
    "select_ridge",
    "spectral_abscissa",
    "spectrum_report",
    "symmetrize_coupling",
    "validate_coupling",
]
