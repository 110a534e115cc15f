"""Multipool group-testing designs with noisy-test simulation and
closed-form accuracy statistics."""

from .analytics import (
    AnalyticReport,
    ConfusionStats,
    ExpectedCounts,
    Moments,
    ScenarioParams,
    TuningResult,
    VarianceBounds,
    analytic_report,
    binary_entropy,
    confusion_stats,
    exact_moments,
    expected_counts,
    gamma,
    min_multiplicity,
    pivotal_probability,
    sensitivity,
    specificity,
    threshold_disjunct,
    threshold_info,
    type_one,
    type_two,
    variance_bounds,
)
from .design import (
    INFINITY,
    MatrixFile,
    MultipoolParams,
    PoolLabel,
    PoolingMatrix,
    ValidationReport,
    build_multipool,
    load_design,
    max_pools_bound,
    validate_multipool,
)
from .errors import (
    DesignBoundError,
    DomainError,
    InfeasibleError,
    MatrixFormatError,
    MultipoolError,
    NoSolutionError,
    NotApplicableError,
    UndefinedResultError,
    UnsupportedFieldError,
)
from .gf import Field, field_for_order
from .model import NOISELESS, NoiseModel, SeedSpec, pool_loads
from .montecarlo import (
    ComparisonReport,
    ComparisonRow,
    EmpiricalStats,
    Estimate,
    ExperimentConfig,
    compare,
    run_experiment,
)

__version__ = "0.1.0"
