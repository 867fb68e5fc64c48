"""Superconcentration toolkit for extrema of stationary Gaussian processes."""

__version__ = "0.1.0"

from .covariance import CovarianceModel, check_hypotheses, evaluate, gram_matrix
from .sampler import SampleBatch, sample_sequence
from .extremes import (
    gumbel_cdf,
    ks_to_gumbel,
    centering_gap,
    norm_constants,
)
from .covering import (
    BoundReport,
    Covering,
    build_sequence_covering,
    correlated_bound,
    field_bound,
    find_sign_vectors,
    gaussian_tail_curve,
    sequence_bound,
    tail_curve,
    verify_covering,
)
from .verify import (
    LaplaceCheck,
    TailEstimate,
    estimate_tail,
    fit_tail_rate,
    laplace_check,
)
from .scantest import (
    RiskReport,
    ScanClass,
    disjoint_class,
    estimate_E0max,
    estimate_risk,
    sliding_class,
    threshold_prop51,
    threshold_prop52,
)
from .experiments import ExperimentConfig, run, validate

__all__ = [
    "CovarianceModel", "check_hypotheses", "evaluate", "gram_matrix",
    "SampleBatch", "sample_sequence",
    "gumbel_cdf", "ks_to_gumbel", "centering_gap",
    "norm_constants",
    "BoundReport", "Covering", "build_sequence_covering", "correlated_bound",
    "field_bound", "find_sign_vectors", "gaussian_tail_curve", "sequence_bound",
    "tail_curve", "verify_covering",
    "LaplaceCheck", "TailEstimate", "estimate_tail",
    "fit_tail_rate", "laplace_check",
    "RiskReport", "ScanClass", "disjoint_class", "estimate_E0max",
    "estimate_risk", "sliding_class", "threshold_prop51", "threshold_prop52",
    "ExperimentConfig", "run", "validate",
]
