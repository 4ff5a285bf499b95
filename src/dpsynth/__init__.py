"""Differentially private synthetic data from noisy linear statistics.

The pipeline perturbs a dataset's statistics with Laplace noise, fits a
density on a subsampled reduced domain so its statistics match the noisy
targets in the worst case, and bootstraps synthetic records from the fit.
"""

from .audit import (
    BooleanExperimentResult,
    DeviationCheckResult,
    PrivacyAuditResult,
    ReweightedCheckResult,
    ReweightedMeasure,
    boolean_experiment,
    deviation_check_empirical,
    privacy_audit,
    reweighted_deviation_check,
    reweighted_measure,
)
from .core import (
    Dataset,
    FiniteDensity,
    QueryFamily,
    StatisticsVector,
    TestFunction,
    accuracy_error,
    evaluate_all,
    evaluate_statistic,
    weighted_statistics,
)
from .distributions import (
    ExplicitDistribution,
    ProductDistribution,
    exact_statistics,
    kappa_uniform,
    parse_distribution_spec,
    renyi_condition_number_exact,
    renyi_condition_number_mc,
)
from .mechanism import (
    PrivacyCheck,
    laplace_vector,
    perturb,
    privacy_check,
    sensitivity_bound,
    sigma_for,
)
from .optimize import FitProblem, FitSolution, build_lp, solve_min_max
from .queries import family_size_bound, marginal_family, parse_query_spec
from .synth import (
    FitGateError,
    GenerateResult,
    PipelineConfig,
    PipelineReport,
    PrivacyGateError,
    bootstrap,
    generate,
)

__version__ = "0.1.0"

__all__ = [
    "BooleanExperimentResult",
    "Dataset",
    "DeviationCheckResult",
    "ExplicitDistribution",
    "FiniteDensity",
    "FitGateError",
    "FitProblem",
    "FitSolution",
    "GenerateResult",
    "PipelineConfig",
    "PipelineReport",
    "PrivacyAuditResult",
    "PrivacyCheck",
    "PrivacyGateError",
    "ProductDistribution",
    "QueryFamily",
    "ReweightedCheckResult",
    "ReweightedMeasure",
    "StatisticsVector",
    "TestFunction",
    "accuracy_error",
    "boolean_experiment",
    "bootstrap",
    "build_lp",
    "deviation_check_empirical",
    "evaluate_all",
    "evaluate_statistic",
    "exact_statistics",
    "family_size_bound",
    "generate",
    "kappa_uniform",
    "laplace_vector",
    "marginal_family",
    "parse_distribution_spec",
    "parse_query_spec",
    "perturb",
    "privacy_audit",
    "privacy_check",
    "renyi_condition_number_exact",
    "renyi_condition_number_mc",
    "reweighted_deviation_check",
    "reweighted_measure",
    "sensitivity_bound",
    "sigma_for",
    "solve_min_max",
    "weighted_statistics",
]
