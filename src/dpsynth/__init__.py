"""Differentially private synthetic data from noisy linear statistics.

The pipeline perturbs a dataset's statistics with Laplace noise, fits a
density on a subsampled reduced domain so its statistics match the noisy
targets in the worst case, and bootstraps synthetic records from the fit.
"""

from .audit import (
    boolean_experiment,
    deviation_check_empirical,
    privacy_audit,
    reweighted_deviation_check,
)
from .core import (
    Dataset,
    QueryFamily,
    TestFunction,
    accuracy_error,
    evaluate_all,
)
from .distributions import (
    ExplicitDistribution,
    ProductDistribution,
    exact_statistics,
    parse_distribution_spec,
    renyi_condition_number_exact,
    renyi_condition_number_mc,
)
from .mechanism import (
    PrivacyCheck,
    laplace_vector,
    privacy_check,
)
from .optimize import FitGateError, FitProblem, FitSolution, build_lp, solve_min_max
from .queries import marginal_family, parse_query_spec
from .synth import (
    GenerateResult,
    PipelineConfig,
    PipelineReport,
    PrivacyGateError,
    bootstrap,
    generate,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "ExplicitDistribution",
    "FitGateError",
    "FitProblem",
    "FitSolution",
    "GenerateResult",
    "PipelineConfig",
    "PipelineReport",
    "PrivacyCheck",
    "PrivacyGateError",
    "ProductDistribution",
    "QueryFamily",
    "TestFunction",
    "accuracy_error",
    "boolean_experiment",
    "bootstrap",
    "build_lp",
    "deviation_check_empirical",
    "evaluate_all",
    "exact_statistics",
    "generate",
    "laplace_vector",
    "marginal_family",
    "parse_distribution_spec",
    "parse_query_spec",
    "privacy_audit",
    "privacy_check",
    "renyi_condition_number_exact",
    "renyi_condition_number_mc",
    "reweighted_deviation_check",
    "solve_min_max",
]
