"""End-to-end private synthetic data pipeline.

One run reads the sensitive dataset exactly once (to take exact statistics),
perturbs those statistics with Laplace noise, fits a density on a freshly
subsampled reduced domain against the noisy targets, and bootstraps synthetic
records from the fit. Everything after the noise step is post-processing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import Dataset, FiniteDensity, QueryFamily, evaluate_all
from .distributions import _inverse_cdf_sample
from .mechanism import perturb, privacy_check, sensitivity_bound, sigma_for
from .optimize import build_lp, solve_min_max


class PrivacyGateError(RuntimeError):
    """Raised when a requested epsilon cannot be met by the dataset size."""


class FitGateError(RuntimeError):
    """Raised when the min-max fit stops before reaching its optimum."""


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one generation run.

    ``epsilon`` is optional: when omitted the achieved value 2|F|/(n*sigma) is
    reported; when supplied the run aborts unless the privacy gate passes or
    ``allow_privacy_failure`` is set. ``sigma_override`` is a test hook that
    bypasses the canonical noise scale.
    """

    delta_target: float
    gamma: float
    synthetic_size: int
    reduced_size: int
    seed: int
    epsilon: float | None = None
    kappa_bound: float = 1.0
    allow_privacy_failure: bool = False
    sigma_override: float | None = None
    export_noisy_targets: bool = False

    def __post_init__(self):
        if self.delta_target <= 0:
            raise ValueError("delta_target must be positive")
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must lie in (0, 1)")
        if self.synthetic_size < 1:
            raise ValueError("synthetic_size must be >= 1")
        if self.reduced_size < 1:
            raise ValueError("reduced_size must be >= 1")
        if self.kappa_bound < 1.0:
            raise ValueError("kappa_bound must be >= 1")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon must be positive when given")
        if self.sigma_override is not None and self.sigma_override <= 0:
            raise ValueError("sigma_override must be positive when given")


@dataclass(frozen=True)
class ValidationReport:
    """Advisory check of the run parameters against the guarantee thresholds."""

    privacy_passed: bool
    accuracy_passed: bool
    config_in_range: bool
    accuracy_threshold_n_k: float
    accuracy_threshold_m: float
    required_n: float
    epsilon: float
    sigma: float
    sensitivity: float


def validate_params(config: PipelineConfig, n: int, family_size: int) -> ValidationReport:
    """Compare (n, k, m) against the accuracy thresholds and run the privacy gate.

    Accuracy needs min(n, k) >= ln(|F|/gamma)/delta^2 and
    m >= kappa_bound * |F| / (gamma * delta^2); both checks are advisory.
    """
    delta = config.delta_target
    gamma = config.gamma
    thr_nk = math.log(family_size / gamma) / delta**2
    thr_m = config.kappa_bound * family_size / (gamma * delta**2)
    accuracy_passed = min(n, config.synthetic_size) >= thr_nk and config.reduced_size >= thr_m
    config_in_range = 0 < delta <= 0.5 and 0 < gamma < 0.25
    sigma = sigma_for(delta, family_size, gamma) if config.sigma_override is None else config.sigma_override
    achieved = sensitivity_bound(family_size, n) / sigma
    epsilon = config.epsilon if config.epsilon is not None else achieved
    check = privacy_check(n, epsilon, delta, family_size, gamma)
    if config.epsilon is None:
        # No budget was requested; the report simply echoes the achieved one.
        privacy_passed = True
    elif config.sigma_override is not None:
        # With an overridden noise scale the threshold formula no longer
        # matches the actual noise, so gate on the achieved budget directly.
        privacy_passed = achieved <= epsilon
    else:
        privacy_passed = check.passed
    return ValidationReport(
        privacy_passed=privacy_passed,
        accuracy_passed=accuracy_passed,
        config_in_range=config_in_range,
        accuracy_threshold_n_k=thr_nk,
        accuracy_threshold_m=thr_m,
        required_n=check.required_n,
        epsilon=epsilon,
        sigma=sigma,
        sensitivity=check.sensitivity,
    )


def bootstrap(density: FiniteDensity, count: int, rng) -> Dataset:
    """Draw count records i.i.d. from a finite density."""
    if count < 1:
        raise ValueError("count must be >= 1")
    idx = _inverse_cdf_sample(density.weights, count, np.random.default_rng(rng))
    # A gather from the validated support needs no second check or copy.
    return Dataset._adopt(density.support.schema, density.support.rows[idx])


def _fmt(value) -> str:
    """The one rendering of a report or config value."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return f"{float(value):.9g}"


@dataclass(frozen=True)
class PipelineReport:
    """Deterministic key-value record of one generation run."""

    sigma: float
    epsilon_achieved: float
    lp_objective: float
    accuracy_threshold_n_k: float
    accuracy_threshold_m: float
    seed: int
    family_size: int
    epsilon: float
    sensitivity: float
    required_n: float
    privacy_passed: bool
    accuracy_passed: bool
    config_in_range: bool
    lp_status: str
    lp_iterations: int
    constant_one_added: bool
    n: int
    synthetic_size: int
    reduced_size: int
    kappa_bound: float
    noisy_targets: tuple[float, ...] | None = None

    def to_text(self) -> str:
        """One ``name = value`` line per field in field order, leaving out unset ones."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return "".join(f"{name} = {_fmt(v)}\n" for name, v in values if v is not None)


@dataclass(frozen=True)
class GenerateResult:
    synthetic: Dataset
    report: PipelineReport


def generate(
    data: Dataset, queries: QueryFamily, sampling, config: PipelineConfig
) -> GenerateResult:
    """Run the full pipeline on one sensitive dataset.

    ``sampling`` is the distribution the reduced domain is drawn from; it must
    share the data schema. The sensitive rows are touched exactly once, to
    compute the exact statistics that get perturbed.
    """
    if len(data) == 0:
        raise ValueError("empty dataset")
    if sampling.schema != data.schema:
        raise ValueError("sampling distribution schema must match the data schema")
    constant_added = not queries.contains_constant_one
    queries = queries.with_constant_one()
    family_size = len(queries)
    n = len(data)

    validation = validate_params(config, n, family_size)
    if config.epsilon is not None and not validation.privacy_passed:
        if not config.allow_privacy_failure:
            raise PrivacyGateError(
                f"epsilon = {config.epsilon:.9g} needs n >= {validation.required_n:.9g}, "
                f"got n = {n}"
            )

    seed_root = np.random.SeedSequence(config.seed)
    noise_seq, domain_seq, boot_seq = seed_root.spawn(3)

    exact_stats = evaluate_all(queries, data)  # the single read of the data
    noisy = perturb(exact_stats, validation.sigma, np.random.default_rng(noise_seq))
    reduced = sampling.sample(config.reduced_size, np.random.default_rng(domain_seq))
    problem = build_lp(queries, reduced, noisy)
    solution = solve_min_max(problem)
    if solution.status != "optimal":
        raise FitGateError(f"min-max fit stopped: {solution.status} after {solution.iterations} pivots")
    synthetic = bootstrap(
        solution.density, config.synthetic_size, np.random.default_rng(boot_seq)
    )

    report = PipelineReport(
        sigma=validation.sigma,
        epsilon_achieved=validation.sensitivity / validation.sigma,
        lp_objective=solution.objective,
        accuracy_threshold_n_k=validation.accuracy_threshold_n_k,
        accuracy_threshold_m=validation.accuracy_threshold_m,
        seed=config.seed,
        family_size=family_size,
        epsilon=validation.epsilon,
        sensitivity=validation.sensitivity,
        required_n=validation.required_n,
        privacy_passed=validation.privacy_passed,
        accuracy_passed=validation.accuracy_passed,
        config_in_range=validation.config_in_range,
        lp_status=solution.status,
        lp_iterations=solution.iterations,
        constant_one_added=constant_added,
        n=n,
        synthetic_size=config.synthetic_size,
        reduced_size=config.reduced_size,
        kappa_bound=config.kappa_bound,
        noisy_targets=tuple(float(v) for v in noisy) if config.export_noisy_targets else None,
    )
    return GenerateResult(synthetic=synthetic, report=report)
