"""End-to-end private synthetic data pipeline.

One run reads the sensitive dataset exactly once (to take exact statistics),
perturbs those statistics with Laplace noise, fits a density on a freshly
subsampled reduced domain against the noisy targets, and bootstraps synthetic
records from the fit. Everything after the noise step is post-processing.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields

import numpy as np

from .core import Dataset, QueryFamily, TestFunction, evaluate_all
from .distributions import ExplicitDistribution
from .mechanism import laplace_vector, privacy_check
from .optimize import build_lp, solve_min_max


class PrivacyGateError(RuntimeError):
    """Raised when a requested epsilon cannot be met by the dataset size."""


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one generation run.

    ``epsilon`` is optional: when omitted the achieved value 2|F|/(n*sigma) is
    reported; when supplied the run aborts unless the privacy gate passes or
    ``allow_privacy_failure`` is set.
    """

    delta_target: float
    gamma: float
    synthetic_size: int
    reduced_size: int
    seed: int
    epsilon: float | None = None
    kappa_bound: float = 1.0
    allow_privacy_failure: bool = False
    export_noisy_targets: bool = False

    def __post_init__(self):
        # delta, gamma, epsilon and kappa_bound are the ledger's to check:
        # generate builds it before it reads the data.
        for name in ("synthetic_size", "reduced_size", "seed"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise TypeError(f"{name} must be an integer") from None
        if self.synthetic_size < 1:
            raise ValueError("synthetic_size must be >= 1")
        if self.reduced_size < 1:
            raise ValueError("reduced_size must be >= 1")


def bootstrap(density: ExplicitDistribution, count: int, rng) -> Dataset:
    """Draw count records i.i.d. from a finite density, such as the fitted one."""
    return density.sample(count, rng)


def _fmt(value) -> str:
    """The one rendering of a report or config scalar; only _render calls it."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return f"{float(value):.9g}"


def _render(pairs) -> str:
    """The one writer of report text: a ``key = value`` line per pair, in
    order, with a tuple's items joined by commas."""
    lines = []
    for key, value in pairs:
        items = value if isinstance(value, tuple) else (value,)
        lines.append(f"{key} = {','.join(_fmt(v) for v in items)}\n")
    return "".join(lines)


def _reported_as(key: str):
    """A dataclass field whose report line is headed key rather than its name."""
    return field(metadata={"key": key})


def _render_fields(record) -> str:
    """A record's report: one line per set (not None) field, in field order, under its key."""
    values = ((f.metadata.get("key", f.name), getattr(record, f.name)) for f in fields(record))
    return _render((key, v) for key, v in values if v is not None)


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
    lp_status: str = field(default="optimal", init=False)  # solve_min_max certifies every fit
    lp_iterations: int
    constant_one_added: bool
    n: int
    synthetic_size: int
    reduced_size: int
    kappa_bound: float
    noisy_targets: tuple[float, ...] | None = None

    def to_text(self) -> str:
        """One ``name = value`` line per field, in field order, leaving out unset ones."""
        return _render_fields(self)


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
    compute the exact statistics that get perturbed. The privacy ledger is
    built first; it checks delta_target, gamma, epsilon and kappa_bound.
    """
    if len(data) == 0:
        raise ValueError("empty dataset")
    if sampling.schema != data.schema:
        raise ValueError("sampling distribution schema must match the data schema")
    constant_added = not any(f.is_constant_one for f in queries)
    if constant_added:
        queries = QueryFamily((TestFunction.constant_one(), *queries))
    family_size = len(queries)
    n = len(data)

    ledger = privacy_check(
        n, config.epsilon, config.delta_target, family_size, config.gamma, config.kappa_bound
    )
    if not (ledger.passed or config.allow_privacy_failure):
        raise PrivacyGateError(
            f"epsilon = {config.epsilon:.9g} needs n >= {ledger.required_n:.9g}, got n = {n}"
        )

    seed_root = np.random.SeedSequence(config.seed)
    noise_seq, domain_seq, boot_seq = seed_root.spawn(3)

    exact_stats = evaluate_all(queries, data)  # the single read of the data
    noisy = exact_stats + laplace_vector(
        ledger.sigma, len(exact_stats), np.random.default_rng(noise_seq)
    )
    reduced = sampling.sample(config.reduced_size, np.random.default_rng(domain_seq))
    problem = build_lp(queries, reduced, noisy)
    solution = solve_min_max(problem)  # a certified fit, or FitGateError
    synthetic = bootstrap(
        solution.density, config.synthetic_size, np.random.default_rng(boot_seq)
    )

    report = PipelineReport(
        sigma=ledger.sigma,
        epsilon_achieved=ledger.epsilon_achieved,
        lp_objective=solution.objective,
        accuracy_threshold_n_k=ledger.threshold_n_k,
        accuracy_threshold_m=ledger.threshold_m,
        seed=config.seed,
        family_size=family_size,
        epsilon=ledger.epsilon,
        sensitivity=ledger.sensitivity,
        required_n=ledger.required_n,
        privacy_passed=ledger.passed,
        accuracy_passed=(
            min(n, config.synthetic_size) >= ledger.threshold_n_k
            and config.reduced_size >= ledger.threshold_m
        ),
        config_in_range=0 < config.delta_target <= 0.5 and 0 < config.gamma < 0.25,
        lp_iterations=solution.iterations,
        constant_one_added=constant_added,
        n=n,
        synthetic_size=config.synthetic_size,
        reduced_size=config.reduced_size,
        kappa_bound=config.kappa_bound,
        noisy_targets=tuple(float(v) for v in noisy) if config.export_noisy_targets else None,
    )
    return GenerateResult(synthetic=synthetic, report=report)
