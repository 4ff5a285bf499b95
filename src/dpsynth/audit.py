"""Statistical audits: deviation checks, an empirical privacy probe, and the
end-to-end Boolean experiment.

Each check replays one guarantee of the pipeline with fresh randomness and compares the
observed failure rate against its stated bound plus 3*sqrt(bound/trials), at least three
binomial standard errors, so a healthy implementation passes with margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _STATS_BLOCK, Dataset, QueryFamily, _edge_counter, _row_groups, accuracy_error, evaluate_all,
)
from .distributions import (
    ProductDistribution,
    exact_statistics,
    renyi_condition_number_exact,
)
from .mechanism import _accuracy_thresholds, laplace_vector
from .queries import marginal_family
from .synth import PipelineConfig, _render_fields, _reported_as, generate

DEFAULT_AUDIT_SLACK = 0.15
# A histogram cell with a zero count on one side is only treated as evidence
# when at least this many observations landed in it overall.
MIN_CELL_OCCUPANCY = 10


class _AuditResult:
    """An audit's outcome: one line per field, in field order, under the field's key."""

    def report_text(self) -> str:
        return _render_fields(self)


def _binomial_gate(rate: float, trials: int) -> float:
    """rate + 3*sqrt(rate/trials), at least rate plus three binomial standard errors."""
    return rate + 3.0 * math.sqrt(rate / trials)


def _trial_rows(dist, trials: int, count: int, queries: QueryFamily, rng):
    """Blocks of the trials' rows, a (trials, count, p) array each: one trial, or as many as
    keep near _STATS_BLOCK cells the rows plus, for Lemma 4 only, their (|F|, rows) table."""
    step = max(1, _STATS_BLOCK // max(1, count * max(len(dist.schema), len(queries))))
    rng = np.random.default_rng(rng)  # once: each block continues its stream
    for start in range(0, trials, step):
        yield dist._draw(min(step, trials - start), count, rng)


@dataclass(frozen=True)
class DeviationCheckResult(_AuditResult):
    failure_rate: float = _reported_as("lemma3_failure_rate")
    gate: float = _reported_as("lemma3_gate")
    threshold_n: float = _reported_as("lemma3_threshold_n")
    trials: int = _reported_as("lemma3_trials")
    passed: bool = _reported_as("lemma3_passed")


def deviation_check_empirical(
    population, queries: QueryFamily, n: int, delta: float, gamma: float,
    trials: int, rng,
) -> DeviationCheckResult:
    """Empirical check that n-sample statistics stay within delta of their means.

    The stated bound promises failure probability at most gamma once
    n >= ln(|F|/gamma)/delta^2; the audit compares the observed rate against
    gamma plus 3*sqrt(gamma/trials), at least three binomial standard errors.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    threshold_n, _ = _accuracy_thresholds(len(queries), delta, gamma)
    exact = exact_statistics(population, queries)
    failures = 0
    for block in _trial_rows(population, trials, n, queries, rng):
        for rows in block:
            # Exact counts, summed one kernel block at a time: no (|F|, n) table.
            stats = queries._counts(rows) / n
            failures += int(np.max(np.abs(stats - exact)) > delta)
        del block, rows  # before the next block is drawn
    failure_rate = failures / trials
    gate = _binomial_gate(gamma, trials)
    return DeviationCheckResult(
        failure_rate=failure_rate,
        gate=gate,
        threshold_n=threshold_n,
        trials=trials,
        passed=failure_rate <= gate,
    )


@dataclass(frozen=True)
class ReweightedCheckResult(_AuditResult):
    failure_rate: float = _reported_as("lemma4_failure_rate")
    mean_r: float
    gate: float = _reported_as("lemma4_gate")
    mean_r_tolerance: float
    threshold_m: float = _reported_as("lemma4_threshold_m")
    trials: int = _reported_as("lemma4_trials")
    passed: bool = _reported_as("lemma4_passed")


def reweighted_deviation_check(
    population, sampling, queries: QueryFamily, m: int, delta: float, gamma: float,
    trials: int, rng,
) -> ReweightedCheckResult:
    """Empirical check of the importance-weighted statistics and their total mass.

    Each trial weights its m draws from ``sampling`` by population/sampling
    mass over m. The weights are unnormalized; unbiasedness puts the mean of
    their sum, the total mass r, at 1. The audit requires the observed mean
    over all trials to sit within three standard errors (variance at most
    kappa/m per trial) and the per-trial deviation failure rate to stay under
    gamma plus 3*sqrt(gamma/trials), at least three binomial standard errors.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    exact = exact_statistics(population, queries)
    kappa = renyi_condition_number_exact(population, sampling)
    _, threshold_m = _accuracy_thresholds(len(queries), delta, gamma, kappa)
    failures = 0
    masses = []
    for block in _trial_rows(sampling, trials, m, queries, rng):
        rows = block.reshape(-1, len(sampling.schema))
        table = queries.values_matrix(rows).reshape(len(queries), -1, m)
        den = sampling.mass_many(rows)
        if (den == 0).any():
            raise ValueError("draws must lie in the sampling distribution's support")
        weights = (population.mass_many(rows) / den / m).reshape(-1, m)
        for t, trial in enumerate(weights):  # weighted_sums, per trial
            stats = queries._held_sums(table[:, t], trial)
            failures += int(np.max(np.abs(stats - exact)) > delta)
            masses.append(math.fsum(trial.tolist()))
        del block, rows, table, den, weights  # before the next block is drawn
    failure_rate = failures / trials
    mean_r = math.fsum(masses) / trials
    gate = _binomial_gate(gamma, trials)
    tolerance = 3.0 * math.sqrt(kappa / (m * trials))
    return ReweightedCheckResult(
        failure_rate=failure_rate,
        mean_r=mean_r,
        gate=gate,
        mean_r_tolerance=tolerance,
        threshold_m=threshold_m,
        trials=trials,
        passed=failure_rate <= gate and abs(mean_r - 1.0) <= tolerance,
    )


def _check_neighbors(d1: Dataset, d2: Dataset) -> None:
    if d1.schema != d2.schema:
        raise ValueError("datasets must share a schema")
    if abs(len(d1) - len(d2)) > 1:
        raise ValueError("datasets are not add-one neighbors")
    small, large = (d1, d2) if len(d1) <= len(d2) else (d2, d1)
    # Each distinct row's count in the larger dataset less its count in the
    # smaller one: the larger must hold the smaller, plus at most one row.
    order, first = _row_groups(np.concatenate([small.rows, large.rows]))
    surplus = np.bincount(np.cumsum(first) - 1, weights=np.where(order < len(small), -1, 1))
    if (surplus < 0).any():
        raise ValueError("datasets are not add-one neighbors")


@dataclass(frozen=True)
class PrivacyAuditResult(_AuditResult):
    epsilon_hat: float
    epsilon_theoretical: float
    slack: float = _reported_as("audit_slack")
    trials: int = _reported_as("dp_trials")
    bins: int = _reported_as("dp_bins")
    passed: bool = _reported_as("dp_passed")


def privacy_audit(
    queries: QueryFamily, sigma: float, d1: Dataset, d2: Dataset,
    trials: int, bins: int, rng, slack: float = DEFAULT_AUDIT_SLACK,
) -> PrivacyAuditResult:
    """Histogram likelihood-ratio probe of the noisy-statistics release.

    Runs the Laplace stage on two neighboring datasets, discretizes the
    outputs with per-dimension equal-frequency bin edges taken from the
    combined samples (a bucket lookup bins each draw exactly as a binary search
    over the edges would), and reports the largest absolute log count ratio.
    Cells empty on one side are skipped while they hold fewer than
    MIN_CELL_OCCUPANCY observations in total; beyond that they count as
    evidence of a violation (infinite ratio).
    """
    if trials < 1 or bins < 2:
        raise ValueError("need trials >= 1 and bins >= 2")
    if len(queries) > 3:
        raise ValueError("histogram audit supports at most 3 statistics")
    if bins ** len(queries) > 2 * trials:
        raise ValueError("need bins**|F| <= 2*trials: no more cells than observations")
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError("sigma must be positive and finite")
    _check_neighbors(d1, d2)
    rng = np.random.default_rng(rng)
    stats1 = evaluate_all(queries, d1)
    stats2 = evaluate_all(queries, d2)
    epsilon_theoretical = float(np.sum(np.abs(stats1 - stats2))) / sigma

    nf = len(queries)
    # The (trials, nf) arrays set this audit's memory: they are updated in
    # place, and the bin edges are all taken before any cell index is made.
    out1 = laplace_vector(sigma, (trials, nf), rng)
    out1 += stats1
    out2 = laplace_vector(sigma, (trials, nf), rng)
    out2 += stats2
    counters = []
    for j in range(nf):
        both = np.concatenate([out1[:, j], out2[:, j]])
        both.sort()  # in place; the quantiles of sorted values need little partitioning
        inner = np.quantile(both, np.arange(1, bins) / bins, overwrite_input=True)
        if not np.isfinite(inner).all():
            raise ValueError("sigma is too large: the noisy statistics overflow to infinity")
        counters.append(_edge_counter(inner))
    del both

    def counts(out: np.ndarray) -> np.ndarray:
        cell = np.zeros(trials, dtype=np.int64)
        for start in range(0, trials, _STATS_BLOCK):
            block = cell[start:start + _STATS_BLOCK]
            for j, count in enumerate(counters):
                block *= bins
                block += count(out[start:start + _STATS_BLOCK, j])
        return np.bincount(cell, minlength=bins**nf)

    counts1, counts2 = counts(out1), counts(out2)
    both = (counts1 > 0) & (counts2 > 0)
    if both.any():
        ratios = np.abs(np.log(counts1[both] / counts2[both]))
        epsilon_hat = float(ratios.max())
    else:
        epsilon_hat = 0.0
    one_sided = (counts1 > 0) != (counts2 > 0)
    if (one_sided & (counts1 + counts2 >= MIN_CELL_OCCUPANCY)).any():
        epsilon_hat = math.inf
    return PrivacyAuditResult(
        epsilon_hat=epsilon_hat,
        epsilon_theoretical=epsilon_theoretical,
        slack=slack,
        trials=trials,
        bins=bins,
        passed=epsilon_hat <= epsilon_theoretical + slack,
    )


@dataclass(frozen=True)
class BooleanExperimentResult(_AuditResult):
    passed: bool = _reported_as("corollary_pass")
    fail_fraction: float = _reported_as("corollary_fail_fraction")
    gate: float = _reported_as("corollary_gate")
    error_threshold: float = _reported_as("corollary_error_threshold")
    median_error: float = _reported_as("corollary_median_error")
    trials: int = _reported_as("corollary_trials")
    errors: tuple[float, ...]


def boolean_experiment(
    p: int, d: int, n: int, k: int, m: int, delta: float, gamma: float,
    trials: int, seed: int,
) -> BooleanExperimentResult:
    """End-to-end accuracy experiment on the uniform Boolean cube.

    Each trial draws a fresh dataset from the uniform distribution, runs the
    full pipeline with monotone marginals of order d, and measures the worst
    statistic disagreement between real and synthetic data. The pass criterion
    allows errors above 8*delta in at most a 4*gamma fraction of trials, plus
    3*sqrt(4*gamma/trials), at least three binomial standard errors.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    family = marginal_family(p, d, "monotone")
    uniform = ProductDistribution.uniform((2,) * p)
    trial_seeds = np.random.SeedSequence(seed).generate_state(2 * trials, np.uint32)
    errors = []
    for i in range(trials):
        data = uniform.sample(n, np.random.default_rng(int(trial_seeds[2 * i])))
        config = PipelineConfig(
            delta_target=delta,
            gamma=gamma,
            synthetic_size=k,
            reduced_size=m,
            seed=int(trial_seeds[2 * i + 1]),
            kappa_bound=1.0,
        )
        result = generate(data, family, uniform, config)
        errors.append(accuracy_error(family, data, result.synthetic))
    threshold = 8.0 * delta
    fail_fraction = sum(1 for e in errors if e > threshold) / trials
    gate = _binomial_gate(4.0 * gamma, trials)
    return BooleanExperimentResult(
        errors=tuple(errors),
        fail_fraction=fail_fraction,
        gate=gate,
        error_threshold=threshold,
        median_error=float(np.median(errors)),
        trials=trials,
        passed=fail_fraction <= gate,
    )
