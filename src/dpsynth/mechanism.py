"""Laplace perturbation of statistics vectors and the privacy budget gate.

Noise scale follows the tail convention P(|lam| > t) = exp(-t / sigma), so a
release of |F| statistics from n records is epsilon-private exactly when the
worst-case statistics shift 2|F|/n is at most epsilon * sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import StatisticsVector


def _laplace_from_uniform(sigma: float, u: np.ndarray) -> np.ndarray:
    """Inverse CDF on a single uniform draw per sample; exact scale in sigma.

    Computes -sigma * sign(u - 1/2) * log1p(-2 |u - 1/2|) in that order, in
    place in u and one array for the result, so u is overwritten.
    """
    centered = np.subtract(u, 0.5, out=u)
    draws = np.sign(centered)
    draws *= -sigma
    np.abs(centered, out=centered)
    centered *= -2.0
    draws *= np.log1p(centered, out=centered)
    return draws


def laplace_vector(sigma: float, size, rng) -> np.ndarray:
    """Independent Laplace draws with P(|lam| > t) = exp(-t/sigma); size may be a shape."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    rng = np.random.default_rng(rng)
    u = rng.random(size)
    # u = 0 would map to an infinite draw; redraw the (measure-zero) hits.
    while True:
        zeros = u == 0.0
        if not zeros.any():
            break
        u[zeros] = rng.random(int(zeros.sum()))
    return _laplace_from_uniform(sigma, u)


def laplace_sample(sigma: float, rng) -> float:
    """One Laplace draw."""
    return float(laplace_vector(sigma, 1, rng)[0])


def sensitivity_bound(family_size: int, n: int) -> float:
    """Worst-case L1 shift of the statistics vector when one record is added or removed."""
    if family_size < 1:
        raise ValueError("family size must be >= 1")
    if n < 1:
        raise ValueError("dataset size must be >= 1")
    return 2.0 * family_size / n


def sigma_for(delta_target: float, family_size: int, gamma: float) -> float:
    """Noise scale that keeps the worst of |F| draws below delta_target w.p. 1 - gamma."""
    if delta_target <= 0:
        raise ValueError("delta_target must be positive")
    if family_size < 1:
        raise ValueError("family size must be >= 1")
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    ratio = family_size / gamma
    if ratio <= 1.0:
        raise ValueError("family_size/gamma must exceed 1 for a positive noise scale")
    return delta_target / math.log(ratio)


@dataclass(frozen=True)
class PrivacyCheck:
    """Outcome of the privacy budget gate for one release."""

    passed: bool
    required_n: float
    epsilon: float
    sigma: float
    sensitivity: float

    def report_text(self) -> str:
        lines = [
            f"sigma = {self.sigma:.9g}",
            f"epsilon = {self.epsilon:.9g}",
            f"sensitivity = {self.sensitivity:.9g}",
            f"required_n = {self.required_n:.9g}",
        ]
        return "\n".join(lines) + "\n"


def privacy_check(
    n: int, epsilon: float, delta_target: float, family_size: int, gamma: float
) -> PrivacyCheck:
    """Gate: n must reach 2/(epsilon*delta) * |F| * ln(|F|/gamma).

    Equivalently the release passes when sensitivity_bound / sigma_for is at
    most epsilon.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    sigma = sigma_for(delta_target, family_size, gamma)
    required_n = 2.0 * family_size * math.log(family_size / gamma) / (epsilon * delta_target)
    return PrivacyCheck(
        passed=n >= required_n,
        required_n=required_n,
        epsilon=epsilon,
        sigma=sigma,
        sensitivity=sensitivity_bound(family_size, n),
    )


def perturb(stats: StatisticsVector, sigma: float, rng) -> StatisticsVector:
    """Add one independent Laplace draw per statistic. No clipping afterwards."""
    stats = np.asarray(stats, dtype=float)
    return stats + laplace_vector(sigma, len(stats), rng)


@dataclass(frozen=True)
class PrivacyParams:
    """Resolved per-release noise and budget parameters."""

    epsilon: float
    delta_target: float
    gamma: float
    sigma: float
    family_size: int
    n: int

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.delta_target <= 0:
            raise ValueError("delta_target must be positive")
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must lie in (0, 1)")
        if self.family_size < 1 or self.n < 1:
            raise ValueError("family size and n must be >= 1")

    @classmethod
    def derive(
        cls,
        delta_target: float,
        gamma: float,
        family_size: int,
        n: int,
        epsilon: float | None = None,
    ) -> "PrivacyParams":
        """Canonical construction: sigma from (delta, |F|, gamma), epsilon achieved."""
        sigma = sigma_for(delta_target, family_size, gamma)
        if epsilon is None:
            epsilon = sensitivity_bound(family_size, n) / sigma
        return cls(
            epsilon=epsilon,
            delta_target=delta_target,
            gamma=gamma,
            sigma=sigma,
            family_size=family_size,
            n=n,
        )

    @property
    def achieved_epsilon(self) -> float:
        return sensitivity_bound(self.family_size, self.n) / self.sigma

    def in_accuracy_range(self) -> bool:
        """Whether (delta, gamma) lie in the range the accuracy analysis needs."""
        return 0 < self.delta_target <= 0.5 and 0 < self.gamma < 0.25
