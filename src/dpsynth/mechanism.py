"""Laplace perturbation of statistics vectors and the privacy budget gate.

Noise scale follows the tail convention P(|lam| > t) = exp(-t / sigma), so a
release of |F| statistics from n records is epsilon-private exactly when the
worst-case statistics shift 2|F|/n is at most epsilon * sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError("sigma must be positive and finite")
    rng = np.random.default_rng(rng)
    u = rng.random(size)
    # u = 0 would map to an infinite draw; redraw the (measure-zero) hits.
    while True:
        zeros = u == 0.0
        if not zeros.any():
            break
        u[zeros] = rng.random(int(zeros.sum()))
    return _laplace_from_uniform(sigma, u)


def sensitivity_bound(family_size: int, n: int) -> float:
    """Worst-case L1 shift of the statistics vector when one record is added or removed."""
    if family_size < 1:
        raise ValueError("family size must be >= 1")
    if n < 1:
        raise ValueError("dataset size must be >= 1")
    return 2.0 * family_size / n


def sigma_for(delta_target: float, family_size: int, gamma: float) -> float:
    """Noise scale that keeps the worst of |F| draws below delta_target w.p. 1 - gamma."""
    if not (delta_target > 0 and math.isfinite(delta_target)):
        raise ValueError("delta_target must be positive and finite")
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
    """The privacy ledger of one release: noise scale, budget and the size gate."""

    passed: bool
    required_n: float
    epsilon: float
    sigma: float
    sensitivity: float
    epsilon_achieved: float


def privacy_check(
    n: int, epsilon: float | None, delta_target: float, family_size: int, gamma: float
) -> PrivacyCheck:
    """Gate: n must reach 2/(epsilon*delta) * |F| * ln(|F|/gamma).

    Equivalently the release passes when sensitivity_bound / sigma_for, the
    achieved epsilon, is at most epsilon. With ``epsilon=None`` no budget is
    requested: the achieved epsilon stands in for it and the check passes.
    """
    if epsilon is not None and not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError("epsilon must be positive and finite")
    sigma = sigma_for(delta_target, family_size, gamma)
    sensitivity = sensitivity_bound(family_size, n)
    try:
        achieved = sensitivity / sigma
        budget = achieved if epsilon is None else epsilon
        required_n = 2.0 * family_size * math.log(family_size / gamma) / (budget * delta_target)
    except ZeroDivisionError:
        raise ValueError("delta_target and epsilon are too small: the noise scale or "
                         "epsilon * delta_target underflows to 0") from None
    return PrivacyCheck(
        passed=epsilon is None or n >= required_n,
        required_n=required_n,
        epsilon=budget,
        sigma=sigma,
        sensitivity=sensitivity,
        epsilon_achieved=achieved,
    )

