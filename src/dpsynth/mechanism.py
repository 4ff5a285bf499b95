"""Laplace perturbation of statistics vectors and the privacy budget gate.

Noise scale follows the tail convention P(|lam| > t) = exp(-t / sigma), so a
release of |F| statistics from n records is epsilon-private exactly when the
worst-case statistics shift 2|F|/n is at most epsilon * sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def laplace_vector(sigma: float, size, rng) -> np.ndarray:
    """Independent Laplace draws with P(|lam| > t) = exp(-t/sigma); size may be a shape.

    Inverse CDF, -sigma * sign(u - 1/2) * log1p(-2 |u - 1/2|) on one uniform u per draw,
    computed in that order in place in u, so only the uniforms and the result are held.
    """
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError("sigma must be positive and finite")
    rng = np.random.default_rng(rng)
    u = rng.random(size)
    # u = 0 would map to an infinite draw; redraw the (measure-zero) hits.
    while (zeros := u == 0.0).any():
        u[zeros] = rng.random(int(zeros.sum()))
    u -= 0.5
    draws = np.sign(u)
    draws *= -sigma
    np.abs(u, out=u)
    u *= -2.0
    draws *= np.log1p(u, out=u)
    return draws


def _accuracy_thresholds(
    family_size: int, delta: float, gamma: float, kappa: float = 1.0
) -> tuple[float, float]:
    """The sizes the accuracy analysis needs: ln(|F|/gamma)/delta^2 for n and k
    (and the plain sampling audit), kappa*|F|/(gamma*delta^2) for m.

    The one check of delta and gamma. kappa is not checked: an audit's
    computed condition number can round just below 1.
    """
    # Written so that NaN fails each comparison.
    if not (delta > 0 and math.isfinite(delta)):
        raise ValueError("delta_target must be positive and finite")
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    try:
        delta_sq = delta**2
    except OverflowError:
        raise ValueError(f"delta = {delta:.9g} is too large: delta^2 overflows") from None
    if delta_sq == 0.0:
        raise ValueError(f"delta = {delta:.9g} is too small: delta^2 underflows to 0")
    try:
        return math.log(family_size / gamma) / delta_sq, kappa * family_size / (gamma * delta_sq)
    except ZeroDivisionError:
        raise ValueError(
            f"gamma = {gamma:.9g} is too small: gamma * delta^2 underflows to 0"
        ) from None


@dataclass(frozen=True)
class PrivacyCheck:
    """The ledger of one release: noise scale, budget, the size gate and the
    sizes the accuracy analysis needs."""

    passed: bool
    required_n: float
    epsilon: float
    sigma: float
    sensitivity: float
    epsilon_achieved: float
    threshold_n_k: float
    threshold_m: float


def privacy_check(
    n: int, epsilon: float | None, delta_target: float, family_size: int, gamma: float,
    kappa: float = 1.0,
) -> PrivacyCheck:
    """Gate: n must reach 2/(epsilon*delta) * |F| * ln(|F|/gamma).

    Equivalently the release passes when the achieved epsilon, the
    sensitivity 2|F|/n over sigma = delta/ln(|F|/gamma), is at most epsilon.
    With ``epsilon=None`` no budget is requested: the achieved epsilon stands
    in for it and the check passes. ``kappa`` bounds the condition number of
    the population against the sampling distribution; it scales the reduced
    domain size m the accuracy analysis needs.
    """
    if epsilon is not None and not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError("epsilon must be positive and finite")
    if family_size < 1:
        raise ValueError("family size must be >= 1")
    if n < 1:
        raise ValueError("dataset size must be >= 1")
    if not (kappa >= 1.0 and math.isfinite(kappa)):
        raise ValueError("kappa_bound must be >= 1 and finite")
    threshold_n_k, threshold_m = _accuracy_thresholds(family_size, delta_target, gamma, kappa)
    # |F| >= 1 and gamma < 1 put |F|/gamma above 1, so sigma is positive
    # unless |F|/gamma overflows.
    sigma = delta_target / math.log(family_size / gamma)
    sensitivity = 2.0 * family_size / n
    try:
        achieved = sensitivity / sigma
        budget = achieved if epsilon is None else epsilon
        required_n = 2.0 * family_size * math.log(family_size / gamma) / (budget * delta_target)
    except ZeroDivisionError:
        raise ValueError("epsilon, delta_target or gamma is too small: the noise scale or "
                         "epsilon * delta_target underflows to 0") from None
    return PrivacyCheck(
        passed=epsilon is None or n >= required_n,
        required_n=required_n,
        epsilon=budget,
        sigma=sigma,
        sensitivity=sensitivity,
        epsilon_achieved=achieved,
        threshold_n_k=threshold_n_k,
        threshold_m=threshold_m,
    )
