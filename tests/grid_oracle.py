"""Independent brute-force oracle for the min-max fit.

Evaluates the worst absolute residual on every density whose weights are
integer multiples of ``step`` and returns the minimum. For speed the last two
coordinates of each weight prefix are searched with a binary scan, which is
exact because the objective restricted to that segment is convex
piecewise-linear; the returned value matches full enumeration to rounding
error (checked by a meta-test against ``grid_minimax_dense``).
"""

import itertools

import numpy as np


def grid_minimax_dense(values, targets, steps: int) -> float:
    """Plain enumeration of all integer compositions (small instances only)."""
    a = np.asarray(values, float)
    b = np.asarray(targets, float)
    m = a.shape[1]
    best = np.inf
    for comp in itertools.product(range(steps + 1), repeat=m - 1):
        rest = steps - sum(comp)
        if rest < 0:
            continue
        w = np.array(comp + (rest,), dtype=float) / steps
        best = min(best, float(np.max(np.abs(a @ w - b))))
    return best


def grid_minimax(values, targets, step: float) -> float:
    """Minimum of max_j |(A h)_j - b_j| over the step-grid of the simplex."""
    a = np.asarray(values, float)
    b = np.asarray(targets, float)
    m = a.shape[1]
    s = int(round(1.0 / step))
    if m == 1:
        return float(np.max(np.abs(a[:, 0] - b)))
    if m == 2:
        prefix = np.zeros((1, 0), dtype=np.int64)
    elif m == 3:
        prefix = np.arange(s + 1, dtype=np.int64)[:, None]
    elif m == 4:
        w1 = np.repeat(np.arange(s + 1), np.arange(s, -1, -1) + 1)
        w2 = np.concatenate([np.arange(s - v + 1) for v in range(s + 1)])
        prefix = np.stack([w1, w2], axis=1)
    else:
        raise ValueError("grid oracle supports at most 4 support points")
    rem = s - prefix.sum(axis=1)
    # Residuals along the final segment are affine in the integer weight x of
    # coordinate m-2 (coordinate m-1 takes the remainder). They are held as an
    # (nf, prefixes) array so the max runs over the short leading axis.
    base = prefix @ a[:, : m - 2].T
    c = np.ascontiguousarray(((base + np.outer(rem, a[:, m - 1])) / s - b).T)
    d = (a[:, m - 2] - a[:, m - 1]) / s

    def g(x):
        return np.abs(c + d[:, None] * x[None, :]).max(axis=0)

    lo = np.zeros(len(prefix), dtype=np.int64)
    hi = rem.copy()
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = np.where(active, (lo + hi) // 2, lo)
        go_left = g(mid) <= g(np.minimum(mid + 1, rem))
        hi = np.where(active & go_left, mid, hi)
        lo = np.where(active & ~go_left, mid + 1, lo)
    return float(g(lo).min())
