"""Min-max density fitting on a reduced domain.

Solves
    minimize t  s.t.  |(A h)_j - b_j| <= t for all j,  h >= 0,  sum(h) = 1
with a revised primal simplex on the standard form (one slack pair per
statistic) that keeps only the inverse of the (2|F|+1)-square basis. Any
point mass on the reduced domain is feasible, so the solve starts from that
vertex and needs no phase-1. Pricing is Devex (Forrest and Goldfarb, Math.
Prog. 1992) on reduced costs updated from each pivot row, one product over the
domain per pivot, and recomputed from the duals at each factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, QueryFamily, _first_occurrences
from .distributions import ExplicitDistribution

PIVOT_TOL = 1e-9
OPTIMALITY_GAP = 1e-7
# Consecutive degenerate pivots tolerated before switching to Bland's rule.
DEGENERACY_TRIP = 40
# Pivots between recomputations of the basis inverse, bounding rank-1 update drift.
REFACTOR_INTERVAL = 64


@dataclass(frozen=True)
class FitProblem:
    """Dense fitting instance: the LP's one float64 copy of values[j][i] = f_j(z_i)
    on merged support points."""

    values: np.ndarray
    targets: np.ndarray
    support: Dataset

    def __post_init__(self):
        a = np.array(self.values, dtype=float, copy=True)
        b = np.array(self.targets, dtype=float, copy=True)
        if a.ndim != 2:
            raise ValueError("values must be a 2-D array")
        if b.ndim != 1 or len(b) != a.shape[0]:
            raise ValueError("need one target per function row")
        if a.shape[1] != len(self.support):
            raise ValueError("need one column per support point")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("problem must have at least one function and one point")
        if not np.isfinite(a).all() or not np.isfinite(b).all():
            raise ValueError("values and targets must be finite")
        if (a > 1.0 + PIVOT_TOL).any() or (a < -1.0 - PIVOT_TOL).any():
            raise ValueError("function values must lie in [-1, 1]")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "values", a)
        object.__setattr__(self, "targets", b)


@dataclass(frozen=True)
class FitSolution:
    density: ExplicitDistribution
    objective: float
    iterations: int
    status: str  # "optimal" or "iteration-limit"


def build_lp(
    queries: QueryFamily, reduced_domain: Dataset, noisy_targets
) -> FitProblem:
    """Hand the kernel's Boolean table to FitProblem; duplicate domain points share one variable."""
    queries.check_schema(reduced_domain.schema)
    rows = reduced_domain.rows
    support = Dataset._adopt(reduced_domain.schema, rows[_first_occurrences(rows)])
    return FitProblem(
        values=queries.values_matrix(support.rows),
        targets=noisy_targets,
        support=support,
    )


def _columns(a: np.ndarray, idx) -> np.ndarray:
    """Standard-form columns idx: points (a_i, -a_i, 1), t (-1, ..., -1, 0), unit slacks."""
    nf, m = a.shape
    idx = np.asarray(idx)
    cols = np.zeros((2 * nf + 1, len(idx)))
    pts = np.flatnonzero(idx < m)
    cols[:nf, pts] = a[:, idx[pts]]
    cols[nf:-1, pts] = -a[:, idx[pts]]
    cols[-1, pts] = 1.0
    cols[:-1, idx == m] = -1.0
    slacks = np.flatnonzero(idx > m)
    cols[idx[slacks] - m - 1, slacks] = 1.0
    return cols


def solve_min_max(problem: FitProblem, max_iterations: int | None = None) -> FitSolution:
    """Global minimizer of the worst absolute residual over densities.

    Deterministic at a fixed BLAS thread count: identical problems give
    bit-identical solutions. Entering columns take the largest d_j^2 / w_j over
    reduced costs d_j < -PIVOT_TOL and Devex weights w_j (lowest index on ties).
    Devex can cycle, so a run of more than DEGENERACY_TRIP degenerate pivots
    switches to Bland's rule until the next nondegenerate pivot, with the
    weights frozen meanwhile. Bland's rule cannot cycle from any basis, so each
    degenerate run ends, and each nondegenerate pivot strictly lowers t: the
    solve terminates. "optimal" means a fresh factorization prices no column as
    improving. On hitting the iteration limit the current (still feasible)
    iterate is returned with status "iteration-limit".
    """
    a = problem.values
    b = problem.targets
    nf, m = a.shape
    n_rows = 2 * nf + 1
    t_col = m  # column order: h variables, t, upper slacks, lower slacks
    if max_iterations is None:
        max_iterations = 5000 + 10 * n_rows
    rhs = np.concatenate([b, -b, [1.0]])

    # Feasible starting vertex: all mass on the first support point. The slack
    # of the row with the largest residual leaves the basis (t replaces it).
    resid = a[:, 0] - b
    j_star = int(np.argmax(np.abs(resid)))
    leaving = m + 1 + j_star + (nf if resid[j_star] < 0 else 0)
    slacks = np.arange(m + 1, m + 1 + 2 * nf)
    basis = np.concatenate([[0, t_col], slacks[slacks != leaving]])

    def factorize():  # [B^-1 | x_B] from the basis columns
        binv = np.linalg.inv(_columns(a, basis))
        return np.column_stack([binv, binv @ rhs])

    def row_times_columns(v):  # v @ every standard-form column: one product over A
        return np.concatenate([(v[:nf] - v[nf:-1]) @ a + v[-1], [-v[:-1].sum()], v[:-1]])

    inv = factorize()
    np.maximum(inv[:, -1], 0.0, out=inv[:, -1])
    buf = np.empty_like(inv)  # the rank-1 update's outer product
    n_cols = m + 1 + 2 * nf
    w = np.ones(n_cols)  # Devex reference weights
    stale = 0  # rank-1 updates since the last factorization
    iterations = 0
    degenerate_run = 0
    bland = False
    while True:
        if stale >= REFACTOR_INTERVAL:
            inv, stale = factorize(), 0
        if not stale:  # full pricing from the duals c_B B^-1; the cost vector is e_t
            d = -row_times_columns((basis == t_col) @ inv[:, :-1])  # y = 0 while t is nonbasic
            d[m] += 1.0
            d[basis] = 0.0  # what basic columns price to in exact arithmetic
        # Bland's rule: the first improving column; Devex: the largest d_j^2 / w_j,
        # and any improving column outscores the -1 of the others.
        improving = d < -PIVOT_TOL
        q = int(np.argmax(improving if bland else np.where(improving, d * d / w, -1.0)))
        optimal = d[q] >= -PIVOT_TOL
        if optimal or iterations >= max_iterations:
            if stale:  # price again, and read the weights, on a fresh factorization
                stale = REFACTOR_INTERVAL
                continue
            status = "optimal" if optimal else "iteration-limit"
            break
        entering = np.concatenate([a[:, q], -a[:, q], [1.0]]) if q < m else _columns(a, [q])[:, 0]
        col = inv[:, :-1] @ entering
        pos = col > PIVOT_TOL
        if not pos.any():
            raise RuntimeError("fit problem is unbounded; inputs are malformed")
        ratios = np.full(n_rows, np.inf)
        ratios[pos] = np.maximum(inv[pos, -1], 0.0) / col[pos]
        best = ratios.min()
        ties = np.flatnonzero(ratios == best)
        leave = int(ties[np.argmin(basis[ties])])
        degenerate_run = degenerate_run + 1 if best <= 1e-12 else 0
        bland = degenerate_run > DEGENERACY_TRIP
        pivot_row = inv[leave] / col[leave]
        alpha = row_times_columns(pivot_row[:-1])  # the tableau's row leave, over col[leave]
        if not bland:  # Bland's small pivots would blow the weights up
            np.maximum(w, np.square(alpha) * w[q], out=w)
            w[basis[leave]] = max(w[q] / col[leave] ** 2, 1.0)
        d -= d[q] * alpha
        np.multiply.outer(col, pivot_row, out=buf)
        inv -= buf
        inv[leave] = pivot_row
        basis[leave] = q
        d[basis] = 0.0
        iterations += 1
        stale += 1

    x = np.zeros(n_cols)
    x[basis] = inv[:, -1]
    weights = x[:m].copy()
    if (weights < -1e-9).any():
        raise RuntimeError("solver produced negative weights beyond tolerance")
    np.clip(weights, 0.0, None, out=weights)
    weights /= weights.sum()
    objective = max(float(x[t_col]), 0.0)
    # Residual certificate against the original data; every simplex iterate is
    # feasible, so this only catches accumulated numerical drift.
    worst = float(np.max(np.abs(a @ weights - b)))
    if worst > objective + OPTIMALITY_GAP:
        raise RuntimeError(
            f"residual certificate failed: {worst:.3e} > {objective:.3e} + {OPTIMALITY_GAP:.1e}"
        )
    return FitSolution(
        density=ExplicitDistribution(problem.support, weights),
        objective=objective,
        iterations=iterations,
        status=status,
    )
