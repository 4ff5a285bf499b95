"""Min-max density fitting on a reduced domain.

Solves
    minimize t  s.t.  |(A h)_j - b_j| <= t for all j,  h >= 0,  sum(h) = 1
with a revised primal simplex on the standard form (one slack pair per
statistic) that keeps only the inverse of the (2|F|+1)-square basis. Any
point mass on the reduced domain is feasible, so the solve starts from that
vertex and needs no phase-1.
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
    """Dense fitting instance: values[j][i] = f_j(z_i) on merged support points."""

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
        if (np.abs(a) > 1.0 + PIVOT_TOL).any():
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
    """Assemble the fitting instance; duplicate domain points share one variable."""
    if len(reduced_domain) == 0:
        raise ValueError("empty reduced domain")
    targets = np.asarray(noisy_targets, dtype=float)
    if targets.ndim != 1 or len(targets) != len(queries):
        raise ValueError("need exactly one target per family function")
    queries.check_schema(reduced_domain.schema)
    rows = reduced_domain.rows
    support = Dataset._adopt(reduced_domain.schema, rows[_first_occurrences(rows)])
    return FitProblem(
        values=queries.values_matrix(support.rows),
        targets=targets,
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

    Deterministic: identical problems give bit-identical solutions. Entering
    columns take the most negative reduced cost (lowest index on ties) until a
    run of degenerate pivots trips Bland's rule. On hitting the iteration
    limit the current (still feasible) iterate is returned with status
    "iteration-limit".
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

    inv = factorize()
    np.maximum(inv[:, -1], 0.0, out=inv[:, -1])
    stale = 0  # rank-1 updates since the last factorization
    iterations = 0
    degenerate_run = 0
    bland = False
    while True:
        if stale >= REFACTOR_INTERVAL:
            inv, stale = factorize(), 0
        y = (basis == t_col) @ inv[:, :-1]  # duals c_B B^-1; the cost vector is e_t
        points = (y[nf:-1] - y[:nf]) @ a - y[-1]  # one product prices every point
        reduced = np.concatenate([points, [1.0 + y[:-1].sum()], -y[:-1]])
        reduced[basis] = 0.0  # what basic columns price to in exact arithmetic
        # Bland's rule: the first improving column; Dantzig's: the most negative.
        q = int(np.argmax(reduced < -PIVOT_TOL) if bland else np.argmin(reduced))
        optimal = reduced[q] >= -PIVOT_TOL
        if optimal or iterations >= max_iterations:
            if stale:  # price again, and read the weights, on a fresh factorization
                stale = REFACTOR_INTERVAL
                continue
            status = "optimal" if optimal else "iteration-limit"
            break
        col = inv[:, :-1] @ _columns(a, [q])[:, 0]
        pos = col > PIVOT_TOL
        if not pos.any():
            raise RuntimeError("fit problem is unbounded; inputs are malformed")
        ratios = np.full(n_rows, np.inf)
        ratios[pos] = np.maximum(inv[pos, -1], 0.0) / col[pos]
        best = ratios.min()
        ties = np.flatnonzero(ratios == best)
        leave = int(ties[np.argmin(basis[ties])])
        degenerate_run = degenerate_run + 1 if best <= 1e-12 else 0
        bland = bland or degenerate_run > DEGENERACY_TRIP
        pivot_row = inv[leave] / col[leave]
        inv -= np.outer(col, pivot_row)
        inv[leave] = pivot_row
        basis[leave] = q
        iterations += 1
        stale += 1

    x = np.zeros(m + 1 + 2 * nf)
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
