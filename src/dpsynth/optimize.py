"""Min-max density fitting on a reduced domain.

Solves
    minimize t  s.t.  |(A h)_j - b_j| <= t for all j,  h >= 0,  sum(h) = 1
by column generation (Gondzio, EJOR 2012) around Mehrotra's predictor-corrector
(SIAM J. Optim. 1992). The master M is the standard form over a working set W of
support points: A_W h - t + s+ = b, -A_W h - t + s- = -b, sum(h) = 1, all
variables >= 0, cost t, with its rows taken as sum(h) = 1 and the half-difference
and half-sum of the other two, so that its duals are (y_sum, u = y+ - y-,
v = y+ + y-). No dense M is formed: every M x and y M is computed from the
points' table [1; A_W]. The normal equations, with v eliminated, are solved at size |F|+1
by LU (numpy has no triangular solve) on a matrix built from K = A_W D A_W^T, under a
small ridge; a singular one raises FitGateError. A fit is returned only when a dual bound
over every support point certifies it, and is bit-reproducible at a fixed BLAS thread count.
A Boolean table of values is held, not copied, and read as float64 a block at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import _STATS_BLOCK, Dataset, QueryFamily, _first_occurrences
from .distributions import ExplicitDistribution

VALUE_TOL = 1e-9
OPTIMALITY_GAP = 1e-7
MAX_ITERATIONS = 1000  # interior-point iterations per fit, summed over rounds


class FitGateError(RuntimeError):
    """Raised when the min-max fit fails or stops before reaching its optimum."""


@dataclass(frozen=True)
class FitProblem:
    """Dense fitting instance: values[j][i] = f_j(z_i) on merged support points. A Boolean
    table is held as a read-only view (0/1 is finite and in range); others are copied to
    float64 and checked."""

    values: np.ndarray
    targets: np.ndarray
    support: Dataset

    def __post_init__(self):
        a = np.asarray(self.values)
        a = a.view() if a.dtype == bool else np.array(a, dtype=float)
        b = np.array(self.targets, dtype=float, copy=True)
        if a.ndim != 2:
            raise ValueError("values must be a 2-D array")
        if b.ndim != 1 or len(b) != a.shape[0]:
            raise ValueError("need one target per function row")
        if a.shape[1] != len(self.support):
            raise ValueError("need one column per support point")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("problem must have at least one function and one point")
        if not np.isfinite(b).all() or not (a.dtype == bool or np.isfinite(a).all()):
            raise ValueError("values and targets must be finite")
        if a.dtype != bool and ((a > 1.0 + VALUE_TOL).any() or (a < -1.0 - VALUE_TOL).any()):
            raise ValueError("function values must lie in [-1, 1]")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "values", a)
        object.__setattr__(self, "targets", b)


@dataclass(frozen=True)
class FitSolution:
    """A certified min-max fit: its density, worst residual and interior-point iterations."""

    density: ExplicitDistribution
    objective: float
    iterations: int


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


def _step(v: np.ndarray, dv: np.ndarray, fraction: float = 1.0) -> float:
    """The step along dv, at most 1, that goes ``fraction`` of the way to v's boundary (v > 0)."""
    return fraction / max(-float((dv / v).min()), fraction)


def _master_product(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M x for x = (h, t, s+, s-): (sum(h), A h + (s+ - s-) / 2, (s+ + s-) / 2 - t)."""
    n, w = table.shape
    plus, minus = x[w + 1 : w + n], x[w + n :]
    out = table @ x[:w]
    out[1:] += (plus - minus) / 2
    return np.concatenate([out, (plus + minus) / 2 - x[w]])


def _dual_product(table: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y M, stacked like x, for y = (y_sum, u, v): (y_sum + u A, -sum(v), y+, y-)."""
    n = len(table)
    u, v = y[1:n], y[n:]
    return np.concatenate([y[:n] @ table, [-v.sum()], (u + v) / 2, (v - u) / 2])


def _normal_solver(table: np.ndarray, d: np.ndarray):
    """r -> (M D M^T)^-1 r for the master M over the point table [1; A_W] and D = x / z.

    With S, T = (D+ +- D-) / 2 for the slack diagonals and B = S + 2 d_t 11^T, the
    duals' v is B^-1 (r+ + r- - T u), B^-1 by Sherman-Morrison. That leaves the SPD
    system [[sum(D_h), g^T], [g, K + diag(D+ D- / (D+ + D-)) + (c/2) q q^T]] in
    (y_sum, u), with K = A D_h A^T, g = A D_h, q = T / S and
    c = 2 d_t / (1 + 2 d_t sum(1/S)). The ridge is the full matrix's, on D+-, sum(D_h).
    numpy has no triangular solve, so the reduced matrix is solved by LU
    (np.linalg.solve); an exactly singular one raises FitGateError.
    """
    n, w = table.shape
    nf, dt, slacks = n - 1, d[w], d[w + 1 :]
    root = table * np.sqrt(d[:w])
    reduced = root @ root.T  # [[sum(D_h), g^T], [g, K]]: one triangle (BLAS syrk), mirrored
    ridge = 1e-14 * (2 * reduced.trace() - reduced[0, 0] + 2 * nf * dt + slacks.sum()) / (2 * nf + 1)
    p, m = slacks[:nf] + ridge, slacks[nf:] + ridge
    t, inv_s = (p - m) / 2, 2 / (s := p + m)
    q, c = t * inv_s, 2 * dt / (1 + 2 * dt * inv_s.sum())
    reduced[1:, 1:] += (c / 2 * q)[:, None] * q
    reduced.flat[:: n + 1] += np.concatenate([[ridge], p * m / s])

    def solve(r):
        y = r.copy()
        # (y_sum, u)'s right-hand side; T B^-1 r_v = q (r_v - c (r_v . 1/S)) for r_v = r[n:].
        y[1:n] -= q * (r[n:] - c * (inv_s @ r[n:]))
        try:
            y[:n] = np.linalg.solve(reduced, y[:n])
        except np.linalg.LinAlgError as exc:
            raise FitGateError("normal matrix is singular; inputs are malformed") from exc
        rv = 2 * r[n:] - t * y[1:n]
        y[n:] = inv_s * (rv - c * (inv_s @ rv))
        return y

    return solve


def _interior_point(a: np.ndarray, b: np.ndarray, working: np.ndarray, budget: int):
    """Mehrotra's predictor-corrector on the master over the support points ``working``.

    Returns the weights h, the duals y = (y_sum, u, v), the iterations taken
    and whether the stopping test was met within ``budget`` iterations.
    """
    nf, w = len(b), len(working)
    table = np.ones((nf + 1, w))  # the points' columns (1, a_i), one C-contiguous table
    table[1:] = a[:, working]
    target = np.concatenate([[1.0], b, np.zeros(nf)])
    scale = 1 + np.abs(target).max()
    # Start from uniform h, t = 1, slacks max(t -+ residual, 1), multipliers 1 and y = 0.
    resid = table[1:].mean(axis=1) - b
    x = np.concatenate([np.full(w, 1 / w), [1], np.maximum(1 - resid, 1), np.maximum(1 + resid, 1)])
    z = np.ones(len(x))
    y = np.zeros(2 * nf + 1)
    last = np.inf
    for iteration in itertools.count():
        r_p = target - _master_product(table, x)
        r_d = -_dual_product(table, y) - z
        r_d[w] += 1.0  # t's cost
        gap = abs(x[w] - target @ y) / (1 + x[w])
        # max(|r+|, |r-|) = |(r+ - r-) / 2| + |(r+ + r-) / 2|
        primal = max(abs(r_p[0]), (np.abs(r_p[1 : nf + 1]) + np.abs(r_p[nf + 1 :])).max())
        error = max(primal / scale, np.abs(r_d).max() / 2, gap)
        # Stop once the relative residuals and gap are below 1e-9 and an iteration
        # no longer shrinks them tenfold, or once x . z is at rounding level,
        # past which the iterates only crowd the boundary until x / z overflows.
        xz = x @ z
        converged = (last < 1e-9 and error > last / 10) or xz < 1e-14 * (1 + x[w])
        if converged or iteration == budget:
            return x[:w], y, iteration, converged
        last = error
        d = x / z
        dr = d * r_d
        solve = _normal_solver(table, d)  # M D M^T through its (|F|+1)-square reduction

        def direction(rc):  # the Newton direction towards x * z = rc
            dy = solve(r_p + _master_product(table, dr - rc / z))
            dz = r_d - _dual_product(table, dy)
            return (rc - x * dz) / z, dy, dz

        centring = x * z
        dx, dy, dz = direction(-centring)  # predictor
        mu = xz / len(x)
        sigma = ((x + _step(x, dx) * dx) @ (z + _step(z, dz) * dz) / len(x) / mu) ** 3
        dx, dy, dz = direction(sigma * mu - centring - dx * dz)  # corrector
        x += _step(x, dx, 0.99) * dx
        step = _step(z, dz, 0.99)
        y += step * dy
        z += step * dz


def solve_min_max(problem: FitProblem) -> FitSolution:
    """Global minimizer of the worst absolute residual over densities.

    W starts as the first max(2|F|+1, 64) support points. Each round prices point i by
    -((y+ - y-) . a_i + y_sum) and adds up to max(2|F|, 50) of the most negative prices below
    -OPTIMALITY_GAP; it reads the values as float64 blocks of about _STATS_BLOCK bytes, whole
    64-column groups, so BLAS sums each price as over the whole table. The weights are the
    master's, renormalized (zero off W), and ``objective`` is their worst residual. A fit is
    returned only when a pricing pass over all points found nothing to add and the objective
    is within OPTIMALITY_GAP of the dual bound those prices certify; otherwise, or once the
    interior-point iterations summed over rounds reach MAX_ITERATIONS, FitGateError is raised.
    Deterministic at a fixed BLAS thread count: identical problems give bit-identical solutions.
    """
    a, b = problem.values, problem.targets
    nf, m = a.shape
    working = np.arange(min(m, max(2 * nf + 1, 64)))
    step = 64 * max(1, _STATS_BLOCK // (512 * nf))  # pricing's columns per block
    iterations = 0
    while True:
        h, y, used, converged = _interior_point(a, b, working, MAX_ITERATIONS - iterations)
        iterations += used
        u = y[1 : nf + 1]
        cast = (np.ascontiguousarray(a[:, i : i + step], float) for i in range(0, m, step))
        g = np.concatenate([u @ block for block in cast])
        prices = -(g + y[0])
        prices[working] = 0.0
        entering = np.flatnonzero(prices < -OPTIMALITY_GAP)
        if converged and not len(entering):
            break
        if not converged or iterations >= MAX_ITERATIONS:
            raise FitGateError(
                f"min-max fit stopped: iteration-limit after {iterations} iterations"
            )
        order = np.argsort(prices[entering], kind="stable")[: max(2 * nf, 50)]
        working = np.concatenate([working, entering[order]])

    weights = np.zeros(m)
    weights[working] = h / h.sum()
    objective = float(np.max(np.abs(a[:, working].astype(float) @ weights[working] - b)))
    # Any w with |w|_1 <= 1 bounds t* below by min_i w . a_i - w . b; take w = -u.
    bound = (u @ b - g.max()) / max(1.0, float(np.abs(u).sum()))
    if objective > bound + OPTIMALITY_GAP:
        raise FitGateError(
            f"dual certificate failed: {objective:.3e} > {bound:.3e} + {OPTIMALITY_GAP:.1e}"
        )
    return FitSolution(
        density=ExplicitDistribution(problem.support, weights),
        objective=objective,
        iterations=iterations,
    )
