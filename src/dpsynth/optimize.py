"""Min-max density fitting on a reduced domain.

Solves
    minimize t  s.t.  |(A h)_j - b_j| <= t for all j,  h >= 0,  sum(h) = 1
by column generation (Gondzio, EJOR 2012) around Mehrotra's predictor-corrector
(SIAM J. Optim. 1992). The master is the standard form over a working set W of
support points: A_W h - t + s+ = b, -A_W h - t + s- = -b, sum(h) = 1, all
variables >= 0, cost t. Its normal equations, with y+ + y- eliminated, are
solved at size |F|+1 through the Cholesky factor of a matrix built from
K = A_W D A_W^T. "optimal" is certified by a dual bound over every support
point, and a fit is bit-reproducible at a fixed BLAS thread count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import Dataset, QueryFamily, _first_occurrences
from .distributions import ExplicitDistribution

VALUE_TOL = 1e-9
OPTIMALITY_GAP = 1e-7


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
        if (a > 1.0 + VALUE_TOL).any() or (a < -1.0 - VALUE_TOL).any():
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


def _step(v: np.ndarray, dv: np.ndarray, fraction: float = 1.0) -> float:
    """The step along dv, at most 1, that goes ``fraction`` of the way to v's boundary (v > 0)."""
    return fraction / max(-float((dv / v).min()), fraction)


def _normal_solver(a: np.ndarray, d: np.ndarray):
    """r -> (M D M^T)^-1 r for the master M over the point columns ``a`` and D = x / z.

    With S, T = (D+ +- D-) / 2 for the slack diagonals and B = S + 2 d_t 11^T, the
    duals' v = y+ + y- is B^-1 (r+ + r- - T u), B^-1 by Sherman-Morrison. That leaves
    the SPD system [[K + diag(D+ D- / (D+ + D-)) + (c/2) q q^T, g], [g^T, sum(D_h)]] in
    (u = y+ - y-, y_sum), with K = A D_h A^T, g = A D_h, q = T / S and
    c = 2 d_t / (1 + 2 d_t sum(1/S)). The ridge is the full matrix's, on D+-, sum(D_h).
    """
    nf, w = a.shape
    dh, dt, dp, dm = d[:w], d[w], d[w + 1 : w + 1 + nf], d[w + 1 + nf :]
    root = a * np.sqrt(dh)
    k = root @ root.T  # one triangle (BLAS syrk), mirrored
    n = nf + 1
    reduced = np.empty((n, n))
    reduced[:nf, -1] = reduced[-1, :nf] = a @ dh
    ridge = 1e-14 * (2 * np.trace(k) + 2 * nf * dt + dp.sum() + dm.sum() + dh.sum()) / (2 * nf + 1)
    for _ in range(7):  # a ridge of up to 1e-2 of the mean diagonal
        p, m = dp + ridge, dm + ridge
        t, inv_s = (p - m) / 2, 2 / (p + m)
        q, c = t * inv_s, 2 * dt / (1 + 2 * dt * inv_s.sum())
        reduced[:nf, :nf] = k + np.outer(c / 2 * q, q)
        reduced.flat[: n * nf : n + 1] += p * m / (p + m)
        reduced[-1, -1] = dh.sum() + ridge
        try:
            factor = np.linalg.cholesky(reduced)
            break
        except np.linalg.LinAlgError:
            ridge *= 100.0
    else:
        raise RuntimeError("normal matrix is not positive definite; inputs are malformed")
    blocks = range(0, n, 64)
    inverses = [np.linalg.inv(factor[j : j + 64, j : j + 64]) for j in blocks]

    def solve(r):
        rv = r[:nf] + r[nf:-1]
        # (u, y_sum)'s right-hand side; T B^-1 r = q (r - c (r . 1/S)).
        u = np.concatenate([(r[:nf] - r[nf:-1] - q * (rv - c * (inv_s @ rv))) / 2, r[-1:]])
        for j, inverse in zip(blocks, inverses):  # forward substitution by blocks
            u[j : j + 64] = inverse @ u[j : j + 64]
            u[j + 64 :] -= factor[j + 64 :, j : j + 64] @ u[j : j + 64]
        for j, inverse in zip(reversed(blocks), reversed(inverses)):  # back substitution
            u[j : j + 64] = inverse.T @ u[j : j + 64]
            u[:j] -= factor[j : j + 64, :j].T @ u[j : j + 64]
        rv -= t * u[:nf]
        v = inv_s * (rv - c * (inv_s @ rv))
        return np.concatenate([(v + u[:nf]) / 2, (v - u[:nf]) / 2, u[nf:]])

    return solve


def _interior_point(a: np.ndarray, b: np.ndarray, working: np.ndarray, budget: int):
    """Mehrotra's predictor-corrector on the master over the support points ``working``.

    Returns the weights h, the duals y = (y+, y-, y_sum), the iterations taken
    and whether the stopping test was met within ``budget`` iterations.
    """
    nf, w = len(b), len(working)
    n = 2 * nf + 1
    # Standard-form columns: points (a_i, -a_i, 1), t (-1, ..., -1, 0), unit slacks.
    master = np.zeros((n, w + n))
    master[:nf, :w] = a[:, working]
    a = master[:nf, :w]
    master[nf:-1, :w] = -a
    master[-1, :w] = 1.0
    master[:-1, w] = -1.0
    np.fill_diagonal(master[:-1, w + 1 :], 1.0)
    rhs = np.concatenate([b, -b, [1.0]])
    cost = np.zeros(w + n)
    cost[w] = 1.0
    # Start from uniform h, t = 1, slacks max(t -+ residual, 1), multipliers 1 and y = 0.
    resid = a.mean(axis=1) - b
    x = np.concatenate([np.full(w, 1 / w), [1], np.maximum(1 - resid, 1), np.maximum(1 + resid, 1)])
    z = np.ones(w + n)
    y = np.zeros(n)
    last = np.inf
    for iteration in itertools.count():
        r_p = rhs - master @ x
        r_d = cost - y @ master - z
        gap = abs(x[w] - rhs @ y) / (1 + x[w])
        error = max(np.abs(r_p).max() / (1 + np.abs(rhs).max()), np.abs(r_d).max() / 2, gap)
        # Stop once the relative residuals and gap are below 1e-9 and an iteration
        # no longer shrinks them tenfold, or once x . z is at rounding level,
        # past which the iterates only crowd the boundary until x / z overflows.
        if (last < 1e-9 and error > last / 10) or x @ z < 1e-14 * (1 + x[w]):
            return x[:w], y, iteration, True
        if iteration == budget:
            return x[:w], y, iteration, False
        last = error
        d = x / z
        solve = _normal_solver(a, d)  # M D M^T through its (|F|+1)-square reduction

        def direction(rc):  # the Newton direction towards x * z = rc
            dy = solve(r_p + master @ (d * r_d - rc / z))
            dz = r_d - dy @ master
            return (rc - x * dz) / z, dy, dz

        dx, dy, dz = direction(-x * z)  # predictor
        mu = x @ z / len(x)
        sigma = ((x + _step(x, dx) * dx) @ (z + _step(z, dz) * dz) / len(x) / mu) ** 3
        dx, dy, dz = direction(sigma * mu - x * z - dx * dz)  # corrector
        x = x + _step(x, dx, 0.99) * dx
        step = _step(z, dz, 0.99)
        y = y + step * dy
        z = z + step * dz


def solve_min_max(problem: FitProblem, max_iterations: int | None = None) -> FitSolution:
    """Global minimizer of the worst absolute residual over densities.

    W starts as the first max(2|F|+1, 64) support points. Each round prices
    point i by -((y+ - y-) . a_i + y_sum) and adds up to max(2|F|, 50) of the
    most negative prices below -OPTIMALITY_GAP. The weights are the master's,
    renormalized (zero off W), and ``objective`` is their worst residual.
    "optimal" means a pricing pass over all points found nothing to add and
    the objective is within OPTIMALITY_GAP of the dual bound those prices
    certify. ``max_iterations`` caps the interior-point iterations summed over
    rounds (``iterations``); at the cap the current weights (at 0, the uniform
    start) are returned with status "iteration-limit". Deterministic at a
    fixed BLAS thread count: identical problems give bit-identical solutions.
    """
    a, b = problem.values, problem.targets
    nf, m = a.shape
    if max_iterations is None:
        max_iterations = 1000
    working = np.arange(min(m, max(2 * nf + 1, 64)))
    iterations = 0
    while True:
        h, y, used, converged = _interior_point(a, b, working, max_iterations - iterations)
        iterations += used
        u = y[:nf] - y[nf:-1]
        g = u @ a
        prices = -(g + y[-1])
        prices[working] = 0.0
        entering = np.flatnonzero(prices < -OPTIMALITY_GAP)
        if not (converged and len(entering)) or iterations >= max_iterations:
            break
        order = np.argsort(prices[entering], kind="stable")[: max(2 * nf, 50)]
        working = np.concatenate([working, entering[order]])

    status = "optimal" if converged and not len(entering) else "iteration-limit"
    weights = np.zeros(m)
    weights[working] = h / h.sum()
    objective = float(np.max(np.abs(a[:, working] @ weights[working] - b)))
    # Any w with |w|_1 <= 1 bounds t* below by min_i w . a_i - w . b; take w = -u.
    bound = (u @ b - g.max()) / max(1.0, float(np.abs(u).sum()))
    if status == "optimal" and objective > bound + OPTIMALITY_GAP:
        raise RuntimeError(
            f"dual certificate failed: {objective:.3e} > {bound:.3e} + {OPTIMALITY_GAP:.1e}"
        )
    return FitSolution(
        density=ExplicitDistribution(problem.support, weights),
        objective=objective,
        iterations=iterations,
        status=status,
    )
