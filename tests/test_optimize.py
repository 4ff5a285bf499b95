import time

import numpy as np
import pytest

from dpsynth import (
    Dataset,
    FitGateError,
    FitProblem,
    ProductDistribution,
    QueryFamily,
    TestFunction,
    build_lp,
    evaluate_all,
    exact_statistics,
    laplace_vector,
    marginal_family,
    optimize,
    privacy_check,
    solve_min_max,
)
from dpsynth.optimize import VALUE_TOL, _dual_product, _master_product, _normal_solver
from grid_oracle import grid_minimax, grid_minimax_dense


def random_problem(rng, max_functions=3, max_points=4):
    nf = int(rng.integers(1, max_functions + 1))
    m = int(rng.integers(1, max_points + 1))
    values = rng.uniform(-1.0, 1.0, size=(nf, m))
    targets = rng.uniform(-1.5, 1.5, size=nf)
    support = Dataset((max_points,), np.arange(m, dtype=np.int64)[:, None])
    return FitProblem(values=values, targets=targets, support=support)


class TestGridOracle:
    def test_fast_oracle_matches_dense_enumeration(self):
        rng = np.random.default_rng(404)
        for _ in range(60):
            nf = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5))
            values = rng.uniform(-1.0, 1.0, size=(nf, m))
            targets = rng.uniform(-1.5, 1.5, size=nf)
            steps = 12
            fast = grid_minimax(values, targets, 1.0 / steps)
            dense = grid_minimax_dense(values, targets, steps)
            # both scan the same grid; only the residual arithmetic differs,
            # so they agree to rounding error
            assert fast == pytest.approx(dense, abs=1e-12)


class TestBuildLp:
    def test_merges_duplicate_points_in_first_seen_order(self):
        family = QueryFamily([TestFunction.constant_one()])
        domain = Dataset((3,), [[2], [0], [2], [1], [0]])
        problem = build_lp(family, domain, [1.0])
        assert problem.support.rows[:, 0].tolist() == [2, 0, 1]
        assert problem.values.shape == (1, 3)

    @pytest.mark.parametrize("schema", [(2,) * 5, (3, 300, 2), (70_000, 2)])
    def test_support_matches_the_sorting_dedup_reference(self, schema):
        rng = np.random.default_rng(len(schema))
        rows = np.column_stack([rng.integers(0, min(a, 4), 500) for a in schema])
        family = QueryFamily([TestFunction.constant_one()])
        support = build_lp(family, Dataset(schema, rows), [1.0]).support.rows
        # The np.unique merge the lexsort dedup replaced: first occurrences,
        # in order of first appearance.
        uniq, first = np.unique(rows, axis=0, return_index=True)
        assert np.array_equal(support, uniq[np.argsort(first)])
        assert support.dtype == Dataset(schema, rows).rows.dtype

    def test_empty_domain_rejected(self):
        family = QueryFamily([TestFunction.constant_one()])
        with pytest.raises(ValueError, match="at least one function and one point"):
            build_lp(family, Dataset((2,), []), [1.0])

    def test_target_length_checked(self):
        family = QueryFamily([TestFunction.constant_one()])
        domain = Dataset((2,), [[0]])
        with pytest.raises(ValueError, match="one target per"):
            build_lp(family, domain, [1.0, 0.5])

    def test_values_computed_per_function(self):
        family = QueryFamily(
            [TestFunction.constant_one(), TestFunction.assignment((0,), (1,))]
        )
        domain = Dataset((2,), [[0], [1]])
        problem = build_lp(family, domain, [1.0, 0.3])
        assert problem.values.tolist() == [[1.0, 1.0], [0.0, 1.0]]

    def test_values_are_the_boolean_table_read_only(self):
        family = marginal_family(4, 2)
        domain = ProductDistribution.uniform((2,) * 4).sample(40, 3)
        problem = build_lp(family, domain, np.zeros(len(family)))
        assert problem.values.dtype == bool
        assert not problem.values.flags.writeable
        assert np.array_equal(problem.values, family.values_matrix(problem.support.rows))

    def test_boolean_values_are_held_not_copied(self):
        table = np.array([[True, False], [True, True]])
        problem = FitProblem(values=table, targets=np.zeros(2), support=Dataset((2,), [[0], [1]]))
        assert np.shares_memory(problem.values, table)
        assert not problem.values.flags.writeable
        assert table.flags.writeable  # the view is read-only, the caller's table is not


class TestFitProblemValidation:
    def test_value_range(self):
        support = Dataset((2,), [[0]])
        with pytest.raises(ValueError, match=r"lie in \[-1, 1\]"):
            FitProblem(values=np.array([[1.5]]), targets=np.array([0.0]), support=support)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_value_range_boundary(self, sign):
        support = Dataset((2,), [[0]])
        limit = sign * (1.0 + VALUE_TOL)
        at = FitProblem(values=np.array([[limit]]), targets=np.array([0.0]), support=support)
        assert at.values[0, 0] == limit
        beyond = np.nextafter(limit, sign * np.inf)
        with pytest.raises(ValueError, match=r"lie in \[-1, 1\]"):
            FitProblem(values=np.array([[beyond]]), targets=np.array([0.0]), support=support)

    def test_finite(self):
        support = Dataset((2,), [[0]])
        with pytest.raises(ValueError, match="finite"):
            FitProblem(
                values=np.array([[np.nan]]), targets=np.array([0.0]), support=support
            )

    def test_shapes(self):
        support = Dataset((2,), [[0], [1]])
        with pytest.raises(ValueError, match="values must be a 2-D array"):
            FitProblem(values=np.ones(3), targets=np.array([0.0]), support=support)
        with pytest.raises(ValueError, match="one column per support point"):
            FitProblem(
                values=np.array([[1.0]]), targets=np.array([0.0]), support=support
            )
        with pytest.raises(ValueError, match="one target per function row"):
            FitProblem(
                values=np.array([[1.0, 0.0]]), targets=np.array([0.0, 1.0]), support=support
            )


class TestSolveMinMax:
    def test_exactly_fittable_targets(self):
        # matching the indicator target 0.3 forces weights (0.7, 0.3)
        family = QueryFamily(
            [TestFunction.constant_one(), TestFunction.assignment((0,), (1,))]
        )
        domain = Dataset((2,), [[0], [1]])
        problem = build_lp(family, domain, [1.0, 0.3])
        solution = solve_min_max(problem)
        assert solution.objective == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(solution.density.weights, [0.7, 0.3], atol=1e-12)
        # The fitted density is a distribution like any other.
        assert np.allclose(exact_statistics(solution.density, family), [1.0, 0.3], atol=1e-12)

    def test_unreachable_target_splits_the_gap(self):
        # best density puts all mass on the indicator point, leaving residual 0.5
        family = QueryFamily(
            [TestFunction.constant_one(), TestFunction.assignment((0,), (1,))]
        )
        domain = Dataset((2,), [[0], [1]])
        problem = build_lp(family, domain, [1.0, 1.5])
        solution = solve_min_max(problem)
        assert solution.objective == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(solution.density.weights, [0.0, 1.0], atol=1e-12)

    def test_single_point_domain(self):
        family = QueryFamily([TestFunction.constant_one()])
        problem = build_lp(family, Dataset((2,), [[0]]), [0.6])
        solution = solve_min_max(problem)
        assert solution.density.weights[0] == 1.0
        assert solution.objective == pytest.approx(0.4, abs=1e-12)

    def test_repeated_support_point_rejected(self):
        # build_lp merges repeated points; a hand-made problem must not repeat one
        support = Dataset((2,), [[0], [0]])
        problem = FitProblem(values=np.ones((1, 2)), targets=np.ones(1), support=support)
        with pytest.raises(ValueError, match="^points must be distinct$"):
            solve_min_max(problem)

    def test_matches_grid_oracle_on_random_instances(self):
        rng = np.random.default_rng(505)
        for _ in range(40):
            problem = random_problem(rng)
            solution = solve_min_max(problem)
            oracle = grid_minimax(problem.values, problem.targets, 1e-3)
            # the grid is 1e-3 coarse, so the oracle can only sit slightly above
            # the continuous optimum
            assert solution.objective <= oracle + 1e-6
            assert oracle <= solution.objective + 2e-3

    def test_solution_is_always_feasible(self):
        rng = np.random.default_rng(606)
        for _ in range(50):
            problem = random_problem(rng, max_functions=5, max_points=6)
            solution = solve_min_max(problem)
            w = solution.density.weights
            assert (w >= 0).all()
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            worst = np.max(np.abs(problem.values @ w - problem.targets))
            assert worst <= solution.objective + 1e-7

    def test_determinism(self):
        rng = np.random.default_rng(707)
        problem = random_problem(rng, max_functions=4, max_points=6)
        first = solve_min_max(problem)
        second = solve_min_max(problem)
        assert np.array_equal(first.density.weights, second.density.weights)
        assert first.objective == second.objective
        assert first.iterations == second.iterations

    def test_marginal_fit_on_reduced_domain(self):
        # an order-1 marginal fit over a sampled Boolean domain reaches a small
        # objective when the targets are consistent
        family = marginal_family(6, 1, "monotone")
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 2, size=(80, 6))
        domain = Dataset((2,) * 6, rows)
        targets = np.array([1.0] + [0.5] * 6)
        solution = solve_min_max(build_lp(family, domain, targets))
        assert solution.objective <= 0.05

    def test_iteration_cap_counts_every_round(self, monkeypatch):
        problem = pipeline_sized_problem(7)
        full = solve_min_max(problem)
        # column generation added points to the first 2|F| + 1
        assert np.count_nonzero(full.density.weights) > 2 * 137 + 1
        cap = full.iterations - 1
        monkeypatch.setattr(optimize, "MAX_ITERATIONS", cap)
        with pytest.raises(
            FitGateError, match=f"^min-max fit stopped: iteration-limit after {cap} iterations$"
        ):
            solve_min_max(problem)

    def test_iteration_cap_of_zero_raises_before_any_iteration(self, monkeypatch):
        family = QueryFamily(
            [TestFunction.constant_one(), TestFunction.assignment((0,), (1,))]
        )
        problem = build_lp(family, Dataset((2,), [[0], [1]]), [1.0, 0.3])
        monkeypatch.setattr(optimize, "MAX_ITERATIONS", 0)
        with pytest.raises(
            FitGateError, match="^min-max fit stopped: iteration-limit after 0 iterations$"
        ):
            solve_min_max(problem)

    def test_fit_that_uses_exactly_the_cap_is_returned(self, monkeypatch):
        problem = pipeline_sized_problem(7)
        full = solve_min_max(problem)
        monkeypatch.setattr(optimize, "MAX_ITERATIONS", full.iterations)
        capped = solve_min_max(problem)
        assert capped.iterations == full.iterations
        assert capped.objective == full.objective
        assert np.array_equal(capped.density.weights, full.density.weights)

    def test_cap_reached_between_rounds_raises(self, monkeypatch):
        # the master converged, but pricing wants another round the cap leaves no room for
        rounds = []
        master = optimize._interior_point

        def recording(a, b, working, done):
            result = master(a, b, working, done)
            rounds.append(result[2])
            return result

        monkeypatch.setattr(optimize, "_interior_point", recording)
        problem = pipeline_sized_problem(7)
        solve_min_max(problem)
        assert len(rounds) > 1
        cap = rounds[0]
        monkeypatch.setattr(optimize, "MAX_ITERATIONS", cap)
        with pytest.raises(
            FitGateError, match=f"^min-max fit stopped: iteration-limit after {cap} iterations$"
        ):
            solve_min_max(problem)

    def test_failed_dual_certificate_is_a_fit_gate_error(self, monkeypatch):
        # a master that answers uniform weights with the true duals: the fit is 0.2 off
        # the optimum 0, so the dual bound the prices certify rejects it
        master = optimize._interior_point

        def uniform(a, b, working, done):
            h, y, iterations = master(a, b, working, done)
            return np.ones_like(h), y, iterations

        monkeypatch.setattr(optimize, "_interior_point", uniform)
        family = QueryFamily(
            [TestFunction.constant_one(), TestFunction.assignment((0,), (1,))]
        )
        problem = build_lp(family, Dataset((2,), [[0], [1]]), [1.0, 0.3])
        with pytest.raises(FitGateError, match=r"^dual certificate failed: 2\.000e-01 > "):
            solve_min_max(problem)

    def test_singular_normal_matrix_is_a_fit_gate_error(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        problem = random_problem(np.random.default_rng(6))
        with pytest.raises(FitGateError, match="^normal matrix is singular; inputs are malformed$"):
            solve_min_max(problem)

    def test_objective_never_negative(self):
        rng = np.random.default_rng(808)
        for _ in range(20):
            problem = random_problem(rng)
            assert solve_min_max(problem).objective >= 0.0


def dense_master(a):
    """The standard-form master over the point columns ``a``, rows (+, -, sum): columns
    (a_i, -a_i, 1), t's (-1, ..., -1, 0) and unit slacks."""
    nf, w = a.shape
    n = 2 * nf + 1
    master = np.zeros((n, w + n))
    master[:nf, :w], master[nf:-1, :w], master[-1, :w] = a, -a, 1.0
    master[:-1, w] = -1.0
    np.fill_diagonal(master[:-1, w + 1 :], 1.0)
    return master


def dual_coordinates(nf):
    """Q with (y+, y-, y_sum) = Q (y_sum, u, v), the solver's duals; Q^T takes the
    rows (+, -, sum) to the solver's (sum, half-difference, half-sum)."""
    q = np.zeros((2 * nf + 1, 2 * nf + 1))
    half = np.eye(nf) / 2
    q[:nf, 1 : nf + 1], q[:nf, nf + 1 :] = half, half
    q[nf:-1, 1 : nf + 1], q[nf:-1, nf + 1 :] = -half, half
    q[-1, 0] = 1.0
    return q


@pytest.mark.parametrize("nf", [1, 17, 63, 64, 65, 137, 301, 697])
@pytest.mark.parametrize("regime", ["interior", "t* = 0"])
def test_reduced_normal_solve_matches_the_dense_normal_equations(nf, regime):
    # The size-(|F|+1) solve against np.linalg.solve on the (2|F|+1)-square
    # normal matrix M D M^T with the full matrix's ridge; |F| runs from one
    # function to the order-3 instance's 697, with 301 for instance C. The
    # solver takes Q^T r and returns Q^-1 dy.
    rng = np.random.default_rng(nf)
    w = 3 * nf + 2
    n = 2 * nf + 1
    a = rng.uniform(-1.0, 1.0, size=(nf, w))
    x, z = rng.random(w + n), rng.random(w + n)
    if regime == "t* = 0":
        x[w:] *= 1e-12  # t and every slack vanish together
    d = x / z
    master = dense_master(a)
    normal = (master * d) @ master.T
    normal.flat[:: n + 1] += 1e-14 * np.trace(normal) / n
    r = rng.normal(size=n)
    dense = np.linalg.solve(normal, r)
    q = dual_coordinates(nf)
    dy = q @ _normal_solver(np.vstack([np.ones(w), a]), d)(q.T @ r)
    # Backward stable, like the dense solve: the residual is a few n * eps of
    # |M D M^T| |dy| + |r|, although the t* = 0 matrices have condition numbers past 1e12.
    scale = np.abs(normal).sum(axis=1).max() * np.abs(dy).max() + np.abs(r).max()
    assert np.abs(normal @ dy - r).max() <= 1e-13 * scale
    # Within eps times the condition number of the dense solution. A ridge placed
    # anywhere but on the full matrix's diagonal misses this fivefold or more at t* = 0.
    bound = np.finfo(float).eps * np.linalg.cond(normal) * np.abs(dense).max()
    assert np.abs(dy - dense).max() <= bound


@pytest.mark.parametrize("nf", [1, 17, 137])
@pytest.mark.parametrize("regime", ["interior", "t* = 0"])
def test_structured_products_match_the_dense_master(nf, regime):
    # M x and y M from the point table [1; A] against the dense master with its
    # rows taken as (sum, half-difference, half-sum), Q^T M, whose entries are exact.
    rng = np.random.default_rng(100 + nf)
    w = 3 * nf + 2
    a = rng.uniform(-1.0, 1.0, size=(nf, w))
    x, y = rng.random(w + 2 * nf + 1), rng.normal(size=2 * nf + 1)
    if regime == "t* = 0":
        x[w:] *= 1e-12  # t and every slack vanish together
        y[1 : nf + 1] *= 1e-12  # y+ and y- agree to 12 digits
    rotated = dual_coordinates(nf).T @ dense_master(a)
    table = np.vstack([np.ones(w), a])
    # Each entry is a sum of at most len(x) terms in both, in different orders.
    eps = len(x) * np.finfo(float).eps
    rows = _master_product(table, x)
    assert np.all(np.abs(rows - rotated @ x) <= eps * (np.abs(rotated) @ np.abs(x)))
    columns = _dual_product(table, y)
    assert np.all(np.abs(columns - y @ rotated) <= eps * (np.abs(y) @ np.abs(rotated)))


def pipeline_sized_problem(seed, p=16, d=2, n=1000, m=8000):
    """The fit generate() builds for order-d marginals on random Boolean data."""
    rng = np.random.default_rng(seed)
    family = marginal_family(p, d, "monotone")
    schema = (2,) * p
    data = Dataset(schema, rng.integers(0, 2, size=(n, p)))
    sigma = privacy_check(n, None, 0.2, len(family), 0.1).sigma
    targets = evaluate_all(family, data) + laplace_vector(sigma, len(family), rng)
    domain = ProductDistribution.uniform(schema).sample(m, rng)
    return build_lp(family, domain, targets)


@pytest.mark.parametrize("seed", [3, 6, 7])  # seed 3 takes three column-generation rounds
def test_boolean_table_fits_bit_identically_to_its_float_copy(seed):
    problem = pipeline_sized_problem(seed)
    assert problem.values.dtype == bool
    as_float = FitProblem(
        values=problem.values.astype(float), targets=problem.targets, support=problem.support
    )
    held, copied = solve_min_max(problem), solve_min_max(as_float)
    assert held.density.weights.tobytes() == copied.density.weights.tobytes()
    assert held.objective == copied.objective
    assert held.iterations == copied.iterations


def highs_min_max(problem):
    """Optimal worst residual from scipy's HiGHS on the same LP in inequality form,
    handed over sparse so that instance C's constraint matrix stays small."""
    from scipy import sparse
    from scipy.optimize import linprog

    a, b = sparse.csr_matrix(problem.values, dtype=float), problem.targets
    nf, m = a.shape
    cost = np.zeros(m + 1)
    cost[-1] = 1.0
    t_col = -np.ones((nf, 1))
    result = linprog(
        cost,
        A_ub=sparse.bmat([[a, t_col], [-a, t_col]], format="csr"),
        b_ub=np.concatenate([b, -b]),
        A_eq=np.append(np.ones(m), 0.0)[None, :],
        b_eq=[1.0],
        bounds=(0, None),
        method="highs",
    )
    assert result.status == 0
    return result.fun


class TestAgainstHighs:
    def test_pipeline_sized_fits_match_highs(self):
        pytest.importorskip("scipy")
        for seed in (6, 7):
            problem = pipeline_sized_problem(seed)
            assert problem.values.shape[0] == 137
            solution = solve_min_max(problem)
            assert solution.objective == pytest.approx(highs_min_max(problem), abs=1e-9)

    def test_instance_c_matches_highs(self):
        # Order-2 marginals at p = 24 (|F| = 301), n = 3,000, m = 20,000, the paper's sigma.
        p, n, m = 24, 3000, 20_000
        family = marginal_family(p, 2, "monotone")
        schema = (2,) * p
        data = Dataset(schema, np.random.default_rng(11).integers(0, 2, size=(n, p)))
        noise_seq, domain_seq, _ = np.random.SeedSequence(12).spawn(3)
        sigma = privacy_check(n, None, 0.2, len(family), 0.1).sigma
        noise = laplace_vector(sigma, len(family), np.random.default_rng(noise_seq))
        domain = ProductDistribution.uniform(schema).sample(m, np.random.default_rng(domain_seq))
        problem = build_lp(family, domain, evaluate_all(family, data) + noise)
        start = time.perf_counter()
        solution = solve_min_max(problem)
        elapsed = time.perf_counter() - start
        assert elapsed <= 30.0
        # HiGHS's optimum (highs_min_max, scipy 1.17.1), frozen: the live solve
        # takes about 30 s and 0.5 GB.
        assert solution.objective == pytest.approx(0.014452765294396208, abs=1e-7)


def test_consistent_targets_reach_zero():
    # b = A h0 for a density h0 on the support, so t* = 0 and the optimum is
    # degenerate: t and every slack are zero together.
    rng = np.random.default_rng(8)
    problems = [pipeline_sized_problem(8)]
    problems += [random_problem(rng, max_functions=5, max_points=6) for _ in range(40)]
    for problem in problems:
        h0 = rng.random(problem.values.shape[1])
        h0 /= h0.sum()
        consistent = FitProblem(
            values=problem.values, targets=problem.values @ h0, support=problem.support
        )
        solution = solve_min_max(consistent)
        assert solution.objective <= 1e-9
        residual = consistent.values @ solution.density.weights - consistent.targets
        assert np.abs(residual).max() <= 1e-7


def test_point_mass_targets_reach_zero():
    # Targets that are one support point's column (t* = 0) make the optimum a
    # degenerate vertex, where the normal matrix is close to singular.
    problem = pipeline_sized_problem(7)
    point_mass = FitProblem(
        values=problem.values, targets=problem.values[:, 7111], support=problem.support
    )
    solution = solve_min_max(point_mass)
    assert solution.objective <= 1e-9
    residual = point_mass.values @ solution.density.weights - point_mass.targets
    assert np.abs(residual).max() <= 1e-7
