import numpy as np
import pytest

from dpsynth import (
    Dataset,
    FitProblem,
    ProductDistribution,
    QueryFamily,
    TestFunction,
    build_lp,
    evaluate_all,
    exact_statistics,
    laplace_vector,
    marginal_family,
    privacy_check,
    solve_min_max,
)
from dpsynth.optimize import REFACTOR_INTERVAL
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
        with pytest.raises(ValueError, match="empty reduced domain"):
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


class TestFitProblemValidation:
    def test_value_range(self):
        support = Dataset((2,), [[0]])
        with pytest.raises(ValueError, match=r"lie in \[-1, 1\]"):
            FitProblem(values=np.array([[1.5]]), targets=np.array([0.0]), support=support)

    def test_finite(self):
        support = Dataset((2,), [[0]])
        with pytest.raises(ValueError, match="finite"):
            FitProblem(
                values=np.array([[np.nan]]), targets=np.array([0.0]), support=support
            )

    def test_shapes(self):
        support = Dataset((2,), [[0], [1]])
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
        assert solution.status == "optimal"
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

    def test_iteration_limit_returns_feasible_iterate(self):
        family = QueryFamily(
            [TestFunction.constant_one(), TestFunction.assignment((0,), (1,))]
        )
        domain = Dataset((2,), [[0], [1]])
        problem = build_lp(family, domain, [1.0, 0.3])
        solution = solve_min_max(problem, max_iterations=0)
        assert solution.status == "iteration-limit"
        assert solution.iterations == 0
        w = solution.density.weights
        assert (w >= 0).all()
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_marginal_fit_on_reduced_domain(self):
        # an order-1 marginal fit over a sampled Boolean domain reaches a small
        # objective when the targets are consistent
        family = marginal_family(6, 1, "monotone")
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 2, size=(80, 6))
        domain = Dataset((2,) * 6, rows)
        targets = np.array([1.0] + [0.5] * 6)
        solution = solve_min_max(build_lp(family, domain, targets))
        assert solution.status == "optimal"
        assert solution.objective <= 0.05

    def test_objective_never_negative(self):
        rng = np.random.default_rng(808)
        for _ in range(20):
            problem = random_problem(rng)
            assert solve_min_max(problem).objective >= 0.0


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


def highs_min_max(problem):
    """Optimal worst residual from scipy's HiGHS on the same LP in inequality form."""
    from scipy.optimize import linprog

    a, b = problem.values, problem.targets
    nf, m = a.shape
    cost = np.zeros(m + 1)
    cost[-1] = 1.0
    t_col = -np.ones((nf, 1))
    result = linprog(
        cost,
        A_ub=np.block([[a, t_col], [-a, t_col]]),
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
        pivots = []
        for seed in (6, 7):
            problem = pipeline_sized_problem(seed)
            assert problem.values.shape[0] == 137
            solution = solve_min_max(problem)
            assert solution.status == "optimal"
            assert solution.objective == pytest.approx(highs_min_max(problem), abs=1e-9)
            pivots.append(solution.iterations)
        # the basis inverse must have been refactorized along the way
        assert max(pivots) > REFACTOR_INTERVAL
