import functools
import math
import tracemalloc

import numpy as np
import pytest

from dpsynth import (
    Dataset,
    ExplicitDistribution,
    ProductDistribution,
    QueryFamily,
    TestFunction,
    boolean_experiment,
    deviation_check_empirical,
    evaluate_all,
    exact_statistics,
    marginal_family,
    privacy_audit,
    reweighted_deviation_check,
)
from dpsynth.audit import _check_neighbors
from dpsynth.core import _edge_counter


@pytest.fixture
def two_point_pair():
    population = ExplicitDistribution(Dataset((2,), [[0], [1]]), [0.75, 0.25])
    sampling = ProductDistribution.uniform((2,))
    family = QueryFamily(
        [TestFunction.constant_one(), TestFunction.assignment((0,), (0,))]
    )
    return population, sampling, family


@pytest.fixture
def neighbor_datasets():
    d1 = Dataset((2,), [[0]] * 10)
    d2 = Dataset((2,), [[0]] * 10 + [[1]])
    return d1, d2


def one_trial(population, sampling, family, m, seed, delta=0.2):
    """One trial of the reweighted check, and the draws it weighted, replayed
    from its seed: the draws are the check's first use of its generator."""
    result = reweighted_deviation_check(
        population, sampling, family, m=m, delta=delta, gamma=0.1, trials=1,
        rng=np.random.default_rng(seed),
    )
    return result, sampling.sample(m, np.random.default_rng(seed))


def fails_just_below_and_passes_at(deviation, *trial):
    """Whether one trial fails with delta just below ``deviation`` and passes
    with delta at it: its worst statistic deviation is exactly that."""
    below = one_trial(*trial, delta=np.nextafter(deviation, 0.0))[0].failure_rate
    at = one_trial(*trial, delta=deviation)[0].failure_rate
    return (below, at) == (1.0, 0.0)


class TestReweightedMeasure:
    """The importance-weighted measure each reweighted trial builds: weight
    population/sampling mass over m on each draw."""

    def test_identical_distributions_give_flat_weights(self):
        uniform = ProductDistribution.uniform((2, 2))
        family = marginal_family(2, 2, "monotone")
        result, draws = one_trial(uniform, uniform, family, 512, 0)
        assert result.mean_r == 1.0
        # Weights of 1/512 make the statistics the draws' plain means.
        exact = exact_statistics(uniform, family)
        deviation = np.max(np.abs(evaluate_all(family, draws) - exact))
        assert fails_just_below_and_passes_at(deviation, uniform, uniform, family, 512, 0)

    def test_weights_are_density_ratios(self, two_point_pair):
        population, sampling, family = two_point_pair
        result, draws = one_trial(population, sampling, family, 3, 1)
        zeros = int((draws.rows == 0).sum())
        assert result.mean_r == pytest.approx((1.5 * zeros + 0.5 * (3 - zeros)) / 3, abs=1e-15)

    def test_statistics_are_weighted_sums(self, two_point_pair):
        population, sampling, family = two_point_pair
        result, draws = one_trial(population, sampling, family, 3, 1)
        zeros = int((draws.rows == 0).sum())
        # The constant's statistic is the total mass, the indicator's the
        # weight on 0; their exact values are 1 and 0.75.
        stats = np.array([result.mean_r, 1.5 * zeros / 3])
        deviation = np.max(np.abs(stats - [1.0, 0.75]))
        assert deviation > 0
        assert fails_just_below_and_passes_at(deviation, population, sampling, family, 3, 1)

    def test_draws_off_support_rejected(self):
        points = Dataset((2,), [[0], [1]])

        class OffSupport(ExplicitDistribution):
            def _draw(self, trials, count, rng):
                return np.ones((trials, count, 1), dtype=np.uint8)

        population = ExplicitDistribution(points, [1.0, 0.0])
        family = QueryFamily([TestFunction.constant_one()])
        with pytest.raises(ValueError, match="sampling distribution's support"):
            one_trial(population, OffSupport(points, [1.0, 0.0]), family, 4, 0)


class TestDeviationCheck:
    def test_at_threshold(self):
        # uniform on {0,1}^4, order-1 marginals, n at the stated threshold
        population = ProductDistribution.uniform((2,) * 4)
        family = marginal_family(4, 1, "monotone")
        assert len(family) == 5
        result = deviation_check_empirical(
            population, family, n=98, delta=0.2, gamma=0.1, trials=500,
            rng=np.random.default_rng(314),
        )
        assert result.threshold_n == pytest.approx(25 * math.log(50), rel=1e-12)
        assert result.gate == pytest.approx(0.1 + 3 * math.sqrt(0.1 / 500), rel=1e-12)
        assert result.passed
        assert result.failure_rate <= result.gate

    def test_huge_deviation_never_happens(self):
        # statistics live in [-1, 1], so no deviation can exceed 2
        population = ProductDistribution.uniform((2, 2))
        family = marginal_family(2, 1, "monotone")
        result = deviation_check_empirical(
            population, family, n=5, delta=2.0, gamma=0.1, trials=50,
            rng=np.random.default_rng(0),
        )
        assert result.failure_rate == 0.0

    def test_large_samples_never_fail(self):
        population = ProductDistribution.uniform((2,) * 4)
        family = marginal_family(4, 1, "monotone")
        result = deviation_check_empirical(
            population, family, n=1_000_000, delta=0.2, gamma=0.1, trials=10,
            rng=np.random.default_rng(1),
        )
        assert result.failure_rate == 0.0

    def test_trials_validation(self):
        population = ProductDistribution.uniform((2,))
        family = marginal_family(1, 1, "monotone")
        with pytest.raises(ValueError, match="trials"):
            deviation_check_empirical(
                population, family, n=10, delta=0.2, gamma=0.1, trials=0,
                rng=np.random.default_rng(0),
            )

    def test_report_text(self):
        population = ProductDistribution.uniform((2, 2))
        family = marginal_family(2, 1, "monotone")
        result = deviation_check_empirical(
            population, family, n=200, delta=0.3, gamma=0.1, trials=20,
            rng=np.random.default_rng(2),
        )
        text = result.report_text()
        assert "lemma3_failure_rate = " in text
        assert "lemma3_threshold_n = " in text
        assert "lemma3_passed = " in text


class TestReweightedDeviationCheck:
    def test_identical_distributions_keep_total_mass_at_one(self):
        uniform = ProductDistribution.uniform((2, 2, 2))
        family = marginal_family(3, 1, "monotone")
        result = reweighted_deviation_check(
            uniform, uniform, family, m=512, delta=0.2, gamma=0.1, trials=100,
            rng=np.random.default_rng(7),
        )
        assert result.mean_r == 1.0
        assert result.passed

    def test_two_point_example_at_threshold(self, two_point_pair):
        population, sampling, family = two_point_pair
        result = reweighted_deviation_check(
            population, sampling, family, m=625, delta=0.2, gamma=0.1,
            trials=500, rng=np.random.default_rng(99),
        )
        # kappa = 1.25 puts the m threshold exactly at 625
        assert result.threshold_m == pytest.approx(625.0, rel=1e-12)
        assert result.passed
        assert result.failure_rate <= result.gate
        assert abs(result.mean_r - 1.0) <= result.mean_r_tolerance

    def test_mean_r_concentrates(self, two_point_pair):
        population, sampling, family = two_point_pair
        result = reweighted_deviation_check(
            population, sampling, family, m=625, delta=0.2, gamma=0.1,
            trials=2_000, rng=np.random.default_rng(123),
        )
        assert abs(result.mean_r - 1.0) <= 0.01

    def test_dominance_failure(self):
        population = ProductDistribution([[0.5, 0.5]])
        sampling = ExplicitDistribution(Dataset((2,), [[0]]), [1.0])
        family = QueryFamily([TestFunction.constant_one()])
        with pytest.raises(ValueError, match="nu not dominated by mu"):
            reweighted_deviation_check(
                population, sampling, family, m=10, delta=0.2, gamma=0.1,
                trials=5, rng=np.random.default_rng(0),
            )

    def test_uniform_above_the_cdf_keeps_draws_in_the_support(self):
        # The masses pass the 1e-12 sum check, but their CDF ends below 1 - 1e-13.
        dist = ExplicitDistribution(Dataset((3,), [[0], [1], [2]]), [0.3, 0.7 - 5e-13, 0.0])

        class TopUniform(np.random.Generator):
            def random(self, size=None):
                return np.full(size, 1.0 - 1e-13)

        family = QueryFamily([TestFunction.constant_one()])
        result = reweighted_deviation_check(
            dist, dist, family, m=10, delta=0.2, gamma=0.1, trials=3,
            rng=TopUniform(np.random.PCG64(0)),
        )
        assert result.mean_r == 1.0

    def test_report_text(self, two_point_pair):
        population, sampling, family = two_point_pair
        result = reweighted_deviation_check(
            population, sampling, family, m=625, delta=0.2, gamma=0.1,
            trials=20, rng=np.random.default_rng(5),
        )
        text = result.report_text()
        assert "lemma4_failure_rate = " in text
        assert "mean_r = " in text
        assert "lemma4_passed = " in text


class TestTrialBlocks:
    """The audits draw and evaluate their trials a block at a time; each
    result equals that of one trial at a time from the same generator."""

    def test_deviation_check_equals_one_trial_at_a_time(self):
        # 109 trials of 100 rows per block at p = 24: 250 is not a multiple.
        population = ProductDistribution.uniform((2,) * 24)
        family = marginal_family(24, 2, "monotone")
        result = deviation_check_empirical(population, family, 100, 0.14, 0.1, 250, 31)
        rng = np.random.default_rng(31)
        exact = exact_statistics(population, family)
        failures = sum(
            np.max(np.abs(evaluate_all(family, population.sample(100, rng)) - exact)) > 0.14
            for _ in range(250)
        )
        assert 0 < failures < 250
        assert result.failure_rate == failures / 250

    def test_reweighted_check_equals_one_trial_at_a_time(self, two_point_pair):
        # 209 trials of 625 draws per block at |F| = 2: 420 is not a multiple.
        population, sampling, family = two_point_pair
        result = reweighted_deviation_check(
            population, sampling, family, 625, 0.03, 0.1, 420, 32
        )
        rng = np.random.default_rng(32)
        exact = exact_statistics(population, family)
        failures, masses = 0, []
        for _ in range(420):
            rows = sampling.sample(625, rng).rows
            weights = population.mass_many(rows) / sampling.mass_many(rows) / 625
            failures += np.max(np.abs(family.weighted_sums(rows, weights) - exact)) > 0.03
            masses.append(math.fsum(weights))
        assert 0 < failures < 420
        assert result.failure_rate == failures / 420
        assert result.mean_r == math.fsum(masses) / 420

    def test_sample_count_is_checked_after_the_other_inputs(self, two_point_pair):
        population, sampling, family = two_point_pair
        point = ExplicitDistribution(population.points, [1.0, 0.0])
        deviation = functools.partial(deviation_check_empirical, sampling, family, rng=0)
        reweighted = functools.partial(reweighted_deviation_check, rng=0)
        cases = [
            (lambda: deviation(0, 0.2, 0.1, 0), "^trials must be >= 1$"),
            (lambda: deviation(0, -0.2, 0.1, 5), "^delta_target must be positive"),
            (lambda: deviation(0, 0.2, 0.1, 5), "^sample count must be >= 1$"),
            (lambda: reweighted(population, point, family, 0, 0.2, 0.1, 5), "^nu not dominated"),
            (lambda: reweighted(population, sampling, family, 0, 0.2, 0.1, 5), "^sample count"),
            (lambda: reweighted(population, sampling, family, 5, 0.2, 0.1, 0), "^trials must be"),
            (lambda: boolean_experiment(3, 1, 30, 30, 40, 0.2, 0.1, 0, 1), "^trials must be >= 1$"),
        ]
        for call, message in cases:
            with pytest.raises(ValueError, match=message):
                call()


class TestNeighborCheck:
    def test_add_one_accepted_both_ways(self, neighbor_datasets):
        d1, d2 = neighbor_datasets
        _check_neighbors(d1, d2)
        _check_neighbors(d2, d1)

    def test_identical_accepted(self, neighbor_datasets):
        d1, _ = neighbor_datasets
        _check_neighbors(d1, d1)

    def test_row_order_is_irrelevant(self):
        d1 = Dataset((2,), [[0], [1]])
        d2 = Dataset((2,), [[1], [0], [1]])
        _check_neighbors(d1, d2)

    def test_rejections(self, neighbor_datasets):
        d1, d2 = neighbor_datasets
        with pytest.raises(ValueError, match="share a schema"):
            _check_neighbors(d1, Dataset((3,), [[0]]))
        with pytest.raises(ValueError, match="not add-one neighbors"):
            _check_neighbors(d1, Dataset((2,), [[0]] * 10 + [[1]] * 2))
        swapped = Dataset((2,), [[0]] * 9 + [[1]])
        with pytest.raises(ValueError, match="not add-one neighbors"):
            _check_neighbors(d1, swapped)

    def test_large_pairs(self):
        schema = (2,) * 32
        rows = np.random.default_rng(9).integers(0, 2, (200_000, 32))
        d1 = Dataset(schema, rows)
        # Reordered, plus one more copy of a row that is already there.
        added = Dataset(schema, np.vstack([rows[::-1], rows[7:8]]))
        _check_neighbors(d1, added)
        _check_neighbors(added, d1)
        changed = rows.copy()
        changed[123_456, 5] ^= 1
        for other in (changed, np.vstack([changed, rows[7:8]])):
            with pytest.raises(ValueError, match="^datasets are not add-one neighbors$"):
                _check_neighbors(d1, Dataset(schema, other))


class TestPrivacyAudit:
    def test_neighboring_datasets_stay_within_slack(self, neighbor_datasets):
        d1, d2 = neighbor_datasets
        family = QueryFamily([TestFunction.monotone((0,))])
        result = privacy_audit(
            family, 0.1, d1, d2, trials=100_000, bins=20,
            rng=np.random.default_rng(2718),
        )
        assert result.epsilon_theoretical == pytest.approx(
            (1.0 / 11.0) / 0.1, rel=1e-12
        )
        assert result.passed
        assert result.epsilon_hat <= result.epsilon_theoretical + 0.15
        # the probe must also detect a real fraction of the theoretical leakage
        assert result.epsilon_hat >= 0.3 * result.epsilon_theoretical

    def test_identical_datasets_give_tiny_epsilon(self, neighbor_datasets):
        d1, _ = neighbor_datasets
        family = QueryFamily([TestFunction.monotone((0,))])
        result = privacy_audit(
            family, 0.1, d1, d1, trials=20_000, bins=10,
            rng=np.random.default_rng(3),
        )
        assert result.epsilon_theoretical == 0.0
        assert result.epsilon_hat <= 0.15
        assert result.passed

    def test_huge_noise_hides_everything(self, neighbor_datasets):
        d1, d2 = neighbor_datasets
        family = QueryFamily([TestFunction.monotone((0,))])
        sigma = 1000.0 * (2.0 * 1 / 10)
        result = privacy_audit(
            family, sigma, d1, d2, trials=1_000_000, bins=5,
            rng=np.random.default_rng(4),
        )
        assert result.epsilon_theoretical <= 0.001
        assert result.epsilon_hat <= 0.01

    def test_multidimensional_histogram(self, neighbor_datasets):
        d1, d2 = neighbor_datasets
        family = QueryFamily(
            [TestFunction.constant_one(), TestFunction.monotone((0,))]
        )
        result = privacy_audit(
            family, 0.3, d1, d2, trials=200_000, bins=6,
            rng=np.random.default_rng(5),
        )
        assert result.passed

    @pytest.mark.parametrize("trials, epsilon_hat", [(1_000, math.inf), (4, 0.0)])
    def test_one_sided_cells_count_once_occupied(self, neighbor_datasets, trials, epsilon_hat):
        # At sigma = 1e-4 the two releases never share a bin. A cell seen on one
        # side only is a violation once MIN_CELL_OCCUPANCY observations land in
        # it; with 4 trials none does, and no cell is shared, so the estimate is 0.
        d1, d2 = neighbor_datasets
        family = QueryFamily([TestFunction.assignment((0,), (1,))])
        result = privacy_audit(family, 1e-4, d1, d2, trials, 2, np.random.default_rng(3))
        assert result.epsilon_theoretical == pytest.approx((1.0 / 11.0) / 1e-4, rel=1e-12)
        assert result.epsilon_hat == epsilon_hat
        assert result.passed is (epsilon_hat == 0.0)

    def test_validation(self, neighbor_datasets):
        d1, d2 = neighbor_datasets
        family = QueryFamily([TestFunction.monotone((0,))])
        too_many = marginal_family(3, 1, "monotone")
        with pytest.raises(ValueError, match="at most 3 statistics"):
            privacy_audit(too_many, 0.1, d1, d2, 10, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="trials >= 1 and bins >= 2"):
            privacy_audit(family, 0.1, d1, d2, 0, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="sigma"):
            privacy_audit(family, 0.0, d1, d2, 10, 4, np.random.default_rng(0))
        not_neighbor = Dataset((2,), [[0]] * 8)
        with pytest.raises(ValueError, match="not add-one neighbors"):
            privacy_audit(family, 0.1, d1, not_neighbor, 10, 4, np.random.default_rng(0))

    def test_cells_must_not_outnumber_observations(self, neighbor_datasets):
        d1, d2 = neighbor_datasets
        family = QueryFamily([TestFunction.constant_one(), TestFunction.monotone((0,))])
        rng = np.random.default_rng(0)
        assert privacy_audit(family, 0.1, d1, d2, 8, 4, rng).bins == 4
        with pytest.raises(ValueError, match=r"bins\*\*\|F\| <= 2\*trials"):
            privacy_audit(family, 0.1, d1, d2, 7, 4, rng)

    @pytest.mark.parametrize(
        "family, sigma, neighbor, trials, bins, seed, report",
        [
            # Criterion 3's shifted run.
            ([TestFunction.monotone((0,))], 0.1, True, 1_000_000, 40, 31,
             "epsilon_hat = 0.931206529\nepsilon_theoretical = 0.909090909\n"
             "audit_slack = 0.15\ndp_trials = 1000000\ndp_bins = 40\ndp_passed = true\n"),
            ([TestFunction.constant_one(), TestFunction.monotone((0,)),
              TestFunction.assignment((0,), (0,))], 0.3, True, 200_000, 6, 5,
             "epsilon_hat = 0.74508647\nepsilon_theoretical = 0.606060606\n"
             "audit_slack = 0.15\ndp_trials = 200000\ndp_bins = 6\ndp_passed = true\n"),
            # Edges 1e-310 apart: the bucket grid's scale would overflow.
            ([TestFunction.monotone((0,))], 1e-310, False, 1_000, 4, 3,
             "epsilon_hat = 0.192593107\nepsilon_theoretical = 0\n"
             "audit_slack = 0.15\ndp_trials = 1000\ndp_bins = 4\ndp_passed = false\n"),
            # Noise far below the statistics' gap: edges crowd at two peaks and the
            # binary search bins the draws.
            ([TestFunction.monotone((0,))], 1e-3, True, 100_000, 40, 11,
             "epsilon_hat = inf\nepsilon_theoretical = 90.9090909\n"
             "audit_slack = 0.15\ndp_trials = 100000\ndp_bins = 40\ndp_passed = false\n"),
            ([TestFunction.monotone((0,))], 1e-4, True, 5_000, 10_000, 7,
             "epsilon_hat = 0\nepsilon_theoretical = 909.090909\n"
             "audit_slack = 0.15\ndp_trials = 5000\ndp_bins = 10000\ndp_passed = true\n"),
        ],
    )
    def test_reports_pinned_at_run_sizes(
        self, neighbor_datasets, family, sigma, neighbor, trials, bins, seed, report
    ):
        d1, d2 = neighbor_datasets
        result = privacy_audit(
            QueryFamily(family), sigma, d1, d2 if neighbor else d1, trials, bins,
            np.random.default_rng(seed),
        )
        assert result.report_text() == report

    def test_overflowing_noise_is_refused(self, neighbor_datasets):
        # Draws past float max leave infinite or NaN bin edges, which bin nothing.
        d1, d2 = neighbor_datasets
        family = QueryFamily([TestFunction.monotone((0,))])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="sigma is too large"
        ):
            privacy_audit(family, 1.7e308, d1, d2, 100_000, 40, np.random.default_rng(3))

    def test_report_text(self, neighbor_datasets):
        d1, d2 = neighbor_datasets
        family = QueryFamily([TestFunction.monotone((0,))])
        result = privacy_audit(
            family, 0.1, d1, d2, trials=1_000, bins=4, rng=np.random.default_rng(6)
        )
        text = result.report_text()
        assert "epsilon_hat = " in text
        assert "epsilon_theoretical = " in text
        assert "dp_passed = " in text


class TestEdgeCounter:
    """The bucket lookup that bins the privacy audit's draws (and finds the
    sampler's indices) counts, for each draw, the edges at or below it, as
    np.searchsorted(edges, x, side="right"), hands crowded edges to that binary
    search and counts fewer than four edges by comparing x with each."""

    @staticmethod
    def assert_counts_as_binary_search(inner, x):
        inner = np.asarray(inner, dtype=float)
        assert np.array_equal(_edge_counter(inner)(x), np.searchsorted(inner, x, side="right"))

    @pytest.mark.parametrize(
        "inner, lookup",
        [
            ([0.5], False),  # bins = 2
            ([1.0, 1.0, 1.0], False),
            ([-1.0, 0.0, 0.0, 0.0, 2.0, 2.0], False),
            ([0.0, 1e-9, 1e-9, 0.5, 0.5000001, 3.0], False),  # many edges in one bucket
            ([1e-310, 2e-310, 3e-310], False),  # the grid's scale overflows
            ([-1e308, 0.0, 1e308], False),  # the spread overflows
            (sorted([*np.linspace(-1.0, 1.0, 61), 0.25, 0.25, 0.25]), True),  # three equal edges
            (np.linspace(-1e307, 1e307, 20), True),
            (np.linspace(0.0, 1e-300, 20), True),
        ],
    )
    def test_edge_cases(self, inner, lookup):
        edges = np.array(inner)
        assert (_edge_counter(edges).__name__ == "lookup") == lookup
        between = np.linspace(edges[0] / 2 - 1, edges[-1] / 2 + 1, 101)
        x = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), between,
            [0.0, -0.0, -1.7e308, 1.7e308, -np.inf, np.inf],
        ])
        self.assert_counts_as_binary_search(edges, x)

    @pytest.mark.parametrize("inner", [[0.5], [-1.0, 0.25], [0.0, 0.0, 3.0], [-2.0, -1.0, 1e300]])
    def test_fewer_than_four_edges_are_compared(self, inner):
        edges = np.array(inner)
        assert _edge_counter(edges).__name__ == "compare"
        x = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            (edges[:-1] + edges[1:]) / 2, [edges[0] - 1, edges[-1] + 1, -np.inf, np.inf],
        ])
        counts = _edge_counter(edges)(x[None])  # 2-D, as the sampler passes its runs
        assert counts.dtype == np.intp
        assert np.array_equal(counts[0], np.searchsorted(edges, x, side="right"))

    @pytest.mark.parametrize("bins", [2, 3, 7, 40, 200])
    @pytest.mark.parametrize("sigma", [1e-4, 0.1, 3.0])
    def test_laplace_columns(self, bins, sigma):
        rng = np.random.default_rng(bins)
        out = rng.laplace(scale=sigma, size=(5_000, 2)) + [0.0, 1.0 / 11.0]
        for j in range(2):
            edges = np.quantile(np.sort(out[:, j]), np.arange(1, bins) / bins)
            self.assert_counts_as_binary_search(edges, out[:, j])

    @pytest.mark.parametrize("sigma, lookup", [(0.1, True), (1e-4, False), (1e-12, False)])
    def test_crowded_edges_build_no_table(self, sigma, lookup):
        # The audit pools two columns 1/11 apart. At sigma << 1/11 the edges crowd
        # into the buckets at the two peaks: at 1e-12, thousands share a bucket, and
        # a table with a row for each would take gigabytes.
        rng = np.random.default_rng(7)
        both = np.sort(np.concatenate([
            rng.laplace(scale=sigma, size=50_000), rng.laplace(scale=sigma, size=50_000) + 1 / 11,
        ]))
        edges = np.quantile(both, np.arange(1, 10_000) / 10_000)
        tracemalloc.start()
        try:
            counter = _edge_counter(edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (counter.__name__ == "lookup") == lookup
        assert peak < 3e6  # tables of at most one block of draws, 2 MB
        assert np.array_equal(counter(both), np.searchsorted(edges, both, side="right"))


class TestBooleanExperiment:
    def test_small_run_passes(self):
        result = boolean_experiment(
            p=4, d=1, n=120, k=120, m=200, delta=0.25, gamma=0.1, trials=5,
            seed=2025,
        )
        assert len(result.errors) == 5
        assert result.error_threshold == 2.0
        assert result.passed

    def test_determinism(self):
        a = boolean_experiment(
            p=3, d=1, n=50, k=50, m=60, delta=0.3, gamma=0.1, trials=3, seed=77
        )
        b = boolean_experiment(
            p=3, d=1, n=50, k=50, m=60, delta=0.3, gamma=0.1, trials=3, seed=77
        )
        assert a.errors == b.errors

    def test_huge_delta_trivially_passes(self):
        result = boolean_experiment(
            p=3, d=1, n=30, k=30, m=40, delta=2.0, gamma=0.1, trials=2, seed=1
        )
        assert result.fail_fraction == 0.0
        assert result.passed

    def test_degenerate_reduced_domain_still_runs(self):
        result = boolean_experiment(
            p=3, d=1, n=30, k=30, m=1, delta=0.2, gamma=0.1, trials=2, seed=9
        )
        assert len(result.errors) == 2
        assert all(e <= 2.0 for e in result.errors)

    def test_report_text(self):
        result = boolean_experiment(
            p=3, d=1, n=30, k=30, m=40, delta=0.5, gamma=0.1, trials=2, seed=3
        )
        text = result.report_text()
        assert "corollary_pass = " in text
        assert "corollary_fail_fraction = " in text
        assert "errors = " in text
        assert len(text.splitlines()[-1].split(" = ")[1].split(",")) == 2
