import itertools
import math

import numpy as np
import pytest

import statistics_oracle as oracle
from dpsynth import (
    Dataset,
    ExplicitDistribution,
    ProductDistribution,
    QueryFamily,
    TestFunction,
    exact_statistics,
    marginal_family,
    parse_distribution_spec,
    renyi_condition_number_exact,
    renyi_condition_number_mc,
)
from dpsynth.core import _STATS_BLOCK
from dpsynth.distributions import _inverse_cdf_sample


@pytest.fixture
def skewed_pair():
    population = ExplicitDistribution(Dataset((2,), [[0], [1]]), [0.75, 0.25])
    sampling = ProductDistribution.uniform((2,))
    return population, sampling


def enumerated(dist) -> ExplicitDistribution:
    """A distribution as the explicit list of its whole domain (small schemas only)."""
    points = Dataset(dist.schema, list(itertools.product(*map(range, dist.schema))))
    return ExplicitDistribution(points, dist.mass_many(points.rows))


def mass_at(dist, point) -> float:
    """The mass of one point, through the vectorized lookup."""
    return float(dist.mass_many(np.asarray([point], dtype=np.int64))[0])


class TestProductDistribution:
    def test_schema_and_uniform(self):
        dist = ProductDistribution.uniform((2, 3))
        assert dist.schema == (2, 3)
        assert np.allclose(dist.coordinate_probabilities[1], 1.0 / 3.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="coordinate 1: empty"):
            ProductDistribution([[]])
        with pytest.raises(ValueError, match="coordinate 2: probabilities must be nonnegative"):
            ProductDistribution([[0.5, 0.5], [1.2, -0.2]])
        with pytest.raises(ValueError, match="coordinate 1: probabilities must sum to 1"):
            ProductDistribution([[0.5, 0.4]])
        with pytest.raises(ValueError, match="at least one coordinate"):
            ProductDistribution([])

    @pytest.mark.parametrize("vector", [[math.nan, math.nan], [0.5, math.nan], [math.inf, 0.0]])
    def test_non_finite_probabilities_rejected(self, vector):
        with pytest.raises(ValueError, match="coordinate 2: probabilities must be nonnegative"):
            ProductDistribution([[0.5, 0.5], vector])

    @pytest.mark.parametrize("schema", [(0,), (-1,), (2, 0)])
    def test_uniform_rejects_arities_below_one(self, schema):
        with pytest.raises(ValueError, match="^coordinate arities must be >= 1$"):
            ProductDistribution.uniform(schema)

    def test_uniform_rejects_arities_that_are_not_integers(self):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            ProductDistribution.uniform((2.5,))

    def test_mass(self):
        dist = ProductDistribution([[0.3, 0.7], [0.6, 0.4]])
        assert mass_at(dist, (1, 0)) == pytest.approx(0.42, rel=1e-15)
        rows = np.array([[0, 0], [1, 1]], dtype=np.int64)
        assert np.allclose(dist.mass_many(rows), [0.18, 0.28], atol=1e-15)

    def test_sample_determinism_and_schema(self):
        dist = ProductDistribution([[0.3, 0.7], [0.6, 0.4]])
        a = dist.sample(50, np.random.default_rng(11))
        b = dist.sample(50, np.random.default_rng(11))
        assert a == b
        assert a.schema == (2, 2)
        assert len(a) == 50

    def test_sample_frequencies(self):
        dist = ProductDistribution([[0.2, 0.8]])
        draws = dist.sample(10_000, np.random.default_rng(5))
        assert draws.rows.mean() == pytest.approx(0.8, abs=0.02)

    def test_sample_count_validation(self):
        with pytest.raises(ValueError, match="count must be >= 1"):
            ProductDistribution.uniform((2,)).sample(0, np.random.default_rng(0))


class TestExplicitDistribution:
    def test_validation(self):
        points = Dataset((2,), [[0], [1]])
        with pytest.raises(ValueError, match="one mass per point"):
            ExplicitDistribution(points, [1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            ExplicitDistribution(points, [1.5, -0.5])
        with pytest.raises(ValueError, match="sum to 1"):
            ExplicitDistribution(points, [0.6, 0.5])
        with pytest.raises(ValueError, match="distinct"):
            ExplicitDistribution(Dataset((2,), [[1], [1]]), [0.5, 0.5])
        with pytest.raises(ValueError, match="at least one point"):
            ExplicitDistribution(Dataset((2,), []), [])

    def test_validation_on_a_dataset_support(self, small_dataset):
        for weights, message in [
            (np.ones(3) / 3, "one mass per point"),
            ([0.5, 0.7, -0.2, 0.0, 0.0], "nonnegative"),
            ([0.5, 0.2, 0.1, 0.1, 0.2], "sum to 1"),
            ([math.nan] * 5, "masses must be nonnegative and finite"),
            ([1.0, math.nan, 0.0, 0.0, 0.0], "masses must be nonnegative and finite"),
        ]:
            with pytest.raises(ValueError, match=message):
                ExplicitDistribution(small_dataset, weights)

    def test_weights_read_only(self, small_dataset):
        uniform = ExplicitDistribution(small_dataset, np.full(5, 0.2))
        with pytest.raises(ValueError):
            uniform.weights[0] = 0.5

    @pytest.mark.parametrize("masses", [[math.nan, math.nan], [1.0, math.nan], [math.inf, 0.0]])
    def test_non_finite_masses_rejected(self, masses):
        points = Dataset((2,), [[0], [1]])
        with pytest.raises(ValueError, match="masses must be nonnegative and finite"):
            ExplicitDistribution(points, masses)

    def test_nan_spec_masses_rejected(self):
        with pytest.raises(ValueError, match="^line 2: masses must be nonnegative and finite$"):
            parse_distribution_spec("explicit 2\n0;nan\n1;nan\n")
        with pytest.raises(ValueError, match="^line 2: probabilities must be nonnegative and finite$"):
            parse_distribution_spec("product\nnan,nan\n")

    @pytest.mark.parametrize(
        "row, mass", [([1, 0], 0.42), ([-1, 0], 0.0), ([0, -1], 0.0), ([2, 0], 0.0), ([1, 7], 0.0)]
    )
    def test_mass_many_agrees_with_the_product_form(self, row, mass):
        product = ProductDistribution([[0.3, 0.7], [0.6, 0.4]])
        rows = np.array([row], dtype=np.int64)
        got = [dist.mass_many(rows).tolist() for dist in (product, enumerated(product))]
        assert got[0] == got[1] == pytest.approx([mass], abs=1e-15)

    @pytest.mark.parametrize("width", [1, 3])
    def test_mass_many_refuses_rows_of_another_width(self, width):
        product = ProductDistribution([[0.3, 0.7], [0.6, 0.4]])
        rows = np.zeros((2, width), dtype=np.int64)
        for dist in (product, enumerated(product)):
            with pytest.raises(ValueError, match=r"^rows must have shape \(n, 2\)$"):
                dist.mass_many(rows)

    def test_mass_off_support_is_zero(self):
        dist = ExplicitDistribution(Dataset((3,), [[0], [2]]), [0.25, 0.75])
        assert mass_at(dist, (1,)) == 0.0
        rows = np.array([[0], [1], [2]], dtype=np.int64)
        assert np.allclose(dist.mass_many(rows), [0.25, 0.0, 0.75], atol=0)

    def test_mass_of_a_wide_row_off_support_is_zero(self):
        # 65 Boolean coordinates: a row code would need 65 bits
        dist = ExplicitDistribution(Dataset((2,) * 65, np.zeros((1, 65), dtype=np.int64)), [1.0])
        rows = np.zeros((2, 65), dtype=np.int64)
        rows[1, 0] = 1
        assert dist.mass_many(rows).tolist() == [1.0, 0.0]

    def test_out_of_range_row_matches_no_point(self):
        # (0, 2) lies outside the schema (2, 2) but has the row-major index of (1, 0)
        dist = ExplicitDistribution(Dataset((2, 2), [[0, 0], [1, 0]]), [0.25, 0.75])
        rows = np.array([[0, 2], [1, 0], [0, 0], [1, 0]], dtype=np.int64)
        assert dist.mass_many(rows).tolist() == [0.0, 0.75, 0.25, 0.75]

    def test_sample_stays_on_support(self):
        dist = ExplicitDistribution(Dataset((4,), [[1], [3]]), [0.5, 0.5])
        draws = dist.sample(200, np.random.default_rng(3))
        assert set(int(v) for v in draws.rows[:, 0]) <= {1, 3}

    def test_sample_determinism(self):
        dist = ExplicitDistribution(Dataset((2,), [[0], [1]]), [0.5, 0.5])
        a = dist.sample(64, np.random.default_rng(9))
        b = dist.sample(64, np.random.default_rng(9))
        assert a == b


class TopUniform(np.random.Generator):
    """A generator whose uniforms all lie above the CDFs built below."""

    def random(self, size=None):
        return np.full(size, 1.0 - 1e-13)


class TestInverseCdfSampling:
    # The masses pass the 1e-12 sum check, but their CDF ends at 0.9999999999995.
    MASSES = [0.3, 0.7 - 5e-13, 0.0]

    @pytest.mark.parametrize(
        "dist",
        [
            ExplicitDistribution(Dataset((3,), [[0], [1], [2]]), MASSES),
            ProductDistribution([MASSES]),
        ],
    )
    def test_uniform_above_the_cdf_never_draws_a_trailing_zero_mass_point(self, dist):
        assert np.cumsum(self.MASSES)[-1] < 1.0 - 1e-13
        draws = dist.sample(5, TopUniform(np.random.PCG64(0)))
        assert (draws.rows == 1).all()

    @pytest.mark.parametrize(
        "masses",
        [
            [0.0, 0.0, 0.25, 0.0, 0.0, 0.0, 0.75, 0.0, 0.0],  # runs of zeros at both ends
            [1e-300, 0.0, 0.5, 0.0, 0.5 - 1e-300],
            [0.0, 1.0],
            [0.3, 0.7 - 5e-13, 0.0],  # the CDF ends below 1
            [1.0],
            [0.0, *[1 / 31] * 31, 0.0],  # enough positive masses for the bucket lookup
        ],
    )
    def test_positive_masses_alone_give_the_full_cdfs_indices(self, masses):
        masses = np.array(masses)
        cdf = np.cumsum(masses)
        u = np.concatenate([[0.0, np.nextafter(1.0, 0.0), cdf[-1]], cdf, np.nextafter(cdf, 0.0),
                            np.random.default_rng(5).random(200)])
        full = np.minimum(np.searchsorted(cdf, u, side="right"), np.flatnonzero(masses > 0)[-1])
        assert np.array_equal(_inverse_cdf_sample(masses, u), full)


def random_product(rng):
    """Random coordinates; the first ends in a zero-mass cell."""
    vectors = [rng.random(int(a)) for a in rng.integers(1, 5, size=6)]
    vectors[0] = np.append(vectors[0], 0.0)
    return ProductDistribution([v / v.sum() for v in vectors])


def random_explicit(rng):
    """Random distinct points, a third of them with zero weight, the last among them."""
    schema = (3, 4, 2)
    codes = rng.choice(24, size=9, replace=False)
    points = np.stack(np.unravel_index(codes, schema), axis=1)
    weights = rng.random(9) * (np.arange(9) % 3 != 2)
    return ExplicitDistribution(Dataset(schema, points), weights / weights.sum())


class TestBatchedDraws:
    """A block of trials is drawn from the same stream as successive samples."""

    @pytest.mark.parametrize("make", [random_product, random_explicit])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_blocks_equal_successive_samples(self, make, seed):
        dist = make(np.random.default_rng(seed))
        rng = np.random.default_rng(100 + seed)
        # Blocks of unequal sizes, as the audits' last block may be.
        blocks = np.concatenate([dist._draw(trials, 13, rng) for trials in (3, 4, 1)])
        rng = np.random.default_rng(100 + seed)
        successive = np.stack([dist.sample(13, rng).rows for _ in range(8)])
        assert blocks.dtype == successive.dtype
        assert np.array_equal(blocks, successive)
        assert dist.mass_many(blocks.reshape(-1, len(dist.schema))).all()

    @pytest.mark.parametrize("count", [_STATS_BLOCK // 4, _STATS_BLOCK // 2, _STATS_BLOCK + 1])
    def test_uniforms_drawn_in_chunks_keep_the_stream(self, count):
        # Chunks of 4, 2 and 1 runs of count uniforms: they split trials
        # part-way through their coordinates, as 3 coordinates do not divide 4 or 2.
        dist = ProductDistribution([[0.2, 0.8, 0.0], [0.5, 0.5], [0.1, 0.3, 0.6]])
        rng = np.random.default_rng(7)
        block = dist._draw(3, count, rng)
        rng = np.random.default_rng(7)
        successive = np.stack([dist.sample(count, rng).rows for _ in range(3)])
        assert np.array_equal(block, successive)
        rng = np.random.default_rng(7)
        u = rng.random((3, 3, count))  # trial by trial, coordinate by coordinate
        assert np.array_equal(block[1, :, 2], np.searchsorted(np.cumsum([0.1, 0.3, 0.6]), u[1, 2], "right"))


class TestConditionNumber:
    def test_identical_distributions_give_one(self):
        uniform = ProductDistribution.uniform((2, 2, 2))
        assert renyi_condition_number_exact(uniform, uniform) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_two_point_value(self, skewed_pair):
        population, sampling = skewed_pair
        # 0.75^2/0.5 + 0.25^2/0.5 = 1.25, by direct arithmetic
        assert renyi_condition_number_exact(population, sampling) == pytest.approx(
            1.25, abs=1e-15
        )

    def test_product_rule(self):
        population = ProductDistribution([[0.75, 0.25], [0.5, 0.5]])
        sampling = ProductDistribution([[0.5, 0.5], [0.25, 0.75]])
        # coordinate factors: 1.25 and (0.25/0.25 + 0.25/0.75) = 4/3
        expected = 1.25 * (4.0 / 3.0)
        fast = renyi_condition_number_exact(population, sampling)
        assert fast == pytest.approx(expected, rel=1e-14)
        # the explicit-enumeration path must agree with the product fast path
        slow = renyi_condition_number_exact(enumerated(population), sampling)
        assert fast == pytest.approx(slow, rel=1e-12)

    def test_at_least_one(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            raw_p = rng.random(5) + 1e-3
            raw_q = rng.random(5) + 1e-3
            population = ProductDistribution([raw_p / raw_p.sum()])
            sampling = ProductDistribution([raw_q / raw_q.sum()])
            assert renyi_condition_number_exact(population, sampling) >= 1.0 - 1e-12

    def test_dominance_failure(self):
        population = ExplicitDistribution(Dataset((2,), [[0], [1]]), [0.5, 0.5])
        sampling = ExplicitDistribution(Dataset((2,), [[0]]), [1.0])
        with pytest.raises(ValueError, match="nu not dominated by mu"):
            renyi_condition_number_exact(population, sampling)
        product_pop = ProductDistribution([[0.5, 0.5]])
        product_samp = ProductDistribution([[1.0, 0.0]])
        with pytest.raises(ValueError, match="nu not dominated by mu"):
            renyi_condition_number_exact(product_pop, product_samp)

    def test_schema_mismatch(self):
        with pytest.raises(ValueError, match="share a schema"):
            renyi_condition_number_exact(
                ProductDistribution.uniform((2, 2)), ProductDistribution.uniform((2, 3))
            )

    def test_product_against_explicit_equals_the_enumeration(self):
        def verdict(population, sampling):
            try:
                return renyi_condition_number_exact(population, sampling)
            except ValueError as exc:
                return str(exc)

        rng = np.random.default_rng(71)
        verdicts = set()
        for _ in range(300):
            schema = tuple(rng.integers(1, 4, size=rng.integers(1, 4)).tolist())
            # Zero-probability cells, and zero-weight points among mu's; the
            # first cell and the first kept point are never zero.
            raw = [rng.random(a) * (rng.random(a) > 0.3) + 1e-3 * (np.arange(a) == 0) for a in schema]
            population = ProductDistribution([v / v.sum() for v in raw])
            domain = enumerated(ProductDistribution.uniform(schema)).points.rows
            keep = rng.permutation(len(domain))[: rng.integers(1, len(domain) + 1)]
            weights = rng.random(len(keep)) * (rng.random(len(keep)) > 0.2)
            weights[0] += 1e-3
            sampling = ExplicitDistribution(Dataset(schema, domain[keep]), weights / weights.sum())
            got = verdict(population, sampling)
            assert got == verdict(enumerated(population), sampling)
            verdicts.add(type(got))
        assert verdicts == {float, str}

    @staticmethod
    def eight_point_support(p):
        """A product population on p binary coordinates whose last three are
        fair coins and the rest fixed at 0, and its eight support points."""
        population = ProductDistribution([[1.0, 0.0]] * (p - 3) + [[0.5, 0.5]] * 3)
        tails = list(itertools.product((0, 1), repeat=3))
        return population, np.array([[0] * (p - 3) + list(t) for t in tails])

    def test_product_against_explicit_without_enumerating(self):
        population, points = self.eight_point_support(32)
        uniform = ExplicitDistribution(Dataset((2,) * 32, points), np.full(8, 0.125))
        assert renyi_condition_number_exact(population, uniform) == 1.0
        # kappa = sum of (1/8)^2 / q over the eight points = (2+4+...+128+128)/64.
        halving = [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125, 0.0078125]
        off_support = np.ones((1, 32), dtype=np.int64)
        skewed = ExplicitDistribution(
            Dataset((2,) * 32, np.vstack([points, off_support])), halving + [0.0]
        )
        assert renyi_condition_number_exact(population, skewed) == 382 / 64

    @pytest.mark.parametrize("drop", ["missing", "zero weight"])
    def test_product_against_explicit_dominance_failure(self, drop):
        population, points = self.eight_point_support(32)
        weights = np.full(8, 0.125)
        if drop == "missing":
            points, weights = points[1:], np.full(7, 1 / 7)
        else:
            weights[:2] = [0.25, 0.0]
        sampling = ExplicitDistribution(Dataset((2,) * 32, points), weights)
        with pytest.raises(ValueError, match="^nu not dominated by mu$"):
            renyi_condition_number_exact(population, sampling)

    def test_support_survives_underflow(self):
        # The point (1, 1) has mass 1e-400, which is 0.0 in floats, yet it
        # lies in the population's support.
        population = ProductDistribution([[1 - 1e-200, 1e-200]] * 2)
        corners = Dataset((2, 2), [[0, 0], [0, 1], [1, 0], [1, 1]])
        uniform = ExplicitDistribution(corners, [0.25] * 4)
        assert renyi_condition_number_exact(population, uniform) == 4.0
        three = ExplicitDistribution(Dataset((2, 2), corners.rows[:3]), [0.5, 0.25, 0.25])
        with pytest.raises(ValueError, match="^nu not dominated by mu$"):
            renyi_condition_number_exact(population, three)

    def test_unsupported_types(self):
        product = ProductDistribution.uniform((2,))
        with pytest.raises(TypeError, match="^unsupported distribution type: <class 'str'>$"):
            renyi_condition_number_exact("uniform 2", product)
        with pytest.raises(TypeError, match="^unsupported distribution type: <class 'object'>$"):
            renyi_condition_number_exact(product, object())

    def test_monte_carlo_identical_is_exactly_one(self):
        dist = ProductDistribution([[0.3, 0.7]])
        value = renyi_condition_number_mc(dist, dist, 500, np.random.default_rng(1))
        assert value == 1.0

    def test_monte_carlo_converges(self, skewed_pair):
        population, sampling = skewed_pair
        value = renyi_condition_number_mc(
            population, sampling, 20_000, np.random.default_rng(2)
        )
        assert value == pytest.approx(1.25, rel=0.05)

    def test_monte_carlo_dominance_failure(self):
        population = ExplicitDistribution(Dataset((2,), [[1]]), [1.0])
        sampling = ExplicitDistribution(Dataset((2,), [[0]]), [1.0])
        with pytest.raises(ValueError, match="nu not dominated by mu"):
            renyi_condition_number_mc(population, sampling, 10, np.random.default_rng(0))

    @pytest.mark.parametrize("nu, mu", [((2, 2, 2), (2, 2)), ((2, 2), (2, 2, 2))])
    def test_monte_carlo_schema_mismatch(self, nu, mu):
        population, sampling = ProductDistribution.uniform(nu), ProductDistribution.uniform(mu)
        with pytest.raises(ValueError, match="distributions must share a schema"):
            renyi_condition_number_mc(population, sampling, 100, np.random.default_rng(1))


class TestExactStatistics:
    def test_product_closed_forms(self):
        dist = ProductDistribution([[0.3, 0.7], [0.6, 0.4]])
        family = marginal_family(2, 2, "monotone")
        stats = exact_statistics(dist, family)
        assert np.allclose(stats, [1.0, 0.7, 0.4, 0.28], atol=1e-15)

    def test_assignment_closed_forms(self):
        dist = ProductDistribution([[0.3, 0.7], [0.6, 0.4]])
        family = marginal_family(2, 1, "assignment")
        stats = exact_statistics(dist, family)
        assert np.allclose(stats, [1.0, 0.3, 0.7, 0.6, 0.4], atol=1e-15)

    def test_closed_forms_match_enumeration(self):
        rng = np.random.default_rng(23)
        raw = rng.random((3, 2)) + 0.1
        dist = ProductDistribution([row / row.sum() for row in raw])
        family = marginal_family(3, 3, "monotone")
        explicit = enumerated(dist)
        brute = np.array(
            [
                math.fsum(values * explicit.weights)
                for values in family.values_matrix(explicit.points.rows)
            ]
        )
        assert np.allclose(exact_statistics(dist, family), brute, atol=1e-14)

    def test_unsupported_distribution_type_rejected(self):
        family = QueryFamily([TestFunction.constant_one()])
        with pytest.raises(TypeError, match="unsupported distribution type"):
            exact_statistics(object(), family)

    def test_explicit_distribution_path(self, skewed_pair):
        population, _ = skewed_pair
        family = QueryFamily(
            [TestFunction.constant_one(), TestFunction.assignment((0,), (1,))]
        )
        stats = exact_statistics(population, family)
        assert np.allclose(stats, [1.0, 0.25], atol=1e-15)

    def test_agrees_with_weighted_statistics(self, skewed_pair):
        population, _ = skewed_pair
        family = QueryFamily(
            [TestFunction.constant_one(), TestFunction.assignment((0,), (0,))]
        )
        assert np.array_equal(
            exact_statistics(population, family),
            oracle.weighted_sums(family, population.points.rows, population.weights),
        )


class TestParseDistributionSpec:
    def test_product(self):
        dist = parse_distribution_spec("product\n0.3,0.7\n0.6,0.4\n")
        assert isinstance(dist, ProductDistribution)
        assert dist.schema == (2, 2)
        assert mass_at(dist, (1, 1)) == pytest.approx(0.28, rel=1e-15)

    def test_uniform(self):
        dist = parse_distribution_spec("uniform 2,3\n")
        assert isinstance(dist, ProductDistribution)
        assert dist.schema == (2, 3)
        assert mass_at(dist, (0, 2)) == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_explicit(self):
        dist = parse_distribution_spec("explicit 2,2\n0,0;0.25\n1,1;0.75\n")
        assert isinstance(dist, ExplicitDistribution)
        assert mass_at(dist, (1, 1)) == 0.75
        assert mass_at(dist, (0, 1)) == 0.0

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("uniform 0\n", "coordinate arities must be >= 1"),
            # A sign is not part of the dataset's cell grammar.
            ("uniform -1\n", "arities must be comma-separated integers"),
            ("uniform 2,0\n", "coordinate arities must be >= 1"),
            ("explicit 2,0\n0,0;1\n", "coordinate arities must be >= 1"),
        ],
        ids=["uniform 0\n", "uniform -1\n", "uniform 2,0\n", "explicit 2,0\n0,0;1\n"],
    )
    def test_arities_below_one_name_the_header_line(self, spec, message):
        with pytest.raises(ValueError, match=f"^line 1: {message}$"):
            parse_distribution_spec(spec)

    @pytest.mark.parametrize("spec", ["uniform +2\n", "uniform 1_0\n", "explicit ٢\n0;1\n"])
    def test_arities_follow_the_dataset_cell_grammar(self, spec):
        with pytest.raises(ValueError, match="^line 1: arities must be comma-separated integers$"):
            parse_distribution_spec(spec)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("explicit 2\n0;0.5\n5;0.5\n", "line 3: row values must lie within the schema arities"),
            ("explicit 2,2\n0,0;0.5\n1;0.5\n", r"line 3: rows must have shape \(n, 2\)"),
            ("explicit 2\n# c\n+1;1\n", "line 3: point must be comma-separated integers"),
            ("explicit 2\n0;nan\n1;0.5\n", "line 2: masses must be nonnegative and finite"),
            ("explicit 2\n0;1.5\n1;-0.5\n", "line 3: masses must be nonnegative and finite"),
            ("product\n# c\n\n0.5,0.5\n0.7,0.7\n", "line 5: probabilities must sum to 1 within 1e-12"),
            ("product\n0.5,0.5\n1.5,-0.5\n", "line 3: probabilities must be nonnegative and finite"),
            # The rules on the whole point list keep their own message.
            ("explicit 2\n0;0.5\n0;0.5\n", "invalid explicit distribution: points must be distinct"),
        ],
        ids=["point-range", "point-length", "point-grammar", "mass-nan", "mass-negative",
             "probabilities-sum", "probabilities-negative", "points-distinct"],
    )
    def test_each_line_is_checked_as_it_is_read(self, spec, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            parse_distribution_spec(spec)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("product\n٠.٥,0_0.5\n", "expected comma-separated probabilities"),
            ("product\n0.5,0.5\u2003\n", "expected comma-separated probabilities"),
            ("product\n1_0e-1,0\n", "expected comma-separated probabilities"),
            ("explicit 2\n0;٠.٥\n1;0.5\n", "expected 'point;mass'"),
            ("explicit 2\n0;0.5\n1;0.5_0\n", "expected 'point;mass'"),
        ],
        ids=["non-ascii-digits", "em-space", "underscore", "mass-non-ascii", "mass-underscore"],
    )
    def test_reals_are_ascii_without_underscores(self, spec, message):
        with pytest.raises(ValueError, match=f"^line [23]: {message}$"):
            parse_distribution_spec(spec)

    def test_points_allow_blanks_around_a_cell(self):
        dist = parse_distribution_spec("explicit 2,2\n0 ,\t1;1\n")
        assert dist.points.rows.tolist() == [[0, 1]]

    def test_comments(self):
        dist = parse_distribution_spec("# sampling\nuniform 4 # four values\n")
        assert dist.schema == (4,)

    def test_errors(self):
        with pytest.raises(ValueError, match="empty distribution spec"):
            parse_distribution_spec("# nothing here\n")
        with pytest.raises(ValueError, match="unknown distribution kind 'mixture'"):
            parse_distribution_spec("mixture 2\n")
        with pytest.raises(ValueError, match="line 1: 'product' takes no arguments"):
            parse_distribution_spec("product 2\n")
        with pytest.raises(ValueError, match="at least one coordinate line"):
            parse_distribution_spec("product\n")
        with pytest.raises(ValueError, match="line 2: expected comma-separated probabilities"):
            parse_distribution_spec("product\n0.5,x\n")
        with pytest.raises(ValueError, match="line 1: expected 'uniform <arities>'"):
            parse_distribution_spec("uniform\n")
        with pytest.raises(ValueError, match="line 2: 'uniform' takes no further lines"):
            parse_distribution_spec("uniform 2\n0.5,0.5\n")
        with pytest.raises(ValueError, match="line 2: expected 'point;mass'"):
            parse_distribution_spec("explicit 2\n0,0.5\n")
        with pytest.raises(ValueError, match="at least one point line"):
            parse_distribution_spec("explicit 2\n")
        with pytest.raises(ValueError, match="invalid explicit distribution"):
            parse_distribution_spec("explicit 2\n0;0.5\n1;0.6\n")
        with pytest.raises(ValueError, match="line 2: probabilities must sum to 1"):
            parse_distribution_spec("product\n0.5,0.6\n")
