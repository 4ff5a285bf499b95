"""The compiled conjunction kernel against the per-function reference.

Every comparison is exact: counts over n equal the compensated sum of 0/1
values over n, a compensated sum of the selected weights equals that of the
0/1 products, and products of literal probabilities run in coordinate order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import statistics_oracle as oracle
from dpsynth import (
    Dataset,
    ExplicitDistribution,
    ProductDistribution,
    QueryFamily,
    TestFunction,
    evaluate_all,
    exact_statistics,
    marginal_family,
)
from dpsynth.core import _STATS_BLOCK

WEIGHTS = st.floats(0.0, 1.0)


@st.composite
def functions(draw, schema):
    p = len(schema)
    boolean = [c for c in range(p) if schema[c] == 2]
    choices = ["constant", "assignment"] + (["monotone"] if boolean else [])
    kind = draw(st.sampled_from(choices))
    if kind == "constant":
        return TestFunction.constant_one()
    if kind == "monotone":
        coords = draw(st.lists(st.sampled_from(boolean), max_size=3, unique=True))
        return TestFunction.monotone(coords)
    coords = draw(st.lists(st.integers(0, p - 1), max_size=min(3, p), unique=True))
    values = [draw(st.integers(0, schema[c] - 1)) for c in coords]
    return TestFunction.assignment(coords, values)


@st.composite
def instances(draw):
    """A schema, a family on it and rows over it."""
    schema = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=6)))
    family = QueryFamily(draw(st.lists(functions(schema), min_size=1, max_size=12)))
    n = draw(st.integers(1, 40))
    rows = np.array(
        [[draw(st.integers(0, a - 1)) for a in schema] for _ in range(n)], dtype=np.int64
    ).reshape(n, len(schema))
    return schema, family, rows


def normalized(weights):
    w = np.asarray(weights, dtype=float)
    return w / w.sum() if w.sum() > 0 else np.full(len(w), 1.0 / len(w))


@settings(max_examples=150, deadline=None)
@given(instances())
def test_means_and_values_match_the_reference(instance):
    schema, family, rows = instance
    data = Dataset(schema, rows)
    assert np.array_equal(evaluate_all(family, data), oracle.means(family, rows))
    assert np.array_equal(family.values_matrix(rows), oracle.values_matrix(family, rows))


@settings(max_examples=150, deadline=None)
@given(instances(), st.data())
def test_weighted_sums_match_the_reference(instance, data):
    schema, family, rows = instance
    raw = np.array(data.draw(st.lists(WEIGHTS, min_size=len(rows), max_size=len(rows))))
    assert np.array_equal(family.weighted_sums(rows, raw), oracle.weighted_sums(family, rows, raw))
    points = np.unique(rows, axis=0)
    masses = normalized(raw[: len(points)])
    explicit = ExplicitDistribution(Dataset(schema, points), masses)
    assert np.array_equal(
        exact_statistics(explicit, family), oracle.weighted_sums(family, points, masses)
    )


@settings(max_examples=150, deadline=None)
@given(instances(), st.data())
def test_product_expectations_match_the_reference(instance, data):
    schema, family, _ = instance
    vectors = [
        normalized(data.draw(st.lists(WEIGHTS, min_size=a, max_size=a))) for a in schema
    ]
    dist = ProductDistribution(vectors)
    assert np.array_equal(exact_statistics(dist, family), oracle.product_expectations(dist, family))


def block_rows(family):
    """Rows per kernel block for this family."""
    return _STATS_BLOCK // (family._literals.shape[1] + len(family._literal_index))


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("blocks", [1, 2])
def test_block_boundaries(offset, blocks):
    p = 9
    family = QueryFamily([
        *marginal_family(p, 2, "monotone"),
        TestFunction.assignment((0, 4, 8), (1, 0, 1)),
    ])
    n = blocks * block_rows(family) + offset
    rng = np.random.default_rng(n)
    rows = rng.integers(0, 2, size=(n, p))
    data = Dataset((2,) * p, rows)
    assert np.array_equal(evaluate_all(family, data), oracle.means(family, rows))
    assert np.array_equal(family.values_matrix(rows), oracle.values_matrix(family, rows))
    w = rng.random(n)
    assert np.array_equal(family.weighted_sums(rows, w), oracle.weighted_sums(family, rows, w))


@pytest.mark.parametrize("size_in_blocks", [0.001, 0.37, 1.0, 2.2])
def test_evaluate_all_sums_every_kernel_block(size_in_blocks):
    """Datasets far shorter than a kernel block, a fraction of one, exactly
    one, and over two blocks and part of a third, whose sums add up."""
    p = 9
    family = QueryFamily([
        *marginal_family(p, 2, "monotone"),
        TestFunction.assignment((0, 4, 8), (1, 0, 1)),
    ])
    n = max(1, int(size_in_blocks * block_rows(family)))
    rows = np.random.default_rng(n).integers(0, 2, size=(n, p))
    assert np.array_equal(evaluate_all(family, Dataset((2,) * p, rows)), oracle.means(family, rows))


# Schemas whose rows are held as uint8, uint16 or uint32; (300, 300, 3),
# (257, 4, 256) and (70_000, 2) have mixed-radix codes past 2^16.
NARROW_SCHEMAS = [
    (2, 3, 5), (256, 2, 7), (300, 300, 3), (257, 4, 256), (70_000, 2), (2, 70_000, 300),
]


@st.composite
def narrow_instances(draw):
    """A schema, a family on it and int64 rows over it whose cells are drawn
    from a few values per coordinate, so conjunctions on wide arities hold."""
    schema = draw(st.sampled_from(NARROW_SCHEMAS))
    pools = [draw(st.lists(st.integers(0, a - 1), min_size=1, max_size=3)) for a in schema]
    functions = [TestFunction.constant_one()]
    for _ in range(draw(st.integers(0, 6))):
        coords = draw(st.lists(st.integers(0, len(schema) - 1), min_size=1, unique=True))
        functions.append(
            TestFunction.assignment(coords, [draw(st.sampled_from(pools[c])) for c in coords])
        )
    n = draw(st.integers(1, 30))
    rows = np.array(
        [[draw(st.sampled_from(pool)) for pool in pools] for _ in range(n)], dtype=np.int64
    ).reshape(n, len(schema))
    return schema, QueryFamily(functions), rows


@settings(max_examples=100, deadline=None)
@given(narrow_instances(), st.data())
def test_narrow_rows_match_the_reference_on_int64_rows(instance, data):
    schema, family, wide = instance
    points = Dataset(schema, wide)
    narrow = points.rows
    assert narrow.dtype.itemsize < 8 and np.array_equal(narrow, wide)
    assert np.array_equal(evaluate_all(family, points), oracle.means(family, wide))
    assert np.array_equal(family.values_matrix(narrow), oracle.values_matrix(family, wide))
    raw = np.array(data.draw(st.lists(WEIGHTS, min_size=len(wide), max_size=len(wide))))
    assert np.array_equal(family.weighted_sums(narrow, raw), oracle.weighted_sums(family, wide, raw))
    product = ProductDistribution([normalized(np.arange(1.0, a + 1)) for a in schema])
    assert np.array_equal(product.mass_many(narrow), product.mass_many(wide))
    distinct = np.unique(wide, axis=0)
    masses = normalized(np.arange(1.0, len(distinct) + 1))
    explicit = ExplicitDistribution(Dataset(schema, distinct), masses)
    assert np.array_equal(explicit.mass_many(explicit.points.rows), masses)
    assert np.array_equal(explicit.mass_many(narrow), explicit.mass_many(wide))
