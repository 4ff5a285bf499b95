"""Per-function statistics, evaluated kind by kind with one compensated sum per
function: the evaluation that the compiled conjunction kernel replaced, kept
as its reference."""

import math

import numpy as np


def values(f, rows):
    """f's values on an (n, p) row array."""
    n = rows.shape[0]
    if f.kind == "constant" or not f.coords:
        return np.ones(n)
    if f.kind == "monotone":
        return rows[:, list(f.coords)].prod(axis=1).astype(float)
    sel = rows[:, list(f.coords)] == np.asarray(f.assigned)
    return sel.all(axis=1).astype(float)


def values_matrix(queries, rows):
    return np.stack([values(f, rows) for f in queries])


def means(queries, rows):
    return np.array([math.fsum(values(f, rows)) / len(rows) for f in queries])


def weighted_sums(queries, rows, weights):
    return np.array([math.fsum(values(f, rows) * weights) for f in queries])


def product_expectations(dist, queries):
    """Closed forms per kind."""
    vectors = dist.coordinate_probabilities
    out = []
    for f in queries:
        val = 1.0
        for c, v in zip(f.coords, f.assigned if f.kind == "assignment" else (1,) * len(f.coords)):
            val *= vectors[c][v]
        out.append(val)
    return np.array(out)
