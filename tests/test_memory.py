"""Peak memory of the row-heavy paths, read with tracemalloc.

NumPy reports its array buffers to tracemalloc, and unlike the resident set
size a traced peak does not depend on what the allocator kept from earlier
work, so these bounds hold run after run. Each bound is the peak measured on
the narrow-row code plus a margin, well below what one int64 copy of the
rows (or, for the audit, the earlier temporaries) would take.
"""

import tracemalloc

import numpy as np

from dpsynth import (
    Dataset,
    ExplicitDistribution,
    ProductDistribution,
    QueryFamily,
    TestFunction,
    bootstrap,
    privacy_audit,
)

N, P = 200_000, 32
MB = 1e6


def traced_peak(fn) -> float:
    """Bytes allocated at the peak of fn(), above what was live when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_from_text_peak_stays_below_one_int64_copy_of_the_rows():
    text = Dataset((2,) * P, np.random.default_rng(1).integers(0, 2, (N, P))).to_text()
    peak = traced_peak(lambda: Dataset.from_text(text))
    # Measured 8.6 MB: 6.4 MB of uint8 rows, then one ~1 MB slice of the
    # text with about 1 MB of strided-reader temporaries; an int64 (n, p)
    # array alone is 51.2 MB.
    assert peak < 11 * MB


def test_bootstrap_peak_is_at_most_two_row_arrays():
    support = ProductDistribution.uniform((2,) * P).sample(8250, 1)
    density = ExplicitDistribution(support, np.full(len(support), 1 / len(support)))
    # Measured 8.0 MB: the uniforms, the indices and the gathered uint8 rows.
    assert traced_peak(lambda: bootstrap(density, N, 2)) <= 2 * N * P


def test_privacy_audit_peak_at_a_million_trials():
    d1 = Dataset((2,), [[0]] * 10)
    d2 = Dataset((2,), [[0]] * 10 + [[1]])
    family = QueryFamily([TestFunction.monotone((0,))])
    peak = traced_peak(lambda: privacy_audit(family, 0.1, d1, d2, 1_000_000, 40, 5))
    # Measured 33.2 MB: both 8 MB draw arrays plus the 16 MB concatenation
    # that the bin edges are taken from in place.
    assert peak <= 40 * MB
