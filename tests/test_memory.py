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
    build_lp,
    deviation_check_empirical,
    laplace_vector,
    marginal_family,
    privacy_audit,
    reweighted_deviation_check,
    solve_min_max,
)
from dpsynth import cli
from dpsynth.core import _STATS_BLOCK
from test_optimize import pipeline_sized_problem

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
    # Measured 8.0 MB: 6.4 MB of uint8 rows, then about 1.6 MB for one block
    # of the text: its 16-bit cells, their uint8 copy and the checks' Boolean
    # arrays; an int64 (n, p) array alone is 51.2 MB.
    assert peak < 11 * MB


def test_to_text_peak_is_the_rendered_blocks_and_their_join():
    data = Dataset((2,) * P, np.random.default_rng(1).integers(0, 2, (N, P)))
    peak = traced_peak(data.to_text)
    # Measured 25.6 MB: the rendered blocks, two bytes a cell, and the 12.8 MB
    # text they are joined into. Each block's working arrays are freed before
    # the next block is rendered.
    assert peak < 28 * MB


def test_cli_generate_peak_holds_no_whole_text(tmp_path):
    data = tmp_path / "data.csv"
    data.write_bytes(Dataset((2,) * P, np.random.default_rng(1).integers(0, 2, (N, P))).to_text())
    argv = [
        "generate", "--data", str(data), "--queries", "marginals monotone d=1",
        "--mu", "uniform", "--delta", "0.2", "--gamma", "0.1", "--k", str(N),
        "--m", "8250", "--seed", "3", "--out", str(tmp_path / "synthetic.csv"),
        "--report", str(tmp_path / "report.txt"),
    ]
    codes = [cli.main(argv)]
    peak = traced_peak(lambda: codes.append(cli.main(argv)))
    assert codes == [0, 0]
    # Measured 17.0 MB, in the bootstrap: the data's 6.4 MB of rows beside the
    # release's rows and their draws. Parsing peaks at 8.1 MB and writing at
    # 15.0 MB, both row arrays and one rendered block. The data file is mapped,
    # and mapped file pages are not traced. Reading the file into one bytes
    # and joining the output into another read 38.5 MB.
    assert peak < 22 * MB


def test_bootstrap_peak_is_at_most_two_row_arrays():
    support = ProductDistribution.uniform((2,) * P).sample(8250, 1)
    density = ExplicitDistribution(support, np.full(len(support), 1 / len(support)))
    # Measured 8.0 MB: the uniforms, the indices and the gathered uint8 rows.
    assert traced_peak(lambda: bootstrap(density, N, 2)) <= 2 * N * P


def test_large_sample_holds_one_coordinate_of_uniforms_at_a_time():
    uniform = ProductDistribution.uniform((2,) * 24)
    peak = traced_peak(lambda: uniform.sample(1_000_000, 3))
    # Measured 40.8 MB: 24 MB of uint8 rows plus one coordinate's 8 MB of
    # uniforms and 8 MB of indices. All 24 coordinates' uniforms at once
    # would add 184 MB.
    assert peak <= 42 * MB


def test_laplace_vector_peak_is_two_float_arrays():
    peak = traced_peak(lambda: laplace_vector(1.0, 1_000_000, 3))
    # Measured 17.8 MB: the 8 MB of uniforms, turned into the inverse CDF's
    # argument in place, the 8 MB result and 1 MB for the u == 0 mask. Each
    # step done out of place would hold another 8 MB temporary.
    assert peak <= 20 * MB


def test_privacy_audit_peak_at_a_million_trials():
    d1 = Dataset((2,), [[0]] * 10)
    d2 = Dataset((2,), [[0]] * 10 + [[1]])
    family = QueryFamily([TestFunction.monotone((0,))])
    peak = traced_peak(lambda: privacy_audit(family, 0.1, d1, d2, 1_000_000, 40, 5))
    # Measured 33.2 MB: both 8 MB draw arrays plus the 16 MB concatenation
    # that the bin edges are taken from in place.
    assert peak <= 40 * MB


def peaks_at_base_and_forty_times(audit, base: int) -> tuple[float, float]:
    """The traced peaks of ``audit(trials)`` at ``base`` and at 40 * ``base`` trials,
    after one untraced warm-up run."""
    audit(base)
    return traced_peak(lambda: audit(base)), traced_peak(lambda: audit(40 * base))


def test_deviation_check_peak_does_not_grow_with_trials():
    population = ProductDistribution.uniform((2,) * 24)
    family = marginal_family(24, 2, "monotone")
    n = 100
    block = _STATS_BLOCK // (n * len(population.schema))  # trials per block; the base fills one
    base, forty = peaks_at_base_and_forty_times(
        lambda trials: deviation_check_empirical(population, family, n, 0.2, 0.1, trials, 3),
        block,
    )
    assert abs(forty - base) <= 1 * MB


def test_deviation_check_peak_stays_below_one_table_of_a_trial():
    population = ProductDistribution.uniform((2,) * 24)
    family = marginal_family(24, 2, "monotone")
    n = 100_000  # one trial's (|F|, n) table would be 30.1 MB, many kernel blocks

    def check():
        return deviation_check_empirical(population, family, n, 0.2, 0.1, 3, 3)

    check()
    # Measured 5.6 MB: the trial's 2.4 MB of rows, the uniforms they are drawn
    # from and one kernel block; its counts are summed block by block. Holding
    # the trial's (|F|, n) table read 33.3 MB, and joining its blocks with
    # np.hstack, with the previous trial's table still held, 95.1 MB.
    assert traced_peak(check) <= 8 * MB


def test_reweighted_check_peak_does_not_grow_with_trials():
    # 64 coordinates make a block 6 trials of 625 draws, so few weights are summed.
    uniform = ProductDistribution.uniform((2,) * 64)
    family = QueryFamily([TestFunction.constant_one(), TestFunction.assignment((0,), (0,))])
    m = 625
    block = _STATS_BLOCK // (m * 64)  # trials per block; the base fills one
    base, forty = peaks_at_base_and_forty_times(
        lambda trials: reweighted_deviation_check(uniform, uniform, family, m, 0.2, 0.1, trials, 4),
        block,
    )
    # The per-trial masses, 32 bytes each, are the only state that grows.
    assert abs(forty - base) <= 1 * MB


def test_build_lp_peak_is_the_boolean_table():
    family = marginal_family(16, 2)
    domain = ProductDistribution.uniform((2,) * 16).sample(8000, 4)
    problems = []
    peak = traced_peak(lambda: problems.append(build_lp(family, domain, np.zeros(len(family)))))
    # Measured 1.9 MB: the Boolean table FitProblem holds (1 byte a cell) plus
    # its mask blocks. A float64 copy of it would add 8 bytes a cell.
    assert problems[0].values.dtype == bool
    assert peak <= 2.5 * problems[0].values.nbytes


def test_solver_peak_is_well_under_one_float_copy_of_the_table():
    problem = pipeline_sized_problem(3)  # fit-d2-sized, three column-generation rounds
    solve_min_max(problem)
    peak = traced_peak(lambda: solve_min_max(problem))
    # Measured 2.65 MB: the point table [1; A_W] over 823 working points (0.9 MB),
    # its scaled copy that the normal matrix is built from (0.9 MB), and the
    # (|F|+1)-square reduced normal matrices of this iteration and the last,
    # with the copy that np.linalg.solve factors; pricing casts one 0.2 MB
    # block of the Boolean values at a time. A float64 copy of the whole table
    # would add 8.2 MB, and a dense standard-form master 2.4 MB (4.4 MB
    # measured with one).
    assert peak <= 0.45 * 8 * problem.values.size
