"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every statistical check runs on a fixed seed that was validated to pass with
margin, so the suite is deterministic. Numeric thresholds are stated inline
next to the independent derivation of each frozen constant.
"""

import itertools
import math
import time

import numpy as np
import pytest

from dpsynth import (
    Dataset,
    ExplicitDistribution,
    FitProblem,
    PipelineConfig,
    PrivacyGateError,
    ProductDistribution,
    QueryFamily,
    TestFunction,
    boolean_experiment,
    deviation_check_empirical,
    generate,
    laplace_vector,
    marginal_family,
    privacy_audit,
    privacy_check,
    renyi_condition_number_exact,
    renyi_condition_number_mc,
    reweighted_deviation_check,
    solve_min_max,
)
from grid_oracle import grid_minimax


def _verdict(number, label, ok, detail):
    line = f"acceptance {number} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_end_to_end_accuracy():
    # order-1 monotone marginals on 16 Boolean coordinates; n = k = 150 covers
    # the ln(170)/0.04 = 128.4 threshold and m = 4250 equals 17/(0.1*0.04)
    result = boolean_experiment(
        p=16, d=1, n=150, k=150, m=4250, delta=0.2, gamma=0.1, trials=20,
        seed=20240,
    )
    gate = 0.4 + 3 * math.sqrt(0.4 * 0.6 / 20)  # 4*gamma + 3 binomial SE
    ok = result.fail_fraction <= gate and result.median_error <= 0.8
    _verdict(
        1, "end-to-end accuracy",
        ok,
        f"fail_fraction={result.fail_fraction:.3f} gate={gate:.3f} "
        f"median={result.median_error:.3f} soft_bound=0.8",
    )


def test_criterion_2_privacy_parameter_gate():
    # threshold 2*56*ln(5600)/(1*0.1) = 9666.1845..., derived independently
    check = privacy_check(10_000, 1.0, 0.1, 56, 0.01)
    frozen = 9666.184501930029
    ok = (
        math.isclose(check.required_n, frozen, rel_tol=1e-6)
        and check.passed
        and not privacy_check(9_000, 1.0, 0.1, 56, 0.01).passed
    )
    # the gate must also act inside the pipeline itself
    rng = np.random.default_rng(220)
    schema = (2,) * 10
    family = marginal_family(10, 2, "monotone")
    assert len(family) == 56
    sampling = ProductDistribution.uniform(schema)

    def config(n_rows):
        return (
            Dataset(schema, rng.integers(0, 2, size=(n_rows, 10))),
            PipelineConfig(
                delta_target=0.1, gamma=0.01, synthetic_size=100,
                reduced_size=80, seed=22, epsilon=1.0,
            ),
        )

    data_ok, cfg = config(10_000)
    generate(data_ok, family, sampling, cfg)  # must not raise
    data_small, cfg = config(9_000)
    raised = False
    try:
        generate(data_small, family, sampling, cfg)
    except PrivacyGateError:
        raised = True
    ok = ok and raised
    _verdict(
        2, "privacy parameter gate",
        ok,
        f"required_n={check.required_n:.4f} frozen={frozen:.4f} "
        f"n=10000 passes, n=9000 raises={raised}",
    )


def test_criterion_3_empirical_privacy_audit():
    # single order-1 marginal on one Boolean coordinate; D2 adds one record
    d1 = Dataset((2,), [[0]] * 10)
    d2 = Dataset((2,), [[0]] * 10 + [[1]])
    family = QueryFamily([TestFunction.monotone((0,))])
    start = time.time()
    shifted = privacy_audit(
        family, 0.1, d1, d2, trials=1_000_000, bins=40,
        rng=np.random.default_rng(31),
    )
    same = privacy_audit(
        family, 0.1, d1, d1, trials=1_000_000, bins=40,
        rng=np.random.default_rng(32),
    )
    elapsed = time.time() - start
    # |1/11 - 0| / 0.1 = 10/11
    assert shifted.epsilon_theoretical == pytest.approx(10.0 / 11.0, rel=1e-12)
    ok = (
        shifted.epsilon_hat <= shifted.epsilon_theoretical + 0.15
        and shifted.epsilon_hat >= 0.3 * shifted.epsilon_theoretical
        and same.epsilon_hat <= 0.05
        and elapsed <= 60.0
    )
    _verdict(
        3, "empirical privacy audit",
        ok,
        f"eps_hat={shifted.epsilon_hat:.4f} eps_th={shifted.epsilon_theoretical:.4f} "
        f"same_data_eps_hat={same.epsilon_hat:.4f} elapsed={elapsed:.1f}s",
    )


def test_criterion_4_laplace_tail_law():
    draws = laplace_vector(1.0, 1_000_000, np.random.default_rng(41))
    worst_dev = 0.0
    details = []
    ok = True
    for t in (1.0, 2.0, 3.0):
        p = math.exp(-t)
        observed = float(np.mean(np.abs(draws) > t))
        se = math.sqrt(p * (1 - p) / len(draws))
        dev = abs(observed - p) / se
        worst_dev = max(worst_dev, dev)
        ok = ok and dev <= 3.0
        details.append(f"t={t:.0f}:{dev:.2f}se")
    _verdict(4, "Laplace tail law", ok, " ".join(details))


def test_criterion_5_lp_matches_brute_force():
    rng = np.random.default_rng(1234)
    start = time.time()
    worst_gap = 0.0
    worst_cert = 0.0
    for _ in range(200):
        nf = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        values = rng.uniform(-1.0, 1.0, size=(nf, m))
        targets = rng.uniform(-1.5, 1.5, size=nf)
        support = Dataset((4,), np.arange(m, dtype=np.int64)[:, None])
        solution = solve_min_max(
            FitProblem(values=values, targets=targets, support=support)
        )
        oracle = grid_minimax(values, targets, 1e-3)
        worst_gap = max(worst_gap, abs(solution.objective - oracle))
        residual = float(
            np.max(np.abs(values @ solution.density.weights - targets))
        )
        worst_cert = max(worst_cert, residual - solution.objective)
    elapsed = time.time() - start
    ok = worst_gap <= 2e-3 and worst_cert <= 1e-7 and elapsed <= 60.0
    _verdict(
        5, "LP vs brute-force oracle",
        ok,
        f"200 instances worst_gap={worst_gap:.2e} worst_cert={worst_cert:.2e} "
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_6_condition_number():
    population = ExplicitDistribution(Dataset((2,), [[0], [1]]), [0.75, 0.25])
    sampling = ProductDistribution.uniform((2,))
    exact = renyi_condition_number_exact(population, sampling)
    mc = renyi_condition_number_mc(
        population, sampling, 100_000, np.random.default_rng(61)
    )
    # kappa against uniform, |domain| * sum of squared masses, must coincide
    # with the exact value on a spread of explicit domains up to |domain| = 4096
    rng = np.random.default_rng(62)
    worst_identity = 0.0
    for schema in [(2,), (4, 4), (16, 16), (4, 4, 4, 4, 4, 4), (4096,), (64, 64)]:
        size = math.prod(schema)
        rows = np.array(
            list(itertools.product(*(range(a) for a in schema))), dtype=np.int64
        )
        raw = rng.random(size) + 1e-4
        dist = ExplicitDistribution(Dataset(schema, rows), raw / raw.sum())
        uniform = ProductDistribution.uniform(schema)
        worst_identity = max(
            worst_identity,
            abs(size * math.fsum(dist.weights**2) - renyi_condition_number_exact(dist, uniform)),
        )
    ok = (
        abs(exact - 1.25) <= 1e-12
        and abs(mc - 1.25) <= 0.05 * 1.25
        and worst_identity <= 1e-12
    )
    _verdict(
        6, "condition number",
        ok,
        f"exact={exact} mc={mc:.5f} uniform_identity_gap={worst_identity:.2e}",
    )


def test_criterion_7_deviation_monte_carlo():
    gate = 0.1 + 3 * math.sqrt(0.1 / 500)
    population = ProductDistribution.uniform((2,) * 4)
    family = marginal_family(4, 1, "monotone")
    plain = deviation_check_empirical(
        population, family, n=98, delta=0.2, gamma=0.1, trials=500,
        rng=np.random.default_rng(71),
    )
    two_point = ExplicitDistribution(Dataset((2,), [[0], [1]]), [0.75, 0.25])
    uniform = ProductDistribution.uniform((2,))
    pair_family = QueryFamily(
        [TestFunction.constant_one(), TestFunction.assignment((0,), (0,))]
    )
    reweighted = reweighted_deviation_check(
        two_point, uniform, pair_family, m=625, delta=0.2, gamma=0.1,
        trials=500, rng=np.random.default_rng(72),
    )
    long_run = reweighted_deviation_check(
        two_point, uniform, pair_family, m=625, delta=0.2, gamma=0.1,
        trials=10_000, rng=np.random.default_rng(73),
    )
    ok = (
        plain.failure_rate <= gate
        and reweighted.failure_rate <= gate
        and abs(long_run.mean_r - 1.0) <= 0.01
    )
    _verdict(
        7, "deviation Monte Carlo",
        ok,
        f"plain_rate={plain.failure_rate:.4f} reweighted_rate={reweighted.failure_rate:.4f} "
        f"gate={gate:.4f} mean_r_dev={abs(long_run.mean_r - 1.0):.6f}",
    )


def test_criterion_8_determinism():
    first = boolean_experiment(
        p=16, d=1, n=150, k=150, m=4250, delta=0.2, gamma=0.1, trials=20,
        seed=20240,
    )
    second = boolean_experiment(
        p=16, d=1, n=150, k=150, m=4250, delta=0.2, gamma=0.1, trials=20,
        seed=20240,
    )
    rng = np.random.default_rng(88)
    schema = (2,) * 16
    data = Dataset(schema, rng.integers(0, 2, size=(150, 16)))
    family = marginal_family(16, 1, "monotone")
    sampling = ProductDistribution.uniform(schema)
    config = PipelineConfig(
        delta_target=0.2, gamma=0.1, synthetic_size=150, reduced_size=4250,
        seed=8080,
    )
    run_a = generate(data, family, sampling, config)
    run_b = generate(data, family, sampling, config)
    ok = (
        first.errors == second.errors
        and first.report_text() == second.report_text()
        and run_a.synthetic.to_text() == run_b.synthetic.to_text()
        and run_a.report.to_text() == run_b.report.to_text()
    )
    _verdict(
        8, "determinism",
        ok,
        f"experiment_errors_equal={first.errors == second.errors} "
        f"pipeline_bytes_equal={run_a.synthetic.to_text() == run_b.synthetic.to_text()}",
    )
