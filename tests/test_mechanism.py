import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpsynth import (
    Dataset,
    PipelineConfig,
    ProductDistribution,
    evaluate_all,
    generate,
    laplace_vector,
    marginal_family,
    privacy_check,
)


class TestLaplaceSampling:
    def test_determinism(self):
        a = laplace_vector(0.5, 100, np.random.default_rng(42))
        b = laplace_vector(0.5, 100, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_shape_argument(self):
        draws = laplace_vector(1.0, (3, 4), np.random.default_rng(0))
        assert draws.shape == (3, 4)

    def test_scaling_is_exact(self):
        # the inverse-CDF construction is linear in sigma, so doubling the
        # scale doubles every draw bit for bit
        base = laplace_vector(0.25, 1000, np.random.default_rng(7))
        doubled = laplace_vector(0.5, 1000, np.random.default_rng(7))
        assert np.array_equal(doubled, 2.0 * base)

    def test_tail_mass(self):
        # P(|lam| > sigma * t) = exp(-t); 10^5 draws put the empirical rate
        # within 3 binomial standard errors
        draws = laplace_vector(2.0, 100_000, np.random.default_rng(123))
        for t in (0.5, 1.0, 2.0):
            p = math.exp(-t)
            observed = np.mean(np.abs(draws) > 2.0 * t)
            se = math.sqrt(p * (1 - p) / len(draws))
            assert abs(observed - p) <= 3 * se

    def test_symmetry(self):
        draws = laplace_vector(1.0, 200_000, np.random.default_rng(8))
        assert abs(np.mean(draws < 0) - 0.5) < 0.01
        assert abs(np.median(draws)) < 0.02

    def test_sigma_validation(self):
        with pytest.raises(ValueError, match="sigma must be positive"):
            laplace_vector(0.0, 10, np.random.default_rng(0))
        for sigma in (math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma must be positive and finite"):
                laplace_vector(sigma, 10, np.random.default_rng(0))

    def test_all_draws_finite(self):
        draws = laplace_vector(1e-6, 100_000, np.random.default_rng(9))
        assert np.isfinite(draws).all()


# The ledger's sensitivity 2|F|/n and noise scale delta/ln(|F|/gamma), each
# read from a privacy_check whose other arguments are valid.
def ledger_sensitivity(family_size, n):
    return privacy_check(n, None, 0.1, family_size, 0.01).sensitivity


def ledger_sigma(delta_target, family_size, gamma):
    return privacy_check(1, None, delta_target, family_size, gamma).sigma


class TestSensitivity:
    def test_values(self):
        assert ledger_sensitivity(56, 10_000) == pytest.approx(0.0112, rel=1e-15)
        assert ledger_sensitivity(1, 2) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="family size"):
            ledger_sensitivity(0, 10)
        with pytest.raises(ValueError, match="dataset size"):
            ledger_sensitivity(3, 0)


class TestSigmaFor:
    def test_frozen_values(self):
        # delta / ln(|F|/gamma), evaluated independently
        assert ledger_sigma(0.1, 56, 0.01) == pytest.approx(
            0.011586784835075014, rel=1e-12
        )
        assert ledger_sigma(0.2, 17, 0.1) == pytest.approx(
            0.03894233826568741, rel=1e-12
        )

    def test_monotone_in_delta(self):
        assert ledger_sigma(0.2, 10, 0.1) == 2 * ledger_sigma(0.1, 10, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError, match="delta_target must be positive"):
            ledger_sigma(0.0, 10, 0.1)
        with pytest.raises(ValueError, match="family size"):
            ledger_sigma(0.1, 0, 0.1)
        with pytest.raises(ValueError, match="gamma must lie"):
            ledger_sigma(0.1, 10, 1.0)
        for delta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="delta_target must be positive and finite"):
                ledger_sigma(delta, 10, 0.1)
        with pytest.raises(ValueError, match="gamma must lie"):
            ledger_sigma(0.1, 10, math.nan)


class TestPrivacyCheck:
    def test_frozen_threshold(self):
        # 2 * 56 * ln(56/0.01) / (1 * 0.1), evaluated independently
        check = privacy_check(10_000, 1.0, 0.1, 56, 0.01)
        assert check.required_n == pytest.approx(9666.184501930029, rel=1e-12)
        assert check.passed
        assert not privacy_check(9_000, 1.0, 0.1, 56, 0.01).passed

    def test_accuracy_thresholds(self):
        # ln(|F|/gamma)/delta^2 and kappa*|F|/(gamma*delta^2), in these float operations
        check = privacy_check(10_000, 1.0, 0.1, 56, 0.01, 1.5)
        assert check.threshold_n_k == math.log(56 / 0.01) / 0.1**2
        assert check.threshold_m == 1.5 * 56 / (0.01 * 0.1**2)
        assert privacy_check(10_000, 1.0, 0.1, 56, 0.01).threshold_m == 56 / (0.01 * 0.1**2)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            privacy_check(100, 0.0, 0.1, 10, 0.1)

    @pytest.mark.parametrize(
        "args, match",
        [
            ((10, math.nan, 0.1, 56, 0.01), "epsilon must be positive and finite"),
            ((10, math.inf, 0.1, 56, 0.01), "epsilon must be positive and finite"),
            ((10, None, math.nan, 56, 0.01), "delta_target must be positive and finite"),
            ((10, 1.0, math.inf, 56, 0.01), "delta_target must be positive and finite"),
            ((10, None, 0.1, 56, math.nan), "gamma must lie in"),
            ((10, 1e-200, 1e-200, 56, 0.01), "underflows to 0"),
            ((10, None, 5e-324, 56, 0.01), "underflows to 0"),
            ((10, None, 0.1, 56, 0.01, math.nan), "kappa_bound must be >= 1 and finite"),
            ((10, None, 0.1, 56, 0.01, math.inf), "kappa_bound must be >= 1 and finite"),
            ((10, None, 0.1, 56, 0.01, 0.5), "kappa_bound must be >= 1 and finite"),
            ((10, None, 0.1, 56, 1e-310), "the noise scale or epsilon \\* delta_target underflows"),
            ((10, None, 0.1, 56, 5e-324), "gamma \\* delta\\^2 underflows to 0"),
        ],
    )
    def test_non_finite_parameters_rejected(self, args, match):
        with pytest.raises(ValueError, match=match):
            privacy_check(*args)

    def test_no_epsilon_reports_the_achieved_budget(self):
        check = privacy_check(10_000, 1.0, 0.1, 56, 0.01)
        assert check.sigma == pytest.approx(0.011586784835075014, rel=1e-12)
        free = privacy_check(10_000, None, 0.1, 56, 0.01)
        assert free.passed
        assert free.sigma == check.sigma
        assert free.epsilon == free.epsilon_achieved
        assert free.epsilon_achieved == 2.0 * 56 / 10_000 / free.sigma
        # the required_n expression in its original operation order, with
        # the achieved budget standing in for a requested one
        assert free.required_n == (
            2.0 * 56 * math.log(56 / 0.01) / (free.epsilon_achieved * 0.1)
        )

    @given(
        n=st.integers(min_value=1, max_value=10**7),
        delta=st.floats(min_value=1e-3, max_value=0.5),
        family_size=st.integers(min_value=1, max_value=10**4),
        gamma=st.floats(min_value=1e-4, max_value=0.24),
    )
    @settings(max_examples=100, deadline=None)
    def test_no_epsilon_always_passes(self, n, delta, family_size, gamma):
        # analytically required_n == n here, and rounding must not fail the check
        check = privacy_check(n, None, delta, family_size, gamma)
        assert check.passed
        assert check.epsilon == check.epsilon_achieved
        assert check.required_n == (
            2.0 * family_size * math.log(family_size / gamma)
            / (check.epsilon_achieved * delta)
        )

    def test_requested_epsilon_beside_the_achieved_one(self):
        check = privacy_check(10_000, 1.0, 0.1, 56, 0.01)
        assert check.epsilon == 1.0
        assert check.epsilon_achieved == 2.0 * 56 / 10_000 / check.sigma
        assert check.epsilon_achieved < 1.0

    @given(
        n=st.integers(min_value=1, max_value=10**7),
        epsilon=st.floats(min_value=1e-3, max_value=10.0),
        delta=st.floats(min_value=1e-3, max_value=0.5),
        family_size=st.integers(min_value=1, max_value=10**4),
        gamma=st.floats(min_value=1e-4, max_value=0.24),
    )
    @settings(max_examples=200, deadline=None)
    def test_gate_equivalent_to_noise_ratio(self, n, epsilon, delta, family_size, gamma):
        # passing the size gate is the same statement as the noise ratio
        # sensitivity/sigma staying at or below epsilon
        check = privacy_check(n, epsilon, delta, family_size, gamma)
        assume(abs(n - check.required_n) > 1e-6 * max(1.0, check.required_n))
        sensitivity = 2.0 * family_size / n
        sigma = delta / math.log(family_size / gamma)
        ratio_ok = sensitivity / sigma <= epsilon
        assert check.passed == ratio_ok


class TestPerturb:
    """The noise step of ``generate``: one Laplace draw per statistic, from the
    first of the three seeds a run spawns, added without clipping."""

    @staticmethod
    def release(delta, seed=7):
        data = Dataset((2,) * 6, np.random.default_rng(3).integers(0, 2, (40, 6)))
        family = marginal_family(6, 2, "monotone")
        config = PipelineConfig(
            delta_target=delta, gamma=0.1, synthetic_size=5, reduced_size=30, seed=seed,
            export_noisy_targets=True,
        )
        report = generate(data, family, ProductDistribution.uniform((2,) * 6), config).report
        return data, family, report

    def test_matches_direct_noise(self):
        data, family, report = self.release(0.3)
        noise_rng = np.random.default_rng(np.random.SeedSequence(7).spawn(3)[0])
        noise = laplace_vector(report.sigma, len(family), noise_rng)
        assert np.array_equal(report.noisy_targets, evaluate_all(family, data) + noise)

    def test_no_clipping(self):
        noisy = np.array(self.release(50.0)[2].noisy_targets)
        assert (noisy > 1.0).any()
        assert (noisy < -1.0).any()

    def test_preserves_length(self):
        _, family, report = self.release(0.3)
        assert len(report.noisy_targets) == len(family) == 22
