import dataclasses
import math

import numpy as np
import pytest

from dpsynth import (
    Dataset,
    ExplicitDistribution,
    FitGateError,
    PipelineConfig,
    PrivacyGateError,
    ProductDistribution,
    QueryFamily,
    TestFunction,
    bootstrap,
    evaluate_all,
    generate,
    marginal_family,
    privacy_check,
)
from dpsynth import optimize, synth


def base_config(**overrides):
    kwargs = dict(
        delta_target=0.2,
        gamma=0.1,
        synthetic_size=150,
        reduced_size=4250,
        seed=42,
    )
    kwargs.update(overrides)
    return PipelineConfig(**kwargs)


class CountingDataset(Dataset):
    """Dataset that counts how often its row array is handed out."""

    def __init__(self, schema, rows):
        super().__init__(schema, rows)
        self.row_reads = 0

    @property
    def rows(self):
        self.row_reads += 1
        return Dataset.rows.fget(self)


def reject_before_reading(config, match):
    """generate must reject the config with the message ``match`` before it
    reads the data: evaluate_all, the one read, fails if it is called."""
    data = Dataset((2,) * 4, [[0, 1, 0, 1]] * 20)

    def no_read(*args):
        raise AssertionError("the data was read")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synth, "evaluate_all", no_read)
        with pytest.raises(ValueError, match=match):
            generate(data, marginal_family(4, 1, "monotone"),
                     ProductDistribution.uniform((2,) * 4), config)


class TestPipelineConfig:
    def test_validation(self):
        # the sizes are checked where the config is built; every other
        # parameter by the ledger that generate builds first
        with pytest.raises(ValueError, match="synthetic_size"):
            base_config(synthetic_size=0)
        with pytest.raises(ValueError, match="reduced_size"):
            base_config(reduced_size=0)
        reject_before_reading(base_config(delta_target=0.0), "delta_target")
        reject_before_reading(base_config(gamma=1.0), "gamma")
        reject_before_reading(base_config(kappa_bound=0.5), "kappa_bound")
        reject_before_reading(base_config(epsilon=-1.0), "epsilon")

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("delta_target", math.nan, "delta_target must be positive"),
            ("delta_target", math.inf, "delta_target must be positive and finite"),
            ("gamma", math.nan, "gamma must lie in"),
            ("kappa_bound", math.nan, "kappa_bound must be >= 1"),
            ("kappa_bound", math.inf, "kappa_bound must be >= 1 and finite"),
            ("epsilon", math.nan, "epsilon must be positive"),
            ("epsilon", math.inf, "epsilon must be positive and finite"),
        ],
    )
    def test_non_finite_values_rejected(self, field, value, match):
        reject_before_reading(base_config(**{field: value}), match)

    @pytest.mark.parametrize(
        "field, value",
        [("synthetic_size", 5.5), ("reduced_size", 10.5), ("seed", 7.0), ("seed", None)],
    )
    def test_integer_fields_must_be_integers(self, field, value):
        with pytest.raises(TypeError, match=f"^{field} must be an integer$"):
            base_config(**{field: value})

    def test_integer_fields_are_stored_as_ints(self):
        config = base_config(synthetic_size=np.int64(150), reduced_size=np.uint16(300), seed=True)
        values = (config.synthetic_size, config.reduced_size, config.seed)
        assert values == (150, 300, 1)
        assert all(type(v) is int for v in values)

    def test_delta_whose_square_overflows_is_a_value_error(self):
        config = base_config(delta_target=1e300, reduced_size=10)
        reject_before_reading(config, "delta\\^2 overflows")


def release_report(n, p, d, **overrides):
    """The report of one release of n random Boolean rows on p coordinates
    with the monotone marginals of order d."""
    rows = np.random.default_rng(n + p).integers(0, 2, size=(n, p))
    result = generate(
        Dataset((2,) * p, rows),
        marginal_family(p, d, "monotone"),
        ProductDistribution.uniform((2,) * p),
        base_config(**overrides),
    )
    return result.report


class TestValidateParams:
    """The run parameters against the guarantee thresholds, as generate reports them.

    p=16, d=1 gives |F| = 17; p=10, d=2 gives |F| = 56.
    """

    def test_frozen_thresholds(self):
        # ln(17/0.1)/0.2^2 and 1.0 * 17 / (0.1 * 0.2^2), evaluated independently
        report = release_report(150, 16, 1)
        assert report.family_size == 17
        assert report.accuracy_threshold_n_k == pytest.approx(
            128.39496092625654, rel=1e-12
        )
        assert report.accuracy_threshold_m == pytest.approx(4250.0, rel=1e-12)
        assert report.sigma == pytest.approx(0.03894233826568741, rel=1e-12)
        assert report.accuracy_passed
        assert report.config_in_range
        assert report.privacy_passed  # no epsilon requested

    def test_thresholds_come_from_the_ledger(self):
        report = release_report(150, 16, 1, kappa_bound=2.0)
        ledger = privacy_check(150, None, 0.2, 17, 0.1, 2.0)
        # the float expressions the report has always used
        assert ledger.threshold_n_k == math.log(17 / 0.1) / 0.2**2
        assert ledger.threshold_m == 2.0 * 17 / (0.1 * 0.2**2)
        lines = report.to_text().splitlines()
        assert f"accuracy_threshold_n_k = {ledger.threshold_n_k:.9g}" in lines
        assert f"accuracy_threshold_m = {ledger.threshold_m:.9g}" in lines
        assert report.accuracy_threshold_n_k == ledger.threshold_n_k
        assert report.accuracy_threshold_m == ledger.threshold_m
        assert not report.accuracy_passed  # m = 4250 < 8500

    def test_accuracy_flags(self):
        assert not release_report(150, 16, 1, reduced_size=4249).accuracy_passed
        assert not release_report(150, 16, 1, synthetic_size=128).accuracy_passed
        assert release_report(150, 16, 1, synthetic_size=129).accuracy_passed

    def test_config_range_flag(self):
        assert not release_report(150, 16, 1, delta_target=0.6).config_in_range
        assert not release_report(150, 16, 1, gamma=0.3).config_in_range

    def test_config_range_boundaries(self):
        # 0 < delta <= 0.5 and 0 < gamma < 0.25
        small = dict(synthetic_size=20, reduced_size=50)
        assert release_report(100, 4, 1, delta_target=0.5, gamma=0.2, **small).config_in_range
        assert not release_report(100, 4, 1, delta_target=0.51, gamma=0.2, **small).config_in_range
        assert not release_report(100, 4, 1, delta_target=0.5, gamma=0.25, **small).config_in_range

    def test_privacy_gate_frozen_threshold(self):
        gate = dict(delta_target=0.1, gamma=0.01, epsilon=1.0, reduced_size=300)
        report = release_report(10_000, 10, 2, **gate)
        assert report.family_size == 56
        assert report.required_n == pytest.approx(9666.184501930029, rel=1e-12)
        assert report.privacy_passed
        failing = release_report(9_000, 10, 2, allow_privacy_failure=True, **gate)
        assert not failing.privacy_passed
        with pytest.raises(PrivacyGateError, match="needs n >= 9666.1845, got n = 9000"):
            release_report(9_000, 10, 2, **gate)


class TestBootstrap:
    def test_determinism(self):
        support = Dataset((2, 2), [[0, 0], [1, 1]])
        density = ExplicitDistribution(support, [0.5, 0.5])
        a = bootstrap(density, 100, np.random.default_rng(1))
        b = bootstrap(density, 100, np.random.default_rng(1))
        assert a == b

    def test_point_mass(self):
        support = Dataset((3,), [[0], [2]])
        density = ExplicitDistribution(support, [0.0, 1.0])
        draws = bootstrap(density, 50, np.random.default_rng(2))
        assert (draws.rows == 2).all()

    def test_frequencies(self):
        support = Dataset((2,), [[0], [1]])
        density = ExplicitDistribution(support, [0.25, 0.75])
        draws = bootstrap(density, 20_000, np.random.default_rng(3))
        assert draws.rows.mean() == pytest.approx(0.75, abs=0.02)

    def test_never_draws_a_trailing_zero_weight_point(self):
        # ten weights of 0.1 sum to 1 exactly but accumulate to just under 1
        weights = [0.1] * 10 + [0.0]
        density = ExplicitDistribution(Dataset((11,), [[i] for i in range(11)]), weights)
        top = np.cumsum(weights)[-1]
        assert top < 1.0

        class TopUniform(np.random.Generator):
            def random(self, size=None):
                return np.full(size, top)

        draws = bootstrap(density, 5, TopUniform(np.random.PCG64(0)))
        assert (draws.rows == 9).all()

    def test_count_validation(self):
        support = Dataset((2,), [[0]])
        density = ExplicitDistribution(support, [1.0])
        with pytest.raises(ValueError, match="count must be >= 1"):
            bootstrap(density, 0, np.random.default_rng(0))


@pytest.fixture
def pipeline_inputs():
    rng = np.random.default_rng(2024)
    schema = (2,) * 6
    data = Dataset(schema, rng.integers(0, 2, size=(400, 6)))
    family = marginal_family(6, 1, "monotone")
    sampling = ProductDistribution.uniform(schema)
    config = PipelineConfig(
        delta_target=0.2,
        gamma=0.1,
        synthetic_size=200,
        reduced_size=150,
        seed=99,
    )
    return data, family, sampling, config


class TestGenerate:
    def test_output_shape_and_report(self, pipeline_inputs):
        data, family, sampling, config = pipeline_inputs
        result = generate(data, family, sampling, config)
        assert result.synthetic.schema == data.schema
        assert len(result.synthetic) == config.synthetic_size
        report = result.report
        assert report.family_size == len(family)
        assert report.n == len(data)
        assert not report.constant_one_added
        assert report.lp_status == "optimal"
        assert report.lp_objective >= 0.0

    def test_determinism(self, pipeline_inputs):
        data, family, sampling, config = pipeline_inputs
        first = generate(data, family, sampling, config)
        second = generate(data, family, sampling, config)
        assert first.synthetic == second.synthetic
        assert first.report.to_text() == second.report.to_text()

    def test_seed_changes_output(self, pipeline_inputs):
        data, family, sampling, config = pipeline_inputs
        other = PipelineConfig(
            delta_target=config.delta_target,
            gamma=config.gamma,
            synthetic_size=config.synthetic_size,
            reduced_size=config.reduced_size,
            seed=config.seed + 1,
        )
        assert generate(data, family, sampling, config).synthetic != generate(
            data, family, sampling, other
        ).synthetic

    def test_noise_does_not_depend_on_reduced_size(self, pipeline_inputs):
        data, family, sampling, config = pipeline_inputs
        reports = []
        for m in (120, 180):
            cfg = PipelineConfig(
                delta_target=config.delta_target,
                gamma=config.gamma,
                synthetic_size=config.synthetic_size,
                reduced_size=m,
                seed=config.seed,
                export_noisy_targets=True,
            )
            reports.append(generate(data, family, sampling, cfg).report)
        assert reports[0].noisy_targets == reports[1].noisy_targets
        assert reports[0].noisy_targets is not None

    def test_reads_sensitive_rows_exactly_once(self, pipeline_inputs):
        data, family, sampling, config = pipeline_inputs
        counting = CountingDataset(data.schema, data.rows)
        generate(counting, family, sampling, config)
        assert counting.row_reads == 1

    def test_constant_added_when_missing(self, pipeline_inputs):
        data, family, sampling, config = pipeline_inputs
        bare = marginal_family(6, 1, "monotone")
        trimmed = type(bare)([f for f in bare if not f.is_constant_one])
        result = generate(data, trimmed, sampling, config)
        assert result.report.constant_one_added
        assert result.report.family_size == len(trimmed) + 1

    def test_added_constant_gives_the_release_of_a_family_that_has_it(self, pipeline_inputs):
        data, family, sampling, config = pipeline_inputs
        bare = QueryFamily([f for f in family if not f.is_constant_one])
        added = generate(data, bare, sampling, config)
        given = generate(data, QueryFamily([TestFunction.constant_one(), *bare]), sampling, config)
        assert (added.report.constant_one_added, given.report.constant_one_added) == (True, False)
        assert added.synthetic == given.synthetic
        unmarked = dataclasses.replace(added.report, constant_one_added=False)
        assert unmarked.to_text() == given.report.to_text()

    def test_privacy_gate_blocks_small_datasets(self, pipeline_inputs):
        data, family, sampling, config = pipeline_inputs
        gated = PipelineConfig(
            delta_target=0.2,
            gamma=0.1,
            synthetic_size=200,
            reduced_size=150,
            seed=99,
            epsilon=0.05,
        )
        with pytest.raises(PrivacyGateError, match="needs n >="):
            generate(data, family, sampling, gated)

    def test_iteration_limit_is_a_gate_failure(self, pipeline_inputs, monkeypatch):
        data, family, sampling, config = pipeline_inputs
        monkeypatch.setattr(optimize, "MAX_ITERATIONS", 0)
        with pytest.raises(FitGateError, match="iteration-limit after 0 iterations"):
            generate(data, family, sampling, config)

    def test_allow_privacy_failure_proceeds(self, pipeline_inputs):
        data, family, sampling, config = pipeline_inputs
        gated = PipelineConfig(
            delta_target=0.2,
            gamma=0.1,
            synthetic_size=200,
            reduced_size=150,
            seed=99,
            epsilon=0.05,
            allow_privacy_failure=True,
        )
        result = generate(data, family, sampling, gated)
        assert not result.report.privacy_passed
        assert len(result.synthetic) == 200

    def test_schema_mismatch_rejected(self, pipeline_inputs):
        data, family, _, config = pipeline_inputs
        wrong = ProductDistribution.uniform((2,) * 5)
        with pytest.raises(ValueError, match="schema must match"):
            generate(data, family, wrong, config)

    def test_empty_dataset_rejected(self, pipeline_inputs):
        _, family, sampling, config = pipeline_inputs
        empty = Dataset((2,) * 6, [])
        with pytest.raises(ValueError, match="empty dataset"):
            generate(empty, family, sampling, config)

    def test_synthetic_statistics_track_noisy_targets(self, pipeline_inputs):
        # post-processing faithfulness: the synthetic statistics stay within
        # lp_objective plus bootstrap noise of the noisy targets
        data, family, sampling, _ = pipeline_inputs
        config = PipelineConfig(
            delta_target=0.2,
            gamma=0.1,
            synthetic_size=50_000,
            reduced_size=200,
            seed=5,
            export_noisy_targets=True,
        )
        result = generate(data, family, sampling, config)
        synth_stats = evaluate_all(family, result.synthetic)
        gap = np.max(np.abs(synth_stats - np.asarray(result.report.noisy_targets)))
        assert gap <= result.report.lp_objective + 0.02


class TestPipelineReport:
    def test_key_order_and_format(self, pipeline_inputs):
        data, family, sampling, config = pipeline_inputs
        report = generate(data, family, sampling, config).report
        keys = [line.split(" = ")[0] for line in report.to_text().splitlines()]
        assert keys == [
            "sigma",
            "epsilon_achieved",
            "lp_objective",
            "accuracy_threshold_n_k",
            "accuracy_threshold_m",
            "seed",
            "family_size",
            "epsilon",
            "sensitivity",
            "required_n",
            "privacy_passed",
            "accuracy_passed",
            "config_in_range",
            "lp_status",
            "lp_iterations",
            "constant_one_added",
            "n",
            "synthetic_size",
            "reduced_size",
            "kappa_bound",
        ]

    def test_boolean_rendering(self, pipeline_inputs):
        data, family, sampling, config = pipeline_inputs
        text = generate(data, family, sampling, config).report.to_text()
        assert "privacy_passed = true" in text
        assert "constant_one_added = false" in text

    def test_noisy_targets_line_present_only_on_export(self, pipeline_inputs):
        data, family, sampling, config = pipeline_inputs
        plain = generate(data, family, sampling, config).report.to_text()
        assert "noisy_targets" not in plain
        exporting = PipelineConfig(
            delta_target=0.2,
            gamma=0.1,
            synthetic_size=200,
            reduced_size=150,
            seed=99,
            export_noisy_targets=True,
        )
        text = generate(data, family, sampling, exporting).report.to_text()
        assert "noisy_targets = " in text

    @pytest.mark.parametrize(
        "n, p, d, overrides, expected",
        [
            (
                400, 6, 1, dict(synthetic_size=200, reduced_size=150, seed=99),
                "sigma = 0.0470754911\nepsilon_achieved = 0.743486667\n"
                "accuracy_threshold_n_k = 106.212381\naccuracy_threshold_m = 1750\n"
                "seed = 99\nfamily_size = 7\nepsilon = 0.743486667\nsensitivity = 0.035\n"
                "required_n = 400\nprivacy_passed = true\naccuracy_passed = false\n"
                "config_in_range = true\nlp_status = optimal\nconstant_one_added = false\n"
                "n = 400\nsynthetic_size = 200\nreduced_size = 150\nkappa_bound = 1\n",
            ),
            (
                10_000, 10, 2,
                dict(delta_target=0.1, gamma=0.01, epsilon=1.0, reduced_size=300),
                "sigma = 0.0115867848\nepsilon_achieved = 0.96661845\n"
                "accuracy_threshold_n_k = 863.052188\naccuracy_threshold_m = 560000\n"
                "seed = 42\nfamily_size = 56\nepsilon = 1\nsensitivity = 0.0112\n"
                "required_n = 9666.1845\nprivacy_passed = true\naccuracy_passed = false\n"
                "config_in_range = true\nlp_status = optimal\nconstant_one_added = false\n"
                "n = 10000\nsynthetic_size = 150\nreduced_size = 300\nkappa_bound = 1\n",
            ),
            (
                9_000, 10, 2,
                dict(delta_target=0.1, gamma=0.01, epsilon=1.0, reduced_size=300,
                     allow_privacy_failure=True),
                "sigma = 0.0115867848\nepsilon_achieved = 1.0740205\n"
                "accuracy_threshold_n_k = 863.052188\naccuracy_threshold_m = 560000\n"
                "seed = 42\nfamily_size = 56\nepsilon = 1\nsensitivity = 0.0124444444\n"
                "required_n = 9666.1845\nprivacy_passed = false\naccuracy_passed = false\n"
                "config_in_range = true\nlp_status = optimal\nconstant_one_added = false\n"
                "n = 9000\nsynthetic_size = 150\nreduced_size = 300\nkappa_bound = 1\n",
            ),
        ],
        ids=["no-epsilon", "epsilon-passing", "epsilon-failing-allowed"],
    )
    def test_ledger_lines_are_pinned(self, n, p, d, overrides, expected):
        # every line but the solver's, so a new fit does not move this test
        lines = release_report(n, p, d, **overrides).to_text().splitlines(keepends=True)
        solver = ("lp_objective", "lp_iterations", "noisy_targets")
        assert "".join(ln for ln in lines if ln.split(" = ")[0] not in solver) == expected
