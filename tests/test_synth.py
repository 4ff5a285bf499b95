import functools

import numpy as np
import pytest

from dpsynth import (
    Dataset,
    FiniteDensity,
    FitGateError,
    PipelineConfig,
    PrivacyGateError,
    ProductDistribution,
    bootstrap,
    evaluate_all,
    generate,
    marginal_family,
    validate_params,
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


class TestPipelineConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="delta_target"):
            base_config(delta_target=0.0)
        with pytest.raises(ValueError, match="gamma"):
            base_config(gamma=1.0)
        with pytest.raises(ValueError, match="synthetic_size"):
            base_config(synthetic_size=0)
        with pytest.raises(ValueError, match="reduced_size"):
            base_config(reduced_size=0)
        with pytest.raises(ValueError, match="kappa_bound"):
            base_config(kappa_bound=0.5)
        with pytest.raises(ValueError, match="epsilon"):
            base_config(epsilon=-1.0)
        with pytest.raises(ValueError, match="sigma_override"):
            base_config(sigma_override=0.0)


class TestValidateParams:
    def test_frozen_thresholds(self):
        # ln(17/0.1)/0.2^2 and 1.0 * 17 / (0.1 * 0.2^2), evaluated independently
        report = validate_params(base_config(), n=150, family_size=17)
        assert report.accuracy_threshold_n_k == pytest.approx(
            128.39496092625654, rel=1e-12
        )
        assert report.accuracy_threshold_m == pytest.approx(4250.0, rel=1e-12)
        assert report.sigma == pytest.approx(0.03894233826568741, rel=1e-12)
        assert report.accuracy_passed
        assert report.config_in_range
        assert report.privacy_passed  # no epsilon requested

    def test_accuracy_flags(self):
        assert not validate_params(
            base_config(reduced_size=4249), n=150, family_size=17
        ).accuracy_passed
        assert not validate_params(
            base_config(synthetic_size=128), n=150, family_size=17
        ).accuracy_passed
        assert validate_params(
            base_config(synthetic_size=129), n=150, family_size=17
        ).accuracy_passed

    def test_config_range_flag(self):
        assert not validate_params(
            base_config(delta_target=0.6), n=150, family_size=17
        ).config_in_range
        assert not validate_params(
            base_config(gamma=0.3), n=150, family_size=17
        ).config_in_range

    def test_privacy_gate_frozen_threshold(self):
        config = base_config(delta_target=0.1, gamma=0.01, epsilon=1.0)
        report = validate_params(config, n=10_000, family_size=56)
        assert report.required_n == pytest.approx(9666.184501930029, rel=1e-12)
        assert report.privacy_passed
        failing = validate_params(config, n=9_000, family_size=56)
        assert not failing.privacy_passed

    def test_sigma_override_gates_on_achieved_budget(self):
        config = base_config(delta_target=0.1, gamma=0.01, epsilon=1.0,
                             sigma_override=100.0)
        report = validate_params(config, n=10, family_size=56)
        assert report.sigma == 100.0
        assert report.privacy_passed  # 2*56/10/100 = 0.112 <= 1
        tight = base_config(delta_target=0.1, gamma=0.01, epsilon=1.0,
                            sigma_override=1e-6)
        assert not validate_params(tight, n=10, family_size=56).privacy_passed


class TestBootstrap:
    def test_determinism(self):
        support = Dataset((2, 2), [[0, 0], [1, 1]])
        density = FiniteDensity(support, [0.5, 0.5])
        a = bootstrap(density, 100, np.random.default_rng(1))
        b = bootstrap(density, 100, np.random.default_rng(1))
        assert a == b

    def test_point_mass(self):
        support = Dataset((3,), [[0], [2]])
        density = FiniteDensity(support, [0.0, 1.0])
        draws = bootstrap(density, 50, np.random.default_rng(2))
        assert (draws.rows == 2).all()

    def test_frequencies(self):
        support = Dataset((2,), [[0], [1]])
        density = FiniteDensity(support, [0.25, 0.75])
        draws = bootstrap(density, 20_000, np.random.default_rng(3))
        assert draws.rows.mean() == pytest.approx(0.75, abs=0.02)

    def test_never_draws_a_trailing_zero_weight_point(self):
        # ten weights of 0.1 sum to 1 exactly but accumulate to just under 1
        weights = [0.1] * 10 + [0.0]
        density = FiniteDensity(Dataset((11,), [[i] for i in range(11)]), weights)
        top = np.cumsum(weights)[-1]
        assert top < 1.0

        class TopUniform(np.random.Generator):
            def random(self, size=None):
                return np.full(size, top)

        draws = bootstrap(density, 5, TopUniform(np.random.PCG64(0)))
        assert (draws.rows == 9).all()

    def test_count_validation(self):
        support = Dataset((2,), [[0]])
        density = FiniteDensity(support, [1.0])
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
        monkeypatch.setattr(
            synth, "solve_min_max", functools.partial(optimize.solve_min_max, max_iterations=0)
        )
        with pytest.raises(FitGateError, match="iteration-limit after 0 pivots"):
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
