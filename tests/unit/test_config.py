"""Unit tests for GOFMMConfig parameter validation and helpers."""

import numpy as np
import pytest

from repro import ConfigurationError, GOFMMConfig
from repro.config import DistanceMetric, default_config, fmm_config, hss_config


class TestValidation:
    def test_defaults_are_valid(self):
        config = GOFMMConfig()
        assert config.leaf_size == 256
        assert config.distance is DistanceMetric.ANGLE

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"leaf_size": 1},
            {"leaf_size": 0},
            {"max_rank": 0},
            {"tolerance": 0.0},
            {"tolerance": -1e-3},
            {"neighbors": 0},
            {"budget": -0.1},
            {"budget": 1.5},
            {"num_neighbor_trees": -1},
            {"neighbor_accuracy_target": 0.0},
            {"neighbor_accuracy_target": 1.5},
            {"sample_size": -1},
            {"oversampling": 0},
            {"centroid_samples": 0},
            {"dtype": np.int32},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            GOFMMConfig(**kwargs)

    def test_distance_accepts_string(self):
        config = GOFMMConfig(distance="kernel")
        assert config.distance is DistanceMetric.KERNEL

    def test_invalid_distance_string(self):
        with pytest.raises(ValueError):
            GOFMMConfig(distance="not-a-metric")

    def test_dtype_normalized(self):
        config = GOFMMConfig(dtype=np.float32)
        assert config.dtype == np.dtype(np.float32)

    def test_plan_rank_bucketing_validated(self):
        with pytest.raises(ConfigurationError, match="plan_rank_bucketing"):
            GOFMMConfig(plan_rank_bucketing="fibonacci")

    def test_removed_compression_backend_field_is_a_type_error(self):
        with pytest.raises(TypeError, match="compression_backend"):
            GOFMMConfig(compression_backend="batched")


class TestHelpers:
    def test_replace_returns_new_validated_config(self):
        config = GOFMMConfig(leaf_size=64)
        other = config.replace(max_rank=16)
        assert other.max_rank == 16
        assert other.leaf_size == 64
        assert config.max_rank != 16 or config.max_rank == 256

    def test_replace_validates(self):
        with pytest.raises(ConfigurationError):
            GOFMMConfig().replace(budget=2.0)

    def test_is_hss(self):
        assert GOFMMConfig(budget=0.0).is_hss
        assert not GOFMMConfig(budget=0.01).is_hss

    def test_effective_sample_size(self):
        config = GOFMMConfig(max_rank=32, oversampling=3, sample_size=0)
        assert config.effective_sample_size() == 96
        config = GOFMMConfig(max_rank=32, oversampling=2, sample_size=500)
        assert config.effective_sample_size() == 500

    def test_max_near_size_budget_zero(self):
        assert GOFMMConfig(budget=0.0).max_near_size(10_000) == 0

    def test_max_near_size_scales_with_n(self):
        config = GOFMMConfig(leaf_size=100, budget=0.1)
        assert config.max_near_size(10_000) == 10  # 10% of 100 leaves
        assert config.max_near_size(1_000) == 1

    def test_describe_mentions_key_parameters(self):
        text = GOFMMConfig(leaf_size=128, budget=0.05).describe()
        assert "m=128" in text
        assert "5.00%" in text


class TestFactories:
    def test_default_config(self):
        assert default_config().budget == pytest.approx(0.03)

    def test_hss_config_forces_budget_zero(self):
        assert hss_config().budget == 0.0
        assert hss_config(leaf_size=64).leaf_size == 64

    def test_fmm_config_budget(self):
        assert fmm_config(budget=0.12).budget == pytest.approx(0.12)

    def test_frozen(self):
        config = GOFMMConfig()
        with pytest.raises(Exception):
            config.leaf_size = 10  # type: ignore[misc]
