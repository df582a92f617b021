"""Unit tests for FusionConfig."""

import pytest

from repro.core.config import FusionConfig
from repro.features.fusion import FeatureConfig


class TestValidation:
    def test_defaults_valid(self):
        config = FusionConfig()
        assert config.pixels % (2**config.depth) == 0

    def test_pixels_divisibility_enforced(self):
        with pytest.raises(ValueError):
            FusionConfig(pixels=20, depth=3)

    def test_empty_training_suite_rejected(self):
        with pytest.raises(ValueError):
            FusionConfig(num_fake=0, num_real_train=0)

    def test_negative_solver_iterations_rejected(self):
        with pytest.raises(ValueError):
            FusionConfig(solver_iterations=-1)

    @pytest.mark.parametrize(
        "counts",
        [
            {"num_fake": -3, "num_real_train": 4, "num_real_test": -1},
            {"num_fake": -1},
            {"num_real_train": -1},
            {"num_real_test": -1},
        ],
    )
    def test_negative_design_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="must be >= 0"):
            FusionConfig(pixels=16, **counts)

    @pytest.mark.parametrize(
        "factors",
        [
            {"oversample_fake": -2, "oversample_real": 0},
            {"oversample_fake": 0},
            {"oversample_real": 0},
        ],
    )
    def test_oversampling_factor_below_one_rejected(self, factors):
        with pytest.raises(ValueError, match="oversampling factors"):
            FusionConfig(**factors)


class TestWith:
    def test_with_overrides_field(self):
        config = FusionConfig()
        changed = config.with_(model_name="pgau")
        assert changed.model_name == "pgau"
        assert config.model_name == "ir_fusion"  # original untouched

    def test_with_nested_features(self):
        config = FusionConfig()
        changed = config.with_(features=FeatureConfig(use_numerical=False))
        assert not changed.features.use_numerical
        assert config.features.use_numerical

    def test_with_validates(self):
        with pytest.raises(ValueError):
            FusionConfig().with_(pixels=17)
