"""Unit tests for FeatureStack."""

import numpy as np
import pytest

from repro.features.maps import FeatureStack


@pytest.fixture()
def stack(rng):
    return FeatureStack(
        channels=["a", "b", "c"],
        data=rng.standard_normal((3, 4, 5)),
    )


class TestConstruction:
    def test_shape_and_channels(self, stack):
        assert stack.num_channels == 3
        assert stack.shape == (4, 5)

    def test_wrong_dims_rejected(self):
        with pytest.raises(ValueError):
            FeatureStack(channels=["a"], data=np.zeros((4, 5)))

    def test_name_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FeatureStack(channels=["a"], data=np.zeros((2, 4, 5)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            FeatureStack(channels=["a", "a"], data=np.zeros((2, 4, 5)))

    def test_from_dict_preserves_order(self):
        stack = FeatureStack.from_dict(
            {"z": np.zeros((2, 2)), "a": np.ones((2, 2))}
        )
        assert stack.channels == ["z", "a"]
        assert np.array_equal(stack["a"], np.ones((2, 2)))

    def test_from_empty_dict_rejected(self):
        with pytest.raises(ValueError):
            FeatureStack.from_dict({})


class TestAccess:
    def test_getitem(self, stack):
        assert np.array_equal(stack["b"], stack.data[1])

    def test_contains(self, stack):
        assert "a" in stack
        assert "zzz" not in stack
