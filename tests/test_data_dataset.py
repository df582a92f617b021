"""Unit tests for sample building and the dataset container."""

import numpy as np
import pytest

from repro.data.dataset import (
    DesignSample,
    IRDropDataset,
    build_sample,
    golden_ir_drop,
)
from repro.features.fusion import FeatureConfig
from repro.features.maps import FeatureStack


class TestGoldenLabel:
    def test_label_positive_and_shaped(self, fake_design):
        label = golden_ir_drop(fake_design)
        assert label.shape == fake_design.geometry.shape
        assert label.max() > 0

    def test_label_matches_converged_powerrush(self, fake_design):
        from repro.solvers.powerrush import PowerRushSimulator

        report = PowerRushSimulator(tol=1e-13).simulate_grid(fake_design.grid)
        assert np.allclose(
            golden_ir_drop(fake_design),
            report.drop_image(fake_design.geometry),
            atol=1e-8,
        )


class TestBuildSample:
    def test_default_sample(self, fake_sample, fake_design):
        assert fake_sample.name == fake_design.name
        assert fake_sample.is_fake
        assert fake_sample.rough_label is not None
        assert fake_sample.features.shape == fake_sample.label.shape

    def test_rough_label_tracks_solver_budget(self, fake_design):
        rough1 = build_sample(fake_design, solver_iterations=1).rough_label
        rough6 = build_sample(fake_design, solver_iterations=6).rough_label
        golden = golden_ir_drop(fake_design)
        assert np.abs(rough6 - golden).mean() < np.abs(rough1 - golden).mean()

    def test_without_numerical_no_rough(self, fake_design):
        sample = build_sample(
            fake_design, FeatureConfig(use_numerical=False)
        )
        assert sample.rough_label is None
        assert not any(
            c.startswith("numerical") for c in sample.features.channels
        )

    def test_label_shape_validation(self, fake_sample):
        with pytest.raises(ValueError):
            DesignSample(
                name="bad",
                kind="fake",
                features=fake_sample.features,
                label=np.zeros((3, 3)),
            )


class TestDataset:
    def test_len_iter_getitem(self, tiny_dataset):
        assert len(tiny_dataset) == 2
        assert tiny_dataset[0].is_fake
        assert [s.kind for s in tiny_dataset] == ["fake", "real"]

    def test_channels_consistent(self, tiny_dataset):
        assert "numerical_m1" in tiny_dataset.channels

    def test_channels_mismatch_detected(self, fake_sample, fake_design):
        other = build_sample(fake_design, FeatureConfig(hierarchical=False))
        dataset = IRDropDataset([fake_sample, other])
        with pytest.raises(ValueError):
            dataset.channels

    def test_empty_dataset_channels_rejected(self):
        with pytest.raises(ValueError):
            IRDropDataset([]).channels

    def test_as_arrays_shapes(self, tiny_dataset):
        x, y = tiny_dataset.as_arrays()
        n_channels = len(tiny_dataset.channels)
        assert x.shape == (2, n_channels, 16, 16)
        assert y.shape == (2, 1, 16, 16)

    def test_as_arrays_empty_rejected(self):
        with pytest.raises(ValueError):
            IRDropDataset([]).as_arrays()

    def test_from_designs(self, fake_design, real_design):
        dataset = IRDropDataset.from_designs(
            [fake_design, real_design], solver_iterations=1
        )
        assert len(dataset) == 2
        assert dataset[1].kind == "real"


class TestAsArraysAllocation:
    """``as_arrays`` must fill preallocated blocks, not stack-then-cast.

    The old path (``np.stack`` + ``astype(float64)``) held the stacked
    copy and the cast output simultaneously — roughly twice the dataset
    at peak.  The rewrite allocates each output once and fills row by
    row, so peak traced allocation stays near the output size itself.
    """

    @staticmethod
    def _bulky_dataset(n=24, channels=6, pixels=48):
        rng = np.random.default_rng(7)
        names = [f"c{k}" for k in range(channels)]
        samples = [
            DesignSample(
                name=f"d{k}",
                kind="fake",
                features=FeatureStack(
                    channels=list(names),
                    data=rng.standard_normal((channels, pixels, pixels)),
                ),
                label=rng.standard_normal((pixels, pixels)),
            )
            for k in range(n)
        ]
        return IRDropDataset(samples)

    def test_values_and_dtype(self):
        """X is filled straight into float32, bit for bit the old float64
        stack cast with ``astype``; Y stays float64 and exact."""
        dataset = self._bulky_dataset(n=3, channels=2, pixels=8)
        x, y = dataset.as_arrays()
        assert x.dtype == np.float32 and y.dtype == np.float64
        wide = np.stack([sample.features.data for sample in dataset])
        assert np.array_equal(
            x.view(np.uint32), wide.astype(np.float32).view(np.uint32)
        )
        for k, sample in enumerate(dataset):
            assert np.array_equal(y[k, 0], sample.label)

    def test_peak_allocation_near_output_size(self):
        import tracemalloc

        dataset = self._bulky_dataset()
        dataset.as_arrays()  # warm any lazy imports/caches
        tracemalloc.start()
        x, y = dataset.as_arrays()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        output_bytes = x.nbytes + y.nbytes
        # stack+astype peaked around 2x output; the filled path must
        # stay well under that.
        assert peak < 1.5 * output_bytes, (
            f"as_arrays peaked at {peak / 1e6:.1f}MB for "
            f"{output_bytes / 1e6:.1f}MB of output"
        )
