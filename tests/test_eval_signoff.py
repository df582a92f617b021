"""Unit tests for the signoff checker."""

import numpy as np
import pytest

from repro.eval.signoff import check_ir_drop


class TestCheckIRDrop:
    def test_clean_map_passes(self):
        report = check_ir_drop(np.full((8, 8), 0.01), limit=0.05)
        assert report.passed
        assert report.worst_drop == pytest.approx(0.01)
        assert report.violation_area_fraction == 0.0
        assert "PASS" in report.summary()

    def test_single_violation_region(self):
        drop = np.zeros((8, 8))
        drop[2:4, 2:4] = 0.1
        report = check_ir_drop(drop, limit=0.05)
        assert not report.passed
        assert len(report.regions) == 1
        region = report.regions[0]
        assert region.pixel_count == 4
        assert region.worst_drop == pytest.approx(0.1)
        assert region.centroid == (2.5, 2.5)
        assert region.bounding_box == (2, 2, 3, 3)
        assert "FAIL" in report.summary()

    def test_two_separate_regions(self):
        drop = np.zeros((8, 8))
        drop[0, 0] = 0.2
        drop[7, 7] = 0.3
        report = check_ir_drop(drop, limit=0.1)
        assert len(report.regions) == 2
        # sorted by severity
        assert report.regions[0].worst_drop == pytest.approx(0.3)

    def test_diagonal_pixels_are_one_region(self):
        drop = np.zeros((4, 4))
        drop[0, 0] = 0.2
        drop[1, 1] = 0.2  # 8-connected to (0,0)
        report = check_ir_drop(drop, limit=0.1)
        assert len(report.regions) == 1
        assert report.regions[0].pixel_count == 2

    def test_area_fraction(self):
        drop = np.zeros((10, 10))
        drop[:5, :] = 1.0
        report = check_ir_drop(drop, limit=0.5)
        assert report.violation_area_fraction == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            check_ir_drop(np.zeros(5), limit=0.1)
        with pytest.raises(ValueError):
            check_ir_drop(np.zeros((2, 2)), limit=0.0)

    @pytest.mark.parametrize("limit", [float("nan"), float("inf")])
    def test_rejects_limit_not_positive_and_finite(self, limit):
        with pytest.raises(ValueError, match="positive and finite"):
            check_ir_drop(np.zeros((2, 2)), limit=limit)

    def test_rejects_non_finite_pixels(self):
        drop = np.zeros((4, 4))
        drop[1, 2] = np.nan
        drop[3, 3] = np.inf
        with pytest.raises(ValueError, match="2 non-finite pixel"):
            check_ir_drop(drop, limit=0.1)

    def test_all_nan_map_does_not_pass(self):
        with pytest.raises(ValueError, match="16 non-finite pixel"):
            check_ir_drop(np.full((4, 4), np.nan), limit=0.1)

    def test_on_real_pipeline_output(self, fake_sample):
        """Golden labels from the generator produce a sensible report."""
        limit = 0.5 * fake_sample.label.max()
        report = check_ir_drop(fake_sample.label, limit=limit)
        assert not report.passed
        assert report.worst_drop == pytest.approx(fake_sample.label.max())
        assert report.regions[0].worst_drop == report.worst_drop
