"""Unit tests for the evaluation harness and report rendering."""

import numpy as np
import pytest

from repro.eval.evaluate import evaluate_rough_solutions, evaluate_trainer
from repro.eval.report import (
    ascii_map,
    format_metrics_table,
    format_sweep_table,
    side_by_side,
)
from repro.data.dataset import IRDropDataset, build_sample
from repro.features.fusion import FeatureConfig
from repro.models import IRFusionNet
from repro.train.metrics import Metrics
from repro.train.trainer import TrainConfig, Trainer


@pytest.fixture()
def trainer(tiny_dataset):
    model = IRFusionNet(
        in_channels=len(tiny_dataset.channels), base_channels=4, depth=2
    )
    return Trainer(model, config=TrainConfig(epochs=1, batch_size=2))


class TestEvaluate:
    def test_per_design_and_average(self, trainer, tiny_dataset):
        per_design, averaged = evaluate_trainer(trainer, tiny_dataset)
        assert len(per_design) == 2
        assert averaged.mae == pytest.approx(
            np.mean([m.mae for m in per_design])
        )

    def test_untrained_fusion_equals_rough(self, trainer, tiny_dataset):
        """Zero-init + residual: model metrics == rough-solver metrics."""
        _, averaged = evaluate_trainer(trainer, tiny_dataset)
        rough = evaluate_rough_solutions(tiny_dataset)
        assert averaged.mae == pytest.approx(rough.mae, abs=1e-12)
        assert averaged.f1 == pytest.approx(rough.f1)

    def test_rough_requires_numerical_samples(self, fake_design):
        sample = build_sample(fake_design, FeatureConfig(use_numerical=False))
        with pytest.raises(ValueError):
            evaluate_rough_solutions(IRDropDataset([sample]))


class TestReport:
    def test_metrics_table_contains_rows(self):
        table = format_metrics_table(
            {
                "IR-Fusion (Ours)": Metrics(0.72e-4, 0.71, 3.05e-4, 6.98),
                "MAUnet": Metrics(1.06e-4, 0.62, 4.38e-4, 2.31),
            }
        )
        assert "IR-Fusion (Ours)" in table
        assert "0.72" in table
        assert "MAE" in table

    def test_metrics_table_empty_rejected(self):
        with pytest.raises(ValueError):
            format_metrics_table({})

    def test_sweep_table(self):
        table = format_sweep_table(
            [1, 2], {"powerrush": [1.0, 0.5], "fusion": [0.4, 0.3]}
        )
        assert "powerrush" in table and "fusion" in table
        assert table.count("\n") >= 4

    def test_sweep_table_length_mismatch(self):
        with pytest.raises(ValueError):
            format_sweep_table([1, 2], {"a": [1.0]})

    def test_ascii_map_renders(self, rng):
        art = ascii_map(rng.random((16, 16)), width=16)
        lines = art.splitlines()
        assert len(lines) >= 4
        assert all(len(line) == 16 for line in lines)

    def test_ascii_map_flat_input(self):
        art = ascii_map(np.zeros((8, 8)))
        assert set("".join(art.splitlines())) == {" "}

    def test_ascii_map_rejects_1d(self):
        with pytest.raises(ValueError):
            ascii_map(np.zeros(5))

    def test_side_by_side(self):
        merged = side_by_side(["ab\ncd", "ef\ngh"], ["L", "R"])
        lines = merged.splitlines()
        assert len(lines) == 3
        assert "ab" in lines[1] and "ef" in lines[1]

    def test_side_by_side_label_mismatch(self):
        with pytest.raises(ValueError):
            side_by_side(["x"], ["a", "b"])
