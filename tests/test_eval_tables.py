"""Tests for machine-readable result export."""

import csv

import pytest

from repro.eval.tables import metrics_to_records, save_metrics_csv
from repro.train.metrics import Metrics


@pytest.fixture()
def rows():
    return {
        "IR-Fusion (Ours)": Metrics(0.72e-4, 0.71, 3.05e-4, 6.98),
        "MAUnet": Metrics(1.06e-4, 0.62, 4.38e-4, 2.31),
    }


class TestMetricsExport:
    def test_records_shape(self, rows):
        records = metrics_to_records(rows)
        assert len(records) == 2
        assert records[0]["method"] == "IR-Fusion (Ours)"
        assert records[0]["f1"] == 0.71

    def test_csv_roundtrip(self, tmp_path, rows):
        path = tmp_path / "t1.csv"
        save_metrics_csv(rows, path)
        with open(path, newline="", encoding="utf-8") as handle:
            loaded = {record["method"]: record for record in csv.DictReader(handle)}
        assert set(loaded) == set(rows)
        for name, metrics in rows.items():
            assert float(loaded[name]["mae"]) == metrics.mae
            assert float(loaded[name]["f1"]) == metrics.f1
            assert float(loaded[name]["mirde"]) == metrics.mirde
            assert float(loaded[name]["runtime_seconds"]) == metrics.runtime_seconds
