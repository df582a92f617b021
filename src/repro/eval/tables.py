"""Machine-readable export of experiment results (CSV).

The text tables in :mod:`repro.eval.report` are for humans; CI pipelines
and notebooks want structured records.  These helpers serialise the same
result objects losslessly.
"""

from __future__ import annotations

import csv
import os

from repro.train.metrics import Metrics

_FIELDS = ("method", "mae", "f1", "mirde", "runtime_seconds")


def metrics_to_records(rows: dict[str, Metrics]) -> list[dict]:
    """Flatten ``{method: Metrics}`` into a list of plain dict records."""
    return [
        {
            "method": name,
            "mae": metrics.mae,
            "f1": metrics.f1,
            "mirde": metrics.mirde,
            "runtime_seconds": metrics.runtime_seconds,
        }
        for name, metrics in rows.items()
    ]


def save_metrics_csv(
    rows: dict[str, Metrics], path: str | os.PathLike[str]
) -> None:
    """Write a Table-I-style result set as CSV."""
    records = metrics_to_records(rows)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=_FIELDS)
        writer.writeheader()
        writer.writerows(records)
