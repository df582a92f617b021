"""Evaluation harness and report rendering for the paper's tables/figures."""

from repro.eval.evaluate import (
    evaluate_rough_solutions,
    evaluate_trainer,
    train_and_evaluate,
)
from repro.eval.report import ascii_map, format_metrics_table, format_sweep_table
from repro.eval.signoff import SignoffReport, ViolationRegion, check_ir_drop
from repro.eval.tables import save_metrics_csv, save_metrics_json

__all__ = [
    "SignoffReport",
    "ViolationRegion",
    "ascii_map",
    "check_ir_drop",
    "evaluate_rough_solutions",
    "evaluate_trainer",
    "format_metrics_table",
    "format_sweep_table",
    "save_metrics_csv",
    "save_metrics_json",
    "train_and_evaluate",
]

