"""Fig. 8 — ablation study.

Retrains IR-Fusion with each technique removed and reports the MAE
increase (red bars) and F1 decrease (blue bars) relative to the full
model.  Expected shape: removing the numerical solution hurts MAE by far
the most; every removal degrades at least one metric.
"""

from __future__ import annotations

from common import bench_config, save_artifact
from repro.core.experiment import ABLATION_VARIANTS, run_ablation_study


def test_fig8_ablation(capsys):
    result = run_ablation_study(bench_config())
    header = (
        f"{'Variant':<18s} {'MAE(1e-4V)':>11s} {'F1':>6s} "
        f"{'dMAE%':>8s} {'dF1%':>8s}"
    )
    lines = [
        "Fig. 8  Ablation study (positive dMAE% / dF1% = worse than full)",
        "-" * len(header),
        header,
        "-" * len(header),
        f"{'full IR-Fusion':<18s} {result.full.mae * 1e4:>11.2f} "
        f"{result.full.f1:>6.3f} {'--':>8s} {'--':>8s}",
    ]
    for name in ABLATION_VARIANTS:
        metrics = result.variants[name]
        lines.append(
            f"{name:<18s} {metrics.mae * 1e4:>11.2f} {metrics.f1:>6.3f} "
            f"{result.mae_increase_percent(name):>8.1f} "
            f"{result.f1_decrease_percent(name):>8.1f}"
        )
    text = "\n".join(lines)
    save_artifact("fig8_ablation.txt", text)
    with capsys.disabled():
        print("\n" + text)

    # Shape assertions.
    # (1) Removing the numerical solution is the most damaging for MAE.
    numerical_hit = result.mae_increase_percent("w/o Num. Solu.")
    assert numerical_hit == max(
        result.mae_increase_percent(name) for name in ABLATION_VARIANTS
    )
    assert numerical_hit > 0
    # (2) No variant improves on both metrics simultaneously.
    for name in ABLATION_VARIANTS:
        assert (
            result.mae_increase_percent(name) > -5.0
            or result.f1_decrease_percent(name) > -5.0
        )
