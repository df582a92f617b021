"""Fig. 7 — accuracy/efficiency trade-off vs PowerRush.

Sweeps the AMG-PCG iteration budget 1..10 and compares the pure numerical
result (PowerRush) against the fusion pipeline at the same budget.
Expected shapes from the paper:

- IR-Fusion beats PowerRush at every iteration count on MAE and F1;
- IR-Fusion reaches PowerRush's 10-iteration MAE within ~2 iterations;
- IR-Fusion attains F1 levels PowerRush only approaches at high budgets.
"""

from __future__ import annotations

from common import bench_config, save_artifact
from repro.core.experiment import run_tradeoff_study
from repro.eval.report import format_sweep_table

ITERATIONS = list(range(1, 11))


def test_fig7_tradeoff(capsys):
    result = run_tradeoff_study(bench_config(), iterations=ITERATIONS)
    mae_table = format_sweep_table(
        result.iterations,
        {
            "PowerRush": [v * 1e4 for v in result.powerrush_mae],
            "IR-Fusion": [v * 1e4 for v in result.fusion_mae],
        },
        title="Fig. 7 (top): MAE (1e-4 V) vs solver iterations",
    )
    f1_table = format_sweep_table(
        result.iterations,
        {
            "PowerRush": result.powerrush_f1,
            "IR-Fusion": result.fusion_f1,
        },
        title="Fig. 7 (bottom): F1 vs solver iterations",
    )
    equivalent = result.equivalent_powerrush_iterations(at=2)
    caption = (
        f"\nIR-Fusion at 2 iterations matches PowerRush at "
        f"{equivalent if equivalent is not None else '>10'} iteration(s)."
    )
    text = mae_table + "\n\n" + f1_table + caption
    save_artifact("fig7_tradeoff.txt", text)
    with capsys.disabled():
        print("\n" + text)

    # Shape assertions.  Our small systems let AMG-PCG converge inside the
    # 10-iteration window (the paper's industrial systems do not), so the
    # reproducible shapes are the *pre-convergence* ones; EXPERIMENTS.md
    # discusses the difference.
    # (1) PowerRush improves monotonically-ish with iterations.
    assert result.powerrush_mae[-1] < result.powerrush_mae[0]
    # (2) In the rough regime (1-2 iterations) fusion is dramatically
    #     better than the pure solver.
    assert result.fusion_mae[0] < 0.5 * result.powerrush_mae[0]
    assert result.fusion_mae[1] < result.powerrush_mae[1]
    # (3) Fusion's cheap budgets are worth several pure-solver iterations.
    one_shot = result.equivalent_powerrush_iterations(at=1)
    assert one_shot is None or one_shot >= 3
    # (4) Fusion never *degrades* as the solver budget grows (it plateaus
    #     at its accuracy floor instead of diverging).
    assert max(result.fusion_mae[2:]) <= 2.5 * min(result.fusion_mae)
    # (5) Fusion's F1 in the rough regime far exceeds PowerRush's: the
    #     solver "may partially overlook the patterns associated with
    #     hotspots".
    assert min(result.fusion_f1[:3]) > max(result.powerrush_f1[:3]) + 0.3
