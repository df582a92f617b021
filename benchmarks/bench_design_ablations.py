"""Ablations of this reproduction's own design decisions (DESIGN.md §6).

Not a paper figure: these benches quantify the engineering choices the
reproduction makes on top of the paper's description, so future changes
can be judged against them.

1. **Flat initial guess** — rough-solution quality at 2 iterations from
   ``v = vdd`` versus ``x0 = 0``.
2. **Zero-initialised head** — short-budget training with the fusion
   starting point versus a randomly initialised head.
3. **Numerical-channel scaling** — well-conditioned (scale = label
   scale) versus badly scaled numerical inputs.
"""

from __future__ import annotations

import numpy as np

from common import bench_config, save_artifact
from repro.core.pipeline import IRFusionPipeline
from repro.eval.evaluate import evaluate_trainer
from repro.features.fusion import FeatureConfig
from repro.mna.stamper import build_reduced_system
from repro.solvers.amg_pcg import AMGPCGSolver
from repro.solvers.base import SolverOptions
from repro.solvers.direct import DirectSolver
from repro.solvers.powerrush import PRESETS
from repro.train.trainer import TrainConfig


def _small_config(**overrides):
    return bench_config(
        num_fake=8,
        num_real_train=3,
        num_real_test=2,
        train=TrainConfig(epochs=8, batch_size=8, use_curriculum=True),
        **overrides,
    )


def test_flat_start_ablation(capsys):
    """Rough MAE at 2 iterations: flat v=vdd start vs zero start."""

    config = bench_config()
    pipeline = IRFusionPipeline(config)
    designs, _ = pipeline.generate_designs()
    amg_options, cycle_options = PRESETS["fast"]
    rows = []
    for design in designs[:4]:
        system = build_reduced_system(design.grid)
        golden = DirectSolver().solve(system.matrix, system.rhs).x
        vdd = design.spec.supply_voltage
        solver = AMGPCGSolver(
            SolverOptions(max_iterations=2, tol=1e-16),
            amg_options,
            cycle_options,
        )
        zero = solver.solve(system.matrix, system.rhs).x
        flat = solver.solve(
            system.matrix, system.rhs, x0=np.full(system.size, vdd)
        ).x
        rows.append(
            (
                design.name,
                float(np.abs(zero - golden).mean()),
                float(np.abs(flat - golden).mean()),
            )
        )
    lines = [
        "Design ablation 1: initial guess for the rough solve (2 iters)",
        f"{'design':<12s} {'zero-start MAE':>15s} {'flat-start MAE':>15s}",
    ]
    for name, zero_mae, flat_mae in rows:
        lines.append(f"{name:<12s} {zero_mae * 1e4:>13.1f}e-4 {flat_mae * 1e4:>13.1f}e-4")
    text = "\n".join(lines)
    save_artifact("design_ablation_flat_start.txt", text)
    with capsys.disabled():
        print("\n" + text)
    # the flat start must win on every design, usually by a lot
    assert all(flat < zero for _, zero, flat in rows)


def test_zero_init_head_ablation(capsys):
    """Short-budget training: fusion starting point vs random head."""

    results = {}
    for variant in ("zero_head", "random_head"):
        config = _small_config()
        pipeline = IRFusionPipeline(config)
        train_raw, test = pipeline.build_datasets()
        prepared = pipeline.prepare_training_set(train_raw)
        model = pipeline.build_model(in_channels=len(prepared.channels))
        if variant == "random_head":
            rng = np.random.default_rng(123)
            model.head.weight.data[:] = 0.05 * rng.standard_normal(
                model.head.weight.data.shape
            )
        from repro.models.registry import preferred_loss
        from repro.train.trainer import Trainer

        trainer = Trainer(
            model, loss=preferred_loss("ir_fusion"), config=config.train
        )
        trainer.fit(prepared)
        _, averaged = evaluate_trainer(trainer, test)
        results[variant] = averaged
    lines = [
        "Design ablation 2: regression-head initialisation (8 epochs)",
        f"{'variant':<14s} {'MAE(1e-4V)':>11s} {'F1':>6s}",
    ]
    for variant, metrics in results.items():
        lines.append(
            f"{variant:<14s} {metrics.mae * 1e4:>11.2f} {metrics.f1:>6.3f}"
        )
    text = "\n".join(lines)
    save_artifact("design_ablation_zero_head.txt", text)
    with capsys.disabled():
        print("\n" + text)
    # starting at the numerical solution should not hurt (usually helps)
    assert results["zero_head"].mae <= results["random_head"].mae * 1.25


def test_numerical_scale_ablation(capsys):
    """Numerical channels at label scale vs badly conditioned."""

    results = {}
    for label, scale in (("matched", 20.0), ("tiny", 0.01)):
        config = _small_config().with_(
            features=FeatureConfig(numerical_scale=scale)
        )
        pipeline = IRFusionPipeline(config)
        pipeline.train()
        _, test = pipeline.build_datasets()
        _, averaged = evaluate_trainer(pipeline.trainer, test)
        results[label] = averaged
    lines = [
        "Design ablation 3: numerical channel scaling (8 epochs)",
        f"{'variant':<10s} {'MAE(1e-4V)':>11s} {'F1':>6s}",
    ]
    for label, metrics in results.items():
        lines.append(
            f"{label:<10s} {metrics.mae * 1e4:>11.2f} {metrics.f1:>6.3f}"
        )
    text = "\n".join(lines)
    save_artifact("design_ablation_numerical_scale.txt", text)
    with capsys.disabled():
        print("\n" + text)
    # note: residual learning keeps even badly scaled inputs usable; the
    # matched scale should not be (meaningfully) worse
    assert results["matched"].mae <= results["tiny"].mae * 1.25
