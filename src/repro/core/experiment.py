"""Experiment runners behind the paper's tables and figures.

- :func:`run_main_results`    — Table I (all methods, four metrics).
- :func:`run_tradeoff_study`  — Fig. 7 (IR-Fusion vs PowerRush over 1-10
  solver iterations).
- :func:`run_ablation_study`  — Fig. 8 (remove one technique at a time).

All runners share one design suite per config so rows are comparable, and
report paper-convention metrics (volt errors scale to 1e-4 V in the
rendered tables).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from repro.core.config import FusionConfig
from repro.core.pipeline import IRFusionPipeline
from repro.data.dataset import IRDropDataset
from repro.data.synthetic import Design
from repro.eval.evaluate import evaluate_rough_solutions, evaluate_trainer
from repro.features.fusion import FeatureConfig
from repro.models.registry import DISPLAY_NAMES, MODEL_REGISTRY
from repro.train.metrics import Metrics

_FLAT_FEATURES = FeatureConfig(use_numerical=False, hierarchical=False)


def _runtime_per_design(
    config: FusionConfig, designs: list[Design], pipeline: IRFusionPipeline
) -> float:
    """Mean end-to-end analysis seconds over *designs* (solver+features+model).

    Each design's grid is analysed as a clone: the dataset build just
    filled the memo of the original, and Table I reports a cold analysis.
    """
    times = []
    for design in designs:
        result = pipeline.analyze_grid(
            design.grid.clone(), design.geometry, design.spec.supply_voltage
        )
        times.append(result.total_seconds)
    return float(np.mean(times))


def run_main_results(
    config: FusionConfig | None = None,
    model_names: list[str] | None = None,
) -> dict[str, Metrics]:
    """Train every method on the shared suite and score the held-out reals.

    Following the paper's setup, all methods train on the augmented and
    oversampled data; the pure-ML baselines consume the flat
    current / effective-distance / density features, while IR-Fusion
    consumes the hierarchical numerical-structural stack (its
    contribution).  Runtime is the mean end-to-end per-design analysis
    time, so IR-Fusion pays for its solver stage just as in Table I.
    """
    config = config or FusionConfig()
    model_names = model_names or list(MODEL_REGISTRY)
    results: dict[str, Metrics] = {}
    for name in model_names:
        features = (
            config.features if name == "ir_fusion" else _FLAT_FEATURES
        )
        train_cfg = replace(
            config.train, use_curriculum=(name == "ir_fusion")
        )
        model_config = config.with_(
            model_name=name, features=features, train=train_cfg
        )
        pipeline = IRFusionPipeline(model_config)
        pipeline.train()
        _, test_set = pipeline.build_datasets()
        _, averaged = evaluate_trainer(pipeline.trainer, test_set)
        _, test_designs = pipeline.generate_designs()
        runtime = _runtime_per_design(model_config, test_designs, pipeline)
        results[DISPLAY_NAMES.get(name, name)] = Metrics(
            mae=averaged.mae,
            f1=averaged.f1,
            mirde=averaged.mirde,
            runtime_seconds=runtime,
        )
    return results


@dataclass
class TradeoffResult:
    """Fig. 7 data: metric series over solver iteration counts."""

    iterations: list[int]
    powerrush_mae: list[float]
    powerrush_f1: list[float]
    fusion_mae: list[float]
    fusion_f1: list[float]

    def fusion_wins_mae_at(self) -> int | None:
        """Smallest iteration count where fusion beats PowerRush's best MAE."""
        best_powerrush = min(self.powerrush_mae)
        for iteration, value in zip(self.iterations, self.fusion_mae):
            if value <= best_powerrush:
                return iteration
        return None

    def equivalent_powerrush_iterations(self, at: int) -> int | None:
        """How many pure-solver iterations match fusion's accuracy at *at*.

        The paper's headline: IR-Fusion at 2 iterations matches PowerRush
        at 10.  Returns the smallest sweep budget whose PowerRush MAE is
        at or below fusion's MAE at budget *at* (``None`` if PowerRush
        never catches up within the sweep).
        """
        fusion_value = self.fusion_mae[self.iterations.index(at)]
        for iteration, value in zip(self.iterations, self.powerrush_mae):
            if value <= fusion_value:
                return iteration
        return None


def run_tradeoff_study(
    config: FusionConfig | None = None,
    iterations: list[int] | None = None,
) -> TradeoffResult:
    """IR-Fusion vs PowerRush across solver iteration budgets (Fig. 7).

    The fusion model is trained once on a mixed-budget training set (so it
    learns how far to trust the numerical channels at any solver effort);
    at evaluation time its features are rebuilt with each iteration cap,
    exactly as a deployed flow would trade solver effort for accuracy.
    """
    config = config or FusionConfig()
    iterations = iterations or list(range(1, 11))
    if config.solver_iteration_mix is None:
        # teach the model every budget regime it will be evaluated at
        config = config.with_(solver_iteration_mix=(1, 2, 4, 8))
    pipeline = IRFusionPipeline(config)
    pipeline.train()
    _, test_designs = pipeline.generate_designs()

    result = TradeoffResult([], [], [], [], [])
    for budget in iterations:
        test_set = IRDropDataset.from_designs(
            test_designs,
            config.features,
            solver_iterations=budget,
            solver_preset=config.solver_preset,
        )
        rough = evaluate_rough_solutions(test_set)
        _, fused = evaluate_trainer(pipeline.trainer, test_set)
        result.iterations.append(budget)
        result.powerrush_mae.append(rough.mae)
        result.powerrush_f1.append(rough.f1)
        result.fusion_mae.append(fused.mae)
        result.fusion_f1.append(fused.f1)
    return result


# Fig. 8 variant definitions: label → config transformation.
def _without_numerical(config: FusionConfig) -> FusionConfig:
    return config.with_(features=replace(config.features, use_numerical=False))


def _without_hierarchical(config: FusionConfig) -> FusionConfig:
    return config.with_(features=replace(config.features, hierarchical=False))


def _without_inception(config: FusionConfig) -> FusionConfig:
    return config.with_(model_kwargs={**config.model_kwargs, "use_inception": False})


def _without_cbam(config: FusionConfig) -> FusionConfig:
    return config.with_(model_kwargs={**config.model_kwargs, "use_cbam": False})


def _without_augmentation(config: FusionConfig) -> FusionConfig:
    return config.with_(augment=False)


def _without_curriculum(config: FusionConfig) -> FusionConfig:
    return config.with_(train=replace(config.train, use_curriculum=False))


ABLATION_VARIANTS = MappingProxyType({
    "w/o Num. Solu.": _without_numerical,
    "w/o Hier. Feat.": _without_hierarchical,
    "w/o Inception": _without_inception,
    "w/o CBAM": _without_cbam,
    "w/o Data Aug.": _without_augmentation,
    "w/o Curr. Lear.": _without_curriculum,
})


@dataclass
class AblationResult:
    """Fig. 8 data: full-model metrics plus per-variant metrics/deltas."""

    full: Metrics
    variants: dict[str, Metrics]

    def mae_increase_percent(self, variant: str) -> float:
        """Red bars of Fig. 8: MAE growth when the technique is removed."""
        if self.full.mae == 0:
            return float("nan")
        return 100.0 * (self.variants[variant].mae - self.full.mae) / self.full.mae

    def f1_decrease_percent(self, variant: str) -> float:
        """Blue bars of Fig. 8: F1 loss when the technique is removed."""
        if self.full.f1 == 0:
            return float("nan")
        return 100.0 * (self.full.f1 - self.variants[variant].f1) / self.full.f1


def _train_and_score(config: FusionConfig) -> Metrics:
    pipeline = IRFusionPipeline(config)
    pipeline.train()
    _, test_set = pipeline.build_datasets()
    _, averaged = evaluate_trainer(pipeline.trainer, test_set)
    return averaged


def run_ablation_study(
    config: FusionConfig | None = None,
    variants: list[str] | None = None,
) -> AblationResult:
    """Retrain IR-Fusion with each technique removed (Fig. 8)."""
    config = config or FusionConfig()
    base_train = replace(config.train, use_curriculum=True)
    config = config.with_(model_name="ir_fusion", train=base_train)
    names = variants or list(ABLATION_VARIANTS)
    full = _train_and_score(config)
    results: dict[str, Metrics] = {}
    for name in names:
        try:
            transform = ABLATION_VARIANTS[name]
        except KeyError:
            raise ValueError(
                f"unknown ablation {name!r}; choose from "
                f"{sorted(ABLATION_VARIANTS)}"
            ) from None
        results[name] = _train_and_score(transform(config))
    return AblationResult(full=full, variants=results)
