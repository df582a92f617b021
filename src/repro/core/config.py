"""The single configuration object for the whole IR-Fusion flow.

One :class:`FusionConfig` fixes the dataset, the solver budget, the
feature families, the model size and the training regime, so experiments
(and their ablations) differ in exactly one declared knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.features.fusion import FeatureConfig
from repro.train.trainer import TrainConfig


@dataclass(frozen=True)
class FusionConfig:
    """Everything the pipeline needs.

    Dataset
    -------
    pixels:
        Die edge in pixels (paper: 256; benches default far smaller so CPU
        training finishes in minutes).
    num_fake / num_real_train / num_real_test:
        Suite composition (contest: 100 fake + 10 real train, 10 real test).
    data_seed:
        Seed for design generation.

    Numerical stage
    ---------------
    solver_iterations:
        AMG-PCG iteration cap for the rough solutions (paper sweet spot: 2).
    solver_preset:
        PowerRush preset for the rough stage: ``"fast"`` (cheap V-cycle,
        the framework's rough-iteration regime) or ``"quality"``.
    solver_iteration_mix:
        When set, the *training* set contains one sample per design per
        listed budget, teaching the model how much to trust the numerical
        channels at any solver effort (required for the Fig. 7 sweep,
        where evaluation budgets vary).  Test samples always use
        ``solver_iterations``.

    Features
    --------
    features:
        Feature-family switches (numerical / hierarchical / normalise).

    Model
    -----
    model_name, base_channels, depth, model_seed:
        Architecture selection and size.

    Training
    --------
    train:
        Loop controls (epochs, lr, batch size, curriculum flag, ...) —
        see :class:`repro.train.trainer.TrainConfig`.  The network
        trains and infers in float32; the solver, features, labels and
        the residual add ``rough + correction`` stay float64.  Training
        runs in this process; ``jobs`` below never changes the trained
        weights.
    augment:
        Apply the 4x rotation augmentation to the training set.
    oversample_fake / oversample_real:
        Replication factors (contest: 2 / 5); 1 disables.

    Execution
    ---------
    jobs:
        Worker processes for batchable stages (dataset feature extraction,
        batch analysis); 1 keeps everything serial in-process.  Results
        are identical at any value.
    """

    pixels: int = 32
    num_fake: int = 8
    num_real_train: int = 2
    num_real_test: int = 2
    data_seed: int = 7
    solver_iterations: int = 2
    solver_preset: str = "fast"
    solver_iteration_mix: tuple[int, ...] | None = None
    features: FeatureConfig = field(default_factory=FeatureConfig)
    model_name: str = "ir_fusion"
    base_channels: int = 6
    depth: int = 3
    model_seed: int = 0
    model_kwargs: dict = field(default_factory=dict)
    train: TrainConfig = field(default_factory=TrainConfig)
    augment: bool = True
    oversample_fake: int = 2
    oversample_real: int = 5
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.pixels % (2**self.depth) != 0:
            raise ValueError(
                f"pixels={self.pixels} must be divisible by 2**depth="
                f"{2 ** self.depth}"
            )
        if self.num_fake + self.num_real_train < 1:
            raise ValueError("training suite is empty")
        if self.solver_iterations < 0:
            raise ValueError("solver_iterations must be >= 0")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    def with_(self, **overrides) -> "FusionConfig":
        """A copy with the given fields replaced (ablation helper)."""
        return replace(self, **overrides)

    @classmethod
    def from_model_meta(cls, meta: dict, **overrides) -> "FusionConfig":
        """The analysis config recorded in a checkpoint's meta sidecar.

        ``train`` writes ``<model>.npz.json`` next to every checkpoint
        with the knobs inference must reproduce (pixels, channel widths,
        depth, solver budget).  Both the CLI ``analyze`` path and the
        serving daemon's model registry rebuild their pipeline config
        from it through this one constructor, so the two can never
        drift.  *overrides* replace any field after the meta is applied
        (e.g. ``jobs=4``).
        """
        try:
            recorded = meta["config"]
            fields = {
                "pixels": recorded["pixels"],
                "base_channels": recorded["base_channels"],
                "depth": recorded["depth"],
                "solver_iterations": recorded["solver_iterations"],
            }
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"model meta is missing the recorded config field {exc}; "
                "was the sidecar written by `repro train`?"
            ) from exc
        fields.update(overrides)
        return cls(**fields)
