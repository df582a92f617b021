"""The end-to-end IR-Fusion pipeline (Fig. 2).

``spice deck → PowerGrid → rough AMG-PCG solution → hierarchical
numerical-structural features → Inception Attention U-Net → IR-drop map``

:class:`IRFusionPipeline` owns dataset generation, training-set
preparation (augmentation, oversampling, curriculum) and inference on new
designs, all driven by one :class:`~repro.core.config.FusionConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import FusionConfig
from repro.obs import span
from repro.obs.registry import (
    ANALYZE,
    FEATURES,
    GRID_BUILD,
    INFERENCE,
    MODEL_BUILD,
    MODEL_LOAD,
    PARSE,
    SOLVE,
)
from repro.data.augment import augment_dataset, oversample
from repro.diagnostics import RunDiagnostics
from repro.data.dataset import DesignSample, IRDropDataset
from repro.data.synthetic import Design, generate_benchmark_suite
from repro.features.fusion import assemble_feature_stack
from repro.features.maps import FeatureStack
from repro.grid.geometry import GridGeometry, infer_geometry
from repro.grid.netlist import PowerGrid
from repro.models.registry import create_model, preferred_loss
from repro.nn.module import Module
from repro.nn.serialize import load_state, save_state
from repro.solvers.powerrush import PowerRushSimulator, SimulationReport
from repro.spice.parser import parse_spice, parse_spice_file
from repro.train.trainer import Trainer, TrainHistory


@dataclass
class AnalysisResult:
    """Output of analysing one design end-to-end.

    Attributes
    ----------
    predicted_drop:
        The ML-refined bottom-layer IR-drop image (volts).
    rough_drop:
        The numerical rough solution's bottom-layer image (volts), i.e.
        what the solver alone reports at the configured iteration budget;
        ``None`` when the numerical stage is ablated.
    report:
        The rough solver's full :class:`SimulationReport` (``None`` when
        ablated).  ``None`` on results from
        :class:`~repro.core.batch.BatchAnalyzer` and the worker pool: the
        caller has the deck, so analyse it in-process to get the grid
        and reduced system.
    features:
        The assembled input stack; ``None`` on batch and pool results,
        like ``report``.
    solver_seconds, feature_seconds, model_seconds:
        Wall-clock breakdown of the three pipeline stages — the durations
        of the ``solve``/``features``/``inference`` spans the run emitted
        (see :mod:`repro.obs`), so they agree with any exported trace.
    diagnostics:
        Validation issues, repairs and solver fallbacks recorded while
        producing this result (an empty record when nominal; shares the
        report's record when the numerical stage ran).
    """

    predicted_drop: np.ndarray
    rough_drop: np.ndarray | None
    report: SimulationReport | None
    features: FeatureStack | None
    solver_seconds: float
    feature_seconds: float
    model_seconds: float
    diagnostics: RunDiagnostics = field(default_factory=RunDiagnostics)

    @property
    def total_seconds(self) -> float:
        return self.solver_seconds + self.feature_seconds + self.model_seconds

    def worst_predicted_drop(self) -> float:
        return float(self.predicted_drop.max())

    def signoff(self, limit: float):
        """Run the signoff check on the predicted map.

        Returns a :class:`repro.eval.signoff.SignoffReport`.
        """
        from repro.eval.signoff import check_ir_drop

        return check_ir_drop(self.predicted_drop, limit)


def _probe_forward(model: Module, in_channels: int, name: str) -> None:
    """Run a freshly built *model* once on a zero input to check its wiring.

    The input is ``(1, in_channels, 2**model.depth, 2**model.depth)``, the
    smallest the model's pools accept, so a channel, concat or pyramid
    wiring mistake fails at build time, in the kernels that will actually
    run, with the path of the module whose forward raised.  The pass runs
    in eval mode, so weights and BatchNorm running statistics stay put,
    and every module's ``training`` flag is restored; only the layers'
    forward caches and scratch buffers keep the probe's small arrays.
    """
    size = 2**model.depth
    shape = (1, in_channels, size, size)
    named = model.named_modules(name)
    modes = [(module, module.training) for _, module in named]
    model.eval()
    try:
        model(np.zeros(shape, dtype=np.float32))
    except Exception as exc:
        raise ValueError(
            f"{name}: zero {shape} probe forward failed in "
            f"{_raising_module(named, exc)}: {exc}"
        ) from exc
    finally:
        for module, mode in modes:
            module.training = mode


def _raising_module(named: list[tuple[str, Module]], exc: Exception) -> str:
    """Path of the innermost module whose method is on *exc*'s traceback."""
    paths = {id(module): path for path, module in named}
    where = named[0][0]
    frame = exc.__traceback__
    while frame is not None:
        where = paths.get(id(frame.tb_frame.f_locals.get("self")), where)
        frame = frame.tb_next
    return where


class IRFusionPipeline:
    """Train-and-analyze orchestrator for one configuration."""

    def __init__(self, config: FusionConfig | None = None) -> None:
        self.config = config or FusionConfig()
        self._designs: tuple[list[Design], list[Design]] | None = None
        self._datasets: tuple[IRDropDataset, IRDropDataset] | None = None
        self.model: Module | None = None
        self.trainer: Trainer | None = None
        self._trained_channels: int | None = None

    # -- dataset ----------------------------------------------------------------

    def generate_designs(self) -> tuple[list[Design], list[Design]]:
        """(train designs, held-out real test designs), cached."""
        if self._designs is None:
            cfg = self.config
            suite = generate_benchmark_suite(
                num_fake=cfg.num_fake,
                num_real=cfg.num_real_train + cfg.num_real_test,
                pixels=cfg.pixels,
                seed=cfg.data_seed,
            )
            fakes = [d for d in suite if d.is_fake]
            reals = [d for d in suite if not d.is_fake]
            train = fakes + reals[: cfg.num_real_train]
            test = reals[cfg.num_real_train :]
            self._designs = (train, test)
        return self._designs

    def build_datasets(self) -> tuple[IRDropDataset, IRDropDataset]:
        """(raw train set, test set) of samples, cached."""
        if self._datasets is None:
            train_designs, test_designs = self.generate_designs()
            cfg = self.config
            budgets = cfg.solver_iteration_mix or (cfg.solver_iterations,)
            train_samples = []
            for budget in budgets:
                train_samples.extend(
                    IRDropDataset.from_designs(
                        train_designs, cfg.features, budget, cfg.solver_preset,
                        jobs=cfg.jobs,
                    ).samples
                )
            train = IRDropDataset(train_samples)
            test = IRDropDataset.from_designs(
                test_designs, cfg.features, cfg.solver_iterations,
                cfg.solver_preset, jobs=cfg.jobs,
            )
            self._datasets = (train, test)
        return self._datasets

    def prepare_training_set(self, train: IRDropDataset) -> IRDropDataset:
        """Apply rotation augmentation and family oversampling."""
        cfg = self.config
        prepared = augment_dataset(train) if cfg.augment else train
        if cfg.oversample_fake > 1 or cfg.oversample_real > 1:
            prepared = oversample(
                prepared, cfg.oversample_fake, cfg.oversample_real
            )
        return prepared

    # -- training ----------------------------------------------------------------

    def build_model(self, in_channels: int) -> Module:
        cfg = self.config
        with span(MODEL_BUILD, model=cfg.model_name):
            model = create_model(
                cfg.model_name,
                in_channels=in_channels,
                base_channels=cfg.base_channels,
                depth=cfg.depth,
                seed=cfg.model_seed,
                **cfg.model_kwargs,
            )
            _probe_forward(model, in_channels, cfg.model_name)
        return model

    def train(self) -> TrainHistory:
        """Build datasets and fit the configured model."""
        train_raw, _ = self.build_datasets()
        prepared = self.prepare_training_set(train_raw)
        self.model = self.build_model(in_channels=len(prepared.channels))
        self._trained_channels = len(prepared.channels)
        loss = preferred_loss(self.config.model_name)
        self.trainer = Trainer(self.model, loss=loss, config=self.config.train)
        return self.trainer.fit(prepared)

    # -- inference ----------------------------------------------------------------

    def _require_trainer(self) -> Trainer:
        if self.trainer is None:
            raise RuntimeError("pipeline is untrained; call train() first")
        return self.trainer

    def predict_sample(self, sample: DesignSample) -> np.ndarray:
        """IR-drop map (volts) for a prebuilt sample."""
        return self._require_trainer().predict([sample])[0]

    def analyze_file(self, path) -> AnalysisResult:
        """Analyse a SPICE deck from disk."""
        with span(PARSE, source=str(path)):
            netlist = parse_spice_file(path)
        return self.analyze_netlist(netlist)

    def analyze_text(self, text: str) -> AnalysisResult:
        """Analyse a SPICE deck held in a string."""
        with span(PARSE, source="<text>"):
            netlist = parse_spice(text)
        return self.analyze_netlist(netlist)

    def analyze_netlist(self, netlist) -> AnalysisResult:
        """Analyse a parsed deck (geometry inferred from node names)."""
        with span(GRID_BUILD):
            grid = PowerGrid.from_netlist(netlist)
            geometry = infer_geometry(grid, align_pixels=2**self.config.depth)
        return self.analyze_grid(
            grid, geometry, supply_voltage=netlist.supply_voltage()
        )

    def analyze_design(self, design: Design) -> AnalysisResult:
        """Analyse a generated synthetic design."""
        return self.analyze_grid(
            design.grid, design.geometry, design.spec.supply_voltage
        )

    def analyze_grid(
        self,
        grid: PowerGrid,
        geometry: GridGeometry,
        supply_voltage: float,
    ) -> AnalysisResult:
        """The full fusion flow on an arbitrary power grid.

        Every stage runs under a :mod:`repro.obs` span (``analyze`` →
        ``solve``/``features``/``inference``); the legacy ``*_seconds``
        fields are those spans' durations, so a traced run and the
        summary numbers can never disagree.
        """
        trainer = self._require_trainer()
        cfg = self.config

        report: SimulationReport | None = None
        rough_drop = None
        voltages = None
        solver_seconds = 0.0
        diagnostics = RunDiagnostics()
        with span(ANALYZE) as analyze_span:
            if cfg.features.use_numerical:
                with span(
                    SOLVE, iterations=cfg.solver_iterations
                ) as solve_span:
                    simulator = PowerRushSimulator(
                        max_iterations=cfg.solver_iterations,
                        preset=cfg.solver_preset,
                    )
                    report = simulator.simulate_grid(
                        grid, supply_voltage=supply_voltage
                    )
                solver_seconds = solve_span.duration
                voltages = report.voltages
                rough_drop = report.drop_image(geometry, layer=1)
                diagnostics = report.diagnostics
                # The repaired grid (e.g. ground-tied islands) is what the
                # features must describe, or raster/solver views disagree.
                grid = report.grid

            with span(FEATURES) as feature_span:
                features = assemble_feature_stack(
                    geometry,
                    grid,
                    cfg.features,
                    voltages=voltages,
                    supply_voltage=supply_voltage,
                )
            feature_seconds = feature_span.duration

            if (
                self._trained_channels is not None
                and features.num_channels != self._trained_channels
            ):
                raise ValueError(
                    f"design produces {features.num_channels} feature "
                    f"channels but the model was trained on "
                    f"{self._trained_channels}; the metal-layer count must "
                    "match the training designs"
                )

            with span(INFERENCE) as model_span:
                # Route through the trainer so residual (fusion) prediction
                # logic is applied exactly as during evaluation.
                probe = DesignSample(
                    name="analysis",
                    kind="real",
                    features=features,
                    label=np.zeros(features.shape),
                    rough_label=rough_drop,
                )
                predicted = trainer.predict([probe])[0]
            model_seconds = model_span.duration

        diagnostics.trace = analyze_span.to_dict()
        return AnalysisResult(
            predicted_drop=predicted,
            rough_drop=rough_drop,
            report=report,
            features=features,
            solver_seconds=solver_seconds,
            feature_seconds=feature_seconds,
            model_seconds=model_seconds,
            diagnostics=diagnostics,
        )

    # -- persistence ----------------------------------------------------------------

    @classmethod
    def from_model_file(cls, path, **config_overrides) -> "IRFusionPipeline":
        """A ready-to-analyze pipeline from a ``train`` checkpoint pair.

        *path* is the ``.npz`` weights archive; its ``<path>.json`` meta
        sidecar (written by ``repro train``) supplies the architecture
        and solver config via :meth:`FusionConfig.from_model_meta`.
        *config_overrides* adjust execution knobs (``jobs``) without
        touching the recorded architecture.  This is the single load
        path shared by the CLI ``analyze`` command and the serving
        daemon's model registry.
        """
        import json

        with open(str(path) + ".json", "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        config = FusionConfig.from_model_meta(meta, **config_overrides)
        pipeline = cls(config)
        try:
            in_channels = int(meta["in_channels"])
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"model meta {str(path) + '.json'!r} is missing "
                "'in_channels'; was it written by `repro train`?"
            ) from exc
        pipeline.load_model(path, in_channels=in_channels)
        return pipeline

    def save_model(self, path) -> None:
        """Checkpoint the trained model's weights."""
        if self.model is None:
            raise RuntimeError("no model to save; call train() first")
        save_state(self.model, path)

    def load_model(self, path, in_channels: int) -> None:
        """Restore a checkpoint into a freshly built model."""
        with span(MODEL_LOAD, source=str(path)):
            self.model = self.build_model(in_channels=in_channels)
            load_state(self.model, path)
            self._finish_model_load(in_channels)

    def load_model_state(self, state, in_channels: int) -> None:
        """Restore an in-memory state dict into a freshly built model.

        Same contract as :meth:`load_model` but without touching disk —
        the path pool workers use to rebuild a shipped pipeline from its
        pickled state dict.
        """
        self.model = self.build_model(in_channels=in_channels)
        self.model.load_state_dict(state)
        self._finish_model_load(in_channels)

    def _finish_model_load(self, in_channels: int) -> None:
        self._trained_channels = in_channels
        loss = preferred_loss(self.config.model_name)
        self.trainer = Trainer(self.model, loss=loss, config=self.config.train)
        # A loaded model serves requests: hold the plan before the first.
        self.trainer.inference_plan()
