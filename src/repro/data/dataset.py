"""Design → training-sample conversion and the dataset container.

A :class:`DesignSample` is one (feature stack, golden IR-drop label) pair.
Labels come from a fully converged solve (direct sparse factorisation);
the numerical feature channels come from a deliberately rough AMG-PCG
solve with few iterations, exactly as the fusion framework prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.synthetic import Design
from repro.features.fusion import FeatureConfig, assemble_feature_stack
from repro.features.maps import FeatureStack
from repro.grid.netlist import PowerGrid
from repro.grid.raster import layer_values_image
from repro.grid.topology import validate_connectivity
from repro.mna.stamper import stamped_system
from repro.solvers.direct import DirectSolver
from repro.solvers.powerrush import PowerRushSimulator


@dataclass
class DesignSample:
    """One supervised example.

    Attributes
    ----------
    name, kind:
        Provenance (design name; ``"fake"`` / ``"real"``).
    features:
        Input stack of shape ``(C, H, W)`` with channel names.
    label:
        Golden bottom-layer IR-drop image ``(H, W)`` in volts.
    rough_label:
        The rough numerical bottom-layer drop image (what the solver alone
        would report) — kept for the Fig. 7 comparison; may be ``None``
        when the numerical stage is ablated.
    """

    name: str
    kind: str
    features: FeatureStack
    label: np.ndarray
    rough_label: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.label = np.asarray(self.label, dtype=float)
        if self.label.shape != self.features.shape:
            raise ValueError(
                f"label shape {self.label.shape} != feature shape "
                f"{self.features.shape}"
            )

    @property
    def is_fake(self) -> bool:
        return self.kind == "fake"


def golden_voltages(grid: PowerGrid) -> np.ndarray:
    """Per-node voltages of a direct factorisation, once per grid state.

    The vector lives in the grid's memo, so it is read-only; a Fig. 7
    mixed-budget build labels each design once, not once per budget.
    """

    def solve() -> np.ndarray:
        validate_connectivity(grid)
        system = stamped_system(grid)
        voltages = system.scatter(DirectSolver().solve(system.matrix, system.rhs).x)
        voltages.flags.writeable = False
        return voltages

    return grid.memo("golden_voltages", solve)


def golden_ir_drop(design: Design) -> np.ndarray:
    """Golden bottom-layer IR-drop image via direct factorisation."""
    drop = design.spec.supply_voltage - golden_voltages(design.grid)
    return layer_values_image(design.geometry, design.grid, drop, layer=1)


def build_sample(
    design: Design,
    feature_config: FeatureConfig | None = None,
    solver_iterations: int = 2,
    solver_preset: str = "fast",
) -> DesignSample:
    """Build the (features, golden label) pair for one design.

    Parameters
    ----------
    feature_config:
        Feature-family switches; defaults to the full fusion stack.
    solver_iterations:
        AMG-PCG iteration cap for the rough numerical solution (the
        paper's sweet spot is 2).
    solver_preset:
        PowerRush preset for the rough stage (``"fast"`` matches the
        framework's cheap rough-iteration regime).
    """
    feature_config = feature_config or FeatureConfig()
    rough_voltages = None
    rough_label = None
    if feature_config.use_numerical:
        simulator = PowerRushSimulator(
            max_iterations=solver_iterations, preset=solver_preset
        )
        report = simulator.simulate_grid(
            design.grid, supply_voltage=design.spec.supply_voltage
        )
        rough_voltages = report.voltages
        rough_label = report.drop_image(design.geometry, layer=1)
    features = assemble_feature_stack(
        design.geometry,
        design.grid,
        feature_config,
        voltages=rough_voltages,
        supply_voltage=design.spec.supply_voltage,
    )
    return DesignSample(
        name=design.name,
        kind=design.kind,
        features=features,
        label=golden_ir_drop(design),
        rough_label=rough_label,
    )


@dataclass
class IRDropDataset:
    """An ordered collection of samples with train/test conveniences."""

    samples: list[DesignSample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, index: int) -> DesignSample:
        return self.samples[index]

    def __iter__(self):
        return iter(self.samples)

    @property
    def channels(self) -> list[str]:
        """Feature channel names (validated identical across samples)."""
        if not self.samples:
            raise ValueError("empty dataset has no channels")
        first = self.samples[0].features.channels
        for sample in self.samples[1:]:
            if sample.features.channels != first:
                raise ValueError(
                    f"inconsistent channels: {sample.name} has "
                    f"{sample.features.channels}, expected {first}"
                )
        return first

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Stack into float32 ``X (N, C, H, W)`` and float64 ``Y (N, 1, H, W)``.

        Fills preallocated blocks row by row — one allocation per output
        instead of a stack-then-astype whose cast duplicated the whole
        dataset at peak.  X is the network's input, so it is filled
        straight into float32 (assignment rounds exactly as ``astype``
        does); Y stays float64 for the residual target arithmetic.
        """
        if not self.samples:
            raise ValueError("empty dataset")
        first = self.samples[0]
        x = np.empty(
            (len(self.samples), *first.features.data.shape), dtype=np.float32
        )
        y = np.empty(
            (len(self.samples), 1, *first.label.shape), dtype=np.float64
        )
        for k, sample in enumerate(self.samples):
            x[k] = sample.features.data
            y[k, 0] = sample.label
        return x, y

    @classmethod
    def from_designs(
        cls,
        designs: list[Design],
        feature_config: FeatureConfig | None = None,
        solver_iterations: int = 2,
        solver_preset: str = "fast",
        jobs: int = 1,
    ) -> "IRDropDataset":
        """Build samples for a list of designs.

        With ``jobs > 1`` the per-design feature extraction fans out over
        the spawn worker pool (results are returned in design order, so
        the dataset is identical to a serial build).  Any per-design
        failure aborts the build with the design's name in the error.
        """
        if jobs <= 1 or len(designs) <= 1:
            return cls(
                [
                    build_sample(
                        d, feature_config, solver_iterations, solver_preset
                    )
                    for d in designs
                ]
            )
        import functools

        from repro.core.batch import parallel_map_ex

        worker = functools.partial(
            build_sample,
            feature_config=feature_config,
            solver_iterations=solver_iterations,
            solver_preset=solver_preset,
        )
        outcomes, _ = parallel_map_ex(worker, designs, jobs)
        for design, outcome in zip(designs, outcomes):
            if outcome.error is not None:
                raise RuntimeError(
                    f"building sample for design {design.name!r} failed: "
                    f"{outcome.error}"
                )
        return cls([outcome.result for outcome in outcomes])
