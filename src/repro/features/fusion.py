"""Assembly of the full numerical-structural fusion stack.

"Hierarchical numerical and structure features together make up features
for ML (P_map_1, ..., P_map_n)" (Section III-C).  The two ablation switches
correspond to the Fig. 8 variants: ``use_numerical=False`` drops the rough
solver maps ("w/o Num. Solu."), ``hierarchical=False`` collapses to the
flat three-channel representation earlier ML methods use ("w/o Hier.
Feat.").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.features.current import layer_current_maps, load_current_map
from repro.features.density import pdn_density_map
from repro.features.distance import effective_distance_map
from repro.features.maps import FeatureStack
from repro.features.numerical import numerical_layer_maps
from repro.features.resistance import resistance_map, shortest_path_resistance_map
from repro.grid.geometry import GridGeometry
from repro.grid.netlist import PowerGrid


@dataclass(frozen=True)
class FeatureConfig:
    """Which feature families enter the stack.

    Attributes
    ----------
    use_numerical:
        Include per-layer rough-solution IR maps (needs ``voltages``).
    hierarchical:
        Per-layer current/numerical maps plus resistance features; when
        off, only the flat current / effective-distance / density triple
        is produced (the representation of IREDGe-era models).
    normalize:
        Min-max normalise the *structural* channels.  Numerical channels
        are never min-maxed — their absolute scale carries the rough
        solution's physical information — they are multiplied by
        ``numerical_scale`` instead.
    numerical_scale:
        Fixed multiplier for numerical (volt-valued) channels; keeping it
        equal to the trainer's ``LABEL_SCALE`` puts rough solutions and
        labels in the same units, so the residual correction is well
        conditioned.
    """

    use_numerical: bool = True
    hierarchical: bool = True
    normalize: bool = True
    numerical_scale: float = 20.0


def channel_names(config: FeatureConfig, layers: list[int]) -> list[str]:
    """The channel list :func:`assemble_feature_stack` will produce."""
    names: list[str] = []
    if config.use_numerical:
        if config.hierarchical:
            names += [f"numerical_m{layer}" for layer in layers]
        else:
            names.append("numerical")
    if config.hierarchical:
        names += [f"current_m{layer}" for layer in layers]
        names += [
            "effective_distance",
            "pdn_density",
            "resistance",
            "shortest_path_resistance",
        ]
    else:
        names += ["current", "effective_distance", "pdn_density"]
    return names


def assemble_feature_stack(
    geometry: GridGeometry,
    grid: PowerGrid,
    config: FeatureConfig | None = None,
    voltages: np.ndarray | None = None,
    supply_voltage: float | None = None,
) -> FeatureStack:
    """Build the ML input stack for one design.

    Only the numerical channels depend on the rough solve.  The structural
    channels depend on the grid alone, so they come from its memo: built
    once per ``(geometry, config)`` and grid state, then copied into each
    stack.

    Parameters
    ----------
    voltages:
        Full per-grid-node rough solution; required when
        ``config.use_numerical`` is on.
    supply_voltage:
        Pad voltage for converting voltages to drops; required with
        ``voltages``.
    """
    config = config or FeatureConfig()
    numerical: dict[str, np.ndarray] = {}
    layers = grid.layers_present()

    if config.use_numerical:
        if voltages is None or supply_voltage is None:
            raise ValueError(
                "use_numerical=True requires voltages and supply_voltage"
            )
        layer_maps = numerical_layer_maps(
            geometry, grid, voltages, supply_voltage, layers=layers
        )
        if config.hierarchical:
            for layer in layers:
                numerical[f"numerical_m{layer}"] = layer_maps[layer]
        else:
            # Flat variant: bottom-layer rough drop only.
            numerical["numerical"] = layer_maps[min(layers)]

    names, structural = grid.memo(
        ("structural_features", geometry, config),
        lambda: _structural_channels(geometry, grid, config, layers),
    )
    channels = [*numerical, *names]
    expected = channel_names(config, layers)
    if channels != expected:
        raise AssertionError(f"channel order drifted: {channels} != {expected}")
    blocks = [structural]
    if numerical:
        block = np.stack([np.asarray(m, dtype=float) for m in numerical.values()])
        if config.normalize:
            block = block * config.numerical_scale
        blocks.insert(0, block)
    return FeatureStack(channels=channels, data=np.concatenate(blocks))


def _structural_channels(
    geometry: GridGeometry, grid: PowerGrid, config: FeatureConfig, layers: list[int]
) -> tuple[tuple[str, ...], np.ndarray]:
    """The grid-only channels in stack order, as one read-only block."""
    maps: dict[str, np.ndarray] = {}
    if config.hierarchical:
        current_maps = layer_current_maps(geometry, grid)
        for layer in layers:
            maps[f"current_m{layer}"] = current_maps.get(
                layer, np.zeros(geometry.shape)
            )
        maps["effective_distance"] = effective_distance_map(geometry, grid)
        maps["pdn_density"] = pdn_density_map(geometry, grid)
        maps["resistance"] = resistance_map(geometry, grid)
        maps["shortest_path_resistance"] = shortest_path_resistance_map(
            geometry, grid
        )
    else:
        maps["current"] = load_current_map(geometry, grid)
        maps["effective_distance"] = effective_distance_map(geometry, grid)
        maps["pdn_density"] = pdn_density_map(geometry, grid)

    stack = FeatureStack.from_dict(maps)
    data = stack.data
    if config.normalize:
        # Min-max per channel: the structural maps have no common unit.
        for i in range(len(data)):
            lo, hi = data[i].min(), data[i].max()
            data[i] = (data[i] - lo) / (hi - lo) if hi - lo > 1e-12 else 0.0
    data.flags.writeable = False
    return tuple(stack.channels), data
