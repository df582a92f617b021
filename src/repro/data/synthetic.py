"""Synthetic power-grid benchmark generation.

Stand-in for the ICCAD-2023 contest dataset (BeGAN-generated "fake"
designs plus industrial "real" designs).  Two families are produced:

- **fake** — regular stripe grids, smooth Gaussian-blob current maps,
  symmetric pad arrays: the "easier" curriculum class;
- **real** — irregular grids (randomly dropped stripes, resistance jitter),
  current maps with rectangular macros and noise, clustered edge pads:
  the "harder" class that stresses generalisation.

The stripe model follows industrial PDNs: layer *k* runs parallel stripes
at pitch *p_k* (direction alternating per layer, pitch doubling upward);
nodes sit where a stripe crosses a stripe of an adjacent layer (via
landings) or, on the bottom layer, at every cell tap; vias join co-located
nodes of adjacent layers.  Pads pin top-layer nodes; loads drain from
bottom-layer taps according to the current image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.grid.geometry import GridGeometry, LayerInfo
from repro.grid.netlist import PowerGrid
from repro.grid.topology import validate_connectivity
from repro.spice.ast import (
    CurrentSource,
    ElementList,
    Netlist,
    Resistor,
    VoltageSource,
)
from repro.spice.nodes import GROUND, format_node_name, format_node_names


@dataclass(frozen=True)
class DesignSpec:
    """Parameters of one synthetic design.

    Attributes
    ----------
    name, kind:
        Identifier and family (``"fake"`` or ``"real"``).
    pixels:
        Die edge length in pixels; one pixel is ``pixel_nm`` square.
    pixel_nm:
        Pixel (and bottom-layer tap) pitch in nanometres.
    num_layers:
        Metal layers in the stack (>= 2 so pads sit above loads).
    supply_voltage:
        Pad voltage in volts.
    total_current:
        Chip load in amperes, distributed by the current image.
    num_pads:
        Pad count (regular array for fake, clustered for real).
    resistance_per_um:
        Bottom-layer wire resistance per micrometre; upper layers scale by
        their ``sheet_resistance`` ratio.
    via_resistance:
        Nominal via resistance in ohms.
    stripe_dropout:
        Fraction of stripes removed per layer >= 2 (real designs only).
    resistance_jitter:
        Max relative perturbation of each resistor (real designs only).
    num_blobs, num_macros:
        Current-map texture controls.
    seed:
        RNG seed; everything about the design is deterministic in it.
    """

    name: str
    kind: str = "fake"
    pixels: int = 64
    pixel_nm: int = 1000
    num_layers: int = 4
    supply_voltage: float = 1.05
    total_current: float = 2.0
    num_pads: int = 4
    resistance_per_um: float = 0.4
    via_resistance: float = 0.05
    stripe_dropout: float = 0.0
    resistance_jitter: float = 0.0
    num_blobs: int = 4
    num_macros: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("fake", "real"):
            raise ValueError(f"kind must be 'fake' or 'real', got {self.kind!r}")
        if self.pixels < 8:
            raise ValueError("designs need at least 8x8 pixels")
        if self.num_layers < 2:
            raise ValueError("need >=2 metal layers (pads above loads)")
        # Written so NaN fails every range: it compares false to anything.
        for name in ("total_current", "resistance_per_um", "via_resistance"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {getattr(self, name)}"
                )
        if not 0.0 <= self.stripe_dropout < 0.8:
            raise ValueError("stripe_dropout must be in [0, 0.8)")
        if not 0.0 <= self.resistance_jitter < 1.0:
            # at 1 or above a jittered resistor can reach 0 ohms or go negative
            raise ValueError(
                f"resistance_jitter must be in [0, 1), got {self.resistance_jitter}"
            )
        for name in ("num_blobs", "num_macros"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class Design:
    """A generated design: spec, geometry, netlist, grid and current image."""

    spec: DesignSpec
    geometry: GridGeometry
    netlist: Netlist
    grid: PowerGrid
    current_image: np.ndarray
    pad_pixels: list[tuple[int, int]] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def is_fake(self) -> bool:
        return self.spec.kind == "fake"


def make_fake_spec(name: str, seed: int, **overrides) -> DesignSpec:
    """A regular, smooth-load "easy" design spec."""
    spec = DesignSpec(name=name, kind="fake", seed=seed, num_blobs=4, num_macros=0)
    return replace(spec, **overrides) if overrides else spec


def make_real_spec(name: str, seed: int, **overrides) -> DesignSpec:
    """An irregular "hard" design spec: macros, dropout, jitter, edge pads."""
    spec = DesignSpec(
        name=name,
        kind="real",
        seed=seed,
        num_blobs=3,
        num_macros=3,
        stripe_dropout=0.15,
        resistance_jitter=0.25,
        num_pads=4,
    )
    return replace(spec, **overrides) if overrides else spec


# -- current-map synthesis ----------------------------------------------------


def _gaussian_blob(
    shape: tuple[int, int], center: tuple[float, float], sigma: float
) -> np.ndarray:
    rows, cols = shape
    ys, xs = np.mgrid[0:rows, 0:cols]
    return np.exp(
        -((xs - center[1]) ** 2 + (ys - center[0]) ** 2) / (2.0 * sigma**2)
    )


def synthesize_current_image(spec: DesignSpec, rng: np.random.Generator) -> np.ndarray:
    """A non-negative current image summing to ``spec.total_current``."""
    shape = (spec.pixels, spec.pixels)
    image = np.full(shape, 0.15, dtype=float)  # uniform background activity
    for _ in range(spec.num_blobs):
        center = (rng.uniform(0, spec.pixels), rng.uniform(0, spec.pixels))
        sigma = rng.uniform(0.08, 0.22) * spec.pixels
        image += rng.uniform(0.5, 1.5) * _gaussian_blob(shape, center, sigma)
    for _ in range(spec.num_macros):
        h = int(rng.uniform(0.15, 0.35) * spec.pixels)
        w = int(rng.uniform(0.15, 0.35) * spec.pixels)
        r0 = rng.integers(0, spec.pixels - h)
        c0 = rng.integers(0, spec.pixels - w)
        image[r0 : r0 + h, c0 : c0 + w] += rng.uniform(1.5, 3.5)
    if spec.kind == "real":
        # high-frequency texture that BeGAN-style smooth maps lack
        image += 0.2 * np.abs(rng.standard_normal(shape))
    image = np.clip(image, 0.0, None)
    return image * (spec.total_current / image.sum())


# -- grid construction --------------------------------------------------------


def _layer_stack(spec: DesignSpec) -> tuple[LayerInfo, ...]:
    layers = []
    for i in range(1, spec.num_layers + 1):
        layers.append(
            LayerInfo(
                index=i,
                pitch_nm=spec.pixel_nm * (2 ** (i - 1)),
                direction="h" if i % 2 == 1 else "v",
                sheet_resistance=1.0 / (2 ** (i - 1)),
            )
        )
    return tuple(layers)


def _stripe_positions(
    pitch_nm: int, extent_nm: int, dropout: float, rng: np.random.Generator
) -> list[int]:
    """Stripe coordinates at *pitch*, with optional random dropout.

    At least two stripes always survive so the layer keeps spanning the
    die and the network stays connected.
    """
    positions = list(range(0, extent_nm, pitch_nm))
    if dropout <= 0.0 or len(positions) <= 2:
        return positions
    keep_mask = rng.random(len(positions)) >= dropout
    kept = [p for p, keep in zip(positions, keep_mask) if keep]
    if len(kept) < 2:
        kept = [positions[0], positions[-1]]
    return kept


def _pad_positions(
    spec: DesignSpec,
    xs: list[int],
    ys: list[int],
    rng: np.random.Generator,
) -> list[tuple[int, int]]:
    """Top-layer pad coordinates.

    Fake designs spread pads evenly over the top-layer lattice; real
    designs cluster them along one die edge, creating the long supply
    paths (and IR gradients) industrial designs exhibit.
    """
    lattice = [(x, y) for x in xs for y in ys]
    count = min(spec.num_pads, len(lattice))
    if spec.kind == "fake":
        indices = np.linspace(0, len(lattice) - 1, count).round().astype(int)
        return [lattice[i] for i in indices]
    edge = rng.choice(["left", "right", "top", "bottom"])
    if edge == "left":
        key = lambda p: (p[0], p[1])
    elif edge == "right":
        key = lambda p: (-p[0], p[1])
    elif edge == "top":
        key = lambda p: (p[1], p[0])
    else:
        key = lambda p: (-p[1], p[0])
    ranked = sorted(lattice, key=key)
    cluster = ranked[: max(count * 3, count)]
    chosen = rng.choice(len(cluster), size=count, replace=False)
    return [cluster[i] for i in sorted(chosen)]


def _build_netlist(
    spec: DesignSpec,
    geometry: GridGeometry,
    current_image: np.ndarray,
    rng: np.random.Generator,
) -> tuple[Netlist, list[tuple[int, int]]]:
    """The design's deck as columns, plus the ``(row, col)`` pixel of each pad.

    Each layer's nodes form a lattice: one row per stripe, one column per
    cross position.  Element order (wires layer by layer, stripe-major;
    vias lower-stripe-major; loads row-major) and the RNG draw order are
    part of every generated deck and are pinned by the tests.
    """
    extent = spec.pixels * spec.pixel_nm

    # Stripe coordinates per layer: the coordinate perpendicular to the
    # layer's direction.  Layer 1 never drops stripes (cell rails are
    # always present); upper layers may, for "real" designs.
    stripes: dict[int, np.ndarray] = {}
    for info in geometry.layers:
        dropout = spec.stripe_dropout if info.index >= 2 else 0.0
        stripes[info.index] = np.array(
            _stripe_positions(info.pitch_nm, extent, dropout, rng), dtype=np.int64
        )

    # Node cross positions on each stripe: where adjacent layers' stripes
    # cross it (via landings); layer 1 additionally gets a cell tap at
    # every pixel column (layer 2's stripes sit on pixel columns, so layer
    # 1's lattice is exactly the pixel grid).
    cross: dict[int, np.ndarray] = {}
    for info in geometry.layers:
        around = [stripes[k] for k in (info.index - 1, info.index + 1) if k in stripes]
        if info.index == 1:
            around.append(np.arange(0, extent, spec.pixel_nm))
        cross[info.index] = np.unique(np.concatenate(around))
    # A layer with one cross position carries no wire and so has no node.
    # Pitch doubles upward, so if any layer is like that, the top one is.
    top = geometry.layers[-1]
    if cross[top.index].size < 2:
        raise RuntimeError("top layer has no via landings to place pads on")

    # Node names, formatted once per lattice node: (x, y) is
    # (cross, stripe) on a horizontal layer and (stripe, cross) on a
    # vertical one.
    lattice: dict[int, np.ndarray] = {}
    for info in geometry.layers:
        along, across = stripes[info.index].tolist(), cross[info.index].tolist()
        if info.direction == "h":
            lattice[info.index] = format_node_names(1, info.index, across, along).T
        else:
            lattice[info.index] = format_node_names(1, info.index, along, across)

    # Wires join adjacent nodes along each stripe.
    node_a, node_b, wire_ohms = [], [], []
    for info in geometry.layers:
        rho = spec.resistance_per_um * info.sheet_resistance
        length_um = np.diff(cross[info.index]) / 1000.0
        node_a.append(lattice[info.index][:, :-1].ravel())
        node_b.append(lattice[info.index][:, 1:].ravel())
        wire_ohms.append(np.tile(np.maximum(rho * length_um, 1e-4), len(stripes[info.index])))

    # Vias at every crossing of adjacent layers' stripes, lower stripe
    # major.  Each layer's cross positions include its neighbours'
    # stripes, so a crossing is a node of both: (low stripe, up stripe's
    # cross index) below, (up stripe, low stripe's cross index) above.
    for lower, upper in zip(geometry.layers, geometry.layers[1:]):
        up_on_lower = np.searchsorted(cross[lower.index], stripes[upper.index])
        low_on_upper = np.searchsorted(cross[upper.index], stripes[lower.index])
        node_a.append(lattice[lower.index][:, up_on_lower].ravel())
        node_b.append(lattice[upper.index][:, low_on_upper].T.ravel())
    num_wires = sum(len(ohms) for ohms in wire_ohms)
    num_vias = sum(len(column) for column in node_a) - num_wires

    # One jitter draw per resistor, wires first, in element order.
    ohms = [np.concatenate(wire_ohms), np.full(num_vias, spec.via_resistance)]
    if spec.resistance_jitter > 0.0:
        for column in ohms:
            column *= 1.0 + rng.uniform(
                -spec.resistance_jitter, spec.resistance_jitter, size=column.size
            )
    resistors = ElementList.from_columns(
        Resistor,
        [f"R{k}" for k in range(1, num_wires + num_vias + 1)],
        np.concatenate(node_a).tolist(),
        np.concatenate(node_b).tolist(),
        np.concatenate(ohms),
    )

    # Loads: one tap per drawing pixel on the bottom layer, row-major, at
    # the pixel's lattice node.
    tapped = current_image > 0.0
    num_loads = int(tapped.sum())
    current_sources = ElementList.from_columns(
        CurrentSource,
        [f"I{k}" for k in range(1, num_loads + 1)],
        lattice[1][tapped].tolist(),
        [GROUND] * num_loads,
        current_image[tapped],
    )

    # Pads on the top layer, whose nodes are the whole (xs, ys) lattice,
    # so every pad lands on a node and no two coincide.
    xs, ys = stripes[top.index].tolist(), cross[top.index].tolist()
    if top.direction == "h":
        xs, ys = ys, xs
    pads = _pad_positions(spec, xs, ys, rng)
    voltage_sources = [
        VoltageSource(
            f"V{k}", format_node_name(1, top.index, x, y), GROUND, spec.supply_voltage
        )
        for k, (x, y) in enumerate(pads, start=1)
    ]
    netlist = Netlist(
        title=f"{spec.name} ({spec.kind}) synthetic PG",
        resistors=resistors,
        current_sources=current_sources,
        voltage_sources=voltage_sources,
    )
    return netlist, [geometry.to_pixel(x, y) for x, y in pads]


def generate_design(spec: DesignSpec) -> Design:
    """Generate one synthetic design, guaranteed connected and solvable."""
    rng = np.random.default_rng(spec.seed)
    extent = spec.pixels * spec.pixel_nm
    geometry = GridGeometry(
        width_nm=extent,
        height_nm=extent,
        pixel_w_nm=spec.pixel_nm,
        pixel_h_nm=spec.pixel_nm,
        layers=_layer_stack(spec),
    )
    current_image = synthesize_current_image(spec, rng)
    netlist, pad_pixels = _build_netlist(spec, geometry, current_image, rng)
    grid = PowerGrid.from_netlist(netlist)
    validate_connectivity(grid)
    return Design(
        spec=spec,
        geometry=geometry,
        netlist=netlist,
        grid=grid,
        current_image=current_image,
        pad_pixels=pad_pixels,
    )


def generate_benchmark_suite(
    num_fake: int,
    num_real: int,
    pixels: int = 64,
    seed: int = 0,
    **overrides,
) -> list[Design]:
    """A reproducible mixed suite, fakes first then reals.

    Per-design seeds derive from *seed* so the suite is stable under
    changes to the counts of the other family.
    """
    designs: list[Design] = []
    for i in range(num_fake):
        spec = make_fake_spec(
            f"fake_{i:03d}", seed=seed * 100_003 + i, pixels=pixels, **overrides
        )
        designs.append(generate_design(spec))
    for i in range(num_real):
        spec = make_real_spec(
            f"real_{i:03d}",
            seed=seed * 100_003 + 50_021 + i,
            pixels=pixels,
            **overrides,
        )
        designs.append(generate_design(spec))
    return designs
