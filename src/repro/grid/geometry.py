"""Layer geometry and the LEF-style coordinate-to-pixel mapping.

Section III-C: "Based on the row *w* and height *l* from LEF, a design's
layer of size Wc x Lc translates to an image of W (= Wc // w) x L (= Lc // l)
pixels" — i.e. node (x_n, y_n) maps to pixel (x_n // w, y_n // l).

:class:`GridGeometry` owns that mapping plus the per-layer metadata needed
by the feature extractors (pitch, wire direction, sheet resistance).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.spice.nodes import NodeName


@dataclass(frozen=True, slots=True)
class LayerInfo:
    """Static metadata for one metal layer of the PG.

    Attributes
    ----------
    index:
        1-based metal layer index (1 = bottom / cell layer).
    pitch_nm:
        Stripe pitch in nanometres (distance between parallel PG stripes).
    direction:
        ``"h"`` for horizontal stripes, ``"v"`` for vertical.
    sheet_resistance:
        Resistance per segment unit used when synthesising designs; purely
        informational for parsed designs.
    """

    index: int
    pitch_nm: int
    direction: str
    sheet_resistance: float = 1.0

    def __post_init__(self) -> None:
        if self.direction not in ("h", "v"):
            raise ValueError(f"layer direction must be 'h' or 'v', got {self.direction!r}")
        if self.pitch_nm <= 0:
            raise ValueError(f"layer pitch must be positive, got {self.pitch_nm}")


@dataclass(frozen=True)
class GridGeometry:
    """Die geometry and the coordinate → pixel mapping.

    Attributes
    ----------
    width_nm, height_nm:
        Die extents (Wc, Lc) in nanometres.
    pixel_w_nm, pixel_h_nm:
        The LEF row width *w* and height *l*; one pixel covers
        ``pixel_w_nm x pixel_h_nm``.
    layers:
        Per-layer metadata ordered bottom-up.
    """

    width_nm: int
    height_nm: int
    pixel_w_nm: int
    pixel_h_nm: int
    layers: tuple[LayerInfo, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.width_nm <= 0 or self.height_nm <= 0:
            raise ValueError("die extents must be positive")
        if self.pixel_w_nm <= 0 or self.pixel_h_nm <= 0:
            raise ValueError("pixel extents must be positive")

    @property
    def shape(self) -> tuple[int, int]:
        """Image shape (rows, cols) = (height pixels, width pixels)."""
        return (self.height_nm // self.pixel_h_nm, self.width_nm // self.pixel_w_nm)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def layer(self, index: int) -> LayerInfo:
        """Layer metadata by 1-based metal index."""
        for info in self.layers:
            if info.index == index:
                return info
        raise KeyError(f"no layer with index {index}")

    def to_pixel(self, x_nm: int, y_nm: int) -> tuple[int, int]:
        """Map nanometre coordinates to an (row, col) pixel, clamped in-die.

        Row corresponds to y, column to x, matching image conventions used
        for the feature maps.
        """
        rows, cols = self.shape
        col = min(max(x_nm // self.pixel_w_nm, 0), cols - 1)
        row = min(max(y_nm // self.pixel_h_nm, 0), rows - 1)
        return (int(row), int(col))

    def node_pixel(self, node: NodeName) -> tuple[int, int]:
        """Pixel of a structured PG node."""
        return self.to_pixel(node.x, node.y)

    def pixel_center_nm(self, row: int, col: int) -> tuple[float, float]:
        """Nanometre coordinates of a pixel centre (x, y)."""
        x = (col + 0.5) * self.pixel_w_nm
        y = (row + 0.5) * self.pixel_h_nm
        return (x, y)

    def contains(self, x_nm: int, y_nm: int) -> bool:
        """Whether the nanometre point lies within the die."""
        return 0 <= x_nm < self.width_nm and 0 <= y_nm < self.height_nm


def default_layer_stack(num_layers: int, base_pitch_nm: int = 2000) -> tuple[LayerInfo, ...]:
    """A conventional PG stack: alternating directions, pitch doubling upward.

    Layer 1 is horizontal with the base pitch; each higher layer doubles the
    pitch and alternates direction, mirroring how real PDNs get sparser and
    thicker toward the top metal.
    """
    if num_layers < 1:
        raise ValueError("a PG needs at least one metal layer")
    layers = []
    for i in range(1, num_layers + 1):
        direction = "h" if i % 2 == 1 else "v"
        pitch = base_pitch_nm * (2 ** (i - 1))
        sheet = 1.0 / (2 ** (i - 1))
        layers.append(
            LayerInfo(index=i, pitch_nm=pitch, direction=direction, sheet_resistance=sheet)
        )
    return tuple(layers)


def infer_geometry(
    grid,
    pixel_nm: int = 1000,
    align_pixels: int = 8,
) -> GridGeometry:
    """Infer a :class:`GridGeometry` from a parsed :class:`PowerGrid`.

    Die extents come from the maximum structured-node coordinates, rounded
    up to a multiple of ``align_pixels`` pixels (so pooling U-Nets accept
    the image).  Per-layer pitch is estimated as the median gap between
    distinct perpendicular coordinates; direction is the axis with more
    distinct in-stripe positions.
    """
    x, y, layer, structured = grid.node_arrays()
    if not structured.any():
        raise ValueError("grid has no structured nodes; cannot infer geometry")
    step = pixel_nm * align_pixels
    width = ((x[structured].max() + pixel_nm) + step - 1) // step * step
    height = ((y[structured].max() + pixel_nm) + step - 1) // step * step

    layers = []
    for layer_index in grid.layers_present():
        on_layer = structured & (layer == layer_index)
        xs = np.unique(x[on_layer])
        ys = np.unique(y[on_layer])
        direction = "h" if len(xs) >= len(ys) else "v"
        stripe_coords = ys if direction == "h" else xs
        if len(stripe_coords) > 1:
            pitch = int(np.median(np.diff(stripe_coords)))
        else:
            pitch = pixel_nm
        layers.append(
            LayerInfo(
                index=layer_index,
                pitch_nm=max(pitch, 1),
                direction=direction,
                sheet_resistance=1.0 / (2 ** (layer_index - 1)),
            )
        )
    return GridGeometry(
        width_nm=int(width),
        height_nm=int(height),
        pixel_w_nm=pixel_nm,
        pixel_h_nm=pixel_nm,
        layers=tuple(layers),
    )
