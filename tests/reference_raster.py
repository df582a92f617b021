"""Reference rasteriser over structured node objects (moved from ``src``).

``repro.grid.raster`` scatters per-node vectors straight from the grid's
columns (:func:`~repro.grid.raster.layer_values_image`).  This is the
older object-list form, which reads each :class:`PGNode`'s ``structured``
coordinates: the feature oracles and the raster unit tests check the
scatter core (``pixel_coords`` + ``scatter_to_image``) through it.
Nothing in ``src/`` calls it.
"""

from __future__ import annotations

import numpy as np

from repro.grid.geometry import GridGeometry
from repro.grid.netlist import PGNode
from repro.grid.raster import _REDUCTIONS, pixel_coords, scatter_to_image


def rasterize(
    geometry: GridGeometry,
    nodes: list[PGNode],
    values: np.ndarray,
    reduce: str = "max",
    fill: float = 0.0,
) -> np.ndarray:
    """Scatter per-node *values* to an image.

    Parameters
    ----------
    geometry:
        Supplies the pixel mapping and output shape.
    nodes:
        Structured nodes to scatter; unstructured nodes are skipped.
    values:
        ``values[k]`` belongs to ``nodes[k]``.
    reduce:
        ``"max"`` (worst case within a pixel), ``"mean"`` or ``"sum"``.
    fill:
        Value for pixels containing no node.
    """
    if reduce not in _REDUCTIONS:
        raise ValueError(f"unknown reduction {reduce!r}")
    if len(nodes) != len(values):
        raise ValueError(
            f"{len(nodes)} nodes but {len(values)} values"
        )
    coords = [
        (n.structured.x, n.structured.y, k)
        for k, n in enumerate(nodes)
        if n.structured is not None
    ]
    if coords:
        xs, ys, keep = (np.array(column, dtype=np.int64) for column in zip(*coords))
    else:
        xs = ys = keep = np.empty(0, dtype=np.int64)
    rows, cols = pixel_coords(geometry, xs, ys)
    return scatter_to_image(
        geometry.shape, rows, cols, np.asarray(values, dtype=float)[keep],
        reduce=reduce, fill=fill,
    )
