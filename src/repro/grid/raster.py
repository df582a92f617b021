"""Rasterising per-node quantities onto the pixel grid.

Every feature map and label in the pipeline is an image over the die;
this module owns the scatter from (node, value) pairs to pixels, with the
three reductions that occur in the paper's maps: worst-case (max), mean
and sum.

The scatter core is fully vectorised: sums/means go through
``np.bincount`` (which accumulates per-bin in input order, so the result
is bitwise identical to the sequential loop it replaced) and max goes
through ``np.fmax.at`` (exact, and NaN values lose against any number,
matching the old ``value > current`` comparison).
"""

from __future__ import annotations

import numpy as np

from repro.grid.geometry import GridGeometry
from repro.grid.netlist import PowerGrid

_REDUCTIONS = ("max", "mean", "sum")


def pixel_coords(
    geometry: GridGeometry, x_nm: np.ndarray, y_nm: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised :meth:`GridGeometry.to_pixel`: (rows, cols) arrays."""
    n_rows, n_cols = geometry.shape
    cols = np.clip(x_nm // geometry.pixel_w_nm, 0, n_cols - 1)
    rows = np.clip(y_nm // geometry.pixel_h_nm, 0, n_rows - 1)
    return rows.astype(np.int64), cols.astype(np.int64)


def scatter_to_image(
    shape: tuple[int, int],
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    reduce: str = "max",
    fill: float = 0.0,
) -> np.ndarray:
    """Scatter ``values[k]`` to pixel ``(rows[k], cols[k])`` with a reduction."""
    n_rows, n_cols = shape
    flat = rows * n_cols + cols
    counts = np.bincount(flat, minlength=n_rows * n_cols)
    return _scatter(shape, flat, counts == 0, values, reduce, fill, counts)


def _scatter(
    shape: tuple[int, int],
    flat: np.ndarray,
    empty: np.ndarray,
    values: np.ndarray,
    reduce: str,
    fill: float,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """Reduce ``values`` into the row-major pixels ``flat``; *empty* get *fill*."""
    if reduce not in _REDUCTIONS:
        raise ValueError(f"unknown reduction {reduce!r}")
    size = empty.size
    if reduce == "max":
        image = np.full(size, -np.inf, dtype=float)
        np.fmax.at(image, flat, values)
    else:
        image = np.bincount(flat, weights=values, minlength=size).astype(float)
    if reduce == "mean":
        if counts is None:
            counts = np.bincount(flat, minlength=size)
        occupied = ~empty
        image[occupied] /= counts[occupied]
    image[empty] = fill
    return image.reshape(shape)


def _layer_pixels(
    geometry: GridGeometry, grid: PowerGrid, layer: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(selected, flat, empty)`` for one layer, once per grid state.

    *selected* masks the layer's structured nodes, *flat* is each selected
    node's row-major pixel and *empty* masks the pixels no node lands on.
    The arrays live in the grid's memo, so they refuse writes.
    """

    def build() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x, y, layers, structured = grid.node_arrays()
        selected = structured & (layers == layer)
        rows, cols = pixel_coords(geometry, x[selected], y[selected])
        n_rows, n_cols = geometry.shape
        flat = rows * n_cols + cols
        empty = np.bincount(flat, minlength=n_rows * n_cols) == 0
        for array in (selected, flat, empty):
            array.flags.writeable = False
        return selected, flat, empty

    return grid.memo(("layer_pixels", geometry, layer), build)


def layer_values_image(
    geometry: GridGeometry,
    grid: PowerGrid,
    full_values: np.ndarray,
    layer: int,
    reduce: str = "max",
    fill: float = 0.0,
) -> np.ndarray:
    """Image of a per-grid-node vector restricted to one metal layer.

    The same scatter as :func:`scatter_to_image`, with the node selection
    and pixel index taken from the grid's memo: a repeat on an unedited
    grid pays only for gathering the values and reducing them.
    """
    if full_values.shape != (grid.num_nodes,):
        raise ValueError(
            f"expected one value per grid node ({grid.num_nodes}), "
            f"got shape {full_values.shape}"
        )
    selected, flat, empty = _layer_pixels(geometry, grid, layer)
    values = np.asarray(full_values, dtype=float)[selected]
    return _scatter(geometry.shape, flat, empty, values, reduce, fill)
