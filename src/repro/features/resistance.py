"""Resistance-derived structural maps.

Two PG-structure-level features from Section III-C:

- the **resistance map** "distributes the resistance of each resistor
  across overlapping grids": every wire's resistance is spread uniformly
  over the pixels its straight-line span crosses;
- the **shortest path resistance map** "is the average of the cumulative
  resistance from each node to voltage sources": multi-source Dijkstra over
  the wire-resistance graph, rasterised with a per-pixel mean.

Both hot paths are vectorised.  Axis-aligned wire spans (the entire PG in
practice) are enumerated with a repeat/arange scatter that accumulates in
the same wire-then-pixel order as the old Python loop, so sums stay
bitwise identical; the shortest-path pass runs scipy's multi-source
Dijkstra over a min-deduplicated CSR adjacency (parallel wires keep the
*smallest* resistance — CSR construction would otherwise sum duplicates,
which is wrong for path weights).
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from repro.grid.geometry import GridGeometry
from repro.grid.netlist import PowerGrid
from repro.grid.raster import pixel_coords, scatter_to_image


def _pixels_on_span(
    geometry: GridGeometry,
    start: tuple[int, int],
    end: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Pixels visited by the straight segment from *start* to *end* (nm).

    Returns ``(rows, cols)`` index arrays ready for fancy indexing.  PG
    wires are axis-aligned, so simple per-axis stepping at pixel
    resolution is exact; diagonal segments (vias render as points) are
    sampled at pixel pitch and deduplicated in (row, col) order.
    """
    (x0, y0), (x1, y1) = start, end
    r0, c0 = geometry.to_pixel(x0, y0)
    r1, c1 = geometry.to_pixel(x1, y1)
    if (r0, c0) == (r1, c1):
        return np.array([r0], dtype=np.int64), np.array([c0], dtype=np.int64)
    if r0 == r1:
        cols = np.arange(min(c0, c1), max(c0, c1) + 1, dtype=np.int64)
        return np.full_like(cols, r0), cols
    if c0 == c1:
        rows = np.arange(min(r0, r1), max(r0, r1) + 1, dtype=np.int64)
        return rows, np.full_like(rows, c0)
    steps = max(abs(r1 - r0), abs(c1 - c0))
    t = np.arange(steps + 1, dtype=np.float64)
    rows = np.rint(r0 + (r1 - r0) * t / steps).astype(np.int64)
    cols = np.rint(c0 + (c1 - c0) * t / steps).astype(np.int64)
    n_cols = geometry.shape[1]
    flat = np.unique(rows * n_cols + cols)  # sorted (row, col) pairs
    return flat // n_cols, flat % n_cols


def resistance_map(geometry: GridGeometry, grid: PowerGrid) -> np.ndarray:
    """Total wire resistance per pixel, each wire spread over its span.

    Wires with an unstructured endpoint have no position and are left out.
    """
    shape = geometry.shape
    node_a, node_b, res = grid.wire_arrays()
    x, y, _, structured = grid.node_arrays()

    usable = structured[node_a] & structured[node_b]

    r0, c0 = pixel_coords(geometry, x[node_a[usable]], y[node_a[usable]])
    r1, c1 = pixel_coords(geometry, x[node_b[usable]], y[node_b[usable]])
    res = res[usable]

    axis = (r0 == r1) | (c0 == c1)
    image = np.zeros(shape, dtype=float)
    if np.any(axis):
        row_lo = np.minimum(r0[axis], r1[axis])
        col_lo = np.minimum(c0[axis], c1[axis])
        d_row = np.abs(r1[axis] - r0[axis])
        d_col = np.abs(c1[axis] - c0[axis])
        lengths = d_row + d_col + 1
        total = int(lengths.sum())
        # Enumerate every (wire, pixel-offset) pair flat: offset k of wire w
        # lands at position starts[w] + k.
        starts = np.cumsum(lengths) - lengths
        offsets = np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)
        rows = np.repeat(row_lo, lengths) + offsets * np.repeat(d_row > 0, lengths)
        cols = np.repeat(col_lo, lengths) + offsets * np.repeat(d_col > 0, lengths)
        weights = np.repeat(res[axis] / lengths, lengths)
        image += np.bincount(
            rows * shape[1] + cols, weights=weights, minlength=shape[0] * shape[1]
        ).reshape(shape)
    if not np.all(axis):
        # Diagonal spans (exotic decks only): per-wire sampling fallback.
        x_a, y_a = x[node_a[usable]][~axis], y[node_a[usable]][~axis]
        x_b, y_b = x[node_b[usable]][~axis], y[node_b[usable]][~axis]
        for k, resistance in enumerate(res[~axis]):
            rows, cols = _pixels_on_span(
                geometry,
                (int(x_a[k]), int(y_a[k])),
                (int(x_b[k]), int(y_b[k])),
            )
            np.add.at(image, (rows, cols), resistance / max(len(rows), 1))
    return image


def shortest_path_resistances(grid: PowerGrid) -> np.ndarray:
    """Per-node shortest-path resistance to the nearest pad.

    Multi-source Dijkstra with wire resistance as edge weight; floating
    nodes get ``inf``.  Builds a min-deduplicated CSR adjacency and runs
    scipy's compiled Dijkstra from all pads at once; every wire weight is
    finite and > 0, as :meth:`PowerGrid.from_netlist` guarantees.
    """
    n = grid.num_nodes
    pads = grid.pad_indices()
    if n == 0 or pads.size == 0:
        distances = np.full(n, np.inf, dtype=float)
        distances[pads] = 0.0
        return distances
    node_a, node_b, res = grid.wire_arrays()
    if res.size:
        # Parallel wires between the same node pair must keep the MINIMUM
        # resistance: coo->csr construction would sum duplicates, which is
        # wrong for path weights.
        lo = np.minimum(node_a, node_b)
        hi = np.maximum(node_a, node_b)
        key = lo * np.int64(n) + hi
        order = np.argsort(key, kind="stable")
        key_sorted = key[order]
        group_starts = np.flatnonzero(
            np.r_[True, key_sorted[1:] != key_sorted[:-1]]
        )
        min_res = np.minimum.reduceat(res[order], group_starts)
        key_unique = key_sorted[group_starts]
        graph = sp.csr_matrix(
            (min_res, (key_unique // n, key_unique % n)), shape=(n, n)
        )
    else:
        graph = sp.csr_matrix((n, n), dtype=float)
    return dijkstra(graph, directed=False, indices=pads, min_only=True)


def shortest_path_resistance_map(
    geometry: GridGeometry,
    grid: PowerGrid,
    layer: int | None = 1,
) -> np.ndarray:
    """Per-pixel mean shortest-path resistance to the pads.

    Parameters
    ----------
    layer:
        Restrict to one metal layer's nodes (default: bottom layer, whose
        cells experience the drop); ``None`` averages over all layers.
    """
    distances = shortest_path_resistances(grid)
    x, y, layers, structured = grid.node_arrays()
    if layer is None:
        selected = structured
    else:
        selected = structured & (layers == layer)
    finite = selected & np.isfinite(distances)
    num_selected = int(np.count_nonzero(selected))
    num_finite = int(np.count_nonzero(finite))
    if num_selected and not num_finite:
        # Every node on the layer is floating: emit a defined (zero) map
        # with a warning instead of dividing by an empty rasterisation.
        warnings.warn(
            "shortest_path_resistance_map: no node has a finite path "
            "resistance to a pad; returning zeros",
            RuntimeWarning,
            stacklevel=2,
        )
        return np.zeros(geometry.shape, dtype=float)
    dropped = num_selected - num_finite
    if dropped:
        warnings.warn(
            f"shortest_path_resistance_map: ignoring {dropped} floating "
            "node(s) with infinite path resistance",
            RuntimeWarning,
            stacklevel=2,
        )
    rows, cols = pixel_coords(geometry, x[finite], y[finite])
    return scatter_to_image(
        geometry.shape, rows, cols, distances[finite], reduce="mean"
    )
