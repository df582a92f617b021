"""Per-element reference feature layer (moved verbatim from the pre-suite
``benchmarks/`` end-to-end script, where it was the "before" side).

Python-loop rasterisation, span walking, heap Dijkstra and networkx
components: the implementations ``repro.grid.raster``, ``repro.features``
and ``repro.grid.topology`` replaced with vectorised scatters.  They are
the *reference* ``tests/test_features_oracle.py`` compares the shipped
functions against.  ``to_networkx`` (moved from ``repro.grid.topology``)
is the networkx view they build on; networkx is a test-only dependency.
Each walks the grid one record at a time (``node(i)``, and the rows of
``wire_arrays()`` in a Python loop) so it stays an independent oracle
rather than a call into the code it checks.  Nothing in ``src/`` calls
these.
"""

from __future__ import annotations

import warnings

import numpy as np


def _legacy_rasterize(geometry, nodes, values, reduce="max", fill=0.0):
    if reduce not in ("max", "mean", "sum"):
        raise ValueError(f"unknown reduction {reduce!r}")
    if len(nodes) != len(values):
        raise ValueError(f"{len(nodes)} nodes but {len(values)} values")
    shape = geometry.shape
    if reduce == "max":
        image = np.full(shape, -np.inf, dtype=float)
    else:
        image = np.zeros(shape, dtype=float)
    counts = np.zeros(shape, dtype=np.int64)
    for node, value in zip(nodes, values):
        if node.structured is None:
            continue
        row, col = geometry.node_pixel(node.structured)
        counts[row, col] += 1
        if reduce == "max":
            if value > image[row, col]:
                image[row, col] = value
        else:
            image[row, col] += value
    empty = counts == 0
    if reduce == "mean":
        occupied = ~empty
        image[occupied] /= counts[occupied]
    image[empty] = fill
    return image


def _legacy_layer_values_image(
    geometry, grid, full_values, layer, reduce="max", fill=0.0
):
    if full_values.shape != (grid.num_nodes,):
        raise ValueError(
            f"expected one value per grid node ({grid.num_nodes}), "
            f"got shape {full_values.shape}"
        )
    nodes = grid.nodes_on_layer(layer)
    values = np.array([full_values[n.index] for n in nodes], dtype=float)
    return _legacy_rasterize(geometry, nodes, values, reduce=reduce, fill=fill)


def _legacy_pixels_on_span(geometry, start, end):
    (x0, y0), (x1, y1) = start, end
    r0, c0 = geometry.to_pixel(x0, y0)
    r1, c1 = geometry.to_pixel(x1, y1)
    if (r0, c0) == (r1, c1):
        return [(r0, c0)]
    if r0 == r1:
        lo, hi = sorted((c0, c1))
        return [(r0, c) for c in range(lo, hi + 1)]
    if c0 == c1:
        lo, hi = sorted((r0, r1))
        return [(r, c0) for r in range(lo, hi + 1)]
    steps = max(abs(r1 - r0), abs(c1 - c0))
    pixels = {
        (
            round(r0 + (r1 - r0) * t / steps),
            round(c0 + (c1 - c0) * t / steps),
        )
        for t in range(steps + 1)
    }
    return sorted(pixels)


def _wires(grid):
    """``(node_a, node_b, resistance)`` per wire, as Python scalars."""
    return zip(*(column.tolist() for column in grid.wire_arrays()))


def _all_nodes(grid):
    return [grid.node(i) for i in range(grid.num_nodes)]


def _legacy_resistance_map(geometry, grid):
    image = np.zeros(geometry.shape, dtype=float)
    for a, b, resistance in _wires(grid):
        node_a = grid.node(a)
        node_b = grid.node(b)
        if node_a.structured is None or node_b.structured is None:
            continue
        pixels = _legacy_pixels_on_span(
            geometry, node_a.structured.position, node_b.structured.position
        )
        share = resistance / len(pixels)
        for row, col in pixels:
            image[row, col] += share
    return image


def _legacy_shortest_path_resistances(grid):
    import heapq

    incident = [[] for _ in range(grid.num_nodes)]
    for a, b, resistance in _wires(grid):
        incident[a].append((b, resistance))
        incident[b].append((a, resistance))
    distances = np.full(grid.num_nodes, np.inf, dtype=float)
    heap = []
    for pad in grid.pads():
        distances[pad.index] = 0.0
        heapq.heappush(heap, (0.0, pad.index))
    while heap:
        dist, node = heapq.heappop(heap)
        if dist > distances[node]:
            continue
        for other, resistance in incident[node]:
            candidate = dist + resistance
            if candidate < distances[other]:
                distances[other] = candidate
                heapq.heappush(heap, (candidate, other))
    return distances


def _legacy_shortest_path_resistance_map(geometry, grid, layer=1):
    distances = _legacy_shortest_path_resistances(grid)
    if layer is None:
        nodes = [n for n in _all_nodes(grid) if n.structured is not None]
    else:
        nodes = grid.nodes_on_layer(layer)
    finite_nodes = [n for n in nodes if np.isfinite(distances[n.index])]
    if nodes and not finite_nodes:
        warnings.warn(
            "shortest_path_resistance_map: no node has a finite path "
            "resistance to a pad; returning zeros",
            RuntimeWarning,
            stacklevel=2,
        )
        return np.zeros(geometry.shape, dtype=float)
    dropped = len(nodes) - len(finite_nodes)
    if dropped:
        warnings.warn(
            f"shortest_path_resistance_map: ignoring {dropped} floating "
            "node(s) with infinite path resistance",
            RuntimeWarning,
            stacklevel=2,
        )
    values = np.array([distances[n.index] for n in finite_nodes], dtype=float)
    return _legacy_rasterize(geometry, finite_nodes, values, reduce="mean")


def _legacy_pdn_density_map(geometry, grid, layer=None):
    if layer is None:
        nodes = [n for n in _all_nodes(grid) if n.structured is not None]
    else:
        nodes = grid.nodes_on_layer(layer)
    ones = np.ones(len(nodes), dtype=float)
    return _legacy_rasterize(geometry, nodes, ones, reduce="sum")


def to_networkx(grid):
    """The PG as an undirected multigraph-free graph.

    Parallel resistors are combined (conductances summed) onto a single
    edge whose ``conductance`` attribute is the total.
    """
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(grid.num_nodes))
    for a, b, resistance in _wires(grid):
        if graph.has_edge(a, b):
            graph[a][b]["conductance"] += 1.0 / resistance
        else:
            graph.add_edge(a, b, conductance=1.0 / resistance, resistance=resistance)
    for a, b, data in graph.edges(data=True):
        data["resistance"] = 1.0 / data["conductance"]
    return graph


def _legacy_connected_components(grid):
    import networkx as nx

    return [set(c) for c in nx.connected_components(to_networkx(grid))]


def _legacy_floating_nodes(grid):
    pad_indices = {n.index for n in grid.pads()}
    floating = set()
    for component in _legacy_connected_components(grid):
        if component.isdisjoint(pad_indices):
            floating |= component
    return floating

