"""Reference netlist builder (moved from ``repro.data.synthetic``).

The per-element builder: one ``Resistor``/``CurrentSource``/``VoltageSource``
record per element, two formatted node names per element and one scalar
RNG draw per jittered resistor.  The array-form ``_build_netlist`` in
``repro.data.synthetic`` must produce the same netlist (names, node
columns and values, bitwise), the same pad pixels and leave the RNG in
the same state; ``tests/test_data_synthetic_oracle.py`` holds it to
these.  Nothing in ``src/`` calls these.
"""

from __future__ import annotations

import numpy as np

from repro.data.synthetic import DesignSpec, _pad_positions, _stripe_positions
from repro.grid.geometry import GridGeometry
from repro.spice.ast import CurrentSource, Netlist, Resistor, VoltageSource
from repro.spice.nodes import format_node_name


def _jitter(value: float, jitter: float, rng: np.random.Generator) -> float:
    if jitter <= 0.0:
        return value
    return value * float(1.0 + rng.uniform(-jitter, jitter))


def _build_netlist(
    spec: DesignSpec,
    geometry: GridGeometry,
    current_image: np.ndarray,
    rng: np.random.Generator,
) -> tuple[Netlist, list[tuple[int, int]]]:
    extent = spec.pixels * spec.pixel_nm
    netlist = Netlist(title=f"{spec.name} ({spec.kind}) synthetic PG")

    # Stripe coordinates per layer: the coordinate perpendicular to the
    # layer's direction.  Layer 1 never drops stripes (cell rails are
    # always present); upper layers may, for "real" designs.
    stripes: dict[int, list[int]] = {}
    for info in geometry.layers:
        dropout = spec.stripe_dropout if info.index >= 2 else 0.0
        stripes[info.index] = _stripe_positions(info.pitch_nm, extent, dropout, rng)

    # Node cross positions on each stripe: where adjacent layers' stripes
    # cross it (via landings); layer 1 additionally gets a cell tap at
    # every pixel column.
    taps = list(range(0, extent, spec.pixel_nm))
    cross: dict[int, list[int]] = {}
    for info in geometry.layers:
        positions: set[int] = set()
        if info.index == 1:
            positions.update(taps)
        if info.index - 1 >= 1:
            positions.update(stripes[info.index - 1])
        if info.index + 1 <= spec.num_layers:
            positions.update(stripes[info.index + 1])
        cross[info.index] = sorted(positions)

    node_sets: dict[int, set[tuple[int, int]]] = {}
    resistor_id = 0

    def node_name(layer: int, x: int, y: int) -> str:
        return format_node_name(1, layer, x, y)

    # Wires along each stripe.
    for info in geometry.layers:
        rho = spec.resistance_per_um * info.sheet_resistance
        nodes: set[tuple[int, int]] = set()
        for stripe_pos in stripes[info.index]:
            line = cross[info.index]
            for a, b in zip(line, line[1:]):
                if info.direction == "h":
                    na, nb = (a, stripe_pos), (b, stripe_pos)
                else:
                    na, nb = (stripe_pos, a), (stripe_pos, b)
                length_um = (b - a) / 1000.0
                resistance = _jitter(
                    max(rho * length_um, 1e-4), spec.resistance_jitter, rng
                )
                resistor_id += 1
                netlist.resistors.append(
                    Resistor(
                        f"R{resistor_id}",
                        node_name(info.index, *na),
                        node_name(info.index, *nb),
                        resistance,
                    )
                )
                nodes.add(na)
                nodes.add(nb)
        node_sets[info.index] = nodes

    # Vias at crossings of adjacent layers' stripes.
    for lower, upper in zip(geometry.layers, geometry.layers[1:]):
        lower_dir = lower.direction
        for low_stripe in stripes[lower.index]:
            for up_stripe in stripes[upper.index]:
                if lower_dir == "h":
                    point = (up_stripe, low_stripe)  # (x, y)
                else:
                    point = (low_stripe, up_stripe)
                if (
                    point in node_sets[lower.index]
                    and point in node_sets[upper.index]
                ):
                    resistance = _jitter(
                        spec.via_resistance, spec.resistance_jitter, rng
                    )
                    resistor_id += 1
                    netlist.resistors.append(
                        Resistor(
                            f"R{resistor_id}",
                            node_name(lower.index, *point),
                            node_name(upper.index, *point),
                            resistance,
                        )
                    )

    # Loads: one tap per pixel on the bottom layer, drawing the pixel's
    # current.  Bottom-layer stripes are horizontal rows at every pixel
    # pitch, so (x, y) = pixel centres snapped onto the lattice.
    source_id = 0
    for row in range(spec.pixels):
        y = row * spec.pixel_nm
        for col in range(spec.pixels):
            current = float(current_image[row, col])
            if current <= 0.0:
                continue
            x = col * spec.pixel_nm
            if (x, y) not in node_sets[1]:
                continue
            source_id += 1
            netlist.current_sources.append(
                CurrentSource(f"I{source_id}", node_name(1, x, y), "0", current)
            )

    # Pads on the top layer.
    top = geometry.layers[-1]
    if top.direction == "h":
        ys_top = stripes[top.index]
        xs_top = cross[top.index]
    else:
        xs_top = stripes[top.index]
        ys_top = cross[top.index]
    candidates = [
        (x, y) for x in xs_top for y in ys_top if (x, y) in node_sets[top.index]
    ]
    if not candidates:
        raise RuntimeError("top layer has no via landings to place pads on")
    xs = sorted({p[0] for p in candidates})
    ys = sorted({p[1] for p in candidates})
    pads = _pad_positions(spec, xs, ys, rng)
    pad_pixels: list[tuple[int, int]] = []
    placed: set[tuple[int, int]] = set()
    for k, (x, y) in enumerate(pads, start=1):
        if (x, y) not in node_sets[top.index]:
            # snap to the nearest actual top-layer node
            x, y = min(
                node_sets[top.index],
                key=lambda p: (p[0] - x) ** 2 + (p[1] - y) ** 2,
            )
        if (x, y) in placed:
            continue
        placed.add((x, y))
        netlist.voltage_sources.append(
            VoltageSource(
                f"V{k}", node_name(top.index, x, y), "0", spec.supply_voltage
            )
        )
        pad_pixels.append(geometry.to_pixel(x, y))
    return netlist, pad_pixels
