"""``build_reduced_system`` against the per-wire loop it replaced, bitwise.

``_loop_stamp`` is that loop, moved here from ``repro.mna.stamper``: it
walks node records (``node(i)``) and the rows of ``wire_arrays()`` one at
a time and is the reference for the order every sum is taken in.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data.synthetic import generate_design, make_fake_spec, make_real_spec
from repro.grid.netlist import PowerGrid
from repro.mna.stamper import build_reduced_system
from repro.spice.ast import CurrentSource, Resistor, VoltageSource


def _loop_stamp(grid):
    nodes = [grid.node(i) for i in range(grid.num_nodes)]
    pad_voltages = {n.index: n.pad_voltage for n in grid.pads()}
    unknown_indices = np.array(
        [n.index for n in nodes if not n.is_pad], dtype=np.int64
    )
    row_of = {int(g): r for r, g in enumerate(unknown_indices)}
    n_unknown = len(unknown_indices)

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    rhs = np.zeros(n_unknown, dtype=float)

    diag = np.zeros(n_unknown, dtype=float)
    node_a, node_b, resistance = (column.tolist() for column in grid.wire_arrays())
    for a, b, ohms in zip(node_a, node_b, resistance):
        g = 1.0 / ohms
        a_row = row_of.get(a)
        b_row = row_of.get(b)
        if a_row is not None:
            diag[a_row] += g
        if b_row is not None:
            diag[b_row] += g
        if a_row is not None and b_row is not None:
            rows.extend((a_row, b_row))
            cols.extend((b_row, a_row))
            vals.extend((-g, -g))
        elif a_row is not None:
            rhs[a_row] += g * pad_voltages[b]
        elif b_row is not None:
            rhs[b_row] += g * pad_voltages[a]
        # pad-to-pad wires contribute nothing to the reduced system

    for node in nodes:
        row = row_of.get(node.index)
        if row is not None and node.load_current:
            rhs[row] -= node.load_current

    rows.extend(range(n_unknown))
    cols.extend(range(n_unknown))
    vals.extend(diag)

    matrix = sp.csr_matrix(
        (vals, (rows, cols)), shape=(n_unknown, n_unknown), dtype=float
    )
    matrix.sum_duplicates()
    return matrix, rhs, unknown_indices, pad_voltages


def as_generated(netlist):
    pass


def floating_island(netlist):
    netlist.resistors.append(Resistor("Risl", "island_a", "island_b", 0.7))
    netlist.current_sources.append(CurrentSource("Iisl", "island_a", "0", 0.003))


def pad_to_pad_wire(netlist):
    wire = netlist.resistors[0]
    volts = netlist.supply_voltage()
    for k, node in enumerate((wire.node_a, wire.node_b)):
        netlist.voltage_sources.append(VoltageSource(f"Vpp{k}", node, "0", volts))


def parallel_resistors(netlist):
    for k, wire in enumerate(netlist.resistors[:40:4]):
        # same ends, both orientations, values that do not sum exactly
        netlist.resistors.append(
            Resistor(f"Rpar{k}", wire.node_b, wire.node_a, wire.resistance * 3.3)
        )
        netlist.resistors.append(
            Resistor(f"Rpaq{k}", wire.node_a, wire.node_b, wire.resistance / 7.1)
        )


def current_source_only_node(netlist):
    netlist.current_sources.append(CurrentSource("Ilone", "lonely", "0", 0.002))


VARIANTS = [
    as_generated, floating_island, pad_to_pad_wire, parallel_resistors,
    current_source_only_node,
]


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.__name__)
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("make_spec", [make_fake_spec, make_real_spec])
def test_stamp_equals_the_loop_bitwise(make_spec, seed, variant):
    netlist = generate_design(make_spec("oracle", seed=seed, pixels=16)).netlist
    variant(netlist)
    grid = PowerGrid.from_netlist(netlist)

    system = build_reduced_system(grid, validate=False, check_diagonal=False)
    matrix, rhs, unknown_indices, pad_voltages = _loop_stamp(grid)

    for stamped, looped in (
        (system.matrix.data, matrix.data),
        (system.matrix.indices, matrix.indices),
        (system.matrix.indptr, matrix.indptr),
        (system.rhs, rhs),
        (system.unknown_indices, unknown_indices),
    ):
        assert stamped.dtype == looped.dtype
        assert stamped.tobytes() == looped.tobytes()
    assert system.pad_voltages == pad_voltages
    assert system.row_map() == {int(g): r for r, g in enumerate(unknown_indices)}

    x = np.linspace(0.0, 1.0, system.size)
    full = system.scatter(x)
    assert np.array_equal(full[unknown_indices], x)
    assert all(full[index] == volts for index, volts in pad_voltages.items())
