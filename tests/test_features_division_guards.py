"""Degenerate-input regressions for the feature/smoother division guards.

Zero currents, zero resistances and zero sheet resistances must never
turn into NaN/Inf in a feature channel or a smoother sweep.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.features.current import layer_current_maps, load_current_map
from repro.features.distance import effective_distance_map
from repro.features.resistance import resistance_map
from repro.grid.geometry import GridGeometry, LayerInfo
from repro.grid.netlist import PowerGrid
from repro.spice.parser import parse_spice
from tests.reference_smoothers import jacobi, sor

ZERO_CURRENT_DECK = """* all loads draw zero current
R1 n1_m1_0_0 n1_m1_1000_0 1.0
R2 n1_m1_0_0 n1_m1_0_1000 1.0
I1 n1_m1_1000_0 0 0.0
I2 n1_m1_0_1000 0 0.0
V1 n1_m1_0_0 0 1.0
.end
"""

ZERO_RESISTANCE_DECK = """* near-shorted wires (0-ohm straps are rejected upstream)
R1 n1_m1_0_0 n1_m1_1000_0 1e-12
R2 n1_m1_0_0 n1_m1_0_1000 1e-12
I1 n1_m1_1000_0 0 0.01
V1 n1_m1_0_0 0 1.0
.end
"""


def _geometry(sheet_resistance: float) -> GridGeometry:
    layers = tuple(
        LayerInfo(i, 1000 * i, "h" if i % 2 else "v",
                  sheet_resistance=sheet_resistance)
        for i in (1, 2)
    )
    return GridGeometry(2000, 2000, 1000, 1000, layers)


def _grid(deck: str) -> PowerGrid:
    return PowerGrid.from_netlist(parse_spice(deck))


def test_zero_current_loads_give_finite_maps():
    grid = _grid(ZERO_CURRENT_DECK)
    geometry = _geometry(1.0)
    assert np.isfinite(load_current_map(geometry, grid)).all()
    for image in layer_current_maps(geometry, grid).values():
        assert np.isfinite(image).all()
    assert np.isfinite(effective_distance_map(geometry, grid)).all()


def test_zero_resistance_wires_give_finite_maps():
    grid = _grid(ZERO_RESISTANCE_DECK)
    geometry = _geometry(1.0)
    assert np.isfinite(resistance_map(geometry, grid)).all()
    assert np.isfinite(effective_distance_map(geometry, grid)).all()


def test_zero_sheet_resistance_stack_gives_finite_shares():
    grid = _grid(ZERO_CURRENT_DECK)
    geometry = _geometry(0.0)
    maps = layer_current_maps(geometry, grid)
    for image in maps.values():
        assert np.isfinite(image).all()


def test_jacobi_rejects_zero_diagonal():
    matrix = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        jacobi(matrix, np.ones(2), np.zeros(2))


def test_jacobi_still_converges_on_spd_system():
    matrix = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    rhs = np.array([1.0, 2.0])
    x = jacobi(matrix, rhs, np.zeros(2), sweeps=200)
    assert np.allclose(matrix @ x, rhs, atol=1e-8)


def test_sor_still_converges_on_spd_system():
    matrix = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    rhs = np.array([1.0, 2.0])
    x = sor(matrix, rhs, np.zeros(2), sweeps=100, omega=1.2)
    assert np.allclose(matrix @ x, rhs, atol=1e-8)
