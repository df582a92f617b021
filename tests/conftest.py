"""Shared fixtures, and float traps for the whole suite.

Expensive artefacts (generated designs, built samples) are session-scoped;
tests must treat them as immutable.

A division by zero, an overflow or an invalid operation raises
``FloatingPointError`` anywhere in the suite, so arithmetic that makes
inf or NaN on real data fails a test.  Code that makes one on purpose
says so in a local ``np.errstate`` block.  Underflow stays off: a flush
to zero is benign.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import IRDropDataset, build_sample
from repro.data.synthetic import generate_design, make_fake_spec, make_real_spec
from repro.grid.netlist import PowerGrid
from repro.spice.parser import parse_spice

np.seterr(divide="raise", over="raise", invalid="raise")

TINY_DECK = """* tiny 2x2 test grid
R1 n1_m1_0_0 n1_m1_1000_0 1.0
R2 n1_m1_0_1000 n1_m1_1000_1000 2.0
R3 n1_m1_0_0 n1_m1_0_1000 1.0
R4 n1_m1_1000_0 n1_m1_1000_1000 1.0
I1 n1_m1_1000_1000 0 0.01
I2 n1_m1_1000_0 0 0.005
V1 n1_m1_0_0 0 1.05
.end
"""


@pytest.fixture(scope="session")
def tiny_netlist():
    return parse_spice(TINY_DECK)


@pytest.fixture(scope="session")
def tiny_grid(tiny_netlist):
    return PowerGrid.from_netlist(tiny_netlist)


@pytest.fixture(scope="session")
def fake_design():
    """A small regular design (16x16 px, 3 layers)."""
    return generate_design(
        make_fake_spec("fx_fake", seed=11, pixels=16, num_layers=3)
    )


@pytest.fixture(scope="session")
def real_design():
    """A small irregular design (16x16 px, 3 layers)."""
    return generate_design(
        make_real_spec("fx_real", seed=12, pixels=16, num_layers=3)
    )


@pytest.fixture(scope="session")
def fake_sample(fake_design):
    return build_sample(fake_design, solver_iterations=2)


@pytest.fixture(scope="session")
def real_sample(real_design):
    return build_sample(real_design, solver_iterations=2)


@pytest.fixture(scope="session")
def tiny_dataset(fake_sample, real_sample):
    return IRDropDataset([fake_sample, real_sample])


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
