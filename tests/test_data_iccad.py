"""Unit tests for the ICCAD-2023-style design directory writer.

The layout is read back inline (``parse_spice_file`` and ``np.loadtxt``),
as a contest tool would read it.
"""

import numpy as np
import pytest

from repro.data.iccad import save_iccad_design
from repro.spice.parser import parse_spice_file

FILES = {
    "current": "current_map.csv",
    "eff_dist": "eff_dist_map.csv",
    "pdn_density": "pdn_density.csv",
    "ir_drop": "ir_drop_map.csv",
}


def test_roundtrip(tmp_path, fake_design, rng):
    images = {key: rng.random((16, 16)) for key in FILES}
    save_iccad_design(tmp_path / "d1", fake_design.netlist, images)
    netlist = parse_spice_file(tmp_path / "d1" / "netlist.sp")
    assert len(netlist.resistors) == len(fake_design.netlist.resistors)
    for key, image in images.items():
        loaded = np.loadtxt(tmp_path / "d1" / FILES[key], delimiter=",", ndmin=2)
        assert np.allclose(loaded, image)


def test_partial_images(tmp_path, fake_design, rng):
    save_iccad_design(
        tmp_path / "d2", fake_design.netlist, {"current": rng.random((8, 8))}
    )
    written = {path.name for path in (tmp_path / "d2").iterdir()}
    assert written == {"netlist.sp", FILES["current"]}


def test_unknown_image_key_rejected(tmp_path, fake_design):
    with pytest.raises(ValueError):
        save_iccad_design(
            tmp_path / "d3", fake_design.netlist, {"bogus": np.zeros((2, 2))}
        )
