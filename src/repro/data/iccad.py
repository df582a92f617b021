"""ICCAD-2023-contest-style on-disk design format.

The contest distributes each design as a directory holding the SPICE deck
plus CSV images (one value per 1um x 1um pixel): ``current_map.csv``,
``eff_dist_map.csv``, ``pdn_density.csv`` and the golden
``ir_drop_map.csv``.  These helpers write/read that layout so externally
produced contest data can be dropped in, and our synthetic data can be
exported for other tools.
"""

from __future__ import annotations

import os
from pathlib import Path
from types import MappingProxyType

import numpy as np

from repro.spice.ast import Netlist
from repro.spice.parser import parse_spice_file
from repro.spice.writer import write_spice

_IMAGE_FILES = MappingProxyType({
    "current": "current_map.csv",
    "eff_dist": "eff_dist_map.csv",
    "pdn_density": "pdn_density.csv",
    "ir_drop": "ir_drop_map.csv",
})


def save_iccad_design(
    directory: str | os.PathLike[str],
    netlist: Netlist,
    images: dict[str, np.ndarray],
) -> None:
    """Write a design directory in the contest layout.

    Parameters
    ----------
    images:
        Any subset of ``current`` / ``eff_dist`` / ``pdn_density`` /
        ``ir_drop`` keyed by short name.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    write_spice(netlist, path / "netlist.sp")
    for key, image in images.items():
        if key not in _IMAGE_FILES:
            raise ValueError(
                f"unknown image key {key!r}; expected one of {sorted(_IMAGE_FILES)}"
            )
        np.savetxt(path / _IMAGE_FILES[key], np.asarray(image), delimiter=",")


def load_iccad_design(
    directory: str | os.PathLike[str],
) -> tuple[Netlist, dict[str, np.ndarray]]:
    """Read a contest-layout design directory.

    Returns the parsed netlist and whichever images are present.
    """
    path = Path(directory)
    deck = path / "netlist.sp"
    if not deck.exists():
        raise FileNotFoundError(f"no netlist.sp under {path}")
    netlist = parse_spice_file(deck)
    images: dict[str, np.ndarray] = {}
    for key, filename in _IMAGE_FILES.items():
        file_path = path / filename
        if file_path.exists():
            images[key] = np.loadtxt(file_path, delimiter=",", ndmin=2)
    return netlist, images
