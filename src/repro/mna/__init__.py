"""Modified nodal analysis: assembling ``Gx = I`` from a :class:`PowerGrid`.

:func:`~repro.mna.stamper.build_reduced_system` eliminates the pad
voltages, leaving a symmetric positive-definite system over the unknown
nodes.  This is what every solver in :mod:`repro.solvers` consumes.
"""

from repro.mna.post import branch_currents, kcl_residuals, pad_currents
from repro.mna.stamper import build_reduced_system
from repro.mna.system import ReducedSystem

__all__ = [
    "branch_currents",
    "kcl_residuals",
    "pad_currents",
    "ReducedSystem",
    "build_reduced_system",
]
