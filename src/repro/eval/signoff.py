"""Signoff-style IR-drop checking on predicted (or golden) drop maps.

The practical consumer of an IR-drop map is a signoff check: is the worst
drop within budget, and if not, where are the violating regions?  This
module turns a drop image into a :class:`SignoffReport` with the connected
violation regions (8-connected components above the limit), their extents
and severities — the artefact a designer acts on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage


@dataclass(frozen=True)
class ViolationRegion:
    """One connected cluster of pixels exceeding the drop limit.

    Attributes
    ----------
    pixel_count:
        Region area in pixels.
    worst_drop:
        Maximum drop inside the region (volts).
    centroid:
        (row, col) centre of mass.
    bounding_box:
        (row_min, col_min, row_max, col_max), inclusive.
    """

    pixel_count: int
    worst_drop: float
    centroid: tuple[float, float]
    bounding_box: tuple[int, int, int, int]


@dataclass(frozen=True)
class SignoffReport:
    """Outcome of one signoff check.

    Attributes
    ----------
    limit:
        The drop budget applied (volts).
    worst_drop:
        Global maximum drop (volts).
    violation_area_fraction:
        Fraction of die pixels above the limit.
    regions:
        Violation clusters, sorted by worst drop (most severe first).
    """

    limit: float
    worst_drop: float
    violation_area_fraction: float
    regions: tuple[ViolationRegion, ...]

    @property
    def passed(self) -> bool:
        return not self.regions

    def summary(self) -> str:
        """One-paragraph human-readable verdict."""
        if self.passed:
            return (
                f"PASS: worst IR drop {self.worst_drop * 1e3:.2f} mV within "
                f"the {self.limit * 1e3:.2f} mV budget."
            )
        worst = self.regions[0]
        return (
            f"FAIL: {len(self.regions)} violation region(s), "
            f"{self.violation_area_fraction:.1%} of the die above "
            f"{self.limit * 1e3:.2f} mV; worst region peaks at "
            f"{worst.worst_drop * 1e3:.2f} mV around pixel "
            f"({worst.centroid[0]:.0f}, {worst.centroid[1]:.0f})."
        )


def check_limit(limit: float) -> None:
    """Raise ``ValueError`` unless *limit* (volts) is positive and finite."""
    if not 0 < limit < np.inf:
        raise ValueError(f"limit must be positive and finite, got {limit}")


def check_ir_drop(drop_map: np.ndarray, limit: float) -> SignoffReport:
    """Run the signoff check on a 2D drop image.

    Parameters
    ----------
    drop_map:
        Bottom-layer IR-drop image in volts.
    limit:
        Maximum tolerated drop in volts (e.g. 5 % of vdd).

    Raises ``ValueError`` for a limit that is not positive and finite,
    and for a map with any non-finite pixel: NaN compares false against
    every limit, so either would pass sign-off unchecked.
    """
    drop_map = np.asarray(drop_map, dtype=float)
    if drop_map.ndim != 2:
        raise ValueError(f"expected a 2D drop map, got shape {drop_map.shape}")
    check_limit(limit)
    non_finite = int(np.count_nonzero(~np.isfinite(drop_map)))
    if non_finite:
        raise ValueError(
            f"drop map has {non_finite} non-finite pixel(s) of {drop_map.size}"
        )

    mask = drop_map > limit
    structure = np.ones((3, 3), dtype=bool)  # 8-connectivity
    labels, count = ndimage.label(mask, structure=structure)

    regions: list[ViolationRegion] = []
    for region_id in range(1, count + 1):
        region_mask = labels == region_id
        rows, cols = np.nonzero(region_mask)
        regions.append(
            ViolationRegion(
                pixel_count=int(region_mask.sum()),
                worst_drop=float(drop_map[region_mask].max()),
                centroid=(float(rows.mean()), float(cols.mean())),
                bounding_box=(
                    int(rows.min()),
                    int(cols.min()),
                    int(rows.max()),
                    int(cols.max()),
                ),
            )
        )
    regions.sort(key=lambda region: region.worst_drop, reverse=True)
    return SignoffReport(
        limit=limit,
        worst_drop=float(drop_map.max()),
        violation_area_fraction=float(mask.mean()),
        regions=tuple(regions),
    )
