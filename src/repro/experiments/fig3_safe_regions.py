"""Experiment F3 — Figure 3: safe-region comparison.

Figure 3 of the paper contrasts the shape of the safe region a robot uses
with respect to one neighbour under Ando et al., Katreniak, and the
paper's scheme.  This experiment quantifies the comparison on a sweep of
observer/neighbour separations: the area of each region, the largest move
toward the neighbour it allows, and the containment relations the paper's
discussion relies on (the paper's region is much smaller than both
predecessors and is defined for *distant* neighbours only, independent of
the actual distance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..algorithms.safe_regions import (
    ando_safe_region_local,
    katreniak_safe_region_local,
    kknps_safe_region_local,
)
from ..analysis.tables import TextTable
from ..geometry.point import Point


@dataclass(frozen=True)
class SafeRegionRow:
    """Safe-region measures for one observer/neighbour separation."""

    separation: float
    ando_radius: float
    ando_area: float
    katreniak_area: float
    kknps_radius: float
    kknps_area: float
    kknps_max_step: float
    kknps_inside_ando: bool


@dataclass
class Figure3Result:
    """All rows of the Figure-3 comparison plus the scaling sweep over k."""

    visibility_range: float
    rows: List[SafeRegionRow] = field(default_factory=list)
    k_sweep: List[tuple] = field(default_factory=list)

    def to_table(self) -> TextTable:
        """Figure-3 style comparison table."""
        table = TextTable(
            "Figure 3 — safe regions of Ando / Katreniak / KKNPS (V = "
            f"{self.visibility_range})",
            [
                "|X0 Y0| / V",
                "Ando radius",
                "Ando area",
                "Katreniak area",
                "KKNPS radius",
                "KKNPS area",
                "KKNPS max step",
                "KKNPS inside Ando",
            ],
        )
        for row in self.rows:
            table.add_row(
                row.separation / self.visibility_range,
                row.ando_radius,
                row.ando_area,
                row.katreniak_area,
                row.kknps_radius,
                row.kknps_area,
                row.kknps_max_step,
                row.kknps_inside_ando,
            )
        return table

    def k_table(self) -> TextTable:
        """How the 1/k scaling shrinks the paper's safe region."""
        table = TextTable(
            "Figure 3 (cont.) — 1/k scaling of the KKNPS safe region",
            ["k", "radius / V", "max planned move / V"],
        )
        for k, radius, max_move in self.k_sweep:
            table.add_row(k, radius, max_move)
        return table


def _katreniak_area(neighbour: Point, v_lower: float, *, samples: int = 40_000, seed: int = 0) -> float:
    """Monte-Carlo area of Katreniak's two-disk union region."""
    region = katreniak_safe_region_local(neighbour, v_lower)
    radius = max(d.center.norm() + d.radius for d in region.disks())
    rng = np.random.default_rng(seed)
    box = 2.0 * radius
    points = rng.uniform(-radius, radius, size=(samples, 2))
    # Batched union membership: one contains_array call per disk instead
    # of `samples` scalar contains() calls, verdict-for-verdict identical.
    hits = int(np.count_nonzero(region.contains_array(points[:, 0], points[:, 1])))
    return hits / samples * box * box


def run(
    *,
    visibility_range: float = 1.0,
    separations: tuple = (0.55, 0.7, 0.85, 1.0),
    k_values: tuple = (1, 2, 4, 8),
    area_samples: int = 20_000,
) -> Figure3Result:
    """Run the Figure-3 comparison.

    ``separations`` are observer/neighbour distances as fractions of ``V``;
    only values above 1/2 are used because the paper's region is defined
    for distant neighbours.
    """
    v = visibility_range
    result = Figure3Result(visibility_range=v)
    for fraction in separations:
        gap = fraction * v
        neighbour = Point(gap, 0.0)
        # The observer's farthest neighbour is assumed to be this one, so V_Y = gap.
        ando = ando_safe_region_local(neighbour, v)
        kknps = kknps_safe_region_local(neighbour, gap)
        katreniak_area = _katreniak_area(neighbour, gap, samples=area_samples)
        result.rows.append(
            SafeRegionRow(
                separation=gap,
                ando_radius=ando.radius,
                ando_area=ando.area(),
                katreniak_area=katreniak_area,
                kknps_radius=kknps.radius,
                kknps_area=kknps.area(),
                kknps_max_step=kknps.center.norm() + kknps.radius,
                kknps_inside_ando=ando.contains_disk(kknps),
            )
        )
    for k in k_values:
        scaled = kknps_safe_region_local(Point(v, 0.0), v, alpha=1.0 / k)
        result.k_sweep.append((k, scaled.radius / v, (scaled.center.norm() + scaled.radius) / v))
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    result = run()
    print(result.to_table().render())
    print()
    print(result.k_table().render())


if __name__ == "__main__":  # pragma: no cover
    main()
