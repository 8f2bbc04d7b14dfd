"""Configurations: the multiset of robot positions at one instant.

A :class:`Configuration` couples robot positions with the visibility
range and offers the geometric and graph-theoretic measures the paper's
analysis is phrased in: visibility graph and its connectivity, convex
hull perimeter/diameter, smallest bounding circle, and the cohesion
predicate relative to an earlier configuration.

The positions are ``(n, 2)`` float rows, held read-only: the workload
generators build rows, and the engine, the edge builder and the
diameter and separation readers take them without a Point per robot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from ..geometry.hull import ConvexHull
from ..geometry.minbox import BoundingBox
from ..geometry.pairs import min_pairwise_distance_grid, rows_diameter
from ..geometry.point import Point, PointLike, PointRows, centroid
from ..geometry.sec import smallest_enclosing_circle
from .visibility import (
    Edge,
    broken_edges,
    connected_components,
    edges_preserved,
    is_connected,
    strong_visibility_edges,
    visibility_edges,
)


@dataclass(frozen=True)
class Configuration:
    """Positions of all robots at one instant, plus the visibility range.

    ``positions`` is a :class:`~repro.geometry.point.PointRows`: it reads
    as a tuple of Points, built on access, over read-only ``(n, 2)``
    rows.  Any point-like sequence or ``(n, 2)`` array may be given.
    """

    positions: PointRows
    visibility_range: float

    def __post_init__(self) -> None:
        if type(self.positions) is not PointRows:
            object.__setattr__(self, "positions", PointRows(self.positions))
        if self.visibility_range <= 0.0:
            raise ValueError("visibility range must be positive")

    @staticmethod
    def of(positions: Sequence[PointLike], visibility_range: float) -> "Configuration":
        """Build a configuration from any point-like sequence or ``(n, 2)`` rows."""
        return Configuration(positions, float(visibility_range))

    # -- basics -----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, index: int) -> Point:
        return self.positions[index]

    def as_array(self) -> np.ndarray:
        """Positions as the read-only ``(n, 2)`` rows."""
        return self.positions.rows

    def with_positions(self, positions: Sequence[PointLike]) -> "Configuration":
        """A configuration with the same range but new positions."""
        return Configuration.of(positions, self.visibility_range)

    def translated(self, offset: PointLike) -> "Configuration":
        """The whole configuration translated by ``offset``."""
        offset = Point.of(offset)
        return self.with_positions([p + offset for p in self.positions])

    def scaled(self, factor: float, about: Optional[PointLike] = None) -> "Configuration":
        """The configuration scaled about ``about`` (default: its centroid)."""
        center = Point.of(about) if about is not None else centroid(self.positions)
        return self.with_positions([center + (p - center) * factor for p in self.positions])

    # -- visibility graph ---------------------------------------------------------
    def edges(self) -> Set[Edge]:
        """Edges of the visibility graph."""
        return visibility_edges(self.positions, self.visibility_range)

    def strong_edges(self) -> Set[Edge]:
        """Edges of the strong-visibility graph (separation at most V/2)."""
        return strong_visibility_edges(self.positions, self.visibility_range)

    def is_connected(self) -> bool:
        """True when the visibility graph is connected."""
        return is_connected(self.positions, self.visibility_range)

    def components(self) -> List[Set[int]]:
        """Connected components of the visibility graph."""
        return connected_components(len(self.positions), self.edges())

    def preserves_edges_of(self, other: "Configuration") -> bool:
        """Cohesion check: every visibility edge of ``other`` is an edge here."""
        return edges_preserved(other.edges(), self.positions, self.visibility_range)

    def broken_edges_of(self, other: "Configuration") -> Set[Edge]:
        """The visibility edges of ``other`` that are broken here."""
        return broken_edges(other.edges(), self.positions, self.visibility_range)

    def degree(self, index: int) -> int:
        """Number of robots visible from robot ``index``."""
        return sum(1 for (i, j) in self.edges() if i == index or j == index)

    # -- geometric measures --------------------------------------------------------
    def hull(self) -> ConvexHull:
        """Convex hull of the robot positions."""
        return ConvexHull.of(self.positions)

    def hull_diameter(self) -> float:
        """Diameter of the convex hull (the paper's convergence measure)."""
        return rows_diameter(self.positions.rows)

    def hull_perimeter(self) -> float:
        """Perimeter of the convex hull."""
        return self.hull().perimeter()

    def hull_radius(self) -> float:
        """Radius of the smallest circle enclosing all robots."""
        return smallest_enclosing_circle(self.positions).radius

    def bounding_box(self) -> BoundingBox:
        """Minimal axis-aligned bounding box."""
        return BoundingBox.of(self.positions)

    def centroid(self) -> Point:
        """Centre of gravity of the configuration."""
        return centroid(self.positions)

    def min_pairwise_distance(self) -> float:
        """Smallest separation between distinct robots (collision measure)."""
        return min_pairwise_distance_grid(self.positions.rows, self.visibility_range)

    def within_epsilon(self, epsilon: float) -> bool:
        """Point-Convergence check: every pairwise separation at most ``epsilon``."""
        return self.hull_diameter() <= epsilon

    def multiplicity_points(self, *, eps: float = 1e-12) -> List[Tuple[Point, int]]:
        """Positions occupied by more than one robot, with their counts."""
        groups: List[Tuple[Point, int]] = []
        for p in self.positions:
            for i, (q, count) in enumerate(groups):
                if q.distance_to(p) <= eps:
                    groups[i] = (q, count + 1)
                    break
            else:
                groups.append((p, 1))
        return [(p, c) for p, c in groups if c > 1]
