"""Configurations, visibility and snapshots in three dimensions.

The 3D extension reuses the OBLOT semantics of the planar model: limited
visibility radius ``V``, visibility graph connectivity, and snapshots of
relative positions.  Only the geometry changes (balls instead of disks).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Set, Tuple, Union

import numpy as np

from ..geometry.pairs import grid_connected, grid_edges, rows_diameter
from ..geometry.tolerances import EPS
from .vector3 import Vector3, Vector3Like, centroid3

Edge = Tuple[int, int]


def positions_as_array3(positions: Sequence[Vector3Like]) -> np.ndarray:
    """A sequence of 3D points as a contiguous ``(n, 3)`` float array."""
    pts = [Vector3.of(p) for p in positions]
    out = np.empty((len(pts), 3), dtype=float)
    for i, p in enumerate(pts):
        out[i, 0] = p.x
        out[i, 1] = p.y
        out[i, 2] = p.z
    return out


def visibility_edges3(
    positions: Sequence[Vector3Like], visibility_range: float, *, eps: float = EPS
) -> Set[Edge]:
    """All pairs ``(i, j)`` with ``i < j`` whose separation is at most ``V``.

    Enumerated from a covering grid (:func:`~repro.geometry.pairs.grid_edges`)
    in O(n + |E|), with the dense per-pair arithmetic.
    """
    i, j = grid_edges(positions_as_array3(positions), visibility_range + eps)
    return set(zip(i.tolist(), j.tolist()))


def is_connected3(
    positions: Sequence[Vector3Like], visibility_range: float, *, eps: float = EPS
) -> bool:
    """Connectivity of the 3D visibility graph, decided without holding its edges."""
    return grid_connected(positions_as_array3(positions), visibility_range + eps)


def edges_preserved3(
    initial_edges: Set[Edge],
    positions: Sequence[Vector3Like],
    visibility_range: float,
    *,
    eps: float = EPS,
) -> bool:
    """The 3D cohesion predicate ``E(0) ⊆ E(t)``."""
    current = visibility_edges3(positions, visibility_range, eps=eps)
    return all(edge in current for edge in initial_edges)


@dataclass(frozen=True)
class Configuration3:
    """Positions of all robots in 3-space plus the visibility range."""

    positions: tuple
    visibility_range: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "positions", tuple(Vector3.of(p) for p in self.positions))
        if self.visibility_range <= 0.0:
            raise ValueError("visibility range must be positive")

    @staticmethod
    def of(positions: Sequence[Vector3Like], visibility_range: float) -> "Configuration3":
        """Build a configuration from any vector-like sequence."""
        return Configuration3(tuple(Vector3.of(p) for p in positions), float(visibility_range))

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, index: int) -> Vector3:
        return self.positions[index]

    def edges(self) -> Set[Edge]:
        """Edges of the 3D visibility graph."""
        return visibility_edges3(self.positions, self.visibility_range)

    def is_connected(self) -> bool:
        """Connectivity of the 3D visibility graph."""
        return is_connected3(self.positions, self.visibility_range)

    def diameter(self) -> float:
        """Largest pairwise separation (the metrics samples' diameter scan)."""
        return rows_diameter(positions_as_array3(self.positions))

    def centroid(self) -> Vector3:
        """Centre of gravity of the configuration."""
        return centroid3(self.positions)

    def within_epsilon(self, epsilon: float) -> bool:
        """Point-Convergence predicate."""
        return self.diameter() <= epsilon

    def preserves_edges_of(self, other: "Configuration3") -> bool:
        """3D cohesion check against an earlier configuration."""
        return edges_preserved3(other.edges(), self.positions, self.visibility_range)


class ConfigurationViews3:
    """A 3D result's ``(n, 3)`` start and end rows as :class:`Configuration3` views.

    The views are built on first access from ``initial_positions``,
    ``final_positions`` and ``visibility_range``.
    """

    @cached_property
    def initial_configuration(self) -> Configuration3:
        return Configuration3.of(self.initial_positions, self.visibility_range)

    @cached_property
    def final_configuration(self) -> Configuration3:
        return Configuration3.of(self.final_positions, self.visibility_range)


@dataclass(frozen=True)
class Snapshot3:
    """Perceived relative positions of visible robots in 3-space."""

    neighbours: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "neighbours", tuple(Vector3.of(p) for p in self.neighbours))

    def has_neighbours(self) -> bool:
        """True when at least one other robot is visible."""
        return len(self.neighbours) > 0

    def farthest_distance(self) -> float:
        """The lower bound ``V_Y`` on the unknown visibility range."""
        if not self.neighbours:
            return 0.0
        return max(p.norm() for p in self.neighbours)

    def distant_neighbours(self, close_fraction: float = 0.5) -> List[Vector3]:
        """Neighbours farther than ``close_fraction * V_Y``."""
        v_y = self.farthest_distance()
        if v_y <= EPS:
            return []
        threshold = close_fraction * v_y
        distant = [p for p in self.neighbours if p.norm() > threshold + EPS]
        if not distant:
            distant = [max(self.neighbours, key=lambda p: p.norm())]
        return distant


def build_snapshot3(
    observer: Vector3Like,
    others: Sequence[Vector3Like],
    visibility_range: float,
    *,
    rng: Union[np.random.Generator, None] = None,
    rotate_frame: bool = True,
) -> Snapshot3:
    """Snapshot of ``others`` as seen from ``observer``.

    When ``rotate_frame`` is set (the default), the relative positions are
    expressed in a uniformly random orthonormal frame, modelling the
    disorientation of the robots; the algorithm below is equivariant so the
    rotation has no effect on the executed motion, but exercising it keeps
    the extension honest.
    """
    observer = Vector3.of(observer)
    relative = [
        Vector3.of(p) - observer
        for p in others
        if EPS < observer.distance_to(p) <= visibility_range + EPS
    ]
    if rotate_frame and rng is not None and relative:
        # Random rotation via QR decomposition of a Gaussian matrix.
        matrix, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(matrix) < 0:
            matrix[:, 0] = -matrix[:, 0]
        relative = [Vector3.of(matrix @ v.as_array()) for v in relative]
    return Snapshot3(neighbours=tuple(relative))
