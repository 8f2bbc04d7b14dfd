"""Configurations, visibility and snapshots in three dimensions.

The 3D extension reuses the OBLOT semantics of the planar model: limited
visibility radius ``V``, visibility graph connectivity, and snapshots of
relative positions.  Only the geometry changes (balls instead of disks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple, Union

import numpy as np

from ..engine.metrics import grid_edges
from ..geometry.tolerances import EPS
from ..model.visibility import connected_components
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


def _pairwise_squared3(rows: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """The ``(m, n)`` squared distances from ``(m, 3)`` rows to ``(n, 3)`` points.

    Component arithmetic mirrors :meth:`Vector3.distance_to` (squares
    summed left to right), so with one correctly-rounded square root per
    consumer the derived distances are bit-identical to the scalar path.
    """
    delta = rows[:, None, 0] - arr[None, :, 0]
    squared = delta * delta
    for axis in (1, 2):
        delta = rows[:, None, axis] - arr[None, :, axis]
        squared += delta * delta
    return squared


def pairwise_distances3_array(positions: np.ndarray) -> np.ndarray:
    """The full ``(n, n)`` distance matrix of an ``(n, 3)`` position array."""
    arr = np.asarray(positions, dtype=float)
    return np.sqrt(_pairwise_squared3(arr, arr))


#: Row cap and pair budget of one block of the exact diameter scan: a
#: block holds ``min(512, budget // n)`` rows (at least one), so each of
#: its float64 temporaries stays within 32 MiB for any n up to 2**22.
_DIAMETER_BLOCK_ROWS = 512
_DIAMETER_BLOCK_PAIRS = 1 << 22


def max_pairwise_distance3_array(positions: np.ndarray) -> float:
    """Diameter of an ``(n, 3)`` point array (0 for fewer than two points).

    Bit-identical to :func:`~repro.spatial3d.vector3.max_pairwise_distance3`
    on the same points: ``sqrt`` is monotone and correctly rounded, so
    reducing the squared distances first and rooting once preserves the
    scalar path's floats.  The scan runs in row blocks, each against the
    points from its own first row on, so memory stays bounded and every
    pair is reduced once or twice (a pair's squared distance is the same
    float in either order).
    """
    arr = np.asarray(positions, dtype=float)
    n = len(arr)
    if n < 2:
        return 0.0
    step = max(1, min(_DIAMETER_BLOCK_ROWS, _DIAMETER_BLOCK_PAIRS // n))
    best = 0.0
    for start in range(0, n, step):
        squared = _pairwise_squared3(arr[start:start + step], arr[start:])
        best = max(best, float(squared.max()))
    return math.sqrt(best)


def min_pairwise_distance3_array(positions: np.ndarray) -> float:
    """Smallest separation between two distinct robots (0 below two points)."""
    arr = np.asarray(positions, dtype=float)
    n = len(arr)
    if n < 2:
        return 0.0
    squared = _pairwise_squared3(arr, arr)
    return float(math.sqrt(squared[~np.eye(n, dtype=bool)].min()))


def edge_index_array(edges: Set[Edge]) -> np.ndarray:
    """A visibility edge set as a sorted ``(E, 2)`` integer index array."""
    if not edges:
        return np.empty((0, 2), dtype=np.intp)
    return np.array(sorted(edges), dtype=np.intp)


def edge_lengths3_array(edge_index: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Current lengths of the given edges — an O(E) gather, no full matrix."""
    index = np.asarray(edge_index, dtype=np.intp).reshape(-1, 2)
    if index.size == 0:
        return np.empty(0, dtype=float)
    arr = np.asarray(positions, dtype=float)
    diff = arr[index[:, 0]] - arr[index[:, 1]]
    squared = (
        diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1] + diff[:, 2] * diff[:, 2]
    )
    return np.sqrt(squared)


def edges_preserved3_array(
    edge_index: np.ndarray,
    positions: np.ndarray,
    visibility_range: float,
    *,
    eps: float = EPS,
) -> bool:
    """The cohesion predicate on arrays: every given edge still within ``V``.

    Decides exactly what :func:`edges_preserved3` decides (an edge is
    preserved iff its endpoints are within ``V + eps``), without
    rebuilding the full current edge set.
    """
    lengths = edge_lengths3_array(edge_index, positions)
    if lengths.size == 0:
        return True
    return bool((lengths <= visibility_range + eps).all())


def max_edge_stretch3(edge_index: np.ndarray, positions: np.ndarray) -> float:
    """Largest current separation among the given pairs (0 with no edges)."""
    lengths = edge_lengths3_array(edge_index, positions)
    if lengths.size == 0:
        return 0.0
    return float(lengths.max())


def visibility_edges3(
    positions: Sequence[Vector3Like], visibility_range: float, *, eps: float = EPS
) -> Set[Edge]:
    """All pairs ``(i, j)`` with ``i < j`` whose separation is at most ``V``.

    Enumerated from a covering grid (:func:`~repro.engine.metrics.grid_edges`)
    in O(n + |E|), with the dense per-pair arithmetic.
    """
    i, j = grid_edges(positions_as_array3(positions), visibility_range + eps)
    return set(zip(i.tolist(), j.tolist()))


def is_connected3(
    positions: Sequence[Vector3Like], visibility_range: float, *, eps: float = EPS
) -> bool:
    """Connectivity of the 3D visibility graph."""
    n = len(positions)
    if n <= 1:
        return True
    edges = visibility_edges3(positions, visibility_range, eps=eps)
    return len(connected_components(n, edges)) == 1


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
        """Largest pairwise separation."""
        return max_pairwise_distance3_array(positions_as_array3(self.positions))

    def centroid(self) -> Vector3:
        """Centre of gravity of the configuration."""
        return centroid3(self.positions)

    def within_epsilon(self, epsilon: float) -> bool:
        """Point-Convergence predicate."""
        return self.diameter() <= epsilon

    def preserves_edges_of(self, other: "Configuration3") -> bool:
        """3D cohesion check against an earlier configuration."""
        return edges_preserved3(other.edges(), self.positions, self.visibility_range)


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
