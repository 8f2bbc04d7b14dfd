"""Snapshots: what a robot perceives during its Look phase.

A snapshot is expressed in the observing robot's private coordinate
system: the observer sits at the origin and every visible robot appears as
a relative position.  The private frame may be arbitrarily rotated,
reflected and (optionally) scaled, and the perceived positions may carry
measurement error.  Algorithms only ever see a :class:`Snapshot`; they
return a destination expressed in the same private coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence

import numpy as np

from ..geometry.point import Point, PointLike
from ..geometry.tolerances import EPS
from ..geometry.transforms import LocalFrame
from .errors import PerceptionModel


@dataclass(frozen=True)
class Snapshot:
    """The input of one Compute phase.

    ``neighbours`` are the perceived relative positions of the *other*
    visible robots (the observer itself is not included; co-located robots
    collapse to a single perceived position unless ``multiplicities`` is
    provided).  ``visibility_range`` carries the common range ``V`` only
    when the engine was configured to reveal it (the paper's algorithm
    never needs it, Ando et al.'s does).  ``k_bound`` carries the
    asynchrony bound the system is promised to respect, for algorithms
    whose motion rule scales with ``1/k``.
    """

    neighbours: tuple
    visibility_range: Optional[float] = None
    k_bound: Optional[int] = None
    multiplicities: Optional[tuple] = None
    time: float = 0.0
    robot_id: Optional[int] = None

    def __post_init__(self) -> None:
        neighbours = self.neighbours
        if not (
            isinstance(neighbours, tuple)
            and all(type(p) is Point for p in neighbours)
        ):
            object.__setattr__(
                self, "neighbours", tuple(Point.of(p) for p in neighbours)
            )
        if self.multiplicities is not None:
            object.__setattr__(self, "multiplicities", tuple(int(m) for m in self.multiplicities))
            if len(self.multiplicities) != len(self.neighbours):
                raise ValueError("multiplicities must match neighbours")

    # -- basic queries -------------------------------------------------------
    def has_neighbours(self) -> bool:
        """True when at least one other robot is visible."""
        return len(self.neighbours) > 0

    def neighbour_count(self) -> int:
        """Number of perceived neighbour positions."""
        return len(self.neighbours)

    @cached_property
    def norms(self) -> tuple:
        """Perceived distance of each neighbour, computed once per snapshot.

        Every Compute phase reads the neighbour norms several times (the
        range bound, the distant/close split, the direction scaling); this
        caches the single pass.  Values are exactly ``p.norm()`` per
        neighbour.
        """
        return tuple(math.hypot(p.x, p.y) for p in self.neighbours)

    def distances(self) -> List[float]:
        """Perceived distances to each neighbour."""
        return list(self.norms)

    def farthest_distance(self) -> float:
        """Perceived distance to the farthest neighbour (0 with no neighbours).

        This is the paper's tentative lower bound ``V_Y`` on the true
        visibility range.
        """
        if not self.neighbours:
            return 0.0
        return max(self.norms)

    def farthest_neighbour(self) -> Optional[Point]:
        """Perceived position of the farthest neighbour."""
        if not self.neighbours:
            return None
        norms = self.norms
        return self.neighbours[max(range(len(norms)), key=norms.__getitem__)]

    def nearest_distance(self) -> float:
        """Perceived distance to the nearest non-coincident neighbour."""
        positive = [r for r in self.norms if r > EPS]
        return min(positive) if positive else 0.0

    def with_self(self) -> List[Point]:
        """Neighbour positions plus the observer's own (origin) position."""
        return [Point.origin(), *self.neighbours]

    def distant_neighbours(self, close_fraction: float = 0.5) -> List[Point]:
        """Neighbours farther than ``close_fraction * V_Y`` (the paper's *distant* set).

        By the paper's definition the farthest neighbour is always distant,
        so the returned list is non-empty whenever there are neighbours.
        """
        v_y = self.farthest_distance()
        if v_y <= EPS:
            return []
        threshold = close_fraction * v_y
        return [
            p
            for p, r in zip(self.neighbours, self.norms)
            if r > threshold + EPS or r >= v_y - EPS
        ]

    def close_neighbours(self, close_fraction: float = 0.5) -> List[Point]:
        """Neighbours at distance at most ``close_fraction * V_Y``."""
        distant = {(p.x, p.y) for p in self.distant_neighbours(close_fraction)}
        return [p for p in self.neighbours if (p.x, p.y) not in distant]


def _others_as_array(others: Sequence[PointLike]) -> np.ndarray:
    """Coerce the observed positions into an ``(m, 2)`` float array."""
    if isinstance(others, np.ndarray):
        return np.asarray(others, dtype=float).reshape(-1, 2)
    if len(others) == 0:
        return np.zeros((0, 2), dtype=float)
    return np.array([(p[0], p[1]) for p in others], dtype=float)


#: Below this many visible robots the coincidence certificate runs as a
#: scalar all-pairs scan instead of the lexsort pipeline.
_COLLAPSE_SCALAR_MAX = 32


def _collapse_coincident_array(
    visible: np.ndarray, eps: float
) -> "tuple[np.ndarray, np.ndarray]":
    """Collapse coincident rows of an ``(m, 2)`` array, seed semantics.

    The generic case — no two visible robots within ``eps`` of each other
    — is certified by one lexsort: if all x-gaps between lexically
    adjacent points exceed ``eps``, and within every run of x-close
    points all sorted y-gaps do too, no pair can be within ``eps``
    (1D: any two values within ``eps`` leave an adjacent sorted gap of at
    most ``eps``), so nothing collapses and the quadratic scan is skipped
    entirely.  Only when the sort finds candidate near-duplicates does
    the exact first-representative scan run — over what is then a tiny
    cluster-bearing set — preserving the per-Point reference semantics
    (each point joins the first earlier representative within ``eps``).
    """
    m = len(visible)
    counts = np.ones(m, dtype=np.int64)
    if m <= 1:
        return visible, counts
    if m <= _COLLAPSE_SCALAR_MAX:
        # Typical snapshots are degree-sized; a scalar all-pairs scan with
        # a slightly widened squared-distance guard (any pair the exact
        # hypot test could collapse is certainly flagged) beats the numpy
        # certificate's fixed overhead by an order of magnitude.  Flagged
        # sets still go through the exact scan, so the output is
        # unchanged in every case.
        guard = (eps * (1.0 + 1e-9)) ** 2
        rows = visible.tolist()
        for i in range(m):
            xi, yi = rows[i]
            for xj, yj in rows[i + 1 :]:
                dx = xj - xi
                dy = yj - yi
                if dx * dx + dy * dy <= guard:
                    return _collapse_coincident_scan(visible, eps)
        return visible, counts
    order = np.lexsort((visible[:, 1], visible[:, 0]))
    xs = visible[order, 0]
    x_close = np.diff(xs) <= eps
    if x_close.any():
        # Check y-separation inside each run of x-close points.
        suspicious = False
        for run in np.split(order, np.flatnonzero(~x_close) + 1):
            if len(run) < 2:
                continue
            ys = np.sort(visible[run, 1])
            if (np.diff(ys) <= eps).any():
                suspicious = True
                break
        if suspicious:
            return _collapse_coincident_scan(visible, eps)
    return visible, counts


def _collapse_coincident_scan(
    visible: np.ndarray, eps: float
) -> "tuple[np.ndarray, np.ndarray]":
    """The first-representative collapse scan (exact per-Point semantics)."""
    kept: List[int] = []
    counts: List[int] = []
    for i in range(len(visible)):
        v = visible[i]
        for slot, j in enumerate(kept):
            du = visible[j] - v
            if math.hypot(du[0], du[1]) <= eps:
                counts[slot] += 1
                break
        else:
            kept.append(i)
            counts.append(1)
    return visible[kept], np.asarray(counts, dtype=np.int64)


def build_snapshot(
    observer_position: PointLike,
    others: Sequence[PointLike],
    visibility_range: float,
    *,
    frame: Optional[LocalFrame] = None,
    perception: Optional[PerceptionModel] = None,
    rng: Optional[np.random.Generator] = None,
    reveal_range: bool = False,
    k_bound: Optional[int] = None,
    multiplicity_detection: bool = False,
    time: float = 0.0,
    robot_id: Optional[int] = None,
    coincidence_eps: float = 1e-12,
) -> Snapshot:
    """Construct the snapshot an observer would take of ``others``.

    Visibility filtering uses the *true* positions and the true range
    ``V`` (sensing reach is physical); the reported relative positions are
    then passed through the private ``frame`` and the ``perception`` model.
    Robots co-located with the observer are not reported (they are
    indistinguishable from the observer itself without multiplicity
    detection); co-located other robots collapse into a single entry
    unless ``multiplicity_detection`` is set.

    The whole pipeline — visibility mask, coincidence collapse, frame and
    perception transforms — runs as batched numpy expressions over
    ``others`` (an ``(m, 2)`` array or a sequence of points).
    """
    observer = Point.of(observer_position)
    perception = perception or PerceptionModel.exact()

    arr = _others_as_array(others)
    if len(arr):
        relative = arr - np.array((observer.x, observer.y), dtype=float)
        distance = np.hypot(relative[:, 0], relative[:, 1])
        keep = (distance > coincidence_eps) & (distance <= visibility_range + EPS)
        visible = relative[keep]
    else:
        visible = np.zeros((0, 2), dtype=float)

    collapsed, counts = _collapse_coincident_array(visible, coincidence_eps)
    local = frame.to_local_array(collapsed) if frame is not None else collapsed
    perceived = perception.perceive_array(local, rng)

    return Snapshot(
        neighbours=tuple(Point(float(x), float(y)) for x, y in perceived),
        visibility_range=visibility_range if reveal_range else None,
        k_bound=k_bound,
        multiplicities=tuple(int(c) for c in counts) if multiplicity_detection else None,
        time=time,
        robot_id=robot_id,
    )

