"""Snapshots: what a robot perceives during its Look phase.

A snapshot is expressed in the observing robot's private coordinate
system: the observer sits at the origin and every visible robot appears as
a relative position.  The private frame may be arbitrarily rotated,
reflected and (optionally) scaled, and the perceived positions may carry
measurement error.  Algorithms only ever see a :class:`Snapshot`; they
return a destination expressed in the same private coordinates.

A snapshot holds its perceived positions as ``(m, 2)`` float rows, which
the KKNPS and Ando rules read directly; the ``Point`` tuple the other
rules read is built from the rows on first access, so the engine's
per-robot decide never pays for it under those two rules.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from ..geometry.point import Point, PointLike
from ..geometry.tolerances import EPS
from ..geometry.transforms import LocalFrame
from .errors import PerceptionModel


class Snapshot:
    """The input of one Compute phase.

    ``rows`` are the perceived relative positions of the *other* visible
    robots as an ``(m, 2)`` float array, and ``neighbours`` the same
    positions as ``Point`` s (the observer itself is not included;
    co-located robots collapse to a single perceived position unless
    ``multiplicities`` is provided).  Build a snapshot from either:
    ``Snapshot(neighbours=...)`` keeps the given points and derives the
    rows from them, ``Snapshot(rows=...)`` keeps the array and builds the
    points on first access.  ``visibility_range`` carries the common
    range ``V`` only when the engine reveals it (the paper's algorithm
    never needs it, Ando et al.'s does).  ``k_bound`` carries the
    asynchrony bound the system is promised to respect, for algorithms
    whose motion rule scales with ``1/k``.
    """

    __slots__ = (
        "rows", "visibility_range", "k_bound", "multiplicities", "time", "robot_id",
        "_neighbours", "_norms",
    )

    def __init__(
        self,
        neighbours: Sequence[PointLike] = (),
        visibility_range: Optional[float] = None,
        k_bound: Optional[int] = None,
        multiplicities: Optional[Sequence[int]] = None,
        time: float = 0.0,
        robot_id: Optional[int] = None,
        *,
        rows: Optional[np.ndarray] = None,
    ) -> None:
        if rows is None:
            neighbours = tuple(Point.of(p) for p in neighbours)
            rows = np.array([(p.x, p.y) for p in neighbours], dtype=float).reshape(-1, 2)
        else:
            neighbours = None
        self.rows = rows
        self._neighbours = neighbours
        self._norms = None
        self.visibility_range = visibility_range
        self.k_bound = k_bound
        self.time = time
        self.robot_id = robot_id
        if multiplicities is not None:
            multiplicities = tuple(int(m) for m in multiplicities)
            if len(multiplicities) != len(rows):
                raise ValueError("multiplicities must match neighbours")
        self.multiplicities = multiplicities

    @property
    def neighbours(self) -> tuple:
        """The perceived positions as a tuple of ``Point`` s (built once)."""
        if self._neighbours is None:
            self._neighbours = tuple(Point(x, y) for x, y in self.rows.tolist())
        return self._neighbours

    # -- basic queries -------------------------------------------------------
    def has_neighbours(self) -> bool:
        """True when at least one other robot is visible."""
        return len(self.rows) > 0

    def neighbour_count(self) -> int:
        """Number of perceived neighbour positions."""
        return len(self.rows)

    @property
    def norms(self) -> tuple:
        """Perceived distance of each neighbour, computed once per snapshot.

        Values are exactly ``p.norm()`` (``math.hypot``) per neighbour.
        """
        if self._norms is None:
            rows = self.rows
            self._norms = tuple(map(math.hypot, rows[:, 0].tolist(), rows[:, 1].tolist()))
        return self._norms

    def distances(self) -> List[float]:
        """Perceived distances to each neighbour."""
        return list(self.norms)

    def farthest_distance(self) -> float:
        """Perceived distance to the farthest neighbour (0 with no neighbours).

        This is the paper's tentative lower bound ``V_Y`` on the true
        visibility range.
        """
        return max(self.norms) if len(self.rows) else 0.0

    def farthest_neighbour(self) -> Optional[Point]:
        """Perceived position of the farthest neighbour."""
        if not len(self.rows):
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

#: Pairs per block of the collapse scan's guard, bounding its temporaries.
_COLLAPSE_BLOCK_PAIRS = 1 << 20


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
    if m <= 1 or not eps >= 0.0:
        # No row is within a negative (or NaN) distance of another.
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
        # Check y-separation inside each run of x-close points: sorted by
        # run, then by y, the runs stay where they were, so position k and
        # k + 1 share a run exactly where x_close[k] holds.
        run_id = np.zeros(m, dtype=np.int64)
        np.cumsum(~x_close, out=run_id[1:])
        ys = visible[order, 1]
        ys = ys[np.lexsort((ys, run_id))]
        if (x_close & (np.diff(ys) <= eps)).any():
            return _collapse_coincident_scan(visible, eps)
    return visible, counts


def _collapse_coincident_scan(
    visible: np.ndarray, eps: float
) -> "tuple[np.ndarray, np.ndarray]":
    """The first-representative collapse scan (exact per-Point semantics).

    Each row, in order, joins the first earlier representative within
    ``eps`` — ``math.hypot`` of the row difference, the per-Point test —
    or becomes a representative itself.  A row equal to an earlier row
    lands where that row did (the same representatives are within
    ``eps`` of both, in the same order, and the earlier row is itself
    one at distance 0), so the scan runs over the distinct rows in order
    of first occurrence, each carrying its multiplicity.  The pairs the
    exact test could pass are flagged first, a block of rows at a time,
    by a squared-distance guard widened by a relative 1e-9 (so whatever
    ``dx*dx + dy*dy`` rounds to, no pair the exact test passes goes
    unflagged); the exact test then walks each row's flagged earlier
    columns in ascending order, up to the first representative it
    accepts.  The first column comes from one ``argmax`` per block and
    usually settles the row, so a row's later columns are only looked up
    when it does not.
    """
    order = np.lexsort((visible[:, 1], visible[:, 0]))
    ordered = visible[order]
    starts = np.ones(len(visible), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    heads = np.flatnonzero(starts)
    # lexsort is stable: each run of equal rows begins at its first occurrence.
    firsts, weights = order[heads], np.diff(heads, append=len(visible))
    by_index = np.argsort(firsts)
    firsts, weights = firsts[by_index], weights[by_index].tolist()
    distinct = visible[firsts]
    m = len(distinct)
    x, y = distinct[:, 0], distinct[:, 1]
    guard = (eps * (1.0 + 1e-9)) ** 2
    rows = distinct.tolist()
    slot_of = [-1] * m
    kept: List[int] = []
    counts: List[int] = []
    step = max(1, _COLLAPSE_BLOCK_PAIRS // m)
    for start in range(0, m, step):
        stop = min(m, start + step)
        dx = x[start:stop, None] - x[:stop]
        dy = y[start:stop, None] - y[:stop]
        # Earlier rows only: column j < row start + i.
        close = np.tril(dx * dx + dy * dy <= guard, k=start - 1)
        heads_of = np.where(close.any(axis=1), close.argmax(axis=1), -1).tolist()
        for offset, first in enumerate(heads_of):
            i = start + offset
            xi, yi = rows[i]
            slot = -1
            if first >= 0:
                xj, yj = rows[first]
                if slot_of[first] >= 0 and math.hypot(xj - xi, yj - yi) <= eps:
                    slot = slot_of[first]
                else:
                    later = np.flatnonzero(close[offset, first + 1:]) + (first + 1)
                    for j in later.tolist():
                        xj, yj = rows[j]
                        if slot_of[j] >= 0 and math.hypot(xj - xi, yj - yi) <= eps:
                            slot = slot_of[j]
                            break
            if slot >= 0:
                counts[slot] += weights[i]
            else:
                slot_of[i] = len(kept)
                kept.append(i)
                counts.append(weights[i])
    return visible[firsts[kept]], np.asarray(counts, dtype=np.int64)


def visible_mask(
    dx: np.ndarray,
    dy: np.ndarray,
    visibility_range: float,
    coincidence_eps: float = 1e-12,
) -> np.ndarray:
    """The planar Look's distance filter over offsets ``(dx, dy)`` from the observer.

    Keeps a robot farther than ``coincidence_eps`` and at most
    ``visibility_range + EPS`` away (``np.hypot`` of the offsets).  The
    verdict ignores the offsets' signs, so it also decides a pair of
    robots from either end: the round path's
    :class:`~repro.geometry.pairs.VisiblePairs` judges each pair once
    with it.
    """
    distance = np.hypot(dx, dy)
    return (distance > coincidence_eps) & (distance <= visibility_range + EPS)


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

    The whole pipeline — offsets from the observer, the distance filter
    (drop robots within ``coincidence_eps`` of it or farther than
    ``visibility_range + EPS``), the coincidence collapse, the frame and
    the perception model, in that order — runs as batched numpy
    expressions over ``others`` (an ``(m, 2)`` array or a sequence of
    points).  The snapshot keeps the perceived rows; its ``Point``
    neighbours are built only if a rule reads them.
    """
    observer = Point.of(observer_position)
    others = _others_as_array(others)
    if len(others):
        relative = others - np.array((observer.x, observer.y), dtype=float)
        keep = visible_mask(
            relative[:, 0], relative[:, 1], visibility_range, coincidence_eps
        )
        visible = relative[keep]
    else:
        visible = np.zeros((0, 2), dtype=float)
    collapsed, counts = _collapse_coincident_array(visible, coincidence_eps)
    local = frame.to_local_array(collapsed) if frame is not None else collapsed
    perception = perception or PerceptionModel.exact()
    return Snapshot(
        rows=perception.perceive_array(local, rng),
        visibility_range=visibility_range if reveal_range else None,
        k_bound=k_bound,
        multiplicities=counts.tolist() if multiplicity_detection else None,
        time=time,
        robot_id=robot_id,
    )
