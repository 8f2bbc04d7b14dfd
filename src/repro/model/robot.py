"""Robot entities and their kinematic state.

A :class:`Robot` is the engine-side representation of one OBLOT entity:
anonymous from the algorithm's point of view (the id exists only for the
engine and the metrics), oblivious (no state survives an activity cycle
beyond its physical position), and either idle, computing or moving.
While moving, the robot's position at any instant is the linear
interpolation along its realised trajectory, which is what other robots
observe when they Look mid-move.

The kinematic state itself lives in :class:`KinematicArrays`, a
structure-of-arrays store: contiguous ``(n, d)`` float64 arrays for the
committed positions, move origins and move destinations (``d = 2`` for
the planar engine, ``d = 3`` for the :mod:`repro.spatial3d` extension),
plus ``(n,)`` arrays for the move time spans, phase codes and per-robot
counters.  The batched queries — :meth:`KinematicArrays.positions_at`,
:meth:`KinematicArrays.completed_movers` — are dimension-generic: every
operation is row-wise, so the same interpolation machinery serves any
``d``.  A
:class:`Robot` is a thin view over one row of such a store — the engine's
hot paths (interpolating every robot's position at a Look instant,
finding the moves that have completed) run as single numpy expressions
over the arrays, while the per-robot object API stays exactly what it
always was.  A robot constructed standalone allocates its own one-row
store, so ``Robot(robot_id=0, position=Point(1, 2))`` keeps working.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..geometry.point import Point, PointLike
from ..geometry.tolerances import EPS
from .types import Phase

# Integer phase codes stored in the arrays (the Phase enum stays the
# public face; the codes make the per-activation masks pure numpy).
PHASE_IDLE = 0
PHASE_COMPUTING = 1
PHASE_MOVING = 2

_PHASE_TO_CODE = {Phase.IDLE: PHASE_IDLE, Phase.COMPUTING: PHASE_COMPUTING, Phase.MOVING: PHASE_MOVING}
_CODE_TO_PHASE = (Phase.IDLE, Phase.COMPUTING, Phase.MOVING)


class KinematicArrays:
    """Structure-of-arrays kinematic state for ``n`` robots in ``dim``-space.

    ``position`` holds the last *committed* position of each robot (the
    move origin while a move is in flight; the realised endpoint once the
    move has been finalised).  The interpolation rule implemented by
    :meth:`positions_at` is exactly :meth:`Robot.position_at`, evaluated
    for all robots in one numpy expression.  Every batched query is
    row-wise, so the store works for any spatial dimension; the planar
    engine uses ``dim=2`` (where :class:`Robot` views apply) and the 3D
    extension's round engine uses ``dim=3``.
    """

    __slots__ = (
        "n",
        "dim",
        "position",
        "move_origin",
        "move_destination",
        "move_start",
        "move_end",
        "phase",
        "crashed",
        "activation_count",
        "total_distance",
    )

    def __init__(self, n: int, dim: int = 2) -> None:
        if n < 0:
            raise ValueError("robot count must be non-negative")
        if dim < 1:
            raise ValueError("spatial dimension must be at least 1")
        self.n = n
        self.dim = dim
        self.position = np.zeros((n, dim), dtype=float)
        self.move_origin = np.zeros((n, dim), dtype=float)
        self.move_destination = np.zeros((n, dim), dtype=float)
        self.move_start = np.zeros(n, dtype=float)
        self.move_end = np.zeros(n, dtype=float)
        self.phase = np.zeros(n, dtype=np.int8)
        self.crashed = np.zeros(n, dtype=bool)
        self.activation_count = np.zeros(n, dtype=np.int64)
        self.total_distance = np.zeros(n, dtype=float)

    @staticmethod
    def from_positions(positions: Sequence[PointLike]) -> "KinematicArrays":
        """A planar store with every robot idle at the given positions."""
        pts = [Point.of(p) for p in positions]
        arrays = KinematicArrays(len(pts))
        for i, p in enumerate(pts):
            arrays.position[i, 0] = p.x
            arrays.position[i, 1] = p.y
        return arrays

    @staticmethod
    def from_array(positions: np.ndarray) -> "KinematicArrays":
        """A store of any dimension with every robot idle at the given rows."""
        arr = np.asarray(positions, dtype=float)
        if arr.ndim != 2:
            raise ValueError("positions must be an (n, d) array")
        arrays = KinematicArrays(arr.shape[0], arr.shape[1])
        arrays.position[:] = arr
        return arrays

    # -- vectorized queries ------------------------------------------------------
    def positions_at(self, time: float, indices: Optional[np.ndarray] = None) -> np.ndarray:
        """Interpolated positions at global ``time`` as an ``(m, 2)`` array.

        With ``indices`` given, only those rows are evaluated (in the given
        order); otherwise all ``n`` robots are.  The branch structure per
        robot is identical to :meth:`Robot.position_at`, so the values are
        bit-identical to the scalar path.
        """
        if indices is None:
            out = self.position.copy()
            phase = self.phase
        else:
            out = self.position[indices]
            phase = self.phase[indices]
        moving = phase == PHASE_MOVING
        if not moving.any():
            return out
        rows = np.flatnonzero(moving)
        sub = indices[rows] if indices is not None else rows
        start = self.move_start[sub]
        end = self.move_end[sub]
        origin = self.move_origin[sub]
        destination = self.move_destination[sub]
        span = end - start
        # Branch order mirrors Robot.position_at: endpoint once the move is
        # over (or the span is degenerate), origin before it starts, linear
        # interpolation in between.
        at_destination = (time >= end) | ((time > start) & (span <= EPS))
        interpolate = (time > start) & (time < end) & (span > EPS)
        values = origin.copy()
        values[at_destination] = destination[at_destination]
        if interpolate.any():
            t = (time - start[interpolate]) / span[interpolate]
            o = origin[interpolate]
            values[interpolate] = o + (destination[interpolate] - o) * t[:, None]
        out[rows] = values
        return out

    def completed_movers(self, now: float) -> np.ndarray:
        """Indices of robots whose move has ended at or before ``now``."""
        return np.flatnonzero((self.phase == PHASE_MOVING) & (self.move_end <= now))

    def any_moving(self) -> bool:
        """True when at least one robot is mid-move."""
        return bool((self.phase == PHASE_MOVING).any())

    # -- row-level transitions ---------------------------------------------------
    # These are the dimension-generic core of the activity-cycle state
    # machine: the planar :class:`Robot` views delegate here, and the
    # continuous-time kernel drives them directly for stores of any
    # dimension.  ``label`` only affects error messages (a standalone
    # Robot's ``robot_id`` may differ from its row index).

    def begin_activation_at(self, index: int, time: float, *, label: Optional[int] = None) -> None:
        """Enter the Compute phase on row ``index`` (the Look is instantaneous)."""
        if self.phase[index] != PHASE_IDLE:
            who = index if label is None else label
            phase = _CODE_TO_PHASE[self.phase[index]].value
            raise RuntimeError(f"robot {who} activated at t={time} while still {phase}")
        self.phase[index] = PHASE_COMPUTING
        self.activation_count[index] += 1

    def begin_move_at(
        self,
        index: int,
        origin: np.ndarray,
        destination: np.ndarray,
        start_time: float,
        end_time: float,
        *,
        label: Optional[int] = None,
    ) -> None:
        """Enter the Move phase on row ``index`` with a realised trajectory."""
        if self.phase[index] != PHASE_COMPUTING:
            who = index if label is None else label
            phase = _CODE_TO_PHASE[self.phase[index]].value
            raise RuntimeError(f"robot {who} cannot start moving from phase {phase}")
        if end_time < start_time:
            raise ValueError("move must end at or after it starts")
        self.move_origin[index] = origin
        self.move_destination[index] = destination
        self.move_start[index] = start_time
        self.move_end[index] = end_time
        self.phase[index] = PHASE_MOVING

    def finish_move_at(self, index: int, *, label: Optional[int] = None) -> None:
        """Leave the Move phase on row ``index``; the robot idles at its endpoint."""
        if self.phase[index] != PHASE_MOVING:
            who = index if label is None else label
            raise RuntimeError(f"robot {who} is not moving")
        self.finish_moves(np.array([index], dtype=np.intp))

    # -- index-array transitions ---------------------------------------------------
    # One call per round on the batched round paths: the same state changes
    # as the row-level transitions above, applied to many distinct rows.

    def begin_moves(
        self,
        indices: np.ndarray,
        destinations: np.ndarray,
        start_time: float,
        end_time: float,
    ) -> None:
        """Activate every row of ``indices`` and start its move from its committed position.

        The batched form of :meth:`begin_activation_at` followed by
        :meth:`begin_move_at`: every row must be idle (a RuntimeError names
        the first that is not) and the moves may not end before they start.
        ``indices`` must be distinct.
        """
        phase = self.phase[indices]
        busy = np.flatnonzero(phase != PHASE_IDLE)
        if len(busy):
            who = int(indices[busy[0]])
            state = _CODE_TO_PHASE[phase[busy[0]]].value
            raise RuntimeError(f"robot {who} activated at t={start_time} while still {state}")
        if end_time < start_time:
            raise ValueError("move must end at or after it starts")
        self.activation_count[indices] += 1
        self.move_origin[indices] = self.position[indices]
        self.move_destination[indices] = destinations
        self.move_start[indices] = start_time
        self.move_end[indices] = end_time
        self.phase[indices] = PHASE_MOVING

    def finish_moves(self, indices: np.ndarray) -> None:
        """End the in-flight move of every row of ``indices`` (distinct rows).

        Each row's ``total_distance`` grows by the length of its realised
        trajectory — ``math.hypot`` in the plane (what :meth:`Robot.finish_move`
        always computed) and a left-to-right sum of squares under one
        square root in higher dimensions (the :class:`Vector3` convention) —
        and the row idles at its realised endpoint.
        """
        if not len(indices):
            return
        idle = np.flatnonzero(self.phase[indices] != PHASE_MOVING)
        if len(idle):
            raise RuntimeError(f"robot {int(indices[idle[0]])} is not moving")
        origins = self.move_origin[indices]
        endpoints = self.move_destination[indices]
        delta = endpoints - origins
        if self.dim == 2:
            travelled = np.fromiter(
                map(math.hypot, delta[:, 0].tolist(), delta[:, 1].tolist()),
                dtype=np.float64,
                count=len(delta),
            )
        else:
            squared = delta[:, 0] * delta[:, 0]
            for axis in range(1, self.dim):
                squared = squared + delta[:, axis] * delta[:, axis]
            travelled = np.sqrt(squared)
        self.total_distance[indices] += travelled
        self.position[indices] = endpoints
        self.phase[indices] = PHASE_IDLE

    def crash_at(self, index: int) -> None:
        """Fail-stop row ``index``: any pending move is discarded."""
        self.phase[index] = PHASE_IDLE
        self.crashed[index] = True


class Robot:
    """One mobile entity: a thin view over one row of a :class:`KinematicArrays`."""

    __slots__ = ("robot_id", "_arrays", "_index")

    def __init__(
        self,
        robot_id: int = 0,
        position: PointLike = (0.0, 0.0),
        phase: Phase = Phase.IDLE,
        move_origin: Optional[PointLike] = None,
        move_destination: Optional[PointLike] = None,
        move_start_time: float = 0.0,
        move_end_time: float = 0.0,
        activation_count: int = 0,
        total_distance_travelled: float = 0.0,
        crashed: bool = False,
    ) -> None:
        arrays = KinematicArrays(1)
        self.robot_id = robot_id
        self._arrays = arrays
        self._index = 0
        p = Point.of(position)
        arrays.position[0] = (p.x, p.y)
        arrays.phase[0] = _PHASE_TO_CODE[phase]
        if move_origin is not None:
            o = Point.of(move_origin)
            arrays.move_origin[0] = (o.x, o.y)
        if move_destination is not None:
            d = Point.of(move_destination)
            arrays.move_destination[0] = (d.x, d.y)
        arrays.move_start[0] = move_start_time
        arrays.move_end[0] = move_end_time
        arrays.activation_count[0] = activation_count
        arrays.total_distance[0] = total_distance_travelled
        arrays.crashed[0] = crashed

    @classmethod
    def view(cls, arrays: KinematicArrays, index: int, robot_id: Optional[int] = None) -> "Robot":
        """A view over row ``index`` of a shared store (used by the engine)."""
        if arrays.dim != 2:
            raise ValueError("Robot views are planar; a %d-dimensional store has none" % arrays.dim)
        self = object.__new__(cls)
        self.robot_id = index if robot_id is None else robot_id
        self._arrays = arrays
        self._index = index
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Robot(robot_id={self.robot_id}, position={self.position!r}, "
            f"phase={self.phase.value!r})"
        )

    # -- array-backed attributes ---------------------------------------------------
    @property
    def position(self) -> Point:
        """Last committed position (the move origin while a move is in flight)."""
        row = self._arrays.position[self._index]
        return Point(float(row[0]), float(row[1]))

    @position.setter
    def position(self, value: PointLike) -> None:
        p = Point.of(value)
        self._arrays.position[self._index] = (p.x, p.y)

    @property
    def phase(self) -> Phase:
        """Current phase of the activity cycle."""
        return _CODE_TO_PHASE[self._arrays.phase[self._index]]

    @phase.setter
    def phase(self, value: Phase) -> None:
        self._arrays.phase[self._index] = _PHASE_TO_CODE[value]

    @property
    def move_origin(self) -> Optional[Point]:
        """Origin of the in-flight move (None when not moving)."""
        if self._arrays.phase[self._index] != PHASE_MOVING:
            return None
        row = self._arrays.move_origin[self._index]
        return Point(float(row[0]), float(row[1]))

    @property
    def move_destination(self) -> Optional[Point]:
        """Realised endpoint of the in-flight move (None when not moving)."""
        if self._arrays.phase[self._index] != PHASE_MOVING:
            return None
        row = self._arrays.move_destination[self._index]
        return Point(float(row[0]), float(row[1]))

    @property
    def move_start_time(self) -> float:
        """Instant the in-flight (or last) move started."""
        return float(self._arrays.move_start[self._index])

    @property
    def move_end_time(self) -> float:
        """Instant the in-flight (or last) move ends."""
        return float(self._arrays.move_end[self._index])

    @property
    def activation_count(self) -> int:
        """Number of activations this robot has begun."""
        return int(self._arrays.activation_count[self._index])

    @property
    def total_distance_travelled(self) -> float:
        """Total length of the realised trajectories so far."""
        return float(self._arrays.total_distance[self._index])

    @property
    def crashed(self) -> bool:
        """True once the robot has fail-stopped."""
        return bool(self._arrays.crashed[self._index])

    # -- queries ---------------------------------------------------------------
    def is_idle(self) -> bool:
        """True when the robot is between activity cycles."""
        return self._arrays.phase[self._index] == PHASE_IDLE

    def is_motile(self) -> bool:
        """True during the Move phase (capable of moving)."""
        return self._arrays.phase[self._index] == PHASE_MOVING

    def position_at(self, time: float) -> Point:
        """Position at global time ``time``.

        Before the Move phase starts (or when idle/computing) this is the
        stored position; during the Move phase it is the linear
        interpolation between the move origin and the realised endpoint.
        After the move end it is the endpoint.
        """
        arrays, i = self._arrays, self._index
        if arrays.phase[i] != PHASE_MOVING:
            return self.position
        end = arrays.move_end[i]
        if time >= end:
            row = arrays.move_destination[i]
            return Point(float(row[0]), float(row[1]))
        start = arrays.move_start[i]
        if time <= start:
            row = arrays.move_origin[i]
            return Point(float(row[0]), float(row[1]))
        span = end - start
        if span <= EPS:
            row = arrays.move_destination[i]
            return Point(float(row[0]), float(row[1]))
        t = (time - start) / span
        ox, oy = arrays.move_origin[i]
        dx, dy = arrays.move_destination[i]
        return Point(float(ox + (dx - ox) * t), float(oy + (dy - oy) * t))

    # -- transitions -------------------------------------------------------------
    def begin_activation(self, time: float) -> None:
        """Enter the Compute phase (the Look phase is instantaneous)."""
        self._arrays.begin_activation_at(self._index, time, label=self.robot_id)

    def begin_move(
        self, origin: PointLike, destination: PointLike, start_time: float, end_time: float
    ) -> None:
        """Enter the Move phase with a realised trajectory and its time span."""
        o = Point.of(origin)
        d = Point.of(destination)
        self._arrays.begin_move_at(
            self._index,
            np.array((o.x, o.y), dtype=float),
            np.array((d.x, d.y), dtype=float),
            start_time,
            end_time,
            label=self.robot_id,
        )

    def finish_move(self) -> Point:
        """Leave the Move phase; the robot becomes idle at its realised endpoint."""
        self._arrays.finish_move_at(self._index, label=self.robot_id)
        row = self._arrays.position[self._index]
        return Point(float(row[0]), float(row[1]))

    def crash(self) -> None:
        """Fail-stop the robot: it stays at its current position forever.

        Section 6.1 of the paper notes a single crash fault is tolerated
        (the other robots converge to the crashed robot's location); the
        fault-injection tests exercise this.  A crashing robot keeps its
        last committed position; any pending move is discarded.
        """
        self._arrays.crash_at(self._index)
