"""The robots' kinematic state as a structure of arrays.

An OBLOT robot is anonymous from the algorithm's point of view (the id
exists only for the engine and the metrics), oblivious (no state
survives an activity cycle beyond its physical position), and either
idle, computing or moving.  While moving, the robot's position at any
instant is the linear interpolation along its realised trajectory, which
is what other robots observe when they Look mid-move.

:class:`KinematicArrays` holds that state for a whole swarm: contiguous
``(n, d)`` float64 arrays for the committed positions, move origins and
move destinations (``d = 2`` for the planar engine, ``d = 3`` for the
:mod:`repro.spatial3d` extension), plus ``(n,)`` arrays for the move time
spans, phase codes and per-robot counters.  Every query and transition
is row-wise, so the same machinery serves any ``d``, and the engine's hot
paths (interpolating every robot's position at a Look instant, finding
the moves that have completed) run as single numpy expressions.
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

_CODE_TO_PHASE = (Phase.IDLE, Phase.COMPUTING, Phase.MOVING)


class KinematicArrays:
    """Structure-of-arrays kinematic state for ``n`` robots in ``dim``-space.

    ``position`` holds the last *committed* position of each robot (the
    move origin while a move is in flight; the realised endpoint once the
    move has been finalised).  :meth:`positions_at` interpolates every
    in-flight move in one numpy expression.  Every batched query is
    row-wise, so the store works for any spatial dimension; the planar
    engine uses ``dim=2`` and the 3D extension ``dim=3``.
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
        order); otherwise all ``n`` robots are.
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
        # Endpoint once the move is over (or the span is degenerate), origin
        # before it starts, linear interpolation in between.
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
    # The dimension-generic core of the activity-cycle state machine, which
    # the per-activation path of the continuous-time kernel drives.

    def begin_activation_at(self, index: int, time: float) -> None:
        """Enter the Compute phase on row ``index`` (the Look is instantaneous)."""
        if self.phase[index] != PHASE_IDLE:
            phase = _CODE_TO_PHASE[self.phase[index]].value
            raise RuntimeError(f"robot {index} activated at t={time} while still {phase}")
        self.phase[index] = PHASE_COMPUTING
        self.activation_count[index] += 1

    def begin_move_at(
        self,
        index: int,
        origin: np.ndarray,
        destination: np.ndarray,
        start_time: float,
        end_time: float,
    ) -> None:
        """Enter the Move phase on row ``index`` with a realised trajectory."""
        if self.phase[index] != PHASE_COMPUTING:
            phase = _CODE_TO_PHASE[self.phase[index]].value
            raise RuntimeError(f"robot {index} cannot start moving from phase {phase}")
        if end_time < start_time:
            raise ValueError("move must end at or after it starts")
        self.move_origin[index] = origin
        self.move_destination[index] = destination
        self.move_start[index] = start_time
        self.move_end[index] = end_time
        self.phase[index] = PHASE_MOVING

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
        trajectory — ``math.hypot`` in the plane and a left-to-right sum of
        squares under one square root in higher dimensions (the
        :class:`Vector3` convention) — and the row idles at its realised
        endpoint.
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
