"""Array-native engine state: the simulator's structure-of-arrays core.

:class:`EngineState` owns one :class:`~repro.model.robot.KinematicArrays`
store for the whole swarm.  Every hot query of the main loop —
interpolating all robots' positions at a Look instant, finding the moves
that completed before the current event — is a single numpy expression
over the contiguous arrays.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..geometry.point import Point, PointLike
from ..model.robot import KinematicArrays


class EngineState:
    """The simulator's kinematic state over a dimension-generic ``(n, d)`` store.

    Build a planar state from points with the constructor, or a state of
    any dimension from an ``(n, d)`` array with :meth:`from_array`.
    """

    __slots__ = ("arrays",)

    def __init__(self, initial_positions: Sequence[PointLike]) -> None:
        self.arrays = KinematicArrays.from_positions(initial_positions)

    @classmethod
    def from_array(cls, positions: np.ndarray) -> "EngineState":
        """A state of any dimension from an ``(n, d)`` position array."""
        state = object.__new__(cls)
        state.arrays = KinematicArrays.from_array(positions)
        return state

    @property
    def n(self) -> int:
        """Number of robots in the store."""
        return self.arrays.n

    def positions_at(self, time: float, indices: Optional[np.ndarray] = None) -> np.ndarray:
        """Interpolated positions at ``time`` as an ``(m, 2)`` float array.

        With ``indices`` this evaluates only the requested rows (in the
        given order) — the form the grid-accelerated Look path uses to
        interpolate candidate robots only.
        """
        return self.arrays.positions_at(time, indices)

    def positions_at_points(self, time: float) -> List[Point]:
        """Interpolated positions at ``time`` as :class:`Point` objects."""
        arr = self.arrays.positions_at(time)
        return [Point(float(x), float(y)) for x, y in arr]

    def committed_positions(self) -> np.ndarray:
        """The committed positions array (origins of any in-flight moves)."""
        return self.arrays.position

    def completed_movers(self, now: float) -> np.ndarray:
        """Indices of robots whose in-flight move has ended by ``now``."""
        return self.arrays.completed_movers(now)

    def any_moving(self) -> bool:
        """True when at least one robot is mid-move."""
        return self.arrays.any_moving()
