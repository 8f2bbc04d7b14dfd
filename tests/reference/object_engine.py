"""The planar object engine: the oracle the array engine is pinned against.

Before the engine moved to arrays, every robot was a :class:`Robot` object,
every Look gathered ``Point`` positions robot by robot, and every snapshot
ran a per-``Point`` pipeline.  This module keeps that engine, unchanged in
behaviour, as a reference:

* :class:`Robot` — one robot as a thin view over one row of a
  :class:`~repro.model.robot.KinematicArrays` store (a standalone
  ``Robot(...)`` allocates its own one-row store);
* :func:`build_snapshot_objects` — the per-``Point`` form of
  :func:`~repro.model.snapshot.build_snapshot`: an O(m) Point loop for
  visibility, the quadratic first-representative collapse, and
  per-vector frame and perception transforms;
* :class:`ObjectSimulator` — :class:`~repro.engine.simulator.Simulator`
  with per-``Point`` Looks over :class:`Robot` views, the object
  snapshot, the ``Point``-form rules of :mod:`reference.rules`, and
  the per-activation path (``round_batching=False``) for every
  activation.

The array engine must match it bit for bit: positions, metrics samples,
records and RNG consumption (``tests/engine/test_engine_modes.py``,
``tests/property/test_snapshot_equivalence.py``,
``tests/property/test_flat_decide_differential.py``).
``benchmarks/bench_engine.py`` times the array engine against it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

import numpy as np

from repro.engine.kernel import Decision
from repro.engine.simulator import SimulationConfig, Simulator
from repro.geometry.point import Point, PointLike
from repro.geometry.tolerances import EPS
from repro.geometry.transforms import LocalFrame
from repro.model.errors import PerceptionModel
from repro.model.robot import (
    PHASE_COMPUTING,
    PHASE_IDLE,
    PHASE_MOVING,
    KinematicArrays,
)
from repro.model.snapshot import Snapshot
from repro.model.types import Activation, Phase

from .rules import reference_compute

_PHASE_TO_CODE = {
    Phase.IDLE: PHASE_IDLE,
    Phase.COMPUTING: PHASE_COMPUTING,
    Phase.MOVING: PHASE_MOVING,
}
_CODE_TO_PHASE = (Phase.IDLE, Phase.COMPUTING, Phase.MOVING)


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
        """A view over row ``index`` of a shared store."""
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
    # The store's row transitions name the row in their errors; a robot
    # names itself by ``robot_id``, which a standalone robot may set freely.

    def begin_activation(self, time: float) -> None:
        """Enter the Compute phase (the Look phase is instantaneous)."""
        if not self.is_idle():
            raise RuntimeError(
                f"robot {self.robot_id} activated at t={time} while still {self.phase.value}"
            )
        self._arrays.begin_activation_at(self._index, time)

    def begin_move(
        self, origin: PointLike, destination: PointLike, start_time: float, end_time: float
    ) -> None:
        """Enter the Move phase with a realised trajectory and its time span."""
        if self.phase is not Phase.COMPUTING:
            raise RuntimeError(
                f"robot {self.robot_id} cannot start moving from phase {self.phase.value}"
            )
        o = Point.of(origin)
        d = Point.of(destination)
        self._arrays.begin_move_at(
            self._index,
            np.array((o.x, o.y), dtype=float),
            np.array((d.x, d.y), dtype=float),
            start_time,
            end_time,
        )

    def finish_move(self) -> Point:
        """Leave the Move phase; the robot becomes idle at its realised endpoint."""
        if not self.is_motile():
            raise RuntimeError(f"robot {self.robot_id} is not moving")
        self._arrays.finish_moves(np.array([self._index], dtype=np.intp))
        return self.position

    def crash(self) -> None:
        """Fail-stop the robot: it stays at its current position forever.

        A crashing robot keeps its last committed position; any pending
        move is discarded.
        """
        self._arrays.crash_at(self._index)


def build_snapshot_objects(
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
    """The per-Point form of :func:`~repro.model.snapshot.build_snapshot`.

    An O(m) Point loop for visibility, the quadratic first-representative
    collapse, and per-vector frame and perception transforms.
    """
    observer = Point.of(observer_position)
    perception = perception or PerceptionModel.exact()

    visible: List[Point] = []
    for p in others:
        p = Point.of(p)
        d = observer.distance_to(p)
        if d <= coincidence_eps:
            continue
        if d <= visibility_range + EPS:
            visible.append(p - observer)

    # Collapse coincident perceived robots (no multiplicity detection by default).
    collapsed: List[Point] = []
    counts: List[int] = []
    for v in visible:
        for i, u in enumerate(collapsed):
            if u.distance_to(v) <= coincidence_eps:
                counts[i] += 1
                break
        else:
            collapsed.append(v)
            counts.append(1)

    perceived: List[Point] = []
    for v in collapsed:
        local = frame.to_local(v) if frame is not None else v
        perceived.append(perception.perceive_vector(local, rng))

    return Snapshot(
        neighbours=tuple(perceived),
        visibility_range=visibility_range if reveal_range else None,
        k_bound=k_bound,
        multiplicities=tuple(counts) if multiplicity_detection else None,
        time=time,
        robot_id=robot_id,
    )


class ObjectSimulator(Simulator):
    """The object engine: per-Point Looks, snapshots and rules, dense, per activation.

    The run's configuration is taken as given except that every
    activation takes the per-activation path (``round_batching=False``),
    whose Looks read every robot, whatever the swarm size.
    """

    def __init__(
        self,
        initial_positions: Sequence[PointLike],
        algorithm,
        scheduler,
        config: Optional[SimulationConfig] = None,
    ) -> None:
        config = replace(config or SimulationConfig(), round_batching=False)
        super().__init__(initial_positions, algorithm, scheduler, config)
        arrays = self._arrays
        self.robots: List[Robot] = [Robot.view(arrays, i) for i in range(arrays.n)]

    def _look_positions(self, robot_id: int, look_time: float):
        return (
            [r.position_at(look_time) for r in self.robots if r.robot_id != robot_id],
            None,
        )

    def _sampled_positions(self, look_time: float, look_all_positions):
        return self.positions(look_time)

    def _decide_move(
        self,
        robot_id: int,
        look_time: float,
        other_positions,
        activation: Activation,
    ) -> Decision:
        cfg = self.config
        robot = self.robots[robot_id]
        frame = self._frame_for_look()
        snapshot = build_snapshot_objects(
            robot.position,
            other_positions,
            self._effective_range(),
            frame=frame,
            perception=cfg.perception,
            rng=self.rng,
            reveal_range=self.algorithm.requires_visibility_range,
            k_bound=cfg.k_bound,
            multiplicity_detection=cfg.multiplicity_detection,
            time=look_time,
            robot_id=robot.robot_id,
        )
        destination_local = reference_compute(self.algorithm, snapshot)
        displacement = (
            frame.to_global(destination_local) if frame is not None else Point.of(destination_local)
        )
        target_global = robot.position + displacement
        realized = cfg.motion.realize(
            robot.position, target_global, activation.progress_fraction, self.rng
        )
        return (
            (target_global.x, target_global.y),
            (realized.x, realized.y),
            snapshot.neighbour_count(),
        )
