"""Tests for the structure-of-arrays kinematic state and robot views."""

from __future__ import annotations

import numpy as np
import pytest
from reference.object_engine import Robot

from repro.engine.state import EngineState
from repro.geometry import Point
from repro.model import KinematicArrays, Phase


def _views(state):
    """One oracle :class:`Robot` view per row of the state's store."""
    return [Robot.view(state.arrays, i) for i in range(state.n)]


class TestKinematicArrays:
    def test_from_positions(self):
        arrays = KinematicArrays.from_positions([(0, 0), (1, 2), (3, 4)])
        assert arrays.n == 3
        assert arrays.position[1].tolist() == [1.0, 2.0]
        assert not arrays.any_moving()

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            KinematicArrays(-1)

    def test_vectorized_positions_match_scalar(self):
        state = EngineState([(0.0, 0.0), (2.0, 0.0), (0.0, 3.0), (5.0, 5.0)])
        robots = _views(state)
        r1, r2 = robots[1], robots[2]
        for robot, dest, t0, t1 in ((r1, (3.0, 1.0), 1.0, 3.0), (r2, (0.0, 2.0), 2.0, 2.0)):
            robot.begin_activation(t0)
            robot.begin_move(robot.position, dest, t0, t1)
        for t in (0.0, 0.5, 1.0, 1.7, 2.0, 2.5, 3.0, 10.0):
            batch = state.positions_at(t)
            for i, robot in enumerate(robots):
                scalar = robot.position_at(t)
                assert batch[i, 0] == scalar.x and batch[i, 1] == scalar.y

    def test_positions_at_subset_ordering(self):
        state = EngineState([(float(i), 0.0) for i in range(6)])
        subset = state.positions_at(0.0, np.array([4, 1, 3]))
        assert subset[:, 0].tolist() == [4.0, 1.0, 3.0]

    def test_completed_movers(self):
        state = EngineState([(0.0, 0.0), (1.0, 0.0)])
        robot = _views(state)[0]
        robot.begin_activation(0.0)
        robot.begin_move((0, 0), (1, 1), 0.0, 2.0)
        assert state.completed_movers(1.0).tolist() == []
        assert state.completed_movers(2.0).tolist() == [0]


class TestRobotViews:
    def test_views_share_the_store(self):
        state = EngineState([(0.0, 0.0), (1.0, 1.0)])
        robot = _views(state)[0]
        robot.begin_activation(0.0)
        robot.begin_move((0, 0), (4, 0), 0.0, 1.0)
        assert state.any_moving()
        robot.finish_move()
        assert state.committed_positions()[0].tolist() == [4.0, 0.0]
        assert robot.position == Point(4.0, 0.0)
        assert robot.total_distance_travelled == pytest.approx(4.0)

    def test_standalone_robot_allocates_own_store(self):
        a = Robot(robot_id=0, position=Point(1, 2))
        b = Robot(robot_id=1, position=Point(3, 4))
        a.position = Point(9, 9)
        assert b.position == Point(3, 4)
        assert a.phase is Phase.IDLE

    def test_move_metadata_hidden_outside_move_phase(self):
        robot = Robot(robot_id=0, position=Point(0, 0))
        assert robot.move_origin is None and robot.move_destination is None
        robot.begin_activation(0.0)
        robot.begin_move((0, 0), (1, 0), 0.0, 1.0)
        assert robot.move_origin == Point(0, 0)
        assert robot.move_destination == Point(1, 0)
        robot.finish_move()
        assert robot.move_origin is None and robot.move_destination is None

    def test_view_classmethod(self):
        arrays = KinematicArrays.from_positions([(0, 0), (7, 7)])
        view = Robot.view(arrays, 1)
        assert view.robot_id == 1
        assert view.position == Point(7, 7)


class TestDimensionGenericArrays:
    """KinematicArrays at d != 2: same batched interpolation machinery."""

    def test_from_array_3d(self):
        positions = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        arrays = KinematicArrays.from_array(positions)
        assert arrays.n == 2 and arrays.dim == 3
        assert arrays.position.shape == (2, 3)
        assert np.array_equal(arrays.position, positions)

    def test_from_array_rejects_flat_input(self):
        with pytest.raises(ValueError):
            KinematicArrays.from_array(np.zeros(6))

    def test_interpolation_is_dimension_generic(self):
        arrays = KinematicArrays(3, dim=3)
        arrays.position[:] = [(0, 0, 0), (1, 1, 1), (2, 2, 2)]
        # Row 1 moves to (2, 3, 5) over t in [0, 2].
        arrays.move_origin[1] = (1, 1, 1)
        arrays.move_destination[1] = (2, 3, 5)
        arrays.move_start[1] = 0.0
        arrays.move_end[1] = 2.0
        arrays.phase[1] = 2  # PHASE_MOVING
        mid = arrays.positions_at(1.0)
        assert np.array_equal(mid[0], [0, 0, 0])
        assert np.array_equal(mid[1], [1.5, 2.0, 3.0])
        assert np.array_equal(mid[2], [2, 2, 2])
        done = arrays.positions_at(5.0)
        assert np.array_equal(done[1], [2, 3, 5])
        assert arrays.completed_movers(2.0).tolist() == [1]

    def test_robot_views_are_planar_only(self):
        arrays = KinematicArrays(2, dim=3)
        with pytest.raises(ValueError):
            Robot.view(arrays, 0)
