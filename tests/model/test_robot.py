"""Tests for the object engine's robot views: kinematic state and phase transitions."""

import pytest
from reference.object_engine import Robot

from repro.geometry import Point
from repro.model import Phase


class TestTransitions:
    def test_initial_state(self):
        robot = Robot(robot_id=0, position=Point(1, 2))
        assert robot.is_idle()
        assert not robot.is_motile()
        assert robot.activation_count == 0

    def test_full_cycle(self):
        robot = Robot(robot_id=0, position=Point(0, 0))
        robot.begin_activation(1.0)
        assert robot.phase is Phase.COMPUTING
        assert robot.activation_count == 1
        robot.begin_move((0, 0), (1, 0), start_time=2.0, end_time=3.0)
        assert robot.is_motile()
        end = robot.finish_move()
        assert end == Point(1, 0)
        assert robot.is_idle()
        assert robot.total_distance_travelled == pytest.approx(1.0)

    def test_cannot_activate_while_active(self):
        robot = Robot(robot_id=0, position=Point(0, 0))
        robot.begin_activation(0.0)
        with pytest.raises(RuntimeError):
            robot.begin_activation(1.0)

    def test_cannot_move_from_idle(self):
        robot = Robot(robot_id=0, position=Point(0, 0))
        with pytest.raises(RuntimeError):
            robot.begin_move((0, 0), (1, 0), 0.0, 1.0)

    def test_cannot_finish_when_not_moving(self):
        robot = Robot(robot_id=0, position=Point(0, 0))
        with pytest.raises(RuntimeError):
            robot.finish_move()

    def test_move_must_end_after_start(self):
        robot = Robot(robot_id=0, position=Point(0, 0))
        robot.begin_activation(0.0)
        with pytest.raises(ValueError):
            robot.begin_move((0, 0), (1, 0), start_time=2.0, end_time=1.0)


class TestInterpolation:
    def _moving_robot(self):
        robot = Robot(robot_id=0, position=Point(0, 0))
        robot.begin_activation(0.0)
        robot.begin_move((0, 0), (2, 0), start_time=1.0, end_time=3.0)
        return robot

    def test_position_before_move_start(self):
        robot = self._moving_robot()
        assert robot.position_at(0.5) == Point(0, 0)

    def test_position_mid_move(self):
        robot = self._moving_robot()
        assert robot.position_at(2.0) == Point(1.0, 0.0)

    def test_position_after_move_end(self):
        robot = self._moving_robot()
        assert robot.position_at(10.0) == Point(2.0, 0.0)

    def test_position_when_idle_is_static(self):
        robot = Robot(robot_id=0, position=Point(3, 4))
        assert robot.position_at(100.0) == Point(3, 4)

    def test_instantaneous_move(self):
        robot = Robot(robot_id=0, position=Point(0, 0))
        robot.begin_activation(0.0)
        robot.begin_move((0, 0), (1, 1), start_time=1.0, end_time=1.0)
        assert robot.position_at(1.0) == Point(1, 1)


class TestCrash:
    def test_crash_while_idle(self):
        robot = Robot(robot_id=0, position=Point(0, 0))
        robot.crash()
        assert robot.crashed
        assert robot.is_idle()

    def test_crash_mid_move_stops_at_current_position(self):
        robot = Robot(robot_id=0, position=Point(0, 0))
        robot.begin_activation(0.0)
        robot.begin_move((0, 0), (2, 0), start_time=0.0, end_time=2.0)
        robot.crash()
        assert robot.crashed
        assert robot.is_idle()
        # The pending move is discarded; the robot stays where it was last committed.
        assert robot.position_at(10.0) == robot.position
