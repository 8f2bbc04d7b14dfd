"""Tests for snapshots and snapshot construction."""

import math

import numpy as np
import pytest

from repro.algorithms import AndoAlgorithm, KKNPSAlgorithm
from repro.geometry import LocalFrame, Point
from repro.model import PerceptionModel, Snapshot, build_snapshot


class TestSnapshotQueries:
    def test_basic_queries(self):
        snap = Snapshot(neighbours=(Point(1, 0), Point(0, 0.4)))
        assert snap.has_neighbours()
        assert snap.neighbour_count() == 2
        assert snap.farthest_distance() == pytest.approx(1.0)
        assert snap.nearest_distance() == pytest.approx(0.4)
        assert snap.farthest_neighbour() == Point(1, 0)

    def test_empty_snapshot(self):
        snap = Snapshot(neighbours=())
        assert not snap.has_neighbours()
        assert snap.farthest_distance() == 0.0
        assert snap.farthest_neighbour() is None

    def test_with_self_prepends_origin(self):
        snap = Snapshot(neighbours=(Point(1, 0),))
        pts = snap.with_self()
        assert pts[0] == Point(0, 0)
        assert len(pts) == 2

    def test_distant_and_close_neighbours(self):
        snap = Snapshot(neighbours=(Point(1.0, 0), Point(0.3, 0), Point(0.0, 0.8)))
        distant = snap.distant_neighbours()
        close = snap.close_neighbours()
        assert Point(1.0, 0) in distant
        assert Point(0.0, 0.8) in distant
        assert Point(0.3, 0) in close

    def test_farthest_neighbour_is_always_distant(self):
        snap = Snapshot(neighbours=(Point(0.2, 0),))
        assert snap.distant_neighbours() == [Point(0.2, 0)]

    def test_multiplicities_must_match(self):
        with pytest.raises(ValueError):
            Snapshot(neighbours=(Point(1, 0),), multiplicities=(1, 2))


class TestBuildSnapshot:
    def test_visibility_filtering(self):
        snap = build_snapshot((0, 0), [(0.5, 0), (2.0, 0)], visibility_range=1.0)
        assert snap.neighbour_count() == 1
        assert snap.neighbours[0] == Point(0.5, 0)

    def test_positions_are_relative(self):
        snap = build_snapshot((10, 10), [(10.5, 10.0)], visibility_range=1.0)
        assert snap.neighbours[0] == Point(0.5, 0.0)

    def test_coincident_robot_excluded(self):
        snap = build_snapshot((1, 1), [(1, 1), (1.5, 1)], visibility_range=1.0)
        assert snap.neighbour_count() == 1

    def test_coincident_others_collapse_without_multiplicity(self):
        snap = build_snapshot((0, 0), [(0.5, 0), (0.5, 0)], visibility_range=1.0)
        assert snap.neighbour_count() == 1
        assert snap.multiplicities is None

    def test_multiplicity_detection(self):
        snap = build_snapshot(
            (0, 0), [(0.5, 0), (0.5, 0), (0, 0.5)], visibility_range=1.0,
            multiplicity_detection=True,
        )
        assert snap.neighbour_count() == 2
        assert sorted(snap.multiplicities) == [1, 2]

    def test_range_revealed_only_when_requested(self):
        hidden = build_snapshot((0, 0), [(0.5, 0)], visibility_range=1.0)
        shown = build_snapshot((0, 0), [(0.5, 0)], visibility_range=1.0, reveal_range=True)
        assert hidden.visibility_range is None
        assert shown.visibility_range == 1.0

    def test_frame_is_applied(self):
        frame = LocalFrame(Point(0, 0), rotation=math.pi / 2)
        snap = build_snapshot((0, 0), [(1.0, 0.0)], visibility_range=2.0, frame=frame)
        # A robot to the east appears to the south in a frame rotated by +90 degrees.
        assert snap.neighbours[0].is_close(Point(0.0, -1.0), eps=1e-12)

    def test_perception_error_applied(self, rng):
        model = PerceptionModel(distance_error=0.1, bias="over")
        snap = build_snapshot((0, 0), [(1.0, 0.0)], visibility_range=2.0, perception=model, rng=rng)
        assert snap.neighbours[0].norm() == pytest.approx(1.1)

    def test_visibility_uses_true_positions_not_perceived(self, rng):
        # A robot exactly at the range is visible even if perception would
        # over-estimate its distance: sensing reach is physical.
        model = PerceptionModel(distance_error=0.1, bias="over")
        snap = build_snapshot((0, 0), [(1.0, 0.0)], visibility_range=1.0, perception=model, rng=rng)
        assert snap.neighbour_count() == 1
        assert snap.neighbours[0].norm() > 1.0

    def test_metadata_fields(self):
        snap = build_snapshot(
            (0, 0), [(0.5, 0)], visibility_range=1.0, k_bound=3, time=2.5, robot_id=7
        )
        assert snap.k_bound == 3
        assert snap.time == 2.5
        assert snap.robot_id == 7


class TestRowBackedSnapshot:
    def test_points_give_rows(self):
        snap = Snapshot(neighbours=(Point(1, 0), (0.0, 0.4)))
        assert snap.rows.tolist() == [[1.0, 0.0], [0.0, 0.4]]
        assert snap.neighbours == (Point(1, 0), Point(0.0, 0.4))
        assert Snapshot().rows.shape == (0, 2)

    def test_rows_give_points(self):
        snap = Snapshot(rows=np.array([[0.5, -0.25], [0.0, 1.0]]))
        assert snap.neighbours == (Point(0.5, -0.25), Point(0.0, 1.0))
        assert snap.neighbours is snap.neighbours
        assert snap.norms == (math.hypot(0.5, -0.25), 1.0)

    def test_rules_decide_without_building_points(self, monkeypatch):
        """The engine's decide reads only rows: count, KKNPS and Ando build no Point tuple."""
        snap = build_snapshot(
            (0.1, -0.2), [(0.6, 0.0), (-0.1, 0.5), (0.9, 0.3), (0.2, -0.1)],
            visibility_range=1.2, reveal_range=True,
        )

        def no_points(self):
            raise AssertionError("the Point neighbours were built")

        monkeypatch.setattr(Snapshot, "neighbours", property(no_points))
        assert snap.neighbour_count() == 4
        assert KKNPSAlgorithm().compute(snap) != Point.origin()
        assert AndoAlgorithm().compute(snap) != Point.origin()
        monkeypatch.undo()
        assert snap.neighbours == tuple(Point(x, y) for x, y in snap.rows.tolist())
