"""Tests for the Configuration type."""

import math

import numpy as np
import pytest

from repro.geometry import Point
from repro.model import Configuration


SQUARE = Configuration.of([(0, 0), (0.9, 0), (0.9, 0.9), (0, 0.9)], 1.0)


class TestBasics:
    def test_length_and_indexing(self):
        assert len(SQUARE) == 4
        assert SQUARE[0] == Point(0, 0)

    def test_positive_range_required(self):
        with pytest.raises(ValueError):
            Configuration.of([(0, 0)], 0.0)

    def test_as_array(self):
        arr = SQUARE.as_array()
        assert arr.shape == (4, 2)
        assert arr[2, 0] == pytest.approx(0.9)

    def test_with_positions_keeps_range(self):
        other = SQUARE.with_positions([(0, 0), (1, 1)])
        assert other.visibility_range == 1.0
        assert len(other) == 2

    def test_translated(self):
        moved = SQUARE.translated((1, 2))
        assert moved[0] == Point(1, 2)
        assert moved.hull_diameter() == pytest.approx(SQUARE.hull_diameter())

    def test_scaled_about_centroid(self):
        shrunk = SQUARE.scaled(0.5)
        assert shrunk.hull_diameter() == pytest.approx(SQUARE.hull_diameter() / 2)
        assert shrunk.centroid().is_close(SQUARE.centroid())


class TestGraph:
    def test_edges_of_square(self):
        edges = SQUARE.edges()
        assert (0, 1) in edges and (1, 2) in edges
        # The diagonal is longer than the range.
        assert (0, 2) not in edges

    def test_strong_edges_are_subset(self):
        assert SQUARE.strong_edges() <= SQUARE.edges()

    def test_connectivity(self):
        assert SQUARE.is_connected()
        sparse = Configuration.of([(0, 0), (5, 0)], 1.0)
        assert not sparse.is_connected()
        assert len(sparse.components()) == 2

    def test_degree(self):
        assert SQUARE.degree(0) == 2

    def test_preserves_edges_of(self):
        contracted = SQUARE.scaled(0.5)
        assert contracted.preserves_edges_of(SQUARE)
        exploded = SQUARE.scaled(3.0)
        assert not exploded.preserves_edges_of(SQUARE)
        assert exploded.broken_edges_of(SQUARE)


class TestGeometry:
    def test_hull_measures(self):
        assert SQUARE.hull_diameter() == pytest.approx(0.9 * math.sqrt(2))
        assert SQUARE.hull_perimeter() == pytest.approx(3.6)
        assert SQUARE.hull_radius() == pytest.approx(0.9 * math.sqrt(2) / 2)

    def test_bounding_box_and_centroid(self):
        box = SQUARE.bounding_box()
        assert box.width() == pytest.approx(0.9)
        assert SQUARE.centroid() == Point(0.45, 0.45)

    def test_min_pairwise_distance(self):
        assert SQUARE.min_pairwise_distance() == pytest.approx(0.9)
        assert Configuration.of([(0, 0)], 1.0).min_pairwise_distance() == 0.0

    def test_within_epsilon(self):
        assert not SQUARE.within_epsilon(0.5)
        tiny = SQUARE.scaled(0.01)
        assert tiny.within_epsilon(0.5)

    def test_multiplicity_points(self):
        config = Configuration.of([(0, 0), (0, 0), (1, 0)], 1.0)
        multiplicities = config.multiplicity_points()
        assert len(multiplicities) == 1
        point, count = multiplicities[0]
        assert point == Point(0, 0) and count == 2
        assert SQUARE.multiplicity_points() == []


class TestRowBackedPositions:
    """``positions`` reads as the tuple of Points it stands for."""

    COORDS = [(0.0, 0.0), (0.9, -0.0), (0.9, 0.9), (-1.5, 1e-300)]

    def _pair(self):
        config = Configuration.of(np.array(self.COORDS), 1.0)
        return config, tuple(Point(x, y) for x, y in self.COORDS)

    def test_len_index_slice_and_iteration(self):
        config, points = self._pair()
        positions = config.positions
        assert len(positions) == len(points)
        for index in range(-len(points), len(points)):
            assert positions[index] == points[index]
            assert type(positions[index].x) is float
        assert positions[1:3] == points[1:3] and type(positions[1:3]) is tuple
        assert positions[::-1] == points[::-1]
        assert tuple(positions) == points and list(reversed(positions)) == list(points[::-1])
        assert points[2] in positions and positions.index(points[3]) == 3
        with pytest.raises(IndexError):
            positions[len(points)]

    def test_equality_and_hash(self):
        config, points = self._pair()
        same = Configuration.of(list(points), 1.0)
        assert config.positions == points and config.positions == same.positions
        assert config == same and hash(config) == hash(same)
        assert hash(config.positions) == hash(points)
        assert config != Configuration.of(list(points), 2.0)
        assert config.positions != points[:-1] and config.positions != list(points)

    def test_rows_are_read_only_and_copied(self):
        arr = np.array(self.COORDS)
        config = Configuration.of(arr, 1.0)
        arr[0, 0] = 7.0
        assert config[0] == Point(0.0, 0.0)
        with pytest.raises(ValueError):
            config.as_array()[0, 0] = 1.0
        with pytest.raises(ValueError):
            config.positions.rows[0, 0] = 1.0

    def test_same_bytes_from_points_and_rows(self):
        config, points = self._pair()
        assert Configuration.of(points, 1.0).as_array().tobytes() == config.as_array().tobytes()
        assert Configuration.of(config.positions, 1.0).as_array() is config.as_array()

    def test_pickle_round_trip_stays_read_only(self):
        import pickle

        config, _ = self._pair()
        copy = pickle.loads(pickle.dumps(config))
        assert copy == config
        with pytest.raises(ValueError):
            copy.as_array()[0, 0] = 1.0
