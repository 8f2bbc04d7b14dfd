"""Tests for 3D configurations, visibility and snapshots."""

import numpy as np
import pytest

from repro.geometry import pairs
from repro.geometry.pairs import dense_diameter, rows_diameter
from repro.spatial3d import (
    Configuration3,
    Snapshot3,
    Vector3,
    build_snapshot3,
    edges_preserved3,
    is_connected3,
    max_pairwise_distance3,
    visibility_edges3,
)


LINE3 = [Vector3(0, 0, 0), Vector3(0.8, 0, 0), Vector3(1.6, 0, 0)]


def _random3(n, seed):
    return np.random.default_rng(seed).normal(scale=2.0, size=(n, 3))


def _tied_lattice3(side):
    """A cubic lattice: many pairs tie at every distance, the diameter included."""
    axis = np.arange(side) * 0.7
    return np.array([(x, y, z) for x in axis for y in axis for z in axis])


def _coplanar3(n, seed):
    """Points on one horizontal plane (a flat hull, which Qhull rejects)."""
    points = np.full((n, 3), 1.25)
    points[:, :2] = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(n, 2))
    return points


def _scalar_diameter(arr):
    return max_pairwise_distance3([tuple(row) for row in arr])


class TestVisibility3:
    def test_edges_and_connectivity(self):
        assert visibility_edges3(LINE3, 1.0) == {(0, 1), (1, 2)}
        assert is_connected3(LINE3, 1.0)
        assert not is_connected3(LINE3, 0.5)

    def test_edges_preserved(self):
        edges = visibility_edges3(LINE3, 1.0)
        assert edges_preserved3(edges, LINE3, 1.0)
        moved = [LINE3[0], LINE3[1], Vector3(5, 0, 0)]
        assert not edges_preserved3(edges, moved, 1.0)


class TestConfiguration3:
    def test_basics(self):
        config = Configuration3.of(LINE3, 1.0)
        assert len(config) == 3
        assert config[1] == Vector3(0.8, 0, 0)
        assert config.diameter() == pytest.approx(1.6)
        assert config.centroid().is_close(Vector3(0.8, 0, 0))
        assert config.is_connected()
        assert not config.within_epsilon(0.1)

    def test_positive_range_required(self):
        with pytest.raises(ValueError):
            Configuration3.of(LINE3, 0.0)

    def test_preserves_edges_of(self):
        config = Configuration3.of(LINE3, 1.0)
        contracted = Configuration3.of([p * 0.5 for p in LINE3], 1.0)
        assert contracted.preserves_edges_of(config)


class TestDiameter3:
    """The array diameter scans return the scalar pairwise reduction's float."""

    CASES = {
        "empty": np.zeros((0, 3)),
        "single": np.array([[0.3, -1.0, 2.0]]),
        "pair": np.array([[0.0, 0.0, 0.0], [0.1, 0.2, -0.3]]),
        "random": _random3(40, 0),
        "tied-lattice": _tied_lattice3(4),
        "coplanar": _coplanar3(30, 1),
        "past-one-block": _random3(530, 2),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_diameter_equals_scalar_scan(self, name):
        arr = self.CASES[name]
        expected = _scalar_diameter(arr)
        assert Configuration3.of(arr, 1.0).diameter() == expected
        assert dense_diameter(arr) == rows_diameter(arr) == expected

    def test_one_row_blocks_cover_every_pair(self, monkeypatch):
        monkeypatch.setattr(pairs, "_DIAMETER_BLOCK_PAIRS", 64)
        arr = _random3(50, 3)
        assert dense_diameter(arr) == _scalar_diameter(arr)

    @pytest.mark.parametrize("name", ["random", "tied-lattice", "coplanar", "past-one-block"])
    def test_hull_vertex_diameter_equals_scalar_scan(self, name, monkeypatch):
        """Past ``METRICS_DENSE_MAX`` the scan pairs the Qhull vertices only;
        a flat swarm, which Qhull rejects, still pairs every point."""
        monkeypatch.setattr(pairs, "METRICS_DENSE_MAX", 16)
        arr = self.CASES[name]
        assert rows_diameter(arr) == _scalar_diameter(arr)

    def test_large_diameter_scans_every_point_of_a_flat_swarm(self, monkeypatch):
        monkeypatch.setattr(pairs, "METRICS_DENSE_MAX", 16)
        arr = _coplanar3(600, 4)
        assert rows_diameter(arr) == _scalar_diameter(arr)


class TestSnapshot3:
    def test_queries(self):
        snap = Snapshot3(neighbours=(Vector3(1, 0, 0), Vector3(0, 0.3, 0)))
        assert snap.has_neighbours()
        assert snap.farthest_distance() == pytest.approx(1.0)
        distant = snap.distant_neighbours()
        assert Vector3(1, 0, 0) in distant
        assert Vector3(0, 0.3, 0) not in distant

    def test_build_snapshot_filters_by_range(self):
        snap = build_snapshot3(Vector3.zero(), [(0.5, 0, 0), (3, 0, 0)], 1.0)
        assert snap.has_neighbours()
        assert len(snap.neighbours) == 1

    def test_build_snapshot_random_frame_preserves_distances(self):
        rng = np.random.default_rng(0)
        snap = build_snapshot3(
            Vector3.zero(), [(0.5, 0, 0), (0, 0.7, 0)], 1.0, rng=rng, rotate_frame=True
        )
        norms = sorted(p.norm() for p in snap.neighbours)
        assert norms[0] == pytest.approx(0.5)
        assert norms[1] == pytest.approx(0.7)
