"""Tests for the workload generators."""

import math

import numpy as np
import pytest
from reference.generators import reference_workload

from repro.geometry import Point
from repro.sweeps.factories import WORKLOAD_FACTORIES, make_workload
from repro.workloads import (
    annulus_configuration,
    blob_configuration,
    clustered_configuration,
    grid_configuration,
    line_configuration,
    polygon_configuration,
    random_connected_configuration,
    random_disk_configuration,
    ring_configuration,
    two_robot_configuration,
)


class TestDeterministicShapes:
    def test_line(self):
        config = line_configuration(5, spacing=0.8)
        assert len(config) == 5
        assert config.is_connected()
        assert config[4] == Point(3.2, 0.0)

    def test_line_validation(self):
        with pytest.raises(ValueError):
            line_configuration(0)
        with pytest.raises(ValueError):
            line_configuration(3, spacing=1.5)

    def test_grid(self):
        config = grid_configuration(3, 4, spacing=0.7)
        assert len(config) == 12
        assert config.is_connected()

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            grid_configuration(0, 3)
        with pytest.raises(ValueError):
            grid_configuration(2, 2, spacing=2.0)

    def test_ring(self):
        config = ring_configuration(8)
        assert len(config) == 8
        assert config.is_connected()
        # All robots are at the same distance from the centroid.
        centroid = config.centroid()
        radii = [p.distance_to(centroid) for p in config.positions]
        assert max(radii) - min(radii) < 1e-9

    def test_ring_validation(self):
        with pytest.raises(ValueError):
            ring_configuration(2)
        with pytest.raises(ValueError):
            ring_configuration(5, chord_fraction=0.0)

    def test_polygon_unit_sides(self):
        config = polygon_configuration(6, side_length=1.0)
        positions = list(config.positions)
        for a, b in zip(positions, positions[1:] + positions[:1]):
            assert a.distance_to(b) == pytest.approx(1.0)

    def test_two_robot(self):
        config = two_robot_configuration(0.6)
        assert len(config) == 2
        assert config.hull_diameter() == pytest.approx(0.6)


class TestRandomShapes:
    @pytest.mark.parametrize("n", [1, 2, 10, 40])
    def test_random_connected_is_connected(self, n):
        config = random_connected_configuration(n, seed=n)
        assert len(config) == n
        assert config.is_connected()

    def test_random_connected_is_deterministic_per_seed(self):
        a = random_connected_configuration(12, seed=3)
        b = random_connected_configuration(12, seed=3)
        c = random_connected_configuration(12, seed=4)
        assert all(p.is_close(q) for p, q in zip(a.positions, b.positions))
        assert any(not p.is_close(q) for p, q in zip(a.positions, c.positions))

    def test_random_connected_accepts_generator(self):
        rng = np.random.default_rng(5)
        config = random_connected_configuration(8, seed=rng)
        assert config.is_connected()

    def test_random_connected_validation(self):
        with pytest.raises(ValueError):
            random_connected_configuration(0)
        with pytest.raises(ValueError):
            random_connected_configuration(5, attach_radius_fraction=1.5)

    def test_clustered_configuration(self):
        config = clustered_configuration(3, 4, seed=1)
        assert len(config) == 3 * 4 + 2  # clusters plus bridges
        assert config.is_connected()

    def test_clustered_validation(self):
        with pytest.raises(ValueError):
            clustered_configuration(0, 3)
        with pytest.raises(ValueError):
            clustered_configuration(2, 2, cluster_radius_fraction=0.5)

    def test_random_disk_connected(self):
        config = random_disk_configuration(15, disk_radius=2.0, visibility_range=1.5, seed=2)
        assert config.is_connected()
        assert all(p.norm() <= 2.0 + 1e-9 for p in config.positions)

    def test_random_disk_raises_when_infeasible(self):
        with pytest.raises(RuntimeError):
            random_disk_configuration(
                3, disk_radius=100.0, visibility_range=0.1, seed=0, max_attempts=5
            )


class TestBlobConfiguration:
    """Property-style checks: every generated instance is visibility-connected."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("n", [3, 7, 12, 25])
    def test_always_connected_with_exact_count(self, n, seed):
        config = blob_configuration(n, seed=seed)
        assert len(config) == n
        assert config.is_connected()

    @pytest.mark.parametrize("seed", range(6))
    def test_scaled_visibility_range(self, seed):
        config = blob_configuration(10, visibility_range=2.5, seed=seed)
        assert config.visibility_range == 2.5
        assert config.is_connected()

    def test_deterministic_per_seed(self):
        a = blob_configuration(9, seed=4)
        b = blob_configuration(9, seed=4)
        c = blob_configuration(9, seed=5)
        assert tuple(a.positions) == tuple(b.positions)
        assert tuple(a.positions) != tuple(c.positions)

    def test_validation(self):
        with pytest.raises(ValueError):
            blob_configuration(0)
        with pytest.raises(ValueError):
            blob_configuration(2, n_blobs=3)
        with pytest.raises(ValueError):
            # Gap plus two radii beyond V could disconnect adjacent blobs.
            blob_configuration(6, blob_radius_fraction=0.3, centre_gap_fraction=0.6)


class TestAnnulusConfiguration:
    """Property-style checks: accepted samples are connected and in the annulus."""

    @pytest.mark.parametrize("seed", range(12))
    def test_always_connected_within_radii(self, seed):
        config = annulus_configuration(10, inner_radius=0.5, outer_radius=1.2, seed=seed)
        assert len(config) == 10
        assert config.is_connected()
        for p in config.positions:
            assert 0.5 - 1e-9 <= p.norm() <= 1.2 + 1e-9

    def test_deterministic_per_seed(self):
        a = annulus_configuration(8, seed=2)
        b = annulus_configuration(8, seed=2)
        assert tuple(a.positions) == tuple(b.positions)

    def test_validation(self):
        with pytest.raises(ValueError):
            annulus_configuration(1)
        with pytest.raises(ValueError):
            annulus_configuration(5, inner_radius=1.2, outer_radius=0.5)

    def test_raises_when_infeasible(self):
        with pytest.raises(RuntimeError):
            annulus_configuration(
                3, inner_radius=40.0, outer_radius=50.0, visibility_range=0.1,
                seed=0, max_attempts=5,
            )


PLANAR_WORKLOADS = tuple(WORKLOAD_FACTORIES)


class TestRowsEqualThePointLoops:
    """Every planar registry workload builds the rows the Point-by-Point
    generators built, byte for byte, and the same visibility range."""

    @pytest.mark.parametrize("name", PLANAR_WORKLOADS)
    def test_rows_are_byte_equal(self, name):
        for n in (3, 17, 200, 2000):
            for seed in range(5):
                try:
                    rows, visibility_range = reference_workload(name, n, seed)
                except (ValueError, RuntimeError) as refused:
                    with pytest.raises(type(refused)):
                        make_workload(name, n, seed)
                    continue
                config = make_workload(name, n, seed)
                assert config.as_array().tobytes() == rows.tobytes(), (name, n, seed)
                assert config.visibility_range == visibility_range


class TestConnectedByConstruction:
    """The shapes built by attachment or bridging are connected without a
    check in the generator: seeds 0-19 at several sizes."""

    @pytest.mark.parametrize("name", ["random", "clusters", "blobs"])
    def test_always_connected(self, name):
        for n in (1, 2, 3, 17, 200, 1000):
            for seed in range(20):
                config = make_workload(name, n, seed)
                assert len(config) == n
                assert config.is_connected(), (name, n, seed)

    @pytest.mark.parametrize("seed", range(20))
    def test_non_default_shapes_are_connected(self, seed):
        assert random_connected_configuration(
            60, visibility_range=0.5, attach_radius_fraction=1.0, spread=0.0, seed=seed
        ).is_connected()
        assert clustered_configuration(
            4, 9, cluster_radius_fraction=0.35, visibility_range=2.0, seed=seed
        ).is_connected()
        assert blob_configuration(
            40, n_blobs=5, blob_radius_fraction=0.25, centre_gap_fraction=0.5, seed=seed
        ).is_connected()
