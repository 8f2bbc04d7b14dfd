"""Tests for the 3D instantiation of the paper's algorithm and its simulator."""

import math

import numpy as np
import pytest

from repro.spatial3d import (
    KKNPS3Algorithm,
    Simulation3Config,
    Snapshot3,
    Vector3,
    lattice_configuration3,
    line_configuration3,
    random_connected_configuration3,
    run_simulation3,
)


def snap(*neighbours):
    return Snapshot3(neighbours=tuple(Vector3.of(p) for p in neighbours))


class TestKKNPS3Rule:
    def test_validation(self):
        with pytest.raises(ValueError):
            KKNPS3Algorithm(k=0)
        with pytest.raises(ValueError):
            KKNPS3Algorithm(close_fraction=1.5)
        with pytest.raises(ValueError):
            KKNPS3Algorithm(radius_divisor=2.0)

    def test_no_neighbours_stays(self):
        assert KKNPS3Algorithm().compute(snap()) == Vector3.zero()

    def test_array_core_stays_on_empty_or_degenerate_rows(self):
        algorithm = KKNPS3Algorithm(k=2)
        assert (algorithm.compute_array(np.empty((0, 3))) == 0.0).all()
        degenerate = np.array([[1e-15, 0.0, 0.0], [0.0, -1e-15, 1e-16]])
        assert (algorithm.compute_array(degenerate) == 0.0).all()

    def test_single_neighbour_moves_toward_it(self):
        destination = KKNPS3Algorithm(k=1).compute(snap((0.8, 0, 0)))
        assert destination.x == pytest.approx(0.1)
        assert destination.y == pytest.approx(0.0, abs=1e-12)
        assert destination.z == pytest.approx(0.0, abs=1e-12)

    def test_move_length_bounded_by_scaled_radius(self):
        rng = np.random.default_rng(0)
        algorithm = KKNPS3Algorithm(k=3)
        for _ in range(100):
            neighbours = [
                Vector3.spherical(
                    float(rng.uniform(0.1, 1.0)),
                    float(rng.uniform(0, 2 * math.pi)),
                    float(math.acos(rng.uniform(-1, 1))),
                )
                for _ in range(rng.integers(1, 6))
            ]
            snapshot = Snapshot3(neighbours=tuple(neighbours))
            destination = algorithm.compute(snapshot)
            assert destination.norm() <= snapshot.farthest_distance() / 24.0 + 1e-9

    def test_destination_respects_every_safe_ball(self):
        rng = np.random.default_rng(1)
        algorithm = KKNPS3Algorithm(k=2)
        for _ in range(100):
            neighbours = [
                Vector3.spherical(
                    float(rng.uniform(0.2, 1.0)),
                    float(rng.uniform(0, 2 * math.pi)),
                    float(math.acos(rng.uniform(-1, 1))),
                )
                for _ in range(rng.integers(1, 6))
            ]
            assert algorithm.destination_respects_safe_balls(Snapshot3(neighbours=tuple(neighbours)))

    def test_static_neighbours_remain_visible(self):
        rng = np.random.default_rng(2)
        algorithm = KKNPS3Algorithm(k=1)
        for _ in range(100):
            neighbours = [
                Vector3.spherical(
                    float(rng.uniform(0.2, 1.0)),
                    float(rng.uniform(0, 2 * math.pi)),
                    float(math.acos(rng.uniform(-1, 1))),
                )
                for _ in range(rng.integers(1, 5))
            ]
            snapshot = Snapshot3(neighbours=tuple(neighbours))
            destination = algorithm.compute(snapshot)
            v_y = snapshot.farthest_distance()
            for p in neighbours:
                assert destination.distance_to(p) <= v_y + 1e-9

    def test_surrounded_robot_stays(self):
        neighbours = [
            Vector3(1, 1, 1), Vector3(1, -1, -1), Vector3(-1, 1, -1), Vector3(-1, -1, 1)
        ]
        assert KKNPS3Algorithm(k=1).compute(Snapshot3(neighbours=tuple(neighbours))) == Vector3.zero()

    def test_scaling_with_k(self):
        base = KKNPS3Algorithm(k=1).compute(snap((1, 0, 0)))
        scaled = KKNPS3Algorithm(k=4).compute(snap((1, 0, 0)))
        assert scaled.norm() == pytest.approx(base.norm() / 4.0)


class TestWorkloads3:
    def test_line_and_lattice(self):
        assert line_configuration3(5).is_connected()
        assert lattice_configuration3(2).is_connected()
        assert len(lattice_configuration3(2)) == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            line_configuration3(0)
        with pytest.raises(ValueError):
            lattice_configuration3(2, spacing=2.0)
        with pytest.raises(ValueError):
            random_connected_configuration3(0)

    def test_random_configuration_connected_and_deterministic(self):
        a = random_connected_configuration3(12, seed=3)
        b = random_connected_configuration3(12, seed=3)
        assert a.is_connected()
        assert all(p.is_close(q) for p, q in zip(a.positions, b.positions))


class TestSimulator3:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            Simulation3Config(visibility_range=0.0)
        with pytest.raises(ValueError):
            Simulation3Config(activation_probability=0.0)
        with pytest.raises(ValueError):
            Simulation3Config(xi=0.0)
        with pytest.raises(ValueError):
            Simulation3Config(max_rounds=0)

    def test_fully_synchronous_convergence(self):
        configuration = lattice_configuration3(2, spacing=0.6)
        result = run_simulation3(
            configuration.positions,
            KKNPS3Algorithm(k=1),
            Simulation3Config(max_rounds=2000, convergence_epsilon=0.05, seed=0),
        )
        assert result.converged
        assert result.cohesion_maintained
        assert result.final_diameter <= 0.05 + 1e-9

    def test_semi_synchronous_nonrigid_convergence(self):
        configuration = random_connected_configuration3(10, seed=7)
        result = run_simulation3(
            configuration.positions,
            KKNPS3Algorithm(k=2),
            Simulation3Config(
                max_rounds=4000, convergence_epsilon=0.05,
                activation_probability=0.5, xi=0.4, seed=7,
            ),
        )
        assert result.converged
        assert result.cohesion_maintained

    def test_diameter_history_is_monotone(self):
        configuration = line_configuration3(5, spacing=0.7)
        result = run_simulation3(
            configuration.positions,
            KKNPS3Algorithm(k=1),
            Simulation3Config(max_rounds=500, convergence_epsilon=0.05, seed=1),
        )
        history = result.diameter_history
        assert all(later <= earlier + 1e-9 for earlier, later in zip(history, history[1:]))
