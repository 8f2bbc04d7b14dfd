"""Tests for the paper's algorithm (KKNPS)."""

import math

import numpy as np
import pytest

from repro.algorithms import KKNPSAlgorithm
from repro.geometry import Point
from repro.model import Snapshot


def snap(*neighbours):
    return Snapshot(neighbours=tuple(Point.of(p) for p in neighbours))


class TestParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            KKNPSAlgorithm(k=0)
        with pytest.raises(ValueError):
            KKNPSAlgorithm(distance_error_tolerance=1.0)
        with pytest.raises(ValueError):
            KKNPSAlgorithm(skew_tolerance=0.6)
        with pytest.raises(ValueError):
            KKNPSAlgorithm(close_fraction=1.0)
        with pytest.raises(ValueError):
            KKNPSAlgorithm(radius_divisor=2.0)

    def test_alpha_and_name(self):
        algorithm = KKNPSAlgorithm(k=4)
        assert algorithm.alpha == pytest.approx(0.25)
        assert algorithm.name == "kknps(k=4)"
        assert not algorithm.requires_visibility_range

    def test_describe_mentions_tolerances(self):
        text = KKNPSAlgorithm(k=2, distance_error_tolerance=0.05, skew_tolerance=0.1).describe()
        assert "delta" in text and "lambda" in text


class TestDestinationRule:
    def test_no_neighbours_means_nil_move(self):
        assert KKNPSAlgorithm().compute(snap()) == Point(0, 0)

    def test_single_neighbour_moves_to_safe_region_center(self):
        destination = KKNPSAlgorithm(k=1).compute(snap((0.8, 0.0)))
        # V_Y = 0.8, radius = 0.1, centre at 0.1 toward the neighbour.
        assert destination.is_close(Point(0.1, 0.0))

    def test_move_length_never_exceeds_v_over_8(self):
        rng = np.random.default_rng(0)
        algorithm = KKNPSAlgorithm(k=1)
        for _ in range(200):
            neighbours = [
                Point.polar(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0, 2 * math.pi)))
                for _ in range(rng.integers(1, 6))
            ]
            snapshot = Snapshot(neighbours=tuple(neighbours))
            destination = algorithm.compute(snapshot)
            assert destination.norm() <= snapshot.farthest_distance() / 8.0 + 1e-12

    def test_scaling_by_k_divides_move(self):
        base = KKNPSAlgorithm(k=1).compute(snap((1.0, 0.0)))
        scaled = KKNPSAlgorithm(k=4).compute(snap((1.0, 0.0)))
        assert scaled.norm() == pytest.approx(base.norm() / 4.0)
        assert scaled.unit().is_close(base.unit())

    def test_two_distant_neighbours_use_lens_midpoint(self):
        destination = KKNPSAlgorithm(k=1).compute(snap((1.0, 0.0), (0.0, 1.0)))
        expected = (Point(0.125, 0.0) + Point(0.0, 0.125)) * 0.5
        assert destination.is_close(expected)

    def test_intermediate_distant_neighbours_do_not_change_target(self):
        with_extra = KKNPSAlgorithm(k=1).compute(
            snap((1.0, 0.0), (0.0, 1.0), Point.polar(0.9, math.pi / 4))
        )
        without_extra = KKNPSAlgorithm(k=1).compute(snap((1.0, 0.0), (0.0, 1.0)))
        assert with_extra.is_close(without_extra)

    def test_close_neighbours_are_ignored_for_the_target(self):
        with_close = KKNPSAlgorithm(k=1).compute(snap((1.0, 0.0), (0.1, -0.3)))
        without_close = KKNPSAlgorithm(k=1).compute(snap((1.0, 0.0)))
        assert with_close.is_close(without_close)

    def test_surrounded_robot_stays_put(self):
        # Three distant neighbours at 120-degree spacing: no open half-plane.
        neighbours = [Point.polar(1.0, angle) for angle in (0.0, 2.0943951, 4.1887902)]
        assert KKNPSAlgorithm(k=1).compute(Snapshot(neighbours=tuple(neighbours))) == Point(0, 0)

    def test_antipodal_neighbours_freeze_the_robot(self):
        assert KKNPSAlgorithm(k=1).compute(snap((1.0, 0.0), (-0.9, 0.0))) == Point(0, 0)

    def test_hub_of_the_impossibility_construction_moves_along_bisector(self):
        # X_A sees X_B at angle 0 and X_C at angle -135 degrees, both at distance 1.
        destination = KKNPSAlgorithm(k=1).compute(
            snap((1.0, 0.0), Point.polar(1.0, -3 * math.pi / 4))
        )
        assert destination.norm() > 0.0
        assert math.degrees(destination.angle()) == pytest.approx(-67.5, abs=1e-6)

    def test_destination_respects_all_safe_regions(self):
        rng = np.random.default_rng(1)
        algorithm = KKNPSAlgorithm(k=2)
        for _ in range(100):
            neighbours = [
                Point.polar(float(rng.uniform(0.2, 1.0)), float(rng.uniform(0, 2 * math.pi)))
                for _ in range(rng.integers(1, 7))
            ]
            snapshot = Snapshot(neighbours=tuple(neighbours))
            assert algorithm.destination_respects_safe_regions(snapshot)

    def test_rotation_equivariance(self):
        algorithm = KKNPSAlgorithm(k=1)
        neighbours = [Point(1.0, 0.0), Point(0.0, 0.9)]
        rotated = [p.rotated(0.7) for p in neighbours]
        base = algorithm.compute(Snapshot(neighbours=tuple(neighbours)))
        turned = algorithm.compute(Snapshot(neighbours=tuple(rotated)))
        assert turned.is_close(base.rotated(0.7), eps=1e-9)


class TestErrorTolerance:
    def test_distance_error_shrinks_the_range_estimate(self):
        tolerant = KKNPSAlgorithm(k=1, distance_error_tolerance=0.1)
        plain = KKNPSAlgorithm(k=1)
        snapshot = snap((1.0, 0.0))
        assert tolerant.perceived_range_bound(snapshot) == pytest.approx(1.0 / 1.1)
        assert tolerant.compute(snapshot).norm() < plain.compute(snapshot).norm()

    def test_skew_tolerance_shrinks_the_safe_region(self):
        tolerant = KKNPSAlgorithm(k=1, skew_tolerance=0.1)
        assert tolerant.effective_radius(1.0) == pytest.approx((1.0 / 8.0) * 0.8)
        destination = tolerant.compute(snap((1.0, 0.0)))
        assert destination.norm() == pytest.approx(0.1)

    def test_max_move_length_helper(self):
        algorithm = KKNPSAlgorithm(k=2)
        snapshot = snap((0.8, 0.0))
        assert algorithm.max_move_length(snapshot) == pytest.approx(0.05)


class TestSurroundCertificate:
    def test_most_grid_activations_skip_the_exact_scan(self, monkeypatch):
        """On a 10^4-robot grid, nearly every robot is surrounded: under a
        tenth of the flat round decide's activations reach the exact scan."""
        import repro.algorithms.kknps as kknps
        from repro.engine.simulator import Simulator
        from repro.sweeps.runner import planar_setup
        from repro.sweeps.spec import SweepSpec

        seen = {"all": 0, "exact": 0}

        def counting(name, key):
            original = getattr(kknps, name)

            def wrapper(px, py, starts, ends, consts):
                seen[key] += len(starts)
                return original(px, py, starts, ends, consts)

            monkeypatch.setattr(kknps, name, wrapper)

        counting("kknps_destinations_all", "all")
        counting("_kknps_destinations_exact", "exact")
        spec = SweepSpec(
            algorithms=("kknps",),
            schedulers=("ssync",),
            workloads=("grid",),
            n_robots=(10_000,),
            seeds=(7,),
            max_activations=10_000,
        ).expand()[0]
        configuration, algorithm, scheduler, config = planar_setup(spec)
        result = Simulator(configuration.positions, algorithm, scheduler, config).run()
        assert result.activations_processed == seen["all"] == 10_000
        assert seen["exact"] < 0.1 * seen["all"]
