"""Tests for the safe-region constructions of all three algorithms."""

import math

import pytest

from repro.algorithms import (
    ando_safe_region,
    ando_safe_region_local,
    katreniak_safe_region,
    katreniak_safe_region_local,
    kknps_max_planned_move,
    kknps_safe_region,
    kknps_safe_region_local,
    max_step_within_disks,
    max_step_within_regions,
    point_respects_disks,
)
from repro.geometry import Disk, Point


class TestKKNPSSafeRegion:
    def test_geometry_matches_paper(self):
        # Radius V_Y / 8, centred at distance V_Y / 8 toward the neighbour.
        region = kknps_safe_region((0, 0), (1, 0), 0.8)
        assert region.radius == pytest.approx(0.1)
        assert region.center == Point(0.1, 0.0)

    def test_scaling_by_one_over_k(self):
        base = kknps_safe_region((0, 0), (1, 0), 0.8)
        scaled = kknps_safe_region((0, 0), (1, 0), 0.8, alpha=0.25)
        assert scaled.radius == pytest.approx(base.radius / 4)
        assert scaled.center.norm() == pytest.approx(base.center.norm() / 4)

    def test_depends_only_on_direction(self):
        near = kknps_safe_region((0, 0), (0.5, 0.5), 1.0)
        far = kknps_safe_region((0, 0), (5, 5), 1.0)
        assert near.center.is_close(far.center)
        assert near.radius == far.radius

    def test_observer_on_boundary(self):
        region = kknps_safe_region_local((1, 0), 1.0)
        assert region.on_boundary((0, 0))

    def test_custom_radius_divisor(self):
        region = kknps_safe_region((0, 0), (1, 0), 1.0, radius_divisor=4.0)
        assert region.radius == pytest.approx(0.25)

    def test_max_planned_move(self):
        assert kknps_max_planned_move(0.8) == pytest.approx(0.1)
        assert kknps_max_planned_move(0.8, alpha=0.5) == pytest.approx(0.05)


class TestAndoSafeRegion:
    def test_midpoint_disk(self):
        region = ando_safe_region((0, 0), (1, 0), 1.0)
        assert region.center == Point(0.5, 0.0)
        assert region.radius == pytest.approx(0.5)

    def test_both_endpoints_inside_when_within_range(self):
        region = ando_safe_region((0, 0), (0.8, 0), 1.0)
        assert region.contains((0, 0))
        assert region.contains((0.8, 0))

    def test_staying_inside_preserves_visibility(self):
        # Any two points of the shared disk are within V of each other.
        region = ando_safe_region_local((1.0, 0.0), 1.0)
        a = region.boundary_point(0.3)
        b = region.boundary_point(0.3 + math.pi)
        assert a.distance_to(b) <= 1.0 + 1e-12


class TestKatreniakSafeRegion:
    def test_two_disk_shape(self):
        region = katreniak_safe_region((0, 0), (0.8, 0), 1.0)
        assert region.near_disk.center == Point(0.2, 0.0)
        assert region.near_disk.radius == pytest.approx(0.2)
        assert region.slack_disk.center == Point(0.0, 0.0)
        assert region.slack_disk.radius == pytest.approx(0.05)

    def test_union_membership(self):
        region = katreniak_safe_region_local((0.8, 0), 1.0)
        assert region.contains((0.2, 0.0))        # in the near disk
        assert region.contains((0.0, 0.04))       # in the slack disk
        assert not region.contains((0.8, 0.0))    # the neighbour itself is outside
        assert not region.contains((-0.2, 0.0))

    def test_slack_disk_vanishes_for_farthest_neighbour(self):
        region = katreniak_safe_region((0, 0), (1.0, 0), 1.0)
        assert region.slack_disk.radius == 0.0

    def test_disks_accessor(self):
        region = katreniak_safe_region_local((0.8, 0), 1.0)
        assert len(region.disks()) == 2


class TestMaxStepHelpers:
    def test_max_step_within_disks_reaches_goal_when_inside(self):
        disks = [Disk(Point(0.5, 0), 0.5)]
        end = max_step_within_disks((0, 0), (0.8, 0), disks)
        assert end.is_close(Point(0.8, 0.0))

    def test_max_step_clips_at_boundary(self):
        disks = [Disk(Point(0.5, 0), 0.5)]
        end = max_step_within_disks((0, 0), (2.0, 0), disks)
        assert end.is_close(Point(1.0, 0.0), eps=1e-9)

    def test_max_step_with_origin_outside_does_not_move(self):
        disks = [Disk(Point(5, 0), 0.5)]
        assert max_step_within_disks((0, 0), (1, 0), disks) == Point(0, 0)

    def test_max_step_multiple_disks_takes_tightest(self):
        disks = [Disk(Point(0.5, 0), 0.5), Disk(Point(0.25, 0), 0.3)]
        end = max_step_within_disks((0, 0), (2.0, 0), disks)
        assert end.x == pytest.approx(0.55, abs=1e-9)

    def test_point_respects_disks(self):
        disks = [Disk(Point(0, 0), 1.0), Disk(Point(1, 0), 1.0)]
        assert point_respects_disks((0.5, 0), disks)
        assert not point_respects_disks((-0.5, 0), disks)

    def test_max_step_within_regions_prefix_semantics(self):
        regions = [katreniak_safe_region_local((0.8, 0.0), 1.0)]
        end = max_step_within_regions((0, 0), (0.4, 0.0), regions, samples=256)
        # The move stops at the largest feasible prefix of the ray.
        assert 0.3 <= end.x <= 0.4 + 1e-9
        assert regions[0].contains(end, eps=1e-6)

    def test_max_step_within_regions_matches_reference_loop(self):
        """The vectorized pass pins bitwise to the 512-sample loop."""
        import random

        from repro.algorithms.safe_regions import _max_step_within_regions_loop

        rng = random.Random(7)
        for _ in range(120):
            origin = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
            goal = Point(
                origin.x + rng.uniform(-0.5, 0.5), origin.y + rng.uniform(-0.5, 0.5)
            )
            regions = [
                katreniak_safe_region(
                    origin,
                    Point(origin.x + rng.uniform(-1, 1), origin.y + rng.uniform(-1, 1)),
                    rng.uniform(0.5, 1.5),
                )
                for _ in range(rng.randint(1, 4))
            ]
            vectorized = max_step_within_regions(origin, goal, regions)
            reference = _max_step_within_regions_loop(origin, goal, regions, 512)
            assert (vectorized.x, vectorized.y) == (reference.x, reference.y)

    def test_max_step_within_regions_later_region_fails_earlier(self):
        """Regions ordered so each fails the ray earlier than the one before
        it: the prefix each later region is tested on shrinks, and the
        landing still pins bitwise to the 512-sample loop."""
        import random

        from repro.algorithms.safe_regions import _max_step_within_regions_loop

        rng = random.Random(11)
        tightened = 0
        for _ in range(60):
            origin = Point(0.0, 0.0)
            goal = Point.polar(rng.uniform(0.2, 0.5), rng.uniform(0.0, 6.28))
            regions = [
                katreniak_safe_region(
                    origin, Point.polar(rng.uniform(0.3, 1.0), rng.uniform(0.0, 6.28)), 1.0
                )
                for _ in range(rng.randint(2, 5))
            ]
            alone = [
                _max_step_within_regions_loop(origin, goal, [region], 512).norm()
                for region in regions
            ]
            regions = [region for _, region in sorted(zip(alone, regions), key=lambda p: -p[0])]
            tightened += sorted(alone)[0] < sorted(alone)[-1]
            vectorized = max_step_within_regions(origin, goal, regions)
            reference = _max_step_within_regions_loop(origin, goal, regions, 512)
            assert (vectorized.x, vectorized.y) == (reference.x, reference.y)
        assert tightened >= 30

    def test_max_step_within_regions_unknown_region_type_falls_back(self):
        class HalfPlane:
            def contains(self, point, *, eps=0.0):
                return Point.of(point).x <= 0.25

        end = max_step_within_regions((0, 0), (1.0, 0.0), [HalfPlane()], samples=100)
        assert end.x == pytest.approx(0.25, abs=0.011)


class TestBatchedMembership:
    """The batched membership paths agree with the scalar predicates."""

    def _regions(self):
        import numpy as np

        rng = np.random.default_rng(7)
        observer = Point(0.0, 0.0)
        regions = [
            katreniak_safe_region(observer, Point.polar(r, a), 1.0)
            for r, a in zip(rng.uniform(0.3, 0.99, size=4), rng.uniform(0.0, 6.28, size=4))
        ]
        return rng, regions

    def test_katreniak_contains_array_matches_contains(self):
        import numpy as np

        rng, regions = self._regions()
        px = rng.normal(scale=0.6, size=256)
        py = rng.normal(scale=0.6, size=256)
        for region in regions:
            verdicts = region.contains_array(px, py)
            for i in range(len(px)):
                assert verdicts[i] == region.contains(Point(float(px[i]), float(py[i])))

    def test_max_step_within_regions_unchanged_by_batched_membership(self):
        import numpy as np

        rng, regions = self._regions()
        origin = Point(0.0, 0.0)
        for a in np.linspace(0.0, 6.2, 13):
            goal = Point.polar(0.4, float(a))
            landing = max_step_within_regions(origin, goal, regions)
            # The landing point must lie inside every region (the contract
            # the batched membership path inherits from the scalar loop),
            # unless no prefix of the segment was feasible at all.
            if landing != origin:
                assert all(r.contains(landing, eps=1e-7) for r in regions)
