"""Property-based tests for the reachable-region lemmas (Lemmas 1-2)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, ReachableRegion, offset_disk
from repro.geometry.tolerances import EPS

finite = dict(allow_nan=False, allow_infinity=False)
coords = st.floats(min_value=-2.0, max_value=2.0, **finite)


class TestReachableRegionProperties:
    @given(
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.3, max_value=1.0),
        st.floats(min_value=0.0, max_value=2 * math.pi),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=120, deadline=None)
    def test_lemma1_containment(self, k, v_y, angle, seed):
        """j <= k scaled moves toward a stationary neighbour stay inside R."""
        rng = np.random.default_rng(seed)
        j = int(rng.integers(1, k + 1))
        neighbour = Point.polar(v_y * float(rng.uniform(0.55, 1.0)), angle)
        step = v_y / (8.0 * k)
        position = Point(0.0, 0.0)
        for _ in range(j):
            region = offset_disk(position, neighbour, step)
            direction = rng.uniform(0.0, 2.0 * math.pi)
            radius = region.radius * (1.0 if rng.random() < 0.5 else math.sqrt(rng.random()))
            position = region.center + Point.polar(radius, direction)
        target = ReachableRegion.of(Point(0, 0), neighbour, neighbour, j * v_y / (8.0 * k))
        assert target.contains(position, eps=1e-7)

    @given(
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=0.3, max_value=1.0),
        st.floats(min_value=0.0, max_value=2 * math.pi),
        st.floats(min_value=0.0, max_value=2 * math.pi),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=120, deadline=None)
    def test_lemma2_containment_with_moving_neighbour(self, k, v_y, angle, move_angle, seed):
        """Moves against a moving neighbour stay inside the extended region R."""
        rng = np.random.default_rng(seed)
        j = int(rng.integers(1, k + 1))
        x_start = Point.polar(v_y * float(rng.uniform(0.55, 1.0)), angle)
        x_end = x_start + Point.polar(v_y / 8.0 * float(rng.random()), move_angle)
        step = v_y / (8.0 * k)
        fractions = np.sort(rng.random(j))
        position = Point(0.0, 0.0)
        for t in fractions:
            observed = x_start.lerp(x_end, float(t))
            region = offset_disk(position, observed, step)
            direction = rng.uniform(0.0, 2.0 * math.pi)
            radius = region.radius * (1.0 if rng.random() < 0.5 else math.sqrt(rng.random()))
            position = region.center + Point.polar(radius, direction)
        target = ReachableRegion.of(Point(0, 0), x_start, x_end, j * v_y / (8.0 * k))
        assert target.contains(position, eps=1e-7)

    @given(
        st.floats(min_value=0.3, max_value=1.0),
        st.floats(min_value=0.0, max_value=2 * math.pi),
        st.floats(min_value=0.01, max_value=0.2),
    )
    @settings(max_examples=100)
    def test_region_grows_monotonically_with_radius(self, v_y, angle, extra):
        neighbour = Point.polar(v_y, angle)
        small = ReachableRegion.of(Point(0, 0), neighbour, neighbour, v_y / 8.0)
        # Every point of the smaller region's core disk stays inside the
        # expanded region.
        boundary_point = small.core_disk(0.0).boundary_point(angle + 1.0)
        assert small.expanded(extra).contains(boundary_point, eps=1e-7)

    @given(
        st.tuples(coords, coords),
        st.tuples(coords, coords),
        st.tuples(coords, coords),
        st.floats(min_value=0.01, max_value=1.0, **finite),
        st.sampled_from(["none", "start", "end"]),
        st.floats(min_value=0.0, max_value=2 * math.pi, **finite),
        st.tuples(coords, coords),
    )
    @settings(max_examples=300, deadline=None)
    def test_in_bulge_is_the_scalar_disk_conjunction(
        self, observer, x_start, x_end, radius, degenerate, theta, free
    ):
        """``in_bulge`` answers ``all(d.contains(q))`` over ``bulge_disks()``.

        The query points sit on each bulge disk's boundary, where the
        comparison is tightest, plus the observer and one free point; a
        degenerate region (observer at an endpoint) has no bulge and
        contains nothing.
        """
        if degenerate == "start":
            x_start = observer
        elif degenerate == "end":
            x_end = observer
        region = ReachableRegion.of(observer, x_start, x_end, radius)
        disks = region.bulge_disks()
        if degenerate != "none":
            assert disks == []
        queries = [Point(*free), Point(*observer)] + [
            Point(d.center.x + d.radius * math.cos(theta), d.center.y + d.radius * math.sin(theta))
            for d in disks
        ]
        for q in queries:
            for eps in (0.0, 1e-9, EPS):
                expected = bool(disks) and all(d.contains(q, eps=eps) for d in disks)
                assert region.in_bulge(q, eps=eps) == expected
                assert region.in_bulge((q.x, q.y), eps=eps) == expected
