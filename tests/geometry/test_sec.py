"""Tests for the smallest enclosing circle (Welzl)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    Point,
    critical_points,
    is_valid_enclosing_circle,
    sec_center,
    sec_radius,
    smallest_enclosing_circle,
)


class TestSmallCases:
    def test_single_point(self):
        disk = smallest_enclosing_circle([(2, 3)])
        assert disk.center == Point(2, 3)
        assert disk.radius == 0.0

    def test_two_points_diametral(self):
        disk = smallest_enclosing_circle([(0, 0), (2, 0)])
        assert disk.center == Point(1, 0)
        assert disk.radius == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            smallest_enclosing_circle([])

    def test_right_triangle_uses_hypotenuse(self):
        disk = smallest_enclosing_circle([(0, 0), (2, 0), (0, 2)])
        assert disk.center.x == pytest.approx(1.0)
        assert disk.center.y == pytest.approx(1.0)
        assert disk.radius == pytest.approx(math.sqrt(2))

    def test_equilateral_triangle_uses_circumcircle(self):
        pts = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]
        disk = smallest_enclosing_circle(pts)
        assert disk.radius == pytest.approx(1 / math.sqrt(3))

    def test_obtuse_triangle_uses_longest_side(self):
        disk = smallest_enclosing_circle([(0, 0), (10, 0), (5, 0.1)])
        assert disk.center.x == pytest.approx(5.0)
        assert disk.radius == pytest.approx(5.0, rel=1e-3)

    def test_collinear_points(self):
        disk = smallest_enclosing_circle([(0, 0), (1, 0), (2, 0), (3, 0)])
        assert disk.center == Point(1.5, 0.0)
        assert disk.radius == pytest.approx(1.5)

    def test_duplicate_points(self):
        disk = smallest_enclosing_circle([(0, 0), (0, 0), (2, 0), (2, 0)])
        assert disk.radius == pytest.approx(1.0)


class TestRandomisedCorrectness:
    @pytest.mark.parametrize("n", [5, 10, 30, 100])
    def test_contains_all_points(self, n):
        rng = np.random.default_rng(n)
        points = [Point(float(x), float(y)) for x, y in rng.normal(size=(n, 2))]
        disk = smallest_enclosing_circle(points)
        assert is_valid_enclosing_circle(disk, points)

    @pytest.mark.parametrize("n", [5, 15, 50])
    def test_is_minimal_against_pairwise_and_triple_circles(self, n):
        # The SEC radius can never exceed the radius of any enclosing circle
        # determined by a pair of points; and it must be at least half the diameter.
        rng = np.random.default_rng(100 + n)
        points = [Point(float(x), float(y)) for x, y in rng.uniform(-1, 1, size=(n, 2))]
        disk = smallest_enclosing_circle(points)
        diameter = max(p.distance_to(q) for p in points for q in points)
        assert disk.radius >= diameter / 2.0 - 1e-9
        assert disk.radius <= diameter / math.sqrt(3) + 1e-9  # Jung's theorem in the plane

    def test_seed_independence_of_result(self):
        rng = np.random.default_rng(7)
        points = [Point(float(x), float(y)) for x, y in rng.normal(size=(40, 2))]
        a = smallest_enclosing_circle(points, seed=0)
        b = smallest_enclosing_circle(points, seed=99)
        assert a.radius == pytest.approx(b.radius, rel=1e-9)
        assert a.center.distance_to(b.center) < 1e-7

    def test_points_on_circle(self):
        points = [Point.polar(1.0, 2 * math.pi * i / 12) for i in range(12)]
        disk = smallest_enclosing_circle(points)
        assert disk.radius == pytest.approx(1.0)
        assert disk.center.norm() < 1e-9


class TestHelpers:
    def test_sec_center_and_radius_helpers(self):
        pts = [(0, 0), (2, 0)]
        assert sec_center(pts) == Point(1, 0)
        assert sec_radius(pts) == pytest.approx(1.0)

    def test_critical_points(self):
        pts = [Point(0, 0), Point(2, 0), Point(1, 0.2)]
        disk = smallest_enclosing_circle(pts)
        crit = critical_points(disk, pts)
        assert Point(0, 0) in crit and Point(2, 0) in crit
        assert Point(1, 0.2) not in crit


class TestFloatCorePins:
    """The batched float-core Welzl is pinned bit-identical to sec_center."""

    def test_sec_center_array_matches_sec_center(self):
        from repro.geometry.sec import sec_center_array

        rng = np.random.default_rng(7)
        for m in (1, 2, 3, 4, 7, 15, 40):
            arr = rng.uniform(-2.0, 2.0, size=(m, 2))
            reference = sec_center([Point(float(x), float(y)) for x, y in arr])
            cx, cy = sec_center_array(arr)
            assert (cx, cy) == (reference.x, reference.y)

    def test_cache_returns_identical_floats(self):
        from repro.geometry.sec import sec_center_array

        arr = np.random.default_rng(0).uniform(-1.0, 1.0, size=(25, 2))
        first = sec_center_array(arr)
        assert sec_center_array(arr.copy()) == first  # memo hit on equal bytes

    def test_degenerate_sets(self):
        from repro.geometry.sec import sec_center_array

        coincident = np.zeros((5, 2))
        assert sec_center_array(coincident) == (0.0, 0.0)
        collinear = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        reference = sec_center([Point(x, y) for x, y in collinear])
        assert sec_center_array(collinear) == (reference.x, reference.y)


def _sec_inputs():
    """Random, rounded, cocircular and collinear point sets of 1 to 60 points."""

    def build(args):
        kind, m, seed = args
        rng = np.random.default_rng(seed)
        if kind == "random":
            return rng.normal(size=(m, 2))
        if kind == "rounded":
            return np.round(rng.uniform(-3.0, 3.0, size=(m, 2)), 1)
        if kind == "cocircular":
            angle = 2.0 * np.pi * rng.integers(0, 12, m) / 12.0
            return 1.5 * np.stack((np.cos(angle), np.sin(angle)), axis=1) + 0.25
        along = rng.uniform(-1.0, 1.0, m)
        return np.stack((along, 0.5 * along + 0.125), axis=1)

    return st.tuples(
        st.sampled_from(("random", "rounded", "cocircular", "collinear")),
        st.integers(1, 60),
        st.integers(0, 2**32 - 1),
    ).map(build)


class TestOneWelzlLoop:
    """``smallest_enclosing_circle`` runs the float core; it must return
    the point-by-point loop's floats."""

    @settings(max_examples=150, deadline=None)
    @given(rows=_sec_inputs(), seed=st.sampled_from((0, None, 3)))
    def test_matches_the_pointwise_loop(self, rows, seed):
        from reference.sec import welzl_pointwise

        points = [Point(float(x), float(y)) for x, y in rows]
        disk = smallest_enclosing_circle(points, seed=seed)
        assert (disk.center.x, disk.center.y, disk.radius) == welzl_pointwise(points, seed=seed)


def _small_sets():
    """Sets of 1-9 points: small integer lattices (with repeats) or floats."""
    lattice = st.tuples(st.integers(-30, 30), st.integers(-30, 30))
    unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)
    floats = st.tuples(unit, unit)
    return st.one_of(
        st.lists(lattice, min_size=1, max_size=9),
        st.lists(
            st.sampled_from([(0, 0), (0, -29), (24, -9), (-2, -2), (25, -14)]),
            min_size=1,
            max_size=9,
        ),
        st.lists(floats, min_size=1, max_size=9),
    )


class TestBruteForceOracle:
    """The float core returns the smallest circle holding every point."""

    def test_repeated_origins_keep_every_point(self):
        # The three-point step once took the obtuse triple's diametral
        # circle, which dropped a boundary point: (0, -29) fell 9.17 outside.
        from reference.sec import brute_force_sec
        from repro.geometry.sec import sec_center_array

        points = [(0, 0), (0, 0), (0, -29), (24, -9), (-2, -2), (25, -14), (0, 0)]
        disk = smallest_enclosing_circle(points)
        assert is_valid_enclosing_circle(disk, points)
        assert disk.radius == pytest.approx(brute_force_sec(points)[2], rel=1e-12)
        assert sec_center_array(np.array(points, dtype=float)) == (disk.center.x, disk.center.y)

    @settings(max_examples=2000, deadline=None)
    @given(points=_small_sets(), seed=st.sampled_from((0, None, 5)))
    def test_radius_is_the_brute_force_minimum(self, points, seed):
        """Within the core's own membership tolerance of ``1e-7 * max(1, r)``."""
        from reference.sec import brute_force_sec

        disk = smallest_enclosing_circle(points, seed=seed)
        tolerance = 1e-7 * max(1.0, disk.radius)
        for x, y in points:
            assert math.hypot(x - disk.center.x, y - disk.center.y) <= disk.radius + tolerance
        assert abs(disk.radius - brute_force_sec(points)[2]) <= tolerance
