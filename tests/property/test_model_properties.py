"""Property-based tests for the robot/configuration model and error models."""

import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.geometry import Point, SymmetricDistortion
from repro.model import (
    Configuration,
    MotionModel,
    PerceptionModel,
    edges_preserved,
    visibility_edges,
)

# Rounded coordinates: see test_geometry_properties for the rationale.
coordinates = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
).map(lambda value: round(value, 6))
points = st.builds(Point, coordinates, coordinates)
point_lists = st.lists(points, min_size=2, max_size=15)


class TestVisibilityProperties:
    @given(point_lists, st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=100)
    def test_edges_monotone_in_range(self, pts, v):
        small = visibility_edges(pts, v)
        large = visibility_edges(pts, 2.0 * v)
        assert small <= large

    @given(point_lists, st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=100)
    def test_contraction_preserves_edges(self, pts, v):
        edges = visibility_edges(pts, v)
        centre = pts[0]
        contracted = [centre + (p - centre) * 0.5 for p in pts]
        assert edges_preserved(edges, contracted, v)

    @given(point_lists, st.floats(min_value=0.1, max_value=5.0), points)
    @settings(max_examples=100)
    def test_edges_invariant_under_translation(self, pts, v, offset):
        assert visibility_edges(pts, v) == visibility_edges([p + offset for p in pts], v)


class TestConfigurationProperties:
    @given(point_lists, st.floats(min_value=0.5, max_value=3.0))
    @settings(max_examples=80)
    def test_diameter_bounds_every_pair(self, pts, v):
        configuration = Configuration.of(pts, v)
        diameter = configuration.hull_diameter()
        for p in pts:
            for q in pts:
                assert p.distance_to(q) <= diameter + 1e-9

    @given(point_lists, st.floats(min_value=0.5, max_value=3.0))
    @example(
        [Point(6.0, 0.5), Point(-4.0, -1e-05), Point(0.0, 0.0), Point(0.0, 0.0), Point(-4.0, 0.0)],
        1.0,
    )
    @settings(max_examples=80)
    def test_hull_radius_at_least_half_diameter(self, pts, v):
        configuration = Configuration.of(pts, v)
        half_diameter = configuration.hull_diameter() / 2.0
        # The SEC accepts points within r + 1e-7 * max(1, r) of its circle,
        # so its radius may undershoot half the diameter by that much.
        assert configuration.hull_radius() >= half_diameter - 1e-7 * max(1.0, half_diameter)

    @given(point_lists, st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=80)
    def test_scaling_scales_the_diameter(self, pts, factor):
        configuration = Configuration.of(pts, 1.0)
        scaled = configuration.scaled(factor)
        assert math.isclose(
            scaled.hull_diameter(), factor * configuration.hull_diameter(),
            rel_tol=1e-9, abs_tol=1e-9,
        )


class TestErrorModelProperties:
    @given(
        points,
        st.floats(min_value=0.0, max_value=0.3),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=100)
    def test_perceived_distance_within_relative_band(self, v, delta, seed):
        import numpy as np

        assume(v.norm() > 1e-6)
        model = PerceptionModel(distance_error=delta, bias="random")
        perceived = model.perceive_vector(v, np.random.default_rng(seed))
        assert (1 - delta) * v.norm() - 1e-9 <= perceived.norm() <= (1 + delta) * v.norm() + 1e-9

    @given(
        points,
        st.floats(min_value=0.0, max_value=0.4),
    )
    @settings(max_examples=100)
    def test_distortion_preserves_lengths(self, v, amplitude):
        model = PerceptionModel(distortion=SymmetricDistortion(amplitude=amplitude, frequency=2))
        perceived = model.perceive_vector(v)
        assert math.isclose(perceived.norm(), v.norm(), rel_tol=1e-9, abs_tol=1e-9)

    @given(
        points,
        points,
        st.floats(min_value=0.1, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100)
    def test_realized_move_respects_xi_and_direction(self, origin, target, xi, requested):
        model = MotionModel(xi=xi)
        realized = model.realize(origin, target, requested)
        planned = origin.distance_to(target)
        travelled = origin.distance_to(realized)
        assert travelled <= planned + 1e-9
        assert travelled >= xi * planned - 1e-9
        # The realised endpoint lies on the planned segment (no lateral error).
        if planned > 1e-9:
            from repro.geometry import Segment

            assert Segment(origin, target).distance_to_point(realized) <= 1e-7
