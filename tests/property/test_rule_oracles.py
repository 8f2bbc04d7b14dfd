"""Property tests: the float-core rules equal their ``Point``-form oracles.

``KKNPSAlgorithm.compute`` and ``AndoAlgorithm.compute`` read a
snapshot's perceived rows as plain floats; :mod:`reference.rules` keeps
each rule over ``Point`` neighbours.  Hypothesis draws snapshots at every
scale — down to a ``V_Y`` so tiny that no row clears the distant
threshold, or that the safe-region radius falls below ``EPS`` — and the
two forms must return the same destination bit for bit, from a snapshot
built from rows and from one built from points.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference.rules import ando_compute_points, kknps_compute_points

from repro.algorithms import AndoAlgorithm, KKNPSAlgorithm
from repro.geometry import Point
from repro.model import Snapshot

unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
scales = st.sampled_from([1e-10, 1e-9, 5e-9, 1e-8, 1e-3, 0.1, 1.0, 3.0])
row_lists = st.lists(st.tuples(unit, unit), min_size=0, max_size=10)


def _snapshots(rows, scale, visibility_range=None):
    """The same perceived rows as a row-backed and a point-backed snapshot."""
    array = np.asarray(rows, dtype=float).reshape(-1, 2) * scale
    by_rows = Snapshot(rows=array, visibility_range=visibility_range)
    by_points = Snapshot(
        neighbours=tuple(Point(x, y) for x, y in array.tolist()),
        visibility_range=visibility_range,
    )
    return by_rows, by_points


def _bits(point):
    return (point.x, point.y, math.copysign(1.0, point.x), math.copysign(1.0, point.y))


kknps_rules = st.builds(
    KKNPSAlgorithm,
    k=st.integers(min_value=1, max_value=4),
    distance_error_tolerance=st.sampled_from([0.0, 0.05, 0.2]),
    skew_tolerance=st.sampled_from([0.0, 0.1]),
    close_fraction=st.sampled_from([0.5, 0.3, 0.9]),
    radius_divisor=st.sampled_from([8.0, 4.0]),
)


class TestFloatCoresMatchPointRules:
    @given(kknps_rules, row_lists, scales)
    @settings(max_examples=300)
    # No row clears the distant threshold: the farthest row is promoted
    # (the first of two tied ones), and moves the robot by V_Y / 8.
    @example(KKNPSAlgorithm(close_fraction=0.9), [(0.9, 0.0), (0.0, 0.5)], 1e-8)
    @example(KKNPSAlgorithm(close_fraction=0.9), [(0.0, -0.5), (0.9, 0.0), (0.0, 0.9)], 1e-8)
    # Surrounded: the distant directions span more than a half-plane.
    @example(KKNPSAlgorithm(), [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)], 1.0)
    def test_kknps(self, algorithm, rows, scale):
        by_rows, by_points = _snapshots(rows, scale)
        expected = _bits(kknps_compute_points(algorithm, by_points))
        assert _bits(algorithm.compute(by_rows)) == expected
        assert _bits(algorithm.compute(by_points)) == expected

    @given(
        st.sampled_from([None, 0.05, 0.3]),
        row_lists,
        scales,
        st.sampled_from([1.0, 2.5]),
    )
    @settings(max_examples=200)
    def test_ando(self, max_move, rows, scale, visibility_range):
        algorithm = AndoAlgorithm(max_move=max_move)
        by_rows, by_points = _snapshots(rows, scale, visibility_range)
        expected = _bits(ando_compute_points(algorithm, by_points))
        assert _bits(algorithm.compute(by_rows)) == expected
        assert _bits(algorithm.compute(by_points)) == expected
