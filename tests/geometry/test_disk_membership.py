"""Pins for membership in a disk family: ``Disk.contains_array`` and its conjunctions.

A safe region is a disk or a small union/intersection of disks, and every
membership question the algorithms ask is answered either by the scalar
``Disk.contains`` conjunction (``point_respects_disks``, the
``destination_respects_safe_regions`` checks, ``ReachableRegion.in_bulge``)
or by ``Disk.contains_array`` over a batch of points (Katreniak's
composite regions, ``max_step_within_regions``, the Figure-3 estimator).
The batched verdicts must equal the scalar ones byte for byte, not
approximately, so the tests sweep random disk families (clustered and
scattered, one disk to a few dozen) and points built on disk boundaries,
and compare whole verdict arrays against literal ``Disk.contains`` loops.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms import (
    AndoAlgorithm,
    KatreniakAlgorithm,
    KKNPSAlgorithm,
    katreniak_safe_region,
    point_respects_disks,
)
from repro.geometry.disk import Disk
from repro.geometry.point import Point
from repro.geometry.tolerances import EPS
from repro.model import Snapshot


def _random_disks(rng, count, *, clustered):
    scale = 0.3 if clustered else 3.0
    return [
        Disk(Point(float(x), float(y)), float(r))
        for x, y, r in zip(
            rng.normal(scale=scale, size=count),
            rng.normal(scale=scale, size=count),
            rng.uniform(0.2, 2.5, size=count),
        )
    ]


def _query_cloud(rng, queries):
    px = rng.normal(scale=2.0, size=queries)
    py = rng.normal(scale=2.0, size=queries)
    return px, py


class TestDiskFamilies:
    @pytest.mark.parametrize("count", [1, 3, 8, 26])
    @pytest.mark.parametrize("clustered", [True, False])
    @pytest.mark.parametrize("eps", [0.0, EPS, 1e-3])
    def test_batched_verdicts_match_scalar_loops(self, count, clustered, eps):
        """The AND / OR of per-disk ``contains_array`` equals the scalar loops."""
        rng = np.random.default_rng(count * 7 + clustered)
        disks = _random_disks(rng, count, clustered=clustered)
        px, py = _query_cloud(rng, 512)
        verdicts = np.array([d.contains_array(px, py, eps=eps) for d in disks])
        inter, union = verdicts.all(axis=0), verdicts.any(axis=0)
        for i, (x, y) in enumerate(zip(px, py)):
            point = Point(float(x), float(y))
            assert inter[i] == all(d.contains(point, eps=eps) for d in disks)
            assert inter[i] == point_respects_disks(point, disks, eps=eps)
            assert union[i] == any(d.contains(point, eps=eps) for d in disks)
        # The union verdict is not constant over the cloud, and a few
        # clustered disks share points, so both branches were exercised.
        assert 0 < union.sum() < len(px)
        if clustered and count <= 3:
            assert inter.any()

    @pytest.mark.parametrize("radius", [1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + EPS])
    def test_boundary_queries_are_exact(self, radius):
        """Points built on or next to the unit circle get the scalar verdict."""
        disks = [Disk(Point(0.0, 0.0), 1.0), Disk(Point(0.5, 0.0), 1.0)]
        angles = np.linspace(0.0, 2.0 * math.pi, 257)
        px = radius * np.cos(angles)
        py = radius * np.sin(angles)
        for eps in (0.0, EPS):
            verdicts = [d.contains_array(px, py, eps=eps) for d in disks]
            for i, (x, y) in enumerate(zip(px, py)):
                point = Point(float(x), float(y))
                for disk, verdict in zip(disks, verdicts):
                    assert verdict[i] == disk.contains(point, eps=eps)

    def test_empty_family_holds_every_point(self):
        for point in (Point(0.0, 0.0), Point(5.0, -5.0), (1e9, 1e9)):
            assert point_respects_disks(point, [])
            assert point_respects_disks(point, [], eps=0.0)

    def test_eps_is_an_additive_slack(self):
        disk = Disk(Point(1.0, -2.0), 0.5)
        px = np.array([1.0 + 0.5 + 5e-4, 1.0 + 0.5 + 2e-3])
        py = np.array([-2.0, -2.0])
        np.testing.assert_array_equal(disk.contains_array(px, py, eps=0.0), [False, False])
        np.testing.assert_array_equal(disk.contains_array(px, py, eps=1e-3), [True, False])
        assert not point_respects_disks((px[0], py[0]), [disk], eps=0.0)
        assert point_respects_disks((px[0], py[0]), [disk], eps=1e-3)

    def test_contains_array_accepts_lists_and_strided_views(self):
        rng = np.random.default_rng(5)
        disk = _random_disks(rng, 1, clustered=True)[0]
        px, py = _query_cloud(rng, 200)
        strided = disk.contains_array(px[::3], py[::3])
        listed = disk.contains_array([int(x) for x in px], [int(y) for y in py])
        for i, (x, y) in enumerate(zip(px[::3], py[::3])):
            assert strided[i] == disk.contains(Point(float(x), float(y)))
        for i, (x, y) in enumerate(zip(px, py)):
            assert listed[i] == disk.contains(Point(float(int(x)), float(int(y))))

    def test_contains_array_of_no_points_is_empty(self):
        verdicts = Disk(Point(0.0, 0.0), 1.0).contains_array(np.empty(0), np.empty(0))
        assert verdicts.dtype == bool
        assert verdicts.shape == (0,)


class TestKatreniakUnion:
    @pytest.mark.parametrize("eps", [0.0, EPS, 1e-3])
    def test_union_on_both_boundaries_matches_contains(self, eps):
        """Points on the near and slack circles get ``contains``'s verdict."""
        rng = np.random.default_rng(17)
        angles = np.linspace(0.0, 2.0 * math.pi, 129)
        for gap, heading in zip(rng.uniform(0.1, 0.99, size=6), rng.uniform(0.0, 6.28, size=6)):
            region = katreniak_safe_region(Point(0.0, 0.0), Point.polar(gap, heading), 1.0)
            for disk in region.disks():
                px = disk.center.x + disk.radius * np.cos(angles)
                py = disk.center.y + disk.radius * np.sin(angles)
                verdicts = region.contains_array(px, py, eps=eps)
                for i, (x, y) in enumerate(zip(px, py)):
                    assert verdicts[i] == region.contains(Point(float(x), float(y)), eps=eps)


def _snapshots(seed, *, visibility_range=None, count=40):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        neighbours = tuple(
            Point.polar(float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.0, 2.0 * math.pi)))
            for _ in range(rng.integers(1, 7))
        )
        yield Snapshot(neighbours=neighbours, visibility_range=visibility_range)


class TestDestinationChecks:
    """``destination_respects_safe_regions`` is the literal scalar conjunction."""

    @pytest.mark.parametrize(
        "algorithm, visibility_range",
        [
            (KKNPSAlgorithm(k=2), None),
            (AndoAlgorithm(), 1.0),
            (KatreniakAlgorithm(ray_samples=128), None),
        ],
        ids=["kknps", "ando", "katreniak"],
    )
    @pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-6])
    def test_verdict_is_the_conjunction_over_safe_regions(self, algorithm, visibility_range, eps):
        accepted = 0
        for snapshot in _snapshots(23, visibility_range=visibility_range):
            destination = algorithm.compute(snapshot)
            expected = all(
                r.contains(destination, eps=eps) for r in algorithm.safe_regions(snapshot)
            )
            verdict = algorithm.destination_respects_safe_regions(snapshot, eps=eps)
            assert verdict == expected
            accepted += verdict
        assert accepted > 0
