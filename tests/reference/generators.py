"""The ``Point``-by-``Point`` workload generators: the oracles of the row generators.

Before the generators of :mod:`repro.workloads.generators` built
``(n, 2)`` rows, each built one :class:`~repro.geometry.point.Point` per
robot (``Point.polar`` for every angle) and checked connectivity on the
dense visibility graph.  This module keeps those loops, unchanged in
their draws and arithmetic, as the references the row generators must
match byte for byte.  The ``annulus`` and ``disk`` samples are still
rejected on the dense graph; the other random shapes are connected by
construction, and ``tests/workloads/test_generators.py`` checks that
instead of asserting it here.  Each returns its list of Points;
:func:`reference_workload` mirrors the planar registry of
:mod:`repro.sweeps.factories` and returns ``(rows, visibility_range)``.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from reference.visibility import dense_is_connected
from repro.geometry.point import Point, max_pairwise_distance


def line_points(n: int, *, spacing: float = 0.8) -> List[Point]:
    return [Point(i * spacing, 0.0) for i in range(n)]


def truncated_grid_points(n: int, *, spacing: float = 0.7) -> List[Point]:
    cols = max(1, math.ceil(math.sqrt(n)))
    return [Point((i % cols) * spacing, (i // cols) * spacing) for i in range(n)]


def ring_points(n: int, *, visibility_range: float = 1.0, chord_fraction: float = 0.9) -> List[Point]:
    chord = chord_fraction * visibility_range
    radius = chord / (2.0 * math.sin(math.pi / n))
    return [Point.polar(radius, 2.0 * math.pi * i / n) for i in range(n)]


def random_connected_points(
    n: int,
    *,
    visibility_range: float = 1.0,
    attach_radius_fraction: float = 0.9,
    spread: float = 0.75,
    seed: int = 0,
) -> List[Point]:
    rng = np.random.default_rng(seed)
    points: List[Point] = [Point(0.0, 0.0)]
    max_radius = attach_radius_fraction * visibility_range
    while len(points) < n:
        anchor = points[int(rng.integers(0, len(points)))]
        radius = max_radius * (spread + (1.0 - spread) * rng.random())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        points.append(anchor + Point.polar(radius, angle))
    return points


def clustered_points(
    cluster_sizes: Sequence[int],
    *,
    visibility_range: float = 1.0,
    cluster_radius_fraction: float = 0.3,
    seed: int = 0,
) -> List[Point]:
    n_clusters = len(cluster_sizes)
    rng = np.random.default_rng(seed)
    cluster_gap = 1.2 * visibility_range
    cluster_radius = cluster_radius_fraction * visibility_range
    points: List[Point] = []
    for c, size in enumerate(cluster_sizes):
        center = Point(c * cluster_gap, 0.0)
        for _ in range(size):
            offset = Point.polar(
                cluster_radius * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi)
            )
            points.append(center + offset)
        if c + 1 < n_clusters:
            points.append(Point((c + 0.5) * cluster_gap, 0.0))
    return points


def blob_points(
    n: int,
    *,
    n_blobs: int = 3,
    visibility_range: float = 1.0,
    blob_radius_fraction: float = 0.2,
    centre_gap_fraction: float = 0.55,
    seed: int = 0,
) -> List[Point]:
    rng = np.random.default_rng(seed)
    centres: List[Point] = [Point(0.0, 0.0)]
    while len(centres) < n_blobs:
        anchor = centres[int(rng.integers(0, len(centres)))]
        angle = rng.uniform(0.0, 2.0 * math.pi)
        centres.append(anchor + Point.polar(centre_gap_fraction * visibility_range, angle))
    blob_radius = blob_radius_fraction * visibility_range
    sizes = [n // n_blobs + (1 if b < n % n_blobs else 0) for b in range(n_blobs)]
    points: List[Point] = []
    for centre, size in zip(centres, sizes):
        for _ in range(size):
            offset = Point.polar(
                blob_radius * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi)
            )
            points.append(centre + offset)
    return points


def annulus_points(
    n: int,
    *,
    inner_radius: float = 0.5,
    outer_radius: float = 1.2,
    visibility_range: float = 1.0,
    seed: int = 0,
    max_attempts: int = 400,
) -> List[Point]:
    """The first connected sample; raises when every attempt was rejected."""
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        radii = np.sqrt(rng.uniform(inner_radius**2, outer_radius**2, n))
        angles = rng.uniform(0.0, 2.0 * math.pi, n)
        points = [Point.polar(float(r), float(a)) for r, a in zip(radii, angles)]
        if dense_is_connected(points, visibility_range):
            return points
    raise RuntimeError("no connected sample")


def disk_points(
    n: int,
    *,
    disk_radius: float = 2.0,
    visibility_range: float = 1.0,
    seed: int = 0,
    max_attempts: int = 200,
) -> List[Point]:
    """The first connected sample; raises when every attempt was rejected."""
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        radii = disk_radius * np.sqrt(rng.random(n))
        angles = rng.uniform(0.0, 2.0 * math.pi, n)
        points = [Point.polar(float(r), float(a)) for r, a in zip(radii, angles)]
        if dense_is_connected(points, visibility_range):
            return points
    raise RuntimeError("no connected sample")


def _cluster_sizes(n: int) -> List[int]:
    k = min(3, max(1, n // 2))
    base, extra = divmod(n - (k - 1), k)
    return [base + 1 if c < extra else base for c in range(k)]


def reference_workload(name: str, n: int, seed: int, v: float = 1.0) -> Tuple[np.ndarray, float]:
    """``(rows, visibility_range)`` of a planar registry workload, Point by Point."""
    if name == "random":
        points = random_connected_points(n, visibility_range=v, seed=seed)
    elif name == "line":
        points = line_points(n, spacing=0.8 * v)
    elif name == "grid":
        points = truncated_grid_points(n, spacing=0.7 * v)
    elif name == "ring":
        points = ring_points(n, visibility_range=v)
    elif name == "clusters":
        points = clustered_points(_cluster_sizes(n), visibility_range=v, seed=seed)
    elif name == "blobs":
        points = blob_points(n, n_blobs=min(3, n), visibility_range=v, seed=seed)
    elif name == "annulus":
        points = annulus_points(n, inner_radius=0.5 * v, outer_radius=1.2 * v, visibility_range=v, seed=seed)
    elif name == "disk":
        points = disk_points(n, disk_radius=2.0 * v, visibility_range=v, seed=seed)
    elif name == "disk-unbounded":
        points = disk_points(n, disk_radius=1.0, visibility_range=2.0, seed=seed)
        v = v * max(max_pairwise_distance(points), 1e-6)
    else:
        raise ValueError(f"no reference for workload {name!r}")
    rows = np.array([[p.x, p.y] for p in points], dtype=float).reshape(-1, 2)
    return rows, v
