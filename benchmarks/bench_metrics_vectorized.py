"""Bench — the vectorized metrics samples vs the seed's per-Point loops.

The seed's ``MetricsCollector.observe`` measured everything at every
processed activation.  Today a step sample (every activation) measures
the diameter and the broken initial edges, and a full sample (t=0 and the
end of a run) adds the hull perimeter, the bounding-circle radius and the
minimum separation.  Both stack the positions into one ``(n, 2)`` array
and build no ``(n, n)`` matrix: the diameter is the dense per-pair
maximum over the octagon-prune survivors (the hull's candidate rows in a
full sample), the minimum separation an x-sorted sweep (grid-local pairs
when it gives up), and the broken-edge check a gather of the cached
initial-edge endpoints; the seed implementation rebuilt ``Point`` lists
and recomputed pairwise distances separately for each quantity.  This
bench keeps a faithful copy of the seed implementation and asserts, at
n=100 robots, that the full sample beats it while producing the same
numbers, and that the step sample's diameter and broken-edge count are
the seed's.
"""

from __future__ import annotations

import time

import numpy as np

from repro.engine.metrics import MetricsCollector
from repro.geometry.hull import ConvexHull
from repro.geometry.point import Point, max_pairwise_distance, pairwise_distances
from repro.geometry.sec import smallest_enclosing_circle
from repro.model.visibility import broken_edges
from repro.workloads import random_connected_configuration

N_ROBOTS = 100
OBSERVATIONS = 150


def _legacy_observe(collector: MetricsCollector, positions) -> tuple:
    """The seed's ``observe`` body: per-Point loops, one distance matrix per quantity."""
    pts = [Point.of(p) for p in positions]
    hull = ConvexHull.of(pts)
    broken = broken_edges(collector.initial_edges, pts, collector.visibility_range)
    if len(pts) >= 2:
        dist = pairwise_distances(pts)
        min_pairwise = float(dist[~np.eye(len(pts), dtype=bool)].min())
    else:
        min_pairwise = 0.0
    return (
        max_pairwise_distance(pts),
        hull.perimeter(),
        smallest_enclosing_circle(pts).radius if pts else 0.0,
        min_pairwise,
        len(broken),
    )


def _observe_many(collector: MetricsCollector, positions, *, full: bool) -> float:
    started = time.perf_counter()
    for i in range(OBSERVATIONS):
        collector.observe(float(i), positions, i, full=full)
    return time.perf_counter() - started


def _legacy_many(collector: MetricsCollector, positions) -> float:
    started = time.perf_counter()
    for _ in range(OBSERVATIONS):
        _legacy_observe(collector, positions)
    return time.perf_counter() - started


def test_bench_vectorized_observe_beats_seed(benchmark):
    """The full sample is measurably faster than the seed loops at n=100, with its numbers."""
    configuration = random_connected_configuration(N_ROBOTS, seed=7)
    positions = list(configuration.positions)

    vectorized = MetricsCollector(visibility_range=configuration.visibility_range)
    vectorized.bind_initial(positions)
    legacy = MetricsCollector(visibility_range=configuration.visibility_range)
    legacy.bind_initial(positions)

    full_seconds = benchmark.pedantic(
        lambda: _observe_many(vectorized, positions, full=True), rounds=1, iterations=1
    )
    step_seconds = _observe_many(vectorized, positions, full=False)
    legacy_seconds = _legacy_many(legacy, positions)

    print()
    print(
        f"observe x{OBSERVATIONS} at n={N_ROBOTS}: "
        f"full {full_seconds:.3f}s, step {step_seconds:.3f}s, seed {legacy_seconds:.3f}s, "
        f"full speedup {legacy_seconds / full_seconds:.2f}x"
    )

    # Same numbers, less time.
    reference = _legacy_observe(legacy, positions)
    full = vectorized.observe(0.0, positions, 0, full=True)
    assert full.hull_diameter == reference[0]
    assert full.hull_perimeter == reference[1]
    assert abs(full.hull_radius - reference[2]) <= 1e-9
    assert full.min_pairwise_distance == reference[3]
    assert full.broken_edge_count == reference[4]
    step = vectorized.observe(0.0, positions, 0)
    assert (step.hull_diameter, step.broken_edge_count) == (reference[0], reference[4])
    assert full_seconds < legacy_seconds
