"""Bench — the vectorized metrics hot path vs the seed's per-Point loops.

``MetricsCollector.observe`` runs after every processed activation, so its
cost multiplies into every experiment and sweep.  The vectorized path
stacks the positions into one ``(n, 2)`` array and builds no ``(n, n)``
matrix: the hull diameter is the dense per-pair maximum over the hull's
candidate rows, the minimum separation an x-sorted sweep (grid-local
pairs when it gives up), and the broken-edge check a gather of the cached
initial-edge endpoints; the seed implementation rebuilt ``Point`` lists
and recomputed pairwise distances separately for each quantity.  This
bench keeps a faithful copy of the seed implementation and asserts the
vectorized path beats it at n=100 robots while producing the same numbers.
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


def _observe_many(collector: MetricsCollector, positions) -> float:
    started = time.perf_counter()
    for i in range(OBSERVATIONS):
        collector.observe(float(i), positions, i)
    return time.perf_counter() - started


def _legacy_many(collector: MetricsCollector, positions) -> float:
    started = time.perf_counter()
    for _ in range(OBSERVATIONS):
        _legacy_observe(collector, positions)
    return time.perf_counter() - started


def test_bench_vectorized_observe_beats_seed(benchmark):
    """The array-native observe is measurably faster than the seed loops at n=100."""
    configuration = random_connected_configuration(N_ROBOTS, seed=7)
    positions = list(configuration.positions)

    vectorized = MetricsCollector(visibility_range=configuration.visibility_range)
    vectorized.bind_initial(positions)
    legacy = MetricsCollector(visibility_range=configuration.visibility_range)
    legacy.bind_initial(positions)

    vectorized_seconds = benchmark.pedantic(
        lambda: _observe_many(vectorized, positions), rounds=1, iterations=1
    )
    legacy_seconds = _legacy_many(legacy, positions)

    print()
    print(
        f"observe x{OBSERVATIONS} at n={N_ROBOTS}: "
        f"vectorized {vectorized_seconds:.3f}s, seed {legacy_seconds:.3f}s, "
        f"speedup {legacy_seconds / vectorized_seconds:.2f}x"
    )

    # Same numbers, less time.
    sample = vectorized.samples[-1]
    reference = _legacy_observe(legacy, positions)
    assert sample.hull_diameter == reference[0]
    assert sample.hull_perimeter == reference[1]
    assert abs(sample.hull_radius - reference[2]) <= 1e-9
    assert sample.min_pairwise_distance == reference[3]
    assert sample.broken_edge_count == reference[4]
    assert vectorized_seconds < legacy_seconds
