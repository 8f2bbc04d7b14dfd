"""Pins: one array pass per metrics sample matches the row-unique hull and the dense matrix.

``ConvexHull.of_array`` prunes and deduplicates without ``np.unique`` and
keeps the candidate rows the sample diameter reduces; the collector's
minimum separation comes from an x-sorted sweep that falls back to
grid-local pairs.  Both are compared against :mod:`reference.hull`:

* the hull vertices, on duplicates, signed zeros, collinear sets and
  extents from 1e-9 to 1e3;
* every :class:`~repro.engine.metrics.MetricsSample` field, from the
  collector and from the replicate lanes' observe, on random, line,
  cluster and lattice inputs (lattices make the sweep fall back) at
  sizes on both sides of the prefilter and of ``METRICS_DENSE_MAX``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference.hull import convex_hull_array, dense_sample
from repro.engine.metrics import MetricsCollector
from repro.engine.replicate import _observe_fast
from repro.geometry.hull import ConvexHull

SIZES = (1, 2, 3, 15, 16, 200, 1000, 2049)
KINDS = ("random", "line", "cluster", "lattice")


def _configuration(kind: str, n: int, seed: int, extent: float) -> np.ndarray:
    """``n`` rows of one input family, scaled to ``extent`` and shifted off the origin."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        unit = rng.uniform(-0.5, 0.5, size=(n, 2))
    elif kind == "line":
        angle = rng.uniform(0.0, np.pi)
        unit = np.outer(rng.uniform(-0.5, 0.5, n), (np.cos(angle), np.sin(angle)))
    elif kind == "cluster":
        centres = rng.uniform(-0.5, 0.5, size=(3, 2))
        unit = centres[rng.integers(0, 3, n)] + rng.normal(0.0, 1e-3, size=(n, 2))
        unit[: n // 4] = unit[n // 4 : 2 * (n // 4)]
    else:
        side = int(np.ceil(np.sqrt(n)))
        unit = np.stack(np.divmod(np.arange(n), side), axis=1) / side
    return unit * extent + rng.uniform(-2.0, 2.0, size=2) * extent


@given(
    kind=st.sampled_from(KINDS),
    n=st.sampled_from(SIZES),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-9, 3),
)
@example(kind="lattice", n=2049, seed=0, exponent=0)
@example(kind="lattice", n=200, seed=0, exponent=-9)
@example(kind="cluster", n=16, seed=1, exponent=3)
@example(kind="line", n=1000, seed=2, exponent=0)
@settings(max_examples=40, deadline=None)
def test_metrics_sample_matches_dense_oracle(kind, n, seed, exponent):
    extent = 10.0**exponent
    start = _configuration(kind, n, seed, extent)
    moved = start * 1.1
    visibility = 0.2 * extent

    collector = MetricsCollector(visibility_range=visibility)
    collector.bind_initial(start)
    sample = collector.observe(1.0, moved, 1)
    edge_i, edge_j = getattr(collector, "_edge_i", None), getattr(collector, "_edge_j", None)
    edges = [] if edge_i is None else list(zip(edge_i.tolist(), edge_j.tolist()))
    oracle = dense_sample(moved, edges, visibility)
    fields = (
        sample.hull_diameter,
        sample.hull_perimeter,
        sample.hull_radius,
        sample.min_pairwise_distance,
        sample.broken_edge_count,
    )
    assert fields == oracle
    assert sample.initial_edges_preserved == (oracle[4] == 0)
    assert (sample.time, sample.activations_processed) == (1.0, 1)
    if n > 1:
        lane_metrics = MetricsCollector(visibility_range=visibility)
        lane_metrics.bind_initial(start)
        assert _observe_fast(lane_metrics, 1.0, moved, 1) == sample


coordinates = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from((0.0, -0.0)),
    st.floats(-1.0, 1.0, allow_nan=False),
)


@given(
    rows=st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=60),
    exponent=st.integers(-9, 3),
    shift=st.sampled_from((0.0, 1.0, -7.5)),
    collinear=st.booleans(),
)
@example(rows=[(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (1.0, 1.0)] * 5, exponent=0, shift=0.0,
         collinear=False)
@example(rows=[(float(i), 0.0) for i in range(20)], exponent=-9, shift=1.0, collinear=True)
@settings(max_examples=150, deadline=None)
def test_hull_matches_row_unique_oracle(rows, exponent, shift, collinear):
    arr = np.array(rows, dtype=float)
    if collinear:
        arr[:, 1] = 0.5 * arr[:, 0]
    arr = arr * 10.0**exponent + shift
    hull = ConvexHull.of_array(arr)
    assert list(hull.vertices) == convex_hull_array(arr)
    assert {tuple(v) for v in hull.vertices} <= {tuple(r) for r in hull.candidates.tolist()}
    dx = arr[:, 0, None] - arr[None, :, 0]
    dy = arr[:, 1, None] - arr[None, :, 1]
    assert hull.point_set_diameter() == float(np.sqrt((dx * dx + dy * dy).max()))
