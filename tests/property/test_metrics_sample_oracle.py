"""Pins: one array pass per metrics sample matches the row-unique hull and the dense matrix.

``ConvexHull.of_array`` prunes and deduplicates without ``np.unique``,
and :func:`~repro.geometry.hull.point_set_diameter` pairs the prune
survivors; a full sample's minimum separation is the shortest initial
edge at the rows the collector was bound to, and elsewhere comes from
grid-local pairs started at the shortest initial edge.  In 3-space the
diameter pairs every row up to ``METRICS_DENSE_MAX`` and the Qhull
vertices past it.  All are compared against
:mod:`reference.hull`, :mod:`reference.dense3` or the dense matrix:

* the hull vertices and the point-set diameter, on duplicates, signed
  zeros, collinear sets and extents from 1e-9 to 1e3;
* every field of a full :class:`~repro.engine.metrics.MetricsSample`
  of planar and 3D rows, from the collector and (planar) from the
  replicate lanes' observe, on random, line, cluster and lattice inputs
  at sizes on both sides of the prefilter and of ``METRICS_DENSE_MAX``,
  with and without initial edges, and the t=0 sample's separation
  against the grid search and the dense matrix;
* the step sample's diameter (:func:`~repro.engine.metrics.rows_diameter`;
  in the plane the chain only past ``_DENSE_CANDIDATES`` prune survivors)
  against the dense maximum and the full sample's diameter;
* the point-set diameter's bound by the survivors' extreme rows, on
  jittered, truncated and moved-corner lattices, collinear rows,
  duplicates and disks at extents from 1e-9 to 1e6, and a ``grid``
  run whose step samples never walk the hull chain.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest
from reference.dense3 import dense_sample3
from reference.hull import convex_hull_array, dense_sample
from repro.engine.metrics import (
    METRICS_DENSE_MAX,
    MetricsCollector,
    min_pairwise_distance_grid,
    rows_diameter,
)
from repro.engine.replicate import _observe_fast
from repro.geometry.hull import (
    _DENSE_CANDIDATES,
    _PREFILTER_MIN_POINTS,
    ConvexHull,
    _pruned,
    point_set_diameter,
)

SIZES = (1, 2, 3, 15, 16, 200, 1000, 2049)
KINDS = ("random", "line", "cluster", "lattice", "circle", "coincident")


def _configuration(kind: str, n: int, seed: int, extent: float, dim: int = 2) -> np.ndarray:
    """``n`` rows of one input family in ``dim`` dimensions, scaled to ``extent``
    and shifted off the origin.  A 3D circle lies in a tilted plane (a flat
    swarm, which Qhull rejects)."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        unit = rng.uniform(-0.5, 0.5, size=(n, dim))
    elif kind == "line":
        angle = rng.uniform(0.0, np.pi)
        direction = (np.cos(angle), np.sin(angle)) if dim == 2 else rng.normal(size=dim)
        unit = np.outer(rng.uniform(-0.5, 0.5, n), direction)
    elif kind == "cluster":
        centres = rng.uniform(-0.5, 0.5, size=(3, dim))
        unit = centres[rng.integers(0, 3, n)] + rng.normal(0.0, 1e-3, size=(n, dim))
        unit[: n // 4] = unit[n // 4 : 2 * (n // 4)]
    elif kind == "lattice":
        side = int(np.ceil(n ** (1.0 / dim) - 1e-9))
        unit = np.stack(np.unravel_index(np.arange(n), (side,) * dim), axis=1) / side
    elif kind == "circle":
        angle = rng.uniform(0.0, 2.0 * np.pi, n)
        ring = (np.cos(angle), np.sin(angle)) if dim == 2 else (
            np.cos(angle), np.sin(angle), 0.3 * np.cos(angle)
        )
        unit = 0.5 * np.stack(ring, axis=1)
    else:
        unit = rng.uniform(-0.5, 0.5, size=(2, dim))[rng.integers(0, 2, n)]
    return unit * extent + rng.uniform(-2.0, 2.0, size=dim) * extent


@given(
    kind=st.sampled_from(KINDS),
    n=st.sampled_from(SIZES),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-9, 3),
    edges=st.booleans(),
    dim=st.sampled_from((2, 3)),
)
@example(kind="lattice", n=2049, seed=0, exponent=0, edges=True, dim=2)
@example(kind="lattice", n=200, seed=0, exponent=-9, edges=True, dim=2)
@example(kind="cluster", n=16, seed=1, exponent=3, edges=True, dim=2)
@example(kind="line", n=1000, seed=2, exponent=0, edges=True, dim=2)
@example(kind="random", n=200, seed=3, exponent=0, edges=False, dim=2)
@example(kind="random", n=2049, seed=4, exponent=0, edges=False, dim=2)
@example(kind="coincident", n=2049, seed=5, exponent=-3, edges=True, dim=2)
@example(kind="random", n=2049, seed=6, exponent=0, edges=True, dim=3)
@example(kind="lattice", n=2049, seed=7, exponent=-9, edges=True, dim=3)
@example(kind="circle", n=2049, seed=8, exponent=0, edges=True, dim=3)
@example(kind="coincident", n=2049, seed=9, exponent=-3, edges=True, dim=3)
@example(kind="coincident", n=200, seed=10, exponent=0, edges=False, dim=3)
@example(kind="random", n=200, seed=11, exponent=0, edges=False, dim=3)
# Twice the planar-only draw count, so about as many planar draws as before
# 3D joined the strategy.
@settings(max_examples=80, deadline=None)
def test_metrics_sample_matches_dense_oracle(kind, n, seed, exponent, edges, dim):
    """A full sample, from the collector and from a replicate lane, field by field.

    Without initial edges (a visibility range far below the start's
    spacing, unless rows coincide) the min-separation search starts at
    the visibility range instead of the shortest edge; coincident rows
    past ``METRICS_DENSE_MAX`` give a zero-length shortest edge.  3D rows
    past it take the hull-vertex diameter (a flat 3D circle falls back to
    every row), and their samples measure no hull perimeter or radius.
    """
    extent = 10.0**exponent
    start = _configuration(kind, n, seed, extent, dim)
    moved = start * 1.1
    visibility = 0.2 * extent if edges else 1e-7 * extent

    collector = MetricsCollector(visibility_range=visibility)
    collector.bind_initial(start)
    initial = collector.observe(0.0, start, 0, full=True)
    sample = collector.observe(1.0, moved, 1, full=True)
    edge_i, edge_j = getattr(collector, "_edge_i", None), getattr(collector, "_edge_j", None)
    edges = [] if edge_i is None else list(zip(edge_i.tolist(), edge_j.tolist()))
    oracle_of = dense_sample if dim == 2 else dense_sample3
    # At the bound rows the separation is the shortest initial edge, when
    # there is one: the grid search's and the dense matrix's float.
    initial_oracle = oracle_of(start, edges, visibility)
    assert initial.min_pairwise_distance == initial_oracle[3]
    assert initial.min_pairwise_distance == min_pairwise_distance_grid(start, visibility)
    oracle = oracle_of(moved, edges, visibility)
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
    # Other rows sampled with a zero activation count are not the bound rows.
    assert collector.observe(1.0, moved, 0, full=True) == replace(sample, activations_processed=0)
    step = collector.observe(2.0, moved, 2)
    assert (step.hull_diameter, step.broken_edge_count) == (oracle[0], oracle[4])
    if dim == 2:
        lane_metrics = MetricsCollector(visibility_range=visibility)
        lane_metrics.bind_initial(start)
        assert _observe_fast(lane_metrics, 1.0, moved, 1, full=True) == sample


def _dense_diameter(arr: np.ndarray) -> float:
    """``sqrt`` of the dense squared-distance matrix's maximum, in row blocks."""
    best = 0.0
    for first in range(0, len(arr), 512):
        squared = None
        for axis in range(arr.shape[1]):
            delta = arr[first:first + 512, axis, None] - arr[None, :, axis]
            term = delta * delta
            squared = term if squared is None else squared + term
        best = max(best, float(squared.max()))
    return float(np.sqrt(best))


def _assert_step_diameter(arr: np.ndarray, visibility: float) -> None:
    collector = MetricsCollector(visibility_range=visibility)
    collector.bind_initial(arr)
    step = collector.observe(0.0, arr, 0)
    full = collector.observe(1.0, arr, 1, full=True)
    assert rows_diameter(arr) == step.hull_diameter == full.hull_diameter
    assert step.hull_diameter == _dense_diameter(arr)
    assert step.broken_edge_count == full.broken_edge_count
    assert step.hull_perimeter is step.hull_radius is step.min_pairwise_distance is None
    if arr.shape[1] == 2:
        assert point_set_diameter(arr) == step.hull_diameter
        lane_metrics = MetricsCollector(visibility_range=visibility)
        lane_metrics.bind_initial(arr)
        assert _observe_fast(lane_metrics, 0.0, arr, 0) == step


@given(
    kind=st.sampled_from(KINDS),
    n=st.sampled_from(SIZES),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-9, 3),
    dim=st.sampled_from((2, 3)),
)
@example(kind="circle", n=200, seed=0, exponent=0, dim=2)
@example(kind="line", n=2049, seed=1, exponent=-9, dim=2)
@example(kind="coincident", n=1000, seed=2, exponent=3, dim=2)
@example(kind="line", n=2049, seed=3, exponent=-9, dim=3)
@settings(max_examples=80, deadline=None)
def test_step_diameter_matches_dense_and_full(kind, n, seed, exponent, dim):
    extent = 10.0**exponent
    _assert_step_diameter(_configuration(kind, n, seed, extent, dim), 0.2 * extent)


@pytest.mark.parametrize(
    "kind, n, dim, branch",
    [
        ("random", 15, 2, "unpruned"),
        ("random", 200, 2, "dense survivors"),
        ("circle", 200, 2, "chained survivors"),
        ("lattice", 2049, 2, "past METRICS_DENSE_MAX"),
        ("random", 200, 3, "every row"),
        ("random", 2049, 3, "hull vertices"),
        ("circle", 2049, 3, "flat past METRICS_DENSE_MAX"),
    ],
)
def test_step_diameter_branches(kind, n, dim, branch):
    """Each way :func:`rows_diameter` can go, on an input that takes it."""
    from scipy.spatial import ConvexHull as QhullHull, QhullError

    arr = _configuration(kind, n, 0, 1.0, dim)
    if dim == 2:
        survivors, margin = _pruned(arr)
    if branch == "unpruned":
        assert n < _PREFILTER_MIN_POINTS and margin is None
    elif branch == "dense survivors":
        assert margin is not None and len(survivors) <= _DENSE_CANDIDATES
    elif branch == "chained survivors":
        assert len(survivors) > _DENSE_CANDIDATES
    elif branch == "every row":
        assert n <= METRICS_DENSE_MAX
    elif branch == "hull vertices":
        assert n > METRICS_DENSE_MAX and len(QhullHull(arr).vertices) < n
    elif branch == "flat past METRICS_DENSE_MAX":
        assert n > METRICS_DENSE_MAX
        with pytest.raises(QhullError):
            QhullHull(arr)
    else:
        assert n > METRICS_DENSE_MAX
    _assert_step_diameter(arr, 0.2)


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
    dx = arr[:, 0, None] - arr[None, :, 0]
    dy = arr[:, 1, None] - arr[None, :, 1]
    assert point_set_diameter(arr) == float(np.sqrt((dx * dx + dy * dy).max()))


SHAPES = ("jittered", "truncated", "moved corners", "collinear", "duplicates", "disk")


def _shape(kind: str, n: int, seed: int, extent: float) -> np.ndarray:
    """``n`` rows of one shape the diameter's extreme-row bound must not get wrong."""
    rng = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(n)))
    # Row-major lattice points, the last row cut short unless n is a square.
    lattice = np.stack(np.unravel_index(np.arange(n), (side, side)), axis=1).astype(float)
    if kind == "jittered":
        unit = lattice + rng.uniform(-0.3, 0.3, size=(n, 2))
    elif kind == "truncated":
        unit = lattice[: max(2, n - int(rng.integers(0, side)))]
    elif kind == "moved corners":
        unit = lattice.copy()
        low, high = unit.min(axis=0), unit.max(axis=0)
        corners = np.flatnonzero(
            ((unit == low) | (unit == high)).all(axis=1)
        )
        # Inward, outward or along an edge: the extremes need not pair up.
        unit[corners] += rng.uniform(-1.5, 1.5, size=(len(corners), 2))
    elif kind == "collinear":
        direction = rng.normal(size=2)
        unit = np.outer(rng.integers(-side, side + 1, n).astype(float), direction)
    elif kind == "duplicates":
        unit = lattice[rng.integers(0, max(1, n // 7), n)]
    else:
        radius = np.sqrt(rng.uniform(0.0, 1.0, n)) * side
        angle = rng.uniform(0.0, 2.0 * np.pi, n)
        unit = np.column_stack((radius * np.cos(angle), radius * np.sin(angle)))
    return unit / side * extent + rng.uniform(-2.0, 2.0, size=2) * extent


@given(
    kind=st.sampled_from(SHAPES),
    n=st.integers(_DENSE_CANDIDATES + 1, 2500),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-9, 6),
)
@example(kind="moved corners", n=1000, seed=0, exponent=0)
@example(kind="collinear", n=400, seed=1, exponent=-9)
@example(kind="duplicates", n=2049, seed=2, exponent=6)
@example(kind="truncated", n=1000, seed=3, exponent=0)
@settings(max_examples=120, deadline=None)
def test_point_set_diameter_bound_matches_dense(kind, n, seed, exponent):
    """The extreme-row bound keeps the dense maximum's float on every shape."""
    arr = _shape(kind, n, seed, 10.0**exponent)
    assert point_set_diameter(arr) == _dense_diameter(arr)


@pytest.mark.parametrize("n", [1000, 10_000])
def test_grid_step_samples_walk_no_chain(monkeypatch, n):
    """A ``grid`` run's step samples never walk the hull chain; its full samples' hulls do."""
    from repro.algorithms import KKNPSAlgorithm
    from repro.engine import SimulationConfig, Simulator
    from repro.geometry import hull as hull_module
    from repro.schedulers import SSyncScheduler
    from repro.sweeps.factories import make_workload

    chains, hulls = [], []
    chain_rows, hull_of = hull_module._chain_rows, ConvexHull.of_array
    monkeypatch.setattr(
        hull_module, "_chain_rows", lambda rows: chains.append(1) or chain_rows(rows)
    )
    monkeypatch.setattr(
        ConvexHull, "of_array", staticmethod(lambda rows: hulls.append(1) or hull_of(rows))
    )
    configuration = make_workload("grid", n, 7)
    result = Simulator(
        configuration.positions, KKNPSAlgorithm(), SSyncScheduler(),
        SimulationConfig(visibility_range=configuration.visibility_range, max_activations=n),
    ).run()
    assert len(result.metrics.samples) > 2
    assert len(chains) == len(hulls) == 2  # the t=0 and final full samples
