"""Pins: one neighbour enumeration per instant, checked against the dense oracles.

A run enumerates its neighbour pairs at most once per instant:

* at t=0, :meth:`~repro.geometry.pairs.VisiblePairs.seed` finds the
  metrics collector's initial edges and sets the carried pairs up from
  one grid pass.  Its edges must equal :func:`grid_edges` and
  :func:`reference.pairs.dense_edges`, and its keys (or crowded verdict)
  a fresh :meth:`~repro.geometry.pairs.VisiblePairs.refresh` and the
  dense directed oracle, in 2D and 3D.  The draws place pairs at each
  reach within 3 ulps (some from just below a cell boundary, where a
  grid too fine for the reach misses them), coincident rows, offsets
  of 1e9 and 1e12, crowded starts and at most two rows;
* a full sample away from the bound rows takes its minimum separation
  from the shortest unmoved initial edge and the pairs of the moved
  rows.  It must equal :func:`min_pairwise_distance_grid` and
  :func:`reference.pairs.dense_min_separation` whichever path it takes,
  with 0, 1, a few or every row moved, a moved row landing on an
  unmoved one, and no unmoved edge left; the replicate lanes' full
  samples (``_observe_fast``, a template-shared lane) too;
* the first step sample after the full sample at the bound rows repeats
  that sample's diameter and broken-edge count, only for rows bit-equal
  to the bound rows: one ulp or one ``+-0.0`` flip away, it measures.

Partial refreshes are pinned by ``test_round_pairs.py``, through its
crowding transitions.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference.pairs import (
    dense_directed_keys,
    dense_edges,
    dense_min_separation,
    dense_visible_pairs,
)
from repro.algorithms import KKNPSAlgorithm
from repro.engine import metrics as metrics_module
from repro.engine import spatial_index
from repro.engine.metrics import MetricsCollector
from repro.engine.replicate import _observe_fast, _prepare_lane
from repro.engine.simulator import SimulationConfig, Simulator
from repro.geometry import pairs as pairs_module
from repro.geometry.pairs import VisiblePairs, grid_edges, min_pairwise_distance_grid
from repro.geometry.tolerances import EPS
from repro.model.snapshot import visible_mask
from repro.schedulers import SSyncScheduler
from repro.spatial3d.engine3 import VIS_EPS, visible_mask3


def _pair_set(dim: int, visibility_range: float) -> VisiblePairs:
    """A pair set under the front end's own Look, as the kernels build it."""
    if dim == 2:
        return VisiblePairs(
            visibility_range + EPS, lambda dx, dy: visible_mask(dx, dy, visibility_range)
        )
    return VisiblePairs(
        visibility_range + VIS_EPS,
        lambda dx, dy, dz: visible_mask3(dx, dy, dz, visibility_range),
    )


def _ulps(value: float, count: int) -> float:
    """``value`` moved ``count`` ulps (down for a negative count)."""
    for _ in range(abs(count)):
        value = float(np.nextafter(value, np.inf if count > 0 else -np.inf))
    return value


@st.composite
def starts(draw, min_rows: int = 0):
    """``(dim, V, rows)``: a start with pairs placed at the reaches and coincident rows."""
    dim = draw(st.sampled_from([2, 3]))
    visibility_range = draw(st.sampled_from([1.0, 0.6]))
    offset = draw(st.sampled_from([0.0, 1e9, -1e9, 1e12]))
    if draw(st.integers(0, 5)) == 0:
        # Crowded: more than CARRY_CELL_PAIRS_PER_ROW pairs a row share a cell.
        n, extent = draw(st.integers(min_value=34, max_value=40)), 0.01
    else:
        n = draw(st.integers(min_value=min_rows, max_value=16))
        extent = draw(st.sampled_from([0.5, 2.5, 6.0]))
    rows = offset + np.array(
        [
            [draw(st.floats(min_value=-extent, max_value=extent)) for _ in range(dim)]
            for _ in range(n)
        ],
        dtype=float,
    ).reshape(n, dim)
    look = visibility_range + (EPS if dim == 2 else VIS_EPS)
    for _ in range(draw(st.integers(0, 3)) if n >= 2 else 0):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        reach = draw(st.sampled_from([visibility_range + EPS, look, 0.0]))
        axis = draw(st.integers(0, dim - 1))
        rows[a] = rows[b]
        if draw(st.booleans()):
            # Just below a cell boundary: a pair a reach apart then spans
            # three cells of any grid whose cell is below the reach.
            rows[a, axis] = rows[b, axis] = offset - 2.0**-60
        rows[a, axis] += _ulps(reach, draw(st.integers(-3, 3)))
    return dim, visibility_range, rows


def _chunk_rows(pairs: VisiblePairs) -> list:
    """Every robot's chunked ids, owners in descending order, three ids a chunk."""
    owners = np.arange(len(pairs.rows))[::-1]
    return [ids.tolist() for _, _, ids, _ in pairs.chunks(owners, 3)]


#: Two 3D rows ``V + EPS`` apart from just below a cell boundary: cells -1
#: and 1 of a grid built for the 3D Look's shorter reach ``V + VIS_EPS``.
STRADDLE = np.array([[1.0 + EPS - 2.0**-60, 0.3, 0.2], [-(2.0**-60), 0.3, 0.2]])


@settings(max_examples=200, deadline=None)
@given(starts(), st.booleans())
@example(drawn=(3, 1.0, STRADDLE), crowded=False)
def test_seed_equals_grid_edges_and_a_fresh_refresh(drawn, crowded):
    """The t=0 pass: :func:`grid_edges`'s edges and a fresh refresh's pairs."""
    dim, visibility_range, rows = drawn
    edge_reach = visibility_range + EPS
    bound = -1 if crowded else pairs_module.CARRY_CELL_PAIRS_PER_ROW
    with mock.patch.object(pairs_module, "CARRY_CELL_PAIRS_PER_ROW", bound):
        seeded = _pair_set(dim, visibility_range)
        i, j = seeded.seed(rows, edge_reach)
        fresh = _pair_set(dim, visibility_range).refresh(rows)
    expected_i, expected_j = grid_edges(rows, edge_reach)
    assert i.dtype == expected_i.dtype == np.int32
    assert np.array_equal(i, expected_i) and np.array_equal(j, expected_j)
    assert set(zip(i.tolist(), j.tolist())) == dense_edges(rows, edge_reach)
    assert seeded.rows.tobytes() == rows.tobytes()
    assert (seeded.grid is None) == (fresh.grid is None)
    assert seeded.keys.dtype == np.int64
    assert seeded.keys.tobytes() == fresh.keys.tobytes()
    if seeded.grid is None:
        expected = dense_directed_keys(dense_visible_pairs(rows, visibility_range), len(rows))
        assert seeded.keys.tobytes() == expected.tobytes()
    else:
        assert seeded.grid.cell_size == fresh.grid.cell_size and not len(seeded.keys)
    assert _chunk_rows(seeded) == _chunk_rows(fresh)
    # The first round's refresh at the same rows finds nothing to do.
    keys, grid = seeded.keys, seeded.grid
    assert seeded.refresh(rows.copy()).keys is keys and seeded.grid is grid


@settings(max_examples=60, deadline=None)
@given(starts())
def test_bind_initial_takes_the_seeded_edges(drawn):
    """The collector's edges are the same ``int32`` arrays, pairs or none."""
    dim, visibility_range, rows = drawn
    plain = MetricsCollector(visibility_range=visibility_range)
    plain.bind_initial(rows)
    seeded = MetricsCollector(visibility_range=visibility_range)
    pairs = _pair_set(dim, visibility_range)
    seeded.bind_initial(rows, pairs)
    for side in ("_edge_i", "_edge_j"):
        mine, theirs = getattr(seeded, side), getattr(plain, side)
        assert mine.dtype == theirs.dtype == np.int32 and np.array_equal(mine, theirs)
    assert seeded.initial_edges == plain.initial_edges
    assert pairs.rows.tobytes() == rows.tobytes()


MOVES = ("none", "one", "few", "all", "onto", "unlinked")


@st.composite
def moved_samples(draw):
    """``(dim, V, start, rows)``: a start and the rows a full sample sees later."""
    dim, visibility_range, start = draw(starts(min_rows=2))
    n = len(start)
    rows = start.copy()
    kind = draw(st.sampled_from(MOVES))
    index = st.integers(0, n - 1)
    if kind == "one":
        moved = [draw(index)]
    elif kind == "few":
        moved = sorted(draw(st.sets(index, min_size=2, max_size=4)))
    elif kind == "all":
        moved = list(range(n))
    elif kind == "unlinked":
        # Every row with an initial edge moves: no unmoved edge is left.
        i, j = grid_edges(start, visibility_range + EPS)
        moved = sorted(set(i.tolist()) | set(j.tolist()))
    else:
        moved = []
    for row in moved:
        rows[row] += [draw(st.floats(min_value=-0.7, max_value=0.7)) for _ in range(dim)]
    if kind == "onto":
        # A moved row lands on an unmoved one.
        a, b = draw(index), draw(index)
        if a != b:
            rows[a] = start[b]
    return dim, visibility_range, start, rows


@settings(max_examples=200, deadline=None)
@given(moved_samples())
def test_full_sample_separation_equals_the_search_and_the_dense_matrix(drawn):
    """Every path of the full sample's separation returns the dense matrix's float."""
    _, visibility_range, start, rows = drawn
    expected = dense_min_separation(rows)
    assert min_pairwise_distance_grid(rows, visibility_range) == expected
    # -1: always the search; 1: the moved rows whenever an unmoved edge is left.
    for share in (-1.0, metrics_module.MOVED_SEPARATION_SHARE, 1.0):
        with mock.patch.object(metrics_module, "MOVED_SEPARATION_SHARE", share):
            collector = MetricsCollector(visibility_range=visibility_range)
            collector.bind_initial(start)
            assert collector.observe(0.0, start, 0, full=True).min_pairwise_distance == (
                dense_min_separation(start)
            )
            sample = collector.observe(1.0, rows, 1, full=True)
        assert sample.min_pairwise_distance == expected


@settings(max_examples=40, deadline=None)
@given(moved_samples().filter(lambda drawn: drawn[0] == 2), st.sampled_from([-1.0, 1.0]))
def test_replicate_lane_full_samples_equal_the_dense_matrix(drawn, share):
    """A lane bound through the shared setup (a template's arrays) samples the same."""
    _, visibility_range, start, rows = drawn
    config = SimulationConfig(visibility_range=visibility_range, max_activations=1)
    setup_cache: dict = {}
    lanes = [
        _prepare_lane(Simulator(start, KKNPSAlgorithm(k=1), SSyncScheduler(), config), setup_cache)
        for _ in range(2)
    ]
    template, replayed = (lane.run.metrics for lane in lanes)
    assert replayed._bound_rows is template._bound_rows
    with mock.patch.object(metrics_module, "MOVED_SEPARATION_SHARE", share):
        for metrics in (template, replayed):
            sample = _observe_fast(metrics, 1.0, rows, 1, full=True)
            assert sample.min_pairwise_distance == dense_min_separation(rows)


def _flip(rows: np.ndarray, kind: str, at: int, step: int) -> np.ndarray:
    """``rows`` bit-equal (a copy), ``step`` ulps off at flat index ``at``, or its sign flipped.

    ``kind`` is "same", "ulp" or "zero" (the entry at ``at`` is a zero).
    """
    rows = rows.copy()
    if kind == "ulp":
        rows.flat[at] = _ulps(float(rows.flat[at]), step)
    elif kind == "zero":
        rows.flat[at] = 0.0 if np.signbit(rows.flat[at]) else -0.0
    return rows


@settings(max_examples=120, deadline=None)
@given(starts(min_rows=1), st.sampled_from(["same", "ulp", "zero"]), st.data())
def test_first_step_sample_repeats_only_the_bound_rows(drawn, kind, data):
    """Rows bit-equal to the bound rows repeat the t=0 sample; any other bit measures."""
    _, visibility_range, start = drawn
    at = data.draw(st.integers(0, start.size - 1))
    if kind == "zero":
        start = start.copy()
        start.flat[at] = data.draw(st.sampled_from([0.0, -0.0]))
    rows = _flip(start, kind, at, data.draw(st.sampled_from([-1, 1])))
    measured = []
    original = metrics_module.rows_diameter

    def spy(arr):
        measured.append(arr)
        return original(arr)

    collector = MetricsCollector(visibility_range=visibility_range)
    collector.bind_initial(start)
    initial = collector.observe(0.0, start, 0, full=True)
    with mock.patch.object(metrics_module, "rows_diameter", spy):
        step = collector.observe(1.0, rows, 1)
        again = collector.observe(2.0, start.copy(), 2)
    fresh = MetricsCollector(visibility_range=visibility_range)
    fresh.bind_initial(start)
    expected = fresh.observe(1.0, rows, 1)
    assert (step.hull_diameter, step.broken_edge_count) == (
        expected.hull_diameter, expected.broken_edge_count
    )
    repeated = kind == "same"
    if repeated:
        assert (step.hull_diameter, step.broken_edge_count) == (
            initial.hull_diameter, initial.broken_edge_count
        )
    # The first step sample compares once; every later one measures.
    assert len(measured) == (1 if repeated else 2)
    assert (again.hull_diameter, again.broken_edge_count) == (
        initial.hull_diameter, initial.broken_edge_count
    )


@pytest.mark.parametrize("n", [300, 1000])
def test_a_round_run_enumerates_once_at_t0(monkeypatch, n):
    """Round 1 finds the seeded pairs current and repeats the t=0 sample's fields."""
    monkeypatch.setattr(spatial_index, "GRID_MIN_ROBOTS", 256)
    side = int(math.ceil(math.sqrt(n)))
    rows = 0.7 * np.stack(np.unravel_index(np.arange(n), (side, side)), axis=1).astype(float)
    sim = Simulator(
        rows, KKNPSAlgorithm(k=1), SSyncScheduler(),
        SimulationConfig(max_activations=n, stop_at_convergence=False),
    )
    built = []
    grid_init = pairs_module.ShardedGridIndex.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        grid_init(self, *args, **kwargs)

    monkeypatch.setattr(pairs_module.ShardedGridIndex, "__init__", counting)
    run = sim._begin_run()
    assert sim._pairs is not None and sim._pairs.rows.tobytes() == rows.tobytes()
    fresh = VisiblePairs(*sim._pair_rule()).refresh(rows)
    assert sim._pairs.keys.tobytes() == fresh.keys.tobytes()
    bound_grids = len(built)
    batch = sim._next_round(run)
    sim._process_round(batch, run)
    assert len(built) == bound_grids  # round 1 built no grid
    first, step = run.metrics.samples[0], run.metrics.samples[1]
    assert (step.hull_diameter, step.broken_edge_count) == (
        first.hull_diameter, first.broken_edge_count
    )


def test_replicate_lanes_bind_without_carried_pairs(monkeypatch):
    """A lane's t=0 bind sets up no pairs: its group pairs the stacked rows each round."""
    monkeypatch.setattr(spatial_index, "GRID_MIN_ROBOTS", 256)
    rows = 0.7 * np.stack(np.unravel_index(np.arange(300), (18, 18)), axis=1).astype(float)
    config = SimulationConfig(max_activations=300)
    setup_cache: dict = {}
    lanes = [
        _prepare_lane(Simulator(rows, KKNPSAlgorithm(k=1), SSyncScheduler(), config), setup_cache)
        for _ in range(2)
    ]
    assert len(lanes[0].run.metrics._edge_i)
    assert all(lane.sim._pairs is None for lane in lanes)
