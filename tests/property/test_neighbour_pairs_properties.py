"""Property suite for the cell-granular neighbour-pair contract.

``ShardedGridIndex.neighbour_pairs`` (and its replicate form) must emit
exactly the pairs of one run whose cells ``floor(p / cell_size)`` differ
by at most one on every axis — each once, as ``i < j`` — which covers
every pair within the cell size up to float rounding at a cell boundary;
``covering_cell`` widens a cell past that rounding band.  The drawn
inputs aim at the edges: negative coordinates, points exactly on
multiples of the cell size, duplicates, lone robots, and cell sizes from
1e-6 of the extent to beyond it.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.spatial_index import ShardedGridIndex, covering_cell

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def replicate_clouds(draw, dim):
    """``(runs, n, dim)`` positions and a cell size for them."""
    runs = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=0, max_value=20))
    extent = draw(st.sampled_from([1e-3, 1.0, 6.0, 1e3]))
    cell = extent * 10.0 ** draw(st.floats(min_value=-6.0, max_value=0.5, **finite))
    half = extent / 2.0
    lattice_reach = int(half // cell)
    coordinate = st.one_of(
        st.floats(min_value=-half, max_value=half, **finite),
        st.integers(min_value=-lattice_reach, max_value=lattice_reach).map(
            lambda k: k * cell
        ),
    )
    rows = []
    for _ in range(runs * n):
        if rows and draw(st.booleans()):
            rows.append(draw(st.sampled_from(rows)))  # a duplicate
        else:
            rows.append(tuple(draw(coordinate) for _ in range(dim)))
    tensor = np.array(rows, dtype=float).reshape(runs, n, dim)
    return tensor, cell


def _distances(flat):
    """Dense pairwise distances, components summed left to right."""
    squared = np.zeros((len(flat), len(flat)))
    for axis in range(flat.shape[1]):
        delta = flat[:, axis, None] - flat[None, :, axis]
        squared = squared + delta * delta
    return np.sqrt(squared)


def _check_contract(shard, tensor, cell):
    runs, n, dim = tensor.shape
    flat = tensor.reshape(runs * n, dim)
    run_of = np.repeat(np.arange(runs), n)
    i, j = shard.neighbour_pairs()
    pairs = list(zip(i.tolist(), j.tolist()))
    # Each unordered pair once, as i < j, never across runs.
    assert len(pairs) == len(set(pairs))
    assert all(a < b for a, b in pairs)
    assert np.array_equal(run_of[i], run_of[j])
    # Cell-granular: an emitted pair's cells differ by at most one per
    # axis — and every such pair of one run is emitted.
    cells = np.floor(flat / cell)
    assert np.all(np.abs(cells[i] - cells[j]) <= 1.0)
    adjacent = np.all(np.abs(cells[:, None, :] - cells[None, :, :]) <= 1.0, axis=-1)
    same_run = run_of[:, None] == run_of[None, :]
    expected = {
        (a, b) for a, b in zip(*np.nonzero(adjacent & same_run)) if a < b
    }
    assert set(pairs) == expected
    # Every pair within the cell size is emitted, up to the rounding band
    # at cell boundaries that ``covering_cell`` accounts for.
    distances = _distances(flat)
    band = 2.0**-52 * (float(np.abs(flat).max(initial=0.0)) + 4.0 * cell)
    close = {
        (a, b)
        for a, b in zip(*np.nonzero((distances <= cell - band) & same_run))
        if a < b
    }
    assert close <= set(pairs)


def _check_covering(tensor, cell):
    runs, n, dim = tensor.shape
    flat = tensor.reshape(runs * n, dim)
    run_of = np.repeat(np.arange(runs), n)
    shard = ShardedGridIndex.from_replicates(tensor, covering_cell(flat, cell))
    i, j = shard.neighbour_pairs()
    emitted = set(zip(i.tolist(), j.tolist()))
    same_run = run_of[:, None] == run_of[None, :]
    close = {
        (a, b)
        for a, b in zip(*np.nonzero((_distances(flat) <= cell) & same_run))
        if a < b
    }
    assert close <= emitted


class TestNeighbourPairsContract:
    @given(replicate_clouds(2))
    @settings(max_examples=150, deadline=None)
    def test_planar(self, drawn):
        tensor, cell = drawn
        _check_contract(ShardedGridIndex.from_replicates(tensor, cell), tensor, cell)
        _check_contract(ShardedGridIndex(tensor[0], cell), tensor[:1], cell)
        _check_covering(tensor, cell)

    @given(replicate_clouds(3))
    @settings(max_examples=150, deadline=None)
    def test_spatial(self, drawn):
        tensor, cell = drawn
        _check_contract(ShardedGridIndex.from_replicates(tensor, cell), tensor, cell)
        _check_contract(ShardedGridIndex(tensor[0], cell), tensor[:1], cell)
        _check_covering(tensor, cell)

    def test_rounding_at_a_cell_boundary(self):
        # 1.0 apart in float arithmetic, yet in cells -1 and 1 at cell 1.0:
        # the plain grid cannot pair them, the covering cell does.
        points = np.array([[-1e-17, 0.0], [1.0, 0.0]])
        assert math.sqrt((1.0 - -1e-17) ** 2) <= 1.0
        assert len(ShardedGridIndex(points, 1.0).neighbour_pairs()[0]) == 0
        i, j = ShardedGridIndex(points, covering_cell(points, 1.0)).neighbour_pairs()
        assert (i.tolist(), j.tolist()) == ([0], [1])
