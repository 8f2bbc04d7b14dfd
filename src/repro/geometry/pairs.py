"""Pairs of ``(n, d)`` rows within reach, without an ``(n, n)`` matrix.

:class:`ShardedGridIndex` bins rows into cells ``floor(p / cell)`` in one
vectorized pass and pairs the rows of the same or adjacent cells;
:func:`covering_cell` sizes the cell so that every pair within a reach
is emitted at any coordinate magnitude.  The readers built on it decide
or report each pair's distance as the dense matrix does (components
squared and summed left to right, one square root), so their results
are the dense matrix's bit for bit:

* :func:`grid_edges` — the one edge builder, every pair within a reach
  in O(n + |E|): the visibility graph (:mod:`repro.model.visibility`),
  the metrics collector's initial edges and the 3D configurations take
  their edges from it, and :func:`grid_connected` decides the graph's
  connectivity block by block without holding them;
* :func:`min_pairwise_distance_grid`, :func:`min_distance_from` (the
  closest pair touching given rows) and :func:`rows_diameter` — the
  extreme separations;
* :class:`VisiblePairs` — the engine's round Looks: every pair a Look
  predicate keeps, set up at t=0 by the same enumeration that finds the
  initial edges (:meth:`VisiblePairs.seed`), carried from round to
  round and re-paired only around the rows that changed (a swarm too
  crowded to hold them enumerates them chunk by chunk each round
  instead).

Each instant of a run enumerates its pairs at most once: one pass at
t=0 for the edges and the carried pairs, the changed rows' cells at a
round, the moved rows' cells at the final sample.

Nothing here imports :mod:`repro.engine`, so the model layer uses it too.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from .hull import point_set_diameter

#: Exclusive bound on ``runs * prod(span)``: every in-range cell's folded
#: key then fits an ``int64`` (an out-of-range neighbour key may wrap, but
#: it is masked out before it is compared).
_KEY_LIMIT = 2**63

#: Most candidate pairs :meth:`ShardedGridIndex.warm_candidates` holds at
#: once before its filters run.
_PAIR_BLOCK = 1 << 17

#: ``keep(i, j)``: which of the candidate pairs ``(i[k], j[k])`` to keep.
PairFilter = Callable[[np.ndarray, np.ndarray], np.ndarray]


def covering_cell(positions: np.ndarray, reach: float) -> float:
    """A cell size whose :meth:`ShardedGridIndex.neighbour_pairs` covers ``reach``.

    Pairs are emitted when their cells ``floor(p / cell)`` differ by at
    most one per axis.  In exact arithmetic that covers every pair at
    distance ``<= cell``, but a float distance can round down onto the
    cell size while the two cell indices round apart — e.g. ``-1e-17``
    and ``1.0`` at cell ``1.0`` are ``1.0`` apart yet land in cells
    ``-1`` and ``1``.  Bounding that rounding (one division, one
    subtraction, the monotone sum and root) puts every missed pair
    farther than ``cell - 2**-52 * (max|p| + 4 * cell)``; this returns a
    cell widened by that band, so every pair of ``positions`` at distance
    ``<= reach`` is emitted.
    """
    magnitude = float(np.abs(positions).max()) if positions.size else 0.0
    return (reach + 2.0**-52 * magnitude) * (1.0 + 2.0**-48)


class ShardedGridIndex:
    """A batch-built uniform grid whose one query pairs the rows of adjacent cells.

    All robots of a round Look at the *same* committed positions, so
    this index bins the ``(n, d)`` committed array into cells
    ``floor(p / cell_size)`` in one vectorized pass and answers the whole
    round's neighbour queries as one batch.  Its enumerator,
    :meth:`warm_candidates`, pairs the robots of the same or adjacent
    cells (the 3^d cell neighbourhood): every such pair once, which
    :meth:`neighbour_pairs` returns to :func:`grid_edges`,
    :meth:`VisiblePairs.seed` and :func:`min_pairwise_distance_grid`,
    or each of a set of rows with its neighbours, through which
    :class:`VisiblePairs` re-pairs the rows that moved and
    :func:`min_distance_from` measures them.  :meth:`pair_blocks` yields
    the same pairs unfiltered, a block at a time.

    Cell keys fold the run id and the per-axis cell offsets into one
    ``int64``; a cell size so small against the extent that the fold
    could wrap raises :class:`OverflowError` (callers floor their search
    cells at 1e-6 of the extent with :func:`search_radius_floor`, which
    bounds 3-space folds below ``(10^6 + 2)^3``).

    The ``(runs, n, d)`` replicate-batching mode (:meth:`from_replicates`)
    bins many same-shape replicates in the *same* vectorized pass with
    run-isolated keys, so sweeps of many seeds over one workload amortize
    the binning into a single tensor step.
    """

    __slots__ = ("cell_size", "dim", "n", "runs", "_cells", "_span", "_run_ids", "_slots")

    def __init__(
        self,
        positions: np.ndarray,
        cell_size: float,
        *,
        run_ids: Optional[np.ndarray] = None,
        runs: int = 1,
    ) -> None:
        arr = np.asarray(positions, dtype=float)
        if arr.ndim != 2:
            raise ValueError("positions must be an (n, d) array")
        if not math.isfinite(cell_size) or cell_size <= 0.0:
            raise ValueError("sharded grid needs a positive, finite cell size")
        self.cell_size = float(cell_size)
        self.dim = int(arr.shape[1])
        self.n = int(arr.shape[0])
        self.runs = int(runs)
        self._run_ids = None if run_ids is None else np.asarray(run_ids, dtype=np.int64)
        self._slots: Optional[tuple] = None
        if self.n == 0:
            self._cells = np.empty((0, self.dim), dtype=np.int64)
            self._span = [1] * self.dim
            return
        scaled = arr / self.cell_size
        np.floor(scaled, out=scaled)
        low, high = _column_bounds(scaled)
        span = high - low + 1.0
        if self.runs * math.prod(span.tolist()) >= _KEY_LIMIT:
            raise OverflowError(
                f"cell size {self.cell_size!r} is too small for the extent: "
                "the grid's integer cell keys would overflow"
            )
        # Cells relative to the lowest occupied one: small non-negative
        # offsets, whatever the absolute coordinates.  Column by column:
        # broadcasting a row of d floats over n rows is far slower.
        for axis in range(self.dim):
            scaled[:, axis] -= low[axis]
        self._cells = scaled.astype(np.int64)
        self._span = [int(extent) + 1 for extent in (high - low).tolist()]

    @classmethod
    def from_replicates(cls, positions: np.ndarray, cell_size: float) -> "ShardedGridIndex":
        """Bin a ``(runs, n, d)`` replicate tensor in one vectorized pass.

        Robots are addressed by their *flat* index ``run * n + i``; cell
        keys carry the run id, so pairs never cross replicate boundaries
        even when two runs' positions coincide spatially.
        """
        arr = np.asarray(positions, dtype=float)
        if arr.ndim != 3:
            raise ValueError("replicate positions must be a (runs, n, d) tensor")
        runs, n, dim = arr.shape
        flat = arr.reshape(runs * n, dim)
        run_ids = np.repeat(np.arange(runs, dtype=np.int64), n)
        return cls(flat, cell_size, run_ids=run_ids, runs=runs)

    def _group(self) -> tuple:
        """Bin robots by run and cell, once.

        Returns ``(order, bounds, keys, slot_coords, span)``: slot ``s``
        holds the robots ``order[bounds[s]:bounds[s + 1]]`` (ascending —
        the stable sort keeps robot order), its fold key ``keys[s]``
        (ascending over slots) and its ``(run, coord...)`` row
        ``slot_coords[s]``; ``span`` is the per-axis fold radix.
        """
        if self._slots is not None:
            return self._slots
        coords = self._cells
        span = self._span
        runs = self._run_ids
        key = np.zeros(self.n, dtype=np.int64) if runs is None else runs.copy()
        for axis in range(self.dim):
            key *= span[axis]
            key += coords[:, axis]
        order = np.argsort(key, kind="stable")
        sorted_keys = key[order]
        # Keys are non-negative, so -1 starts a slot at the first robot.
        first = np.flatnonzero(np.diff(sorted_keys, prepend=-1))
        bounds = np.append(first, self.n)
        head = order[first]
        slot_coords = np.empty((len(first), self.dim + 1), dtype=np.int64)
        slot_coords[:, 0] = 0 if runs is None else runs[head]
        slot_coords[:, 1:] = coords[head]
        self._slots = (order, bounds, sorted_keys[first], slot_coords, span)
        return self._slots

    def same_cell_pairs(self) -> int:
        """How many pairs of robots share a cell (and a run)."""
        sizes = np.diff(self._group()[1])
        return int(np.dot(sizes, sizes - 1)) // 2

    def neighbourhood_sizes(self, rows: np.ndarray) -> np.ndarray:
        """How many robots the 3^d cells around each of ``rows`` hold, itself included.

        A bound on the pairs :meth:`warm_candidates` emits for the row.
        """
        order, bounds, keys, slot_coords, span = self._group()
        sizes = np.diff(bounds)
        owners, neighbours = _adjacent(
            keys, slot_coords, span, itertools.product((-1, 0, 1), repeat=self.dim)
        )
        around = np.bincount(owners, weights=sizes[neighbours], minlength=len(sizes))
        slot_of = np.empty(self.n, dtype=np.int64)
        slot_of[order] = np.repeat(np.arange(len(sizes)), sizes)
        return around.astype(np.int64)[slot_of[rows]]

    def pair_blocks(
        self, rows: Optional[np.ndarray] = None
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """The pairs ``(i, j)`` of one run whose cells are the same or adjacent, in blocks.

        Cells ``floor(p / cell_size)`` are adjacent when they differ by at
        most one on every axis, so every pair at distance ``<= cell_size``
        (up to the float rounding band :func:`covering_cell` widens a
        cell by) is among them; no pair crosses two runs.  With ``rows``
        None every such pair comes exactly once, as ``i < j``.  With
        ``rows`` (distinct robot ids, flat ids under replicate batching)
        each row ``i`` comes with every other robot ``j`` of its 3^d
        cells, as ``(i, j)``, so a pair of two rows comes once from each
        end.  A block holds at most :data:`_PAIR_BLOCK` pairs (or one
        robot's, if more).

        Cell adjacency is resolved for all cells at once, one
        ``searchsorted`` over the sorted cell keys per offset of the 3^d
        neighbourhood.  Over every robot, each lexicographically positive
        offset pairs every cell with its neighbour there, so each
        unordered cell pair is visited once, and same-cell pairs come
        from each multi-robot cell.  With ``rows`` given, each of them is
        paired with every robot of its 3^d cells.
        """
        if rows is not None and len(rows) == 0:
            return
        order, bounds, keys, slot_coords, span = self._group()
        members = (order, bounds)
        if rows is None:
            # Half neighbourhood: of an unordered pair of distinct adjacent
            # cells, exactly one of its two offsets is lexicographically positive.
            zero = (0,) * self.dim
            half = [
                offset
                for offset in itertools.product((-1, 0, 1), repeat=self.dim)
                if offset > zero
            ]
            crowded = np.flatnonzero(np.diff(bounds) > 1)
            passes = (
                ("cells", members, *_adjacent(keys, slot_coords, span, half)),
                ("same", members, crowded, crowded),
            )
        else:
            chosen = np.zeros(self.n, dtype=bool)
            chosen[rows] = True
            picked = chosen[order]
            counts = np.add.reduceat(picked, bounds[:-1], dtype=np.int64)
            rows_by_cell = (order[picked], np.concatenate(([0], np.cumsum(counts))))
            owners = np.flatnonzero(counts)
            offsets = itertools.product((-1, 0, 1), repeat=self.dim)
            passes = (
                ("rows", rows_by_cell, *_adjacent(keys, slot_coords, span, offsets, owners)),
            )
        for kind, left, ls, rs in passes:
            for first, second in _product_blocks(left, members, ls, rs):
                if kind == "cells":
                    yield np.minimum(first, second), np.maximum(first, second)
                else:
                    # A row meets itself in its own cell; a cell paired with
                    # itself yields each pair in both orders: keep ``i < j``.
                    kept = first != second if kind == "rows" else first < second
                    yield first[kept], second[kept]

    def warm_candidates(
        self,
        rows: Optional[np.ndarray] = None,
        keep: Optional[PairFilter] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every pair of :meth:`pair_blocks` that ``keep`` keeps, in two index arrays.

        ``keep`` filters the pairs as they are enumerated, a block at a
        time, so only kept pairs are ever held together.
        """
        lower: List[np.ndarray] = []
        upper: List[np.ndarray] = []
        for i, j in self.pair_blocks(rows):
            if keep is not None:
                kept = keep(i, j)
                i, j = i[kept], j[kept]
            lower.append(i)
            upper.append(j)
        if len(lower) < 2:
            empty = np.empty(0, dtype=np.int64)
            return (lower[0], upper[0]) if lower else (empty, empty)
        return np.concatenate(lower), np.concatenate(upper)

    def neighbour_pairs(
        self, keep: Optional[PairFilter] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """All pairs ``(i, j)``, ``i < j``, whose cells are the same or adjacent.

        :meth:`warm_candidates` over every robot: each pair at distance
        ``<= cell_size`` (up to :func:`covering_cell`'s band) exactly
        once, never across runs, filtered by ``keep`` as it goes.
        Callers computing a minimum must verify the found minimum is
        within the covered reach and widen the search otherwise (see
        :func:`min_pairwise_distance_grid`).
        """
        return self.warm_candidates(keep=keep)


def _members_of(
    order: np.ndarray, bounds: np.ndarray, slots: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The members of every listed slot, concatenated, and the list entry of each.

    ``slots`` may repeat; member ``m`` of the output came from
    ``slots[entry[m]]``, and each slot's members keep their ascending
    order.
    """
    sizes = bounds[slots + 1] - bounds[slots]
    starts = np.zeros(len(slots) + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    entry = np.repeat(np.arange(len(slots), dtype=np.int64), sizes)
    local = np.arange(int(starts[-1]), dtype=np.int64) - starts[entry]
    return order[bounds[slots][entry] + local], entry


def _product_blocks(
    left: Tuple[np.ndarray, np.ndarray],
    right: Tuple[np.ndarray, np.ndarray],
    ls: np.ndarray,
    rs: np.ndarray,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Every ``(left member of ls[k], right member of rs[k])`` pair, over all ``k``, in blocks.

    ``left`` and ``right`` are ``(order, bounds)`` slot memberships
    (:meth:`ShardedGridIndex._group`).  A block pairs consecutive left
    members with their whole ``rs`` slot and holds at most
    :data:`_PAIR_BLOCK` pairs (or one member's pairs, if more), so a
    crowded cell's pairs never land in one array.
    """
    first, entry = _members_of(*left, ls)
    right_slots = rs[entry]
    right_bounds = right[1]
    ends = np.cumsum(right_bounds[right_slots + 1] - right_bounds[right_slots])
    lo = 0
    while lo < len(first):
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + _PAIR_BLOCK, side="right")))
        second, pick = _members_of(*right, right_slots[lo:hi])
        yield first[lo:hi][pick], second
        lo = hi


def _adjacent(
    keys: np.ndarray,
    slot_coords: np.ndarray,
    span: List[int],
    offsets,
    owners: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(owner, neighbour)`` slot pairs for every given offset that is occupied.

    ``owners`` restricts the owner slots (None: every slot).  One
    ``searchsorted`` over the ascending slot keys per offset; a shifted
    coordinate outside ``[0, span)`` is masked out before the key
    comparison, since its fold would alias a key of another row or run.
    """
    n_slots = len(keys)
    if owners is None:
        owners = np.arange(n_slots)
    coords = slot_coords[owners]
    found_owners: List[np.ndarray] = []
    neighbours: List[np.ndarray] = []
    for offset in offsets:
        valid = np.ones(len(owners), dtype=bool)
        neighbour_key = coords[:, 0].copy()
        for axis, step in enumerate(offset):
            shifted = coords[:, axis + 1] + step
            valid &= (shifted >= 0) & (shifted < span[axis])
            neighbour_key = neighbour_key * span[axis] + shifted
        idx = np.searchsorted(keys, neighbour_key)
        idx[idx >= n_slots] = 0
        found = valid & (keys[idx] == neighbour_key)
        found_owners.append(owners[found])
        neighbours.append(idx[found])
    if not found_owners:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(found_owners), np.concatenate(neighbours)


#: Up to this many robots a 3D diameter pairs every row, above it only the
#: hull vertices (:func:`rows_diameter`), and up to it the metrics
#: collector keeps its initial edges as a set.  The extreme distances
#: reported are bit-identical either way.
METRICS_DENSE_MAX = 2048

#: Row cap and pair budget of one block of :func:`dense_diameter`: a block
#: holds ``min(512, budget // n)`` rows (at least one), so each of its
#: float64 temporaries stays within 32 MiB for any n up to 2**22.
_DIAMETER_BLOCK_ROWS = 512
_DIAMETER_BLOCK_PAIRS = 1 << 22


def min_pairwise_distance_grid(arr: np.ndarray, radius: float) -> float:
    """Minimum pairwise distance via grid-local pairs, exact at any scale.

    The search grid's :meth:`ShardedGridIndex.neighbour_pairs` covers
    every pair at distance at most ``radius`` (its cell is
    :func:`covering_cell` of the radius), so a found minimum no larger
    than the radius is the true global minimum (any pair left out is
    farther); otherwise the radius doubles and the search reruns.  Any
    positive start is exact: a start near the true minimum (the metrics
    collector starts at the shortest initial edge) keeps the pair count
    linear, a start far above it costs pairs, one far below it costs
    doublings.  The start is
    floored at 1e-6 of the largest per-axis extent, which also bounds
    the grid's integer cell keys.  The per-pair arithmetic (``dx*dx +
    dy*dy``, one square root after the reduction) matches the dense
    matrix path, so the returned float is bit-identical to the smallest
    off-diagonal entry of
    :func:`~repro.geometry.point.pairwise_distances`.
    """
    if len(arr) < 2:
        return 0.0
    columns = _columns(arr)
    radius = search_radius_floor(arr, radius)
    while True:
        shard = ShardedGridIndex(arr, covering_cell(arr, radius))
        i, j = shard.neighbour_pairs()
        if len(i):
            best = float(math.sqrt(_pair_squared(columns, i, j).min()))
            if best <= radius:
                return best
        radius *= 2.0


def _columns(arr: np.ndarray) -> List[np.ndarray]:
    """The contiguous coordinate columns of ``(n, d)`` rows."""
    return [np.ascontiguousarray(arr[:, axis]) for axis in range(arr.shape[1])]


def _pair_squared(columns: List[np.ndarray], i, j) -> np.ndarray:
    """Squared distances of the pairs ``(i, j)``.

    ``i`` and ``j`` index every column alike: two index arrays, or two
    broadcasting slices for a block of pairs.  Components squared and
    summed left to right, exactly like the dense matrix builders in any
    dimension.
    """
    squared = None
    for column in columns:
        delta = column[i] - column[j]
        term = delta * delta
        squared = term if squared is None else squared + term
    return squared


def _squared(deltas: List[np.ndarray]) -> np.ndarray:
    """:func:`_pair_squared` of per-axis offsets already gathered (either sign)."""
    squared = None
    for delta in deltas:
        term = delta * delta
        squared = term if squared is None else squared + term
    return squared


def _intp_blocks(i: np.ndarray, j: np.ndarray):
    """``(block, i[block], j[block])`` over slices of at most :data:`_PAIR_BLOCK` pairs.

    Gathers index fastest with ``intp``: narrower indices (the metrics
    collector's ``int32`` edges) are widened a block at a time, so no
    wide copy of them all is held.
    """
    for start in range(0, len(i), _PAIR_BLOCK):
        block = slice(start, start + _PAIR_BLOCK)
        yield block, i[block].astype(np.intp), j[block].astype(np.intp)


def pair_distances(arr: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Distances of the row pairs ``(i[k], j[k])``, each the dense matrix's float.

    Gathered with ``intp`` indices (:func:`_intp_blocks`).
    """
    columns = _columns(arr)
    if len(i) <= _PAIR_BLOCK:
        return np.sqrt(_pair_squared(columns, i.astype(np.intp), j.astype(np.intp)))
    distances = np.empty(len(i))
    for block, lower, upper in _intp_blocks(i, j):
        distances[block] = np.sqrt(_pair_squared(columns, lower, upper))
    return distances


def both_in(mask: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``mask[i] & mask[j]``, gathered with ``intp`` indices (:func:`_intp_blocks`)."""
    kept = np.empty(len(i), dtype=bool)
    for block, lower, upper in _intp_blocks(i, j):
        kept[block] = mask[lower] & mask[upper]
    return kept


def dense_diameter(arr: np.ndarray) -> float:
    """Largest distance between two ``(n, d)`` rows, over every pair.

    The scan runs in row blocks, each against the rows from its own first
    row on, so memory stays bounded and every pair is reduced once or
    twice (a pair's squared distance is the same float in either order).
    Reducing the squared distances (:func:`_pair_squared`) first and
    rooting once returns the dense matrix's float: ``sqrt`` is monotone
    and correctly rounded.  0 below two rows.
    """
    n = len(arr)
    if n < 2:
        return 0.0
    columns = _columns(arr)
    step = max(1, min(_DIAMETER_BLOCK_ROWS, _DIAMETER_BLOCK_PAIRS // n))
    best = 0.0
    for start in range(0, n, step):
        squared = _pair_squared(columns, np.s_[start:start + step, None], np.s_[None, start:])
        best = max(best, float(squared.max()))
    return math.sqrt(best)


def rows_diameter(arr: np.ndarray) -> float:
    """Largest distance between two ``(n, d)`` rows, as the dense matrix gives it.

    Planar rows take :func:`~repro.geometry.hull.point_set_diameter`.  In
    3-space the diameter is attained between two hull vertices, so past
    ``METRICS_DENSE_MAX`` rows :func:`dense_diameter` pairs only the
    vertices of the Qhull hull (a few hundred at mega-swarm scale), with
    the dense per-pair arithmetic; below it, and for a flat swarm Qhull
    rejects, it pairs every row.
    """
    if arr.shape[1] == 2:
        return point_set_diameter(arr)
    if len(arr) > METRICS_DENSE_MAX:
        from scipy.spatial import ConvexHull as QhullHull, QhullError

        try:
            arr = arr[QhullHull(arr).vertices]
        except QhullError:
            pass
    return dense_diameter(arr)


def grid_edges(arr: np.ndarray, reach: float) -> "tuple[np.ndarray, np.ndarray]":
    """All pairs ``i < j`` of the ``(n, d)`` rows at distance ``<= reach``.

    Returned as two index arrays in lexicographic order, the order of a
    sorted edge set, ``int32`` below 2^31 rows.  At a finite reach the
    pairs come from a grid whose cell covers ``reach`` (floored with
    :func:`search_radius_floor`, which bounds the cell keys however
    small the reach), in O(n + |E|); each pair's distance is the dense
    matrix's (:func:`pair_distances`), so the ``<= reach`` predicate
    decides every pair as the dense edge builders do.  An infinite reach
    pairs every two rows.
    """
    n = len(arr)
    if not math.isfinite(reach):
        return tuple(side.astype(_index_dtype(n)) for side in np.triu_indices(n, k=1))
    if n < 2:
        empty = np.empty(0, dtype=_index_dtype(n))
        return empty, empty
    grid = ShardedGridIndex(arr, _cell_for(arr, reach))
    return _edge_arrays(grid, _within(_columns(arr), reach), n)


def grid_connected(arr: np.ndarray, reach: float) -> bool:
    """Whether the graph of the ``(n, d)`` rows' pairs within ``reach`` is connected.

    The graph of :func:`grid_edges`, never held: each block of the
    grid's kept pairs merges the components it joins into one label
    array (one ``scipy`` labelling over the current labels), and the
    enumeration stops once a single component is left.  O(n + block)
    memory; an infinite reach joins every two rows.
    """
    n = len(arr)
    if n <= 1 or not math.isfinite(reach):
        return True
    from scipy.sparse import coo_matrix, csgraph

    within = _within(_columns(arr), reach)
    labels = np.arange(n)
    count = n
    for i, j in ShardedGridIndex(arr, _cell_for(arr, reach)).pair_blocks():
        kept = within(i, j)
        a, b = labels[i[kept]], labels[j[kept]]
        joins = a != b
        if not joins.any():
            continue
        graph = coo_matrix(
            (np.ones(int(joins.sum()), dtype=np.int8), (a[joins], b[joins])), shape=(count, count)
        )
        count, merged = csgraph.connected_components(graph, directed=False)
        labels = merged[labels]
        if count == 1:
            return True
    return False


def _index_dtype(n: int):
    """The narrowest of ``int32`` and ``int64`` that indexes ``n`` rows."""
    return np.int32 if n < 2**31 else np.int64


def _within(columns: List[np.ndarray], reach: float) -> PairFilter:
    """Keep the pairs at a distance of at most ``reach`` (the dense matrix's float)."""
    return lambda i, j: np.sqrt(_pair_squared(columns, i, j)) <= reach


def _edge_arrays(
    grid: "ShardedGridIndex", keep: PairFilter, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The pairs ``grid.neighbour_pairs(keep)`` keeps, in ``(i, j)`` order.

    One sort of the pair keys ``i * n + j`` orders them; the keys are
    then split a block at a time into :func:`_index_dtype` arrays, so
    the split holds no two ``int64`` arrays of every pair.
    """
    i, j = grid.neighbour_pairs(keep)
    key = np.multiply(i, n)
    key += j
    del i, j
    key.sort()
    dtype = _index_dtype(n)
    lower = np.empty(len(key), dtype=dtype)
    upper = np.empty(len(key), dtype=dtype)
    for start in range(0, len(key), _PAIR_BLOCK):
        block = slice(start, start + _PAIR_BLOCK)
        lower[block], upper[block] = np.divmod(key[block], n)
    return lower, upper


def min_distance_from(arr: np.ndarray, rows: np.ndarray, reach: float) -> float:
    """The smallest distance between one of ``rows`` and any other row, if at most ``reach``.

    Pairs each of ``rows`` with the robots of its cells on a grid that
    covers ``reach`` (floored with :func:`search_radius_floor`): a
    returned value no larger than ``reach`` is the exact minimum, the
    dense matrix's float; a larger one (or ``inf`` with no candidate)
    says only that none lies within ``reach``.
    """
    i, j = ShardedGridIndex(arr, _cell_for(arr, reach)).warm_candidates(rows)
    if not len(i):
        return math.inf
    return float(math.sqrt(_pair_squared(_columns(arr), i, j).min()))


def search_radius_floor(arr: np.ndarray, radius: float) -> float:
    """``radius`` as a min-separation search start: positive, finite, not tiny.

    A non-positive or infinite radius (no hint, unlimited visibility)
    starts at 1.  The floor of 1e-6 times the largest per-axis extent of
    ``arr`` keeps a search grid within ``10^6 + 2`` cells per axis, so
    its integer cell keys stay far from overflow even in 3-space, however
    small a past minimum was.
    """
    if not math.isfinite(radius) or radius <= 0.0:
        radius = 1.0
    low, high = _column_bounds(arr)
    extent = float((high - low).max())
    return max(radius, 1e-6 * extent)


def _column_bounds(arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-axis minima and maxima of non-empty ``(n, d)`` rows.

    Reduced one column at a time: numpy's axis-0 reduction over rows of
    two or three floats is some ten times slower.
    """
    columns = [arr[:, axis] for axis in range(arr.shape[1])]
    return (
        np.array([column.min() for column in columns]),
        np.array([column.max() for column in columns]),
    )


_NO_KEYS = np.empty(0, dtype=np.int64)

#: Most ids one chunk of a round's Looks gathers (a chunk holds at least
#: one owner): visible ids with a grid (:meth:`VisiblePairs.chunks`), every
#: row without one.  Every row array of a round's decide spans one chunk,
#: so a round's peak memory is O(chunk), not O(round).
ROW_BUDGET = 1 << 17

#: A :class:`VisiblePairs` holds its keys while at most this many pairs of
#: rows per row share a grid cell; past it the set holds no keys, and each
#: round enumerates its owners' pairs chunk by chunk instead.  The bound
#: caps the held keys at O(n): the visible pairs are among the pairs of
#: the same or adjacent cells, at most ``3^d S + (3^d - 1) n / 2`` for
#: ``S`` shared-cell pairs (a cell pair's product is at most the mean of
#: its two squares), so at most 148 pairs a row (2.4 KB) in the plane.
#: Holding was faster at every density measured, so the bound caps memory
#: rather than marking a crossover (``round_pairs`` square rows of
#: ``BENCH_layers.json``, n = 2·10^4 uniform in a square, kknps × ssync,
#: 2n activations): at S = 7.9 holding ran 1.64x faster than enumerating
#: for 21% more peak RSS, at S = 31.3 1.49x faster for 34% more, and at
#: S = 200 (4·10^4 robots in a 10 x 10 square) 1.86x faster for 50% more.
CARRY_CELL_PAIRS_PER_ROW = 16


def changed_rows(held: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The ascending ids of the rows whose bits differ between two equal-shape arrays.

    Both are C-contiguous ``float64``; a bit counts whatever its value,
    so ``-0.0`` against ``0.0`` is a change.
    """
    differs = np.flatnonzero(held.view(np.uint64).ravel() != rows.view(np.uint64).ravel())
    # Ascending: a row's differing words are consecutive, keep its first.
    row_ids = differs // rows.shape[1]
    return row_ids[np.diff(row_ids, prepend=-1) != 0]


def _cell_for(arr: np.ndarray, reach: float) -> float:
    """The covering cell of ``reach`` over ``arr``, floored with :func:`search_radius_floor`."""
    return covering_cell(arr, search_radius_floor(arr, reach))


def _both_ends(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """The directed keys ``i * n + j`` and ``j * n + i`` of the pairs ``(i, j)``, unsorted.

    Both halves are written in place: with the pairs, four words a pair
    at the peak.
    """
    m = len(i)
    keys = np.empty(2 * m, dtype=np.int64)
    np.multiply(i, n, out=keys[:m])
    keys[:m] += j
    np.multiply(j, n, out=keys[m:])
    keys[m:] += i
    return keys


def budget_chunks(counts: np.ndarray, budget: int) -> Iterator[Tuple[int, int]]:
    """Consecutive ``[lo, hi)`` slices of ``counts`` summing to at most ``budget``.

    Every slice holds at least one entry, so an entry past the budget
    gets a slice of its own.
    """
    segment = np.concatenate(([0], np.cumsum(counts)))
    lo = 0
    while lo < len(counts):
        hi = int(np.searchsorted(segment, segment[lo] + budget, side="right")) - 1
        hi = min(len(counts), max(lo + 1, hi))
        yield lo, hi
        lo = hi


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(starts[k], starts[k] + counts[k])`` over every ``k``, concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total, dtype=np.int64) + np.repeat(starts - ends + counts, counts)


class VisiblePairs:
    """The visible pairs of ``(N, d)`` rows, refreshed only where the rows changed.

    A pair ``i < j`` is visible when ``keeps`` — the front end's Look
    predicate, taking the per-axis components of ``p_j - p_i`` — keeps
    it; ``reach`` bounds every distance it keeps.  Both Looks of a pair
    take one verdict: ``a - b`` is exactly ``-(b - a)``, and the Look
    distances (``hypot``, sums of squares) ignore signs.

    The pairs are held as one sorted ``int64`` array of directed keys,
    ``i * N + j`` and ``j * N + i`` for every visible pair, 16 bytes a
    pair and nothing else.  Robot ``o``'s visible rows are its one run
    ``[o * N, (o + 1) * N)`` of ``keys``: ascending ids, as a dense Look
    lists them, with no per-query sort.

    :meth:`refresh` keeps the set equal to a full enumeration of the
    current rows.  Two unchanged rows keep their floats, so their pair
    keeps its verdict; every pair that touches a changed row is found
    again by a grid whose cell covers ``reach`` at any coordinate
    magnitude, and judged again.  :meth:`seed` leaves the set as a
    first refresh would, from the enumeration that finds a run's
    initial edges.  With ``runs > 1`` the rows are that many stacked
    replicates of equal size, and no pair crosses two.

    A swarm so crowded that more than :data:`CARRY_CELL_PAIRS_PER_ROW`
    pairs per row share a grid cell holds no keys: ``grid`` then keeps
    the refresh's grid, and :meth:`chunks` enumerates the pairs of each
    chunk of owners through it, so memory stays O(n + ROW_BUDGET).
    """

    __slots__ = ("reach", "keeps", "runs", "rows", "keys", "grid")

    def __init__(
        self,
        reach: float,
        keeps: Callable[..., np.ndarray],
        *,
        runs: int = 1,
    ) -> None:
        self.reach = float(reach)
        self.keeps = keeps
        self.runs = int(runs)
        #: The rows the pairs were last refreshed to (a private copy).
        self.rows: Optional[np.ndarray] = None
        self.keys = _NO_KEYS
        #: The grid of ``rows`` while the set is too crowded to hold keys.
        self.grid: Optional[ShardedGridIndex] = None

    def refresh(self, rows: np.ndarray) -> "VisiblePairs":
        """Bring the pairs up to ``rows``; returns ``self``.

        A row changed when any of its bit patterns differs from the held
        row's (:func:`changed_rows`), whatever moved it; on first use, or
        when the shape changes, every row has.  No change costs one
        comparison and builds no grid.  Otherwise one grid is built over
        the current rows (cell :func:`covering_cell` of ``reach``,
        floored with :func:`search_radius_floor` like :func:`grid_edges`).
        If it is too crowded to carry keys
        (:data:`CARRY_CELL_PAIRS_PER_ROW`) the keys are released and the
        grid kept.  When every row changed, or the set held no keys, the
        grid's every pair is judged and the kept ones stored from both
        ends.  Else every key with a changed endpoint is dropped, the
        grid pairs each changed row with its neighbours, and the kept
        pairs are merged in, with the mirror key of each pair whose
        other end did not change (a pair of two changed rows comes from
        both ends already).  A full refresh over ``runs > 1`` runs that
        agree bit for bit enumerates run 0 alone (:meth:`_tile`).
        """
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        held = self.rows
        changed = None
        if held is not None and held.shape == rows.shape:
            changed = changed_rows(held, rows)
            if not len(changed):
                return self
            if self.grid is not None or len(changed) == len(rows):
                changed = None
        if changed is None:
            self.keys = _NO_KEYS
        self.grid = None
        self.rows = rows.copy()
        n, dim = rows.shape
        if n < 2 or (changed is None and self.runs > 1 and self._tile(rows)):
            return self
        cell = _cell_for(rows, self.reach)
        if self.runs > 1:
            grid = ShardedGridIndex.from_replicates(rows.reshape(self.runs, -1, dim), cell)
        else:
            grid = ShardedGridIndex(rows, cell)
        if grid.same_cell_pairs() > CARRY_CELL_PAIRS_PER_ROW * n:
            self.grid = grid
            self.keys = _NO_KEYS
            return self
        if changed is None:
            keys = _both_ends(*grid.warm_candidates(keep=self._keep()), n)
            keys.sort()
        else:
            self._drop(changed)
            seer, seen = grid.warm_candidates(changed, self._keep())
            moved = np.zeros(n, dtype=bool)
            moved[changed] = True
            still = ~moved[seen]
            fresh = np.sort(np.concatenate((seer * n + seen, seen[still] * n + seer[still])))
            # Two sorted runs: the stable sort merges them in linear time.
            keys = np.concatenate((self.keys, fresh))
            keys.sort(kind="stable")
        self.keys = keys
        return self

    def _tile(self, rows: np.ndarray) -> bool:
        """Hold the keys of bit-identical runs from one enumeration of run 0.

        Run ``s``'s pair ``(i, j)`` has the key ``(s m + i) N + s m + j``
        over ``N`` rows of ``m`` a run: run 0's key plus ``s m (N + 1)``,
        so run 0's sorted keys tiled by those offsets are every run's,
        still sorted run by run.  Returns False, holding nothing, when a
        run differs from run 0 in any bit or run 0 is too crowded to hold
        keys (:data:`CARRY_CELL_PAIRS_PER_ROW`).
        """
        total = len(rows)
        m = total // self.runs
        words = rows.view(np.uint64).reshape(self.runs, -1)
        if not (words[1:] == words[0]).all():
            return False
        first = rows[:m]
        grid = ShardedGridIndex(first, _cell_for(first, self.reach))
        if grid.same_cell_pairs() > CARRY_CELL_PAIRS_PER_ROW * m:
            return False
        keys = _both_ends(*grid.warm_candidates(keep=self._keep()), total)
        keys.sort()
        offsets = np.arange(self.runs, dtype=np.int64) * (m * (total + 1))
        self.keys = (offsets[:, None] + keys).ravel()
        return True

    def seed(self, rows: np.ndarray, edge_reach: float) -> Tuple[np.ndarray, np.ndarray]:
        """Set the pairs up at ``rows``; returns the rows' edges within ``edge_reach``.

        One enumeration serves both: the edges are :func:`grid_edges`'s
        at ``edge_reach`` (the metrics collector's initial edges), and
        the pairs are left as a first :meth:`refresh` to ``rows`` leaves
        them.  A grid whose cell covers both reaches is enumerated once
        (:meth:`ShardedGridIndex.neighbour_pairs`) and each block of its
        pairs is judged by both predicates.  The crowding verdict is
        taken on the grid a refresh would build (the same one when the
        two reaches give one cell); a crowded set keeps that grid and
        judges no Look.  The set holds one run, and ``edge_reach`` is
        finite.
        """
        assert self.runs == 1 and math.isfinite(edge_reach)
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        n = len(rows)
        if n < 2:
            self.rows = None
            self.refresh(rows)
            return grid_edges(rows, edge_reach)
        self.rows = rows.copy()
        self.keys = _NO_KEYS
        self.grid = None
        look_cell = _cell_for(rows, self.reach)
        cell = max(look_cell, _cell_for(rows, edge_reach))
        grid = ShardedGridIndex(rows, cell)
        look_grid = grid if cell == look_cell else ShardedGridIndex(rows, look_cell)
        columns = _columns(rows)
        if look_grid.same_cell_pairs() > CARRY_CELL_PAIRS_PER_ROW * n:
            self.grid = look_grid
            return _edge_arrays(grid, _within(columns, edge_reach), n)
        blocks: List[np.ndarray] = []

        def keep(i: np.ndarray, j: np.ndarray) -> np.ndarray:
            # One gather per axis serves both predicates: a square, and
            # the Look's verdict, ignore the offset's sign.
            deltas = [column[j] - column[i] for column in columns]
            seen = self.keeps(*deltas)
            blocks.append(_both_ends(i[seen], j[seen], n))
            return np.sqrt(_squared(deltas)) <= edge_reach

        edges = _edge_arrays(grid, keep, n)
        keys = np.concatenate((_NO_KEYS, *blocks))
        del blocks[:]
        keys.sort()
        self.keys = keys
        return edges

    def _keep(self) -> PairFilter:
        """``keeps`` as a filter of candidate pairs of the held rows."""
        columns = _columns(self.rows)
        return lambda i, j: self.keeps(*(column[j] - column[i] for column in columns))

    def _drop(self, changed: np.ndarray) -> None:
        """Remove every key with an endpoint in ``changed``: their runs and the mirrors."""
        n = len(self.rows)
        at = _ranges(*self._spans(changed))
        owner, partner = np.divmod(self.keys[at], n)
        mirror = np.searchsorted(self.keys, partner * n + owner)
        self.keys = np.delete(self.keys, np.concatenate((at, mirror)))

    def _spans(self, owners: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Each owner's key run: ``(start, count)``."""
        n = len(self.rows)
        base = owners * n
        bounds = np.searchsorted(self.keys, np.concatenate((base, base + n)))
        m = len(base)
        return bounds[:m], bounds[m:] - bounds[:m]

    def chunks(
        self, owners: np.ndarray, budget: int = ROW_BUDGET
    ) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray]]:
        """The visible ids of ``owners``, a chunk of consecutive owners at a time.

        Yields ``(lo, hi, ids, counts)``: ``counts[k]`` ids for each of
        ``owners[lo:hi]``, concatenated in owner order, each owner's
        ascending and without the owner — the rows its Look keeps.  A
        chunk holds at most ``budget`` ids, or one owner's if more.
        Owners are distinct.  Held keys are read from each owner's key
        run; a set holding none enumerates each chunk's pairs through
        its grid, and sorts them.
        """
        owners = np.asarray(owners, dtype=np.int64)
        n = len(self.rows)
        if self.grid is None:
            start, counts = self._spans(owners)
            for lo, hi in budget_chunks(counts, budget):
                yield lo, hi, self.keys[_ranges(start[lo:hi], counts[lo:hi])] % n, counts[lo:hi]
            return
        keep = self._keep()
        local = np.empty(n, dtype=np.int64)
        for lo, hi in budget_chunks(self.grid.neighbourhood_sizes(owners), budget):
            chosen = owners[lo:hi]
            seer, seen = self.grid.warm_candidates(chosen, keep)
            local[chosen] = np.arange(hi - lo)
            seer = local[seer]
            counts = np.bincount(seer, minlength=hi - lo)
            keys = seer * n + seen
            # A row's pairs come as one ascending run per cell around it.
            keys.sort(kind="stable")
            yield lo, hi, keys % n, counts
