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
  their edges from it;
* :func:`min_pairwise_distance_grid` and :func:`rows_diameter` — the
  extreme separations.

The engine's round decide also reads the grid's block-local candidate
arrays.  Nothing here imports :mod:`repro.engine`, so the model layer
uses it too.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Tuple

import numpy as np

from .hull import point_set_diameter

# Side length of a sharded-grid block, in cells.  Two cells per axis keeps
# a block's 3^d-adjacent candidate array within one cache-sized chunk for
# the densities the mega-swarm workloads produce (a handful of robots per
# cell) while still amortizing the candidate-array build over all robots
# of the block.
BLOCK_CELLS = 2

#: Exclusive bound on ``runs * prod(span)``: every in-range cell's folded
#: key then fits an ``int64`` (an out-of-range neighbour key may wrap, but
#: it is masked out before it is compared).
_KEY_LIMIT = 2**63


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
    """A batch-built uniform grid: cell-granular pairs, block-sharded candidates.

    :class:`~repro.engine.spatial_index.UniformGridIndex` is incremental:
    robots settle and begin moves one at a time, and every Look pays a
    3^d dict-bucket union.  The round fast path has no use for that — all
    robots of a round Look at the *same* committed positions — so this
    index bins the ``(n, d)`` committed array into cells
    ``floor(p / cell_size)`` in one vectorized pass and serves two kinds
    of query from it:

    * :meth:`neighbour_pairs` pairs robots of the same or adjacent
      *cells* (the 3^d cell neighbourhood), which is what
      :func:`grid_edges` and :func:`min_pairwise_distance_grid` consume;
    * :meth:`candidates` / :meth:`warm_candidates` serve *block-local
      candidate arrays* in the PANDA style: cells are grouped into
      contiguous ``BLOCK_CELLS``-wide blocks, every robot of a block
      shares one candidate array (the members of the 3^d adjacent
      blocks, ascending), and query batches therefore touch cache-sized
      chunks instead of per-robot set unions.  The block structures are
      built on the first such call, so a pairs-only index never pays
      for them.

    Candidate exactness: a robot in block ``b`` occupies cells in
    ``[2b, 2b + 1]`` per axis, so the 3^1 cell window of any of its cells
    lies within ``[2b - 1, 2b + 2]`` — covered by blocks ``b - 1 .. b + 1``.
    The 3^d adjacent *blocks* therefore contain every robot within
    ``cell_size`` of any member (with a whole cell of slack for float
    rounding at cell boundaries), and the caller's exact distance filter
    (which also drops the member itself at distance zero) does the rest.

    Cell and block keys fold the run id and the per-axis cell offsets
    into one ``int64``; a cell size so small against the extent that the
    fold could wrap raises :class:`OverflowError` (callers floor their
    search cells at 1e-6 of the extent, which bounds 3-space folds below
    ``(10^6 + 2)^3``).

    The ``(runs, n, d)`` replicate-batching mode (:meth:`from_replicates`)
    bins many same-shape replicates in the *same* vectorized pass with
    run-isolated keys, so sweeps of many seeds over one workload amortize
    the binning into a single tensor step.
    """

    __slots__ = (
        "cell_size",
        "dim",
        "n",
        "runs",
        "_cells",
        "_run_ids",
        "_blocks",
        "_slot_of_robot",
        "_candidates",
    )

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
        self._blocks: Optional[tuple] = None
        self._slot_of_robot: Optional[np.ndarray] = None
        self._candidates: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if self.n == 0:
            self._cells = np.empty((0, self.dim), dtype=np.int64)
            return
        scaled = np.floor(arr / self.cell_size)
        low = scaled.min(axis=0)
        span = scaled.max(axis=0) - low + 1.0
        if self.runs * math.prod(span.tolist()) >= _KEY_LIMIT:
            raise OverflowError(
                f"cell size {self.cell_size!r} is too small for the extent: "
                "the grid's integer cell keys would overflow"
            )
        # Cells relative to the lowest occupied one: small non-negative
        # offsets, whatever the absolute coordinates.
        self._cells = (scaled - low).astype(np.int64)

    @classmethod
    def from_replicates(cls, positions: np.ndarray, cell_size: float) -> "ShardedGridIndex":
        """Bin a ``(runs, n, d)`` replicate tensor in one vectorized pass.

        Robots are addressed by their *flat* index ``run * n + i``; cell
        and block keys carry the run id, so candidate arrays and
        neighbour pairs never cross replicate boundaries even when two
        runs' positions coincide spatially.
        """
        arr = np.asarray(positions, dtype=float)
        if arr.ndim != 3:
            raise ValueError("replicate positions must be a (runs, n, d) tensor")
        runs, n, dim = arr.shape
        flat = arr.reshape(runs * n, dim)
        run_ids = np.repeat(np.arange(runs, dtype=np.int64), n)
        return cls(flat, cell_size, run_ids=run_ids, runs=runs)

    def _group(self, coords: np.ndarray) -> tuple:
        """Bin robots by run and the non-negative integer ``coords`` rows.

        Returns ``(order, bounds, keys, slot_coords, span)``: slot ``s``
        holds the robots ``order[bounds[s]:bounds[s + 1]]`` (ascending —
        the stable sort keeps robot order), its fold key ``keys[s]``
        (ascending over slots) and its ``(run, coord...)`` row
        ``slot_coords[s]``; ``span`` is the per-axis fold radix.
        """
        span = [int(s) + 1 for s in coords.max(axis=0, initial=0)]
        runs = self._run_ids
        key = np.zeros(self.n, dtype=np.int64) if runs is None else runs.copy()
        for axis in range(self.dim):
            key = key * span[axis] + coords[:, axis]
        order = np.argsort(key, kind="stable")
        sorted_keys = key[order]
        # Keys are non-negative, so -1 starts a slot at the first robot.
        first = np.flatnonzero(np.diff(sorted_keys, prepend=-1))
        bounds = np.append(first, self.n)
        head = order[first]
        slot_coords = np.empty((len(first), self.dim + 1), dtype=np.int64)
        slot_coords[:, 0] = 0 if runs is None else runs[head]
        slot_coords[:, 1:] = coords[head]
        return order, bounds, sorted_keys[first], slot_coords, span

    def _block_slots(self) -> tuple:
        """The block grouping of :meth:`_group`, built on first use."""
        if self._blocks is None:
            self._blocks = self._group(self._cells // BLOCK_CELLS)
            order, bounds = self._blocks[:2]
            slot_of_robot = np.empty(self.n, dtype=np.intp)
            slot_of_robot[order] = np.repeat(
                np.arange(len(bounds) - 1, dtype=np.intp), np.diff(bounds)
            )
            self._slot_of_robot = slot_of_robot
        return self._blocks

    def candidates(self, robot_id: int) -> np.ndarray:
        """Ascending ids of every robot in the 3^d blocks around ``robot_id``.

        A superset of all robots within ``cell_size`` — *including the
        robot itself*, which the caller's coincidence filter drops at
        distance zero (the round fast path filters exactly as the dense
        snapshot build does).
        """
        ids, bounds = self.warm_candidates()
        slot = int(self._slot_of_robot[robot_id])
        return ids[bounds[slot] : bounds[slot + 1]]

    def warm_candidates(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every block's candidate array as CSR ``(ids, bounds)``, built once.

        Slot ``s``'s candidates are ``ids[bounds[s]:bounds[s + 1]]`` and
        ``_slot_of_robot`` maps a robot to its slot, so a bulk consumer (a
        round's decide) gathers chunks of lists with plain array operations.
        Block adjacency for all slots resolves through one ``searchsorted``
        per offset, and one sort of ``(slot, robot)`` keys orders every
        slot's candidates by ascending robot id.
        """
        if self._candidates is not None:
            return self._candidates
        order, bounds, keys, slot_coords, span = self._block_slots()
        n_slots = len(keys)
        owners, sources = _adjacent(
            keys, slot_coords, span, itertools.product((-1, 0, 1), repeat=self.dim)
        )
        elements, entry = _members_of(order, bounds, sources)
        slot_tag = owners[entry]
        slot_bounds = np.zeros(n_slots + 1, dtype=np.int64)
        np.cumsum(np.bincount(slot_tag, minlength=n_slots), out=slot_bounds[1:])
        # A robot sits in one block, so no slot lists it twice: the keys
        # are distinct and sorting them orders each slot's robots.
        self._candidates = (np.sort(slot_tag * self.n + elements) % self.n, slot_bounds)
        return self._candidates

    def neighbour_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """All pairs ``(i, j)``, ``i < j``, whose cells are the same or adjacent.

        Emits every pair of one run whose cells ``floor(p / cell_size)``
        differ by at most one on every axis, each exactly once and never
        across runs — so every pair at distance ``<= cell_size`` (up to
        the float rounding band :func:`covering_cell` widens a cell by).
        Cell adjacency is resolved for *all* cells at once: each
        lexicographically positive offset of the 3^d neighbourhood pairs
        every cell with its neighbour at that offset via one
        ``searchsorted`` over the sorted cell keys, so each unordered cell
        pair is visited once, and same-cell pairs come from each
        multi-robot cell.  Callers computing a minimum must verify the
        found minimum is within the covered reach and widen the search
        otherwise (see :func:`repro.geometry.pairs.min_pairwise_distance_grid`).
        """
        order, bounds, keys, slot_coords, span = self._group(self._cells)
        # Half neighbourhood: of an unordered cell pair's two offsets
        # exactly one is lexicographically positive.
        zero = (0,) * self.dim
        half = [
            offset
            for offset in itertools.product((-1, 0, 1), repeat=self.dim)
            if offset > zero
        ]
        ls, rs = _adjacent(keys, slot_coords, span, half)
        left, right = _slot_products(order, bounds, ls, rs)
        crowded = np.flatnonzero(np.diff(bounds) > 1)
        first, second = _slot_products(order, bounds, crowded, crowded)
        # A cell paired with itself yields each pair in both orders (and
        # every robot with itself): keep the ``i < j`` one.
        keep = first < second
        return (
            np.concatenate((np.minimum(left, right), first[keep])),
            np.concatenate((np.maximum(left, right), second[keep])),
        )


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


def _slot_products(
    order: np.ndarray, bounds: np.ndarray, ls: np.ndarray, rs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every ``(member of ls[k], member of rs[k])`` robot pair, over all ``k``."""
    first, entry = _members_of(order, bounds, ls)
    second, pick = _members_of(order, bounds, rs[entry])
    return first[pick], second


def _adjacent(
    keys: np.ndarray, slot_coords: np.ndarray, span: List[int], offsets
) -> Tuple[np.ndarray, np.ndarray]:
    """``(owner, neighbour)`` slot pairs for every given offset that is occupied.

    One ``searchsorted`` over the ascending slot keys per offset; a
    shifted coordinate outside ``[0, span)`` is masked out before the
    key comparison, since its fold would alias a key of another row or
    run.
    """
    n_slots = len(keys)
    owners: List[np.ndarray] = []
    neighbours: List[np.ndarray] = []
    for offset in offsets:
        valid = np.ones(n_slots, dtype=bool)
        neighbour_key = slot_coords[:, 0].copy()
        for axis, step in enumerate(offset):
            shifted = slot_coords[:, axis + 1] + step
            valid &= (shifted >= 0) & (shifted < span[axis])
            neighbour_key = neighbour_key * span[axis] + shifted
        idx = np.searchsorted(keys, neighbour_key)
        idx[idx >= n_slots] = 0
        found = valid & (keys[idx] == neighbour_key)
        owners.append(np.flatnonzero(found))
        neighbours.append(idx[found])
    if not owners:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(owners), np.concatenate(neighbours)


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
    positive start is exact: a start near the true minimum (see
    :func:`repro.engine.metrics.min_separation`) keeps the pair count linear, a start far
    above it costs pairs, one far below it costs doublings.  The start is
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


def pair_distances(arr: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Distances of the row pairs ``(i[k], j[k])``, each the dense matrix's float."""
    return np.sqrt(_pair_squared(_columns(arr), i, j))


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
    sorted edge set.  At a finite reach the pairs come from a grid whose
    cell covers ``reach`` (floored with :func:`search_radius_floor`, which
    bounds the cell keys however small the reach), in O(n + |E|); each
    pair's distance is the dense matrix's (:func:`pair_distances`), so
    the ``<= reach`` predicate decides every pair as the dense edge
    builders do.  An infinite reach pairs every two rows.
    """
    n = len(arr)
    if not math.isfinite(reach):
        return np.triu_indices(n, k=1)
    if n < 2:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    cell = covering_cell(arr, search_radius_floor(arr, reach))
    i, j = ShardedGridIndex(arr, cell).neighbour_pairs()
    keep = pair_distances(arr, i, j) <= reach
    # One sort of the pair keys ``i * n + j`` puts the pairs in (i, j) order.
    key = i[keep] * n + j[keep]
    key.sort()
    return np.divmod(key, n)


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
    extent = float((arr.max(axis=0) - arr.min(axis=0)).max())
    return max(radius, 1e-6 * extent)
