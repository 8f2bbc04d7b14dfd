"""A uniform spatial hash grid for exact neighbour-candidate queries.

Each Look phase must find every robot within the visibility range ``V``
of the observer.  The dense path interpolates and distance-filters all
``n`` robots; this index buckets robots into cube cells of side at
least ``V`` so a query only has to examine the 3^d block of cells around
the observer — an *exact* candidate set, never a lossy one:

* an **idle** robot occupies the single cell containing its committed
  position;
* a **moving** robot occupies every cell overlapped by the axis-aligned
  bounding box of its realised trajectory segment, so wherever along the
  segment it is observed, the cell containing that point is registered.

Because the cell side is at least ``V`` plus the visibility tolerance,
any robot within perception reach of an observer lies in a cell at most
one step away from the observer's cell in each axis; querying the 3^d
block (3x3 in the plane, 3x3x3 in 3-space) therefore returns a superset
of the true visible set, and the caller's exact distance filter does the
rest.  The grid is dimension-generic: the planar engine builds it with
``dim=2`` and the :mod:`repro.spatial3d` round engine with ``dim=3`` —
same bucketing, same exactness argument, same incremental maintenance.
Both engines fall back to the dense path for small swarms (the
constant-factor bookkeeping beats the O(n) scan only once n is large
enough) and for unlimited-visibility algorithms (``V = inf`` cannot be
bucketed).
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..geometry.tolerances import EPS

Cell = Tuple[int, ...]

# Below this swarm size the dense vectorized O(n) scan wins (a single
# numpy interpolation pass is cheap; the grid's per-Look bucket unions
# only pay off once n is well into the hundreds).  The planar engines
# auto-enable the grid at GRID_MIN_ROBOTS; 3D runs pay for 27 bucket
# lookups per Look instead of 9, which pushes the measured crossover to
# around n ~ 2000 (see benchmarks/bench_grid_threshold.py and
# docs/engine-performance.md), hence the separate 3D threshold.  Both are
# measured on one machine — override per run with
# ``SimulationConfig.spatial_index`` / ``Simulation3Config.spatial_index``.
GRID_MIN_ROBOTS = 512
GRID_MIN_ROBOTS_3D = 2048


def grid_auto_threshold(dim: int) -> int:
    """The swarm size at which a ``dim``-dimensional run auto-enables the grid."""
    return GRID_MIN_ROBOTS if dim <= 2 else GRID_MIN_ROBOTS_3D


class UniformGridIndex:
    """Uniform hash grid over d-space with incremental per-robot updates.

    Coordinates are passed unpacked — ``settle(i, x, y)`` in the plane,
    ``settle(i, x, y, z)`` in 3-space — so the planar engine's existing
    call sites read the same as before the grid went dimension-generic.
    """

    __slots__ = ("cell_size", "dim", "_cells", "_keys", "_offsets")

    def __init__(self, visibility_range: float, dim: int = 2) -> None:
        if not math.isfinite(visibility_range) or visibility_range <= 0.0:
            raise ValueError("grid needs a positive, finite visibility range")
        if dim < 1:
            raise ValueError("grid dimension must be at least 1")
        # The visibility filter accepts distances up to V + EPS, so the cell
        # side must be at least that for the 3^d-block guarantee to hold on
        # the tolerance boundary as well.
        self.cell_size = visibility_range + 2.0 * EPS
        self.dim = dim
        self._cells: Dict[Cell, Set[int]] = {}
        self._keys: Dict[int, List[Cell]] = {}
        self._offsets: Tuple[Cell, ...] = tuple(
            itertools.product((-1, 0, 1), repeat=dim)
        )

    # -- cell arithmetic -----------------------------------------------------------
    def cell_of(self, *coords: float) -> Cell:
        """The cell containing the point with the given coordinates."""
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coords)}")
        size = self.cell_size
        return tuple(int(math.floor(c / size)) for c in coords)

    def _bbox_cells(self, lo: Cell, hi: Cell) -> List[Cell]:
        return list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))

    # -- incremental maintenance ---------------------------------------------------
    def _assign(self, robot_id: int, cells: List[Cell]) -> None:
        old = self._keys.get(robot_id)
        if old is not None:
            for key in old:
                bucket = self._cells.get(key)
                if bucket is not None:
                    bucket.discard(robot_id)
                    if not bucket:
                        del self._cells[key]
        for key in cells:
            self._cells.setdefault(key, set()).add(robot_id)
        self._keys[robot_id] = cells

    def settle(self, robot_id: int, *coords: float) -> None:
        """Register a robot at rest at the given point (one cell)."""
        self._assign(robot_id, [self.cell_of(*coords)])

    def begin_move(self, robot_id: int, *coords: float) -> None:
        """Register a robot moving along the segment ``origin -> destination``.

        ``coords`` is the origin followed by the destination (``x0, y0,
        x1, y1`` in the plane; six coordinates in 3-space).  The robot is
        placed in every cell of the segment's bounding box so a Look at
        any instant of the move finds it.
        """
        d = self.dim
        if len(coords) != 2 * d:
            raise ValueError(f"expected {2 * d} coordinates, got {len(coords)}")
        origin, destination = coords[:d], coords[d:]
        lo = self.cell_of(*(min(a, b) for a, b in zip(origin, destination)))
        hi = self.cell_of(*(max(a, b) for a, b in zip(origin, destination)))
        self._assign(robot_id, self._bbox_cells(lo, hi))

    def remove(self, robot_id: int) -> None:
        """Drop a robot from the index entirely."""
        self._assign(robot_id, [])
        del self._keys[robot_id]

    # -- queries ---------------------------------------------------------------------
    def candidates(self, *coords: float, exclude: Optional[int] = None) -> np.ndarray:
        """Ids of all robots in the 3^d cell block around the point, ascending.

        This is a superset of every robot within ``cell_size`` of the
        point; ``exclude`` (typically the observer itself) is omitted.
        """
        center = self.cell_of(*coords)
        found: Set[int] = set()
        cells = self._cells
        # The 2D and 3D blocks are unrolled: this query runs once per Look
        # on grid-accelerated runs, and the generic tuple arithmetic costs
        # measurably more than the literal loops.
        if self.dim == 2:
            cx, cy = center
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    bucket = cells.get((cx + dx, cy + dy))
                    if bucket:
                        found.update(bucket)
        elif self.dim == 3:
            cx, cy, cz = center
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for dz in (-1, 0, 1):
                        bucket = cells.get((cx + dx, cy + dy, cz + dz))
                        if bucket:
                            found.update(bucket)
        else:
            for offset in self._offsets:
                bucket = cells.get(tuple(c + o for c, o in zip(center, offset)))
                if bucket:
                    found.update(bucket)
        if exclude is not None:
            found.discard(exclude)
        if not found:
            return np.empty(0, dtype=np.intp)
        out = np.fromiter(found, dtype=np.intp, count=len(found))
        out.sort()
        return out

    def cells_of(self, robot_id: int) -> List[Cell]:
        """The cells a robot currently occupies (for tests and debugging)."""
        return list(self._keys.get(robot_id, []))

    def __len__(self) -> int:
        return len(self._keys)


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

    :class:`UniformGridIndex` is incremental: robots settle and begin
    moves one at a time, and every Look pays a 3^d dict-bucket union.
    The round fast path has no use for that — all robots of a round Look
    at the *same* committed positions — so this index bins the ``(n, d)``
    committed array into cells ``floor(p / cell_size)`` in one vectorized
    pass and serves two kinds of query from it:

    * :meth:`neighbour_pairs` pairs robots of the same or adjacent
      *cells* (the 3^d cell neighbourhood), which is what the large-n
      metrics consume;
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
        otherwise (see :func:`repro.engine.metrics.min_pairwise_distance_grid`).
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
