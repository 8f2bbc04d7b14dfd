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
bucketed); a planar per-activation run uses the grid only when
``spatial_index=True`` forces it (:func:`grid_auto_threshold`).
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..geometry.pairs import ShardedGridIndex, covering_cell  # noqa: F401  (re-exported)
from ..geometry.tolerances import EPS

Cell = Tuple[int, ...]

# Below these swarm sizes the dense vectorized O(n) scan wins (a single
# numpy interpolation pass is cheap; a grid only pays off once n is well
# into the hundreds).  Planar round runs read their carried visible
# pairs from GRID_MIN_ROBOTS on.  3D runs pay for 27 bucket lookups per
# Look instead of 9, which pushes the measured crossover to around
# n ~ 2000, hence the separate 3D threshold.  Planar per-activation runs
# (k-async, k-NestA, async) never enable their incremental grid on their
# own: with a sample per activation, as execute_run and the CLI take,
# the dense Look's interpolation also serves the sample, and the grid
# won 4 of 5 alternating pairs on both the random and the grid workload
# at none of n = 512, 10^3, 4·10^3 and 10^4.  All are measured on one
# machine (benchmarks/bench_grid_threshold.py,
# docs/engine-performance.md) — override per run with
# ``SimulationConfig.spatial_index`` / ``Simulation3Config.spatial_index``.
GRID_MIN_ROBOTS = 512
GRID_MIN_ROBOTS_3D = 2048


def grid_auto_threshold(dim: int, rounds: bool = True) -> Optional[int]:
    """The swarm size at which a ``dim``-dimensional run auto-enables its grid.

    ``rounds`` picks the round path's structure (the carried visible
    pairs) over the per-activation incremental grid; the two share one
    threshold in 3-space.  None for a planar per-activation run: its
    grid is only ever forced on.
    """
    if dim > 2:
        return GRID_MIN_ROBOTS_3D
    return GRID_MIN_ROBOTS if rounds else None


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
