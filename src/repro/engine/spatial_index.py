"""When a round's Looks read the run's carried visible pairs.

A whole round's Looks all see the same committed positions, so the
round path reads them from one :class:`~repro.geometry.pairs.VisiblePairs`
the kernel carries across the run (refreshed each round through a
:class:`~repro.geometry.pairs.ShardedGridIndex` over the rows that
changed).  Below a threshold swarm size, or for unlimited-visibility
algorithms (``V = inf`` cannot be binned), the round gathers every row
and filters by distance instead.

A per-activation Look (k-async, k-NestA, async, and a round the kernel
heaps) always reads the dense interpolation of every robot at its
instant, which the same instant's metrics sample reuses: one Look
against rows that move every activation shares no batch of queries
that a neighbour structure could pay for.
"""

from __future__ import annotations

from ..geometry.pairs import ShardedGridIndex, covering_cell  # noqa: F401  (re-exported)

# Below these swarm sizes a round's dense gather wins (one vectorized
# pass over n rows is cheap; the pairs only pay off once n is well into
# the hundreds).  3D pairs are enumerated over 27 cells instead of 9,
# hence the separate 3D threshold.  Both are measured on one machine
# (benchmarks/bench_grid_threshold.py, docs/engine-performance.md) —
# override per run with ``SimulationConfig.spatial_index`` /
# ``Simulation3Config.spatial_index``.
GRID_MIN_ROBOTS = 512
GRID_MIN_ROBOTS_3D = 2048


def grid_auto_threshold(dim: int) -> int:
    """The swarm size from which a ``dim``-dimensional round carries its visible pairs."""
    return GRID_MIN_ROBOTS_3D if dim > 2 else GRID_MIN_ROBOTS
