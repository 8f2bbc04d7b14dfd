"""When a round's Looks read the run's carried visible pairs.

A whole round's Looks all see the same committed positions, so the
round path reads them from one :class:`~repro.geometry.pairs.VisiblePairs`
the kernel carries across the run (refreshed each round through a
:class:`~repro.geometry.pairs.ShardedGridIndex` over the rows that
changed).  Below :data:`GRID_MIN_ROBOTS` robots, or for
unlimited-visibility algorithms (``V = inf`` cannot be binned), the
round gathers every row and filters by distance instead.

A per-activation Look (k-async, k-NestA, async, and a round the kernel
heaps) always reads the dense interpolation of every robot at its
instant, which the same instant's metrics sample reuses: one Look
against rows that move every activation shares no batch of queries
that a neighbour structure could pay for.
"""

from __future__ import annotations

from ..geometry.pairs import ShardedGridIndex, covering_cell  # noqa: F401  (re-exported)

#: The swarm size from which a round reads the carried pairs, in the plane
#: and in 3-space alike: below it one vectorized dense gather over n rows
#: costs no more.  Set from the paired round rows of
#: ``benchmarks/bench_grid_threshold.py`` (``BENCH_grid_threshold.json``,
#: ``docs/engine-performance.md``).  The kernel reads it at call time.
GRID_MIN_ROBOTS = 256
