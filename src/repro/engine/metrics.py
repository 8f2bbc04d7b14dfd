"""Metric samples collected while a simulation runs.

The quantities tracked are exactly the ones the paper's analysis reasons
about: the diameter, perimeter and bounding-circle radius of the convex
hull of the robot positions (congregation, Section 5), the preservation of
the initial visibility edges (cohesion, Section 2.4 / Section 4) and the
minimum pairwise separation (collision monitoring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

import numpy as np

from ..geometry.hull import ConvexHull
from ..geometry.point import PointLike, points_to_array
from ..geometry.sec import smallest_enclosing_circle
from ..geometry.tolerances import EPS
from ..model.visibility import Edge
from .logs import SampleLog
from .spatial_index import ShardedGridIndex, covering_cell

#: Up to this many robots the collector's minimum separation comes from
#: an x-sorted sweep over at most ``SWEEP_OFFSETS`` neighbours in x order,
#: above it from grid-local pair enumeration started at the separation
#: hint; the extreme distances it reports are bit-identical either way.
METRICS_DENSE_MAX = 2048

#: Neighbours in x order the min-separation sweep compares each row with
#: before it gives up and searches grid-local pairs instead.
SWEEP_OFFSETS = 8

#: A collector's next sparse min-separation search starts at this multiple
#: of its last observed minimum (see :class:`SeparationHint`): a little
#: room for the minimum to grow between observes before a doubling.
SEPARATION_HINT_MARGIN = 1.25


def min_pairwise_distance_grid(arr: np.ndarray, radius: float) -> float:
    """Minimum pairwise distance via grid-local pairs, exact at any scale.

    The search grid's :meth:`ShardedGridIndex.neighbour_pairs` covers
    every pair at distance at most ``radius`` (its cell is
    :func:`covering_cell` of the radius), so a found minimum no larger
    than the radius is the true global minimum (any pair left out is
    farther); otherwise the radius doubles and the search reruns.  Any
    positive start is exact: a start near the true minimum (see
    :class:`SeparationHint`) keeps the pair count linear, a start far
    above it costs pairs, one far below it costs doublings.  The start is
    floored at 1e-6 of the largest per-axis extent, which also bounds
    the grid's integer cell keys.  The per-pair arithmetic (``dx*dx +
    dy*dy``, one square root after the reduction) matches the dense
    matrix path, so the returned float is bit-identical to
    ``sqrt(squared_distance_matrix(arr).min())``.
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


def _pair_squared(columns: List[np.ndarray], i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Squared distances of the pairs ``(i, j)``.

    Components squared and summed left to right, exactly like the dense
    matrix builders in any dimension.
    """
    squared = None
    for column in columns:
        delta = column[i] - column[j]
        term = delta * delta
        squared = term if squared is None else squared + term
    return squared


def grid_edges(arr: np.ndarray, reach: float) -> "tuple[np.ndarray, np.ndarray]":
    """All pairs ``i < j`` of the ``(n, d)`` rows at distance ``<= reach``.

    Returned as two index arrays in lexicographic order, the order of a
    sorted edge set.  At a finite reach the pairs come from a grid whose
    cell covers ``reach`` (floored with :func:`search_radius_floor`, which
    bounds the cell keys however small the reach), in O(n + |E|); each
    pair's distance is the dense matrix's (:func:`_pair_squared`, one
    square root), so the ``<= reach`` predicate decides every pair as the
    dense edge builders do.  An infinite reach pairs every two rows.
    """
    n = len(arr)
    if not math.isfinite(reach):
        return np.triu_indices(n, k=1)
    if n < 2:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    cell = covering_cell(arr, search_radius_floor(arr, reach))
    i, j = ShardedGridIndex(arr, cell).neighbour_pairs()
    keep = np.sqrt(_pair_squared(_columns(arr), i, j)) <= reach
    i, j = i[keep], j[keep]
    order = np.lexsort((j, i))
    return i[order], j[order]


def min_pairwise_distance_sweep(arr: np.ndarray) -> Optional[float]:
    """Minimum pairwise distance of ``(n, 2)`` rows by an x-sorted sweep, or None.

    Compares each row with its next ``1..SWEEP_OFFSETS`` neighbours in x
    order, with the dense matrix's per-pair arithmetic.  Rows ``k`` or
    more apart in that order differ in x by at least the least ``k``-apart
    gap, and rounding is monotone, so once that gap squared reaches the
    running minimum no farther pair can beat it and the minimum is exact.
    None when the offsets run out first (many rows sharing an x, as in a
    lattice).
    """
    order = np.argsort(arr[:, 0])
    x, y = arr[order, 0], arr[order, 1]
    best = math.inf
    for k in range(1, len(x)):
        dx = x[k:] - x[:-k]
        dxx = dx * dx
        if dxx.min() >= best:
            break
        if k > SWEEP_OFFSETS:
            return None
        dy = y[k:] - y[:-k]
        best = min(best, float((dxx + dy * dy).min()))
    return math.sqrt(best)


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


class SeparationHint:
    """Where a collector's next sparse min-separation search starts.

    A search grid with visibility-sized cells degenerates as the swarm
    contracts: every cell fills and the pair count grows as the inverse
    square of the swarm's scale (at 10^4 robots, a ``MemoryError`` right
    when a run converges).  The minimum separation moves little between
    observes, so each observe — dense or sparse — records
    ``SEPARATION_HINT_MARGIN`` times its minimum, and the next sparse
    search starts there; the first starts at the visibility range.  The
    search is exact from any start (:func:`min_pairwise_distance_grid`),
    so the hint only trades pair count against the odds of a doubling.
    """

    _separation_hint: Optional[float] = None

    def separation_radius(self) -> float:
        """The radius the next sparse min-separation search starts from."""
        hint = self._separation_hint
        return self.visibility_range if hint is None else hint

    def note_separation(self, min_pairwise: float) -> None:
        """Record an observed minimum separation as the next search's start."""
        self._separation_hint = (
            SEPARATION_HINT_MARGIN * min_pairwise if min_pairwise > 0.0 else None
        )


@dataclass(frozen=True)
class MetricsSample:
    """One observation of the global configuration at a given time."""

    time: float
    hull_diameter: float
    hull_perimeter: float
    hull_radius: float
    min_pairwise_distance: float
    initial_edges_preserved: bool
    broken_edge_count: int
    activations_processed: int

    def converged(self, epsilon: float) -> bool:
        """Point-Convergence check at this sample."""
        return self.hull_diameter <= epsilon


@dataclass
class MetricsCollector(SeparationHint):
    """Builds :class:`MetricsSample` objects against a fixed initial edge set."""

    visibility_range: float
    initial_edges: Set[Edge] = field(default_factory=set)
    samples: SampleLog = field(default_factory=SampleLog)
    cohesion_ever_violated: bool = False

    #: Samples taken at distinct record boundaries of one synchronous
    #: round see identical geometry; the kernel's batched round path may
    #: therefore compute one sample and replicate it (adjusting only
    #: ``activations_processed``, see :meth:`SampleLog.repeat_last`)
    #: instead of re-observing.  A subclass whose ``observe`` carries
    #: extra per-call state should set this False to force one observe
    #: per boundary.
    supports_replicated_samples = True

    def __post_init__(self) -> None:
        if not isinstance(self.samples, SampleLog):
            self.samples = SampleLog(self.samples)

    def bind_initial(self, positions: Sequence[PointLike]) -> None:
        """Record the initial visibility edges the cohesion predicate refers to.

        The edge set is also cached as a ``(|E|, 2)`` index array so every
        subsequent observation checks cohesion with one fancy-indexed
        gather instead of rebuilding an edge list.  The edges come from
        :func:`grid_edges` (O(n + |E|) at a finite range).  Past
        ``METRICS_DENSE_MAX`` robots only the index arrays are
        materialised: ``initial_edges`` stays empty at that scale, as a
        set with tens of millions of tuples would dwarf the simulation
        state itself.
        """
        arr = points_to_array(positions)
        i, j = grid_edges(arr, self.visibility_range + EPS)
        self._edge_i = np.ascontiguousarray(i)
        self._edge_j = np.ascontiguousarray(j)
        self.initial_edges = (
            set(zip(i.tolist(), j.tolist())) if len(arr) <= METRICS_DENSE_MAX else set()
        )

    def _build_edge_index(self) -> None:
        """Cache ``initial_edges`` as contiguous per-endpoint index vectors.

        1D gathers are measurably cheaper than row gathers in the
        per-activation cohesion check.
        """
        if self.initial_edges:
            index = np.asarray(sorted(self.initial_edges), dtype=int)
            self._edge_i = np.ascontiguousarray(index[:, 0])
            self._edge_j = np.ascontiguousarray(index[:, 1])
        else:
            self._edge_i = None
            self._edge_j = None

    def observe(
        self, time: float, positions: Sequence[PointLike], activations_processed: int
    ) -> MetricsSample:
        """Sample the configuration at ``time`` and append it to the history.

        One array pass, no ``(n, n)`` matrix: the hull's candidate rows give
        the diameter (:meth:`ConvexHull.point_set_diameter`), the minimum
        separation comes from the x-sorted sweep (grid-local pairs from the
        separation hint past ``METRICS_DENSE_MAX`` robots, or when the
        sweep gives up), the cohesion check gathers only the cached
        initial-edge entries, and the bounding circle runs on the hull
        vertices only (the SEC of a point set equals the SEC of its convex
        hull).  Every reported float is bit-identical to the dense matrix's.
        """
        arr = points_to_array(positions)
        n = len(arr)
        hull = ConvexHull.of_array(arr)
        diameter = min_pairwise = 0.0
        broken_count = 0
        if n >= 2:
            diameter = hull.point_set_diameter()
            min_pairwise = min_pairwise_distance_sweep(arr) if n <= METRICS_DENSE_MAX else None
            if min_pairwise is None:
                min_pairwise = min_pairwise_distance_grid(arr, self.separation_radius())
            broken_count = self._broken_edge_count(arr)
        return self.record(
            MetricsSample(
                time=time,
                hull_diameter=diameter,
                hull_perimeter=hull.perimeter(),
                hull_radius=smallest_enclosing_circle(hull.vertices).radius if n else 0.0,
                min_pairwise_distance=min_pairwise,
                initial_edges_preserved=not broken_count,
                broken_edge_count=broken_count,
                activations_processed=activations_processed,
            )
        )

    def record(self, sample: MetricsSample) -> MetricsSample:
        """Append ``sample`` and let the cohesion flag and separation hint follow it.

        :meth:`observe` ends here; the replicate engine calls it directly
        for a sample whose geometry it computed or shared itself, so the
        collector's state is exactly what observing would have left.
        """
        self.samples.append(sample)
        if sample.broken_edge_count:
            self.cohesion_ever_violated = True
        self.note_separation(sample.min_pairwise_distance)
        return sample

    def initial_edge_lengths(self, arr: np.ndarray) -> np.ndarray:
        """Lengths of the initial visibility edges at the ``(n, 2)`` rows ``arr``.

        O(|E|): reads the endpoint index arrays :meth:`bind_initial` caches
        at every swarm size, with the dense matrix's per-pair arithmetic.
        Empty when there are no initial edges.
        """
        i = getattr(self, "_edge_i", None)
        if i is None:
            if not self.initial_edges:
                return np.empty(0)
            # initial_edges was assigned directly (without bind_initial).
            self._build_edge_index()
            i = self._edge_i
        j = self._edge_j
        x = np.ascontiguousarray(arr[:, 0])
        y = np.ascontiguousarray(arr[:, 1])
        dx = x[i] - x[j]
        dy = y[i] - y[j]
        return np.sqrt(dx * dx + dy * dy)

    def _broken_edge_count(self, arr: np.ndarray) -> int:
        """How many initial visibility edges currently exceed the range."""
        lengths = self.initial_edge_lengths(arr)
        return int(np.count_nonzero(lengths > self.visibility_range + EPS))

    # -- history queries ------------------------------------------------------
    # Replicas repeat their run's head in every geometric field and in
    # ``time``, so the queries below scan one sample per run.
    def latest(self) -> Optional[MetricsSample]:
        """Most recent sample, if any."""
        return self.samples[-1] if len(self.samples) else None

    def diameters(self) -> List[float]:
        """Hull diameters over time."""
        return self.samples.column("hull_diameter")

    def perimeters(self) -> List[float]:
        """Hull perimeters over time."""
        return self.samples.column("hull_perimeter")

    def first_time_below(self, epsilon: float) -> Optional[float]:
        """Earliest sampled time the hull diameter was at most ``epsilon``."""
        for sample in self.samples.heads():
            if sample.hull_diameter <= epsilon:
                return sample.time
        return None

    def monotone_hull_diameter(self, *, tolerance: float = 1e-9) -> bool:
        """True when the sampled hull diameter never increases beyond ``tolerance``."""
        diameters = [s.hull_diameter for s in self.samples.heads()]
        return all(
            later <= earlier + tolerance for earlier, later in zip(diameters, diameters[1:])
        )

    def monotone_hull_perimeter(self, *, tolerance: float = 1e-9) -> bool:
        """True when the sampled hull perimeter never increases beyond ``tolerance``."""
        perimeters = [s.hull_perimeter for s in self.samples.heads()]
        return all(
            later <= earlier + tolerance for earlier, later in zip(perimeters, perimeters[1:])
        )
