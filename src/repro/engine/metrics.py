"""Metric samples collected while a simulation runs, in any dimension.

The quantities tracked are exactly the ones the paper's analysis reasons
about.  Every sample measures the two read activation by activation: the
diameter of the robot positions (Point Convergence, Section 2) and the
preservation of the initial visibility edges (cohesion, Section 2.4 /
Section 4).  The full samples a run takes at t=0 and at its end add the
minimum pairwise separation (collision monitoring) and, in the plane,
the perimeter and bounding-circle radius of the convex hull
(congregation, Section 5).

One :class:`MetricsCollector` serves every engine: the planar simulator
and the replicate lanes, the continuous-time 3D kernel and the 3D round
adapter (Section 6.3.2 defines both measures in 3-space exactly as in
the plane).  Positions are ``(n, d)`` rows; only the diameter scan
(:func:`~repro.geometry.pairs.rows_diameter`) and a full sample's hull
perimeter and radius depend on ``d``.  The pair readers it samples with
(edges, diameter, minimum separation) live in :mod:`repro.geometry.pairs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

import numpy as np

from ..geometry.hull import ConvexHull
from ..geometry.pairs import (
    METRICS_DENSE_MAX,
    grid_edges,
    min_pairwise_distance_grid,
    pair_distances,
    rows_diameter,
)
from ..geometry.point import PointLike, points_to_array
from ..geometry.sec import smallest_enclosing_circle
from ..geometry.tolerances import EPS
from ..model.visibility import Edge
from .logs import SampleLog


def min_separation(
    arr: np.ndarray, edge_lengths: np.ndarray, visibility_range: float
) -> float:
    """Minimum pairwise distance of ``(n, d)`` rows, for a full sample.

    ``edge_lengths`` are the initial visibility edges' lengths at ``arr``
    (the cohesion check's gather).  The shortest is one pair's distance,
    an exact upper bound on the minimum, so a grid search started there
    (:func:`min_pairwise_distance_grid`) covers the closest pair at once
    and its cells shrink with the swarm; with no initial edge the search
    starts at the visibility range, and a zero-length edge is a
    coincident pair.  The float is the dense matrix's.
    """
    if len(arr) < 2:
        return 0.0
    start = visibility_range
    if len(edge_lengths):
        start = float(edge_lengths.min())
        if start == 0.0:
            return 0.0
    return min_pairwise_distance_grid(arr, start)


@dataclass(frozen=True)
class MetricsSample:
    """One observation of the global configuration at a given time.

    Every sample holds the hull diameter and the broken-edge count, the
    two fields read sample by sample (the convergence stop, the
    monotonicity, nesting and epoch checks, the cohesion flag).  For a
    full-dimensional point set the hull diameter is the set diameter, so
    the name holds in any dimension.  Only a full sample, taken at t=0
    and at the end of a run, also measures the minimum separation and,
    for planar rows, the hull perimeter and the bounding-circle radius;
    the fields it does not measure are None.
    """

    time: float
    hull_diameter: float
    broken_edge_count: int
    activations_processed: int
    hull_perimeter: Optional[float] = None
    hull_radius: Optional[float] = None
    min_pairwise_distance: Optional[float] = None

    @property
    def initial_edges_preserved(self) -> bool:
        """Whether every initial visibility edge is within range at this sample."""
        return not self.broken_edge_count

    def converged(self, epsilon: float) -> bool:
        """Point-Convergence check at this sample."""
        return self.hull_diameter <= epsilon


def _rows(positions) -> np.ndarray:
    """``positions`` as ``(n, d)`` float rows: an array as it is, points stacked."""
    if isinstance(positions, np.ndarray):
        return np.asarray(positions, dtype=float)
    return points_to_array(positions)


@dataclass
class MetricsCollector:
    """Builds :class:`MetricsSample` objects against a fixed initial edge set.

    Positions are ``(n, d)`` rows of any dimension (planar positions may
    also come as points).
    """

    visibility_range: float
    initial_edges: Set[Edge] = field(default_factory=set)
    samples: SampleLog = field(default_factory=SampleLog)
    cohesion_ever_violated: bool = False

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
        state itself.  A copy of the rows is kept too, so a full sample
        can tell when it sees them (:meth:`full_sample`).
        """
        arr = _rows(positions)
        i, j = grid_edges(arr, self.visibility_range + EPS)
        self._bound_rows = arr.copy()
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
        self,
        time: float,
        positions: Sequence[PointLike],
        activations_processed: int,
        *,
        full: bool = False,
    ) -> MetricsSample:
        """Sample the configuration at ``time`` and append it to the history.

        A step sample measures the diameter (:func:`rows_diameter`; for
        planar rows the octagon prune, then the dense maximum over its
        survivors) and counts the broken initial edges (a gather of the
        cached edge endpoints).  The kernel asks for a full sample
        (:meth:`full_sample`) at t=0 and at the end of a run.  No
        ``(n, n)`` matrix is built, and every reported float is
        bit-identical to the dense matrix's.
        """
        arr = _rows(positions)
        if full:
            sample = self.full_sample(time, arr, activations_processed, smallest_enclosing_circle)
        else:
            sample = MetricsSample(
                time, rows_diameter(arr), self._broken_edge_count(arr), activations_processed
            )
        return self.record(sample)

    def full_sample(
        self, time: float, arr: np.ndarray, activations_processed: int, enclosing_circle
    ) -> MetricsSample:
        """The full sample of the ``(n, d)`` rows ``arr`` (not yet recorded).

        The diameter is the step sample's (:func:`rows_diameter`).  At
        the rows :meth:`bind_initial` saw, every pair within the range is
        an initial edge, so with any edge the closest pair is the shortest
        one, the float a search would return (both are the square root of
        the same pair's squared distance); elsewhere the minimum separation
        is searched from the shortest initial edge
        (:func:`min_separation`).  Planar rows also measure the hull
        perimeter and the bounding circle, which runs on the hull
        vertices only (the SEC of a point set equals the SEC of its
        convex hull); 3D samples leave both None.  ``enclosing_circle``
        is :func:`smallest_enclosing_circle` as the calling module looks
        it up, so each engine's calls stay at its own lookup site (where
        a profiler patches them).
        """
        n, dim = arr.shape
        perimeter = radius = None
        if dim == 2:
            hull = ConvexHull.of_array(arr)
            perimeter = hull.perimeter()
            radius = enclosing_circle(hull.vertices).radius if n else 0.0
        lengths = self.initial_edge_lengths(arr) if n >= 2 else np.empty(0)
        broken_count = int(np.count_nonzero(lengths > self.visibility_range + EPS))
        bound = getattr(self, "_bound_rows", None)
        if len(lengths) and bound is not None and np.array_equal(arr, bound):
            separation = float(lengths.min())
        else:
            separation = min_separation(arr, lengths, self.visibility_range)
        return MetricsSample(
            time=time,
            hull_diameter=rows_diameter(arr),
            broken_edge_count=broken_count,
            activations_processed=activations_processed,
            hull_perimeter=perimeter,
            hull_radius=radius,
            min_pairwise_distance=separation,
        )

    def record(self, sample: MetricsSample) -> MetricsSample:
        """Append ``sample`` and let the cohesion flag follow it.

        :meth:`observe` ends here; the replicate engine calls it directly
        for a sample whose geometry it computed or shared itself, so the
        collector's state is exactly what observing would have left.
        """
        self.samples.append(sample)
        if sample.broken_edge_count:
            self.cohesion_ever_violated = True
        return sample

    def initial_edge_lengths(self, arr: np.ndarray) -> np.ndarray:
        """Lengths of the initial visibility edges at the ``(n, d)`` rows ``arr``.

        O(|E|): reads the endpoint index arrays :meth:`bind_initial` caches
        at every swarm size, with the dense matrix's per-pair arithmetic
        (:func:`~repro.geometry.pairs.pair_distances`).  Empty when there
        are no initial edges.
        """
        i = getattr(self, "_edge_i", None)
        if i is None:
            if not self.initial_edges:
                return np.empty(0)
            # initial_edges was assigned directly (without bind_initial).
            self._build_edge_index()
            i = self._edge_i
        return pair_distances(arr, i, self._edge_j)

    def max_edge_stretch(self, arr: np.ndarray) -> float:
        """Longest initial visibility edge at the ``(n, d)`` rows ``arr`` (0 with no edges)."""
        lengths = self.initial_edge_lengths(arr)
        return float(lengths.max()) if len(lengths) else 0.0

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
