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

What t=0 measured is reused rather than measured again: the initial
edges come from the enumeration that also sets up a round run's carried
pairs, a full sample's minimum separation pairs only the rows that
moved since t=0 (the shortest unmoved edge bounds the rest), and a
round run's first step sample, at the t=0 rows, repeats the t=0 sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

import numpy as np

from ..geometry.hull import ConvexHull
from ..geometry.pairs import (
    METRICS_DENSE_MAX,
    VisiblePairs,
    both_in,
    changed_rows,
    grid_edges,
    min_distance_from,
    min_pairwise_distance_grid,
    pair_distances,
    rows_diameter,
)
from ..geometry.point import PointLike, points_to_array
from ..geometry.sec import smallest_enclosing_circle
from ..geometry.tolerances import EPS
from ..model.visibility import Edge
from .logs import SampleLog


#: A full sample whose rows moved since :meth:`MetricsCollector.bind_initial`
#: in at most this share of rows pairs only the moved rows for its minimum
#: separation; past it, or with no unmoved initial edge left, it searches
#: every pair (:meth:`MetricsCollector._separation`).  Measured on the
#: ``grid`` start with a random share of rows jittered (whole full samples,
#: the two ways alternating call by call, as in the ``enumeration`` rows
#: of ``BENCH_layers.json``): pairing the moved rows and the search break
#: even between 5% and 10% at n = 10^4 and 10^5 and between 3% and 5% at
#: n = 10^3; at 5% the moved rows win by 6-16% at the larger sizes and
#: lose 4% (0.04 ms) at n = 10^3.  A grid run's final rows have moved in
#: under 1% of rows.
MOVED_SEPARATION_SHARE = 0.05


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

    def bind_initial(
        self, positions: Sequence[PointLike], pairs: Optional[VisiblePairs] = None
    ) -> None:
        """Record the initial visibility edges the cohesion predicate refers to.

        The edge set is also cached as two endpoint index arrays
        (``int32`` below 2^31 robots) so every subsequent observation
        checks cohesion with one fancy-indexed gather instead of
        rebuilding an edge list.  The edges come from :func:`grid_edges`
        (O(n + |E|) at a finite range); given a run's carried ``pairs``,
        the same enumeration also sets them up at these rows
        (:meth:`~repro.geometry.pairs.VisiblePairs.seed`), so the run's
        first round finds them current.  Past ``METRICS_DENSE_MAX``
        robots only the index arrays are materialised: ``initial_edges``
        stays empty at that scale, as a set with tens of millions of
        tuples would dwarf the simulation state itself.  A copy of the
        rows is kept too, so a full sample can tell which rows moved
        since (:meth:`full_sample`).
        """
        arr = np.ascontiguousarray(_rows(positions), dtype=np.float64)
        reach = self.visibility_range + EPS
        i, j = grid_edges(arr, reach) if pairs is None else pairs.seed(arr, reach)
        self._bound_rows = arr.copy()
        self._bound_geometry = None
        self._edge_i = i
        self._edge_j = j
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
        cached edge endpoints), unless it repeats the t=0 sample
        (:meth:`_step_geometry`).  The kernel asks for a full sample
        (:meth:`full_sample`) at t=0 and at the end of a run.  No
        ``(n, n)`` matrix is built, and every reported float is
        bit-identical to the dense matrix's.
        """
        arr = _rows(positions)
        if full:
            sample = self.full_sample(time, arr, activations_processed, smallest_enclosing_circle)
        else:
            sample = MetricsSample(time, *self._step_geometry(arr), activations_processed)
        return self.record(sample)

    def _step_geometry(self, arr: np.ndarray) -> tuple:
        """A step sample's ``(hull_diameter, broken_edge_count)``.

        The first step sample after a full sample at the bound rows (a
        round run's first round, at the t=0 rows) compares its rows once:
        bit for bit the bound rows, it repeats that sample's two fields.
        """
        repeat = getattr(self, "_bound_geometry", None)
        if repeat is not None:
            self._bound_geometry = None
            moved = self._moved(arr)
            if moved is not None and not len(moved):
                return repeat
        return rows_diameter(arr), self._broken_edge_count(arr)

    def _moved(self, arr: np.ndarray) -> Optional[np.ndarray]:
        """The rows of ``arr`` whose bits differ from the bound rows.

        None when no rows of ``arr``'s shape were bound.
        """
        bound = getattr(self, "_bound_rows", None)
        if bound is None or bound.shape != arr.shape:
            return None
        return changed_rows(bound, np.ascontiguousarray(arr, dtype=np.float64))

    def full_sample(
        self, time: float, arr: np.ndarray, activations_processed: int, enclosing_circle
    ) -> MetricsSample:
        """The full sample of the ``(n, d)`` rows ``arr`` (not yet recorded).

        The diameter is the step sample's (:func:`rows_diameter`).  The
        minimum separation starts from what :meth:`bind_initial` saw
        (:meth:`_separation`).  Planar rows also measure the hull
        perimeter and the bounding circle, which runs on the hull
        vertices only (the SEC of a point set equals the SEC of its
        convex hull); 3D samples leave both None.  ``enclosing_circle``
        is :func:`smallest_enclosing_circle` as the calling module looks
        it up, so each engine's calls stay at its own lookup site (where
        a profiler patches them).  A sample at the bound rows is kept for
        the next step sample (:meth:`_step_geometry`).
        """
        n, dim = arr.shape
        perimeter = radius = None
        if dim == 2:
            hull = ConvexHull.of_array(arr)
            perimeter = hull.perimeter()
            radius = enclosing_circle(hull.vertices).radius if n else 0.0
        lengths = self.initial_edge_lengths(arr) if n >= 2 else np.empty(0)
        broken_count = int(np.count_nonzero(lengths > self.visibility_range + EPS))
        diameter = rows_diameter(arr)
        moved = self._moved(arr)
        if moved is not None and not len(moved):
            self._bound_geometry = (diameter, broken_count)
        return MetricsSample(
            time=time,
            hull_diameter=diameter,
            broken_edge_count=broken_count,
            activations_processed=activations_processed,
            hull_perimeter=perimeter,
            hull_radius=radius,
            min_pairwise_distance=self._separation(arr, lengths, moved),
        )

    def _separation(
        self, arr: np.ndarray, lengths: np.ndarray, moved: Optional[np.ndarray]
    ) -> float:
        """The minimum pairwise distance of ``arr``, whose initial edges measure ``lengths``.

        Two rows that kept their bound bits and lie within the range were
        within it at :meth:`bind_initial`, so they form an initial edge:
        the shortest unmoved edge is the closest pair of unmoved rows
        (every other unmoved pair lies beyond the range).  Only the pairs
        that touch a moved row are then measured, on a grid covering that
        edge (:func:`~repro.geometry.pairs.min_distance_from`); with no
        row moved the shortest edge is the answer.

        Rows not bound here, no unmoved edge left, or more than
        :data:`MOVED_SEPARATION_SHARE` of the rows moved: a grid search
        over every pair (:func:`min_pairwise_distance_grid`) started at
        the shortest initial edge, one pair's distance and so an exact
        upper bound on the minimum, which covers the closest pair at once
        and shrinks with the swarm (with no initial edge, at the
        visibility range; a zero-length edge is a coincident pair).
        Every path returns the dense matrix's float.
        """
        n = len(arr)
        if n < 2:
            return 0.0
        start = self.visibility_range
        if len(lengths):
            if moved is not None and len(moved) <= MOVED_SEPARATION_SHARE * n:
                unmoved = lengths
                if len(moved):
                    still = np.ones(n, dtype=bool)
                    still[moved] = False
                    unmoved = lengths[both_in(still, self._edge_i, self._edge_j)]
                if len(unmoved):
                    shortest = float(unmoved.min())
                    if shortest == 0.0 or not len(moved):
                        return shortest
                    return min(shortest, min_distance_from(arr, moved, shortest))
            start = float(lengths.min())
            if start == 0.0:
                return 0.0
        return min_pairwise_distance_grid(arr, start)

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
