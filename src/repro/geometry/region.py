"""The paper's reachable region ``R^r_{Y0}(X0, X1)`` (core + bulge).

Section 3.2.1 of the paper introduces, for a robot ``Y`` located at
``Y0`` watching another robot ``X`` moving from ``X0`` to ``X1``, the
region ``R^r_{Y0}(X0, X1)`` that over-approximates every point ``Y`` can
reach by making up to ``k`` moves, each confined to the current
``1/k``-scaled safe region with respect to the *current* position of
``X`` (Lemmas 1 and 2).  The region is the union of

* the **core**: all disks of radius ``r`` whose centres lie at distance
  ``r`` from ``Y0`` in the direction of some point of the segment
  ``X0 X1``; and
* the **bulge**: the intersection of four disks determined by the two
  extreme core circles (see Figure 5 of the paper).

The membership tests here are what the Lemma-1/Lemma-2 Monte-Carlo
verification benches (`benchmarks/bench_lemma_regions.py`) exercise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from .disk import Disk
from .point import Point, PointLike
from .segment import Segment
from .tolerances import EPS


def offset_disk(origin: PointLike, toward: PointLike, radius: float) -> Disk:
    """Disk of radius ``radius`` centred at distance ``radius`` from ``origin`` toward ``toward``.

    This is the shape of every safe region in the paper's algorithm:
    ``S^{r}_{Y0}(X0) = offset_disk(Y0, X0, r)``.  When ``origin`` and
    ``toward`` coincide the disk degenerates to the single point
    ``origin`` (radius 0), matching the convention that a robot with a
    coincident neighbour does not move because of it.
    """
    origin, toward = Point.of(origin), Point.of(toward)
    if origin.distance_to(toward) <= EPS:
        return Disk(origin, 0.0)
    center = origin.toward(toward, radius)
    return Disk(center, radius)


@dataclass(frozen=True)
class ReachableRegion:
    """``R^r_{Y0}(X0, X1)``: core plus bulge, with membership tests."""

    observer: Point
    x_start: Point
    x_end: Point
    radius: float

    @staticmethod
    def of(
        observer: PointLike, x_start: PointLike, x_end: PointLike, radius: float
    ) -> "ReachableRegion":
        """Build the region for observer ``Y0`` and neighbour trajectory ``X0 -> X1``."""
        return ReachableRegion(
            Point.of(observer), Point.of(x_start), Point.of(x_end), float(radius)
        )

    # -- core ---------------------------------------------------------------
    def core_center(self, t: float) -> Point:
        """Centre of the core disk parameterised by ``t`` along ``X0 X1``."""
        x_star = self.x_start.lerp(self.x_end, t)
        if self.observer.distance_to(x_star) <= EPS:
            return self.observer
        return self.observer.toward(x_star, self.radius)

    def core_disk(self, t: float) -> Disk:
        """Core disk parameterised by ``t`` along ``X0 X1``."""
        return Disk(self.core_center(t), self.radius)

    def distance_to_core_center(self, point: PointLike, *, samples: int = 129) -> float:
        """Minimum distance from ``point`` to any core-disk centre.

        Evaluated by dense sampling along ``X0 X1`` followed by a local
        golden-section refinement around the best sample; accurate to well
        below the tolerances used by the verification benches.
        """
        point = Point.of(point)
        if samples < 2:
            samples = 2
        best_t, best_d = 0.0, math.inf
        for i in range(samples):
            t = i / (samples - 1)
            d = point.distance_to(self.core_center(t))
            if d < best_d:
                best_t, best_d = t, d
        # Local refinement in the bracket around the best sample.
        step = 1.0 / (samples - 1)
        lo, hi = max(0.0, best_t - step), min(1.0, best_t + step)
        for _ in range(60):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            d1 = point.distance_to(self.core_center(m1))
            d2 = point.distance_to(self.core_center(m2))
            if d1 < d2:
                hi = m2
            else:
                lo = m1
        t = (lo + hi) / 2.0
        return min(best_d, point.distance_to(self.core_center(t)))

    def in_core(self, point: PointLike, *, eps: float = EPS, samples: int = 129) -> bool:
        """True when ``point`` belongs to the core."""
        return self.distance_to_core_center(point, samples=samples) <= self.radius + eps

    # -- bulge ---------------------------------------------------------------
    def _extreme_points(self) -> Optional[tuple]:
        """The extreme boundary points ``Y0+`` and ``Y0-`` of Figure 5.

        ``Y0+`` lies on the core circle toward ``X0`` and is the point of
        that circle farthest from ``X1``; ``Y0-`` lies on the core circle
        toward ``X1`` and is farthest from ``X0``.  Returns ``None`` when
        the observer coincides with one of the endpoints (degenerate).
        """
        if (
            self.observer.distance_to(self.x_start) <= EPS
            or self.observer.distance_to(self.x_end) <= EPS
        ):
            return None
        plus_disk = offset_disk(self.observer, self.x_start, self.radius)
        minus_disk = offset_disk(self.observer, self.x_end, self.radius)
        y_plus = plus_disk.farthest_point_from(self.x_end)
        y_minus = minus_disk.farthest_point_from(self.x_start)
        return y_plus, y_minus

    def bulge_disks(self) -> List[Disk]:
        """The four disks whose intersection is the bulge (empty list if degenerate)."""
        extremes = self._extreme_points()
        if extremes is None:
            return []
        y_plus, y_minus = extremes
        return [
            Disk(self.x_end, self.x_end.distance_to(y_plus)),
            Disk(self.observer, self.observer.distance_to(y_plus)),
            Disk(self.x_start, self.x_start.distance_to(y_minus)),
            Disk(self.observer, self.observer.distance_to(y_minus)),
        ]

    def in_bulge(self, point: PointLike, *, eps: float = EPS) -> bool:
        """True when ``point`` belongs to the bulge (never for a degenerate region)."""
        disks = self.bulge_disks()
        return bool(disks) and all(d.contains(point, eps=eps) for d in disks)

    # -- full region --------------------------------------------------------
    def contains(self, point: PointLike, *, eps: float = EPS, samples: int = 129) -> bool:
        """True when ``point`` belongs to ``R^r_{Y0}(X0, X1)`` (core or bulge)."""
        return self.in_core(point, eps=eps, samples=samples) or self.in_bulge(point, eps=eps)

    def expanded(self, extra_radius: float) -> "ReachableRegion":
        """The region with radius grown by ``extra_radius`` (same observer/trajectory).

        The induction step of Lemma 2 states that
        ``R^{r + aV/8}_{Y0}(X0, X1)`` contains every ``a``-scaled safe
        region anchored at a point of ``R^{r}_{Y0}(X0, X1)``.
        """
        return ReachableRegion(self.observer, self.x_start, self.x_end, self.radius + extra_radius)

    def is_stationary_trajectory(self) -> bool:
        """True when the observed robot does not move (``X0 == X1``)."""
        return self.x_start.is_close(self.x_end)

    def coincides_with_safe_region(self) -> Optional[Disk]:
        """For a stationary trajectory the region is exactly the safe region disk.

        This is Observation 1(i) of the paper.  Returns the disk, or
        ``None`` when the trajectory is not stationary.
        """
        if not self.is_stationary_trajectory():
            return None
        return offset_disk(self.observer, self.x_start, self.radius)
