"""Katreniak's 1-Async convergence algorithm (SIROCCO 2011), as reviewed in the paper.

Katreniak's algorithm does not assume knowledge of the visibility range:
each robot works with the lower bound ``V_Z`` given by its farthest
visible neighbour.  Its safe region with respect to a neighbour at
relative position ``p`` is the union of

* a disk of radius ``|p|/4`` centred a quarter of the way toward the
  neighbour, and
* a disk of radius ``(V_Z - |p|)/4`` centred at the robot itself,

and the robot moves as far as possible toward a congregation goal while
remaining inside the composite safe region (the intersection of the
per-neighbour unions).

The paper only needs the *shape* of these safe regions (Figure 3 and the
observation that the algorithm fails for sufficiently large ``k`` in
k-Async); the congregation goal used here is the centre of the smallest
enclosing circle of the visible robots, the same goal as Ando et al.,
which is a documented substitution (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..geometry.point import Point
from ..geometry.sec import sec_center
from ..geometry.tolerances import EPS
from ..model.snapshot import Snapshot
from .base import ConvergenceAlgorithm
from .safe_regions import katreniak_safe_region_local, max_step_within_regions


@dataclass
class KatreniakAlgorithm(ConvergenceAlgorithm):
    """Katreniak's safe regions with a SEC-centre congregation goal."""

    #: Number of samples used to find the farthest feasible prefix of the
    #: move inside the (non-convex) composite safe region.
    ray_samples: int = 512

    requires_visibility_range = False

    def __post_init__(self) -> None:
        self.name = "katreniak"
        if self.ray_samples < 8:
            raise ValueError("ray_samples must be at least 8")

    def compute(self, snapshot: Snapshot) -> Point:
        """Move toward the SEC centre as far as the composite safe region allows."""
        if not snapshot.has_neighbours():
            return Point.origin()
        v_z = snapshot.farthest_distance()
        if v_z <= EPS:
            return Point.origin()

        goal = sec_center(snapshot.with_self())
        if goal.norm() <= EPS:
            return Point.origin()

        regions = [katreniak_safe_region_local(p, v_z) for p in snapshot.neighbours]
        return max_step_within_regions(Point.origin(), goal, regions, samples=self.ray_samples)

    def safe_regions(self, snapshot: Snapshot):
        """The per-neighbour composite safe regions of this activation."""
        v_z = snapshot.farthest_distance()
        return [katreniak_safe_region_local(p, v_z) for p in snapshot.neighbours]

    def destination_respects_safe_regions(self, snapshot: Snapshot, *, eps: float = 1e-9) -> bool:
        """Check that the destination lies in every neighbour's composite region."""
        destination = self.compute(snapshot)
        return all(r.contains(destination, eps=eps) for r in self.safe_regions(snapshot))
