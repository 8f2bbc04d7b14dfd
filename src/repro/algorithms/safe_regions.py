"""Safe regions for motion, for all three limited-visibility algorithms.

Figure 3 of the paper contrasts the safe region a robot ``Y`` (at ``Y0``)
uses with respect to a visible robot ``X`` (at ``X0``) in three schemes:

* **Ando et al.**: the disk of radius ``V/2`` centred at the midpoint of
  ``X0 Y0`` (requires knowing ``V``);
* **Katreniak**: the union of a disk of radius ``|X0 Y0|/4`` centred at
  ``(X0 + 3 Y0)/4`` and a disk of radius ``(V_Y - |X0 Y0|)/4`` centred at
  ``Y0`` (``V_Y`` = distance to the farthest visible neighbour);
* **this paper (KKNPS)**: for *distant* neighbours only, the disk of
  radius ``V_Y/8`` centred at distance ``V_Y/8`` from ``Y0`` in the
  direction of ``X0`` — scaled by ``1/k`` in the k-Async/k-NestA models.

Everything here is expressed in the observing robot's coordinates with the
observer at the origin, which is how algorithms consume the regions; the
module also exposes absolute-coordinate variants for the analysis code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..geometry.disk import Disk
from ..geometry.point import Point, PointLike
from ..geometry.region import offset_disk
from ..geometry.tolerances import EPS


# -- paper's (KKNPS) safe regions -------------------------------------------------

def kknps_safe_region(
    observer: PointLike, neighbour: PointLike, v_lower_bound: float, *, alpha: float = 1.0,
    radius_divisor: float = 8.0,
) -> Disk:
    """The paper's (possibly ``alpha``-scaled) basic safe region.

    ``S^{alpha * V_Y / 8}_{Y0}(X0)``: a disk of radius ``alpha * V_Y / 8``
    centred at that same distance from the observer in the direction of
    the neighbour.  ``radius_divisor`` exposes the constant 8 for the
    ablation bench (anything at least some positive constant works for the
    proofs, per the paper's footnote 11).
    """
    radius = alpha * v_lower_bound / radius_divisor
    return offset_disk(observer, neighbour, radius)


def kknps_safe_region_local(
    neighbour: PointLike, v_lower_bound: float, *, alpha: float = 1.0, radius_divisor: float = 8.0
) -> Disk:
    """Observer-at-origin version of :func:`kknps_safe_region`."""
    return kknps_safe_region(Point.origin(), neighbour, v_lower_bound, alpha=alpha,
                             radius_divisor=radius_divisor)


def kknps_max_planned_move(v_lower_bound: float, *, alpha: float = 1.0) -> float:
    """Largest move the paper's destination rule can plan: ``alpha * V_Y / 8``."""
    return alpha * v_lower_bound / 8.0


# -- Ando et al. safe regions -------------------------------------------------------

def ando_safe_region(observer: PointLike, neighbour: PointLike, visibility_range: float) -> Disk:
    """Ando et al.'s safe region: disk of radius ``V/2`` at the midpoint."""
    observer, neighbour = Point.of(observer), Point.of(neighbour)
    return Disk(observer.midpoint(neighbour), visibility_range / 2.0)


def ando_safe_region_local(neighbour: PointLike, visibility_range: float) -> Disk:
    """Observer-at-origin version of :func:`ando_safe_region`."""
    return ando_safe_region(Point.origin(), neighbour, visibility_range)


# -- Katreniak's safe regions --------------------------------------------------------

@dataclass(frozen=True)
class KatreniakSafeRegion:
    """Katreniak's two-disk union safe region for one neighbour."""

    near_disk: Disk
    slack_disk: Disk

    def contains(self, point: PointLike, *, eps: float = EPS) -> bool:
        """Union membership."""
        return self.near_disk.contains(point, eps=eps) or self.slack_disk.contains(point, eps=eps)

    def contains_array(self, px: np.ndarray, py: np.ndarray, *, eps: float = EPS) -> np.ndarray:
        """Vectorized union membership, bit-identical to :meth:`contains`.

        Disjunction is order-independent, so OR-ing the two disks'
        :meth:`repro.geometry.disk.Disk.contains_array` verdicts matches
        the scalar short-circuit exactly.
        """
        return self.near_disk.contains_array(px, py, eps=eps) | self.slack_disk.contains_array(
            px, py, eps=eps
        )

    def disks(self) -> List[Disk]:
        """Both disks of the union."""
        return [self.near_disk, self.slack_disk]


def katreniak_safe_region(
    observer: PointLike, neighbour: PointLike, v_lower_bound: float
) -> KatreniakSafeRegion:
    """Katreniak's safe region of ``observer`` with respect to ``neighbour``.

    One disk of radius ``|X0 Y0| / 4`` centred at ``(X0 + 3 Y0) / 4`` (a
    quarter of the way toward the neighbour), united with a disk of radius
    ``(V_Y - |X0 Y0|) / 4`` centred at the observer itself.
    """
    observer, neighbour = Point.of(observer), Point.of(neighbour)
    gap = observer.distance_to(neighbour)
    near_center = observer + (neighbour - observer) * 0.25
    near = Disk(near_center, gap / 4.0)
    slack_radius = max(0.0, (v_lower_bound - gap) / 4.0)
    slack = Disk(observer, slack_radius)
    return KatreniakSafeRegion(near_disk=near, slack_disk=slack)


def katreniak_safe_region_local(
    neighbour: PointLike, v_lower_bound: float
) -> KatreniakSafeRegion:
    """Observer-at-origin version of :func:`katreniak_safe_region`."""
    return katreniak_safe_region(Point.origin(), neighbour, v_lower_bound)


# -- shared helpers -------------------------------------------------------------------

def point_respects_disks(point: PointLike, disks: Sequence[Disk], *, eps: float = EPS) -> bool:
    """True when ``point`` lies inside every disk of ``disks``."""
    return all(d.contains(point, eps=eps) for d in disks)


def max_step_within_disks(
    origin: PointLike, goal: PointLike, disks: Sequence[Disk], *, eps: float = 1e-12
) -> Point:
    """Farthest point toward ``goal`` along the ray from ``origin`` inside all disks.

    Every disk is convex and assumed to contain ``origin``, so the feasible
    parameter set along the segment is an interval ``[0, t_max]``; the
    per-disk exit parameter is computed in closed form from the quadratic
    for the ray-circle intersection.
    """
    origin, goal = Point.of(origin), Point.of(goal)
    direction = goal - origin
    length = direction.norm()
    if length <= eps:
        return origin
    t_max = 1.0
    for disk in disks:
        f = origin - disk.center
        a = direction.norm_squared()
        b = 2.0 * f.dot(direction)
        c = f.norm_squared() - disk.radius * disk.radius
        if c > eps:
            # The origin is (numerically) outside this disk: no movement allowed.
            return origin
        discriminant = b * b - 4.0 * a * c
        if discriminant < 0.0:
            discriminant = 0.0
        t_exit = (-b + discriminant ** 0.5) / (2.0 * a)
        t_max = min(t_max, max(0.0, t_exit))
    return origin + direction * t_max


def _max_step_within_regions_loop(
    origin: Point, goal: Point, regions: Sequence[KatreniakSafeRegion], samples: int
) -> Point:
    """Reference sampling loop (also the fallback for unknown region types)."""
    best = origin
    for i in range(1, samples + 1):
        t = i / samples
        candidate = origin.lerp(goal, t)
        if all(region.contains(candidate) for region in regions):
            best = candidate
        else:
            break
    return best


def max_step_within_regions(
    origin: PointLike,
    goal: PointLike,
    regions: Sequence[KatreniakSafeRegion],
    *,
    samples: int = 512,
) -> Point:
    """Farthest prefix of the segment ``origin -> goal`` inside all union regions.

    Katreniak's composite region is an intersection of unions of disks and
    is not convex, so the feasible set along the ray need not be an
    interval; the largest feasible *prefix* is found by sampling.

    The candidate grid is evaluated in one vectorized pass that reproduces
    the sampling loop's arithmetic exactly — the candidate coordinates use
    ``Point.lerp``'s expression elementwise, each containment test feeds
    the same ``math.hypot`` distances into the same comparison — so the
    first failing sample (and therefore the returned point) is identical
    to the loop's.  Region objects that are not two-disk unions fall back
    to the loop.
    """
    origin, goal = Point.of(origin), Point.of(goal)
    if origin.distance_to(goal) <= EPS:
        return origin
    if not all(type(region) is KatreniakSafeRegion for region in regions):
        return _max_step_within_regions_loop(origin, goal, regions, samples)
    # Candidate coordinates, term-for-term with Point.lerp.
    ts = np.arange(1, samples + 1, dtype=np.float64) / samples
    px = origin.x + (goal.x - origin.x) * ts
    py = origin.y + (goal.y - origin.y) * ts
    # The first failing sample is the earliest first failure over the
    # regions, so each region is tested only on the samples before the
    # earliest failure found so far.
    prefix = samples
    for region in regions:
        # Disk.contains_array feeds the same per-candidate
        # ``math.hypot(cx - px, cy - py) <= radius + eps`` decision.
        failing = np.flatnonzero(~region.contains_array(px[:prefix], py[:prefix]))
        if len(failing):
            prefix = int(failing[0])
            if prefix == 0:
                break
    if prefix == 0:
        return origin
    return origin.lerp(goal, prefix / samples)
