"""The ``Point``-form KKNPS and Ando rules: the oracles the float cores are pinned against.

:meth:`repro.algorithms.KKNPSAlgorithm.compute` and
:meth:`repro.algorithms.AndoAlgorithm.compute` read a snapshot's perceived
rows as plain floats.  This module keeps each rule as the paper states it,
over ``Point`` neighbours: KKNPS through the algorithm's distant set,
``Point.unit`` directions and the half-plane and extreme-direction
helpers; Ando through :func:`~repro.geometry.sec.sec_center` over points
and the :func:`~repro.algorithms.safe_regions.max_step_within_disks` clamp
over its safe-region disks.  :func:`reference_compute` dispatches to them,
and :class:`reference.object_engine.ObjectSimulator` decides with it, so
the differential harness checks each float core against an independent
implementation, bit for bit.
"""

from __future__ import annotations

from repro.algorithms import AndoAlgorithm, KKNPSAlgorithm
from repro.algorithms.safe_regions import ando_safe_region_local, max_step_within_disks
from repro.geometry.angles import extreme_directions, fits_in_open_halfplane
from repro.geometry.point import Point
from repro.geometry.sec import sec_center
from repro.geometry.tolerances import EPS
from repro.model.snapshot import Snapshot


def kknps_compute_points(algorithm: KKNPSAlgorithm, snapshot: Snapshot) -> Point:
    """The KKNPS destination over ``Point`` neighbours, in snapshot-local coordinates."""
    if not snapshot.has_neighbours():
        return Point.origin()

    v_y = algorithm.perceived_range_bound(snapshot)
    if v_y <= EPS:
        return Point.origin()

    distant = algorithm.distant_neighbours(snapshot)
    directions = [p.unit() for p in distant if p.norm() > EPS]
    if not directions:
        return Point.origin()

    # If the robot lies in the convex hull of its distant neighbours'
    # directions, the intersection of the safe regions is its own
    # location: stay put.
    if not fits_in_open_halfplane(directions):
        return Point.origin()

    radius = algorithm.effective_radius(v_y)
    if radius <= EPS:
        return Point.origin()

    if len(directions) == 1:
        return directions[0] * radius

    i, j = extreme_directions(directions)
    center_i = directions[i] * radius
    center_j = directions[j] * radius
    return center_i.midpoint(center_j)


def ando_compute_points(algorithm: AndoAlgorithm, snapshot: Snapshot) -> Point:
    """The Ando destination over ``Point`` neighbours: toward the SEC centre, safely."""
    if not snapshot.has_neighbours():
        return Point.origin()
    visibility_range = algorithm._known_range(snapshot)

    points = snapshot.with_self()
    goal = sec_center(points)
    if goal.norm() <= EPS:
        return Point.origin()
    if algorithm.max_move is not None and goal.norm() > algorithm.max_move:
        goal = goal.unit() * algorithm.max_move

    safe_disks = [
        ando_safe_region_local(p, visibility_range) for p in snapshot.neighbours
    ]
    return max_step_within_disks(Point.origin(), goal, safe_disks)


#: The ``Point``-form rule of each algorithm class that has a float core.
POINT_RULES = {
    KKNPSAlgorithm: kknps_compute_points,
    AndoAlgorithm: ando_compute_points,
}


def reference_compute(algorithm, snapshot: Snapshot) -> Point:
    """``algorithm``'s destination by its ``Point``-form rule.

    Algorithms without a float core (Katreniak, CoG, GCM and the 3D or
    test rules) already compute on ``Point`` s, so their own ``compute``
    is the reference.
    """
    rule = POINT_RULES.get(type(algorithm))
    return rule(algorithm, snapshot) if rule is not None else algorithm.compute(snapshot)
