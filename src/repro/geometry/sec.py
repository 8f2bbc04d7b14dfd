"""Smallest enclosing circle (Welzl's algorithm).

Ando et al.'s Go-To-The-Centre-Of-The-SEC algorithm moves each robot
toward the centre of the smallest circle enclosing all robots it can see;
the congregation analysis in Section 5 of the paper also reasons about the
smallest circle bounding the convex hull.  This module provides a robust,
deterministic (seedable) expected-linear-time implementation.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .disk import Disk
from .point import Point, PointLike
from .tolerances import EPS


@lru_cache(maxsize=64)
def _seeded_order(n: int, seed: int) -> tuple:
    """The (cached) seeded shuffle order for ``n`` points."""
    rng = np.random.default_rng(seed)
    return tuple(int(i) for i in rng.permutation(n))


def _float_two(ax, ay, bx, by):
    """Diametral circle of two points, as plain floats (``Disk``-free)."""
    cx, cy = (ax + bx) / 2.0, (ay + by) / 2.0
    return cx, cy, math.hypot(bx - ax, by - ay) / 2.0


def _float_trivial(ax, ay, bx, by, cx, cy):
    """Circle with all three points on its boundary, on plain floats (None if collinear).

    Welzl's innermost step needs a circle through p, q *and* r.  When the
    smallest circle of the three is a pair's diametral circle, that circle
    is kept only if the third point lies on it too (a right angle, so
    lattice sets keep their midpoint floats); an obtuse triple's diametral
    circle drops a point from the boundary, so the circumcircle is taken
    instead.
    """
    for (px, py), (qx, qy) in (
        ((ax, ay), (bx, by)),
        ((ax, ay), (cx, cy)),
        ((bx, by), (cx, cy)),
    ):
        ox, oy, r = _float_two(px, py, qx, qy)
        eps = 1e-12 * max(1.0, r)
        da = math.hypot(ax - ox, ay - oy)
        db = math.hypot(bx - ox, by - oy)
        dc = math.hypot(cx - ox, cy - oy)
        if da <= r + eps and db <= r + eps and dc <= r + eps:
            if min(da, db, dc) >= r - eps:
                return ox, oy, r
            break
    d = 2.0 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
    if abs(d) <= EPS:
        return None
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    return ux, uy, math.hypot(ux - ax, uy - ay)


def smallest_enclosing_circle(
    points: Sequence[PointLike], *, seed: Optional[int] = 0
) -> Disk:
    """Smallest closed disk containing every point in ``points``.

    Uses Welzl's randomised incremental algorithm (iterative variant, in
    :func:`_welzl_float_core`).  The shuffle is seeded (default seed 0)
    so results are reproducible; pass ``seed=None`` for an unshuffled
    run, which is fine for the small point sets a robot sees.  The loops
    work on plain floats, with the :class:`Disk` built only at the end.
    """
    pts = [Point.of(p) for p in points]
    if not pts:
        raise ValueError("smallest enclosing circle of an empty point set")
    if seed is not None and len(pts) > 3:
        order = _seeded_order(len(pts), seed)
        pts = [pts[i] for i in order]
    cx, cy, radius = _welzl_float_core([p.x for p in pts], [p.y for p in pts])
    return Disk(Point(cx, cy), radius)


def sec_center(points: Sequence[PointLike], *, seed: Optional[int] = 0) -> Point:
    """Centre of the smallest enclosing circle of ``points``."""
    return smallest_enclosing_circle(points, seed=seed).center


# Memo of SEC solutions keyed by the exact bytes of the input array: one
# entry per distinct neighbourhood, storing its centre.  A robot whose
# visibility set did not move between rounds re-hits its entry, so the
# re-check is a hash of the bytes rather than a Welzl run.  Bounded FIFO so
# mega-swarm sweeps cannot grow it without limit.
_SEC_CACHE: dict = {}
_SEC_CACHE_MAX = 4096


def _welzl_float_core(xs: list, ys: list):
    """Welzl's loops on the plain-float coordinate lists ``xs``, ``ys``.

    The one Welzl loop of :func:`smallest_enclosing_circle` and
    :func:`sec_center_array`, testing the points one by one.  Welzl
    rescans after every violator, so a numpy sweep over the untested
    points before each test was slower on the sets robots solve (tens of
    points) and on large random sets; it won only on large cocircular
    sets, which no workload builds.  Returns the disk as ``(cx, cy, r)``.
    """
    disk = None
    for i in range(len(xs)):
        px, py = xs[i], ys[i]
        if disk is not None:
            cx, cy, cr = disk
            if math.hypot(px - cx, py - cy) <= cr + 1e-7 * max(1.0, cr):
                continue
        # p must be on the boundary of the smallest circle of the first i + 1 points.
        disk = (px, py, 0.0)
        for j in range(i):
            qx, qy = xs[j], ys[j]
            cx, cy, cr = disk
            if math.hypot(qx - cx, qy - cy) <= cr + 1e-7 * max(1.0, cr):
                continue
            disk = _float_two(px, py, qx, qy)
            for k in range(j):
                rx, ry = xs[k], ys[k]
                cx, cy, cr = disk
                if math.hypot(rx - cx, ry - cy) <= cr + 1e-7 * max(1.0, cr):
                    continue
                candidate = _float_trivial(px, py, qx, qy, rx, ry)
                if candidate is None:
                    # Collinear triple: fall back to the diametral pair.
                    triple = ((px, py), (qx, qy), (rx, ry))
                    far_pair = max(
                        ((a, b) for a in triple for b in triple),
                        key=lambda ab: math.hypot(ab[0][0] - ab[1][0], ab[0][1] - ab[1][1]),
                    )
                    (fax, fay), (fbx, fby) = far_pair
                    candidate = _float_two(fax, fay, fbx, fby)
                disk = candidate
    assert disk is not None
    return disk


def sec_center_array(arr: np.ndarray, *, seed: Optional[int] = 0):
    """Centre of the SEC of the ``(m, 2)`` rows of ``arr``, as two floats.

    The float-core fast form of :func:`sec_center`: same seeded shuffle,
    same tolerances, same inner loops, bit-identical result — without
    building any :class:`~repro.geometry.point.Point` or
    :class:`~repro.geometry.disk.Disk`, and memoised on the exact bytes
    of the input so unchanged neighbourhoods cost a hash lookup.
    """
    a = np.ascontiguousarray(arr, dtype=float)
    if a.ndim != 2 or a.shape[1] != 2 or a.shape[0] == 0:
        raise ValueError("sec_center_array needs a non-empty (m, 2) array")
    key = (a.shape[0], seed, a.tobytes())
    hit = _SEC_CACHE.get(key)
    if hit is not None:
        return hit
    m = a.shape[0]
    if seed is not None and m > 3:
        a = a[list(_seeded_order(m, seed))]
    cx, cy, _r = _welzl_float_core(a[:, 0].tolist(), a[:, 1].tolist())
    if len(_SEC_CACHE) >= _SEC_CACHE_MAX:
        _SEC_CACHE.pop(next(iter(_SEC_CACHE)))
    _SEC_CACHE[key] = (cx, cy)
    return cx, cy


def sec_radius(points: Sequence[PointLike], *, seed: Optional[int] = 0) -> float:
    """Radius of the smallest enclosing circle of ``points``."""
    return smallest_enclosing_circle(points, seed=seed).radius


def is_valid_enclosing_circle(
    disk: Disk, points: Sequence[PointLike], *, eps: float = 1e-7
) -> bool:
    """Check that ``disk`` contains every point (a convenient test helper)."""
    return all(disk.contains(p, eps=eps) for p in points)


def critical_points(
    disk: Disk, points: Sequence[PointLike], *, eps: float = 1e-6
) -> list[Point]:
    """Points lying (within ``eps``) on the boundary of ``disk``.

    The congregation argument of Section 5 works with the up-to-three
    critical points of the smallest circle bounding the convex hull.
    """
    result = []
    for p in points:
        p = Point.of(p)
        if abs(disk.center.distance_to(p) - disk.radius) <= eps:
            result.append(p)
    return result
