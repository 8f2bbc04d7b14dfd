"""Oracles of the one SEC float core: Welzl's point-by-point loop and a brute force.

Before :func:`repro.geometry.sec.smallest_enclosing_circle` ran
:func:`~repro.geometry.sec._welzl_float_core`, it held its own copy of
Welzl's loops, testing the points one by one with ``math.hypot``.  This
module keeps that loop as the reference the core must match bit for bit
(``tests/geometry/test_sec.py``); its three-point step is the core's
:func:`~repro.geometry.sec._float_trivial`, the circle through all three
points.  :func:`brute_force_sec` is the exhaustive oracle for small sets:
the smallest of every pair's diametral circle and every triple's
circumcircle that encloses all the points.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

from repro.geometry.point import Point, PointLike
from repro.geometry.sec import _float_trivial, _float_two, _seeded_order


def welzl_pointwise(points: Sequence[PointLike], *, seed: Optional[int] = 0) -> tuple:
    """``(cx, cy, r)`` of the smallest enclosing circle, point by point."""
    pts = [Point.of(p) for p in points]
    if seed is not None and len(pts) > 3:
        order = _seeded_order(len(pts), seed)
        pts = [pts[i] for i in order]
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]

    disk = None
    for i in range(len(pts)):
        px, py = xs[i], ys[i]
        if disk is not None:
            cx, cy, cr = disk
            if math.hypot(px - cx, py - cy) <= cr + 1e-7 * max(1.0, cr):
                continue
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
    return disk


def brute_force_sec(points: Sequence[PointLike], *, rel_tol: float = 1e-9) -> tuple:
    """``(cx, cy, r)`` of the smallest enclosing circle by exhaustive search.

    Tries every pair's diametral circle and every non-collinear triple's
    circumcircle, keeping the smallest that holds every point within
    ``rel_tol * max(1, r)``; O(m^4), so only for the small sets tests draw.
    """
    pts = [Point.of(p) for p in points]
    if not pts:
        raise ValueError("smallest enclosing circle of an empty point set")
    candidates = [(pts[0].x, pts[0].y, 0.0)]
    for a, b in itertools.combinations(pts, 2):
        candidates.append(
            ((a.x + b.x) / 2.0, (a.y + b.y) / 2.0, math.hypot(b.x - a.x, b.y - a.y) / 2.0)
        )
    for a, b, c in itertools.combinations(pts, 3):
        d = 2.0 * ((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x))
        if d == 0.0:
            continue
        a2, b2, c2 = a.x * a.x + a.y * a.y, b.x * b.x + b.y * b.y, c.x * c.x + c.y * c.y
        ux = (a2 * (b.y - c.y) + b2 * (c.y - a.y) + c2 * (a.y - b.y)) / d
        uy = (a2 * (c.x - b.x) + b2 * (a.x - c.x) + c2 * (b.x - a.x)) / d
        candidates.append((ux, uy, math.hypot(ux - a.x, uy - a.y)))
    best = None
    for cx, cy, r in candidates:
        slack = rel_tol * max(1.0, r)
        if (best is None or r < best[2]) and all(
            math.hypot(p.x - cx, p.y - cy) <= r + slack for p in pts
        ):
            best = (cx, cy, r)
    return best
