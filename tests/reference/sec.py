"""Welzl's point-by-point loop: the oracle of the one SEC float core.

Before :func:`repro.geometry.sec.smallest_enclosing_circle` ran
:func:`~repro.geometry.sec._welzl_float_core`, it held its own copy of
Welzl's loops, testing the points one by one with ``math.hypot``.  This
module keeps that loop, unchanged in behaviour, as the reference the core
must match bit for bit (``tests/geometry/test_sec.py``).
"""

from __future__ import annotations

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
