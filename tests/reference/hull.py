"""The row-unique hull and the dense metrics sample: the oracles of the metrics pass.

Before samples moved to one array pass, :func:`convex_hull_array`
deduplicated rows with ``np.unique(axis=0)`` after an Akl-Toussaint
prefilter written with ``np.stack``/``np.roll``, and every sample below
``METRICS_DENSE_MAX`` robots reduced one dense ``(n, n)`` squared-distance
matrix for its diameter and minimum separation.  This module keeps both,
unchanged in behaviour:

* :func:`convex_hull_array` — the hull as ``Point`` vertices;
* :func:`dense_sample` — every :class:`~repro.engine.metrics.MetricsSample`
  field from the full matrix (diameter and minimum separation), the
  hull above (perimeter, bounding-circle radius) and a per-edge cohesion
  loop.

``ConvexHull.of_array`` and ``MetricsCollector.observe`` must match them
bit for bit (``tests/property/test_metrics_sample_oracle.py``).
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.geometry.point import Point
from repro.geometry.sec import smallest_enclosing_circle
from repro.geometry.tolerances import EPS

_PREFILTER_MARGIN = 1e-6
_PREFILTER_MIN_POINTS = 16


def _prune_interior(unique: np.ndarray) -> np.ndarray:
    """Drop points safely interior to the octagon of coordinate extremes."""
    x, y = unique[:, 0], unique[:, 1]
    s, d = x + y, x - y
    stacked = np.stack((x, s, y, d))
    low = np.argmin(stacked, axis=1)
    high = np.argmax(stacked, axis=1)
    support = [
        int(low[0]),
        int(low[1]),
        int(low[2]),
        int(high[3]),
        int(high[0]),
        int(high[1]),
        int(high[2]),
        int(low[3]),
    ]
    corners: List[int] = []
    for i in support:
        if not corners or (i != corners[-1] and i != corners[0]):
            corners.append(i)
    if len(corners) < 3:
        return unique
    cx, cy = x[corners], y[corners]
    extent = max(float(cx.max() - cx.min()), float(cy.max() - cy.min()))
    if extent <= 0.0:
        return unique
    margin = _PREFILTER_MARGIN * extent
    ex = np.roll(cx, -1) - cx
    ey = np.roll(cy, -1) - cy
    lengths = np.hypot(ex, ey)
    valid = lengths > 0.0
    if not valid.any():
        return unique
    ex, ey, cx, cy, lengths = ex[valid], ey[valid], cx[valid], cy[valid], lengths[valid]
    offsets = (
        ex[:, None] * (y[None, :] - cy[:, None]) - ey[:, None] * (x[None, :] - cx[:, None])
    ) / lengths[:, None]
    interior = (offsets > margin).all(axis=0)
    if not interior.any():
        return unique
    return unique[~interior]


def convex_hull_array(array: np.ndarray) -> List[Point]:
    """Convex hull of an ``(n, 2)`` array, counter-clockwise (monotone chain)."""
    arr = np.asarray(array, dtype=float).reshape(-1, 2)
    if len(arr) >= _PREFILTER_MIN_POINTS:
        arr = _prune_interior(arr)
    unique = np.unique(arr, axis=0) if len(arr) else arr
    m = len(unique)
    if m <= 2:
        return [Point(float(x), float(y)) for x, y in unique]

    xs: List[float] = unique[:, 0].tolist()
    ys: List[float] = unique[:, 1].tolist()

    def build(order: range) -> List[int]:
        chain: List[int] = []
        for i in order:
            while len(chain) >= 2:
                j, k = chain[-1], chain[-2]
                ax, ay = xs[j] - xs[k], ys[j] - ys[k]
                bx, by = xs[i] - xs[k], ys[i] - ys[k]
                cross = ax * by - ay * bx
                norms = math.hypot(ax, ay) * math.hypot(bx, by)
                if cross <= EPS * max(norms, EPS):
                    chain.pop()
                else:
                    break
            chain.append(i)
        return chain

    lower = build(range(m))
    upper = build(range(m - 1, -1, -1))
    hull = lower[:-1] + upper[:-1]
    if not hull:
        hull = [0, m - 1]
    return [Point(xs[i], ys[i]) for i in hull]


def dense_sample(arr: np.ndarray, edges, visibility_range: float) -> tuple:
    """``(diameter, perimeter, radius, min separation, broken edges)`` of ``arr``.

    The diameter and the minimum separation reduce the full squared-distance
    matrix (one square root after the reduction); the perimeter sums
    ``Point.distance_to`` around the hull; the radius is the bounding
    circle of the hull vertices; a broken edge is an initial edge
    longer than ``V + EPS``.
    """
    arr = np.asarray(arr, dtype=float)
    if len(arr) < 2:
        return 0.0, 0.0, 0.0, 0.0, 0
    squared = arr[:, 0, None] - arr[None, :, 0]
    dy = arr[:, 1, None] - arr[None, :, 1]
    squared *= squared
    dy *= dy
    squared += dy
    diameter = float(math.sqrt(squared.max()))
    np.fill_diagonal(squared, math.inf)
    separation = float(math.sqrt(squared.min()))
    hull = convex_hull_array(arr)
    perimeter = 0.0
    if len(hull) >= 2:
        for i, v in enumerate(hull):
            perimeter += v.distance_to(hull[(i + 1) % len(hull)])
    broken = 0
    for i, j in edges:
        ex, ey = arr[i, 0] - arr[j, 0], arr[i, 1] - arr[j, 1]
        if math.sqrt(ex * ex + ey * ey) > visibility_range + EPS:
            broken += 1
    radius = smallest_enclosing_circle(hull).radius
    return diameter, perimeter, radius, separation, broken
