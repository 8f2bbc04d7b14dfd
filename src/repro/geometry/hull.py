"""Convex hulls and hull-based progress measures.

The congregation argument (Section 5 of the paper) measures progress
towards convergence with the convex hull of the robot locations: the hulls
of successive configurations are nested, and both the perimeter and the
radius of the smallest bounding circle decrease monotonically.  This
module provides the hull itself plus the perimeter/diameter/containment
operations the experiments assert on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .point import Point, PointLike, points_to_array
from .tolerances import EPS


# Points this deep inside the octagon of coordinate extremes (relative to
# the configuration's extent) are discarded before the chain walk.  The
# margin is three orders of magnitude above the chain's collinearity
# tolerance, so pruned points could never have appeared on (or influenced)
# the toleranced boundary.
_PREFILTER_MARGIN = 1e-6
_PREFILTER_MIN_POINTS = 16
#: Past this many prefilter survivors, the point-set diameter runs the chain,
#: prunes the survivors again against the hull polygon and drops rows
#: before pairing them.
_DENSE_CANDIDATES = 64


def _interior(x, y, cx, cy, margin) -> np.ndarray:
    """Mask of the points farther than ``margin`` left of every edge of a CCW polygon."""
    following = list(range(1, len(cx))) + [0]
    ex = cx[following] - cx
    ey = cy[following] - cy
    lengths = np.hypot(ex, ey)
    valid = lengths > 0.0
    if not valid.all():
        ex, ey, cx, cy, lengths = ex[valid], ey[valid], cx[valid], cy[valid], lengths[valid]
    offsets = ex[:, None] * (y - cy[:, None]) - ey[:, None] * (x - cx[:, None])
    return (offsets / lengths[:, None] > margin).all(axis=0)


def _prune_interior(arr: np.ndarray):
    """Drop points safely interior to the hull (Akl-Toussaint prefilter).

    Takes the eight coordinate extremes (support points of the axis and
    diagonal directions, a convex CCW octagon), and removes every point
    farther than a safety margin inside *all* of its edges.  Returns the
    survivors, in input order, and the margin (None when the extremes
    span no polygon and nothing was pruned).
    """
    x, y = arr[:, 0], arr[:, 1]
    s, d = x + y, x - y
    corners: List[int] = []
    # Support points of the eight axis/diagonal directions, in CCW order.
    for i in (x.argmin(), s.argmin(), y.argmin(), d.argmax(),
              x.argmax(), s.argmax(), y.argmax(), d.argmin()):
        i = int(i)
        if not corners or (i != corners[-1] and i != corners[0]):
            corners.append(i)
    if len(corners) < 3:
        return arr, None
    cx, cy = x[corners], y[corners]
    extent = max(float(cx.max() - cx.min()), float(cy.max() - cy.min()))
    if extent <= 0.0:
        return arr, None
    margin = _PREFILTER_MARGIN * extent
    return arr[~_interior(x, y, cx, cy, margin)], margin


def _hull_rows(array: np.ndarray) -> np.ndarray:
    """The hull vertices of an ``(n, 2)`` array, as float rows.

    The vertices run counter-clockwise (monotone chain).  The input
    preparation is vectorized: the octagon prefilter, then deduplication
    and lexicographic sorting via one ``lexsort``, so the Python chain
    walk only visits near-boundary points.  Collinear points on the
    boundary are dropped.  Degenerate inputs (one point, or
    all-collinear points) give the one or two extreme points.
    """
    return _chain_rows(_pruned(array)[0])[1]


def _pruned(array: np.ndarray):
    """The octagon prefilter's survivors of an ``(n, 2)`` array and its margin.

    Pruning comes before deduplication: the filter needs only the
    coordinate extremes, and it cuts the rows the lexsort touches.
    Arrays under ``_PREFILTER_MIN_POINTS`` rows are returned whole, with
    no margin.
    """
    arr = np.asarray(array, dtype=float).reshape(-1, 2)
    if len(arr) >= _PREFILTER_MIN_POINTS:
        return _prune_interior(arr)
    return arr, None


def _chain_rows(arr: np.ndarray):
    """``(rows, vertices)``: the distinct rows of ``arr``, lexsorted, and its hull's."""
    if len(arr) > 1:
        arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
        distinct = np.ones(len(arr), dtype=bool)
        np.any(arr[1:] != arr[:-1], axis=1, out=distinct[1:])
        arr = arr[distinct]
    m = len(arr)
    if m <= 2:
        return arr, arr

    xs: List[float] = arr[:, 0].tolist()
    ys: List[float] = arr[:, 1].tolist()

    def build(order: range) -> List[int]:
        chain: List[int] = []
        for i in order:
            while len(chain) >= 2:
                j, k = chain[-1], chain[-2]
                ax, ay = xs[j] - xs[k], ys[j] - ys[k]
                bx, by = xs[i] - xs[k], ys[i] - ys[k]
                # Drop the middle point only when the turn is (relatively)
                # non-left; the tolerance scales with the vector magnitudes so
                # that tiny-extent configurations are not over-collapsed.
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
        # Fully collinear input: return the two extreme points.
        hull = [0, m - 1]
    return arr, arr[hull]


def convex_hull_array(array: np.ndarray) -> List[Point]:
    """Convex hull of an ``(n, 2)`` array, counter-clockwise (see :func:`_hull_rows`)."""
    return [Point(x, y) for x, y in _hull_rows(array).tolist()]


def _max_squared_distance(rows: np.ndarray) -> float:
    """Largest ``dx*dx + dy*dy`` over pairs of ``rows``, the dense matrix's arithmetic."""
    x, y = rows[:, 0], rows[:, 1]
    best = 0.0
    for start in range(0, len(rows), 512):
        dx = x[start:start + 512, None] - x
        dy = y[start:start + 512, None] - y
        best = max(best, float((dx * dx + dy * dy).max()))
    return best


def _extremes(rows: np.ndarray) -> np.ndarray:
    """The rows of least and greatest ``x``, ``y``, ``x + y`` and ``x - y`` (with repeats)."""
    x, y = rows[:, 0], rows[:, 1]
    picked = []
    for key in (x, y, x + y, x - y):
        picked += [key.argmin(), key.argmax()]
    return rows[picked]


def _far_rows(rows: np.ndarray, least: float) -> np.ndarray:
    """The rows whose farthest bounding-box corner lies at least ``least`` (squared) away.

    A row ends no pair of squared distance ``>= least`` unless it is
    kept: each of the pair's offsets is at most the row's to the far box
    side, and rounding is monotone.
    """
    x, y = rows[:, 0], rows[:, 1]
    fx = np.maximum(x - x.min(), x.max() - x)
    fy = np.maximum(y - y.min(), y.max() - y)
    return rows[fx * fx + fy * fy >= least]


def point_set_diameter(array: np.ndarray) -> float:
    """Largest distance between two rows of an ``(n, 2)`` array, as the dense matrix gives it.

    The rows are pruned once by the octagon prefilter, and up to
    ``_DENSE_CANDIDATES`` survivors are paired as they are.  Past that,
    the largest square among the survivors' eight extreme rows (least
    and greatest ``x``, ``y``, ``x + y``, ``x - y``) bounds the answer
    from below: it is a realised pair's, so a survivor whose farthest
    bounding-box corner is nearer ends no farthest pair (rounding is
    monotone) and is dropped (:func:`_far_rows`).  Only if more than
    ``_DENSE_CANDIDATES`` rows remain does the monotone chain run on
    them; they are then pruned again against the hull polygon (for every
    other row, a row interior by the margin, ``1e-6`` of the extent, has
    a survivor the margin farther away, a gap no rounding of ``dx*dx +
    dy*dy`` closes, so survivor pairs suffice) and by the farthest
    vertex pair's square.  Unlike the vertex diameter, rows within the
    chain's collinearity tolerance count.
    """
    rows, margin = _pruned(array)
    if len(rows) > _DENSE_CANDIDATES:
        rows = _far_rows(rows, _max_squared_distance(_extremes(rows)))
    if len(rows) > _DENSE_CANDIDATES:
        rows, vertices = _chain_rows(rows)
        if margin is not None and len(rows) > _DENSE_CANDIDATES and len(vertices) >= 3:
            x, y = rows[:, 0], rows[:, 1]
            rows = rows[~_interior(x, y, vertices[:, 0], vertices[:, 1], margin)]
        if len(rows) > _DENSE_CANDIDATES:
            rows = _far_rows(rows, _max_squared_distance(vertices))
    return math.sqrt(_max_squared_distance(rows)) if len(rows) > 1 else 0.0


def convex_hull(points: Sequence[PointLike]) -> List[Point]:
    """Convex hull in counter-clockwise order (Andrew's monotone chain).

    Collinear points on the boundary are dropped.  Degenerate inputs (one
    point, or all-collinear points) return the one or two extreme points.
    """
    return convex_hull_array(points_to_array(points))


@dataclass(frozen=True)
class ConvexHull:
    """Convex hull of a point set, with the measures used by the paper."""

    vertices: tuple

    @staticmethod
    def of(points: Sequence[PointLike]) -> "ConvexHull":
        """Compute the hull of ``points``."""
        return ConvexHull.of_array(points_to_array(points))

    @staticmethod
    def of_array(array: np.ndarray) -> "ConvexHull":
        """Compute the hull of an ``(n, 2)`` coordinate array."""
        return ConvexHull(tuple(Point(x, y) for x, y in _hull_rows(array).tolist()))

    def __len__(self) -> int:
        return len(self.vertices)

    def perimeter(self) -> float:
        """Perimeter of the hull (0 for a single point, 2*length for a segment)."""
        verts = self.vertices
        if len(verts) < 2:
            return 0.0
        total = 0.0
        for v, w in zip(verts, verts[1:] + verts[:1]):
            total += math.hypot(v.x - w.x, v.y - w.y)
        return total

    def area(self) -> float:
        """Area of the hull (shoelace formula)."""
        verts = self.vertices
        if len(verts) < 3:
            return 0.0
        total = 0.0
        for i, v in enumerate(verts):
            w = verts[(i + 1) % len(verts)]
            total += v.cross(w)
        return abs(total) / 2.0

    def diameter(self) -> float:
        """Largest pairwise distance between hull vertices."""
        verts = self.vertices
        if len(verts) < 2:
            return 0.0
        best = 0.0
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                best = max(best, verts[i].distance_to(verts[j]))
        return best

    def centroid(self) -> Point:
        """Arithmetic mean of the hull vertices."""
        verts = self.vertices
        if not verts:
            raise ValueError("centroid of an empty hull")
        sx = sum(v.x for v in verts)
        sy = sum(v.y for v in verts)
        return Point(sx / len(verts), sy / len(verts))

    def contains(self, point: PointLike, *, eps: float = EPS) -> bool:
        """Closed containment test, tolerant by ``eps``."""
        point = Point.of(point)
        verts = self.vertices
        if not verts:
            return False
        if len(verts) == 1:
            return verts[0].is_close(point, eps=eps)
        if len(verts) == 2:
            from .segment import Segment

            return Segment(verts[0], verts[1]).distance_to_point(point) <= eps
        for i, v in enumerate(verts):
            w = verts[(i + 1) % len(verts)]
            if (w - v).cross(point - v) < -eps * max(1.0, (w - v).norm()):
                return False
        return True

    def contains_hull(self, other: "ConvexHull", *, eps: float = EPS) -> bool:
        """True when every vertex of ``other`` lies in this hull (hull nesting)."""
        return all(self.contains(v, eps=eps) for v in other.vertices)

    def distance_to_point(self, point: PointLike) -> float:
        """Distance from ``point`` to the hull (0 if inside)."""
        point = Point.of(point)
        if self.contains(point):
            return 0.0
        from .segment import Segment

        verts = self.vertices
        if len(verts) == 1:
            return verts[0].distance_to(point)
        best = math.inf
        for i, v in enumerate(verts):
            w = verts[(i + 1) % len(verts)]
            best = min(best, Segment(v, w).distance_to_point(point))
        return best


def hulls_nested(outer: Sequence[PointLike], inner: Sequence[PointLike], *, eps: float = 1e-7) -> bool:
    """True when the hull of ``inner`` is contained in the hull of ``outer``.

    This is the paper's incremental-congregation invariant
    ``CH_{t+} ⊆ CH_t``.
    """
    return ConvexHull.of(outer).contains_hull(ConvexHull.of(inner), eps=eps)


def hull_perimeter(points: Sequence[PointLike]) -> float:
    """Perimeter of the convex hull of ``points``."""
    return ConvexHull.of(points).perimeter()


def hull_diameter(points: Sequence[PointLike]) -> float:
    """Diameter of the convex hull of ``points``."""
    return ConvexHull.of(points).diameter()


def hull_radius(points: Sequence[PointLike]) -> float:
    """Radius of the smallest circle enclosing the hull of ``points``."""
    from .sec import smallest_enclosing_circle

    return smallest_enclosing_circle(points).radius
