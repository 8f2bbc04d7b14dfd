"""Two-dimensional points and vectors.

The whole reproduction lives in the Euclidean plane (the paper's Section 6
sketches higher dimensions but leaves details to future work), so a small,
immutable, numpy-friendly 2D point type keeps the rest of the codebase
readable.  A :class:`Point` doubles as a displacement vector; the algebra
(sum, difference, scaling, dot/cross products) is what the paper's
constructions use.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple, Union

import numpy as np

from .tolerances import EPS

Coordinate = Union[float, int]


@dataclass(frozen=True)
class Point:
    """An immutable point (or displacement vector) in the plane."""

    x: float
    y: float

    # -- construction -----------------------------------------------------
    @staticmethod
    def of(obj: "PointLike") -> "Point":
        """Coerce a 2-sequence, numpy row or Point into a :class:`Point`."""
        if isinstance(obj, Point):
            return obj
        x, y = obj
        return Point(float(x), float(y))

    @staticmethod
    def origin() -> "Point":
        """The origin (0, 0)."""
        return Point(0.0, 0.0)

    @staticmethod
    def polar(radius: float, angle: float) -> "Point":
        """Point at ``radius`` from the origin in direction ``angle`` (radians)."""
        return Point(radius * math.cos(angle), radius * math.sin(angle))

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "PointLike") -> "Point":
        other = Point.of(other)
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "PointLike") -> "Point":
        other = Point.of(other)
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Point":
        return Point(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Point":
        return Point(self.x / scalar, self.y / scalar)

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def __getitem__(self, index: int) -> float:
        return (self.x, self.y)[index]

    def __len__(self) -> int:
        return 2

    # -- metrics -----------------------------------------------------------
    def dot(self, other: "PointLike") -> float:
        """Euclidean inner product."""
        other = Point.of(other)
        return self.x * other.x + self.y * other.y

    def cross(self, other: "PointLike") -> float:
        """Z-component of the 3D cross product (signed parallelogram area)."""
        other = Point.of(other)
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        """Euclidean length of this vector."""
        return math.hypot(self.x, self.y)

    def norm_squared(self) -> float:
        """Squared Euclidean length (avoids the sqrt)."""
        return self.x * self.x + self.y * self.y

    def distance_to(self, other: "PointLike") -> float:
        """Euclidean distance to ``other``."""
        other = Point.of(other)
        return math.hypot(self.x - other.x, self.y - other.y)

    def angle(self) -> float:
        """Direction of this vector in ``(-pi, pi]`` (``atan2`` convention)."""
        return math.atan2(self.y, self.x)

    def angle_to(self, other: "PointLike") -> float:
        """Direction of the vector from ``self`` to ``other``."""
        other = Point.of(other)
        return math.atan2(other.y - self.y, other.x - self.x)

    # -- geometric helpers ---------------------------------------------------
    def unit(self) -> "Point":
        """Unit vector in the direction of this vector.

        Raises :class:`ValueError` for the zero vector.
        """
        n = self.norm()
        if n <= EPS:
            raise ValueError("cannot normalise a (near-)zero vector")
        return Point(self.x / n, self.y / n)

    def direction_to(self, other: "PointLike") -> "Point":
        """Unit vector pointing from ``self`` to ``other``."""
        return (Point.of(other) - self).unit()

    def perpendicular(self) -> "Point":
        """This vector rotated by +90 degrees."""
        return Point(-self.y, self.x)

    def rotated(self, angle: float, about: "PointLike" = (0.0, 0.0)) -> "Point":
        """This point rotated by ``angle`` radians about ``about``."""
        about = Point.of(about)
        dx, dy = self.x - about.x, self.y - about.y
        c, s = math.cos(angle), math.sin(angle)
        return Point(about.x + c * dx - s * dy, about.y + s * dx + c * dy)

    def toward(self, other: "PointLike", distance: float) -> "Point":
        """The point at ``distance`` from ``self`` in the direction of ``other``.

        This is the primitive the paper's safe regions are defined with:
        the safe-region centre is ``Y0.toward(X0, V_Y / 8)``.
        """
        other = Point.of(other)
        gap = self.distance_to(other)
        if gap <= EPS:
            return self
        t = distance / gap
        return Point(self.x + (other.x - self.x) * t, self.y + (other.y - self.y) * t)

    def midpoint(self, other: "PointLike") -> "Point":
        """Midpoint of the segment from ``self`` to ``other``."""
        other = Point.of(other)
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)

    def lerp(self, other: "PointLike", t: float) -> "Point":
        """Linear interpolation: ``self`` at ``t=0``, ``other`` at ``t=1``."""
        other = Point.of(other)
        return Point(self.x + (other.x - self.x) * t, self.y + (other.y - self.y) * t)

    def is_close(self, other: "PointLike", *, eps: float = EPS) -> bool:
        """True when the two points coincide up to ``eps``."""
        return self.distance_to(other) <= eps

    # -- conversions --------------------------------------------------------
    def as_array(self) -> np.ndarray:
        """This point as a numpy array of shape ``(2,)``."""
        return np.array([self.x, self.y], dtype=float)

    def as_tuple(self) -> Tuple[float, float]:
        """This point as a plain ``(x, y)`` tuple."""
        return (self.x, self.y)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Point({self.x:.6g}, {self.y:.6g})"


PointLike = Union[Point, Sequence[Coordinate], np.ndarray]


def centroid(points: Iterable[PointLike]) -> Point:
    """Arithmetic mean of a non-empty collection of points."""
    pts = [Point.of(p) for p in points]
    if not pts:
        raise ValueError("centroid of an empty point set is undefined")
    sx = sum(p.x for p in pts)
    sy = sum(p.y for p in pts)
    return Point(sx / len(pts), sy / len(pts))


def points_to_array(points: Iterable[PointLike]) -> np.ndarray:
    """Stack points into an ``(n, 2)`` float array.

    A :class:`PointRows` hands over its read-only rows, and an input that
    already is an ``(n, 2)`` array is passed through — neither takes the
    per-Point loop.
    """
    if isinstance(points, PointRows):
        return points.rows
    if isinstance(points, np.ndarray):
        arr = np.asarray(points, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("expected an array of shape (n, 2)")
        return arr
    pts = [Point.of(p) for p in points]
    arr = np.empty((len(pts), 2), dtype=float)
    for axis, name in enumerate(("x", "y")):
        column = map(operator.attrgetter(name), pts)
        arr[:, axis] = np.fromiter(column, dtype=float, count=len(pts))
    return arr


class PointRows(SequenceABC):
    """A read-only tuple of :class:`Point` kept as ``(n, 2)`` float rows.

    ``len``, indexing, slicing (a tuple), iteration, ``==`` (with another
    ``PointRows`` or a tuple) and ``hash`` are the tuple's, but each Point
    is built on access, and :func:`points_to_array` takes :attr:`rows` as
    they are.  A given array is copied, so later writes to it do not show.
    """

    __slots__ = ("rows",)

    def __init__(self, points: Iterable[PointLike]) -> None:
        rows = points_to_array(points)
        if isinstance(points, np.ndarray):
            rows = rows.copy()
        rows.flags.writeable = False
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(Point, *self.rows[index].T.tolist()))
        return Point(*self.rows[operator.index(index)].tolist())

    def __iter__(self) -> Iterator[Point]:
        return map(Point, *self.rows.T.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PointRows):
            return np.array_equal(self.rows, other.rows)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __reduce__(self):
        return PointRows, (self.rows,)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return repr(tuple(self))


def array_to_points(array: np.ndarray) -> list[Point]:
    """Convert an ``(n, 2)`` array back into a list of :class:`Point`."""
    array = np.asarray(array, dtype=float)
    if array.ndim != 2 or array.shape[1] != 2:
        raise ValueError("expected an array of shape (n, 2)")
    return [Point(float(x), float(y)) for x, y in array]


def pairwise_distances(points: Sequence[PointLike]) -> np.ndarray:
    """Full ``(n, n)`` matrix of pairwise Euclidean distances.

    Each entry is ``sqrt(dx*dx + dy*dy)``: the dense reference whose
    floats the grid-local readers of :mod:`repro.geometry.pairs` return.
    """
    arr = points_to_array(points)
    dx = arr[:, 0, None] - arr[None, :, 0]
    dy = arr[:, 1, None] - arr[None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


def max_pairwise_distance(points: Sequence[PointLike]) -> float:
    """Diameter of the point set (0 for fewer than two points)."""
    if len(points) < 2:
        return 0.0
    return float(pairwise_distances(points).max())
