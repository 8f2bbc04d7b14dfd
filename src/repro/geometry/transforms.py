"""Local coordinate frames and symmetric angular distortions.

Robots in the OBLOT model are disoriented: every Look phase reports
positions in a private coordinate system that may be an arbitrary rigid
transformation (rotation, reflection, translation, and here also uniform
scaling of the length unit) of the global frame, and may additionally be
*distorted*.  The paper's error model (Sections 2.3.3 and 6.1) considers
symmetric distortions ``mu`` of the angular coordinate — continuous
bijections of the circle with ``mu(theta + pi) = mu(theta) + pi`` — whose
*skew* is bounded by ``lambda < 1``:

    (1 - lambda) * xi <= mu(theta + xi) - mu(theta) <= (1 + lambda) * xi.

This module provides rigid local frames and a concrete parametric family
of bounded-skew symmetric distortions used by the error-model experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from .angles import normalize_angle_positive
from .point import Point, PointLike
from .tolerances import EPS


@dataclass(frozen=True)
class LocalFrame:
    """A rigid private coordinate frame (rotation, optional reflection, origin, scale)."""

    origin: Point
    rotation: float = 0.0
    reflected: bool = False
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= EPS:
            raise ValueError("frame scale must be positive")
        object.__setattr__(self, "origin", Point.of(self.origin))

    def to_local(self, point: PointLike) -> Point:
        """Express a global point in this frame."""
        p = Point.of(point) - self.origin
        p = p.rotated(-self.rotation)
        if self.reflected:
            p = Point(p.x, -p.y)
        return p / self.scale

    def to_global(self, point: PointLike) -> Point:
        """Express a frame-local point in global coordinates."""
        p = Point.of(point) * self.scale
        if self.reflected:
            p = Point(p.x, -p.y)
        p = p.rotated(self.rotation)
        return p + self.origin

    def to_local_many(self, points: Iterable[PointLike]) -> List[Point]:
        """Vector-friendly convenience: convert a collection of points."""
        return [self.to_local(p) for p in points]

    def to_global_many(self, points: Iterable[PointLike]) -> List[Point]:
        """Convert a collection of frame-local points to global coordinates."""
        return [self.to_global(p) for p in points]

    def to_local_array(self, array) -> "np.ndarray":
        """Express an ``(m, 2)`` array of global points in this frame.

        The rotation coefficients are the same ``math.cos``/``math.sin``
        scalars the per-point path uses and the elementwise arithmetic is
        IEEE-identical, so the rows match :meth:`to_local` bit for bit.
        """
        arr = np.asarray(array, dtype=float).reshape(-1, 2)
        x = arr[:, 0] - self.origin.x
        y = arr[:, 1] - self.origin.y
        c, s = math.cos(-self.rotation), math.sin(-self.rotation)
        rx = c * x - s * y
        ry = s * x + c * y
        if self.reflected:
            ry = -ry
        return np.column_stack((rx / self.scale, ry / self.scale))


@dataclass(frozen=True)
class SymmetricDistortion:
    """A bounded-skew symmetric distortion of the angular coordinate.

    The concrete family used is ``mu(theta) = theta + (amplitude / frequency)
    * sin(frequency * theta)`` with an even ``frequency``; the evenness
    gives the required symmetry ``mu(theta + pi) = mu(theta) + pi`` and the
    derivative ``1 + amplitude * cos(frequency * theta)`` keeps the skew
    bounded by ``amplitude``.

    ``amplitude = 0`` is the identity (no distortion).
    """

    amplitude: float = 0.0
    frequency: int = 2
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("distortion amplitude (skew) must lie in [0, 1)")
        if self.frequency % 2 != 0 or self.frequency <= 0:
            raise ValueError("distortion frequency must be a positive even integer")

    def skew(self) -> float:
        """The skew bound lambda of this distortion."""
        return self.amplitude

    def apply_angle(self, theta: float) -> float:
        """Distorted image of the angle ``theta`` (radians)."""
        if self.amplitude == 0.0:
            return theta
        return theta + (self.amplitude / self.frequency) * math.sin(
            self.frequency * (theta - self.phase)
        )

    def apply_angle_array(self, theta: np.ndarray) -> np.ndarray:
        """Distorted image of an array of angles (the batch-perception form).

        Uses ``np.sin`` where :meth:`apply_angle` uses ``math.sin``; both
        snapshot paths route through this form so their outputs agree
        exactly.
        """
        theta = np.asarray(theta, dtype=float)
        if self.amplitude == 0.0:
            return theta
        return theta + (self.amplitude / self.frequency) * np.sin(
            self.frequency * (theta - self.phase)
        )

    def apply_vector(self, vector: PointLike) -> Point:
        """Distort a displacement vector: same length, distorted direction."""
        v = Point.of(vector)
        r = v.norm()
        if r <= EPS or self.amplitude == 0.0:
            return v
        return Point.polar(r, self.apply_angle(v.angle()))

    def is_symmetric(self, *, samples: int = 64, eps: float = 1e-9) -> bool:
        """Numerically verify ``mu(theta + pi) = mu(theta) + pi`` (a test helper)."""
        for i in range(samples):
            theta = 2.0 * math.pi * i / samples
            lhs = normalize_angle_positive(self.apply_angle(theta + math.pi))
            rhs = normalize_angle_positive(self.apply_angle(theta) + math.pi)
            diff = abs(lhs - rhs)
            diff = min(diff, 2.0 * math.pi - diff)
            if diff > eps:
                return False
        return True

    def max_observed_skew(self, *, samples: int = 2048) -> float:
        """Largest observed relative deviation of angle differences (test helper)."""
        worst = 0.0
        for i in range(samples):
            theta = 2.0 * math.pi * i / samples
            xi = math.pi * (i % 7 + 1) / 16.0
            delta = self.apply_angle(theta + xi) - self.apply_angle(theta)
            worst = max(worst, abs(delta - xi) / xi)
        return worst


def random_frame(rng, *, allow_reflection: bool = True, scale_range=(1.0, 1.0)) -> LocalFrame:
    """Draw a random private frame for one Look phase.

    ``rng`` is a ``numpy.random.Generator``; the origin is left at (0, 0)
    because snapshots are always expressed relative to the observing robot.
    """
    rotation = float(rng.uniform(0.0, 2.0 * math.pi))
    reflected = bool(rng.integers(0, 2)) if allow_reflection else False
    lo, hi = scale_range
    scale = float(rng.uniform(lo, hi)) if hi > lo else float(lo)
    return LocalFrame(Point.origin(), rotation=rotation, reflected=reflected, scale=scale)
