"""The 3D instantiation of the paper's algorithm (Section 6.3.2).

Safe regions generalise verbatim: with respect to a distant neighbour the
safe region of a robot is the closed *ball* of radius ``V_Y/(8k)`` centred
at that distance from the robot in the neighbour's direction.  The paper
leaves the destination rule's 3D details to future work; the concrete rule
implemented here is:

* if the distant neighbours' directions do not fit in an open half-space,
  stay put (the intersection of the safe balls is the robot's location);
* otherwise move along the *mean direction* of the distant neighbours, as
  far as allowed by every distant safe ball (and never farther than the
  ball radius ``V_Y/(8k)``).

The chosen destination provably lies in every distant safe ball — the
step length along a unit direction ``u`` inside the ball toward ``d_j`` is
at most ``2 r (u . d_j)`` — so a single activation can never break
visibility with a stationary neighbour, mirroring the planar analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry.tolerances import EPS
from .halfspace import fits_in_open_halfspace_array
from .model3 import Snapshot3
from .vector3 import Vector3


@dataclass
class KKNPS3Algorithm:
    """The 3D motion rule: snapshot in, destination (relative) out."""

    k: int = 1
    close_fraction: float = 0.5
    radius_divisor: float = 8.0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("the asynchrony bound k must be at least 1")
        if not 0.0 < self.close_fraction < 1.0:
            raise ValueError("close_fraction must lie in (0, 1)")
        if self.radius_divisor < 4.0:
            raise ValueError("radius divisor below 4 violates the safe-region analysis")
        self.name = f"kknps3(k={self.k})"

    @property
    def alpha(self) -> float:
        """The 1/k scaling applied to the safe balls."""
        return 1.0 / float(self.k)

    def safe_radius(self, v_lower_bound: float) -> float:
        """Radius of the scaled safe ball for the given range lower bound."""
        return self.alpha * v_lower_bound / self.radius_divisor

    def compute(self, snapshot: Snapshot3) -> Vector3:
        """Destination in snapshot-local coordinates (observer at the origin)."""
        if not snapshot.has_neighbours():
            return Vector3.zero()
        relative = np.array([(p.x, p.y, p.z) for p in snapshot.neighbours], dtype=float)
        destination = self.compute_array(relative)
        return Vector3(float(destination[0]), float(destination[1]), float(destination[2]))

    def compute_array(self, relative: np.ndarray) -> np.ndarray:
        """:meth:`compute` on an ``(m, 3)`` array of relative positions.

        This is the rule's single numeric core — the scalar
        :meth:`compute` delegates here, and the array engine mode calls
        it directly on whole neighbour batches, so the two stay
        bit-identical by construction.
        """
        pts = np.asarray(relative, dtype=float).reshape(-1, 3)
        zero = np.zeros(3, dtype=float)
        if len(pts) == 0:
            return zero
        norms = np.sqrt(
            pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1] + pts[:, 2] * pts[:, 2]
        )
        v_y = float(norms.max())
        if v_y <= EPS:
            return zero

        # Distant neighbours: beyond close_fraction * V_Y, falling back to
        # the single farthest neighbour when none qualify (mirroring
        # Snapshot3.distant_neighbours).
        distant = np.flatnonzero(norms > self.close_fraction * v_y + EPS)
        if distant.size == 0:
            distant = np.array([int(norms.argmax())])
        lengths = norms[distant]
        nonzero = lengths > EPS
        if not nonzero.any():
            return zero
        directions = pts[distant[nonzero]] / lengths[nonzero, None]
        if not fits_in_open_halfspace_array(directions):
            return zero

        mean = directions.sum(axis=0)
        mean_norm = float(
            np.sqrt(mean[0] * mean[0] + mean[1] * mean[1] + mean[2] * mean[2])
        )
        if mean_norm <= EPS:
            return zero
        direction = mean / mean_norm

        radius = self.safe_radius(v_y)
        # Largest step along `direction` that stays inside every distant safe
        # ball: the chord of the ball toward d_j along u has length 2 r (u.d_j).
        # max(0, .) commutes with the min over neighbours, so one reduction
        # suffices.
        step = min(radius, max(0.0, 2.0 * radius * float((directions @ direction).min())))
        if step <= EPS:
            return zero
        return direction * step

    def destination_respects_safe_balls(self, snapshot: Snapshot3, *, eps: float = 1e-9) -> bool:
        """Verification helper: the destination lies in every distant safe ball."""
        destination = self.compute(snapshot)
        v_y = snapshot.farthest_distance()
        radius = self.safe_radius(v_y)
        for neighbour in snapshot.distant_neighbours(self.close_fraction):
            if neighbour.norm() <= EPS:
                continue
            center = neighbour.unit() * radius
            if destination.distance_to(center) > radius + eps:
                return False
        return True
