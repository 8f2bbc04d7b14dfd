"""Ando, Oasa, Suzuki and Yamashita's Go-To-The-Centre-Of-The-SEC algorithm.

The classical limited-visibility convergence algorithm (reviewed in
Section 3.1 of the paper).  Upon activation a robot:

* observes every robot within the known visibility range ``V``;
* computes the centre of the smallest enclosing circle (SEC) of the
  observed robots (including itself);
* moves as far as possible toward that centre while staying inside the
  safe region of every neighbour — the disk of radius ``V/2`` centred at
  the midpoint between the robot and that neighbour.

The algorithm is correct under SSync but, as Figure 4 of the paper shows,
fails to preserve visibility under 1-Async and 2-NestA scheduling; the
``repro.adversary.ando_counterexample`` module reproduces that failure.

:meth:`AndoAlgorithm.compute` reads the snapshot's perceived rows as
plain floats.  The ``Point``-form rule (``sec_center`` over points, the
``max_step_within_disks`` clamp over safe-region disks) is the test
oracle it is pinned against (``tests/reference/rules.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..geometry.point import Point
from ..geometry.sec import sec_center_array
from ..geometry.tolerances import EPS
from ..model.snapshot import Snapshot
from .base import ConvergenceAlgorithm
from .safe_regions import ando_safe_region_local, point_respects_disks


@dataclass
class AndoAlgorithm(ConvergenceAlgorithm):
    """Go-To-The-Centre-Of-The-SEC with cautious (safe-region-limited) moves."""

    #: Optional cap on the length of a single move (the original algorithm
    #: also limits moves to sigma = V/2-ish constants in some presentations;
    #: ``None`` means the only limit is the safe regions themselves).
    max_move: float | None = None

    requires_visibility_range = True

    def __post_init__(self) -> None:
        self.name = "ando"
        if self.max_move is not None and self.max_move <= 0.0:
            raise ValueError("max_move must be positive when given")

    def compute(self, snapshot: Snapshot) -> Point:
        """Move toward the SEC centre of the visible robots, limited by safe regions.

        Reads the snapshot's perceived rows as plain floats: the SEC goes
        through the memoised :func:`~repro.geometry.sec.sec_center_array`
        and the safe-disk clamp is
        :func:`~repro.algorithms.safe_regions.max_step_within_disks` on
        floats — the same formulas and tolerances as the ``Point`` helpers.
        """
        perceived = snapshot.rows
        m = perceived.shape[0]
        if m == 0:
            return Point.origin()
        visibility_range = self._known_range(snapshot)
        with_self = np.empty((m + 1, 2), dtype=float)
        with_self[0] = 0.0
        with_self[1:] = perceived
        gx, gy = sec_center_array(with_self)
        gnorm = math.hypot(gx, gy)
        if gnorm <= EPS:
            return Point.origin()
        if self.max_move is not None and gnorm > self.max_move:
            gx = (gx / gnorm) * self.max_move
            gy = (gy / gnorm) * self.max_move
        dirx, diry = gx - 0.0, gy - 0.0
        if math.hypot(dirx, diry) <= 1e-12:
            return Point.origin()
        t_max = 1.0
        a = dirx * dirx + diry * diry
        half = visibility_range / 2.0
        for px, py in perceived.tolist():
            cx = (0.0 + px) / 2.0
            cy = (0.0 + py) / 2.0
            fx, fy = 0.0 - cx, 0.0 - cy
            b = 2.0 * (fx * dirx + fy * diry)
            c = (fx * fx + fy * fy) - half * half
            if c > 1e-12:
                return Point.origin()
            discriminant = b * b - 4.0 * a * c
            if discriminant < 0.0:
                discriminant = 0.0
            t_exit = (-b + discriminant ** 0.5) / (2.0 * a)
            t_max = min(t_max, max(0.0, t_exit))
        return Point(0.0 + dirx * t_max, 0.0 + diry * t_max)

    def safe_regions(self, snapshot: Snapshot):
        """The per-neighbour safe disks of this activation (for tests/benches)."""
        visibility_range = self._known_range(snapshot)
        return [ando_safe_region_local(p, visibility_range) for p in snapshot.neighbours]

    def destination_respects_safe_regions(self, snapshot: Snapshot, *, eps: float = 1e-9) -> bool:
        """Check that the computed destination lies in every neighbour's safe disk."""
        return point_respects_disks(
            self.compute(snapshot), self.safe_regions(snapshot), eps=eps
        )
