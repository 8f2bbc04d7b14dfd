"""Measurement-imprecision and motion-error models (Sections 2.3.2, 2.3.3, 6.1).

The paper's robots are subject to three kinds of adversarial inaccuracy:

* **distance measurement error** — the perceived distance to a neighbour is
  accurate only up to a relative factor ``delta``;
* **angle measurement error** — perceived directions pass through a
  symmetric distortion of the local coordinate system with bounded skew
  ``lambda`` (see :class:`repro.geometry.SymmetricDistortion`);
* **motion error** — the realised trajectory deviates from the intended
  straight trajectory; the paper shows linear relative error defeats any
  algorithm while error growing quadratically with the travelled distance
  is tolerated; in addition motion is only ``xi``-rigid (an adversary may
  stop the robot after fraction ``xi`` of its planned move).

Perception errors may be sampled randomly or driven adversarially; both
modes are exposed here.  The engine applies a :class:`PerceptionModel`
when building snapshots and a :class:`MotionModel` when realising moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..geometry.point import Point, PointLike
from ..geometry.tolerances import EPS
from ..geometry.transforms import SymmetricDistortion


@dataclass(frozen=True)
class PerceptionModel:
    """How a robot's Look phase corrupts true relative positions.

    ``distance_error`` is the relative bound ``delta``: a true distance
    ``d`` is perceived as some value in ``[(1 - delta) d, (1 + delta) d]``.
    ``distortion`` is the bounded-skew symmetric distortion applied to the
    perceived direction.  ``bias`` selects how the distance error is drawn:
    ``"random"`` draws uniformly from the allowed interval,
    ``"over"``/``"under"`` always report the extreme over/under estimate
    (the adversarial cases the paper's arguments use), ``"none"`` reports
    the true distance.
    """

    distance_error: float = 0.0
    distortion: Optional[SymmetricDistortion] = None
    bias: str = "random"

    def __post_init__(self) -> None:
        if self.distance_error < 0.0 or self.distance_error >= 1.0:
            raise ValueError("relative distance error must lie in [0, 1)")
        if self.bias not in ("random", "over", "under", "none"):
            raise ValueError(f"unknown perception bias {self.bias!r}")

    @staticmethod
    def exact() -> "PerceptionModel":
        """A perception model with no error at all."""
        return PerceptionModel(0.0, None, "none")

    def is_exact(self) -> bool:
        """True when this model introduces no perception error."""
        return self.distance_error == 0.0 and (
            self.distortion is None or self.distortion.amplitude == 0.0
        )

    def _is_identity(self, rng: Optional[np.random.Generator]) -> bool:
        """True when perception would report every vector unchanged."""
        no_distance_error = (
            self.distance_error == 0.0
            or self.bias == "none"
            or (self.bias == "random" and rng is None)
        )
        no_distortion = self.distortion is None or self.distortion.amplitude == 0.0
        return no_distance_error and no_distortion

    def perceive_vector(
        self, vector: PointLike, rng: Optional[np.random.Generator] = None
    ) -> Point:
        """Perceived version of a true relative position ``vector``.

        Delegates to :meth:`perceive_array` so the scalar and batch paths
        are bit-identical (including the order of any RNG draws).
        """
        v = Point.of(vector)
        out = self.perceive_array(np.array([[v.x, v.y]], dtype=float), rng)
        return Point(float(out[0, 0]), float(out[0, 1]))

    def perceive_array(
        self, vectors: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Perceived versions of an ``(m, d)`` array of true relative positions.

        The batch form of :meth:`perceive_vector`: one polar decomposition
        and one reconstruction for the whole array.  With ``bias ==
        "random"`` the distance factors are drawn as a single
        ``rng.uniform(..., size=k)`` call over the vectors that need one
        (near-zero vectors are reported verbatim and draw nothing), which
        consumes the generator stream exactly as the per-vector loop did.
        Error-free perception is the identity: the true relative positions
        are returned unchanged, with no polar round-trip rounding.

        The model is dimension-generic: in the plane the perceived vector
        is rebuilt from its (possibly distorted) polar form, exactly as it
        always was; in higher dimensions the relative distance error
        scales each vector along its true direction, and the angular
        distortion — an inherently planar notion (a bijection of the
        circle) — raises ``ValueError``.
        """
        arr = np.asarray(vectors, dtype=float)
        if arr.ndim != 2:
            arr = arr.reshape(-1, 2)
        if arr.shape[1] != 2:
            return self._perceive_rows_nd(arr, rng)
        if len(arr) == 0 or self._is_identity(rng):
            return arr
        r = np.hypot(arr[:, 0], arr[:, 1])
        measurable = r > EPS
        if not measurable.any():
            return arr
        r_perceived = r.copy()
        if self.distance_error > 0.0 and self.bias != "none":
            if self.bias == "over":
                r_perceived[measurable] = r[measurable] * (1.0 + self.distance_error)
            elif self.bias == "under":
                r_perceived[measurable] = r[measurable] * (1.0 - self.distance_error)
            elif rng is not None:
                factors = rng.uniform(
                    1.0 - self.distance_error,
                    1.0 + self.distance_error,
                    size=int(measurable.sum()),
                )
                r_perceived[measurable] = r[measurable] * factors
        angle = np.arctan2(arr[:, 1], arr[:, 0])
        if self.distortion is not None:
            angle = self.distortion.apply_angle_array(angle)
        out = np.column_stack((r_perceived * np.cos(angle), r_perceived * np.sin(angle)))
        out[~measurable] = arr[~measurable]
        return out

    def _perceive_rows_nd(
        self, arr: np.ndarray, rng: Optional[np.random.Generator]
    ) -> np.ndarray:
        """The d > 2 branch of :meth:`perceive_array` (radial error only)."""
        if self.distortion is not None and self.distortion.amplitude != 0.0:
            raise ValueError(
                "angular distortion is a planar error model and has no "
                f"{arr.shape[1]}-dimensional counterpart"
            )
        if len(arr) == 0 or self._is_identity(rng):
            return arr
        r = np.sqrt((arr * arr).sum(axis=1))
        measurable = r > EPS
        if not measurable.any():
            return arr
        factor = np.ones(len(arr), dtype=float)
        if self.distance_error > 0.0 and self.bias != "none":
            if self.bias == "over":
                factor[measurable] = 1.0 + self.distance_error
            elif self.bias == "under":
                factor[measurable] = 1.0 - self.distance_error
            elif rng is not None:
                factor[measurable] = rng.uniform(
                    1.0 - self.distance_error,
                    1.0 + self.distance_error,
                    size=int(measurable.sum()),
                )
        return arr * factor[:, None]

    def skew(self) -> float:
        """The skew bound of the angular distortion (0 when undistorted)."""
        return 0.0 if self.distortion is None else self.distortion.skew()


@dataclass(frozen=True)
class MotionModel:
    """How a robot's Move phase realises the planned trajectory.

    ``xi`` is the rigidity constant: the robot always covers at least the
    fraction ``xi`` of the planned move (the scheduler picks the actual
    fraction per activation, which the engine clamps to ``[xi, 1]``).

    ``deviation`` selects the lateral error of the realised endpoint from
    the intended straight trajectory: ``"none"``, ``"linear"`` (error up to
    ``coefficient * d``) or ``"quadratic"`` (error up to
    ``coefficient * d^2 / scale``), where ``d`` is the planned distance.
    Section 6.1 and Figure 18 of the paper show linear error defeats every
    algorithm while quadratic error is tolerated.
    """

    xi: float = 1.0
    deviation: str = "none"
    coefficient: float = 0.0
    scale: float = 1.0
    bias: str = "random"

    def __post_init__(self) -> None:
        if not 0.0 < self.xi <= 1.0:
            raise ValueError("xi must lie in (0, 1]")
        if self.deviation not in ("none", "linear", "quadratic"):
            raise ValueError(f"unknown deviation model {self.deviation!r}")
        if self.coefficient < 0.0:
            raise ValueError("deviation coefficient must be non-negative")
        if self.scale <= 0.0:
            raise ValueError("deviation scale must be positive")
        if self.bias not in ("random", "adversarial"):
            raise ValueError(f"unknown motion bias {self.bias!r}")

    @staticmethod
    def rigid() -> "MotionModel":
        """Fully rigid, error-free motion."""
        return MotionModel()

    def is_rigid(self) -> bool:
        """True when motion is rigid (xi == 1) and free of lateral error."""
        return self.xi == 1.0 and (self.deviation == "none" or self.coefficient == 0.0)

    def clamp_fraction(self, requested_fraction: float) -> float:
        """Clamp a scheduler-requested progress fraction into ``[xi, 1]``."""
        return min(1.0, max(self.xi, requested_fraction))

    def max_deviation(self, planned_distance: float) -> float:
        """Largest lateral deviation allowed for a move of ``planned_distance``."""
        if self.deviation == "none" or self.coefficient == 0.0:
            return 0.0
        if self.deviation == "linear":
            return self.coefficient * planned_distance
        return self.coefficient * planned_distance * planned_distance / self.scale

    def realize(
        self,
        origin: PointLike,
        target: PointLike,
        requested_fraction: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ) -> Point:
        """Endpoint actually reached when moving from ``origin`` toward ``target``.

        The move covers ``clamp_fraction(requested_fraction)`` of the
        planned distance along the intended direction and is then displaced
        laterally by at most :meth:`max_deviation` of the *planned* length.
        With ``bias == "adversarial"`` the full lateral deviation is always
        applied (in the +90-degree direction); with ``"random"`` it is
        sampled uniformly.
        """
        origin, target = Point.of(origin), Point.of(target)
        planned = origin.distance_to(target)
        if planned <= EPS:
            return origin
        fraction = self.clamp_fraction(requested_fraction)
        along = origin.lerp(target, fraction)
        max_dev = self.max_deviation(planned)
        if max_dev <= 0.0:
            return along
        direction = origin.direction_to(target).perpendicular()
        if self.bias == "adversarial" or rng is None:
            offset = max_dev
        else:
            offset = float(rng.uniform(-max_dev, max_dev))
        return along + direction * offset

    def realize_array(
        self,
        origin: np.ndarray,
        target: np.ndarray,
        requested_fraction: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """:meth:`realize` on coordinate rows, in any spatial dimension.

        In the plane the arithmetic mirrors the :class:`Point` path
        operation for operation (same clamp, same interpolation, same
        fixed +90-degree lateral direction), so the two forms agree bit
        for bit.  In higher dimensions the lateral deviation leaves along
        a unit direction perpendicular to the planned trajectory: a
        deterministic one under ``bias == "adversarial"`` (or without an
        RNG), otherwise a uniformly random direction on the perpendicular
        circle (one Gaussian draw of ``d`` components) followed by the
        same uniform offset draw the planar path makes.
        """
        origin = np.asarray(origin, dtype=float)
        target = np.asarray(target, dtype=float)
        dim = origin.shape[-1]
        delta = target - origin
        if dim == 2:
            planned = math.hypot(float(delta[0]), float(delta[1]))
        else:
            planned = math.sqrt(float((delta * delta).sum()))
        if planned <= EPS:
            return origin.copy()
        fraction = self.clamp_fraction(requested_fraction)
        along = origin + delta * fraction
        max_dev = self.max_deviation(planned)
        if max_dev <= 0.0:
            return along
        unit = delta / planned
        if dim == 2:
            direction = np.array((-unit[1], unit[0]), dtype=float)
        elif self.bias == "adversarial" or rng is None:
            direction = _deterministic_perpendicular(unit)
        else:
            direction = _random_perpendicular(unit, rng)
        if self.bias == "adversarial" or rng is None:
            offset = max_dev
        else:
            offset = float(rng.uniform(-max_dev, max_dev))
        return along + direction * offset


def _deterministic_perpendicular(unit: np.ndarray) -> np.ndarray:
    """A fixed unit vector perpendicular to ``unit`` (for adversarial bias).

    Projects out the axis least aligned with the trajectory, so the
    result is well-conditioned for every direction.
    """
    axis = np.zeros_like(unit)
    axis[int(np.abs(unit).argmin())] = 1.0
    perpendicular = axis - float(axis @ unit) * unit
    return perpendicular / math.sqrt(float((perpendicular * perpendicular).sum()))


def _random_perpendicular(unit: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random unit vector perpendicular to ``unit``."""
    gaussian = rng.normal(size=unit.shape[0])
    perpendicular = gaussian - float(gaussian @ unit) * unit
    norm = math.sqrt(float((perpendicular * perpendicular).sum()))
    if norm <= EPS:  # pragma: no cover - measure-zero draw
        return _deterministic_perpendicular(unit)
    return perpendicular / norm
