"""A round-based simulator for the 3D extension.

The planar engine carries the full continuous-time machinery; for the 3D
extension (whose purpose is to demonstrate that the generalised safe
regions and destination rule still congregate cohesively) a semi-
synchronous round simulator with optional activation subsets and
``xi``-rigid truncation is sufficient and keeps the extension compact.

The round loop itself lives in :mod:`repro.spatial3d.engine3`; this
module owns the public entry point, the configuration and the result
type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..engine.metrics import MetricsCollector
from .engine3 import run_rounds_array
from .kknps3 import KKNPS3Algorithm
from .model3 import ConfigurationViews3, positions_as_array3
from .vector3 import Vector3Like


@dataclass
class Simulation3Config:
    """Parameters of a 3D round-based run."""

    visibility_range: float = 1.0
    max_rounds: int = 2000
    convergence_epsilon: float = 0.05
    activation_probability: float = 1.0
    xi: float = 1.0
    seed: int = 0
    rotate_frames: bool = True

    def __post_init__(self) -> None:
        if self.visibility_range <= 0.0:
            raise ValueError("visibility range must be positive")
        if not 0.0 < self.activation_probability <= 1.0:
            raise ValueError("activation_probability must lie in (0, 1]")
        if not 0.0 < self.xi <= 1.0:
            raise ValueError("xi must lie in (0, 1]")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")


@dataclass(eq=False)
class Simulation3Result(ConfigurationViews3):
    """Outcome of a 3D run.

    ``metrics`` is the run's collector (its t=0 sample, one step sample
    per round and the final full sample, in time order: a round's sample
    is stamped when its moves end, so the last round's sample shares its
    time with the final one), which sweep rows read their measures from.
    Positions are kept as ``(n, 3)`` rows (:class:`ConfigurationViews3`).
    """

    initial_positions: np.ndarray
    final_positions: np.ndarray
    visibility_range: float
    rounds_executed: int
    converged: bool
    cohesion_maintained: bool
    diameter_history: List[float] = field(default_factory=list)
    activations_executed: int = 0
    metrics: Optional[MetricsCollector] = None

    @property
    def final_diameter(self) -> float:
        """Diameter of the final configuration (the last round's sample)."""
        return self.diameter_history[-1]


def run_simulation3(
    initial_positions: Sequence[Vector3Like],
    algorithm: Optional[KKNPS3Algorithm] = None,
    config: Optional[Simulation3Config] = None,
) -> Simulation3Result:
    """Run the 3D algorithm under a (semi-)synchronous round scheduler."""
    config = config or Simulation3Config()
    algorithm = algorithm or KKNPS3Algorithm(k=1)
    rng = np.random.default_rng(config.seed)

    positions = positions_as_array3(initial_positions)
    outcome = run_rounds_array(
        positions,
        algorithm,
        visibility_range=config.visibility_range,
        max_rounds=config.max_rounds,
        convergence_epsilon=config.convergence_epsilon,
        activation_probability=config.activation_probability,
        xi=config.xi,
        rng=rng,
        rotate_frames=config.rotate_frames,
    )

    return Simulation3Result(
        initial_positions=positions,
        final_positions=outcome.final_positions,
        visibility_range=config.visibility_range,
        rounds_executed=len(outcome.diameter_history) - 1,
        converged=outcome.converged_round is not None,
        cohesion_maintained=outcome.cohesion_maintained,
        diameter_history=outcome.diameter_history,
        activations_executed=outcome.activations_executed,
        metrics=outcome.metrics,
    )
