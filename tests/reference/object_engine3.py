"""The per-robot ``Vector3`` round loop: the oracle of the 3D round engine.

Before the 3D round simulator ran on the continuous-time kernel, its loop
worked robot by robot on :class:`~repro.spatial3d.vector3.Vector3`
objects with per-neighbour Python filtering.  This module keeps that loop,
unchanged in behaviour, as the reference
:func:`repro.spatial3d.run_simulation3` must match bit for bit
(``tests/spatial3d/test_engine3.py``), and as the baseline
``benchmarks/bench_engine3d.py`` times the array engine against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

import numpy as np

from repro.spatial3d.engine3 import VIS_EPS, RoundOutcome, random_rotation3
from repro.spatial3d.kknps3 import KKNPS3Algorithm
from repro.spatial3d.model3 import (
    Configuration3,
    Edge,
    Snapshot3,
    edges_preserved3,
    positions_as_array3,
)
from repro.spatial3d.simulator3 import Simulation3Config, Simulation3Result
from repro.spatial3d.vector3 import Vector3, Vector3Like, max_pairwise_distance3


def activated_indices(rng: np.random.Generator, n: int, probability: float) -> List[int]:
    """The robots activated this round: one scalar draw per robot, in order."""
    activated = [i for i in range(n) if rng.random() < probability]
    if not activated:
        activated = [int(rng.integers(0, n))]
    return activated


def run_rounds_object(
    positions: np.ndarray,
    algorithm: KKNPS3Algorithm,
    initial_edges: Set[Edge],
    *,
    visibility_range: float,
    max_rounds: int,
    convergence_epsilon: float,
    activation_probability: float,
    xi: float,
    rng: np.random.Generator,
    rotate_frames: bool,
) -> RoundOutcome:
    """The per-robot round loop; always scans every robot densely."""
    points: List[Vector3] = [
        Vector3(float(x), float(y), float(z)) for x, y, z in np.asarray(positions, float)
    ]
    n = len(points)
    v = visibility_range

    diameter_history = [max_pairwise_distance3(points)]
    cohesion = True
    converged_round: Optional[int] = None
    activations = 0

    for round_index in range(max_rounds):
        activated = activated_indices(rng, n, activation_probability)
        activations += len(activated)

        new_points = list(points)
        for index in activated:
            observer = points[index]
            rotation = random_rotation3(rng) if rotate_frames else None
            relative: List[Vector3] = []
            for j, p in enumerate(points):
                if j == index:
                    continue
                distance = observer.distance_to(p)
                if distance <= v + VIS_EPS and distance > VIS_EPS:
                    rel = p - observer
                    if rotation is not None:
                        rel = Vector3(
                            rotation[0, 0] * rel.x + rotation[0, 1] * rel.y + rotation[0, 2] * rel.z,
                            rotation[1, 0] * rel.x + rotation[1, 1] * rel.y + rotation[1, 2] * rel.z,
                            rotation[2, 0] * rel.x + rotation[2, 1] * rel.y + rotation[2, 2] * rel.z,
                        )
                    relative.append(rel)
            snapshot = Snapshot3(neighbours=tuple(relative))
            local = algorithm.compute(snapshot)
            if rotation is not None:
                displacement = Vector3(
                    rotation[0, 0] * local.x + rotation[1, 0] * local.y + rotation[2, 0] * local.z,
                    rotation[0, 1] * local.x + rotation[1, 1] * local.y + rotation[2, 1] * local.z,
                    rotation[0, 2] * local.x + rotation[1, 2] * local.y + rotation[2, 2] * local.z,
                )
            else:
                displacement = local
            fraction = float(rng.uniform(xi, 1.0))
            new_points[index] = observer + displacement * fraction
        points = new_points

        diameter = max_pairwise_distance3(points)
        diameter_history.append(diameter)
        if not edges_preserved3(initial_edges, points, v):
            cohesion = False
        if diameter <= convergence_epsilon and converged_round is None:
            converged_round = round_index + 1
            break

    final = np.array([(p.x, p.y, p.z) for p in points], dtype=float)
    return RoundOutcome(final, diameter_history, converged_round, cohesion, activations)


def run_simulation3_object(
    initial_positions: Sequence[Vector3Like],
    algorithm: Optional[KKNPS3Algorithm] = None,
    config: Optional[Simulation3Config] = None,
) -> Simulation3Result:
    """:func:`repro.spatial3d.run_simulation3` on the per-robot loop.

    ``config.spatial_index`` is ignored: the loop always scans densely.
    """
    config = config or Simulation3Config()
    algorithm = algorithm or KKNPS3Algorithm(k=1)
    rng = np.random.default_rng(config.seed)

    positions = positions_as_array3(initial_positions)
    initial = Configuration3.of(positions, config.visibility_range)
    outcome = run_rounds_object(
        positions,
        algorithm,
        initial.edges(),
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
    )
