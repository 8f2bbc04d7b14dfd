"""The continuous-time 3D engine: the shared kernel with 3D hooks.

Until this module existed, the 3D extension could only run a round-based
(semi-)synchronous loop — the k-Async / k-NestA / unbounded-Async
schedulers that embody the paper's separation between bounded and
unbounded asynchrony lived exclusively in the planar engine.  The
dimension-generic :class:`~repro.engine.kernel.ContinuousKernel` closes
that gap: this module supplies the 3D hooks (uniformly random rotation
frames, the batched ``(m, 3)`` Look filter, the
:meth:`~repro.spatial3d.kknps3.KKNPS3Algorithm.compute_array` destination
rule, dimension-generic perception/motion error models) and with them the
*full* scheduler family drives 3D runs: interpolated mid-move Looks,
overlapping activity intervals, xi-rigid truncation — the exact
continuous-time semantics of the planar engine, in 3-space.  Its samples
go through the one :class:`~repro.engine.metrics.MetricsCollector`, which
takes ``(n, d)`` rows, and its result reads its measures from them.

The Look filter uses the 3D extension's historical visibility tolerance
(:data:`~repro.spatial3d.engine3.VIS_EPS`) so the continuous engine is
consistent with the round engine's notion of who sees whom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..engine.kernel import ContinuousKernel, Decision
from ..engine.logs import EndTimeLog
from ..engine.metrics import MetricsCollector
from ..model.errors import MotionModel, PerceptionModel
from ..model.robot import KinematicArrays
from ..model.types import Activation
from ..schedulers.base import Scheduler
from ..schedulers.kasync import KAsyncScheduler
from .engine3 import (
    VIS_EPS,
    random_rotation3,
    rotate_back3,
    rotate_rows3,
    visible_mask3,
    visible_relative3,
)
from .kknps3 import KKNPS3Algorithm
from .model3 import ConfigurationViews3, positions_as_array3
from .vector3 import Vector3Like


@dataclass
class AsyncSimulation3Config:
    """Parameters of a continuous-time 3D run.

    Mirrors the planar :class:`~repro.engine.simulator.SimulationConfig`
    where the notion transfers; ``rotate_frames`` replaces the planar
    frame knobs (3D disorientation is a uniformly random rotation).
    """

    visibility_range: float = 1.0
    perception: PerceptionModel = field(default_factory=PerceptionModel.exact)
    motion: MotionModel = field(default_factory=MotionModel.rigid)
    seed: int = 0
    max_activations: int = 5000
    max_time: float = math.inf
    convergence_epsilon: float = 0.05
    stop_at_convergence: bool = True
    rotate_frames: bool = True
    record_every: int = 1
    crashed_robots: tuple = ()
    #: Whether a round's Looks read the run's carried visible pairs (as
    #: in the planar config); per-activation Looks are always dense.
    spatial_index: Optional[bool] = None
    #: Whether fsync/ssync rounds take the batched round path; False
    #: heaps them, the per-activation reference path.
    round_batching: bool = True

    def __post_init__(self) -> None:
        if self.visibility_range <= 0.0:
            raise ValueError("visibility range must be positive")
        if self.max_activations < 1:
            raise ValueError("max_activations must be at least 1")
        if self.convergence_epsilon <= 0.0:
            raise ValueError("convergence_epsilon must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if self.perception.distortion is not None and self.perception.distortion.amplitude != 0.0:
            raise ValueError(
                "angular distortion is a planar error model; 3D runs support "
                "distance error and motion error only"
            )


@dataclass(eq=False)
class Simulation3AsyncResult(ConfigurationViews3):
    """Outcome of one continuous-time 3D run.

    The measures read the run's own samples, as the planar result's do:
    the full t=0 and final samples and the collector's initial edges.
    Positions are kept as ``(n, 3)`` rows (:class:`ConfigurationViews3`).
    """

    initial_positions: np.ndarray
    final_positions: np.ndarray
    visibility_range: float
    metrics: MetricsCollector
    activations_processed: int
    activation_counts: Dict[int, int]
    end_times: EndTimeLog
    converged: bool
    convergence_time: Optional[float]
    cohesion_maintained: bool
    final_time: float
    wall_time_seconds: float

    @cached_property
    def activation_end_times(self) -> Dict[int, List[float]]:
        """Each robot's activity-cycle end times, in order."""
        return self.end_times.as_dict()

    @property
    def final_diameter(self) -> float:
        """Diameter of the final configuration (the final sample's)."""
        return self.metrics.latest().hull_diameter

    @property
    def initial_diameter(self) -> float:
        """Diameter of the initial configuration (the t=0 sample's)."""
        return self.metrics.samples[0].hull_diameter

    @property
    def final_min_pairwise_distance(self) -> float:
        """Smallest separation of the final configuration (the final full sample's)."""
        return self.metrics.samples[-1].min_pairwise_distance


class Kernel3(ContinuousKernel):
    """The 3D instantiation of the continuous-time kernel."""

    def _frame_for_look(self) -> Optional[np.ndarray]:
        if not self.config.rotate_frames:
            return None
        return random_rotation3(self.rng)

    def _pair_rule(self):
        """:func:`visible_relative3`'s filter at the effective range, for pairs."""
        limit = self._effective_range()
        return limit + VIS_EPS, lambda dx, dy, dz: visible_mask3(dx, dy, dz, limit)

    def _decide_move(
        self,
        robot_id: int,
        look_time: float,
        other_positions,
        activation: Activation,
    ) -> Decision:
        cfg = self.config
        observer = self._arrays.position[robot_id]
        rotation = self._frame_for_look()
        relative = visible_relative3(
            observer, other_positions, self._effective_range()
        )
        neighbours_seen = len(relative)
        if rotation is not None and neighbours_seen:
            relative = rotate_rows3(rotation, relative)
        perceived = cfg.perception.perceive_array(relative, self.rng)
        destination_local = self.algorithm.compute_array(perceived)
        if rotation is not None:
            displacement = rotate_back3(rotation, destination_local)
        else:
            displacement = destination_local
        target = observer + displacement
        realized = cfg.motion.realize_array(
            observer, target, activation.progress_fraction, self.rng
        )
        return target, realized, neighbours_seen


def run_simulation3_async(
    initial_positions: Sequence[Vector3Like],
    algorithm: Optional[KKNPS3Algorithm] = None,
    scheduler: Optional[Scheduler] = None,
    config: Optional[AsyncSimulation3Config] = None,
) -> Simulation3AsyncResult:
    """Run the 3D algorithm under any continuous-time scheduler.

    This is the 3D sibling of :func:`repro.engine.simulator.run_simulation`:
    the same scheduler objects (FSync, SSync, k-NestA, k-Async, Async,
    scripted) drive the run, activations are consumed in global look-time
    order, and Looks interpolate mid-move robots — the paper's
    continuous-time semantics, with the ball-safe-region destination rule.
    """
    config = config or AsyncSimulation3Config()
    algorithm = algorithm or KKNPS3Algorithm(k=1)
    scheduler = scheduler or KAsyncScheduler(k=1)

    positions = positions_as_array3(initial_positions)
    kernel = Kernel3(KinematicArrays.from_array(positions), algorithm, scheduler, config)
    outcome = kernel.run_kernel()

    return Simulation3AsyncResult(
        initial_positions=positions,
        final_positions=outcome.final_positions,
        visibility_range=config.visibility_range,
        metrics=outcome.metrics,
        activations_processed=outcome.processed,
        activation_counts=kernel.activation_counts(),
        end_times=outcome.end_times,
        converged=outcome.converged_time is not None,
        convergence_time=outcome.converged_time,
        cohesion_maintained=not outcome.metrics.cohesion_ever_violated,
        final_time=outcome.final_time,
        wall_time_seconds=outcome.wall_time_seconds,
    )
