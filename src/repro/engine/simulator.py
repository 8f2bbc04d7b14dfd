"""The planar front end of the continuous-time simulation kernel.

The event-driven activation pipeline itself — scheduler batches consumed
in global ``look_time`` order, instantaneous Looks over interpolated
kinematic state, phase transitions, metrics cadence and stopping rules —
lives dimension-generically in :mod:`repro.engine.kernel`.  This module
supplies the planar pieces the kernel leaves open, realising exactly the
semantics the paper's proofs reason about:

* the Look phase snapshots the positions of all robots within the
  visibility range *at that instant* (robots mid-move are interpolated
  along their realised trajectories) and expresses them in a private,
  possibly distorted, coordinate frame (:func:`build_snapshot`);
* the Compute phase runs the algorithm on the snapshot and yields a
  destination;
* the Move phase translates the robot along a straight line toward the
  destination; the scheduler's progress fraction (clamped to the motion
  model's xi) and the motion-error model determine the realised endpoint.

Every per-robot decide — each heaped activation, and each round the
flat round decide (:mod:`repro.engine.decide_batch`) declines — is one
call of :meth:`Simulator._decide_move`: :func:`build_snapshot` keeps the
perceived rows, and the algorithm's ``compute`` reads them (the KKNPS
and Ando rules as plain floats, without building ``Point`` neighbours).

The hull diameter and cohesion (preservation of the initial visibility
edges) are sampled at every processed activation; the full samples at
t=0 and at the end of the run add the hull perimeter, bounding-circle
radius and minimum separation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..geometry.point import Point, PointLike, array_to_points
from ..geometry.tolerances import EPS
from ..geometry.transforms import LocalFrame, random_frame
from ..model.configuration import Configuration
from ..model.errors import MotionModel, PerceptionModel
from ..model.robot import KinematicArrays
from ..model.snapshot import build_snapshot, visible_mask
from ..model.types import Activation, RoundBatch
from ..algorithms.base import ConvergenceAlgorithm
from ..algorithms.kknps import KKNPSAlgorithm
from ..schedulers.base import Scheduler
from .convergence import ConvergenceSummary, epochs_to_converge, summarize
from .decide_batch import collapse_hazard_lanes, decide_round_flat
from .kernel import ContinuousKernel, Decision, KernelRun
from .logs import EndTimeLog, RecordLog
from .metrics import MetricsCollector
from .recorder import TrajectoryRecorder

@dataclass
class SimulationConfig:
    """Everything about a run that is not the configuration, algorithm or scheduler."""

    visibility_range: float = 1.0
    perception: PerceptionModel = field(default_factory=PerceptionModel.exact)
    motion: MotionModel = field(default_factory=MotionModel.rigid)
    seed: int = 0
    max_activations: int = 5000
    max_time: float = math.inf
    convergence_epsilon: float = 1e-3
    stop_at_convergence: bool = True
    use_random_frames: bool = True
    allow_reflection: bool = True
    k_bound: Optional[int] = None
    multiplicity_detection: bool = False
    record_every: int = 1
    record_trajectories: bool = False
    crashed_robots: tuple = ()
    #: Whether a scheduler's whole rounds (fsync, ssync) take the batched
    #: round path; False heaps them, the per-activation reference path.
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


@dataclass(eq=False)
class SimulationResult:
    """Outcome of one simulation run.

    Positions are kept as the engine's ``(n, 2)`` rows and cycle end times
    as an :class:`EndTimeLog`; the :class:`Configuration` views (over a
    copy of the rows) and the ``activation_end_times`` dict are built on
    first access.

    The reported measures read what the run already measured: the full
    t=0 sample of the initial positions (``metrics.samples[0]``), the
    full sample of the settled final positions (``metrics.latest()``) and
    the collector's initial-edge index arrays.  They equal the
    :class:`Configuration` measures bit for bit without building a Point
    or an ``(n, n)`` matrix.
    """

    initial_positions: np.ndarray
    final_positions: np.ndarray
    visibility_range: float
    metrics: MetricsCollector
    activations_processed: int
    activation_counts: Dict[int, int]
    end_times: EndTimeLog
    records: RecordLog
    converged: bool
    convergence_time: Optional[float]
    cohesion_maintained: bool
    final_time: float
    wall_time_seconds: float
    trajectories: Optional[TrajectoryRecorder] = None

    @cached_property
    def initial_configuration(self) -> Configuration:
        """The configuration the run started from."""
        return Configuration.of(self.initial_positions, self.visibility_range)

    @cached_property
    def final_configuration(self) -> Configuration:
        """The configuration once every move has finished."""
        return Configuration.of(self.final_positions, self.visibility_range)

    @cached_property
    def activation_end_times(self) -> Dict[int, List[float]]:
        """Each robot's activity-cycle end times, in order."""
        return self.end_times.as_dict()

    def summary(self, epsilon: float = 1e-3) -> ConvergenceSummary:
        """Convergence summary of the metric history against ``epsilon``."""
        return summarize(self.metrics.samples, epsilon)

    @property
    def final_hull_diameter(self) -> float:
        """Hull diameter of the final configuration (the final sample's)."""
        return self.metrics.latest().hull_diameter

    @property
    def initial_hull_diameter(self) -> float:
        """Hull diameter of the initial configuration (the t=0 sample's)."""
        return self.metrics.samples[0].hull_diameter

    @property
    def final_min_pairwise_distance(self) -> float:
        """Smallest separation in the final configuration (the final full sample's)."""
        return self.metrics.latest().min_pairwise_distance

    @property
    def max_edge_stretch(self) -> float:
        """Longest initial visibility edge at the final positions (0 with no edges)."""
        return self.metrics.max_edge_stretch(self.final_positions)

    def epochs_to_converge(self, epsilon: float) -> Optional[int]:
        """Epochs completed before the hull diameter dropped to ``epsilon``."""
        return epochs_to_converge(self.end_times, self.metrics.samples.heads(), epsilon)


class Simulator(ContinuousKernel):
    """Run one algorithm under one scheduler from one initial configuration.

    A thin planar specialisation of :class:`ContinuousKernel`: the hooks
    below reproduce the 2D Look/Compute/Move semantics (snapshots via
    :func:`build_snapshot`, random 2D local frames, Point-typed records),
    while the shared kernel owns the loop itself.
    """

    def __init__(
        self,
        initial_positions: Sequence[PointLike],
        algorithm: ConvergenceAlgorithm,
        scheduler: Scheduler,
        config: Optional[SimulationConfig] = None,
    ) -> None:
        arrays = KinematicArrays.from_positions(initial_positions)
        super().__init__(arrays, algorithm, scheduler, config or SimulationConfig())
        self._initial_position_rows = arrays.position.copy()
        self._batch_decide_ok: Optional[bool] = None

    def positions(self, at_time: Optional[float] = None) -> List[Point]:
        """Positions of all robots at ``at_time`` (default: the current time)."""
        t = self._time if at_time is None else at_time
        return array_to_points(self._arrays.positions_at(t))

    # -- kernel hooks, planar implementations --------------------------------------
    def _frame_for_look(self) -> Optional[LocalFrame]:
        if not self.config.use_random_frames:
            return None
        return random_frame(self.rng, allow_reflection=self.config.allow_reflection)

    def _make_recorder(self) -> Optional[TrajectoryRecorder]:
        return TrajectoryRecorder() if self.config.record_trajectories else None

    def _make_record_log(self) -> RecordLog:
        return RecordLog()

    def _pair_rule(self):
        """:func:`build_snapshot`'s distance filter (:func:`visible_mask`) as a pair predicate."""
        limit = self._effective_range()
        return limit + EPS, lambda dx, dy: visible_mask(dx, dy, limit)

    def _decide_move(
        self,
        robot_id: int,
        look_time: float,
        other_positions,
        activation: Activation,
    ) -> Decision:
        cfg = self.config
        row = self._arrays.position[robot_id]
        position = Point(float(row[0]), float(row[1]))
        frame = self._frame_for_look()
        snapshot = build_snapshot(
            position,
            other_positions,
            self._effective_range(),
            frame=frame,
            perception=cfg.perception,
            rng=self.rng,
            reveal_range=self.algorithm.requires_visibility_range,
            k_bound=cfg.k_bound,
            multiplicity_detection=cfg.multiplicity_detection,
            time=look_time,
            robot_id=robot_id,
        )
        destination_local = self.algorithm.compute(snapshot)
        displacement = (
            frame.to_global(destination_local) if frame is not None else Point.of(destination_local)
        )
        target_global = position + displacement
        realized = cfg.motion.realize(
            position, target_global, activation.progress_fraction, self.rng
        )
        return (
            (target_global.x, target_global.y),
            (realized.x, realized.y),
            snapshot.neighbour_count(),
        )

    # -- whole-round batched decide ---------------------------------------------------
    def _batch_decide_eligible(self) -> bool:
        """Whether this run's *configuration* admits the flat round decide.

        The one predicate for both callers of
        :func:`~repro.engine.decide_batch.decide_round_flat` (the replicate
        engine adds a finite-range check, since its lanes always gather
        through a grid): the batch is bit-identical only when the round
        draws no RNG outside the private frames and the algorithm core is
        the KKNPS batch core; the frame replay reads a PCG64 stream.
        """
        cfg = self.config
        if type(self.rng.bit_generator) is not np.random.PCG64:
            return False
        if cfg.multiplicity_detection:
            return False
        if type(self.algorithm) is not KKNPSAlgorithm:
            return False
        perception = cfg.perception
        if perception.distance_error > 0.0 and perception.bias == "random":
            return False
        if cfg.motion.max_deviation(1.0) > 0.0:
            return False
        return True

    def _round_batch_ready(self, committed: np.ndarray) -> bool:
        ok = self._batch_decide_ok
        if ok is None:
            ok = self._batch_decide_ok = self._batch_decide_eligible()
        if not ok:
            return False
        # A committed pair inside the collapse guard could make the
        # per-robot Look's coincidence collapse a non-identity; such
        # (vanishingly rare) rounds keep the per-robot path.
        return not bool(collapse_hazard_lanes(committed, 1, self.n_robots)[0])

    def _round_decide_batch(
        self, look_time: float, committed: np.ndarray, pairs, executed: RoundBatch
    ):
        """One round's decides as one lane of :func:`decide_round_flat`.

        Bit-identical to deciding the round robot by robot through
        :meth:`_decide_move`; returns the ``(target, realized,
        neighbours_seen)`` row arrays.
        """
        return decide_round_flat(
            self.config,
            self._effective_range(),
            self.algorithm.compute_array_rounds,
            committed,
            pairs,
            executed.robot_ids,
            executed.progress,
            [(self.rng, len(executed))],
        )

    # -- main loop -----------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the simulation and return its result."""
        return self._result(self.run_kernel())

    def _result(self, run: KernelRun) -> SimulationResult:
        """The :class:`SimulationResult` of this simulator's finished ``run``."""
        return SimulationResult(
            initial_positions=self._initial_position_rows,
            final_positions=run.final_positions,
            visibility_range=self.config.visibility_range,
            metrics=run.metrics,
            activations_processed=run.processed,
            activation_counts=self.activation_counts(),
            end_times=run.end_times,
            records=run.records,
            converged=run.converged_time is not None,
            convergence_time=run.converged_time,
            cohesion_maintained=not run.metrics.cohesion_ever_violated,
            final_time=run.final_time,
            wall_time_seconds=run.wall_time_seconds,
            trajectories=run.recorder,
        )


def run_simulation(
    initial_positions: Sequence[PointLike],
    algorithm: ConvergenceAlgorithm,
    scheduler: Scheduler,
    config: Optional[SimulationConfig] = None,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`Simulator`."""
    return Simulator(initial_positions, algorithm, scheduler, config).run()
