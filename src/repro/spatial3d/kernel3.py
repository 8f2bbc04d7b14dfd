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
continuous-time semantics of the planar engine, in 3-space.

The Look filter uses the 3D extension's historical visibility tolerance
(:data:`~repro.spatial3d.engine3.VIS_EPS`) so the continuous engine is
consistent with the round engine's notion of who sees whom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..engine.kernel import ContinuousKernel, Decision
from ..engine.logs import SampleLog
from ..engine.metrics import (
    METRICS_DENSE_MAX,
    SeparationHint,
    min_pairwise_distance_grid,
)
from ..engine.spatial_index import ShardedGridIndex, covering_cell
from ..engine.state import EngineState
from ..geometry.tolerances import EPS
from ..model.errors import MotionModel, PerceptionModel
from ..model.types import Activation
from ..schedulers.base import Scheduler
from ..schedulers.kasync import KAsyncScheduler
from .engine3 import (
    random_rotation3,
    rotate_back3,
    rotate_rows3,
    visible_relative3,
)
from .kknps3 import KKNPS3Algorithm
from .model3 import (
    Configuration3,
    edge_index_array,
    edge_lengths3_array,
    max_pairwise_distance3_array,
    min_pairwise_distance3_array,
    positions_as_array3,
    visibility_edges3,
)
from .vector3 import Vector3Like


@dataclass(frozen=True)
class Metrics3Sample:
    """One observation of the 3D configuration at a given time.

    ``hull_diameter`` is the diameter of the point set — which equals the
    diameter of its convex hull, so the field name matches the planar
    :class:`~repro.engine.metrics.MetricsSample` and the kernel's
    convergence check reads both uniformly.
    """

    time: float
    hull_diameter: float
    min_pairwise_distance: float
    initial_edges_preserved: bool
    broken_edge_count: int
    activations_processed: int

    def converged(self, epsilon: float) -> bool:
        """Point-Convergence check at this sample."""
        return self.hull_diameter <= epsilon


def _diameter3_large(arr: np.ndarray) -> float:
    """Diameter of a large ``(n, 3)`` point set without the full matrix.

    The diameter is attained between two convex-hull vertices, so the
    quadratic reduction only runs over the hull (a few hundred points at
    mega-swarm scale) — the per-pair arithmetic is the dense path's, so
    the result matches it bit for bit.  Degenerate inputs the hull
    construction rejects (coplanar mega-swarms) fall back to the
    row-blocked exact scan over every point.
    """
    try:
        from scipy.spatial import ConvexHull as _SpatialHull
        from scipy.spatial import QhullError

        try:
            vertices = arr[_SpatialHull(arr).vertices]
        except QhullError:
            vertices = None
    except ImportError:  # pragma: no cover - scipy is a declared dependency
        vertices = None
    return max_pairwise_distance3_array(arr if vertices is None else vertices)


@dataclass
class Metrics3Collector(SeparationHint):
    """Diameter / cohesion samples over ``(n, 3)`` position arrays."""

    visibility_range: float
    samples: SampleLog = field(default_factory=SampleLog)
    cohesion_ever_violated: bool = False

    #: Record boundaries inside one synchronous round see identical
    #: geometry, so the kernel's batched round path may replicate one
    #: sample per round (see the planar collector for the contract).
    supports_replicated_samples = True

    def __post_init__(self) -> None:
        if not isinstance(self.samples, SampleLog):
            self.samples = SampleLog(self.samples)

    def bind_initial(self, positions) -> None:
        """Record the initial visibility edges the cohesion predicate refers to.

        Past ``METRICS_DENSE_MAX`` robots the edges come from the
        neighbour pairs of a grid whose cell covers ``V + EPS`` (same
        ``<= V + EPS`` predicate) and only the
        ``(E, 2)`` index array is materialised; ``initial_edges`` stays
        empty at that scale.
        """
        arr = np.asarray(positions, dtype=float)
        if len(arr) > METRICS_DENSE_MAX:
            reach = self.visibility_range + EPS
            shard = ShardedGridIndex(arr, covering_cell(arr, reach))
            i, j = shard.neighbour_pairs()
            index = np.stack((i, j), axis=1)
            lengths = edge_lengths3_array(index, arr)
            index = index[lengths <= reach]
            order = np.lexsort((index[:, 1], index[:, 0]))
            self.initial_edges = set()
            self._edge_index = np.ascontiguousarray(index[order])
            return
        self.initial_edges = visibility_edges3(arr, self.visibility_range)
        self._edge_index = edge_index_array(self.initial_edges)

    def observe(self, time: float, positions, activations_processed: int) -> Metrics3Sample:
        """Sample the configuration at ``time`` and append it to the history.

        Past ``METRICS_DENSE_MAX`` robots the minimum separation is a grid
        search started from the separation hint (see the planar
        collector); every observe records the hint for the next.
        """
        arr = np.asarray(positions, dtype=float)
        edge_index = getattr(self, "_edge_index", None)
        if edge_index is not None and len(edge_index):
            lengths = edge_lengths3_array(edge_index, arr)
            broken = int(np.count_nonzero(lengths > self.visibility_range + EPS))
        else:
            broken = 0
        if broken:
            self.cohesion_ever_violated = True
        if len(arr) > METRICS_DENSE_MAX:
            diameter = _diameter3_large(arr)
            min_pairwise = min_pairwise_distance_grid(arr, self.separation_radius())
        else:
            diameter = max_pairwise_distance3_array(arr)
            min_pairwise = min_pairwise_distance3_array(arr)
        self.note_separation(min_pairwise)
        sample = Metrics3Sample(
            time=time,
            hull_diameter=diameter,
            min_pairwise_distance=min_pairwise,
            initial_edges_preserved=not broken,
            broken_edge_count=broken,
            activations_processed=activations_processed,
        )
        self.samples.append(sample)
        return sample

    def diameters(self) -> List[float]:
        """Diameters over time."""
        return self.samples.column("hull_diameter")

    def first_time_below(self, epsilon: float) -> Optional[float]:
        """Earliest sampled time the diameter was at most ``epsilon``."""
        for sample in self.samples.heads():
            if sample.hull_diameter <= epsilon:
                return sample.time
        return None


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
    spatial_index: Optional[bool] = None
    #: Batched round fast path: None auto-enables it for round-structured
    #: schedulers, True forces the attempt (still validated per batch),
    #: False always uses the per-activation path.
    round_batching: Optional[bool] = None

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


@dataclass
class Simulation3AsyncResult:
    """Outcome of one continuous-time 3D run."""

    initial_configuration: Configuration3
    final_configuration: Configuration3
    metrics: Metrics3Collector
    activations_processed: int
    activation_counts: Dict[int, int]
    activation_end_times: Dict[int, List[float]]
    converged: bool
    convergence_time: Optional[float]
    cohesion_maintained: bool
    final_time: float
    wall_time_seconds: float

    @property
    def final_diameter(self) -> float:
        """Diameter of the final configuration."""
        return self.final_configuration.diameter()

    @property
    def initial_diameter(self) -> float:
        """Diameter of the initial configuration."""
        return self.initial_configuration.diameter()


class Kernel3(ContinuousKernel):
    """The 3D instantiation of the continuous-time kernel."""

    def _make_metrics(self) -> Metrics3Collector:
        return Metrics3Collector(visibility_range=self.config.visibility_range)

    def _frame_for_look(self) -> Optional[np.ndarray]:
        if not self.config.rotate_frames:
            return None
        return random_rotation3(self.rng)

    def _decide_move(
        self,
        robot_id: int,
        look_time: float,
        other_positions,
        activation: Activation,
    ) -> Decision:
        cfg = self.config
        observer = self._state.committed_positions()[robot_id]
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
    initial = Configuration3.of(positions, config.visibility_range)
    state = EngineState.from_array(positions)
    kernel = Kernel3(state, algorithm, scheduler, config)
    outcome = kernel.run_kernel()

    final = Configuration3.of(outcome.final_positions, config.visibility_range)
    return Simulation3AsyncResult(
        initial_configuration=initial,
        final_configuration=final,
        metrics=outcome.metrics,
        activations_processed=outcome.processed,
        activation_counts=kernel.activation_counts(),
        activation_end_times=outcome.activation_end_times,
        converged=outcome.converged_time is not None,
        convergence_time=outcome.converged_time,
        cohesion_maintained=not outcome.metrics.cohesion_ever_violated,
        final_time=outcome.final_time,
        wall_time_seconds=outcome.wall_time_seconds,
    )
