"""k-Async and unbounded Async schedulers.

In the asynchronous models every robot is activated independently of the
others; activity intervals may overlap arbitrarily and phase durations
are finite but unpredictable.  The k-Async restriction (introduced by
Katreniak and generalised in the paper) additionally requires that at most
``k`` activations of one robot *start* within any single activity interval
of another.

The stochastic generator below draws, per robot, an idle gap, a compute
duration and a move duration from configurable ranges, then issues
activations one at a time in global start-time order; before issuing an
activation it delays it as needed so that the k-bound holds with respect
to every currently active interval of every other robot (unbounded Async
is the same generator with the constraint disabled).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

from ..model.types import Activation, SchedulerClass
from .base import ActivationLog, EngineView, Scheduler, uniform_or_constant


class KAsyncScheduler(Scheduler):
    """Randomised k-Async scheduler (``k = None`` gives unbounded Async)."""

    scheduler_class = SchedulerClass.K_ASYNC

    def __init__(
        self,
        k: Optional[int] = 1,
        *,
        idle_gap: Tuple[float, float] = (0.1, 2.0),
        compute_duration: Tuple[float, float] = (0.0, 0.2),
        move_duration: Tuple[float, float] = (0.2, 2.0),
        progress_fraction: Tuple[float, float] = (1.0, 1.0),
        initial_stagger: Tuple[float, float] = (0.0, 1.0),
    ) -> None:
        super().__init__()
        if k is not None and k < 1:
            raise ValueError("the asynchrony bound k must be at least 1 (or None for Async)")
        self.k = k
        self.idle_gap = idle_gap
        self.compute_duration = compute_duration
        self.move_duration = move_duration
        self.progress_fraction = progress_fraction
        self.initial_stagger = initial_stagger
        self._log: ActivationLog = ActivationLog(1)
        self._proposals: List[Tuple[float, int, int]] = []
        self._sequence = 0

    def _after_reset(self) -> None:
        self._log = ActivationLog(self.n_robots)
        self._proposals = []
        self._sequence = 0
        for robot_id in range(self.n_robots):
            start = uniform_or_constant(self._rng, self.initial_stagger)
            self._push_proposal(robot_id, start)

    # -- proposal queue -------------------------------------------------------
    def _push_proposal(self, robot_id: int, earliest_start: float) -> None:
        heapq.heappush(self._proposals, (earliest_start, self._sequence, robot_id))
        self._sequence += 1

    def _respect_k_bound(self, robot_id: int, start: float) -> float:
        """Delay ``start`` until the k-bound is respected for every active interval.

        Each pass masks the other robots' last intervals that contain
        ``start`` and counts the robot's starts inside each with two binary
        searches; ``start`` then moves past the end of the violator with the
        highest first-activation rank, where a per-interval overwrite in
        first-activation order would leave it.
        """
        log = self._log
        starts = log.start_times(robot_id)
        if self.k is None or len(starts) < self.k:
            return start
        while True:
            active = (log.look <= start) & (start < log.end)
            active[robot_id] = False
            already = np.searchsorted(starts, log.end) - np.searchsorted(starts, log.look)
            violators = np.flatnonzero(active & (already >= self.k))
            if not len(violators):
                return start
            start = float(log.end[violators[np.argmax(log.rank[violators])]]) + 1e-9

    def next_batch(self, view: Optional[EngineView] = None) -> List[Activation]:
        """The globally earliest pending activation, adjusted for the k-bound.

        Activations are issued in nondecreasing ``look_time`` order: if
        enforcing the k-bound (or the robot's own previous interval) pushes
        the popped proposal past another robot's pending proposal, the
        adjusted proposal is re-queued and the earlier one is served first.
        The engine relies on this ordering to build correct snapshots.
        """
        if not self._proposals:
            return []
        while True:
            earliest_start, _, robot_id = heapq.heappop(self._proposals)
            start = max(earliest_start, self._log.last_end_time(robot_id))
            start = self._respect_k_bound(robot_id, start)
            if self._proposals and start > self._proposals[0][0] + 1e-12:
                self._push_proposal(robot_id, start)
                continue
            break
        activation = Activation(
            robot_id=robot_id,
            look_time=start,
            compute_duration=uniform_or_constant(self._rng, self.compute_duration),
            move_duration=max(1e-6, uniform_or_constant(self._rng, self.move_duration)),
            progress_fraction=uniform_or_constant(self._rng, self.progress_fraction),
        )
        self._log.record(activation)
        gap = uniform_or_constant(self._rng, self.idle_gap)
        self._push_proposal(robot_id, activation.end_time + max(1e-6, gap))
        return [activation]

    def activation_counts(self):
        """Issued activation counts per robot (fairness accounting for tests)."""
        return self._log.activation_counts()

    def describe(self) -> str:
        return "async" if self.k is None else f"{self.k}-async"


class AsyncScheduler(KAsyncScheduler):
    """Unbounded asynchrony: the k-Async generator with the bound disabled."""

    scheduler_class = SchedulerClass.ASYNC

    def __init__(self, **kwargs) -> None:
        kwargs.pop("k", None)
        super().__init__(k=None, **kwargs)

    def describe(self) -> str:
        return "async"


class StalledAsyncScheduler(KAsyncScheduler):
    """An Async scheduler that keeps one robot's activity interval open very long.

    This is the kind of schedule the Section-7 adversary relies on: one
    robot Looks early, then its Compute/Move phase is stretched while the
    rest of the system is activated many times.  ``stalled_robot`` is the
    robot whose every activation lasts ``stall_duration``.
    """

    scheduler_class = SchedulerClass.ASYNC

    def __init__(self, stalled_robot: int = 0, stall_duration: float = 1000.0, **kwargs) -> None:
        kwargs.pop("k", None)
        super().__init__(k=None, **kwargs)
        if stall_duration <= 0.0:
            raise ValueError("stall_duration must be positive")
        self.stalled_robot = stalled_robot
        self.stall_duration = stall_duration

    def next_batch(self, view: Optional[EngineView] = None) -> List[Activation]:
        batch = super().next_batch(view)
        adjusted: List[Activation] = []
        for activation in batch:
            if activation.robot_id == self.stalled_robot:
                activation = Activation(
                    robot_id=activation.robot_id,
                    look_time=activation.look_time,
                    compute_duration=self.stall_duration / 2.0,
                    move_duration=self.stall_duration / 2.0,
                    progress_fraction=activation.progress_fraction,
                )
                self._log.replace_last(activation)
            adjusted.append(activation)
        return adjusted

    def describe(self) -> str:
        return f"async(stalled={self.stalled_robot})"
