"""The scanning k-bound: the oracle of the k-async scheduler's array bookkeeping.

Before the activation log kept its last intervals and start times in
arrays, the k-Async scheduler enforced its bound by scanning: every pass
of ``_respect_k_bound`` walked every robot's last interval in the order
the robots first activated (``active_intervals_containing``), counted the
candidate robot's starts inside each containing interval by walking its
whole start history (``starts_within``), and let every violator overwrite
the start — so the last violator in first-activation order won.  This
module keeps that scheduler, unchanged in behaviour, as
:class:`ScanKAsyncScheduler`.

:class:`~repro.schedulers.KAsyncScheduler` must issue the same activations
and leave its generator in the same state
(``tests/property/test_kasync_stream.py``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.model.types import Activation
from repro.schedulers.base import Scheduler, uniform_or_constant


@dataclass
class ScanActivationLog:
    """Issued activations as per-robot start lists and a last-interval dict."""

    n_robots: int
    start_times: Dict[int, List[float]] = field(default_factory=dict)
    last_interval: Dict[int, Activation] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.start_times = {i: [] for i in range(self.n_robots)}

    def record(self, activation: Activation) -> None:
        self.start_times[activation.robot_id].append(activation.look_time)
        self.last_interval[activation.robot_id] = activation

    def last_end_time(self, robot_id: int) -> float:
        last = self.last_interval.get(robot_id)
        return last.end_time if last is not None else 0.0

    def starts_within(self, robot_id: int, start: float, end: float) -> int:
        return sum(1 for t in self.start_times[robot_id] if start <= t < end)

    def active_intervals_containing(self, time: float, *, exclude: Optional[int] = None):
        result = []
        for robot_id, activation in self.last_interval.items():
            if exclude is not None and robot_id == exclude:
                continue
            if activation.look_time <= time < activation.end_time:
                result.append(activation)
        return result


class ScanKAsyncScheduler(Scheduler):
    """The k-Async generator with the scanning k-bound."""

    def __init__(
        self,
        k: Optional[int] = 1,
        *,
        idle_gap=(0.1, 2.0),
        compute_duration=(0.0, 0.2),
        move_duration=(0.2, 2.0),
        progress_fraction=(1.0, 1.0),
        initial_stagger=(0.0, 1.0),
    ) -> None:
        super().__init__()
        self.k = k
        self.idle_gap = idle_gap
        self.compute_duration = compute_duration
        self.move_duration = move_duration
        self.progress_fraction = progress_fraction
        self.initial_stagger = initial_stagger

    def _after_reset(self) -> None:
        self._log = ScanActivationLog(self.n_robots)
        self._proposals: List[Tuple[float, int, int]] = []
        self._sequence = 0
        for robot_id in range(self.n_robots):
            start = uniform_or_constant(self._rng, self.initial_stagger)
            self._push_proposal(robot_id, start)

    def _push_proposal(self, robot_id: int, earliest_start: float) -> None:
        heapq.heappush(self._proposals, (earliest_start, self._sequence, robot_id))
        self._sequence += 1

    def _respect_k_bound(self, robot_id: int, start: float) -> float:
        if self.k is None:
            return start
        changed = True
        while changed:
            changed = False
            for other in self._log.active_intervals_containing(start, exclude=robot_id):
                already = self._log.starts_within(robot_id, other.look_time, other.end_time)
                if already >= self.k:
                    start = other.end_time + 1e-9
                    changed = True
        return start

    def next_batch(self, view=None) -> List[Activation]:
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
