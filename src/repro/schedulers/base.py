"""Scheduler interface and shared bookkeeping.

A scheduler decides *when* robots are activated and how long the phases
of each activity cycle last; it never decides where robots move.  The
paper treats the scheduler as an adversary constrained only by the
synchronisation model (FSync, SSync, k-NestA, k-Async, Async) and by
activation fairness.

The engine consumes activations in global ``look_time`` order.  To keep
that simple, schedulers must issue activations through :meth:`next_batch`
such that every later batch contains only activations that start no
earlier than those already issued (all built-in schedulers generate the
globally earliest pending activation on each call, or a whole synchronous
round at once).
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Protocol, Sequence

import numpy as np

from ..model.types import Activation, SchedulerClass


class EngineView(Protocol):
    """The read-only view of the running simulation a scheduler may consult.

    Only reactive (adversarial) schedulers look at it; the stochastic
    schedulers are oblivious to robot positions, as the paper's schedulers
    conceptually are (they are adversaries over *timing*).
    """

    @property
    def time(self) -> float:  # pragma: no cover - protocol
        ...

    @property
    def n_robots(self) -> int:  # pragma: no cover - protocol
        ...

    def positions(self) -> Sequence:  # pragma: no cover - protocol
        ...


class ActivationLog:
    """Bookkeeping of issued activations, shared by the asynchronous schedulers.

    Kept in arrays, so the k-Async bound is one mask and two binary
    searches per check: each robot's last interval (``look``, ``end``;
    ``look`` is infinite before its first activation), the rank of its
    first activation among all robots (``rank``, -1 before), and its
    start times in issue order, which are sorted because activations are
    issued in nondecreasing look time.
    """

    def __init__(self, n_robots: int) -> None:
        self.n_robots = n_robots
        self.look = np.full(n_robots, np.inf)
        self.end = np.zeros(n_robots)
        self.rank = np.full(n_robots, -1)
        self.total_issued = 0
        self._ranked = 0
        self._starts = [np.empty(8) for _ in range(n_robots)]
        self._counts = [0] * n_robots

    def record(self, activation: Activation) -> None:
        """Record an issued activation."""
        robot_id = activation.robot_id
        count = self._counts[robot_id]
        buffer = self._starts[robot_id]
        if count == len(buffer):
            buffer = self._starts[robot_id] = np.resize(buffer, 2 * count)
        buffer[count] = activation.look_time
        self._counts[robot_id] = count + 1
        if self.rank[robot_id] < 0:
            self.rank[robot_id] = self._ranked
            self._ranked += 1
        self.replace_last(activation)
        self.total_issued += 1

    def replace_last(self, activation: Activation) -> None:
        """Make ``activation`` its robot's last interval (a stretched copy of the issued one)."""
        self.look[activation.robot_id] = activation.look_time
        self.end[activation.robot_id] = activation.end_time

    def last_end_time(self, robot_id: int) -> float:
        """End time of the robot's most recently issued activation (0 if none)."""
        return float(self.end[robot_id])

    def start_times(self, robot_id: int) -> np.ndarray:
        """The robot's issued start times, ascending."""
        return self._starts[robot_id][: self._counts[robot_id]]

    def activation_counts(self) -> Dict[int, int]:
        """Number of issued activations per robot (fairness accounting)."""
        return dict(enumerate(self._counts))


class Scheduler(abc.ABC):
    """Base class of all schedulers."""

    scheduler_class: SchedulerClass = SchedulerClass.ASYNC

    def __init__(self) -> None:
        self._n_robots = 0
        self._rng: np.random.Generator = np.random.default_rng(0)

    def reset(self, n_robots: int, rng: Optional[np.random.Generator] = None) -> None:
        """Prepare the scheduler for a run over ``n_robots`` robots."""
        if n_robots < 1:
            raise ValueError("a schedule needs at least one robot")
        self._n_robots = n_robots
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._after_reset()

    def _after_reset(self) -> None:
        """Hook for subclasses to (re)initialise their own state."""

    @property
    def n_robots(self) -> int:
        """Number of robots this scheduler was reset for."""
        return self._n_robots

    @abc.abstractmethod
    def next_batch(self, view: Optional[EngineView] = None) -> List[Activation]:
        """The next batch of activations (empty list means the schedule is exhausted)."""

    def describe(self) -> str:
        """One-line description used in experiment tables."""
        return self.scheduler_class.value


def uniform_or_constant(rng: np.random.Generator, bounds) -> float:
    """Draw uniformly from a ``(low, high)`` pair, or return a constant float."""
    if isinstance(bounds, (tuple, list)):
        low, high = bounds
        if high <= low:
            return float(low)
        return float(rng.uniform(low, high))
    return float(bounds)
