"""Fully synchronous and semi-synchronous schedulers.

In the synchronous models time is divided into rounds; every robot
activated in a round performs its whole Look-Compute-Move cycle inside the
round, and nobody observes anybody mid-move.  FSync activates every robot
in every round; SSync activates an arbitrary (fair) subset.  Each round is
issued as one :class:`~repro.model.types.RoundBatch`, which the kernel's
batched round path consumes whole.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..model.types import RoundBatch, SchedulerClass
from .base import EngineView, Scheduler


class FSyncScheduler(Scheduler):
    """Every robot is activated in every round."""

    scheduler_class = SchedulerClass.FSYNC
    def __init__(self, *, move_duration: float = 0.5) -> None:
        super().__init__()
        if not 0.0 < move_duration < 1.0:
            raise ValueError("move_duration must keep the cycle inside the unit round")
        self.move_duration = move_duration
        self._round = 0

    def _after_reset(self) -> None:
        self._round = 0

    def next_batch(self, view: Optional[EngineView] = None) -> RoundBatch:
        """All robots, activated simultaneously at the start of the next round."""
        batch = RoundBatch(
            np.arange(self.n_robots, dtype=np.intp),
            float(self._round),
            move_duration=self.move_duration,
        )
        self._round += 1
        return batch

    def describe(self) -> str:
        return "fsync"


class SSyncScheduler(Scheduler):
    """A fair adversarial subset of robots is activated in every round.

    Each robot is activated independently with probability
    ``activation_probability``; fairness is enforced by forcing the
    activation of any robot that has sat idle for ``max_lag`` consecutive
    rounds, so every robot is activated infinitely often.
    """

    scheduler_class = SchedulerClass.SSYNC
    def __init__(
        self,
        *,
        activation_probability: float = 0.5,
        max_lag: int = 5,
        move_duration: float = 0.5,
    ) -> None:
        super().__init__()
        if not 0.0 < activation_probability <= 1.0:
            raise ValueError("activation_probability must lie in (0, 1]")
        if max_lag < 1:
            raise ValueError("max_lag must be at least 1")
        if not 0.0 < move_duration < 1.0:
            raise ValueError("move_duration must keep the cycle inside the unit round")
        self.activation_probability = activation_probability
        self.max_lag = max_lag
        self.move_duration = move_duration
        self._round = 0
        self._lag = np.zeros(0, dtype=np.int64)

    def _after_reset(self) -> None:
        self._round = 0
        self._lag = np.zeros(self.n_robots, dtype=np.int64)

    def next_batch(self, view: Optional[EngineView] = None) -> RoundBatch:
        """The activated subset for the next round (never empty)."""
        # One vectorized draw per round; the Generator's double stream is
        # identical whether consumed as n scalars or one size-n request,
        # so this is bit-for-bit the per-robot formulation.
        draws = self._rng.random(self.n_robots)
        chosen = (draws < self.activation_probability) | (self._lag >= self.max_lag)
        if not chosen.any():
            chosen[int(self._rng.integers(0, self.n_robots))] = True
        self._lag += 1
        self._lag[chosen] = 0
        batch = RoundBatch(
            np.flatnonzero(chosen),
            float(self._round),
            move_duration=self.move_duration,
        )
        self._round += 1
        return batch

    def describe(self) -> str:
        return f"ssync(p={self.activation_probability})"
