"""Shared enums and small value types for the robot model."""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class Phase(enum.Enum):
    """The phase a robot is currently in.

    The OBLOT activity cycle is Look-Compute-Move; between cycles a robot
    is idle (inactive).  The Look phase is instantaneous, so it never
    appears as a standing state: a robot goes from IDLE directly to
    COMPUTING at its activation time.
    """

    IDLE = "idle"
    COMPUTING = "computing"
    MOVING = "moving"

    def is_active(self) -> bool:
        """True for the phases inside an activity interval."""
        return self is not Phase.IDLE

    def is_motile(self) -> bool:
        """True when the robot is capable of moving (the Move phase)."""
        return self is Phase.MOVING


class SchedulerClass(enum.Enum):
    """The synchronisation models discussed in the paper (Section 2.3.1)."""

    FSYNC = "fsync"
    SSYNC = "ssync"
    K_NESTA = "k-nesta"
    K_ASYNC = "k-async"
    ASYNC = "async"
    SCRIPTED = "scripted"


@dataclass(frozen=True)
class Activation:
    """One Look-Compute-Move activity interval, as issued by a scheduler.

    ``look_time`` is the instant of the (instantaneous) Look phase and the
    start of the activity interval.  The Compute phase lasts
    ``compute_duration``; the Move phase starts right after it and lasts
    ``move_duration``.  ``progress_fraction`` is the adversarial choice of
    how much of the planned trajectory is actually realised (xi-rigid
    motion: the engine clamps it to at least the motion model's xi).
    """

    robot_id: int
    look_time: float
    compute_duration: float = 0.0
    move_duration: float = 1.0
    progress_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.look_time < 0.0:
            raise ValueError("activation look_time must be non-negative")
        if self.compute_duration < 0.0 or self.move_duration < 0.0:
            raise ValueError("activation phase durations must be non-negative")
        if not 0.0 < self.progress_fraction <= 1.0:
            raise ValueError("progress_fraction must lie in (0, 1]")

    @property
    def move_start_time(self) -> float:
        """Instant the Move phase begins."""
        return self.look_time + self.compute_duration

    @property
    def end_time(self) -> float:
        """Instant the activity interval ends."""
        return self.move_start_time + self.move_duration

    def overlaps(self, other: "Activation") -> bool:
        """True when the two activity intervals overlap in time."""
        return self.look_time < other.end_time and other.look_time < self.end_time

    def contains(self, other: "Activation") -> bool:
        """True when ``other``'s interval is nested inside this one."""
        return self.look_time <= other.look_time and other.end_time <= self.end_time

    def starts_within(self, other: "Activation") -> bool:
        """True when this activation *starts* during ``other``'s interval.

        The k-Async constraint bounds, for every activity interval of a
        robot, the number of activations of any other robot that start
        within it.
        """
        return other.look_time <= self.look_time < other.end_time


class RoundBatch(Sequence):
    """One simultaneous round of activations, held as columns.

    Every activation of a round Looks at ``look_time`` and shares the
    round's phase durations; only the robot id and the progress fraction
    vary per row.  The batch is validated once at construction with the
    checks :class:`Activation` runs per object, plus the two that make it a
    round: the robot ids are distinct (strictly ascending) and the cycle
    ends strictly after the Look.  It is still a ``Sequence[Activation]``
    whose items are built on access, so code that iterates a scheduler's
    batch keeps working; the kernel reads the columns directly.
    """

    __slots__ = ("robot_ids", "look_time", "compute_duration", "move_duration", "progress")

    def __init__(
        self,
        robot_ids,
        look_time: float,
        *,
        compute_duration: float = 0.0,
        move_duration: float = 1.0,
        progress: Optional[np.ndarray] = None,
    ) -> None:
        ids = np.ascontiguousarray(robot_ids, dtype=np.intp)
        if ids.ndim != 1:
            raise ValueError("robot_ids must be one-dimensional")
        if len(ids) > 1 and not bool((ids[1:] > ids[:-1]).all()):
            raise ValueError("a round activates distinct robots in ascending order")
        if look_time < 0.0:
            raise ValueError("activation look_time must be non-negative")
        if compute_duration < 0.0 or move_duration < 0.0:
            raise ValueError("activation phase durations must be non-negative")
        if progress is None:
            progress = np.ones(len(ids), dtype=np.float64)
        else:
            progress = np.ascontiguousarray(progress, dtype=np.float64)
            if progress.shape != ids.shape:
                raise ValueError("progress must hold one fraction per robot")
            if not bool(((progress > 0.0) & (progress <= 1.0)).all()):
                raise ValueError("progress_fraction must lie in (0, 1]")
        self.robot_ids = ids
        self.look_time = float(look_time)
        self.compute_duration = float(compute_duration)
        self.move_duration = float(move_duration)
        self.progress = progress
        if self.end_time <= self.look_time:
            raise ValueError("a round's activity cycle must end after its Look")

    @property
    def move_start_time(self) -> float:
        """Instant every Move phase of the round begins."""
        return self.look_time + self.compute_duration

    @property
    def end_time(self) -> float:
        """Instant every activity interval of the round ends."""
        return self.move_start_time + self.move_duration

    def take(self, rows: np.ndarray) -> "RoundBatch":
        """The sub-round of the given ascending row indices (no re-validation)."""
        batch = object.__new__(RoundBatch)
        batch.robot_ids = self.robot_ids[rows]
        batch.look_time = self.look_time
        batch.compute_duration = self.compute_duration
        batch.move_duration = self.move_duration
        batch.progress = self.progress[rows]
        return batch

    def __len__(self) -> int:
        return len(self.robot_ids)

    def __iter__(self):
        for robot_id, progress in zip(self.robot_ids.tolist(), self.progress.tolist()):
            yield Activation(
                robot_id=robot_id,
                look_time=self.look_time,
                compute_duration=self.compute_duration,
                move_duration=self.move_duration,
                progress_fraction=progress,
            )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        return Activation(
            robot_id=int(self.robot_ids[index]),
            look_time=self.look_time,
            compute_duration=self.compute_duration,
            move_duration=self.move_duration,
            progress_fraction=float(self.progress[index]),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoundBatch({len(self)} robots, look_time={self.look_time})"


@dataclass
class ActivationRecord:
    """What actually happened during one executed activation (engine output)."""

    activation: Activation
    origin: "object" = None  # Point; typed loosely to avoid an import cycle
    target: "object" = None
    destination: "object" = None
    neighbours_seen: int = 0
    moved_distance: float = 0.0

    @property
    def robot_id(self) -> int:
        """Robot this record belongs to."""
        return self.activation.robot_id
