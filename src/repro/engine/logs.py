"""Columnar run logs: activation records and metrics samples.

A mega-swarm round executes tens of thousands of activations at one
instant, and every one of its record boundaries observes the same
geometry.  Keeping one Python object per activation record and per
metrics sample made that bookkeeping cost as much as the simulation
itself, so both histories are stored as columns and build their objects
only when a caller reads them:

* :class:`RecordLog` holds the per-activation coordinate rows (origin,
  target, realised endpoint, neighbours seen) and builds each
  :class:`~repro.model.types.ActivationRecord` on access;
* :class:`SampleLog` is run-length encoded: one observed sample per run
  plus how many record boundaries replicate it, each replica differing
  only in ``activations_processed``;
* :class:`EndTimeLog` holds each activity cycle's robot id and end time.

The first two are read-only ``Sequence`` views for their callers (``len``,
integer and slice indexing, iteration, ``==`` against a list or another
log), so code written against the old lists keeps working.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..geometry.point import Point
from ..model.types import ActivationRecord


def _sequence_equal(left, right) -> bool:
    return len(left) == len(right) and all(a == b for a, b in zip(left, right))


class RecordLog(Sequence):
    """The activation records of a planar run, held as coordinate columns.

    Rows arrive one at a time from the per-activation path
    (:meth:`append`) or a whole round at a time from the batched round
    path (:meth:`extend_round`).  Each chunk keeps the activations (a
    :class:`~repro.model.types.RoundBatch` or a list), three ``(m, 2)``
    coordinate arrays and the neighbour counts; item ``k`` is an
    :class:`ActivationRecord` whose Points and ``moved_distance`` (the
    same ``math.hypot`` :meth:`Point.distance_to` takes) are built on
    access.
    """

    __slots__ = ("_chunks", "_ends", "_rows")

    def __init__(self) -> None:
        self._chunks: List[tuple] = []
        self._ends: List[int] = []
        # Single rows from the per-activation path, folded into one chunk
        # the next time the log is read or a round arrives.
        self._rows: List[tuple] = []

    def append(self, activation, origin, target, realized, neighbours_seen: int) -> None:
        """Log one executed activation (coordinate rows of length two)."""
        self._rows.append(
            (
                activation,
                (float(origin[0]), float(origin[1])),
                (float(target[0]), float(target[1])),
                (float(realized[0]), float(realized[1])),
                int(neighbours_seen),
            )
        )

    def extend_round(
        self,
        activations,
        origin: np.ndarray,
        target: np.ndarray,
        realized: np.ndarray,
        neighbours_seen: np.ndarray,
    ) -> None:
        """Log a round's executed activations from ``(m, 2)`` row arrays."""
        self._flush()
        if len(activations):
            self._chunks.append((activations, origin, target, realized, neighbours_seen))
            self._ends.append(self._total() + len(activations))

    def _total(self) -> int:
        return self._ends[-1] if self._ends else 0

    def _flush(self) -> None:
        rows = self._rows
        if not rows:
            return
        activations, origin, target, realized, seen = zip(*rows)
        self._chunks.append(
            (
                list(activations),
                np.array(origin, dtype=np.float64),
                np.array(target, dtype=np.float64),
                np.array(realized, dtype=np.float64),
                np.array(seen, dtype=np.int64),
            )
        )
        self._ends.append(self._total() + len(rows))
        self._rows = []

    @staticmethod
    def _records(chunk) -> Iterator[ActivationRecord]:
        activations, origin, target, realized, seen = chunk
        ox, oy = origin[:, 0].tolist(), origin[:, 1].tolist()
        tx, ty = target[:, 0].tolist(), target[:, 1].tolist()
        rx, ry = realized[:, 0].tolist(), realized[:, 1].tolist()
        seen_l = np.asarray(seen).tolist()
        for k, activation in enumerate(activations):
            yield ActivationRecord(
                activation=activation,
                origin=Point(ox[k], oy[k]),
                target=Point(tx[k], ty[k]),
                destination=Point(rx[k], ry[k]),
                neighbours_seen=seen_l[k],
                moved_distance=math.hypot(ox[k] - rx[k], oy[k] - ry[k]),
            )

    def __len__(self) -> int:
        return self._total() + len(self._rows)

    def __iter__(self) -> Iterator[ActivationRecord]:
        self._flush()
        for chunk in self._chunks:
            yield from self._records(chunk)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        self._flush()
        total = self._total()
        if index < 0:
            index += total
        if not 0 <= index < total:
            raise IndexError("record index out of range")
        c = bisect_right(self._ends, index)
        start = self._ends[c - 1] if c else 0
        activations, origin, target, realized, seen = self._chunks[c]
        k = index - start
        one = (
            [activations[k]],
            origin[k : k + 1],
            target[k : k + 1],
            realized[k : k + 1],
            np.asarray(seen)[k : k + 1],
        )
        return next(self._records(one))

    def __eq__(self, other) -> bool:
        if isinstance(other, (RecordLog, list, tuple)):
            return _sequence_equal(self, other)
        return NotImplemented

    __hash__ = None  # mutable, compared by value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecordLog({len(self)} records)"


def _with_processed(sample, activations_processed: int):
    """``dataclasses.replace(sample, activations_processed=...)``, minus ``__init__``.

    Samples are frozen dataclasses; copying the field dict is several
    times cheaper than re-running the generated ``__init__``, which
    matters when a long replicated run is iterated.
    """
    copy = object.__new__(type(sample))
    state = copy.__dict__
    state.update(sample.__dict__)
    state["activations_processed"] = activations_processed
    return copy


class SampleLog(Sequence):
    """Metrics samples as runs: one observed sample, then its replicas.

    Every record boundary of one synchronous round observes identical
    geometry, so the round's first boundary is observed and the others
    are stored as a count.  Run ``r`` is ``(head, count, step)``: item
    ``k < count`` of the run equals ``head`` with ``activations_processed``
    advanced by ``k * step``, built on access.  A log built by
    :meth:`append` alone is exactly a list of samples.
    """

    __slots__ = ("_heads", "_counts", "_steps", "_ends")

    def __init__(self, samples=()) -> None:
        self._heads: list = []
        self._counts: List[int] = []
        self._steps: List[int] = []
        self._ends: List[int] = []
        for sample in samples:
            self.append(sample)

    def append(self, sample) -> None:
        """Start a new run with one observed sample."""
        self._heads.append(sample)
        self._counts.append(1)
        self._steps.append(0)
        self._ends.append(len(self) + 1)

    def repeat_last(self, count: int, step: int) -> None:
        """Replicate the last sample ``count`` more times, ``step`` activations apart."""
        if count <= 0:
            return
        if not self._heads:
            raise IndexError("no sample to repeat")
        if self._counts[-1] > 1 and self._steps[-1] != step:
            raise ValueError("a run's replicas share one activation step")
        self._counts[-1] += count
        self._steps[-1] = step
        self._ends[-1] += count

    def heads(self) -> list:
        """The observed samples, one per run.

        A replica differs from its head only in ``activations_processed``,
        so a query about geometry or time needs to scan the heads alone.
        """
        return list(self._heads)

    def column(self, name: str) -> list:
        """One field of every sample, replicas included, without building the samples."""
        out: list = []
        for head, count, step in zip(self._heads, self._counts, self._steps):
            value = getattr(head, name)
            if count == 1:
                out.append(value)
            elif name == "activations_processed":
                out.extend(range(value, value + count * step, step))
            else:
                out.extend([value] * count)
        return out

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self):
        for head, count, step in zip(self._heads, self._counts, self._steps):
            yield head
            processed = head.activations_processed
            for k in range(1, count):
                yield _with_processed(head, processed + k * step)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        total = len(self)
        if index < 0:
            index += total
        if not 0 <= index < total:
            raise IndexError("sample index out of range")
        r = bisect_right(self._ends, index)
        k = index - (self._ends[r - 1] if r else 0)
        head = self._heads[r]
        if k == 0:
            return head
        return _with_processed(head, head.activations_processed + k * self._steps[r])

    def __eq__(self, other) -> bool:
        if isinstance(other, (SampleLog, list, tuple)):
            return _sequence_equal(self, other)
        return NotImplemented

    __hash__ = None  # mutable, compared by value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SampleLog({len(self)} samples in {len(self._heads)} runs)"


class EndTimeLog:
    """Every executed activity cycle's robot id and end time, as columns.

    Cycles arrive one at a time or a round (ids and one end time) at once.
    A robot's cycles never overlap, so the order they ran in is ascending
    end time: :meth:`columns` and :meth:`as_dict` order by robot, then time.
    """

    __slots__ = ("n", "_ids", "_ends", "_rounds")

    def __init__(self, n: int) -> None:
        self.n = n
        self._ids: List[int] = []
        self._ends: List[float] = []
        self._rounds: List[Tuple[np.ndarray, float]] = []

    def append(self, robot_id: int, end: float) -> None:
        """Log one robot's cycle ending at ``end``."""
        self._ids.append(robot_id)
        self._ends.append(end)

    def extend_round(self, robot_ids: np.ndarray, end: float) -> None:
        """Log a round's cycles, all ending at ``end``."""
        self._rounds.append((robot_ids, end))

    def columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(robot ids, end times)`` of every logged cycle, by robot, then time."""
        rounds = self._rounds
        ids = np.concatenate([np.asarray(self._ids, np.int64), *(r for r, _ in rounds)])
        ends = np.asarray(self._ends, np.float64)
        ends = np.concatenate([ends, *(np.full(len(r), t) for r, t in rounds)])
        order = np.lexsort((ends, ids))
        return ids[order], ends[order]

    def as_dict(self) -> Dict[int, List[float]]:
        """``{robot: [end, ...]}`` for every robot of ``range(n)``."""
        ids, ends = self.columns()
        bounds = [0] + np.cumsum(np.bincount(ids, minlength=self.n)).tolist()
        times = ends.tolist()
        return {i: times[bounds[i] : bounds[i + 1]] for i in range(self.n)}
