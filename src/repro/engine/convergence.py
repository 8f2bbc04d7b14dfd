"""Convergence-rate measures derived from a metric history.

The classical convergence-rate yardstick (used by Cohen-Peleg and
Cord-Landwehr et al., reviewed in Section 1.2.2 of the paper) is the
number of *rounds* needed to halve the diameter of the convex hull; in
asynchronous runs a round generalises to an *epoch*: a minimal period in
which every robot completes at least one activity cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .logs import EndTimeLog
from .metrics import MetricsSample

#: Each robot's cycle end times: a ``{robot: [end, ...]}`` dict or the log.
EndTimes = Union[Dict[int, List[float]], EndTimeLog]


@dataclass(frozen=True)
class ConvergenceSummary:
    """Headline convergence numbers for one run."""

    initial_diameter: float
    final_diameter: float
    converged: bool
    convergence_time: Optional[float]
    halvings_observed: int
    samples: int

    @property
    def reduction_factor(self) -> float:
        """How much the hull diameter shrank (>= 1 when it shrank at all)."""
        if self.final_diameter <= 0.0:
            return math.inf
        return self.initial_diameter / self.final_diameter


def summarize(samples: Sequence[MetricsSample], epsilon: float) -> ConvergenceSummary:
    """Summarise a metric history against a convergence threshold ``epsilon``."""
    if not samples:
        return ConvergenceSummary(0.0, 0.0, False, None, 0, 0)
    initial = samples[0].hull_diameter
    final = samples[-1].hull_diameter
    convergence_time = None
    for sample in samples:
        if sample.hull_diameter <= epsilon:
            convergence_time = sample.time
            break
    halvings = 0
    if initial > 0.0 and final > 0.0:
        halvings = int(math.floor(math.log2(initial / final))) if final < initial else 0
    elif initial > 0.0 and final == 0.0:
        halvings = 60
    return ConvergenceSummary(
        initial_diameter=initial,
        final_diameter=final,
        converged=convergence_time is not None,
        convergence_time=convergence_time,
        halvings_observed=halvings,
        samples=len(samples),
    )


def time_to_halve(samples: Sequence[MetricsSample]) -> Optional[float]:
    """Time at which the hull diameter first dropped to half its initial value."""
    if not samples:
        return None
    initial = samples[0].hull_diameter
    if initial <= 0.0:
        return samples[0].time
    target = initial / 2.0
    for sample in samples:
        if sample.hull_diameter <= target:
            return sample.time
    return None


def rounds_to_halve(samples: Sequence[MetricsSample], round_length: float = 1.0) -> Optional[float]:
    """Number of (synchronous) rounds to halve the hull diameter."""
    t = time_to_halve(samples)
    if t is None:
        return None
    return t / round_length


def epochs(activation_times: EndTimes) -> List[Tuple[float, float]]:
    """Partition of time into epochs: periods where every robot completed a cycle.

    ``activation_times`` maps each robot id to the end times of its
    activity cycles (or is the run's :class:`EndTimeLog`).  Epoch
    boundaries are greedily chosen: each epoch ends at the earliest time
    by which every robot has completed at least one cycle that ended at
    or after the epoch began: one ``searchsorted`` over the cycles' sorted
    ``(robot, rank of end time)`` keys per epoch.
    """
    log = activation_times
    if not isinstance(log, EndTimeLog):
        log = EndTimeLog(len(activation_times))
        for index, times in enumerate(activation_times.values()):
            for end in times:
                log.append(index, end)
    ids, ends = log.columns()
    by_time = np.argsort(ends, kind="stable")
    ordered = ends[by_time]
    base = np.arange(log.n, dtype=np.int64) * len(ends)
    # Ascending, as the columns are ordered by robot, then end time.
    keys = ids * len(ends) + np.argsort(by_time)
    # Where each robot's keys end: a search landing there found no cycle.
    limits = np.cumsum(np.bincount(ids, minlength=log.n))
    epoch_list: List[Tuple[float, float]] = []
    start = 0.0
    while log.n:
        first = np.searchsorted(keys, base + int(np.searchsorted(ordered, start)))
        if (first == limits).any():
            break
        end = float(ordered[(keys[first] - base).max()])
        epoch_list.append((start, end))
        start = math.nextafter(end, math.inf)
    return epoch_list


def epochs_to_converge(
    activation_times: EndTimes,
    samples: Sequence[MetricsSample],
    epsilon: float,
) -> Optional[int]:
    """Number of epochs completed before the hull diameter dropped below ``epsilon``."""
    for sample in samples:
        if sample.hull_diameter <= epsilon:
            convergence_time = sample.time
            break
    else:
        return None
    count = 0
    for _, end in epochs(activation_times):
        if end >= convergence_time:
            return count + 1
        count += 1
    return count if count > 0 else None
