"""The rescanning epoch partition: the oracle of :func:`repro.engine.convergence.epochs`.

Before the partition searched one sorted array of ``(robot, rank)`` keys
per epoch, it rescanned every robot's whole list of cycle end times once
per epoch.  :func:`epochs_scan` keeps that loop, unchanged, so the search
can be pinned against it (``tests/engine/test_convergence.py``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple


def epochs_scan(activation_times: Dict[int, List[float]]) -> List[Tuple[float, float]]:
    """Greedy epochs: each ends once every robot completed a cycle since it began."""
    if not activation_times or any(not times for times in activation_times.values()):
        return []
    per_robot = {rid: sorted(times) for rid, times in activation_times.items()}
    epoch_list: List[Tuple[float, float]] = []
    start = 0.0
    while True:
        ends = []
        for times in per_robot.values():
            future = [t for t in times if t >= start]
            if not future:
                return epoch_list
            ends.append(future[0])
        end = max(ends)
        epoch_list.append((start, end))
        start = math.nextafter(end, math.inf)
