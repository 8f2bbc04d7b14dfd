"""The per-row replay of a round's counters: the oracle of :func:`repro.engine.kernel.replay_round`.

Before ``replay_round`` derived a capped or crash-holding round from one
cumulative sum, it walked the round's robot ids in Python, exactly as
the per-activation loop pops, skips and counts.  This module keeps that
walk as the reference the vectorised replay must match.
"""

from __future__ import annotations

from typing import List

import numpy as np


def replay_round_loop(batch, crashed, processed, popped, max_activations, record_every):
    """``(executed, first, boundaries, processed, popped)``, one row at a time."""
    pop_cap = 100 * max_activations
    rows: List[int] = []
    first = None
    boundaries = 0
    for row, robot_id in enumerate(batch.robot_ids.tolist()):
        if processed >= max_activations or popped >= pop_cap:
            break
        popped += 1
        if crashed[robot_id]:
            continue
        rows.append(row)
        processed += 1
        if processed % record_every == 0:
            if first is None:
                first = (len(rows), processed, popped)
            boundaries += 1
    executed = batch.take(np.asarray(rows, dtype=np.intp))
    return executed, first, boundaries, processed, popped
