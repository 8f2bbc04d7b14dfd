"""The dense visible-pair oracles of the round path's carried pair set.

:class:`repro.geometry.pairs.VisiblePairs` holds every pair ``i < j`` a
front end's Look keeps, refreshed only around the rows that changed.
These oracles list the same pairs from scratch, observer by observer,
with each front end's own Look expression written out: the offsets
``others - observer`` of a dense pool, then

* planar (:func:`~repro.model.snapshot.build_snapshot`):
  ``np.hypot(dx, dy)`` within ``(1e-12, V + EPS]``;
* 3D (:func:`~repro.spatial3d.engine3.visible_relative3`):
  ``sqrt(dx*dx + dy*dy + dz*dz)`` within ``(VIS_EPS, V + VIS_EPS]``.

A pair is listed when the lower-id robot's Look keeps the higher one;
:func:`dense_visible_pairs` also checks that the higher one's Look
returns the same verdict, which the pair set relies on.
:func:`dense_directed_keys` lists the same pairs from both ends, as the
pair set holds them.
"""

from __future__ import annotations

from typing import List, Set, Tuple

import numpy as np

from repro.geometry.tolerances import EPS
from repro.spatial3d.engine3 import VIS_EPS


def _look_keeps(rows: np.ndarray, observer: int, visibility_range: float) -> np.ndarray:
    """Which rows the observer's dense Look keeps, by the front end's expression."""
    delta = rows - rows[observer]
    if rows.shape[1] == 2:
        distance = np.hypot(delta[:, 0], delta[:, 1])
        return (distance > 1e-12) & (distance <= visibility_range + EPS)
    distance = np.sqrt(
        delta[:, 0] * delta[:, 0] + delta[:, 1] * delta[:, 1] + delta[:, 2] * delta[:, 2]
    )
    return (distance <= visibility_range + VIS_EPS) & (distance > VIS_EPS)


def dense_visible_pairs(
    rows: np.ndarray, visibility_range: float, runs: int = 1
) -> Set[Tuple[int, int]]:
    """Every pair ``(i, j)``, ``i < j``, of one run whose Looks keep each other.

    ``rows`` stack ``runs`` replicates of equal size; pairs never cross
    them.  Raises AssertionError if the two Looks of a pair disagree.
    """
    rows = np.asarray(rows, dtype=float)
    total = len(rows)
    size = total // runs if runs else 0
    verdicts = [
        _look_keeps(rows[run * size : (run + 1) * size], k, visibility_range)
        for run in range(runs)
        for k in range(size)
    ]
    pairs = set()
    for i in range(total):
        run, local = divmod(i, size)
        keeps = verdicts[i]
        for j_local in np.flatnonzero(keeps).tolist():
            assert verdicts[run * size + j_local][local], "asymmetric Look verdict"
            j = run * size + j_local
            if i < j:
                pairs.add((i, j))
    return pairs


def dense_directed_keys(pairs: Set[Tuple[int, int]], n: int) -> np.ndarray:
    """Both ends of every pair as sorted ``int64`` keys ``i * n + j`` and ``j * n + i``."""
    ends = sorted([i * n + j for i, j in pairs] + [j * n + i for i, j in pairs])
    return np.array(ends, dtype=np.int64)


def dense_neighbours(pairs: Set[Tuple[int, int]], owner: int) -> List[int]:
    """The owner's visible ids in ascending order, from a pair list."""
    return sorted([j for i, j in pairs if i == owner] + [i for i, j in pairs if j == owner])
