"""The dense 3D measures: the oracles of the collector's ``(n, 3)`` samples.

Before every engine sampled through one
:class:`~repro.engine.metrics.MetricsCollector`, the 3D extension
measured its runs with its own array helpers: the full ``(n, n)``
squared-distance matrix for the diameter and the minimum separation, and
a row gather for the initial edges' lengths.  This module keeps them,
unchanged in behaviour, as the references the collector's 3D samples and
the 3D sweep rows must match bit for bit:

* :func:`max_pairwise_distance3_array` and
  :func:`min_pairwise_distance3_array` — the extreme distances;
* :func:`edge_lengths3_array` and :func:`max_edge_stretch3` — the
  initial edges at later positions;
* :func:`dense_sample3` — every :class:`~repro.engine.metrics.MetricsSample`
  field a full 3D sample measures.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.tolerances import EPS


def _pairwise_squared3(rows: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """The ``(m, n)`` squared distances from ``(m, 3)`` rows to ``(n, 3)`` points.

    Squares summed left to right, like
    :meth:`~repro.spatial3d.vector3.Vector3.distance_to`.
    """
    delta = rows[:, None, 0] - arr[None, :, 0]
    squared = delta * delta
    for axis in (1, 2):
        delta = rows[:, None, axis] - arr[None, :, axis]
        squared += delta * delta
    return squared


def max_pairwise_distance3_array(positions) -> float:
    """Diameter of an ``(n, 3)`` point array from the full matrix (0 below two points)."""
    arr = np.asarray(positions, dtype=float)
    if len(arr) < 2:
        return 0.0
    return float(math.sqrt(_pairwise_squared3(arr, arr).max()))


def min_pairwise_distance3_array(positions) -> float:
    """Smallest separation between two distinct robots (0 below two points)."""
    arr = np.asarray(positions, dtype=float)
    n = len(arr)
    if n < 2:
        return 0.0
    squared = _pairwise_squared3(arr, arr)
    return float(math.sqrt(squared[~np.eye(n, dtype=bool)].min()))


def edge_lengths3_array(edge_index, positions) -> np.ndarray:
    """Current lengths of the given ``(E, 2)`` edges — a row gather."""
    index = np.asarray(edge_index, dtype=np.intp).reshape(-1, 2)
    if index.size == 0:
        return np.empty(0, dtype=float)
    arr = np.asarray(positions, dtype=float)
    diff = arr[index[:, 0]] - arr[index[:, 1]]
    squared = diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1] + diff[:, 2] * diff[:, 2]
    return np.sqrt(squared)


def max_edge_stretch3(edge_index, positions) -> float:
    """Largest current separation among the given pairs (0 with no edges)."""
    lengths = edge_lengths3_array(edge_index, positions)
    return float(lengths.max()) if lengths.size else 0.0


def dense_sample3(arr, edges, visibility_range: float) -> tuple:
    """``(diameter, perimeter, radius, min separation, broken edges)`` of ``(n, 3)`` rows.

    The shape of :func:`reference.hull.dense_sample`'s tuple; a 3D sample
    measures no hull perimeter or radius, so both are None.
    """
    lengths = edge_lengths3_array(sorted(edges), arr)
    return (
        max_pairwise_distance3_array(arr),
        None,
        None,
        min_pairwise_distance3_array(arr),
        int(np.count_nonzero(lengths > visibility_range + EPS)),
    )
