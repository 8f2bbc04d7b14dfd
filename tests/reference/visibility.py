"""The dense visibility graph: the oracle of the grid edge builder.

Before :func:`repro.geometry.pairs.grid_edges` became the one edge
builder, :mod:`repro.model.visibility` derived every edge set from the
full ``(n, n)`` distance matrix, collected it as a set of tuples and
found components with a Python depth-first search.  This module keeps
those builders, unchanged in behaviour, as the references the grid path
must match exactly:

* :func:`visibility_edges_from_matrix`, :func:`dense_visibility_edges`
  and :func:`dense_strong_visibility_edges` — the edge sets;
* :func:`search_connected_components` — components in the order of
  their lowest vertex, and :func:`dense_is_connected`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

import numpy as np

from repro.geometry.point import pairwise_distances
from repro.geometry.tolerances import EPS

Edge = Tuple[int, int]


def visibility_edges_from_matrix(
    distances: np.ndarray, visibility_range: float, *, eps: float = EPS
) -> Set[Edge]:
    """Visibility edges derived from a precomputed ``(n, n)`` distance matrix."""
    n = distances.shape[0]
    if n < 2:
        return set()
    rows, cols = np.triu_indices(n, k=1)
    mask = distances[rows, cols] <= visibility_range + eps
    return set(zip(rows[mask].tolist(), cols[mask].tolist()))


def dense_visibility_edges(positions, visibility_range: float, *, eps: float = EPS) -> Set[Edge]:
    """All pairs ``(i, j)``, ``i < j``, at most ``V`` apart, from the dense matrix."""
    if len(positions) < 2:
        return set()
    return visibility_edges_from_matrix(pairwise_distances(positions), visibility_range, eps=eps)


def dense_strong_visibility_edges(
    positions, visibility_range: float, *, eps: float = EPS
) -> Set[Edge]:
    """The strong-visibility pairs (at most ``V/2`` apart), from the dense matrix."""
    return dense_visibility_edges(positions, visibility_range / 2.0, eps=eps)


def _adjacency(n: int, edges: Iterable[Edge]) -> Dict[int, Set[int]]:
    adjacency: Dict[int, Set[int]] = {i: set() for i in range(n)}
    for i, j in edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    return adjacency


def search_connected_components(n: int, edges: Iterable[Edge]) -> List[Set[int]]:
    """Components by depth-first search, in the order of their lowest vertex."""
    adjacency = _adjacency(n, edges)
    seen: Set[int] = set()
    components: List[Set[int]] = []
    for start in range(n):
        if start in seen:
            continue
        stack = [start]
        component: Set[int] = set()
        while stack:
            v = stack.pop()
            if v in component:
                continue
            component.add(v)
            stack.extend(adjacency[v] - component)
        seen |= component
        components.append(component)
    return components


def dense_is_connected(positions, visibility_range: float, *, eps: float = EPS) -> bool:
    """True when the dense visibility graph of ``positions`` is connected.

    A breadth-first search over the rows of the boolean ``<= V + eps``
    matrix, so large oracle inputs stay quick.
    """
    n = len(positions)
    if n <= 1:
        return True
    adjacency = pairwise_distances(positions) <= visibility_range + eps
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    frontier = reached.copy()
    while frontier.any():
        frontier = adjacency[frontier].any(axis=0) & ~reached
        reached |= frontier
    return bool(reached.all())
