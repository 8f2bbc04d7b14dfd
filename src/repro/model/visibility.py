"""Visibility graphs, connectivity and cohesion predicates.

Two robots are mutually visible when their separation is at most the
visibility range ``V``; the *visibility graph* has one vertex per robot
and an edge per mutually-visible pair.  Cohesive Convergence additionally
requires every edge of the initial visibility graph to persist forever
(``E(0) ⊆ E(t)``), and the congregation argument uses the *strong*
visibility relation (separation at most ``V/2``), which the paper shows
is monotone under its algorithm.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, List, Sequence, Set, Tuple

import numpy as np

from ..geometry.pairs import grid_connected, grid_edges
from ..geometry.point import PointLike, points_to_array
from ..geometry.tolerances import EPS

Edge = Tuple[int, int]


def visibility_edges(
    positions: Sequence[PointLike], visibility_range: float, *, eps: float = EPS
) -> Set[Edge]:
    """All pairs ``(i, j)`` with ``i < j`` whose separation is at most ``V``.

    Built by :func:`~repro.geometry.pairs.grid_edges` in O(n + |E|), which
    decides each pair's ``<= V + eps`` on the dense matrix's float.
    """
    i, j = grid_edges(points_to_array(positions), visibility_range + eps)
    return set(zip(i.tolist(), j.tolist()))


def strong_visibility_edges(
    positions: Sequence[PointLike], visibility_range: float, *, eps: float = EPS
) -> Set[Edge]:
    """Pairs whose separation is at most ``V/2`` (the paper's *strong* visibility)."""
    return visibility_edges(positions, visibility_range / 2.0, eps=eps)


def component_labels(n: int, i: np.ndarray, j: np.ndarray) -> Tuple[int, np.ndarray]:
    """``(count, labels)`` of the components of the graph on ``n`` vertices.

    The edges are the index pairs ``(i[k], j[k])``.  ``scipy`` labels an
    undirected graph's components from 0 as its search meets them in
    vertex order, so labels count up with each component's lowest vertex.
    """
    from scipy.sparse import coo_matrix, csgraph

    graph = coo_matrix((np.ones(len(i), dtype=np.int8), (i, j)), shape=(n, n))
    return csgraph.connected_components(graph, directed=False)


def connected_components(n: int, edges: Iterable[Edge]) -> List[Set[int]]:
    """Connected components of the graph on ``n`` vertices with ``edges``.

    Ordered by each component's lowest vertex.
    """
    if n == 0:
        return []
    index = np.fromiter(chain.from_iterable(edges), dtype=np.intp).reshape(-1, 2)
    count, labels = component_labels(n, index[:, 0], index[:, 1])
    bounds = np.cumsum(np.bincount(labels, minlength=count))[:-1]
    members = np.split(np.argsort(labels, kind="stable"), bounds)
    return [set(part.tolist()) for part in members]


def is_connected(
    positions: Sequence[PointLike], visibility_range: float, *, eps: float = EPS
) -> bool:
    """True when the visibility graph of ``positions`` is connected.

    Decided as the grid enumerates the edges, none of them held
    (:func:`~repro.geometry.pairs.grid_connected`).
    """
    return grid_connected(points_to_array(positions), visibility_range + eps)


def edges_preserved(
    initial_edges: Iterable[Edge],
    positions: Sequence[PointLike],
    visibility_range: float,
    *,
    eps: float = EPS,
) -> bool:
    """Cohesion predicate: every initial edge is still a visibility edge.

    This is the invariant ``E(0) ⊆ E(t)`` of the Cohesive Convergence
    problem definition (Section 2.4 of the paper).
    """
    current = visibility_edges(positions, visibility_range, eps=eps)
    return all(edge in current for edge in initial_edges)


def broken_edges(
    initial_edges: Iterable[Edge],
    positions: Sequence[PointLike],
    visibility_range: float,
    *,
    eps: float = EPS,
) -> Set[Edge]:
    """The initial edges that are no longer visibility edges (empty when cohesive)."""
    current = visibility_edges(positions, visibility_range, eps=eps)
    return {edge for edge in initial_edges if edge not in current}


def max_edge_stretch(
    edges: Iterable[Edge], positions: Sequence[PointLike]
) -> float:
    """Largest current separation among the given pairs (0 with no edges).

    Gathers only the endpoints of the given edges — O(|E|) work instead of
    the full O(n^2) pairwise matrix.
    """
    index = np.asarray(list(edges), dtype=int)
    if index.size == 0:
        return 0.0
    arr = points_to_array(positions)
    diff = arr[index[:, 0]] - arr[index[:, 1]]
    lengths = np.sqrt(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1])
    return float(lengths.max())


def neighbours_of(
    index: int, positions: Sequence[PointLike], visibility_range: float, *, eps: float = EPS
) -> List[int]:
    """Indices of the robots visible from robot ``index`` (excluding itself).

    Computes only the one distance row the query needs, not the full
    pairwise matrix.
    """
    arr = points_to_array(positions)
    if len(arr) == 0:
        return []
    diff = arr - arr[index]
    row = np.sqrt(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1])
    visible = row <= visibility_range + eps
    visible[index] = False
    return np.flatnonzero(visible).tolist()


def is_linearly_separable(
    positions: Sequence[PointLike], group_a: Iterable[int], group_b: Iterable[int]
) -> bool:
    """True when some line strictly separates the two groups of robots.

    The Section-7 impossibility produces a configuration whose visibility
    graph splits into two *linearly separable* connected components; this
    predicate lets the experiment verify that claim.  Implemented as a
    support-vector style test on the convex hulls: the groups are
    separable iff their convex hulls are disjoint, which we check by
    linear programming over candidate separating directions induced by
    hull edges and vertex pairs.
    """
    from ..geometry.hull import ConvexHull
    from ..geometry.point import Point

    pts_a = [Point.of(positions[i]) for i in group_a]
    pts_b = [Point.of(positions[i]) for i in group_b]
    if not pts_a or not pts_b:
        return True
    hull_a = ConvexHull.of(pts_a)
    hull_b = ConvexHull.of(pts_b)

    def separated_by(direction: Point) -> bool:
        if direction.norm() <= EPS:
            return False
        d = direction.unit()
        max_a = max(p.dot(d) for p in pts_a)
        min_b = min(p.dot(d) for p in pts_b)
        return max_a < min_b - EPS

    candidates: List[Point] = []
    for hull in (hull_a, hull_b):
        verts = hull.vertices
        for i, v in enumerate(verts):
            w = verts[(i + 1) % len(verts)] if len(verts) > 1 else v
            edge = w - v
            if edge.norm() > EPS:
                candidates.append(edge.perpendicular())
                candidates.append(-edge.perpendicular())
    for a in pts_a:
        for b in pts_b:
            diff = b - a
            if diff.norm() > EPS:
                candidates.append(diff)
    return any(separated_by(c) for c in candidates)
