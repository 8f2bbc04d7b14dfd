"""The grid visibility graph against the dense matrix it replaced.

:mod:`repro.model.visibility` builds every edge set from
:func:`~repro.geometry.pairs.grid_edges` and finds components with
``scipy.sparse.csgraph``; ``reference.visibility`` keeps the dense
``(n, n)`` builders and the depth-first search.  Both must agree on the
edge sets, the strong edge sets, connectivity and the components, in
order.  The draws put pairs at ``V + EPS`` plus or minus a few ulps,
repeat rows, take n down to 0, 1 and 2, and offset every coordinate by
1e9 or 1e12, where the grid's cell rounding band is wider than ``EPS``.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference.visibility import (
    dense_is_connected,
    dense_strong_visibility_edges,
    dense_visibility_edges,
    search_connected_components,
)
from repro.geometry.tolerances import EPS
from repro.model import Configuration
from repro.model.visibility import (
    connected_components,
    is_connected,
    strong_visibility_edges,
    visibility_edges,
)

RANGES = (1.0, 0.5, 2.5, 1e-6, math.inf)


def _step(value: float, ulps: int) -> float:
    direction = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        value = float(np.nextafter(value, direction))
    return value


@st.composite
def layouts(draw):
    """``(rows, visibility_range)`` with boundary pairs and repeated rows."""
    visibility_range = draw(st.sampled_from(RANGES))
    offset = draw(st.sampled_from((0.0, 1e9, -1e9, 1e12, -1e12)))
    coordinate = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
    rows = [
        (offset + draw(coordinate), offset + draw(coordinate))
        for _ in range(draw(st.integers(min_value=0, max_value=12)))
    ]
    # Pairs whose float separation sits a few ulps around a reach.
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        reach = draw(st.sampled_from((visibility_range, visibility_range / 2.0, 1.0)))
        reach = reach + EPS if math.isfinite(reach) else 1.0
        angle = draw(st.sampled_from((0.0, math.pi / 2, math.pi / 3, 2.0)))
        x, y = offset + draw(coordinate), offset + draw(coordinate)
        qx = _step(x + reach * math.cos(angle), draw(st.integers(min_value=-3, max_value=3)))
        qy = _step(y + reach * math.sin(angle), draw(st.integers(min_value=-3, max_value=3)))
        rows += [(x, y), (qx, qy)]
    # Coincident rows.
    if rows:
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            rows.append(rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))])
    order = draw(st.permutations(range(len(rows))))
    arr = np.array([rows[k] for k in order], dtype=float).reshape(-1, 2)
    return arr, visibility_range


def _check(arr: np.ndarray, visibility_range: float) -> None:
    n = len(arr)
    dense = dense_visibility_edges(arr, visibility_range)
    assert visibility_edges(arr, visibility_range) == dense
    assert strong_visibility_edges(arr, visibility_range) == dense_strong_visibility_edges(
        arr, visibility_range
    )
    components = search_connected_components(n, dense)
    assert connected_components(n, dense) == components
    assert is_connected(arr, visibility_range) == dense_is_connected(arr, visibility_range)
    assert is_connected(arr, visibility_range) == (len(components) <= 1)
    config = Configuration.of(arr, visibility_range)
    assert config.edges() == dense
    assert config.components() == components
    assert config.is_connected() == (len(components) <= 1)


@given(layouts())
@settings(max_examples=300, deadline=None)
@example((np.zeros((0, 2)), 1.0))
@example((np.array([[5.0, -2.0]]), 1.0))
@example((np.array([[0.0, 0.0], [1.0 + EPS, 0.0]]), 1.0))
@example((np.array([[0.0, 0.0], [_step(1.0 + EPS, 1), 0.0]]), 1.0))
@example((np.array([[-1e-17, 0.0], [1.0, 0.0]]), 1.0 - EPS))
@example((np.array([[1e12, 1e12], [1e12, 1e12], [1e12 + 1.0, 1e12]]), 1.0))
def test_grid_graph_equals_dense_graph(layout):
    _check(*layout)


def test_components_follow_the_lowest_vertex():
    """Components come in the order of their lowest vertex, whatever the edge order."""
    edges = [(3, 5), (0, 4), (1, 2), (2, 6)]
    assert connected_components(7, reversed(edges)) == [{0, 4}, {1, 2, 6}, {3, 5}]
    assert connected_components(0, []) == []
    assert connected_components(2, set()) == [{0}, {1}]
