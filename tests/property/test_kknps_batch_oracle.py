"""Property tests: the batched KKNPS core equals the ``Point``-form rule per activation.

:func:`~repro.algorithms.kknps.kknps_destinations_all` decides stacked
activations at once, certifying the surrounded ones without the angular
scan; :meth:`KKNPSAlgorithm.compute` runs its own quadrant test.  Each
activation's destination from both must equal
:func:`reference.rules.kknps_compute_points` bit for bit, zero signs
included.  Hypothesis stacks activations of every family the certificate
has to get right: surrounded sets, lattice rows with zeros on the axes, a
quadrant whose only row sits within a few ulps of the distant threshold
``close_fraction * V_Y + EPS``, empty activations, and scales down to
1e-160 and up to 1e160, under non-zero distance error tolerances too.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.rules import kknps_compute_points

from repro.algorithms import KKNPSAlgorithm
from repro.algorithms.kknps import kknps_destinations_all
from repro.geometry import Point
from repro.geometry.tolerances import EPS
from repro.model import Snapshot

FAMILIES = ("empty", "random", "lattice", "surrounded", "threshold")
SCALES = (1e-160, 1e-9, 1e-8, 1.0, 1e160)

kknps_rules = st.builds(
    KKNPSAlgorithm,
    k=st.integers(min_value=1, max_value=3),
    distance_error_tolerance=st.sampled_from([0.0, 0.05, 0.2]),
    close_fraction=st.sampled_from([0.5, 0.3, 0.9]),
)
unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
inside = st.floats(min_value=0.01, max_value=0.99)


def _polar(norm: float, angle: float) -> tuple:
    return (norm * math.cos(angle), norm * math.sin(angle))


def _nudged(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.inf if ulps > 0 else -math.inf)
    return value


@st.composite
def activation_rows(draw, close_fraction: float):
    """One activation's perceived rows, as an ``(m, 2)`` array."""
    family = draw(st.sampled_from(FAMILIES))
    scale = draw(st.sampled_from(SCALES))
    if family == "empty":
        return np.zeros((0, 2))
    if family == "random":
        rows = draw(st.lists(st.tuples(unit, unit), min_size=1, max_size=10))
    elif family == "lattice":
        steps = st.integers(-2, 2).map(float)
        rows = draw(st.lists(st.tuples(steps, steps), min_size=1, max_size=12))
    elif family == "surrounded":
        # One row strictly inside each open quadrant, plus any others.
        rows = [
            _polar(draw(st.floats(0.6, 1.0)), (quadrant + draw(inside)) * math.pi / 2)
            for quadrant in range(4)
        ]
        rows += draw(st.lists(st.tuples(unit, unit), max_size=6))
    else:
        # The farthest row (norm 1) and two distant rows leave a gap wider
        # than pi through the fourth quadrant; that quadrant's only row has
        # a norm within a few ulps of the distant threshold, so whether it
        # is distant decides between staying put and moving.
        threshold = close_fraction * scale + EPS
        rows = [
            _polar(1.0, draw(st.floats(0.05, 0.6))),
            _polar(0.95, draw(st.floats(1.7, 2.9))),
            _polar(0.95, draw(st.floats(3.3, 4.0))),
        ]
        rows = [(x * scale, y * scale) for x, y in rows]
        norm = _nudged(threshold, draw(st.integers(-4, 4)))
        rows.append(_polar(norm, draw(st.floats(4.9, 6.1))))
        return np.asarray(draw(st.permutations(rows)), dtype=float)
    return np.asarray(rows, dtype=float) * scale


@st.composite
def stacked(draw):
    algorithm = draw(kknps_rules)
    activations = draw(
        st.lists(activation_rows(algorithm.close_fraction), min_size=1, max_size=8)
    )
    return algorithm, activations


def _bits(x: float, y: float) -> tuple:
    return (x, y, math.copysign(1.0, x), math.copysign(1.0, y))


@given(stacked())
@settings(max_examples=300, deadline=None)
def test_batched_core_matches_point_rule(case):
    algorithm, activations = case
    counts = np.array([len(rows) for rows in activations], dtype=np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    flat = np.concatenate(activations)
    batched = kknps_destinations_all(
        flat[:, 0].copy(), flat[:, 1].copy(), starts, ends, algorithm.decide_consts()
    )
    for rows, (x, y) in zip(activations, batched.tolist()):
        by_points = Snapshot(neighbours=tuple(Point(px, py) for px, py in rows.tolist()))
        expected = kknps_compute_points(algorithm, by_points)
        assert _bits(x, y) == _bits(expected.x, expected.y)
        own = algorithm.compute(Snapshot(rows=rows))
        assert _bits(own.x, own.y) == _bits(expected.x, expected.y)
