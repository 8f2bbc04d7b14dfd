"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# Allow running the tests without installing the package first, and
# importing the reference oracles as ``reference.*``.
_TESTS = Path(__file__).resolve().parent
for _path in (_TESTS, _TESTS.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro.geometry import Point  # noqa: E402
from repro.model import Snapshot  # noqa: E402


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic numpy random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def pairs_from(monkeypatch):
    """``pairs_from(t)``: a round reads the carried visible pairs from ``t`` robots on.

    Sets :data:`repro.engine.spatial_index.GRID_MIN_ROBOTS` for the test:
    0 takes the pairs at any size, ``math.inf`` the dense gather.
    """
    from repro.engine import spatial_index

    return lambda threshold: monkeypatch.setattr(spatial_index, "GRID_MIN_ROBOTS", threshold)


@pytest.fixture
def triangle_points() -> list:
    """Three non-collinear points used by several geometry tests."""
    return [Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, 1.0)]


@pytest.fixture
def two_neighbour_snapshot() -> Snapshot:
    """A snapshot with two distant neighbours 90 degrees apart at distance 1."""
    return Snapshot(neighbours=(Point(1.0, 0.0), Point(0.0, 1.0)))


def make_snapshot(*neighbours, visibility_range=None, k_bound=None) -> Snapshot:
    """Convenience constructor used across algorithm tests."""
    return Snapshot(
        neighbours=tuple(Point.of(p) for p in neighbours),
        visibility_range=visibility_range,
        k_bound=k_bound,
    )
