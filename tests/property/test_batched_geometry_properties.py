"""Property suite for the batched geometry paths.

Two families of properties:

* ``Disk.contains_array`` answers exactly what ``Disk.contains`` answers,
  on arbitrary disks and query clouds; and
* the destinations the motion rules plan stay inside every distant safe
  region — the paper's per-activation safety invariant — in the plane
  and in 3-space, where every activation of a drawn round goes through
  the 3D ``compute_array`` core.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import KKNPSAlgorithm
from repro.geometry import Point
from repro.geometry.disk import Disk
from repro.geometry.tolerances import EPS
from repro.model import Snapshot
from repro.spatial3d.kknps3 import KKNPS3Algorithm

finite = dict(allow_nan=False, allow_infinity=False)
coords = st.floats(min_value=-5.0, max_value=5.0, **finite)
radii = st.floats(min_value=0.05, max_value=3.0, **finite)
disk_strategy = st.builds(lambda x, y, r: Disk(Point(x, y), r), coords, coords, radii)
query_clouds = st.lists(st.tuples(coords, coords), min_size=1, max_size=40)

angles = st.floats(min_value=0.0, max_value=2 * math.pi, **finite)
distances = st.floats(min_value=0.05, max_value=1.0, **finite)
neighbour_strategy = st.builds(Point.polar, distances, angles)
neighbour_lists = st.lists(neighbour_strategy, min_size=1, max_size=8)
k_values = st.integers(min_value=1, max_value=4)

vec3 = st.tuples(
    st.floats(min_value=-1.0, max_value=1.0, **finite),
    st.floats(min_value=-1.0, max_value=1.0, **finite),
    st.floats(min_value=-1.0, max_value=1.0, **finite),
)
rounds_3d = st.lists(
    st.lists(vec3, min_size=0, max_size=7), min_size=1, max_size=6
)


class TestDiskContainsArray:
    @given(disk_strategy, query_clouds)
    @settings(max_examples=80)
    def test_disk_contains_array_equals_contains(self, disk, cloud):
        px = np.array([x for x, _ in cloud])
        py = np.array([y for _, y in cloud])
        verdicts = disk.contains_array(px, py)
        for i, (x, y) in enumerate(cloud):
            assert verdicts[i] == disk.contains(Point(x, y))


class TestBatchedDestinations2D:
    @given(st.lists(neighbour_lists, min_size=1, max_size=5), k_values)
    @settings(max_examples=60)
    def test_batched_destinations_lie_in_all_distant_safe_regions(
        self, snapshots, k
    ):
        """Every destination of a drawn round lies in its distant safe regions."""
        algorithm = KKNPSAlgorithm(k=k)
        for neighbours in snapshots:
            snapshot = Snapshot(neighbours=tuple(neighbours))
            assert algorithm.destination_respects_safe_regions(snapshot, eps=1e-7)


class TestBatchedDestinations3D:
    @given(rounds_3d, k_values)
    @settings(max_examples=60, deadline=None)
    def test_round_destinations_lie_in_all_distant_safe_balls(self, rows, k):
        algorithm = KKNPS3Algorithm(k=k)
        for segment in rows:
            relative = np.array(segment, dtype=float).reshape(-1, 3)
            destination = algorithm.compute_array(relative)

            # The paper's invariant: the move stays in every distant safe ball.
            if len(relative) == 0:
                continue
            norms = np.sqrt((relative * relative).sum(axis=1))
            v_y = float(norms.max())
            if v_y <= EPS:
                continue
            distant = np.flatnonzero(
                norms > algorithm.close_fraction * v_y + EPS
            )
            if distant.size == 0:
                distant = np.array([int(norms.argmax())])
            radius = algorithm.safe_radius(v_y)
            for index in distant:
                length = norms[index]
                if length <= EPS:
                    continue
                center = relative[index] / length * radius
                gap = destination - center
                assert float(np.sqrt((gap * gap).sum())) <= radius + 1e-9
